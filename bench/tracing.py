"""Span tracing from outside the program: wrap every public function.

:class:`Installation` wraps each public function defined in a microgest module
and binds the wrapper wherever that function object is looked up: the
defining module and every microgest module that imported it (for example
both ``microgest.pipeline.extract_candidates`` and
``microgest.cli.extract_candidates``).  Nothing under ``src/`` changes.

Each call records one span (name, start, end, parent) in flat in-memory
arrays; :meth:`Tracer.write` dumps them at the end of a run.  A few
functions also carry a *hook* that turns the call's arguments and result
into counters (frames seen, candidates emitted, k-means iterations, ...)
so ratios are measured where the work happens.  :func:`per_layer_metrics`
reduces one traced pass to the per-layer metrics listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from microgest.pipeline import GestureClass

# the MAC counter is instrumentation, not work: a span per record_macs call
# would only add wrapper cost inside every layer step
UNTRACED = frozenset({"microgest.inference.record_macs", "microgest.inference.count_macs"})

_NO_PARENT = -1
_NO_GESTURE = int(GestureClass.NO_GESTURE)


class Tracer:
    """Spans of the traced passes plus per-pass counters from hooks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []
        self.active = False
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.layer_of: dict[int, int] = {}
        self.keep_alive: list = []

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_pass(self) -> int:
        """Reset the hook counters; returns the index of the pass's first span."""
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self.layer_of = {}
        self.keep_alive = []
        return len(self.name_id)

    @contextmanager
    def paused(self):
        """Run the enclosed block untraced (used around output checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def write(self, path: str) -> None:
        """Dump every span: names table plus parallel columns, times in ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_id.tolist(),
                    "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(),
                    "parent": self.parent.tolist(),
                },
                fh,
            )


# --- hooks: counters derived from a call's arguments and result --------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _hook_build_corpus(t, args, kwargs, result, ns):
    t.counters["synth.frames"] += len(result)


def _file_size(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _hook_save(t, args, kwargs, result, ns):
    t.counters["model_io.bytes_written"] += _file_size(args, kwargs)


def _hook_load(t, args, kwargs, result, ns):
    t.counters["model_io.bytes_read"] += _file_size(args, kwargs)


def _hook_extract(t, args, kwargs, result, ns):
    t.counters["pipeline.frames"] += len(_arg(args, kwargs, 0, "frames"))
    t.counters["pipeline.candidates"] += len(result)
    t.counters["pipeline.truncated"] += sum(1 for c in result if c.truncated)


def _hook_label(t, args, kwargs, result, ns):
    t.counters["pipeline.swipes"] += sum(1 for _, label in result if label != _NO_GESTURE)


def _hook_classify(t, args, kwargs, result, ns):
    t.counters["pipeline.swipes"] += result is not GestureClass.NO_GESTURE


def _hook_fsm(t, args, kwargs, result, ns):
    t.counters["pipeline.fsm_frames"] += len(_arg(args, kwargs, 0, "outputs"))


def _hook_spec_layers(t, args, kwargs, result, ns):
    # runs before the children: maps each layer object to its index
    spec = _arg(args, kwargs, 0, "spec")
    if id(spec.layers[0]) not in t.layer_of:
        t.keep_alive.append(spec)
        for i, layer in enumerate(spec.layers):
            t.layer_of[id(layer)] = i
        t.counters["inference.layers"] = max(
            t.counters["inference.layers"], len(spec.layers)
        )


_LAYER_KEYS = [
    (f"inference.L{i}.ns", f"inference.L{i}.macs", f"inference.L{i}.calls") for i in range(8)
]


def _hook_layer_step(t, args, kwargs, result, ns):
    layer = args[0] if args else kwargs["layer"]
    i = t.layer_of.get(id(layer))
    if i is not None:
        ns_key, macs_key, calls_key = _LAYER_KEYS[i]
        t.samples[ns_key].append(ns)
        t.counters[macs_key] += layer.neurons * layer.fan_in
        t.counters[calls_key] += 1


def _hook_train_ffnn(t, args, kwargs, result, ns):
    X = _arg(args, kwargs, 2, "X")
    cfg = _arg(args, kwargs, 4, "cfg")
    t.counters["training.ffnn_example_epochs"] += len(X) * cfg.epochs
    t.counters["training.ffnn_ns"] += ns
    t.counters["training.epochs"] += cfg.epochs


def _hook_retrain(t, args, kwargs, result, ns):
    t.counters["training.retrain_ns"] += ns
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[-1]  # last in both signatures
    t.counters["training.epochs"] += cfg.epochs


def _hook_bptt(t, args, kwargs, result, ns):
    # window bookkeeping follows train_rnn_bptt's own loop: one window per
    # ``horizon`` frames, one optimizer step per window with a labelled frame
    sequences = _arg(args, kwargs, 2, "sequences")
    cfg = _arg(args, kwargs, 3, "cfg")
    horizon = kwargs.get("horizon", args[4] if len(args) > 4 else 32)
    windows = labelled = frames = 0
    for _, targets in sequences:
        frames += len(targets)
        for start in range(0, len(targets), horizon):
            windows += 1
            labelled += bool((targets[start : start + horizon] >= 0).any())
    t.counters["training.bptt_frame_epochs"] += frames * cfg.epochs
    t.counters["training.bptt_windows"] += windows * cfg.epochs
    t.counters["training.bptt_labeled_windows"] += labelled * cfg.epochs
    t.counters["training.bptt_ns"] += ns
    t.counters["training.epochs"] += cfg.epochs


def _hook_kmeans(t, args, kwargs, result, ns):
    t.counters["compression.kmeans_iters"] += len(result[2]) - 1


def _hook_compress_model(t, args, kwargs, result, ns):
    for layer in result.layers:
        t.counters["compression.stored_entries"] += len(layer.indices)
        t.counters["compression.fillers"] += int(
            ((layer.deltas == 255) & (layer.centroids[layer.indices] == 0.0)).sum()
        )


def _hook_sparse_matvec(t, args, kwargs, result, ns):
    t.counters["compression.matvec_entries"] += len(_arg(args, kwargs, 0, "sl").values)


HOOKS = {
    "microgest.synth.build_corpus": _hook_build_corpus,
    "microgest.model_io.save_model": _hook_save,
    "microgest.model_io.save_compressed": _hook_save,
    "microgest.model_io.save_dataset": _hook_save,
    "microgest.model_io.load_model": _hook_load,
    "microgest.model_io.load_compressed": _hook_load,
    "microgest.model_io.load_dataset": _hook_load,
    "microgest.pipeline.extract_candidates": _hook_extract,
    "microgest.pipeline.label_candidates": _hook_label,
    "microgest.pipeline.classify_candidate": _hook_classify,
    "microgest.pipeline.fsm_postprocess": _hook_fsm,
    "microgest.inference.forward_dense": _hook_layer_step,
    "microgest.inference.step_recurrent": _hook_layer_step,
    "microgest.training.train_ffnn": _hook_train_ffnn,
    "microgest.training.retrain_pruned": _hook_retrain,
    "microgest.training.retrain_quantized": _hook_retrain,
    "microgest.training.train_rnn_bptt": _hook_bptt,
    "microgest.compression.kmeans_1d": _hook_kmeans,
    "microgest.compression.compress_model": _hook_compress_model,
    "microgest.compression.sparse_matvec": _hook_sparse_matvec,
}

PRE_HOOKS = {
    "microgest.inference.run_ffnn": _hook_spec_layers,
    "microgest.inference.step_rnn": _hook_spec_layers,
}


# --- installing the wrappers -------------------------------------------------

def _wrap(tracer: Tracer, fn, qualname: str):
    nid = tracer.intern(qualname)
    hook = HOOKS.get(qualname)
    pre = PRE_HOOKS.get(qualname)
    names, starts, ends, parents = tracer.name_id, tracer.start, tracer.end, tracer.parent
    stack = tracer.stack
    now = time.perf_counter_ns

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if pre is not None:
            pre(tracer, args, kwargs, None, 0)
        idx = len(names)
        names.append(nid)
        parents.append(stack[-1] if stack else _NO_PARENT)
        ends.append(0)
        stack.append(idx)
        starts.append(now())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = now()
            stack.pop()
        if hook is not None:
            hook(tracer, args, kwargs, result, ends[idx] - starts[idx])
        return result

    return traced


class Installation:
    """The wrapper bindings of one tracer; switch them on and off per pass."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        modules = [
            (modname, module) for modname, module in list(sys.modules.items())
            if modname == "microgest" or modname.startswith("microgest.")
        ]
        wrappers: dict[int, tuple[object, object]] = {}
        for modname, module in modules:
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == modname
                    and f"{modname}.{name}" not in UNTRACED
                ):
                    wrappers[id(obj)] = (obj, _wrap(tracer, obj, f"{modname}.{name}"))
        # every binding of an original function object, in any microgest module
        self.bindings: list[tuple[object, str, object, object]] = []
        for _, module in modules:
            for name, obj in vars(module).items():
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self.bindings.append((module, name, obj, pair[1]))

    def bind(self) -> None:
        for module, name, _, wrapper in self.bindings:
            setattr(module, name, wrapper)
        self.tracer.active = True

    def unbind(self) -> None:
        self.tracer.active = False
        for module, name, original, _ in self.bindings:
            setattr(module, name, original)


# --- per-layer metrics of one traced pass ------------------------------------

def _pass_totals(tracer: Tracer, first: int, last: int):
    """Total and self time (ns) and call count per span name."""
    total: defaultdict[str, int] = defaultdict(int)
    self_ns: defaultdict[str, int] = defaultdict(int)
    calls: defaultdict[str, int] = defaultdict(int)
    child_ns = defaultdict(int)
    for idx in range(first, last):
        dur = tracer.end[idx] - tracer.start[idx]
        p = tracer.parent[idx]
        if p >= first:
            child_ns[p] += dur
    for idx in range(first, last):
        name = tracer.names[tracer.name_id[idx]]
        dur = tracer.end[idx] - tracer.start[idx]
        total[name] += dur
        self_ns[name] += dur - child_ns.get(idx, 0)
        calls[name] += 1
    return total, self_ns, calls


def _median(values):
    values = sorted(values)
    n = len(values)
    if not n:
        return 0.0
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


N_LAYER_SLOTS = 3


def per_layer_metrics(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of the spans ``first..last-1`` (one traced pass).

    Times are seconds (``*_s``) or microseconds (``*_us*``).  A layer the
    workload never enters reads 0.
    """
    total, self_ns, calls = _pass_totals(tracer, first, last)
    c = tracer.counters
    S = 1e-9
    US = 1e-3

    def t(name):
        return total.get("microgest." + name, 0)

    def n(name):
        return calls.get("microgest." + name, 0)

    m: dict[str, float] = {}
    m["synth.build_corpus_s"] = t("synth.build_corpus") * S
    m["synth.frames"] = c["synth.frames"]
    m["synth.us_per_frame"] = _ratio(t("synth.build_corpus") * US, c["synth.frames"])

    saves = ("model_io.save_model", "model_io.save_compressed", "model_io.save_dataset")
    loads = ("model_io.load_model", "model_io.load_compressed", "model_io.load_dataset")
    m["model_io.save_s"] = sum(t(x) for x in saves) * S
    m["model_io.load_s"] = sum(t(x) for x in loads) * S
    m["model_io.bytes_written"] = c["model_io.bytes_written"]
    m["model_io.bytes_read"] = c["model_io.bytes_read"]

    m["pipeline.detector_us_per_frame"] = _ratio(
        t("pipeline.extract_candidates") * US, c["pipeline.frames"]
    )
    m["pipeline.frames"] = c["pipeline.frames"]
    m["pipeline.candidates"] = c["pipeline.candidates"]
    m["pipeline.truncated"] = c["pipeline.truncated"]
    m["pipeline.candidate_yield"] = _ratio(c["pipeline.swipes"], c["pipeline.candidates"])
    m["pipeline.label_candidates_s"] = t("pipeline.label_candidates") * S
    m["pipeline.scale_us_per_candidate"] = _ratio(
        t("pipeline.scale_candidate") * US, n("pipeline.scale_candidate")
    )
    m["pipeline.fsm_us_per_frame"] = _ratio(
        t("pipeline.fsm_postprocess") * US, c["pipeline.fsm_frames"]
    )
    m["pipeline.match_events_s"] = t("pipeline.match_events") * S

    m["features.us_per_frame"] = _ratio(
        (t("features.update_rolling") + t("features.build_features")) * US,
        n("features.build_features"),
    )
    m["features.calls"] = n("features.update_rolling") + n("features.build_features")

    m["inference.run_ffnn_us_per_call"] = _ratio(
        t("inference.run_ffnn") * US, n("inference.run_ffnn")
    )
    m["inference.run_ffnn_calls"] = n("inference.run_ffnn")
    m["inference.step_rnn_us_per_frame"] = _ratio(
        t("inference.step_rnn") * US, n("inference.step_rnn")
    )
    m["inference.step_rnn_calls"] = n("inference.step_rnn")
    m["inference.macs"] = sum(
        c[f"inference.L{i}.macs"] for i in range(int(c["inference.layers"]))
    )
    for i in range(N_LAYER_SLOTS):
        m[f"inference.L{i}.host_us"] = _median(tracer.samples[f"inference.L{i}.ns"]) * US
        m[f"inference.L{i}.macs"] = _ratio(
            c[f"inference.L{i}.macs"], c[f"inference.L{i}.calls"]
        )

    m["training.ffnn_us_per_example_epoch"] = _ratio(
        c["training.ffnn_ns"] * US, c["training.ffnn_example_epochs"]
    )
    m["training.retrain_s"] = c["training.retrain_ns"] * S
    m["training.bptt_us_per_frame_epoch"] = _ratio(
        c["training.bptt_ns"] * US, c["training.bptt_frame_epochs"]
    )
    m["training.bptt_windows"] = c["training.bptt_windows"]
    m["training.bptt_labeled_window_ratio"] = _ratio(
        c["training.bptt_labeled_windows"], c["training.bptt_windows"]
    )
    m["training.epochs"] = c["training.epochs"]

    m["compression.compress_model_s"] = t("compression.compress_model") * S
    m["compression.kmeans_s"] = t("compression.kmeans_1d") * S
    m["compression.kmeans_iters"] = c["compression.kmeans_iters"]
    m["compression.encode_sparse_s"] = t("compression.encode_sparse") * S
    m["compression.huffman_encode_s"] = t("compression.huffman_encode") * S
    m["compression.huffman_decode_s"] = t("compression.huffman_decode") * S
    m["compression.decompress_s"] = t("compression.decompress_model") * S
    m["compression.sparse_matvec_us_per_entry"] = _ratio(
        t("compression.sparse_matvec") * US, c["compression.matvec_entries"]
    )
    m["compression.stored_entries"] = c["compression.stored_entries"]
    m["compression.fillers"] = c["compression.fillers"]

    m["cli.self_s"] = sum(
        ns for name, ns in self_ns.items() if name.startswith("microgest.cli.cmd_")
    ) * S
    m["trace.spans"] = last - first
    return m
