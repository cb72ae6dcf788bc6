"""The three benchmark workloads.

Each workload is a closed loop with one caller: the runner calls
:meth:`Workload.run_pass` again only after the previous pass returned.  A
pass is one trip through the workload's flow on inputs made from the run's
seed, so every pass of a run sees identical inputs and must produce
identical outputs.

* ``gesture-ffnn`` -- the README/demo flow through ``microgest.cli.main``,
  in-process: synth train and held-out gesture corpora, ``train
  180-8relu-5softmax``, ``eval``, ``estimate``, ``compress --density 0.32
  --clusters 15,8 --retrain-data``, ``infer --mode ffnn-candidates``.  The
  paper's headline flow: candidate detector, batched FFNN training (plain,
  pruned, quantized), single-vector ``run_ffnn``.  Nothing recurrent.
* ``phase-rnn`` -- synth ``--labels phase``, ``train 12-9-9-r17softmax``
  (truncated BPTT), ``eval`` (FSM) and ``infer --mode rnn-phases``.
  Dominated by per-frame Python loops (BPTT, rolling-statistics features,
  ``step_rnn``); never touches the candidate detector or the codec.
* ``compress-sweep`` -- trains three of the gesture classifier family once
  per set-up, then each pass compresses every model over densities x
  cluster counts (lossless ``None`` included), saves, loads, decompresses
  and runs ``sparse_matvec``.  The only workload that reads ``.mgcm`` back,
  so encode-on-save and decode-on-load are both timed.

Timed calls go through module attributes (``compression.compress_model``)
so the traced run sees them; output checks run untimed and untraced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import microgest.cli as cli
import microgest.compression as compression
import microgest.model_io as model_io
from microgest.compression import CompressionOptions, SparseLayer, prune
from microgest.estimator import count_weights
from microgest.features import AnnotatedSequence, Annotation
from microgest.inference import count_macs
from microgest.model import parse_arch
from microgest.model_io import (
    compressed_payload_size,
    load_dataset,
    load_model,
    load_model_meta,
    save_model,
)
from microgest.pipeline import (
    GestureClass,
    candidate_features,
    extract_candidates,
    label_candidates,
    last_phase_state,
    match_events,
    scale_candidate,
)
from microgest.synth import build_corpus
from microgest.training import TrainingConfig, init_params, train_ffnn


class HostSpeed:
    """Samples of a fixed reference loop, timed between the workload's
    timed units.

    The loop is the benchmark's own code and never changes with the
    program, so the ratio of a workload time to the median sample is a
    time in units of the host's current speed.  On a shared host that
    speed drifts by up to 2x over seconds to minutes, moving every timing
    of a run together; the ratio cancels most of that drift.  Like the
    workloads, the loop mixes interpreter work with small numpy calls."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._vec = np.linspace(-1.0, 1.0, 12)

    def _loop(self) -> None:
        acc = 0
        for i in range(15_000):
            acc += i * i
        x = self._vec
        for _ in range(200):
            x = np.tanh(0.5 * x + 0.1)

    def sample(self) -> None:
        # the first run refills the caches the workload just used, so only
        # the second one measures the host
        self._loop()
        t0 = time.perf_counter()
        self._loop()
        self.samples.append(time.perf_counter() - t0)

    def warm(self, times: int = 20) -> None:
        """Run the loop untimed until its first-call costs are paid."""
        for _ in range(times):
            self.sample()
        self.samples.clear()

    def spent(self) -> float:
        """Seconds spent sampling so far (both runs of the loop), to leave
        out of timings that enclose samples."""
        return 2 * sum(self.samples)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha(path: Path) -> str:
    return sha(Path(path).read_bytes())


@dataclass
class PassResult:
    """What one pass measured, produced and checked."""

    flow_s: float = 0.0
    scale: float = 1.0  # wall seconds to reference seconds, set by the runner
    stages: dict[str, float] = field(default_factory=dict)
    results: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    ops: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)

    def digest(self) -> str:
        return sha(json.dumps(self.digests, sort_keys=True).encode())

    def compare(self, reference: dict[str, str], what: str) -> None:
        """Fail every operation whose outputs differ from ``reference``."""
        for key in sorted(set(reference) | set(self.digests)):
            if reference.get(key) != self.digests.get(key):
                self.fail(key.split("|")[0], f"output {key} differs from {what}")

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)


@dataclass
class SetupResult:
    seconds: float
    scale: float = 1.0  # wall seconds to reference seconds, set by the runner
    stages: dict[str, float] = field(default_factory=dict)
    results: dict[str, float] = field(default_factory=dict)


class CliFailed(Exception):
    pass


class Workload:
    """One named workload: repeated set-up plus a timed, checked pass."""

    name = ""
    why = ""
    # streamed model of the per-network-layer table, if the workload has one
    stream_arch: str | None = None
    setup_repeats = 9

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.pause = contextlib.nullcontext  # the traced run swaps in Tracer.paused
        self.host = HostSpeed()

    def setup(self) -> SetupResult:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError


# --- in-process CLI flows ----------------------------------------------------

def _cli_json(argv: list[str]) -> tuple[int, dict | None]:
    """``microgest.cli.main(argv + ['--json'])`` with stdout captured."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv + ["--json"])
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
    if rc != 0:
        return rc, {"stderr": err.getvalue().strip()}
    return rc, json.loads(out.getvalue())


def _strip(payload: dict) -> dict:
    """A command's JSON output without the parts that name scratch paths."""
    return {k: v for k, v in payload.items() if k not in ("config", "path")}


def _phase_events(ds: AnnotatedSequence) -> list[tuple[int, GestureClass]]:
    """Ground-truth events of a phase-labelled stream: a swipe's last phase
    state followed by the idle state (independent of the CLI's copy)."""
    labels = {a.frame: a.label for a in ds.annotations}
    last = {last_phase_state(g): g for g in GestureClass if g is not GestureClass.NO_GESTURE}
    return [
        (t + 1, last[labels[t]])
        for t in range(len(ds) - 1)
        if labels.get(t) in last and labels.get(t + 1) == 0
    ]


class CliFlow(Workload):
    """A sequence of CLI commands plus the checks shared by both flows."""

    def commands(self, d: Path, small: bool) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def executions(self, heldout: AnnotatedSequence) -> int:
        """Network executions one streaming command performs on ``heldout``."""
        raise NotImplementedError

    def reference_events(self, heldout: AnnotatedSequence) -> list[Annotation]:
        raise NotImplementedError

    def _run(self, d: Path, small: bool, res: PassResult) -> dict[str, dict]:
        outputs: dict[str, dict] = {}
        macs: dict[str, int] = {}
        for op, argv in self.commands(d, small):
            self.host.sample()
            res.ops.append(op)
            stage = op.split(":")[0]
            t0 = time.perf_counter()
            try:
                if stage in ("eval", "infer"):
                    with count_macs() as counter:
                        rc, payload = _cli_json(argv)
                    macs[op] = counter.count
                else:
                    rc, payload = _cli_json(argv)
            except Exception as exc:  # an escaped exception fails the operation
                res.fail(op, f"{type(exc).__name__}: {exc}")
                raise CliFailed from exc
            finally:
                res.stages[stage] = res.stages.get(stage, 0.0) + time.perf_counter() - t0
            if rc != 0:
                res.fail(op, f"exit {rc}: {payload}")
                raise CliFailed
            outputs[op] = payload
        res.flow_s = sum(res.stages.values())  # the commands, not the samples between them
        outputs["_macs"] = macs
        return outputs

    def setup(self) -> SetupResult:
        d = self.workdir / "warmup"
        d.mkdir(parents=True, exist_ok=True)
        sampled = self.host.spent()
        t0 = time.perf_counter()
        res = PassResult()
        try:
            self._run(d, True, res)
        except CliFailed:
            raise RuntimeError(f"warm-up flow failed: {res.failures}") from None
        seconds = time.perf_counter() - t0 - (self.host.spent() - sampled)
        shutil.rmtree(d)
        return SetupResult(seconds)

    def run_pass(self) -> PassResult:
        d = self.workdir / "flow"
        d.mkdir(parents=True, exist_ok=True)
        res = PassResult()
        try:
            outputs = self._run(d, False, res)
        except CliFailed:
            return res
        with self.pause():
            self._check(d, outputs, res)
        return res

    def _check(self, d: Path, outputs: dict, res: PassResult) -> None:
        train_ds = load_dataset(d / "train.mgds")
        heldout = load_dataset(d / "heldout.mgds")
        res.results["synth_frames_per_s"] = (len(train_ds) + len(heldout)) / res.stages["synth"]
        streamed = 2 * len(heldout)
        res.results["stream_frames_per_s"] = streamed / (
            res.stages["eval"] + res.stages["infer"]
        )
        res.results["accuracy"] = outputs["eval"]["accuracy"]
        for op, name in (("synth", "train.mgds"), ("synth:heldout", "heldout.mgds"),
                         ("train", "model.mgnn")):
            res.digests[f"{op}|{name}"] = file_sha(d / name)
        for op, payload in outputs.items():
            if op != "_macs":
                res.digests[f"{op}|json"] = sha(json.dumps(_strip(payload), sort_keys=True).encode())

        # eval's accuracy must equal match_events on infer's events
        events = [(e["frame"], GestureClass(e["label"])) for e in outputs["infer"]["events"]]
        report = match_events(events, self.reference_events(heldout), tolerance=10)
        if report.accuracy != outputs["eval"]["accuracy"]:
            res.fail("eval", f"eval accuracy {outputs['eval']['accuracy']} != "
                             f"match_events on infer events {report.accuracy}")

        # the saved model reloads to identical parameters and bytes
        spec, params = load_model(d / "model.mgnn")
        save_model(d / "resaved.mgnn", spec, params, meta=load_model_meta(d / "model.mgnn"))
        _, again = load_model(d / "resaved.mgnn")
        same = (d / "resaved.mgnn").read_bytes() == (d / "model.mgnn").read_bytes() and all(
            np.array_equal(a.weights, b.weights) and np.array_equal(a.biases, b.biases)
            for a, b in zip(params.layers, again.layers)
        )
        if not same:
            res.fail("train", "saved .mgnn does not reload to identical parameters")

        # streaming inference performs exactly count_weights MACs per execution
        expected = count_weights(spec) * self.executions(heldout)
        for op, counted in outputs["_macs"].items():
            if counted != expected:
                res.fail(op, f"count_macs {counted} != count_weights x executions {expected}")
        self.extra_checks(d, outputs, res)

    def extra_checks(self, d: Path, outputs: dict, res: PassResult) -> None:
        pass


class GestureFfnn(CliFlow):
    name = "gesture-ffnn"
    why = "the paper's headline demo flow: detector, batched FFNN training, compression, run_ffnn"
    stream_arch = "180-8relu-5softmax"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._executions: dict[str, int] = {}

    def commands(self, d, small):
        s = self.seed
        per_class, held, epochs, retrain = (3, 2, 2, 1) if small else (40, 15, 30, 2)
        return [
            ("synth", ["synth", "--out", str(d / "train.mgds"),
                       "--per-class", str(per_class), "--seed", str(s)]),
            ("synth:heldout", ["synth", "--out", str(d / "heldout.mgds"),
                               "--per-class", str(held), "--seed", str(s + 1)]),
            ("train", ["train", "--data", str(d / "train.mgds"), "--arch", self.stream_arch,
                       "--out", str(d / "model.mgnn"), "--epochs", str(epochs),
                       "--seed", str(s)]),
            ("eval", ["eval", "--model", str(d / "model.mgnn"),
                      "--data", str(d / "heldout.mgds")]),
            ("estimate", ["estimate", "--model", str(d / "model.mgnn")]),
            ("compress", ["compress", "--model", str(d / "model.mgnn"),
                          "--out", str(d / "model.mgcm"), "--density", "0.32",
                          "--clusters", "15,8", "--retrain-data", str(d / "train.mgds"),
                          "--retrain-epochs", str(retrain), "--seed", str(s)]),
            ("infer", ["infer", "--model", str(d / "model.mgnn"),
                       "--data", str(d / "heldout.mgds"), "--mode", "ffnn-candidates"]),
        ]

    def executions(self, heldout):
        # one run_ffnn per detected candidate; the inputs repeat every pass
        key = sha(heldout.frames.tobytes())
        if key not in self._executions:
            self._executions[key] = len(extract_candidates(heldout.frames))
        return self._executions[key]

    def reference_events(self, heldout):
        return heldout.annotations

    def extra_checks(self, d, outputs, res):
        res.digests["compress|model.mgcm"] = file_sha(d / "model.mgcm")
        res.results["payload_bytes"] = outputs["compress"]["payload_bytes"]
        if compressed_payload_size(d / "model.mgcm") != outputs["compress"]["payload_bytes"]:
            res.fail("compress", "reported payload_bytes differs from the file")


class PhaseRnn(CliFlow):
    name = "phase-rnn"
    why = "per-frame Python loops: truncated BPTT, rolling-statistics features, step_rnn, FSM"
    stream_arch = "12-9-9-r17softmax"

    def commands(self, d, small):
        s = self.seed
        per_class, held, epochs = (2, 1, 1) if small else (4, 2, 2)
        return [
            ("synth", ["synth", "--out", str(d / "train.mgds"), "--labels", "phase",
                       "--per-class", str(per_class), "--seed", str(s)]),
            ("synth:heldout", ["synth", "--out", str(d / "heldout.mgds"), "--labels", "phase",
                               "--per-class", str(held), "--seed", str(s + 1)]),
            ("train", ["train", "--data", str(d / "train.mgds"), "--arch", self.stream_arch,
                       "--out", str(d / "model.mgnn"), "--epochs", str(epochs),
                       "--seed", str(s)]),
            ("eval", ["eval", "--model", str(d / "model.mgnn"),
                      "--data", str(d / "heldout.mgds")]),
            ("infer", ["infer", "--model", str(d / "model.mgnn"),
                       "--data", str(d / "heldout.mgds"), "--mode", "rnn-phases"]),
        ]

    def executions(self, heldout):
        return len(heldout)  # one step_rnn per frame

    def reference_events(self, heldout):
        return [Annotation(f, int(g)) for f, g in _phase_events(heldout)]


# --- compression design-space sweep ------------------------------------------

# three of the gesture classifier family in scripts/cost_tables.py
SWEEP_ARCHS = ("180-5-5", "180-10-5", "180-20-10-5")
SWEEP_DENSITIES = (None, 0.32, 0.1)
SWEEP_CLUSTERS = (None, 16, 4)
SWEEP_PER_CLASS = 80
SWEEP_EPOCHS = 50


@dataclass
class SweepModel:
    arch: str
    spec: object
    params: object
    probes: list[np.ndarray]
    surviving: dict[float | None, list[int]]


class CompressSweep(Workload):
    name = "compress-sweep"
    why = "the paper's compression design-space sweep; the only workload that reads .mgcm back"
    setup_repeats = 5  # each one trains three classifiers

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.models: list[SweepModel] = []

    def setup(self) -> SetupResult:
        d = self.workdir / "setup"
        d.mkdir(parents=True, exist_ok=True)
        self.host.sample()
        sampled = self.host.spent()
        t0 = time.perf_counter()
        corpus = build_corpus(SWEEP_PER_CLASS, seed=self.seed)
        model_io.save_dataset(d / "train.mgds", corpus)
        synth_s = time.perf_counter() - t0
        ds = load_dataset(d / "train.mgds")
        labelled = label_candidates(extract_candidates(ds.frames), ds.annotations)
        X = np.stack([candidate_features(scale_candidate(c, 20)) for c, _ in labelled])
        y = np.array([label for _, label in labelled], dtype=int)
        cfg = TrainingConfig(epochs=SWEEP_EPOCHS, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        models = []
        train_s = 0.0
        for arch in SWEEP_ARCHS:
            spec = parse_arch(arch)
            self.host.sample()
            t1 = time.perf_counter()
            params, _ = train_ffnn(spec, init_params(spec, self.seed), X, y, cfg)
            train_s += time.perf_counter() - t1
            probes = [rng.standard_normal(layer.fan_in) for layer in spec.layers]
            surviving = {
                density: [int(m.size - m.sum()) for m in (
                    prune(params, target_density=density) if density is not None
                    else [np.zeros(lp.weights.shape, dtype=bool) for lp in params.layers]
                )]
                for density in SWEEP_DENSITIES
            }
            models.append(SweepModel(arch, spec, params, probes, surviving))
        self.models = models
        # warm the codec path once on the smallest model
        warm = PassResult()
        self._config(d, models[0], 0.32, 4, warm)
        if warm.failures:
            raise RuntimeError(f"warm-up sweep failed: {warm.failures}")
        seconds = time.perf_counter() - t0 - (self.host.spent() - sampled)
        shutil.rmtree(d)
        return SetupResult(
            seconds,
            stages={"synth": synth_s, "train": train_s},
            results={"synth_frames_per_s": len(corpus) / synth_s},
        )

    def run_pass(self) -> PassResult:
        d = self.workdir / "sweep"
        d.mkdir(parents=True, exist_ok=True)
        res = PassResult()
        for model in self.models:
            for density in SWEEP_DENSITIES:
                for k in SWEEP_CLUSTERS:
                    self._config(d, model, density, k, res)
        res.flow_s = res.stages.get("compress", 0.0) + res.stages.get("decode", 0.0)
        return res

    def _config(self, d: Path, model: SweepModel, density, k, res: PassResult) -> None:
        op = f"{model.arch}/d={density}/k={k}"
        self.host.sample()
        res.ops.append(op)
        clusters = None if k is None else [min(k, n) for n in model.surviving[density]]
        options = CompressionOptions(target_density=density, clusters=clusters, huffman=True)
        path = d / "model.mgcm"
        try:
            t0 = time.perf_counter()
            cm = compression.compress_model(model.spec, model.params, options)
            model_io.save_compressed(path, cm)
            t1 = time.perf_counter()
            loaded = model_io.load_compressed(path)
            params = compression.decompress_model(loaded)
            products = []
            for layer, x in zip(loaded.layers, model.probes):
                stored = SparseLayer(layer.centroids[layer.indices], layer.deltas)
                with count_macs() as counter:
                    y = compression.sparse_matvec(stored, layer.shape, x)
                products.append((y, counter.count))
            t2 = time.perf_counter()
        except Exception as exc:  # an escaped exception fails the configuration
            res.fail(op, f"{type(exc).__name__}: {exc}")
            return
        res.stages["compress"] = res.stages.get("compress", 0.0) + t1 - t0
        res.stages["decode"] = res.stages.get("decode", 0.0) + t2 - t1
        with self.pause():
            self._check_config(op, path, cm, loaded, params, products, model, res)

    def _check_config(self, op, path, cm, loaded, params, products, model, res):
        res.digests[f"{op}|mgcm"] = file_sha(path)
        res.results["payload_bytes"] = (
            res.results.get("payload_bytes", 0) + compressed_payload_size(path)
        )
        reference = compression.decompress_model(cm)
        if not all(
            np.array_equal(a.weights, b.weights) and np.array_equal(a.biases, b.biases)
            for a, b in zip(params.layers, reference.layers)
        ):
            res.fail(op, "decompress_model(load_compressed(p)) != decompress_model(cm)")
        layers = zip(loaded.layers, params.layers, model.probes, products)
        for i, (layer, lp, x, (y, counted)) in enumerate(layers):
            if counted != len(layer.indices):
                res.fail(op, f"layer {i}: sparse_matvec counted {counted} MACs, "
                             f"{len(layer.indices)} entries stored")
            # same products, summed in another order: bound by n*eps*sum|w*x|
            dense = lp.weights @ x
            slack = 1e-12 * (np.abs(lp.weights) @ np.abs(x)) + 1e-300
            if not np.all(np.abs(y - dense) <= slack):
                res.fail(op, f"layer {i}: sparse_matvec differs from the dense product")
            res.digests[f"{op}|L{i}.matvec"] = sha(np.asarray(y).tobytes())


WORKLOADS = {w.name: w for w in (GestureFfnn, PhaseRnn, CompressSweep)}

