#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload gesture-ffnn --seed 0 --seconds 20 --trace 0

The runner imports the package from ``src/`` in-process, sets the workload
up several times, then runs passes of it in a closed loop (one caller)
until ``--seconds`` have elapsed.  Inputs are made from ``--seed`` only.
Every pass checks its outputs and records digests of them; all passes of
one run, and all runs of the same code and seed (remembered under
``.bench_state/``), must agree.

Times are reported in reference seconds: wall seconds scaled by the
host's speed, measured with a fixed reference loop between timed units
(``workloads.HostSpeed``), so that a shared host's drift cancels.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced
ones plus the tracing overhead, and writes the spans to ``.bench_out/``.
The last line of stdout is the result object; the line before it is the
full report.  See ``bench/README.md`` for every name.
"""

from __future__ import annotations

import os
import sys

# single-threaded BLAS: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples
    beyond it (only once there are at least twenty samples)."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 20:
        q = int(100 * (1 - 10 / len(values)))
        out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return out


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, asked from the library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(load_at_start: tuple[float, float, float]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(load_at_start),
        "machine": platform.machine(),
    }


def code_hash() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


DIGESTS = ROOT / ".bench_state" / "digests.json"


def _known_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return {}


def remember_digests(key: str, digests: dict) -> None:
    known = _known_digests()
    known.setdefault(key, digests)
    path = DIGESTS
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)


# Reported seconds are wall seconds scaled to a host on which the reference
# loop of workloads.HostSpeed takes this long (about its median on a
# 2-vCPU Xeon VM).
HOST_REF_S = 0.0015


def host_scale(samples: list[float]) -> float:
    """Factor from wall seconds to reference seconds, for the stretch of
    the run in which ``samples`` of the reference loop were taken."""
    return HOST_REF_S / statistics.median(samples)


def scaled(workload, step):
    """Run ``step`` (a set-up or a pass) and attach the host scale of the
    reference-loop samples taken during it."""
    first = len(workload.host.samples)
    result = step()
    result.scale = host_scale(workload.host.samples[first:])
    return result


def flow(p) -> float:
    return p.scale * p.flow_s


def time_import(host, repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter importing the package,
    with the host's speed sampled before each import."""
    times = []
    for _ in range(repeats):
        host.sample()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
             "import microgest.cli", str(ROOT / "src")],
            check=True,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(passes, setups, import_s: float) -> dict[str, float]:
    return {
        "setup_s": import_s + statistics.median(s.scale * s.seconds for s in setups),
        "flow_s": statistics.median(flow(p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def stage_report(passes, setups) -> dict:
    """Every stage time and result of the workload, beyond the bounded
    metrics, in reference seconds.  Stages that only run in set-up (the
    sweep's corpus and training) are taken from the set-up repetitions."""
    out: dict = {"flow_s": summary([flow(p) for p in passes])}
    for field in ("stages", "results"):
        keys = {k for r in passes + setups for k in getattr(r, field)}
        for key in sorted(keys):
            runs = [p for p in passes if key in getattr(p, field)]
            runs = runs or [s for s in setups if key in getattr(s, field)]
            if field == "stages":
                values = [r.scale * r.stages[key] for r in runs]
                key = f"{key}_s"
            elif key.endswith("_per_s"):
                values = [r.results[key] / r.scale for r in runs]
            else:
                values = [r.results[key] for r in runs]
            out[key] = summary(values)
    return out


def layer_table(workload, per_layer: dict) -> list[dict]:
    """Measured host time and counted MACs beside the estimator's prediction."""
    from microgest.estimator import CostModel, count_weights
    from microgest.model import chain, parse_arch

    if workload.stream_arch is None:
        return []
    cost = CostModel()
    rows = []
    for i, layer in enumerate(parse_arch(workload.stream_arch).layers):
        macs = count_weights(chain(layer.input_size, [(layer.kind, layer.neurons, layer.activation)]))
        rows.append({
            "arch": workload.stream_arch,
            "layer": i,
            "kind": layer.kind.value,
            "predicted_macs": macs,
            "predicted_us": macs * cost.mac_us
            + layer.neurons * cost.activation_cost(layer.activation),
            "counted_macs": per_layer.get(f"inference.L{i}.macs", 0.0),
            "host_us": per_layer.get(f"inference.L{i}.host_us", 0.0),
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "microgest" / "__init__.py").is_file():
        print(f"error: no microgest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_at_start = os.getloadavg()

    sys.path.insert(0, str(ROOT / "src"))
    import microgest.cli  # noqa: F401

    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, declared, load_at_start, workdir, workloads, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _run(args, declared, load_at_start, workdir, workloads, tracing) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    env = environment(load_at_start)
    workload.host.warm()
    import_wall_s = time_import(workload.host)
    import_s = host_scale(workload.host.samples) * import_wall_s
    setups = [scaled(workload, workload.setup) for _ in range(workload.setup_repeats)]

    plain, traced, layer_metrics = [], [], []
    tracer = None
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        tracer = tracing.Tracer()
        installation = tracing.Installation(tracer)
        workload.pause = tracer.paused
    while True:
        gc.collect()  # every pass starts from the same collector state
        plain.append(scaled(workload, workload.run_pass))
        if tracer is not None:
            installation.bind()
            gc.collect()
            first = tracer.new_pass()
            try:
                traced.append(scaled(workload, workload.run_pass))
            finally:
                installation.unbind()
            layer_metrics.append(tracing.per_layer_metrics(tracer, first, len(tracer.name_id)))
        if time.perf_counter() >= deadline:
            break

    # outputs must agree across passes, with the untraced passes, and with
    # earlier runs of the same code and seed
    key = f"{code_hash()}/{args.workload}/{args.seed}"
    remembered = _known_digests().get(key)
    reference = remembered if remembered is not None else plain[0].digests
    for p in plain:
        p.compare(reference, "an earlier run of this code and seed"
                  if remembered is not None else "the first pass")
    for p in traced:
        p.compare(plain[0].digests, "the untraced pass")
    passes = plain + traced
    attempted = sum(len(p.ops) for p in passes)
    failures = [f"{op}: {why}" for p in passes for op, why in p.failures.items()]
    if remembered is None and not failures:
        remember_digests(key, plain[0].digests)

    timed = [p for p in plain if p.flow_s > 0]
    traced_ok = [p for p in traced if p.flow_s > 0]
    if not timed or (args.trace and not traced_ok):
        print(json.dumps({"error": "no pass completed", "failures": failures[:20]}),
              file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(plain),
        "environment": env,
        "setup": {"import_wall_s": import_wall_s, "repeats_wall_s": [s.seconds for s in setups]},
        "host": {"ref_s": HOST_REF_S, "samples": summary(workload.host.samples),
                 "pass_scale": summary([p.scale for p in timed]),
                 "setup_scale": summary([s.scale for s in setups])},
        "wall_flow_s": summary([p.flow_s for p in timed]),
        "stages": stage_report(timed, setups),
        "pass_flow_s": [flow(p) for p in plain],
        "digest": plain[0].digest(),
        "digest_parts": plain[0].digests,
        "digest_history": "new" if remembered is None else "compared",
    }

    if args.trace:
        metrics = {
            name: statistics.median(m[name] for m in layer_metrics)
            for name in layer_metrics[0]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(flow(p) for p in traced_ok)
            - statistics.median(flow(p) for p in timed)
        )
        table = layer_table(workload, metrics)
        for i in range(tracing.N_LAYER_SLOTS):
            row = table[i] if i < len(table) else None
            metrics[f"estimator.L{i}.predicted_us"] = row["predicted_us"] if row else 0.0
            metrics[f"estimator.L{i}.macs"] = row["predicted_macs"] if row else 0
            if row and row["counted_macs"] != row["predicted_macs"]:
                failures.append(f"infer: layer {i} counted {row['counted_macs']} MACs "
                                f"per execution, estimator predicts {row['predicted_macs']}")
        report["traced_passes"] = len(traced)
        report["layers"] = table
        report["trace_overhead_s"] = metrics["trace.overhead_s"]
        report["untraced_flow_s"] = summary([flow(p) for p in timed])
        report["traced_flow_s"] = summary([flow(p) for p in traced_ok])
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(str(spans))
        report["spans_file"] = str(spans.relative_to(ROOT))
        listed = declared["per_layer"]
    else:
        metrics = end_to_end(timed, setups, import_s)
        listed = declared["end_to_end"]
    names = [m["name"] for m in listed]
    units = {m["name"]: m["unit"] for m in listed}

    if sorted(metrics) != sorted(names):
        print(f"error: computed metrics {sorted(set(metrics) ^ set(names))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    report["error_rate"] = len(failures) / attempted
    report["failures"] = failures[:20]
    report["metrics"] = metrics
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
