#!/usr/bin/env python3
"""Run the full workflow: synthesize, train, evaluate, compress, estimate.

Two flows run one after the other: the gesture flow (a candidate
classifier, compressed and run on extracted candidates) and the phase
flow (a recurrent per-frame phase model trained with truncated BPTT,
evaluated through the phase-state walk and run frame by frame).
Everything lands in a scratch directory (default ./demo_output) as the
same files the CLI produces, so each stage can be rerun or inspected with
the ``microgest`` subcommands afterwards.  After each stage's own output a
line gives its wall time in seconds.  Takes a few seconds.
"""

import argparse
import time
from pathlib import Path

from microgest.cli import main as cli


def run(argv: list[str]) -> None:
    print("\n$ microgest " + " ".join(argv))
    start = time.perf_counter()
    rc = cli(argv)
    if rc != 0:
        raise SystemExit(rc)
    print(f"[{argv[0]}: {time.perf_counter() - start:.3f} s wall]")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("demo_output"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    seed = str(args.seed)

    train_ds = out / "train.mgds"
    heldout_ds = out / "heldout.mgds"
    model = out / "classifier.mgnn"
    compressed = out / "classifier.mgcm"

    run(["synth", "--out", str(train_ds), "--per-class", "120",
         "--seed", seed])
    run(["synth", "--out", str(heldout_ds), "--per-class", "30",
         "--seed", str(args.seed + 1)])
    run(["train", "--data", str(train_ds), "--arch", "180-8relu-5softmax",
         "--out", str(model), "--epochs", "60", "--seed", seed])
    run(["eval", "--model", str(model), "--data", str(heldout_ds)])
    run(["estimate", "--model", str(model)])
    # per-layer cluster counts: the pruned 8-neuron output layer keeps too
    # few weights to support 15 distinct values
    run(["compress", "--model", str(model), "--out", str(compressed),
         "--density", "0.32", "--clusters", "15,8",
         "--retrain-data", str(train_ds), "--retrain-epochs", "4",
         "--seed", seed])
    run(["infer", "--model", str(model), "--data", str(heldout_ds),
         "--mode", "ffnn-candidates"])

    phase_train_ds = out / "phase_train.mgds"
    phase_heldout_ds = out / "phase_heldout.mgds"
    phase_model = out / "phases.mgnn"
    run(["synth", "--out", str(phase_train_ds), "--labels", "phase",
         "--per-class", "20", "--seed", seed])
    run(["synth", "--out", str(phase_heldout_ds), "--labels", "phase",
         "--per-class", "10", "--seed", str(args.seed + 1)])
    run(["train", "--data", str(phase_train_ds), "--arch", "12-9-9-r17softmax",
         "--out", str(phase_model), "--epochs", "8", "--seed", seed])
    run(["eval", "--model", str(phase_model), "--data", str(phase_heldout_ds)])
    run(["infer", "--model", str(phase_model), "--data", str(phase_heldout_ds),
         "--mode", "rnn-phases"])
    print(f"\nartifacts left in {out}/")


if __name__ == "__main__":
    main()
