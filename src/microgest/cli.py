"""Command-line surface: synth, train, eval, compress, estimate, infer.

Every command prints its effective configuration (including any seed)
before doing anything, so a run can be reproduced from its own output.
``--json`` switches stdout to a single machine-readable object carrying
the same information.  Exit code 0 means success; any domain error, or a
file that cannot be read or written, prints one line to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .compression import CompressionOptions, compress_model
from .errors import InvalidParams, MicrogestError, ShapeMismatch
from .estimator import Budget, CostModel, check_fit, load_config
from .features import (
    LABEL_KIND_GESTURE,
    LABEL_KIND_PHASE,
    AnnotatedSequence,
    Annotation,
    stream_features,
)
from .inference import step_rnn
from .model import ModelSpec, RnnState, format_arch, parse_arch
from .model_io import (
    load_dataset,
    load_model,
    save_compressed,
    save_dataset,
    save_model,
)
from .pipeline import (
    FfnnRecognizer,
    GestureClass,
    N_PHASE_STATES,
    _candidate_frames,
    _candidate_rows,
    _check_labels,
    _frame_pixels,
    extract_candidates,
    fsm_postprocess,
    label_candidates,
    match_events,
    phase_events,
)
from .synth import build_corpus
from .training import (
    TrainingConfig,
    classification_accuracy,
    init_params,
    retrain_pruned,
    retrain_quantized,
    train_ffnn,
    train_rnn_bptt,
)

ARCH_HELP = (
    "architecture string: layer sizes joined by '-', first number is the "
    "feature count; a layer is [r]N[activation] where the optional 'r' "
    "marks it recurrent, e.g. 180-8relu-5softmax or 12-9relu-9relu-"
    "r17softmax; hidden layers default to relu, the last layer to softmax"
)


def _config_dict(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if key == "json":
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def _emit(args: argparse.Namespace, human: list[str], payload: dict) -> None:
    """Print either the human lines or one JSON object, never both."""
    if args.json:
        payload = {"config": _config_dict(args), **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("config:")
        for key, value in _config_dict(args).items():
            print(f"  {key} = {value}")
        for line in human:
            print(line)


# --- shared dataset plumbing -------------------------------------------------

def _candidate_dataset(ds: AnnotatedSequence, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Detected candidates as a feature matrix with auto-assigned labels,
    checked to come from a gesture-labelled corpus, ``spec`` to be a
    candidate model (``pipeline._candidate_frames``) before anything is
    detected, and the candidates to be non-empty."""
    if ds.label_kind != LABEL_KIND_GESTURE:
        raise InvalidParams(
            f"candidates need a {LABEL_KIND_GESTURE}-labelled corpus, "
            f"got {ds.label_kind} labels"
        )
    target = _candidate_frames(spec, _frame_pixels(ds.frames)[1])
    labelled = label_candidates(extract_candidates(ds.frames), ds.annotations)
    if not labelled:
        raise InvalidParams("dataset yielded no training candidates")
    X = _candidate_rows(ds.frames, [c for c, _ in labelled], target)
    y = np.array([label for _, label in labelled], dtype=int)
    return X, y


def _phase_targets(ds: AnnotatedSequence) -> np.ndarray:
    """Per-frame phase-state labels of a stream, -1 where a frame has none."""
    targets = -np.ones(len(ds), dtype=int)
    targets[ds.label_frames] = ds.labels
    return targets


def _phase_features(spec: ModelSpec, ds: AnnotatedSequence) -> np.ndarray:
    """Per-frame inputs of a phase model over a stream, checked to fit it:
    the model has one output per phase state and takes the normalized
    pixels, plus the three rolling statistics when it has room for them."""
    if spec.output_size != N_PHASE_STATES:
        raise InvalidParams(
            f"phase labels need a {N_PHASE_STATES}-output model, "
            f"got {spec.output_size}"
        )
    pixels = ds.width * ds.height
    if spec.features not in (pixels, pixels + 3):
        raise ShapeMismatch(
            f"model wants {spec.features} features but frames provide "
            f"{pixels} pixels (+3 rolling statistics)"
        )
    return stream_features(ds.frames, with_stats=spec.features == pixels + 3)


def _stream_events(spec, params, ds: AnnotatedSequence, phases: bool):
    """Gesture events of a model over a stream.  With ``phases``, a phase
    model steps through the stream as one block, from zero state, and the
    FSM reads its states; otherwise the candidate recognizer runs."""
    if not phases:
        target = _candidate_frames(spec, _frame_pixels(ds.frames)[1])
        return FfnnRecognizer(spec, params, target)(ds)
    return fsm_postprocess(step_rnn(spec, params, _phase_features(spec, ds), RnnState(spec)))


# --- commands ----------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    corpus = build_corpus(args.per_class, seed=args.seed, width=args.width,
                          height=args.height, label_kind=args.labels)
    save_dataset(args.out, corpus)
    names = ([g.name.lower() for g in GestureClass] if args.labels == LABEL_KIND_GESTURE
             else [f"state_{s}" for s in range(N_PHASE_STATES)])
    tally = np.bincount(corpus.labels, minlength=len(names)).tolist()
    counts = {name: n for name, n in zip(names, tally) if n}
    human = [f"wrote {args.out}: {len(corpus)} frames, {len(corpus.labels)} annotations"]
    human.extend(f"  {name}: {counts[name]}" for name in sorted(counts))
    _emit(args, human, {"path": str(args.out), "frames": len(corpus),
                        "annotations": len(corpus.labels), "counts": counts})
    return 0


def _split(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = int(round(fraction * n))
    return perm[n_val:], perm[:n_val]


def cmd_train(args: argparse.Namespace) -> int:
    # one check for both data kinds; NaN fails the comparison too
    if not 0.0 <= args.val_fraction < 1.0:
        raise InvalidParams(
            f"--val-fraction must lie in [0, 1), got {args.val_fraction}"
        )
    spec = parse_arch(args.arch)
    ds = load_dataset(args.data)
    _check_labels(ds)
    cfg = TrainingConfig(
        optimizer=args.optimizer,
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    params = init_params(spec, args.seed)

    if ds.label_kind == LABEL_KIND_PHASE:
        X = _phase_features(spec, ds)
        targets = _phase_targets(ds)
        n_val = int(round(args.val_fraction * len(ds)))
        cut = len(ds) - n_val
        if not cut:
            raise InvalidParams(
                f"no frames to train on: {len(ds)} frames, "
                f"--val-fraction {args.val_fraction}"
            )
        params, history = train_rnn_bptt(
            spec, params, [(X[:cut], targets[:cut])], cfg, horizon=args.horizon
        )
        stats = {"final_loss": history[-1] if history else None}
        if n_val:
            outs = step_rnn(spec, params, X[cut:], RnnState(spec))
            labelled = targets[cut:] >= 0
            if labelled.any():
                preds = np.argmax(outs, axis=-1)
                stats["val_accuracy"] = float(
                    np.mean(preds[labelled] == targets[cut:][labelled])
                )
        trained_on = f"{cut} frames"
    else:
        X, y = _candidate_dataset(ds, spec)
        train_idx, val_idx = _split(X.shape[0], args.val_fraction, args.seed)
        params, history = train_ffnn(spec, params, X[train_idx], y[train_idx], cfg)
        stats = {
            "final_loss": history[-1] if history else None,
            "train_accuracy": classification_accuracy(
                spec, params, X[train_idx], y[train_idx]
            ),
            "candidates": int(X.shape[0]),
        }
        if val_idx.size:
            stats["val_accuracy"] = classification_accuracy(
                spec, params, X[val_idx], y[val_idx]
            )
        trained_on = f"{train_idx.size} candidates"

    human = [f"trained {format_arch(spec)} on {trained_on}"]
    human.extend(f"  {key} = {value}" for key, value in stats.items())
    save_model(
        args.out,
        spec,
        params,
        meta={"arch": format_arch(spec), "seed": args.seed, "epochs": args.epochs},
    )
    human.append(f"saved model to {args.out}")
    _emit(args, human, {"arch": format_arch(spec), **stats, "path": str(args.out)})
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    spec, params = load_model(args.model)
    ds = load_dataset(args.data)
    _check_labels(ds)
    phases = ds.label_kind == LABEL_KIND_PHASE
    events = _stream_events(spec, params, ds, phases)
    if phases:
        targets = _phase_targets(ds)
        annotations = [Annotation(t, int(g)) for t, g in phase_events(targets)]
    else:
        annotations = ds.annotations
    report = match_events(events, annotations, tolerance=args.tolerance)
    human = [
        f"accuracy: {report.accuracy:.4f} ({report.correct}/{report.total})",
        "confusion (annotation -> outcome):",
    ]
    confusion = {}
    for (label, outcome), count in sorted(report.confusion().items()):
        name = GestureClass(label).name.lower()
        human.append(f"  {name} -> {outcome}: {count}")
        confusion[f"{name}->{outcome}"] = count
    _emit(
        args,
        human,
        {
            "accuracy": report.accuracy,
            "correct": report.correct,
            "total": report.total,
            "events": len(events),
            "confusion": confusion,
        },
    )
    return 0


def cmd_compress(args: argparse.Namespace) -> int:
    spec, params = load_model(args.model)
    clusters: int | list[int] | None = None
    if args.clusters is not None:
        try:
            values = [int(v) for v in args.clusters.split(",")]
        except ValueError:
            raise InvalidParams(
                f"--clusters takes an integer or a comma-separated list of "
                f"integers, got {args.clusters!r}"
            ) from None
        clusters = values if "," in args.clusters else values[0]
    options = CompressionOptions(
        target_density=args.density,
        threshold=args.threshold,
        clusters=clusters,
        huffman=not args.no_huffman,
    )

    after_prune = None
    after_quantize = None
    if args.retrain_data is not None:
        ds = load_dataset(args.retrain_data)
        _check_labels(ds)
        X, y = _candidate_dataset(ds, spec)
        cfg = TrainingConfig(
            learning_rate=args.lr,
            epochs=args.retrain_epochs,
            batch_size=32,
            seed=args.seed,
        )

        def after_prune(pruned, removed):
            out, _ = retrain_pruned(spec, pruned, removed, X, y, cfg)
            return out

        def after_quantize(assignments, centroids, current):
            new_centroids, out, _ = retrain_quantized(
                spec, current, assignments, centroids, X, y, cfg
            )
            return new_centroids, out

    cm = compress_model(
        spec,
        params,
        options,
        retrain_after_prune=after_prune,
        retrain_after_quantize=after_quantize,
    )
    save_compressed(args.out, cm)
    on_disk = cm.stage_sizes["huffman" if cm.huffman else "encoded"]
    naive = cm.stage_sizes["naive"]
    human = [f"stage sizes (bytes):"]
    for stage, size in cm.stage_sizes.items():
        human.append(f"  {stage}: {size}")
    human.append(f"on-disk parameter payload: {on_disk} bytes")
    human.append(f"compression factor vs naive: {naive / on_disk:.2f}x")
    human.append(f"saved compressed model to {args.out}")
    _emit(
        args,
        human,
        {
            "path": str(args.out),
            "stage_sizes": cm.stage_sizes,
            "payload_bytes": on_disk,
            "factor": naive / on_disk,
            "surviving_weights": cm.surviving_weights(),
        },
    )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    if (args.model is None) == (args.arch is None):
        raise InvalidParams("give exactly one of --model or --arch")
    if args.model is not None:
        spec, _ = load_model(args.model)
    else:
        spec = parse_arch(args.arch)
    if args.config is not None:
        cost, budget = load_config(args.config)
    else:
        cost, budget = CostModel(), Budget()
    if args.bytes_per_param is not None:
        budget = replace(budget, bytes_per_parameter=args.bytes_per_param)
    report = check_fit(spec, budget, cost)
    limiting = spec.layers[report.ram_limiting_layer]
    human = [
        f"architecture: {format_arch(spec)}",
        f"weights (multiplications): {report.weights}",
        f"parameters: {report.parameters}",
        f"activation calls: {report.activation_calls}",
        f"ram variables: {report.ram_variables} "
        f"(limited by layer {report.ram_limiting_layer}: "
        f"{limiting.kind.value} {limiting.neurons} {limiting.activation.value})",
        f"flash: {report.flash_bytes} / {budget.flash_bytes} bytes "
        f"({'fits' if report.fits_flash else 'DOES NOT FIT'})",
        f"ram: {report.ram_bytes_needed} / {report.ram_bytes_allowed:.0f} bytes "
        f"({'fits' if report.fits_ram else 'DOES NOT FIT'})",
        f"activation time: {report.activation_time_us / 1000.0:.2f} ms",
        f"execution time: {report.exec_time_us / 1000.0:.2f} ms",
    ]
    payload = {
        **asdict(report),
        "arch": format_arch(spec),
        "flash_budget": budget.flash_bytes,
        "fits": report.fits,
    }
    _emit(args, human, payload)
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    spec, params = load_model(args.model)
    ds = load_dataset(args.data)
    events = _stream_events(spec, params, ds, args.mode == "rnn-phases")
    human = [f"{len(events)} event(s)"]
    for frame, cls in events:
        human.append(f"  frame {frame}: {GestureClass(int(cls)).name.lower()}")
    _emit(
        args,
        human,
        {
            "events": [
                {"frame": int(frame), "label": int(cls),
                 "name": GestureClass(int(cls)).name.lower()}
                for frame, cls in events
            ]
        },
    )
    return 0


# --- parser ------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable output")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microgest",
        description=(
            "tiny gesture classifiers for 8-bit microcontrollers: synthesis, "
            "training, compression, cost estimation, inference"
        ),
        epilog=ARCH_HELP,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate an annotated synthetic corpus")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument(
        "--labels",
        choices=(LABEL_KIND_GESTURE, LABEL_KIND_PHASE),
        default=LABEL_KIND_GESTURE,
    )
    p.add_argument("--width", type=int, default=3)
    p.add_argument("--height", type=int, default=3)
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    _add_common(p)

    p = subs.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--arch", required=True, help=ARCH_HELP)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--horizon", type=int, default=32)
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    _add_common(p)

    p = subs.add_parser("eval", help="score a model against a dataset")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--tolerance", type=int, default=10)
    _add_common(p)

    p = subs.add_parser("compress", help="prune, quantize, and encode a model")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument(
        "--clusters",
        default=None,
        help="shared weights per layer: one integer or a comma list",
    )
    p.add_argument("--no-huffman", action="store_true")
    p.add_argument("--retrain-data", type=Path, default=None)
    p.add_argument("--retrain-epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    _add_common(p)

    p = subs.add_parser("estimate", help="static resource and timing report")
    p.add_argument("--model", type=Path, default=None)
    p.add_argument("--arch", default=None, help=ARCH_HELP)
    p.add_argument("--config", type=Path, default=None,
                   help="key=value cost and budget file")
    p.add_argument("--bytes-per-param", type=int, choices=(1, 2, 4), default=None)
    _add_common(p)

    p = subs.add_parser("infer", help="run a model over a recorded stream")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument(
        "--mode", choices=("ffnn-candidates", "rnn-phases"), required=True
    )
    _add_common(p)

    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The parser is built once per process.  The command's ``cmd_<name>``
    function is looked up in this module at call time, so a function
    rebound here after the first call is the one that runs.
    """
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (MicrogestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
