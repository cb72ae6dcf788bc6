"""Desk-side training: explicit backpropagation, SGD and Adam, BPTT.

Gradients are derived and coded by hand so that the same arithmetic could be
ported to a bare-metal trainer; no autodiff framework is involved.  The loss
everywhere is categorical cross-entropy over a softmax output layer.  Models
whose output layer is declared MAX or APPROX_SOFTMAX train against exact
softmax: those two kinds are execution-time substitutes and share its
gradient.

The forward passes own no arithmetic: every layer of a batch or of a BPTT
window goes through :func:`microgest.inference.layer_forward`, the same
kernel and activation table that inference uses, or its in-place steps,
so its multiply-accumulates are counted by
:func:`microgest.inference.count_macs` too.  The kernel, and for a
recurrent layer inference's one stepping loop ``_step_forward``, are
called directly, not through ``forward_dense`` or ``step_recurrent``, so
per-layer timings taken around the inference steppers measure inference
only.

The backward kernels live in :mod:`microgest.backprop`: the one
activation derivative ``_pull_back``, used by the minibatch backward pass
here, and the time-major truncated-BPTT window passes.  Recurrent training
has one loop over BPTT windows, the lazy generator ``_windows``, shared by
:func:`sequence_loss`, :func:`sequence_gradients` and
:func:`train_rnn_bptt`; inside a window only ``_forward_window`` and
``_backward_window`` do arithmetic.

A run's trainable arrays (weights and biases, or centroid tables and
biases when quantized) are views into one flat float64 buffer, and the
optimizers keep flat moments: each step updates the whole buffer with one
set of ufunc calls.  A minibatch run allocates a flat gradient buffer of
the same layout once; each step writes every layer's gradient straight
into its view (``np.matmul`` and ``np.add.reduce`` with ``out=``), and
each epoch gathers its shuffled rows once, so a batch is a slice.  Adam
steps through two scratch arrays allocated once per run.  Every run has
one epoch loop, :func:`_optimize`, which owns the seeded shuffle, the
optimizer, the per-epoch mean loss and the divergence check; a run only
supplies a generator of its steps.

Every public function that reads parameters and data starts with one
entry check (``_ffnn_inputs`` or ``_sequence_inputs``): the parameters are
validated against the spec, the features go through the steppers' block
rule (``inference._frames``) and the labels through the integer rule
(``features._label_array``), which refuses a bool or a float, never casts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backprop import (
    _backward_window,
    _forward_window,
    _Net,
    _pull_back,
    _train_kind,
)
from .errors import DivergenceDetected, InvalidParams, ShapeMismatch
from .errors import _check_integer, _check_seed, _float_array
from .features import _label_array
from .inference import _frames, layer_forward
from .model import (
    Activation,
    LayerParams,
    ModelSpec,
    Parameters,
    RnnState,
    _check_size,
    _removal_masks,
    validate,
)

_LOG_CLIP = 1e-12

# Adam's fixed moment decays and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainingConfig:
    """Optimizer choice and schedule for one training run.

    Adam runs with the fixed ``beta1`` 0.9, ``beta2`` 0.999 and ``eps``
    1e-8 (:data:`ADAM_BETA1`, :data:`ADAM_BETA2`, :data:`ADAM_EPS`).
    """

    optimizer: str = "adam"
    learning_rate: float = 0.01
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.optimizer not in ("sgd", "adam"):
            raise InvalidParams(f"unknown optimizer {self.optimizer!r}")
        # zero is allowed and leaves parameters untouched; negative is not,
        # and neither is NaN or an infinity
        if not 0.0 <= self.learning_rate < math.inf:
            raise InvalidParams("learning_rate must be finite and >= 0")
        # zero epochs is a valid no-op run (used to materialize an init)
        _check_integer("epochs", self.epochs, 0)
        _check_integer("batch_size", self.batch_size, 1)
        _check_seed(self.seed)


def init_params(spec: ModelSpec, seed: int) -> Parameters:
    """Random initial parameters.

    Weights are drawn from a zero-mean normal whose variance is ``2/fan_in``
    for relu layers and ``1/fan_in`` otherwise, keeping activation scale
    roughly constant through depth.  Biases start at zero.  Deterministic
    per seed.  The spec must pass the size rule (``model._check_size``).
    """
    _check_seed(seed)
    _check_size(spec)
    rng = np.random.default_rng(seed)
    layers = []
    for layer in spec.layers:
        var = 2.0 / layer.fan_in if layer.activation is Activation.RELU else 1.0 / layer.fan_in
        weights = rng.normal(0.0, np.sqrt(var), (layer.neurons, layer.fan_in))
        layers.append(LayerParams(weights, np.zeros(layer.neurons)))
    return Parameters(layers)


def _check_output_trainable(spec: ModelSpec) -> None:
    if _train_kind(spec.layers[-1].activation) is not Activation.SOFTMAX:
        raise InvalidParams(
            "training needs a softmax-family output layer "
            f"(got {spec.layers[-1].activation.value})"
        )


# --- optimizers --------------------------------------------------------------

def _flat_copy(arrays) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copies of ``arrays`` laid end to end in one float64 buffer, and one
    view into that buffer per array, shaped like it."""
    flat = np.concatenate([np.asarray(a, dtype=float) for a in arrays], axis=None)
    views, start = [], 0
    for a in arrays:
        stop = start + np.size(a)
        views.append(flat[start:stop].reshape(np.shape(a)))
        start = stop
    return flat, views


class _Sgd:
    def __init__(self, size: int, cfg: TrainingConfig) -> None:
        self.lr = cfg.learning_rate

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        flat -= self.lr * grad


class _Adam:
    def __init__(self, size: int, cfg: TrainingConfig) -> None:
        self.lr = cfg.learning_rate
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.scratch = np.empty((2, size))

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        (m, v), (step, den) = (self.m, self.v), self.scratch
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, grad, out=step)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grad, out=step), grad, out=step)
        # flat -= lr * (m / c1) / (sqrt(v / c2) + eps), in the two scratch arrays
        np.divide(m, c1, out=step)
        step *= self.lr
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        step /= den
        flat -= step


def _make_optimizer(size: int, cfg: TrainingConfig):
    """The run's optimizer over one flat buffer of ``size`` parameters.

    Element-wise IEEE arithmetic rounds each element on its own, so one
    update of the whole buffer equals one update per array bit for bit.
    """
    return _Adam(size, cfg) if cfg.optimizer == "adam" else _Sgd(size, cfg)


def _optimize(cfg: TrainingConfig, flat: np.ndarray, n: int, epoch) -> list[float]:
    """The one epoch loop of every training run; returns the loss history.

    Each epoch draws an order of the ``n`` items from ``cfg.seed``'s
    stream, and ``epoch(order)`` yields one ``(loss sum, count, flat
    gradient)`` per step.  The optimizer updates ``flat`` in place before
    the generator computes the next step.  An epoch's loss is its loss sum
    over its count (0.0 when nothing was counted); a loss that is not
    finite raises DivergenceDetected, with no overflow warning before it.
    """
    rng = np.random.default_rng(cfg.seed)
    opt = _make_optimizer(flat.size, cfg)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            total, count = 0.0, 0
            for loss, k, grad in epoch(rng.permutation(n)):
                total += loss
                count += k
                opt.step(flat, grad)
            mean_loss = total / count if count else 0.0
            if not np.isfinite(mean_loss):
                raise DivergenceDetected(f"loss became {mean_loss} during training")
            history.append(mean_loss)
    return history


# --- feed-forward training ---------------------------------------------------

def _ffnn_inputs(spec: ModelSpec, params: Parameters, X, y):
    """The entry check of every feed-forward function.

    Checks that ``params`` fit ``spec`` and are finite and that the data
    fit the model; returns ``X`` as floats and ``y`` as integers.
    """
    validate(spec, params)
    X = _frames(X, spec.features, "model", "features", block=True)
    y = _label_array("labels", y)
    if y.shape != (X.shape[0],):
        raise ShapeMismatch("labels must be one integer per example")
    if X.shape[0] == 0:
        raise InvalidParams("empty training set")
    if np.min(y) < 0 or np.max(y) >= spec.output_size:
        raise InvalidParams("labels must lie in 0..output_size-1")
    return X, y


def _layer_arrays(params: Parameters):
    """Per-layer weight and bias lists, the arrays themselves, not copies."""
    return [lp.weights for lp in params.layers], [lp.biases for lp in params.layers]


def _train_kinds(spec: ModelSpec) -> list[Activation]:
    return [_train_kind(layer.activation) for layer in spec.layers]


def _forward_batch(kinds, Ws, bs, X):
    acts = [X]
    zs = []
    for kind, W, b in zip(kinds, Ws, bs):
        z, a = layer_forward(kind, W, b, acts[-1])
        zs.append(z)
        acts.append(a)
    return zs, acts


def _batch_outputs(spec: ModelSpec, params: Parameters, X, y):
    """Checked labels and the training-time outputs for ``X``."""
    X, y = _ffnn_inputs(spec, params, X, y)
    return _forward_batch(_train_kinds(spec), *_layer_arrays(params), X)[1][-1], y


def _batch_loss(P: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy: the ufuncs that ``np.clip`` and ``np.mean`` run."""
    n = P.shape[0]
    picked = np.maximum(P[np.arange(n), y], _LOG_CLIP)
    return float(-(np.add.reduce(np.log(picked)) / n))


def _backward_batch(kinds, Ws, zs, acts, y, gW, gb):
    """Write the batch's gradients into the per-layer arrays ``gW``, ``gb``."""
    B = y.shape[0]
    delta = acts[-1].copy()
    delta[np.arange(B), y] -= 1.0
    delta /= B
    for i in range(len(Ws) - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=gW[i])
        np.add.reduce(delta, axis=0, out=gb[i])
        if i > 0:
            delta = _pull_back(kinds[i - 1], zs[i - 1], acts[i], delta @ Ws[i])
    return gW, gb


def gradients(spec: ModelSpec, params: Parameters, X, y):
    """Mean-batch cross-entropy gradients ``(per-layer dW, per-layer db)``."""
    X, y = _ffnn_inputs(spec, params, X, y)
    _check_output_trainable(spec)
    Ws, bs = _layer_arrays(params)
    kinds = _train_kinds(spec)
    zs, acts = _forward_batch(kinds, Ws, bs, X)
    gW, gb = [np.empty_like(W) for W in Ws], [np.empty_like(b) for b in bs]
    return _backward_batch(kinds, Ws, zs, acts, y, gW, gb)


def evaluate_loss(spec: ModelSpec, params: Parameters, X, y) -> float:
    """Mean cross-entropy of the training-time forward pass."""
    return _batch_loss(*_batch_outputs(spec, params, X, y))


def classification_accuracy(spec: ModelSpec, params: Parameters, X, y) -> float:
    """Fraction of examples whose argmax output matches the label."""
    P, y = _batch_outputs(spec, params, X, y)
    return float(np.mean(np.argmax(P, axis=1) == y))


def _lookup(kept, indices, centroids) -> list[np.ndarray]:
    """Weights read through assignments; ``kept`` masks those not -1 (a pruned 0.0)."""
    return [np.where(k, c[i], 0.0) for k, i, c in zip(kept, indices, centroids)]


def _fit_ffnn(spec, params, X, y, cfg, removed=None, quant=None):
    """Shared minibatch steps for plain, masked, and quantized training.

    The trainable arrays are views into one flat buffer, weights then
    biases, or centroid tables then biases when quantized.  Each step
    writes its gradients into a second flat buffer of the same layout,
    allocated once per run, and updates the whole parameter buffer.
    ``removed`` is a per-layer boolean mask of pruned weights (True means
    removed); their gradients are zeroed so they stay exactly 0.0.
    ``quant`` is ``(assignments, centroids)``: weights become centroid
    lookups and each centroid's gradient is the sum of its members'.
    """
    X, y = _ffnn_inputs(spec, params, X, y)
    _check_output_trainable(spec)
    kinds = _train_kinds(spec)
    L = len(params.layers)
    biases = [lp.biases for lp in params.layers]

    if quant is None:
        flat, views = _flat_copy([lp.weights for lp in params.layers] + biases)
        Ws = views[:L]
        if removed is not None:
            pruned = np.zeros(flat.size, dtype=bool)
            pruned[: sum(W.size for W in Ws)] = np.concatenate(removed, axis=None)
            flat[pruned] = 0.0
    else:
        assignments, centroids = quant
        flat, views = _flat_copy(list(centroids) + biases)
        centroids = views[:L]
        kept = [a >= 0 for a in assignments]
        indices = [np.maximum(a, 0) for a in assignments]
        members = [a[k] for a, k in zip(assignments, kept)]
    grad, grads = _flat_copy(views)  # the gradient buffer, laid out like flat
    bs, gb = views[L:], grads[L:]
    gW = grads[:L] if quant is None else [np.empty(a.shape) for a in assignments]

    def epoch(perm):
        for start in range(0, perm.size, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            Xb, yb = X[idx], y[idx]
            W_now = Ws if quant is None else _lookup(kept, indices, centroids)
            zs, acts = _forward_batch(kinds, W_now, bs, Xb)
            _backward_batch(kinds, W_now, zs, acts, yb, gW, gb)
            if quant is not None:
                for a, k, g, c in zip(members, kept, gW, grads):
                    c[...] = np.bincount(a, weights=g[k], minlength=c.size)
            elif removed is not None:
                grad[pruned] = 0.0
            yield _batch_loss(acts[-1], yb) * yb.shape[0], yb.shape[0], grad

    history = _optimize(cfg, flat, X.shape[0], epoch)
    if quant is not None:
        Ws = _lookup(kept, indices, centroids)
    out = Parameters([LayerParams(W, b) for W, b in zip(Ws, bs)])
    return out, history, None if quant is None else centroids


def train_ffnn(spec: ModelSpec, params: Parameters, X, y, cfg: TrainingConfig):
    """Minibatch training of a feed-forward classifier.

    Returns ``(trained Parameters, per-epoch loss history)``.  Shuffling and
    every weight update are driven by ``cfg.seed`` alone, so identical
    inputs reproduce identical parameters.  Raises DivergenceDetected when
    the loss leaves the finite range.
    """
    out, history, _ = _fit_ffnn(spec, params, X, y, cfg)
    return out, history


def retrain_pruned(
    spec: ModelSpec,
    params: Parameters,
    removed: Sequence[np.ndarray],
    X,
    y,
    cfg: TrainingConfig,
):
    """Fine-tune a pruned model without resurrecting removed weights.

    ``removed`` holds one boolean mask per layer, True at pruned positions;
    those weights are pinned at exactly 0.0 for the whole run.
    """
    removed = _removal_masks(removed, [(l.neurons, l.fan_in) for l in spec.layers])
    out, history, _ = _fit_ffnn(spec, params, X, y, cfg, removed=removed)
    return out, history


def retrain_quantized(
    spec: ModelSpec,
    params: Parameters,
    assignments: Sequence[np.ndarray],
    centroids: Sequence[np.ndarray],
    X,
    y,
    cfg: TrainingConfig,
):
    """Fine-tune shared-weight clusters after quantization.

    ``assignments`` maps every weight position to a centroid index (or -1
    for pruned positions); the forward pass reads weights through that
    lookup.  Each centroid moves by the summed gradient of its member
    weights; biases keep training individually.  Returns
    ``(new centroids, reconstructed Parameters)``.
    """
    if not len(assignments) == len(centroids) == len(spec.layers):
        raise ShapeMismatch("need one assignment array and centroid table per layer")
    assignments = [_label_array("assignments", a) for a in assignments]
    centroids = [_float_array(c, "a centroid table must be one-dimensional") for c in centroids]
    for a, c, layer in zip(assignments, centroids, spec.layers):
        if c.ndim != 1:
            raise ShapeMismatch("a centroid table must be one-dimensional")
        if a.shape != (layer.neurons, layer.fan_in):
            raise ShapeMismatch("assignment shape must match the weight matrix")
        if a.size and not -1 <= np.min(a) <= np.max(a) < len(c):
            raise InvalidParams(
                f"assignment index outside -1..{len(c) - 1} (-1 marks a pruned weight)"
            )
    out, history, new_centroids = _fit_ffnn(spec, params, X, y, cfg, quant=(assignments, centroids))
    return new_centroids, out, history


# --- recurrent training (truncated backpropagation through time) -------------

def _sequence_inputs(spec: ModelSpec, params: Parameters, sequences):
    """The entry check of every sequence function.

    Checks that ``params`` fit ``spec`` and are finite and that every
    ``(features, targets)`` pair fits the model; returns the pairs as float
    features and integer targets.
    """
    validate(spec, params)
    try:
        pairs = [(X, t) for X, t in sequences]
    except (TypeError, ValueError):  # an item that is not a pair
        raise ShapeMismatch("sequences must be (features, targets) pairs") from None
    sequences = [(_frames(X, spec.features, "model", "features", block=True),
                  _label_array("targets", t)) for X, t in pairs]
    if not sequences:
        raise InvalidParams("no training sequences")
    for X, t in sequences:
        if t.shape != (X.shape[0],):
            raise ShapeMismatch("need one target (or -1) per frame")
        if t.size and np.max(t) >= spec.output_size:
            raise InvalidParams("targets must lie in 0..output_size-1 or be -1")
    return sequences


def _windows(net: _Net, Ws, bs, X_seq, targets, horizon: int):
    """Yield ``(U, Z, A, targets)`` for each window of ``horizon`` frames.

    State starts at zero and carries across windows.  The loop is lazy:
    each window's forward pass reads ``Ws`` and ``bs`` only when it is
    reached, so an optimizer step taken in place after one window is seen
    by the next.
    """
    state = RnnState(net.spec)
    for start in range(0, X_seq.shape[0], horizon):
        stop = start + horizon
        U, Z, A = _forward_window(net, Ws, bs, X_seq[start:stop], state)
        yield U, Z, A, targets[start:stop]


def _window_loss(A, targets) -> tuple[float, int]:
    P = A[-1]
    labeled = np.nonzero(targets >= 0)[0]
    if labeled.size == 0:
        return 0.0, 0
    picked = np.clip(P[labeled, targets[labeled]], _LOG_CLIP, None)
    return float(-np.sum(np.log(picked))), int(labeled.size)


def sequence_loss(spec: ModelSpec, params: Parameters, X_seq, targets) -> float:
    """Cross-entropy over a sequence's labeled frames, from zero state."""
    [(X_seq, targets)] = _sequence_inputs(spec, params, [(X_seq, targets)])
    whole = max(len(targets), 1)  # the whole sequence is one window
    total, count = 0.0, 0
    net = _Net(spec)
    for _, _, A, t_win in _windows(net, *_layer_arrays(params), X_seq, targets, whole):
        total, count = _window_loss(A, t_win)
    return total / count if count else 0.0


def sequence_gradients(
    spec: ModelSpec, params: Parameters, X_seq, targets, horizon: int | None = None
):
    """BPTT gradients for one sequence, normalized by its labeled frames.

    With ``horizon=None`` gradients flow through the whole sequence and
    match finite differences of :func:`sequence_loss`.  A finite horizon
    cuts the sequence into windows; state flows forward across cuts but
    gradients do not.
    """
    [(X_seq, targets)] = _sequence_inputs(spec, params, [(X_seq, targets)])
    _check_output_trainable(spec)
    horizon = len(targets) if horizon is None else horizon
    _check_integer("horizon", horizon, 1)
    n_labeled = int(np.sum(targets >= 0))
    if n_labeled == 0:
        raise InvalidParams("sequence has no labeled frames")
    Ws, bs = _layer_arrays(params)
    net = _Net(spec)
    flat, views = _flat_copy([np.zeros_like(a) for a in Ws + bs])
    for U, Z, A, t_win in _windows(net, Ws, bs, X_seq, targets, horizon):
        gW, gb = _backward_window(net, Ws, U, Z, A, t_win, 1.0 / n_labeled)
        flat += np.concatenate(gW + gb, axis=None)
    return views[: len(Ws)], views[len(Ws) :]


def train_rnn_bptt(
    spec: ModelSpec,
    params: Parameters,
    sequences: Sequence[tuple[np.ndarray, np.ndarray]],
    cfg: TrainingConfig,
    horizon: int = 32,
):
    """Train a recurrent model with truncated backpropagation through time.

    ``sequences`` holds ``(features (T, F), targets (T,))`` pairs where a
    target of -1 marks an unlabeled frame.  Each sequence starts from zero
    state; within a sequence, state carries across windows of ``horizon``
    frames while gradients stop at window boundaries.  One optimizer step
    is taken per window that contains at least one labeled frame.  Returns
    ``(trained Parameters, per-epoch mean loss history)``.
    """
    sequences = _sequence_inputs(spec, params, sequences)
    _check_output_trainable(spec)
    _check_integer("horizon", horizon, 1)
    L = len(params.layers)
    flat, views = _flat_copy(
        [lp.weights for lp in params.layers] + [lp.biases for lp in params.layers]
    )
    Ws, bs = views[:L], views[L:]
    net = _Net(spec)

    def epoch(order):
        for si in order:
            for U, Z, A, t_win in _windows(net, Ws, bs, *sequences[si], horizon):
                total, count = _window_loss(A, t_win)
                if count:
                    gW, gb = _backward_window(net, Ws, U, Z, A, t_win, 1.0 / count)
                    yield total, count, np.concatenate(gW + gb, axis=None)

    history = _optimize(cfg, flat, len(sequences), epoch)
    out = Parameters([LayerParams(W, b) for W, b in zip(Ws, bs)])
    return out, history
