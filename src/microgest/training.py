"""Desk-side training: explicit backpropagation, SGD and Adam, BPTT.

Gradients are derived and coded by hand so that the same arithmetic could be
ported to a bare-metal trainer; no autodiff framework is involved.  The loss
everywhere is categorical cross-entropy over a softmax output layer.  Models
whose output layer is declared MAX or APPROX_SOFTMAX train against exact
softmax: those two kinds are execution-time substitutes and share its
gradient.

The forward passes own no arithmetic: every layer of a batch, of a BPTT
window or of a BPTT time step goes through
:func:`microgest.inference.layer_forward`, the same kernel and activation
table that inference uses, so its multiply-accumulates are counted by
:func:`microgest.inference.count_macs` too.  The kernel is called
directly, not through ``forward_dense``, so per-layer timings taken around
the inference steppers measure inference only.

The backward passes have one activation derivative, ``_pull_back``.  It
works on the last axis, so a minibatch, a window of time steps and one
time step use the same lines: the softmax family goes through its Jacobian
product, element-wise kinds multiply by their derivative, with subgradient
zero at the kinks of relu and hard sigmoid.  Recurrent training has one
loop over BPTT windows, the lazy generator ``_windows``, shared by
:func:`sequence_loss`, :func:`sequence_gradients` and
:func:`train_rnn_bptt`; inside a window only ``_forward_window`` and
``_backward_window`` do arithmetic.

Truncated BPTT (Williams and Peng, 1990) is time-major.  Dense layers
below the first recurrent layer depend on no earlier step, so they run
once per window, forward and backward, over all its steps at once; only
the first recurrent layer and the layers above it loop over ``t``.  The
result is bit-identical to stepping every layer: the prefix's products go
through numpy as stacks of single rows (``(T, 1, fan_in)`` forward,
``(n, 1)`` columns backward), which numpy multiplies one row at a time
exactly as it does a lone vector, and every layer's weight and bias
gradients add their per-step terms from the last step to the first.  A
plain ``(T, fan_in)`` product, or a reduction over the steps, would round
differently.

Every public function that reads parameters and data starts with one
entry check (``_ffnn_inputs`` or ``_sequence_inputs``) that validates the
parameters against the spec before anything is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DivergenceDetected, InvalidParams, ShapeMismatch
from .inference import layer_forward
from .model import (
    Activation,
    LayerKind,
    LayerParams,
    ModelSpec,
    Parameters,
    RnnState,
    validate,
)

_LOG_CLIP = 1e-12


@dataclass(frozen=True)
class TrainingConfig:
    """Optimizer choice and schedule for one training run."""

    optimizer: str = "adam"
    learning_rate: float = 0.01
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.optimizer not in ("sgd", "adam"):
            raise InvalidParams(f"unknown optimizer {self.optimizer!r}")
        # zero is allowed and leaves parameters untouched; negative is not
        if self.learning_rate < 0.0:
            raise InvalidParams("learning_rate must be >= 0")
        # zero epochs is a valid no-op run (used to materialize an init)
        if self.epochs < 0:
            raise InvalidParams("epochs must be >= 0")
        if self.batch_size < 1:
            raise InvalidParams("batch_size must be >= 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise InvalidParams("betas must lie in [0, 1)")
        if self.eps <= 0.0:
            raise InvalidParams("eps must be > 0")


def init_params(spec: ModelSpec, seed: int) -> Parameters:
    """Random initial parameters.

    Weights are drawn from a zero-mean normal whose variance is ``2/fan_in``
    for relu layers and ``1/fan_in`` otherwise, keeping activation scale
    roughly constant through depth.  Biases start at zero.  Deterministic
    per seed.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for layer in spec.layers:
        var = 2.0 / layer.fan_in if layer.activation is Activation.RELU else 1.0 / layer.fan_in
        weights = rng.normal(0.0, np.sqrt(var), (layer.neurons, layer.fan_in))
        layers.append(LayerParams(weights, np.zeros(layer.neurons)))
    return Parameters(layers)


# --- training-time activations -----------------------------------------------

def _train_kind(kind: Activation) -> Activation:
    if kind in (Activation.MAX, Activation.APPROX_SOFTMAX):
        return Activation.SOFTMAX
    return kind


def _pull_back(
    kind: Activation, Z: np.ndarray, A: np.ndarray, dA: np.ndarray
) -> np.ndarray:
    """Pull a gradient through activation ``kind``: ``dA`` on ``A`` to ``dZ``.

    Works on the last axis, so a batch of rows and one time step go through
    the same lines.  Softmax-family kinds apply the Jacobian product
    ``A * (dA - sum(dA * A))``; element-wise kinds multiply by their
    derivative, with subgradient zero at kinks.
    """
    kind = _train_kind(kind)
    if kind is Activation.SOFTMAX:
        return A * (dA - (dA * A).sum(axis=-1, keepdims=True))
    if kind is Activation.SIGMOID:
        return dA * (A * (1.0 - A))
    if kind is Activation.TANH:
        return dA * (1.0 - A * A)
    if kind is Activation.HARD_SIGMOID:
        return dA * (0.2 * ((Z > -2.5) & (Z < 2.5)))
    if kind is Activation.SOFTSIGN:
        d = 1.0 + np.abs(Z)
        return dA * (1.0 / (d * d))
    return dA * (Z > 0.0).astype(float)  # relu, the last element-wise kind


def _check_output_trainable(spec: ModelSpec) -> None:
    if _train_kind(spec.layers[-1].activation) is not Activation.SOFTMAX:
        raise InvalidParams(
            "training needs a softmax-family output layer "
            f"(got {spec.layers[-1].activation.value})"
        )


# --- optimizers --------------------------------------------------------------

class _Sgd:
    def __init__(self, arrays: list[np.ndarray], cfg: TrainingConfig) -> None:
        self.lr = cfg.learning_rate

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for p, g in zip(arrays, grads):
            p -= self.lr * g


class _Adam:
    def __init__(self, arrays: list[np.ndarray], cfg: TrainingConfig) -> None:
        self.lr = cfg.learning_rate
        self.b1, self.b2, self.eps = cfg.beta1, cfg.beta2, cfg.eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in arrays]
        self.v = [np.zeros_like(p) for p in arrays]

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for p, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _make_optimizer(arrays: list[np.ndarray], cfg: TrainingConfig):
    return _Adam(arrays, cfg) if cfg.optimizer == "adam" else _Sgd(arrays, cfg)


# --- feed-forward training ---------------------------------------------------

def _ffnn_inputs(spec: ModelSpec, params: Parameters, X, y):
    """The entry check of every feed-forward function.

    Checks that ``params`` fit ``spec`` and are finite and that the data
    fit the model; returns ``X`` as floats and ``y`` as integers.
    """
    validate(spec, params)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[1] != spec.features:
        raise ShapeMismatch(
            f"features must be (N, {spec.features}), got {X.shape}"
        )
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


def _forward_batch(spec: ModelSpec, Ws, bs, X):
    acts = [X]
    zs = []
    for layer, W, b in zip(spec.layers, Ws, bs):
        z, a = layer_forward(_train_kind(layer.activation), W, b, acts[-1])
        zs.append(z)
        acts.append(a)
    return zs, acts


def _batch_outputs(spec: ModelSpec, params: Parameters, X, y):
    """Checked labels and the training-time outputs for ``X``."""
    X, y = _ffnn_inputs(spec, params, X, y)
    return _forward_batch(spec, *_layer_arrays(params), X)[1][-1], y


def _batch_loss(P: np.ndarray, y: np.ndarray) -> float:
    picked = np.clip(P[np.arange(P.shape[0]), y], _LOG_CLIP, None)
    return float(-np.mean(np.log(picked)))


def _backward_batch(spec: ModelSpec, Ws, zs, acts, y):
    B = y.shape[0]
    delta = acts[-1].copy()
    delta[np.arange(B), y] -= 1.0
    delta /= B
    gW = [None] * len(Ws)
    gb = [None] * len(Ws)
    for i in range(len(Ws) - 1, -1, -1):
        gW[i] = delta.T @ acts[i]
        gb[i] = delta.sum(axis=0)
        if i > 0:
            kind = spec.layers[i - 1].activation
            delta = _pull_back(kind, zs[i - 1], acts[i], delta @ Ws[i])
    return gW, gb


def gradients(spec: ModelSpec, params: Parameters, X, y):
    """Mean-batch cross-entropy gradients ``(per-layer dW, per-layer db)``."""
    X, y = _ffnn_inputs(spec, params, X, y)
    _check_output_trainable(spec)
    Ws, bs = _layer_arrays(params)
    zs, acts = _forward_batch(spec, Ws, bs, X)
    return _backward_batch(spec, Ws, zs, acts, y)


def evaluate_loss(spec: ModelSpec, params: Parameters, X, y) -> float:
    """Mean cross-entropy of the training-time forward pass."""
    return _batch_loss(*_batch_outputs(spec, params, X, y))


def classification_accuracy(spec: ModelSpec, params: Parameters, X, y) -> float:
    """Fraction of examples whose argmax output matches the label."""
    P, y = _batch_outputs(spec, params, X, y)
    return float(np.mean(np.argmax(P, axis=1) == y))


def _lookup(assignments, centroids) -> list[np.ndarray]:
    """Weights read through cluster assignments; -1 marks a pruned 0.0."""
    return [
        np.where(a >= 0, c[np.maximum(a, 0)], 0.0)
        for a, c in zip(assignments, centroids)
    ]


def _fit_ffnn(spec, params, X, y, cfg, removed=None, quant=None):
    """Shared minibatch loop for plain, masked, and quantized training.

    ``removed`` is a per-layer boolean mask of pruned weights (True means
    removed); their gradients are zeroed so they stay exactly 0.0.
    ``quant`` is ``(assignments, centroids)``: weights become centroid
    lookups and each centroid's gradient is the sum of its members'.
    """
    X, y = _ffnn_inputs(spec, params, X, y)
    _check_output_trainable(spec)
    n = X.shape[0]
    rng = np.random.default_rng(cfg.seed)
    bs = [lp.biases.astype(float).copy() for lp in params.layers]

    if quant is None:
        Ws = [lp.weights.astype(float).copy() for lp in params.layers]
        if removed is not None:
            for W, m in zip(Ws, removed):
                W[m] = 0.0
        arrays = Ws + bs
    else:
        assignments, centroids = quant
        centroids = [np.asarray(c, dtype=float).copy() for c in centroids]
        arrays = centroids + bs

    opt = _make_optimizer(arrays, cfg)
    history = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if quant is not None:
                Ws = _lookup(assignments, centroids)
            zs, acts = _forward_batch(spec, Ws, bs, X[idx])
            loss = _batch_loss(acts[-1], y[idx])
            epoch_loss += loss * idx.shape[0]
            gW, gb = _backward_batch(spec, Ws, zs, acts, y[idx])
            if quant is None:
                if removed is not None:
                    for g, m in zip(gW, removed):
                        g[m] = 0.0
                opt.step(arrays, gW + gb)
            else:
                gC = [
                    np.bincount(
                        a[a >= 0].ravel(),
                        weights=g[a >= 0].ravel(),
                        minlength=c.shape[0],
                    )
                    for a, g, c in zip(assignments, gW, centroids)
                ]
                opt.step(arrays, gC + gb)
        epoch_loss /= n
        if not np.isfinite(epoch_loss):
            raise DivergenceDetected(f"loss became {epoch_loss} during training")
        history.append(epoch_loss)

    if quant is not None:
        Ws = _lookup(assignments, centroids)
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
    out, history, _ = _fit_ffnn(spec, params, X, y, cfg, removed=list(removed))
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
    for a, c, layer in zip(assignments, centroids, spec.layers):
        a = np.asarray(a)
        if a.shape != (layer.neurons, layer.fan_in):
            raise ShapeMismatch("assignment shape must match the weight matrix")
        if a.size and np.max(a) >= len(c):
            raise InvalidParams("assignment index outside the centroid table")
    out, history, new_centroids = _fit_ffnn(
        spec,
        params,
        X,
        y,
        cfg,
        quant=([np.asarray(a) for a in assignments], list(centroids)),
    )
    return new_centroids, out, history


# --- recurrent training (truncated backpropagation through time) -------------

def _sequence_inputs(spec: ModelSpec, params: Parameters, sequences):
    """The entry check of every sequence function.

    Checks that ``params`` fit ``spec`` and are finite and that every
    ``(features, targets)`` pair fits the model; returns the pairs as float
    features and integer targets.
    """
    validate(spec, params)
    sequences = [
        (np.asarray(X, dtype=float), np.asarray(t, dtype=int)) for X, t in sequences
    ]
    if not sequences:
        raise InvalidParams("no training sequences")
    for X, t in sequences:
        if X.ndim != 2 or X.shape[1] != spec.features:
            raise ShapeMismatch(
                f"sequence features must be (T, {spec.features}), got {X.shape}"
            )
        if t.shape != (X.shape[0],):
            raise ShapeMismatch("need one target (or -1) per frame")
        if t.size and np.max(t) >= spec.output_size:
            raise InvalidParams("targets must lie in 0..output_size-1 or be -1")
    return sequences


def _first_stepped(spec: ModelSpec) -> int:
    """Index of the lowest layer that steps through time: the first
    recurrent layer, or the output layer of a net without one."""
    return next(
        (i for i, layer in enumerate(spec.layers) if layer.kind is LayerKind.RECURRENT),
        len(spec.layers) - 1,
    )


def _forward_window(spec: ModelSpec, Ws, bs, X_win, state: RnnState):
    """Forward one window, updating ``state`` in place; returns caches.

    ``U``, ``Z`` and ``A`` hold one ``(T, width)`` array per layer.  The
    dense prefix below the first recurrent layer runs once per window: its
    rows go through the kernel stacked as ``(T, 1, fan_in)``, which numpy
    multiplies row by row exactly as it does a lone vector, so every row
    equals the per-step value bit for bit and counts the same MACs.  Only
    the first recurrent layer and the layers above it step through ``t``.
    """
    T = X_win.shape[0]
    kinds = [_train_kind(layer.activation) for layer in spec.layers]
    first = _first_stepped(spec)
    U, Z, A = [], [], []
    below = X_win
    for i in range(first):
        z, a = layer_forward(kinds[i], Ws[i], bs[i], below[:, None, :])
        U.append(below)
        Z.append(z[:, 0])
        A.append(a[:, 0])
        below = A[-1]
    for layer in spec.layers[first:]:
        U.append(np.empty((T, layer.fan_in)))
        Z.append(np.empty((T, layer.neurons)))
        A.append(np.empty((T, layer.neurons)))
    for t in range(T):
        x = below[t]
        for i in range(first, len(spec.layers)):
            recurrent = spec.layers[i].kind is LayerKind.RECURRENT
            u = np.concatenate([x, state.layer(i)]) if recurrent else x
            z, x = layer_forward(kinds[i], Ws[i], bs[i], u)
            U[i][t], Z[i][t], A[i][t] = u, z, x
            if recurrent:
                state.layer(i)[:] = x
    return U, Z, A


def _backward_window(spec: ModelSpec, Ws, U, Z, A, targets, scale):
    """Full backprop inside one window; no gradient crosses its start.

    The first recurrent layer and the layers above it step back through
    ``t``: one gradient ``da`` walks down them, and a recurrent layer adds
    the gradient its output sent to the next step's input.  What reaches
    the dense prefix is kept per step and pulled through the prefix once
    per window: ``dA = W.T @ dZ`` as a stack of ``(n, 1)`` columns, which
    numpy multiplies column by column exactly as it does a lone vector.
    Every layer's ``dZ`` rows are kept, and its weight and bias gradients
    add their per-step terms from the last step to the first, starting at
    zero, so the sums round as a per-step walk does; a reduction over the
    steps could add pairwise.
    """
    top = len(spec.layers) - 1
    first = _first_stepped(spec)
    T = U[0].shape[0]
    DZ = [np.empty((T, W.shape[0])) for W in Ws]
    feedback = RnnState(spec)
    DA = np.empty((T, spec.layers[first].input_size))
    for t in range(T - 1, -1, -1):
        da = np.zeros(spec.output_size)
        for i in range(top, first - 1, -1):
            layer = spec.layers[i]
            recurrent = layer.kind is LayerKind.RECURRENT
            if recurrent:
                da = da + feedback.layer(i)
            dz = _pull_back(layer.activation, Z[i][t], A[i][t], da)
            if i == top and targets[t] >= 0:
                ce = A[i][t].copy()
                ce[targets[t]] -= 1.0
                dz = dz + ce * scale
            DZ[i][t] = dz
            du = Ws[i].T @ dz
            da = du[: layer.input_size]
            if recurrent:
                feedback.layer(i)[:] = du[layer.input_size :]
        DA[t] = da
    for i in range(first - 1, -1, -1):
        DZ[i] = _pull_back(spec.layers[i].activation, Z[i], A[i], DA)
        if i > 0:
            DA = (Ws[i].T @ DZ[i][:, :, None])[:, :, 0]
    gW = [np.zeros_like(W) for W in Ws]
    gb = [np.zeros(W.shape[0]) for W in Ws]
    for g, h, dz, u in zip(gW, gb, DZ, U):
        for t in range(T - 1, -1, -1):
            g += dz[t, :, None] * u[t]
            h += dz[t]
    return gW, gb


def _windows(spec: ModelSpec, Ws, bs, X_seq, targets, horizon: int):
    """Yield ``(U, Z, A, targets)`` for each window of ``horizon`` frames.

    State starts at zero and carries across windows.  The loop is lazy:
    each window's forward pass reads ``Ws`` and ``bs`` only when it is
    reached, so an optimizer step taken in place after one window is seen
    by the next.
    """
    state = RnnState(spec)
    for start in range(0, X_seq.shape[0], horizon):
        stop = start + horizon
        U, Z, A = _forward_window(spec, Ws, bs, X_seq[start:stop], state)
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
    for _, _, A, t_win in _windows(spec, *_layer_arrays(params), X_seq, targets, whole):
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
    if horizon < 1:
        raise InvalidParams("horizon must be >= 1")
    n_labeled = int(np.sum(targets >= 0))
    if n_labeled == 0:
        raise InvalidParams("sequence has no labeled frames")
    Ws, bs = _layer_arrays(params)
    gW_total = [np.zeros_like(W) for W in Ws]
    gb_total = [np.zeros_like(b) for b in bs]
    for U, Z, A, t_win in _windows(spec, Ws, bs, X_seq, targets, horizon):
        gW, gb = _backward_window(spec, Ws, U, Z, A, t_win, 1.0 / n_labeled)
        for total, g in zip(gW_total + gb_total, gW + gb):
            total += g
    return gW_total, gb_total


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
    if horizon < 1:
        raise InvalidParams("horizon must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    Ws = [lp.weights.astype(float).copy() for lp in params.layers]
    bs = [lp.biases.astype(float).copy() for lp in params.layers]
    arrays = Ws + bs
    opt = _make_optimizer(arrays, cfg)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(sequences))
        epoch_loss = 0.0
        epoch_labeled = 0
        for si in order:
            for U, Z, A, t_win in _windows(spec, Ws, bs, *sequences[si], horizon):
                total, count = _window_loss(A, t_win)
                if count == 0:
                    continue
                epoch_loss += total
                epoch_labeled += count
                gW, gb = _backward_window(spec, Ws, U, Z, A, t_win, 1.0 / count)
                opt.step(arrays, gW + gb)
        mean_loss = epoch_loss / epoch_labeled if epoch_labeled else 0.0
        if not np.isfinite(mean_loss):
            raise DivergenceDetected(f"loss became {mean_loss} during training")
        history.append(mean_loss)
    out = Parameters([LayerParams(W, b) for W, b in zip(Ws, bs)])
    return out, history
