"""Forward-pass evaluation: activations, fast exponentials, layer stepping.

Everything here mirrors what fits on an 8-bit AVR target: float32-friendly
arithmetic, no temporaries larger than a layer, and a multiply-accumulate
(MAC) counter that can be switched on to audit execution cost without
changing any result.

:func:`layer_forward` is the one layer kernel of the package and
``_ACTIVATIONS`` its one activation table: the single-vector steppers here
and the batched and windowed forward passes of :mod:`microgest.training`
all compute their layers through it.

The kernel and the activations run once per layer and time step, thousands
of times per command, so code on a per-step path keeps to one rule: no
method wrapper where the ufunc itself can be called (``np.maximum.reduce``
and ``np.add.reduce`` are what ``ndarray.max`` and ``.sum`` run), no
Python-level enum hash per call (:class:`~microgest.model.Activation`
hashes by identity), and only numpy routines the flows already call, each
of which pages in code of its own at its first call.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import RangeExceeded, RecurrentLayerPresent, ShapeMismatch
from .model import (
    Activation,
    LayerKind,
    LayerParams,
    LayerSpec,
    ModelSpec,
    Parameters,
    RnnState,
)

_LN2 = math.log(2.0)

# Shifted softmax arguments below this bound contribute < 1e-34 relative
# mass; clamping keeps the fast exponential inside its legal input range.
_SOFTMAX_SHIFT_FLOOR = -80.0


# --- multiply-accumulate instrumentation -------------------------------------

class MacCounter:
    """Tally of multiply-accumulate operations performed while active."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


_active_counter: MacCounter | None = None


@contextmanager
def count_macs():
    """Activate MAC counting for the enclosed block.

    Yields a :class:`MacCounter` whose ``count`` holds the number of
    multiply-accumulates performed by forward passes inside the block,
    inference and training alike: a layer applied to a batch counts
    ``rows * neurons * fan_in``.  Counting never changes numeric results.
    Counters nest; the innermost one wins.
    """
    global _active_counter
    previous = _active_counter
    counter = MacCounter()
    _active_counter = counter
    try:
        yield counter
    finally:
        _active_counter = previous


def record_macs(n: int) -> None:
    """Report ``n`` multiply-accumulates to the active counter, if any."""
    if _active_counter is not None:
        _active_counter.count += n


# --- fast exponentials -------------------------------------------------------

def approx_pow2(x):
    """Fast approximation of ``2**x``.

    Splits ``x`` into integer part ``n`` and remainder ``v`` and evaluates
    ``2**n * (1 + (2/3)*v + (1/3)*v**2)``.  The integer part costs only an
    exponent-field addition on IEEE-754 hardware (``ldexp``), the quadratic
    matches ``2**v`` at both ends of ``[0, 1)``.  Relative error stays below
    0.5 percent.

    Accepts scalars or arrays.  Inputs with ``|x| > 126`` raise
    :class:`RangeExceeded` because the result would leave the float32
    exponent range of the target hardware, and so does NaN.
    """
    arr = np.asarray(x, dtype=float)
    if not (np.abs(arr) <= 126.0).all():
        raise RangeExceeded("approx_pow2 input must satisfy |x| <= 126")
    n = np.floor(arr)
    v = arr - n
    frac = 1.0 + v * (2.0 / 3.0) + v * v * (1.0 / 3.0)
    out = np.ldexp(frac, n.astype(int))
    if np.ndim(x) == 0:
        return float(out)
    return out


def approx_exp(x):
    """Fast ``exp(x)`` via ``approx_pow2(x / ln 2)``; same range contract."""
    arr = np.asarray(x, dtype=float)
    return approx_pow2(arr / _LN2) if np.ndim(x) else approx_pow2(float(x) / _LN2)


# --- activations -------------------------------------------------------------
#
# Every entry of the activation table works on the last axis, so one function
# serves a single pre-activation vector, a ``(rows, neurons)`` batch and a
# window of time steps alike.  A row of a batch gets bit for bit the value the
# same vector gets on its own.

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # clip keeps exp() out of overflow; the result is exact 0/1 there anyway
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def _hard_sigmoid(x: np.ndarray) -> np.ndarray:
    return np.clip(0.2 * x + 0.5, 0.0, 1.0)


def _softsign(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.abs(x))


# a 0-d array: numpy takes it faster than the Python float 0.0
_ZERO = np.zeros(())


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, _ZERO)


def softmax(v: np.ndarray) -> np.ndarray:
    """Exact softmax, shifted by the maximum for numeric range control.

    The maximum and the sum of a lone vector stay 0-d arrays, which numpy
    broadcasts faster than a kept axis of length one; a batch keeps it.
    """
    v = np.asarray(v, dtype=float)
    keep = v.ndim > 1
    e = v - np.asarray(np.maximum.reduce(v, axis=-1, keepdims=keep))
    np.exp(e, out=e)
    e /= np.asarray(np.add.reduce(e, axis=-1, keepdims=keep))
    return e


def approx_softmax(v: np.ndarray) -> np.ndarray:
    """Softmax evaluated with the fast exponential.

    The layer maximum is subtracted first so every argument is <= 0, which
    keeps the fast exponential inside its input range regardless of the
    pre-activation scale.  Entries stay within about one percent of the
    exact softmax and still sum to one.
    """
    v = np.asarray(v, dtype=float)
    shifted = np.maximum(
        v - np.maximum.reduce(v, axis=-1, keepdims=True), _SOFTMAX_SHIFT_FLOOR
    )
    e = approx_exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def max_onehot(v: np.ndarray) -> np.ndarray:
    """One-hot vector marking the argmax; ties go to the lowest index."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape)
    np.put_along_axis(out, np.argmax(v, axis=-1)[..., None], 1.0, axis=-1)
    return out


_ACTIVATIONS = {
    Activation.SIGMOID: _sigmoid,
    Activation.TANH: np.tanh,
    Activation.HARD_SIGMOID: _hard_sigmoid,
    Activation.SOFTSIGN: _softsign,
    Activation.RELU: _relu,
    Activation.SOFTMAX: softmax,
    Activation.APPROX_SOFTMAX: approx_softmax,
    Activation.MAX: max_onehot,
}


# --- layer stepping ----------------------------------------------------------

def layer_forward(
    kind: Activation, W: np.ndarray, b: np.ndarray, U: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The one layer kernel: ``Z = U @ W.T + b`` and ``A = kind(Z)``.

    ``U`` is one input vector or a ``(rows, fan_in)`` batch; returns
    ``(Z, A)`` of the matching shape.  Records ``rows * neurons * fan_in``
    multiply-accumulates.  Inference and training both step through here.
    """
    Z = U @ W.T + b
    if _active_counter is not None:  # record_macs, without a call per step
        _active_counter.count += Z.size * W.shape[1]
    return Z, _ACTIVATIONS[kind](Z)


def _vector(values, size: int, owner: str, noun: str = "inputs") -> np.ndarray:
    """The input check of every stepper: one float vector of ``size`` entries.
    Input numpy cannot read as floats is refused like a wrong shape."""
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(f"{owner} expects {size} {noun}, got non-numbers: {exc}") from None
    if values.shape != (size,):
        raise ShapeMismatch(f"{owner} expects {size} {noun}, got {values.shape}")
    return values


def forward_dense(layer: LayerSpec, lp: LayerParams, inputs: np.ndarray) -> np.ndarray:
    """One dense layer: ``activation(W @ inputs + b)``.

    Performs exactly ``neurons * fan_in`` multiply-accumulates.
    """
    inputs = _vector(inputs, layer.input_size, "dense layer")
    return layer_forward(layer.activation, lp.weights, lp.biases, inputs)[1]


def step_recurrent(
    layer: LayerSpec, lp: LayerParams, inputs: np.ndarray, prev: np.ndarray
) -> np.ndarray:
    """One recurrent layer step.

    ``prev`` holds the layer's previous-step activations; it is overwritten
    in place with the new activations, which are also returned.  The weight
    matrix sees ``[inputs, prev]`` concatenated, feedback columns last.
    """
    if layer.kind is not LayerKind.RECURRENT:
        raise ShapeMismatch("step_recurrent needs a recurrent layer")
    inputs = _vector(inputs, layer.input_size, "recurrent layer")
    if prev.shape != (layer.neurons,):
        raise ShapeMismatch(
            f"feedback state must have {layer.neurons} entries, got {prev.shape}"
        )
    u = np.concatenate([inputs, prev])
    _, out = layer_forward(layer.activation, lp.weights, lp.biases, u)
    prev[:] = out
    return out


def run_ffnn(spec: ModelSpec, params: Parameters, features: np.ndarray) -> np.ndarray:
    """Evaluate a pure feed-forward model on one feature vector."""
    if spec.has_recurrent:
        raise RecurrentLayerPresent("run_ffnn cannot evaluate recurrent layers")
    x = _vector(features, spec.features, "model", "features")
    for layer, lp in zip(spec.layers, params.layers):
        x = forward_dense(layer, lp, x)
    return x


def step_rnn(
    spec: ModelSpec, params: Parameters, features: np.ndarray, state: RnnState
) -> np.ndarray:
    """Advance a (possibly recurrent) model by one time step.

    Dense layers behave exactly as in :func:`run_ffnn`; recurrent layers
    consume and update their slot in ``state``.  The state belongs to one
    stream only and must be reset at stream boundaries.
    """
    x = _vector(features, spec.features, "model", "features")
    for i, (layer, lp) in enumerate(zip(spec.layers, params.layers)):
        if layer.kind is LayerKind.RECURRENT:
            x = step_recurrent(layer, lp, x, state.layer(i))
        else:
            x = forward_dense(layer, lp, x)
    return x
