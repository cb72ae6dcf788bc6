"""Forward-pass evaluation: activations, fast exponentials, layer stepping.

Everything here mirrors what fits on an 8-bit AVR target: float32-friendly
arithmetic, no per-frame temporaries larger than a layer, and a
multiply-accumulate (MAC) counter that can be switched on to audit
execution cost without changing any result.

:func:`layer_forward` is the one layer kernel of the package and
``_ACTIVATIONS`` its one activation table: the steppers here and the
batched and windowed forward passes of :mod:`microgest.training` all
compute their layers through it.

The steppers (:func:`forward_dense`, :func:`step_recurrent`,
:func:`step_rnn` and :func:`run_ffnn`) take one vector or a time-major
``(T, n)`` block of consecutive frames, checked by one input rule
(``_frames``).  A block's rows, and the state it leaves in
:class:`~microgest.model.RnnState`, equal stepping its frames one at a
time, bit for bit: a dense layer runs once per block, stacked as
``(T, 1, fan_in)``, which numpy multiplies row by row exactly as it does a
lone vector, and a recurrent layer steps through ``_step_forward``, the
package's one recurrent loop, which the BPTT windows of
:mod:`microgest.backprop` step through too.  The MCU classifies one frame
at a time; the host scores a stored stream as one block.

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


def _frames(values, size: int, owner: str, noun: str = "inputs") -> np.ndarray:
    """The input rule of every stepper: one float vector of ``size``
    entries, or a time-major ``(T, size)`` block of consecutive frames.
    Input numpy cannot read as one float array (text, ragged rows) is
    refused like a wrong shape."""
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(
            f"{owner} expects {size} {noun}, got no float array: {exc}"
        ) from None
    if values.ndim not in (1, 2) or values.shape[-1] != size:
        raise ShapeMismatch(f"{owner} expects {size} {noun}, got {values.shape}")
    return values


def _step_forward(kind: Activation, W, b, u, n_in: int, prev: np.ndarray):
    """The one recurrent loop of the package: a recurrent layer's steps
    through a block of ``T`` frames; returns its ``(T, neurons)`` ``Z`` and
    ``A`` rows.

    Row ``t`` of ``u`` holds step ``t``'s input in its first ``n_in``
    columns; its feedback columns, from ``n_in`` to ``W.shape[1]``, get
    ``prev`` at the first step and each step's output at the next, written
    as the step ends.  Columns past those are not read.  ``prev`` ends
    holding the last output, the state the next block starts from; a block
    of no frames leaves it as it is.  :func:`step_recurrent` and the BPTT
    windows of :mod:`microgest.backprop` both step through here.
    """
    fan_in = W.shape[1]
    T = u.shape[0]
    Z = np.empty((T, W.shape[0]))
    A = np.empty((T, W.shape[0]))
    if not T:
        return Z, A
    u[0, n_in:fan_in] = prev
    rows = u[:, :fan_in]
    feedback = u[1:, n_in:fan_in]
    for t in range(T - 1):
        Z[t], A[t] = layer_forward(kind, W, b, rows[t])
        feedback[t] = A[t]
    Z[-1], A[-1] = layer_forward(kind, W, b, rows[-1])
    prev[:] = A[-1]
    return Z, A


def forward_dense(layer: LayerSpec, lp: LayerParams, inputs: np.ndarray) -> np.ndarray:
    """One dense layer: ``activation(W @ inputs + b)``, on one input vector
    or on each row of a ``(T, fan_in)`` block.

    Performs exactly ``neurons * fan_in`` multiply-accumulates per row.  A
    block goes through the kernel once, stacked as ``(T, 1, fan_in)``, which
    numpy multiplies row by row exactly as it does a lone vector, so every
    row equals the vector's result bit for bit.
    """
    inputs = _frames(inputs, layer.input_size, "dense layer")
    if inputs.ndim == 1:
        return layer_forward(layer.activation, lp.weights, lp.biases, inputs)[1]
    return layer_forward(layer.activation, lp.weights, lp.biases, inputs[:, None, :])[1][:, 0]


def step_recurrent(
    layer: LayerSpec, lp: LayerParams, inputs: np.ndarray, prev: np.ndarray
) -> np.ndarray:
    """One recurrent layer step, or one per row of a ``(T, fan_in)`` block
    of consecutive frames.

    ``prev`` holds the layer's previous-step activations; it is overwritten
    in place with the last step's activations.  The new activations are
    returned, one row per frame for a block.  The weight matrix sees
    ``[inputs, prev]`` concatenated, feedback columns last.
    """
    if layer.kind is not LayerKind.RECURRENT:
        raise ShapeMismatch("step_recurrent needs a recurrent layer")
    inputs = _frames(inputs, layer.input_size, "recurrent layer")
    if prev.shape != (layer.neurons,):
        raise ShapeMismatch(
            f"feedback state must have {layer.neurons} entries, got {prev.shape}"
        )
    u = np.empty((len(inputs) if inputs.ndim == 2 else 1, layer.fan_in))
    u[:, : layer.input_size] = inputs
    _, out = _step_forward(layer.activation, lp.weights, lp.biases, u, layer.input_size, prev)
    return out if inputs.ndim == 2 else out[0]


def run_ffnn(spec: ModelSpec, params: Parameters, features: np.ndarray) -> np.ndarray:
    """Evaluate a pure feed-forward model on one feature vector, or on each
    row of a ``(T, features)`` block."""
    if spec.has_recurrent:
        raise RecurrentLayerPresent("run_ffnn cannot evaluate recurrent layers")
    x = _frames(features, spec.features, "model", "features")
    for layer, lp in zip(spec.layers, params.layers):
        x = forward_dense(layer, lp, x)
    return x


# Frames per block that step_rnn runs its layers over: a longer block is cut
# into blocks of this many, so a call's temporaries stay a few kilobytes a
# layer whatever the length of the stream.  Over 150 passes of the phase-rnn
# benchmark, whole streams left the peak RSS 0.31-0.66 MB above 128-frame
# blocks on each of 8 seeds; 64, 128 and 256 read the same peak, and 128
# the shortest flow.
_BLOCK_FRAMES = 128


def step_rnn(
    spec: ModelSpec, params: Parameters, features: np.ndarray, state: RnnState
) -> np.ndarray:
    """Advance a (possibly recurrent) model by one time step, or by one per
    row of a time-major ``(T, features)`` block of consecutive frames.

    Dense layers behave exactly as in :func:`run_ffnn`; recurrent layers
    consume and update their slot in ``state``.  A block returns one output
    row per frame and leaves ``state`` as stepping its frames one at a time
    would, bit for bit; the layers run over it ``_BLOCK_FRAMES`` frames at a
    time.  The state belongs to one stream only and must be reset at stream
    boundaries.
    """
    x = _frames(features, spec.features, "model", "features")
    if x.ndim == 1:
        return _step_layers(spec, params, x, state)
    out = np.empty((len(x), spec.output_size))
    for start in range(0, len(x), _BLOCK_FRAMES):
        block = slice(start, start + _BLOCK_FRAMES)
        out[block] = _step_layers(spec, params, x[block], state)
    return out


def _step_layers(spec: ModelSpec, params: Parameters, x: np.ndarray, state: RnnState):
    """Every layer of ``spec`` over one checked vector or block."""
    for i, (layer, lp) in enumerate(zip(spec.layers, params.layers)):
        if layer.kind is LayerKind.RECURRENT:
            x = step_recurrent(layer, lp, x, state.layer(i))
        else:
            x = forward_dense(layer, lp, x)
    return x
