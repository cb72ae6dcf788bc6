"""Forward-pass evaluation: activations, fast exponentials, layer stepping.

Everything here mirrors what fits on an 8-bit AVR target: float32-friendly
arithmetic, no per-frame temporaries larger than a layer, and a
multiply-accumulate (MAC) counter that can be switched on to audit
execution cost without changing any result.

:func:`layer_forward` is the one layer kernel of the package and
``_ACTIVATIONS`` its one activation table, whose kernels take ``out``:
dense layers here and in :mod:`microgest.training` go through the kernel,
and a recurrent layer's steps write its arithmetic into preallocated rows.

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

from .errors import RangeExceeded, RecurrentLayerPresent, ShapeMismatch, _float_array
from .model import (
    Activation,
    LayerKind,
    LayerParams,
    LayerSpec,
    ModelSpec,
    Parameters,
    RnnState,
    _check_layer_shapes,
    validate,
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
    out = _pow2(_float_array(x, "approx_pow2 expects numbers"))
    return float(out) if np.ndim(out) == 0 else out


def _pow2(arr):  # approx_pow2 of float64 values
    if not (np.abs(arr) <= 126.0).all():
        raise RangeExceeded("approx_pow2 input must satisfy |x| <= 126")
    n = np.floor(arr)
    v = arr - n
    frac = 1.0 + v * (2.0 / 3.0) + v * v * (1.0 / 3.0)
    return np.ldexp(frac, n.astype(int))


def approx_exp(x):
    """Fast ``exp(x)`` via ``approx_pow2(x / ln 2)``; same range contract."""
    arr = _float_array(x, "approx_exp expects numbers")
    return approx_pow2(arr / _LN2) if arr.ndim else approx_pow2(float(arr) / _LN2)


# --- activations -------------------------------------------------------------
#
# Every entry of the activation table works on the last axis, so one function
# serves a single pre-activation vector, a ``(rows, neurons)`` batch and a
# window of time steps alike.  A row of a batch gets bit for bit the value the
# same vector gets on its own.  Given ``out``, an array of the input's shape
# that is not the input, an entry writes there in place, the same values.

def _sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    # clip keeps exp() out of overflow; the result is exact 0/1 there anyway
    e = np.exp(np.negative(np.clip(x, -500.0, 500.0, out=out), out=out), out=out)
    return np.divide(1.0, np.add(1.0, e, out=out), out=out)


def _hard_sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    return np.clip(np.add(np.multiply(0.2, x, out=out), 0.5, out=out), 0.0, 1.0, out=out)


def _softsign(x: np.ndarray, out=None) -> np.ndarray:
    return np.divide(x, np.add(1.0, np.abs(x, out=out), out=out), out=out)


# a 0-d array: numpy takes it faster than the Python float 0.0
_ZERO = np.zeros(())


def _relu(x: np.ndarray, out=None) -> np.ndarray:
    return np.maximum(x, _ZERO, out=out)


def _row_values(v, name: str) -> np.ndarray:
    """The input rule of the public layer-wise activations: rows of numbers."""
    v = _float_array(v, f"{name} expects numbers")
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ShapeMismatch(f"{name} expects at least one number per row, got shape {v.shape}")
    return v


def softmax(v) -> np.ndarray:
    """Exact softmax, shifted by the maximum for numeric range control.

    The maximum and the sum of a lone vector stay 0-d arrays, which numpy
    broadcasts faster than a kept axis of length one; a batch keeps it.
    """
    return _softmax(_row_values(v, "softmax"))


def _softmax(v: np.ndarray, out=None) -> np.ndarray:
    keep = v.ndim > 1
    e = np.subtract(v, np.asarray(np.maximum.reduce(v, axis=-1, keepdims=keep)), out=out)
    np.exp(e, out=e)
    e /= np.asarray(np.add.reduce(e, axis=-1, keepdims=keep))
    return e


def approx_softmax(v) -> np.ndarray:
    """Softmax evaluated with the fast exponential.

    The layer maximum is subtracted first so every argument is <= 0, which
    keeps the fast exponential inside its input range regardless of the
    pre-activation scale.  Entries stay within about one percent of the
    exact softmax and still sum to one.
    """
    return _approx_softmax(_row_values(v, "approx_softmax"))


def _approx_softmax(v: np.ndarray, out=None) -> np.ndarray:
    shifted = np.maximum(
        v - np.maximum.reduce(v, axis=-1, keepdims=True), _SOFTMAX_SHIFT_FLOOR
    )
    e = _pow2(shifted / _LN2)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=out)


def max_onehot(v) -> np.ndarray:
    """One-hot vector marking the argmax; ties go to the lowest index."""
    return _max_onehot(_row_values(v, "max_onehot"))


def _max_onehot(v: np.ndarray, out=None) -> np.ndarray:
    out = np.empty(v.shape) if out is None else out
    out[...] = 0.0
    np.put_along_axis(out, np.argmax(v, axis=-1)[..., None], 1.0, axis=-1)
    return out


_ACTIVATIONS = {
    Activation.SIGMOID: _sigmoid,
    Activation.TANH: np.tanh,
    Activation.HARD_SIGMOID: _hard_sigmoid,
    Activation.SOFTSIGN: _softsign,
    Activation.RELU: _relu,
    Activation.SOFTMAX: _softmax,
    Activation.APPROX_SOFTMAX: _approx_softmax,
    Activation.MAX: _max_onehot,
}


# --- layer stepping ----------------------------------------------------------

def layer_forward(
    kind: Activation, W: np.ndarray, b: np.ndarray, U: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The one layer kernel: ``Z = U @ W.T + b`` and ``A = kind(Z)``.

    ``U`` is one input vector or a ``(rows, fan_in)`` batch; returns
    ``(Z, A)`` of the matching shape.  Records ``rows * neurons * fan_in``
    multiply-accumulates.  Dense layers of inference and training run here.
    """
    Z = U @ W.T + b
    if _active_counter is not None:  # record_macs, without a call per step
        _active_counter.count += Z.size * W.shape[1]
    return Z, _ACTIVATIONS[kind](Z)


def _frames(values, size: int, owner: str, noun: str = "inputs", block: bool = False):
    """The input rule of every stepper: one float vector of ``size``
    entries, or a time-major ``(T, size)`` block of consecutive frames,
    which alone passes with ``block``.  Input that is no float array
    (``errors._float_array``) is refused like a wrong shape."""
    want = f"a (T, {size}) block of {noun}" if block else f"{size} {noun}"
    values = _float_array(values, f"{owner} expects {want}")
    if values.ndim not in ((2,) if block else (1, 2)) or values.shape[-1] != size:
        raise ShapeMismatch(f"{owner} expects {want}, got {values.shape}")
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
    windows of :mod:`microgest.backprop` both step through here.  A step is
    :func:`layer_forward` in place: product and bias into its ``Z`` row,
    activation into the next row's feedback columns (copied to ``A`` once).
    """
    fan_in = W.shape[1]
    T = u.shape[0]
    Z = np.empty((T, W.shape[0]))
    A = np.empty((T, W.shape[0]))
    if not T:
        return Z, A
    record_macs(Z.size * fan_in)
    u[0, n_in:fan_in] = prev
    WT = W.T
    activation = _ACTIVATIONS[kind]
    feedback = u[1:, n_in:fan_in]
    for row, z, a in zip(u[:, :fan_in], Z, [*feedback, A[-1]]):
        np.matmul(row, WT, out=z)
        z += b
        activation(z, a)
    A[:-1] = feedback
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
    _check_layer_shapes(layer, lp, "dense layer")
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
    _check_layer_shapes(layer, lp, "recurrent layer")
    inputs = _frames(inputs, layer.input_size, "recurrent layer")
    if not isinstance(prev, np.ndarray) or prev.dtype.kind != "f" or prev.shape != (layer.neurons,):
        raise ShapeMismatch(f"feedback state must have {layer.neurons} entries in a float array")
    u = np.empty((len(inputs) if inputs.ndim == 2 else 1, layer.fan_in))
    u[:, : layer.input_size] = inputs
    _, out = _step_forward(layer.activation, lp.weights, lp.biases, u, layer.input_size, prev)
    return out if inputs.ndim == 2 else out[0]


def run_ffnn(spec: ModelSpec, params: Parameters, features: np.ndarray) -> np.ndarray:
    """Evaluate a pure feed-forward model on one feature vector, or on each
    row of a ``(T, features)`` block, by the pass of :func:`step_rnn`, whose
    rule on outputs that are not finite it shares."""
    if spec.has_recurrent:
        raise RecurrentLayerPresent("run_ffnn cannot evaluate recurrent layers")
    return _run_layers(spec, params, features, None, "run_ffnn")


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
    boundaries, and one made for another model is refused.  An output that
    is not finite raises :class:`RangeExceeded`: finite weights, which
    :func:`~microgest.model.validate` accepts, can still overflow a layer.
    """
    return _run_layers(spec, params, features, state, "step_rnn")


def _run_layers(spec: ModelSpec, params: Parameters, features, state, owner: str):
    """The pass of :func:`step_rnn` and :func:`run_ffnn`.  Once per call,
    the parameters and the state are checked against the spec and the
    output for NaN and infinity; the layers run with numpy's overflow and
    invalid-value warnings off."""
    validate(spec, params)
    if state is not None:
        state._check(spec)
    x = _frames(features, spec.features, "model", "features")
    with np.errstate(over="ignore", invalid="ignore"):
        if x.ndim == 1:
            out = _step_layers(spec, params, x, state)
        else:
            out = np.empty((len(x), spec.output_size))
            for start in range(0, len(x), _BLOCK_FRAMES):
                block = slice(start, start + _BLOCK_FRAMES)
                out[block] = _step_layers(spec, params, x[block], state)
    if not np.isfinite(out).all():
        raise RangeExceeded(f"{owner} output is not finite: a layer overflowed")
    return out


def _step_layers(spec: ModelSpec, params: Parameters, x: np.ndarray, state: RnnState):
    """Every layer of ``spec`` over one checked vector or block."""
    for i, (layer, lp) in enumerate(zip(spec.layers, params.layers)):
        if layer.kind is LayerKind.RECURRENT:
            x = step_recurrent(layer, lp, x, state.layer(i))
        else:
            x = forward_dense(layer, lp, x)
    return x
