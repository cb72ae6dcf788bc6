"""Backward-pass kernels of the training loops in :mod:`microgest.training`.

The backward passes have one activation derivative, ``_pull_back``, which
works on the last axis, so a minibatch, a window of time steps and one time
step use the same lines, and writes into ``out`` if given one: the softmax
family goes through its Jacobian product, element-wise kinds multiply by
their derivative, with subgradient zero at the kinks of relu and hard sigmoid.

Inside a truncated-BPTT window (Williams and Peng, 1990) only
``_forward_window`` and ``_backward_window`` do arithmetic.  They walk the
layers one at a time, each over all steps of the window: no layer feeds a
layer below it, so a layer's steps need nothing but the layer below, and
only a recurrent layer, which feeds itself, loops over ``t``.  A dense
layer runs once per window, forward and backward, over all its steps at
once.  The result is bit-identical to stepping every layer at every step:
the dense products go through numpy as stacks of single rows
(``(T, 1, fan_in)`` forward, ``(n, 1)`` columns backward), which numpy
multiplies one row at a time exactly as it does a lone vector.  What does
not change from step to step (layer kinds, input sizes, the cross-entropy
rows) is worked out once per run (``_Net``) or per window.  Each
layer's weight and bias gradients are one sum of per-step outer products
(the bias as a column of ones beside the inputs), formed as stacked
``np.matmul`` products in chunks of ``_SUM_CHUNK`` steps, which bounds
their memory, and added from the last step to the first, as a per-step
walk adds them.  A plain ``(T, fan_in)`` product, or a sum that adds the
steps in another order, would round differently.
"""

from __future__ import annotations

import numpy as np

from .inference import _step_forward, layer_forward
from .model import Activation, LayerKind, ModelSpec, RnnState


def _train_kind(kind: Activation) -> Activation:
    """The kind a layer trains as: MAX and APPROX_SOFTMAX train as SOFTMAX."""
    if kind in (Activation.MAX, Activation.APPROX_SOFTMAX):
        return Activation.SOFTMAX
    return kind


def _pull_back(
    kind: Activation, Z: np.ndarray, A: np.ndarray, dA: np.ndarray, out=None
) -> np.ndarray:
    """Pull a gradient through training kind ``kind`` (see ``_train_kind``):
    ``dA`` on ``A`` to ``dZ``.

    Works on the last axis, so a batch of rows and one time step go through
    the same lines.  Softmax applies the Jacobian product
    ``A * (dA - sum(dA * A))``; element-wise kinds multiply by their
    derivative, with subgradient zero at kinks.  Given ``out``, an array of
    ``dA``'s shape that is none of the inputs, it writes there in place.
    """
    if kind is Activation.SOFTMAX:  # a lone vector's sum stays 0-d, as in softmax
        total = np.add.reduce(np.multiply(dA, A, out=out), axis=-1, keepdims=A.ndim > 1)
        return np.multiply(A, np.subtract(dA, np.asarray(total), out=out), out=out)
    if kind is Activation.SIGMOID:
        return np.multiply(dA, np.multiply(A, np.subtract(1.0, A, out=out), out=out), out=out)
    if kind is Activation.TANH:
        return np.multiply(dA, np.subtract(1.0, np.multiply(A, A, out=out), out=out), out=out)
    if kind is Activation.HARD_SIGMOID:
        return np.multiply(dA, np.multiply(0.2, (Z > -2.5) & (Z < 2.5), out=out), out=out)
    if kind is Activation.SOFTSIGN:
        d = np.add(1.0, np.abs(Z, out=out), out=out)
        return np.multiply(dA, np.divide(1.0, np.multiply(d, d, out=out), out=out), out=out)
    return np.multiply(dA, (Z > 0.0).astype(float), out=out)  # relu, the last element-wise kind


# --- truncated-BPTT windows ---------------------------------------------------

class _Net:
    """What the window passes read of a spec, worked out once per run:
    ``layers`` holds ``(training kind, input size, recurrent)`` per layer."""

    def __init__(self, spec: ModelSpec) -> None:
        self.spec = spec
        self.layers = [
            (_train_kind(l.activation), l.input_size, l.kind is LayerKind.RECURRENT)
            for l in spec.layers
        ]


def _forward_window(net: _Net, Ws, bs, X_win, state: RnnState):
    """Forward one window, updating ``state`` in place; returns caches.

    ``U``, ``Z`` and ``A`` hold one array of ``T`` rows per layer; a row of
    ``U[i]`` is the layer's input followed by a 1.0, the input its bias
    sees.  A dense layer's rows go through the kernel once, stacked as
    ``(T, 1, fan_in)``, which numpy multiplies row by row exactly as it
    does a lone vector, so every row equals the per-step value bit for bit
    and counts the same MACs; a recurrent layer steps through
    :func:`microgest.inference._step_forward`, the loop inference steps
    through too.
    """
    T = X_win.shape[0]
    U, Z, A = [], [], []
    below = X_win
    for i, (kind, n_in, recurrent) in enumerate(net.layers):
        u = np.ones((T, Ws[i].shape[1] + 1))
        u[:, :n_in] = below
        if recurrent:
            z, a = _step_forward(kind, Ws[i], bs[i], u, n_in, state.layer(i))
        else:
            z, a = layer_forward(kind, Ws[i], bs[i], below[:, None, :])
            z, a = z[:, 0], a[:, 0]
        U.append(u)
        Z.append(z)
        A.append(a)
        below = a
    return U, Z, A


# Steps per chunk of the gradient sums: a chunk's outer products are one
# (steps, neurons, fan_in + 1) buffer.  At 8 steps a phase ``train``
# command's heap peak stays at that of per-step sums; 16 steps were about
# 5 % faster in BPTT and raised it by 22 KB.
_SUM_CHUNK = 8


def _stepwise_sum(dZ: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``sum_t outer(dZ[t], U[t])``, added from the last step to the first.

    Each chunk of steps forms its terms as one stacked ``np.matmul`` of
    ``(n, 1)`` by ``(1, fan_in + 1)`` into a buffer reused by every chunk,
    adds the running sum into its last term and reduces the reversed chunk
    over the steps; numpy adds those rows one after another, so the result
    equals a loop of ``+=`` from the last step to the first, starting at
    zero, bit for bit.
    """
    T = dZ.shape[0]
    total = np.zeros((dZ.shape[1], U.shape[1]))
    buf = np.empty((min(T, _SUM_CHUNK), dZ.shape[1], U.shape[1]))
    for stop in range(T, 0, -_SUM_CHUNK):
        start = max(stop - _SUM_CHUNK, 0)
        terms = np.matmul(dZ[start:stop, :, None], U[start:stop, None, :],
                          out=buf[: stop - start])
        terms[-1] += total
        total = np.add.reduce(terms[::-1], axis=0)
    return total


def _step_back(kind: Activation, WT, Z, A, DA, n_in: int, ce: dict):
    """A recurrent layer's steps back through a window, from its last step
    to its first; returns its ``dZ`` rows and the gradient it hands down.

    Row ``t`` of ``DA`` is the gradient on step ``t``'s output from the
    layer above; the gradient the output sent to the next step's input is
    added to it.  ``ce`` maps a labeled step of the output layer to its
    cross-entropy row, added after the pull-back.  Each step writes its
    ``dZ`` and ``W.T @ dz`` rows into arrays allocated once per call.
    """
    dZ = np.empty(Z.shape)
    dU = np.empty((len(Z), WT.shape[0]))
    sent = [np.zeros(WT.shape[0] - n_in), *dU[:0:-1, n_in:]]  # from step t + 1
    steps = zip(range(len(Z) - 1, -1, -1), Z[::-1], A[::-1], DA[::-1], sent, dZ[::-1], dU[::-1])
    for t, z, a, da, feedback, dz, du in steps:
        _pull_back(kind, z, a, da + feedback, dz)
        if t in ce:
            dz += ce[t]
        np.matmul(WT, dz, out=du)
    return dZ, dU[:, :n_in]


def _backward_window(net: _Net, Ws, U, Z, A, targets, scale):
    """Full backprop inside one window; no gradient crosses its start.

    The layers are pulled back from the top down, each over all steps of
    the window.  The output's cross-entropy rows are formed once per
    window and added after its pull-back.  A recurrent layer steps back
    through ``t`` (``_step_back``); a dense layer is pulled back once per
    window, and hands ``dA = W.T @ dZ`` down as a stack of ``(n, 1)``
    columns, which numpy multiplies column by column exactly as it does a
    lone vector.  Every layer's weight and bias gradients are one
    ``_stepwise_sum`` of its ``dZ`` rows and input rows.
    """
    top = len(Ws) - 1
    rows = np.nonzero(targets >= 0)[0]
    CE = A[top][rows]
    CE[np.arange(rows.size), targets[rows]] -= 1.0
    CE *= scale
    DA = np.broadcast_to(np.zeros(A[top].shape[1]), A[top].shape)  # none above
    dZ = [None] * len(Ws)
    for i in range(top, -1, -1):
        kind, n_in, recurrent = net.layers[i]
        WT = Ws[i].T
        if recurrent:
            ce = dict(zip(rows.tolist(), CE)) if i == top else {}
            dZ[i], DA = _step_back(kind, WT, Z[i], A[i], DA, n_in, ce)
            continue
        dZ[i] = _pull_back(kind, Z[i], A[i], DA)
        if i == top:
            dZ[i][rows] += CE
        if i > 0:
            DA = (WT @ dZ[i][:, :, None])[:, :, 0]
    G = [_stepwise_sum(dz, u) for dz, u in zip(dZ, U)]
    return [g[:, :-1] for g in G], [g[:, -1] for g in G]
