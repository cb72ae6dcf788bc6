"""Backward-pass kernels of the training loops in :mod:`microgest.training`.

The backward passes have one activation derivative, ``_pull_back``.  It
works on the last axis, so a minibatch, a window of time steps and one
time step use the same lines: the softmax family goes through its Jacobian
product, element-wise kinds multiply by their derivative, with subgradient
zero at the kinks of relu and hard sigmoid.

Inside a truncated-BPTT window (Williams and Peng, 1990) only
``_forward_window`` and ``_backward_window`` do arithmetic, and they are
time-major.  Dense layers below the first recurrent layer depend on no
earlier step, so they run once per window, forward and backward, over all
its steps at once; only the first recurrent layer and the layers above it
loop over ``t``, and what does not change from step to step (layer kinds,
``W.T``, input sizes, the cross-entropy rows) is worked out once per run
(``_Net``) or per window.  The result is bit-identical to stepping every
layer: the prefix's products go through numpy as stacks of single rows
(``(T, 1, fan_in)`` forward, ``(n, 1)`` columns backward), which numpy
multiplies one row at a time exactly as it does a lone vector.  Each
layer's weight and bias gradients are one sum of per-step outer products
(the bias as a column of ones beside the inputs), formed as stacked
``np.matmul`` products in chunks of ``_SUM_CHUNK`` steps, which bounds
their memory, and added from the last step to the first, as a per-step
walk adds them.  A plain ``(T, fan_in)`` product, or a sum that adds the
steps in another order, would round differently.
"""

from __future__ import annotations

import numpy as np

from .inference import layer_forward
from .model import Activation, LayerKind, ModelSpec, RnnState


def _train_kind(kind: Activation) -> Activation:
    """The kind a layer trains as: MAX and APPROX_SOFTMAX train as SOFTMAX."""
    if kind in (Activation.MAX, Activation.APPROX_SOFTMAX):
        return Activation.SOFTMAX
    return kind


def _pull_back(
    kind: Activation, Z: np.ndarray, A: np.ndarray, dA: np.ndarray
) -> np.ndarray:
    """Pull a gradient through training kind ``kind`` (see ``_train_kind``):
    ``dA`` on ``A`` to ``dZ``.

    Works on the last axis, so a batch of rows and one time step go through
    the same lines.  Softmax applies the Jacobian product
    ``A * (dA - sum(dA * A))``; element-wise kinds multiply by their
    derivative, with subgradient zero at kinks.
    """
    if kind is Activation.SOFTMAX:
        return A * (dA - np.add.reduce(dA * A, axis=-1, keepdims=True))
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


# --- truncated-BPTT windows ---------------------------------------------------

class _Net:
    """What the window passes read of a spec, worked out once per run.

    ``first`` is the lowest layer that steps through time: the first
    recurrent layer, or the output layer of a net without one.  ``stepped``
    holds ``(index, input_size, fan_in, recurrent)`` for that layer and
    every layer above it.
    """

    def __init__(self, spec: ModelSpec) -> None:
        self.spec = spec
        self.kinds = [_train_kind(layer.activation) for layer in spec.layers]
        self.first = next(
            (i for i, l in enumerate(spec.layers) if l.kind is LayerKind.RECURRENT),
            len(spec.layers) - 1,
        )
        self.stepped = [
            (i, layer.input_size, layer.fan_in, layer.kind is LayerKind.RECURRENT)
            for i, layer in enumerate(spec.layers)
        ][self.first :]


def _forward_window(net: _Net, Ws, bs, X_win, state: RnnState):
    """Forward one window, updating ``state`` in place; returns caches.

    ``U``, ``Z`` and ``A`` hold one array of ``T`` rows per layer; a row of
    ``U[i]`` is the layer's input followed by a 1.0, the input its bias
    sees.  The dense prefix below the first recurrent layer runs once per
    window: its rows go through the kernel stacked as ``(T, 1, fan_in)``,
    which numpy multiplies row by row exactly as it does a lone vector, so
    every row equals the per-step value bit for bit and counts the same
    MACs.  Only the first recurrent layer and the layers above it step
    through ``t``; each step writes its output straight into the input rows
    that read it, the next layer's at ``t`` and its own feedback at ``t+1``.
    """
    T = X_win.shape[0]
    layers = net.spec.layers
    U = [np.ones((T, layer.fan_in + 1)) for layer in layers]
    Z, A = [], []
    below = X_win
    for i in range(net.first):
        U[i][:, :-1] = below
        z, a = layer_forward(net.kinds[i], Ws[i], bs[i], below[:, None, :])
        Z.append(z[:, 0])
        A.append(a[:, 0])
        below = A[-1]
    U[net.first][:, : below.shape[1]] = below
    top = len(layers) - 1
    for i, n_in, fan_in, recurrent in net.stepped:
        if recurrent:
            U[i][0, n_in:fan_in] = state.layer(i)
    rows = [([], []) for _ in net.stepped]  # each stepped layer's z and a rows
    for t in range(T):
        for (i, n_in, fan_in, recurrent), (zs, xs) in zip(net.stepped, rows):
            z, x = layer_forward(net.kinds[i], Ws[i], bs[i], U[i][t, :fan_in])
            zs.append(z)
            xs.append(x)
            if i < top:
                U[i + 1][t, : x.shape[0]] = x
            if recurrent and t + 1 < T:
                U[i][t + 1, n_in:fan_in] = x
    for (i, _, _, recurrent), (zs, xs) in zip(net.stepped, rows):
        Z.append(np.array(zs))
        A.append(np.array(xs))
        if recurrent:
            state.layer(i)[:] = xs[-1]
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


def _step_back(net: _Net, WT, Z, A, targets, scale):
    """The stepped part of a window's backward pass, from its last step to
    its first: the ``dZ`` rows of the first recurrent layer and every layer
    above it, and the gradient ``dA`` handed down to the layer below."""
    top = len(WT) - 1
    rows = np.nonzero(targets >= 0)[0]
    CE = A[top][rows]
    CE[np.arange(rows.size), targets[rows]] -= 1.0
    CE *= scale
    ce = dict(zip(rows.tolist(), CE))  # cross-entropy rows of labeled steps
    feedback = {i: np.zeros(fan_in - n_in) for i, n_in, fan_in, r in net.stepped if r}
    zero = np.zeros(WT[top].shape[1])
    down = net.stepped[::-1]
    dz_rows = [[] for _ in down]  # last step first
    da_rows = []
    for t in range(A[top].shape[0] - 1, -1, -1):
        da = zero
        for (i, n_in, _, recurrent), dzs in zip(down, dz_rows):
            if recurrent:
                da = da + feedback[i]
            dz = _pull_back(net.kinds[i], Z[i][t], A[i][t], da)
            if i == top and t in ce:
                dz = dz + ce[t]
            dzs.append(dz)
            du = WT[i] @ dz
            da = du[:n_in]
            if recurrent:
                feedback[i] = du[n_in:]
        da_rows.append(da)
    return [np.array(dzs[::-1]) for dzs in dz_rows[::-1]], np.array(da_rows[::-1])


def _backward_window(net: _Net, Ws, U, Z, A, targets, scale):
    """Full backprop inside one window; no gradient crosses its start.

    The first recurrent layer and the layers above it step back through
    ``t`` (``_step_back``): one gradient ``da`` walks down them, and a
    recurrent layer adds the gradient its output sent to the next step's
    input.  The output's cross-entropy rows are formed once per window.
    What reaches the dense prefix is pulled through the prefix once per
    window: ``dA = W.T @ dZ`` as a stack of ``(n, 1)`` columns, which numpy
    multiplies column by column exactly as it does a lone vector.  Every
    layer's weight and bias gradients are one sum of the per-step outer
    products of its ``dZ`` rows with its input rows and their column of
    ones (``_stepwise_sum``), added in chunks from the last step to the
    first, starting at zero, as a per-step walk adds them; a plain
    reduction over the steps could add pairwise, and one stack of every
    step's outer products would cost ``T`` times the gradient's memory.
    """
    WT = [W.T for W in Ws]
    stepped, DA = _step_back(net, WT, Z, A, targets, scale)
    prefix = []
    for i in range(net.first - 1, -1, -1):
        prefix.insert(0, _pull_back(net.kinds[i], Z[i], A[i], DA))
        if i > 0:
            DA = (WT[i] @ prefix[0][:, :, None])[:, :, 0]
    G = [_stepwise_sum(dz, u) for dz, u in zip(prefix + stepped, U)]
    return [g[:, :-1] for g in G], [g[:, -1] for g in G]
