"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own execution paths:
forward passes are re-derived with explicit Python loops, gradients with
central finite differences, k-means with the full distance matrix every
round, the compressed-model bit codec one bit at a time, candidate
detection frame by frame, temporal scaling one sample at a time, BPTT
windows step by step, optimizer updates one array at a time and corpus
instances through a single-instance render (the renderer as it stood
before the library rendered whole blocks of instances) and the public
augment call, so a test comparing the two exercises two independent
routes to the same number.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import math
from collections import Counter, deque
from contextlib import contextmanager
from typing import Sequence

import numpy as np
import pytest

from microgest.compression import KMEANS_MAX_ITER, KMEANS_TOL
from microgest.errors import CorruptStream, InvalidParams, KTooLarge
from microgest.features import (
    LABEL_KIND_GESTURE,
    LABEL_KIND_PHASE,
    AnnotatedSequence,
    Annotation,
)
from microgest.inference import layer_forward
from microgest.model import (
    Activation,
    LayerKind,
    ModelSpec,
    Parameters,
    RnnState,
    chain,
)
from microgest.pipeline import Candidate, GestureClass, last_phase_state, phase_state
from microgest import training
from microgest.synth import (
    _MOTION,
    LEAD_FRAMES,
    Brightness,
    Gamma,
    GestureSynthParams,
    MirrorX,
    MirrorY,
    Rotate,
    augment,
    gesture_label_map,
)
from microgest.backprop import _pull_back, _train_kind
from microgest.training import init_params


# --- brute-force forward pass ------------------------------------------------

def loop_matvec(weights, inputs, biases):
    """Dot products via explicit Python loops; no numpy matmul involved."""
    rows = len(biases)
    cols = len(inputs)
    out = []
    for i in range(rows):
        acc = float(biases[i])
        for j in range(cols):
            acc += float(weights[i][j]) * float(inputs[j])
        out.append(acc)
    return np.array(out)


def oracle_activation(kind: Activation, z: np.ndarray) -> np.ndarray:
    """Textbook activation formulas, written independently of the library."""
    z = np.asarray(z, dtype=float)
    if kind is Activation.SIGMOID:
        return 1.0 / (1.0 + np.exp(-z))
    if kind is Activation.TANH:
        return np.tanh(z)
    if kind is Activation.HARD_SIGMOID:
        return np.minimum(1.0, np.maximum(0.0, 0.2 * z + 0.5))
    if kind is Activation.SOFTSIGN:
        return z / (1.0 + np.abs(z))
    if kind is Activation.RELU:
        return np.where(z > 0.0, z, 0.0)
    if kind is Activation.SOFTMAX:
        e = np.exp(z - z.max())
        return e / e.sum()
    if kind is Activation.MAX:
        out = np.zeros_like(z)
        out[int(np.argmax(z))] = 1.0
        return out
    raise AssertionError(f"oracle has no rule for {kind}")


def oracle_forward(spec: ModelSpec, params: Parameters, features, states=None):
    """Loop-based forward pass; ``states`` maps layer index to feedback."""
    x = np.asarray(features, dtype=float)
    for i, (layer, lp) in enumerate(zip(spec.layers, params.layers)):
        if layer.kind is LayerKind.RECURRENT:
            u = np.concatenate([x, states[i]])
        else:
            u = x
        z = loop_matvec(lp.weights, u, lp.biases)
        x = oracle_activation(layer.activation, z)
        if layer.kind is LayerKind.RECURRENT:
            states[i] = x.copy()
    return x


# --- finite differences ------------------------------------------------------

def numeric_grad(loss_fn, arrays, eps=1e-6):
    """Central-difference gradients of ``loss_fn()`` wrt each array in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=float)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = loss_fn()
            flat[i] = keep - eps
            lo = loss_fn()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric, floor=1e-8):
    """Worst elementwise relative deviation between two gradient stacks."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# --- per-step BPTT windows ----------------------------------------------------
#
# The window passes as they were before the dense prefix ran once per window:
# every layer steps through ``t``.  ``oracle_window_route`` swaps them into
# ``microgest.training`` so a public sequence function can be run both ways.

def oracle_forward_window(net, Ws, bs, X_win, state: RnnState):
    """Forward one window, updating ``state`` in place; returns caches."""
    spec = net.spec
    T = X_win.shape[0]
    U = [np.empty((T, layer.fan_in)) for layer in spec.layers]
    Z = [np.empty((T, layer.neurons)) for layer in spec.layers]
    A = [np.empty((T, layer.neurons)) for layer in spec.layers]
    kinds = [_train_kind(layer.activation) for layer in spec.layers]
    for t in range(T):
        x = X_win[t]
        for i, layer in enumerate(spec.layers):
            recurrent = layer.kind is LayerKind.RECURRENT
            u = np.concatenate([x, state.layer(i)]) if recurrent else x
            z, x = layer_forward(kinds[i], Ws[i], bs[i], u)
            U[i][t], Z[i][t], A[i][t] = u, z, x
            if recurrent:
                state.layer(i)[:] = x
    return U, Z, A


def oracle_backward_window(net, Ws, U, Z, A, targets, scale):
    """Full backprop inside one window; no gradient crosses its start.

    At each step one gradient ``da`` walks down the layers; a recurrent
    layer adds the gradient its output sent to the next step's input.
    """
    spec = net.spec
    top = len(spec.layers) - 1
    gW = [np.zeros_like(W) for W in Ws]
    gb = [np.zeros(W.shape[0]) for W in Ws]
    feedback = RnnState(spec)
    for t in range(U[0].shape[0] - 1, -1, -1):
        da = np.zeros(spec.output_size)
        for i in range(top, -1, -1):
            layer = spec.layers[i]
            recurrent = layer.kind is LayerKind.RECURRENT
            if recurrent:
                da = da + feedback.layer(i)
            dz = _pull_back(_train_kind(layer.activation), Z[i][t], A[i][t], da)
            if i == top and targets[t] >= 0:
                ce = A[i][t].copy()
                ce[targets[t]] -= 1.0
                dz = dz + ce * scale
            gW[i] += np.outer(dz, U[i][t])
            gb[i] += dz
            du = Ws[i].T @ dz
            da = du[: layer.input_size]
            if recurrent:
                feedback.layer(i)[:] = du[layer.input_size :]
    return gW, gb


@contextmanager
def oracle_window_route():
    """Run ``microgest.training`` on the per-step window passes inside."""
    saved = training._forward_window, training._backward_window
    training._forward_window = oracle_forward_window
    training._backward_window = oracle_backward_window
    try:
        yield
    finally:
        training._forward_window, training._backward_window = saved


# --- per-array optimizers ------------------------------------------------------
#
# The optimizers as they were before a run's parameters shared one flat
# buffer: one set of updates per array.

class OracleSgd:
    def __init__(self, arrays: list[np.ndarray], cfg) -> None:
        self.lr = cfg.learning_rate

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for p, g in zip(arrays, grads):
            p -= self.lr * g


class OracleAdam:
    def __init__(self, arrays: list[np.ndarray], cfg) -> None:
        self.lr = cfg.learning_rate
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
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


# --- k-means -------------------------------------------------------------------

def oracle_kmeans_1d(values, k):
    """Lloyd's k-means as the library ran it before sorted segments: the full
    distance matrix and its ``argmin`` every round, and a mask scan per
    cluster."""
    values = np.asarray(values, dtype=float).ravel()
    if k < 1:
        raise InvalidParams("k must be >= 1")
    if k > values.size:
        raise KTooLarge(f"k={k} exceeds the {values.size} available values")
    lo, hi = float(values.min()), float(values.max())
    if k == 1:
        centroids = np.array([(lo + hi) / 2.0])
    else:
        centroids = np.linspace(lo, hi, k)
    assignment = np.zeros(values.size, dtype=int)
    sse_history: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        dist = np.abs(values[:, None] - centroids[None, :])
        assignment = np.argmin(dist, axis=1)
        sse_history.append(float(np.sum((values - centroids[assignment]) ** 2)))
        moved = 0.0
        new_centroids = centroids.copy()
        for j in range(k):
            members = values[assignment == j]
            if members.size:
                new_centroids[j] = members.mean()
                moved = max(moved, abs(new_centroids[j] - centroids[j]))
        centroids = new_centroids
        if moved <= KMEANS_TOL:
            break
    dist = np.abs(values[:, None] - centroids[None, :])
    assignment = np.argmin(dist, axis=1)
    sse_history.append(float(np.sum((values - centroids[assignment]) ** 2)))
    return centroids, assignment, sse_history


# --- bit-serial codec ----------------------------------------------------------

def oracle_pack_bits(values, width):
    """Pack unsigned integers most-significant-bit first, one value at a time."""
    if width < 0:
        raise InvalidParams("bit width must be >= 0")
    if width == 0:
        return b""
    out = bytearray()
    acc = 0
    nbits = 0
    limit = 1 << width
    for v in values:
        v = int(v)
        if not 0 <= v < limit:
            raise InvalidParams(f"value {v} does not fit in {width} bits")
        acc = (acc << width) | v
        nbits += width
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def oracle_unpack_bits(data, width, count):
    """Inverse of :func:`oracle_pack_bits`, one value at a time."""
    if width == 0:
        return np.zeros(count, dtype=int)
    if len(data) < (count * width + 7) // 8:
        raise CorruptStream("bit stream shorter than declared")
    out = np.empty(count, dtype=int)
    acc = 0
    nbits = 0
    pos = 0
    for i in range(count):
        while nbits < width:
            acc = (acc << 8) | data[pos]
            pos += 1
            nbits += 8
        nbits -= width
        out[i] = (acc >> nbits) & ((1 << width) - 1)
    return out


def oracle_code_lengths(data):
    """Huffman code lengths, merging whole symbol-to-depth maps."""
    freq = Counter(data)
    if len(freq) == 1:
        return {next(iter(freq)): 1}
    heap = []
    for order, (sym, f) in enumerate(sorted(freq.items())):
        heapq.heappush(heap, (f, order, {sym: 0}))
    order += 1
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        merged = {s: d + 1 for s, d in a.items()}
        merged.update({s: d + 1 for s, d in b.items()})
        heapq.heappush(heap, (fa + fb, order, merged))
        order += 1
    return heap[0][2]


def oracle_canonical_codes(lengths):
    """``{symbol: (value, length)}``, counting up in (length, symbol) order."""
    codes = {}
    code = prev_len = None
    for sym, length in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
        code = 0 if prev_len is None else (code + 1) << (length - prev_len)
        codes[sym] = (code, length)
        prev_len = length
    return codes


def oracle_huffman_encode(data):
    """``(encoded bytes, code lengths)`` under the data's own Huffman code."""
    if not data:
        raise InvalidParams("cannot build a code for empty input")
    lengths = oracle_code_lengths(data)
    return oracle_encode_with_code(data, lengths), lengths


def oracle_encode_with_code(data, lengths):
    """Bytes coded under the canonical code of ``lengths``, one word at a time."""
    codes = oracle_canonical_codes(lengths)
    acc = 0
    nbits = 0
    out = bytearray()
    for byte in data:
        value, length = codes[byte]
        acc = (acc << length) | value
        nbits += length
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def oracle_huffman_decode(encoded, lengths, n_symbols):
    """Decode a canonical Huffman stream one bit at a time."""
    if n_symbols == 0:
        return b""
    by_code = {
        (length, value): sym
        for sym, (value, length) in oracle_canonical_codes(lengths).items()
    }
    max_len = max(lengths.values())
    out = bytearray()
    value = 0
    length = 0
    bit_index = 0
    total_bits = len(encoded) * 8
    while len(out) < n_symbols:
        if bit_index >= total_bits:
            raise CorruptStream("bit stream ended inside a code word")
        bit = (encoded[bit_index >> 3] >> (7 - (bit_index & 7))) & 1
        bit_index += 1
        value = (value << 1) | bit
        length += 1
        sym = by_code.get((length, value))
        if sym is not None:
            out.append(sym)
            value = 0
            length = 0
        elif length > max_len:
            raise CorruptStream("no code word matches the stream")
    return bytes(out)


# --- candidate detection -----------------------------------------------------
# The frame-based streaming detector and the annotation-scanning labeller as
# they stood before the library moved to an index-based state machine over
# precomputed frame means and a sorted annotation search.  They push whole
# frames through Python lists and compare every candidate with every
# annotation, which makes them a second route to the same candidates and
# labels.

class OracleCandidateDetector:
    """Streaming brightness-dip detector.

    The detector tracks a rolling average of image mean brightness and looks
    for runs of frames deviating from it by a tenth or more.  A run of at
    least ``min_run`` counted frames becomes a candidate, padded with
    ``pad`` frames of context on each side.

    Two stability rules shape what is counted:

    * only frames whose mean differs by less than one percent from the
      previous frame's mean are "considered"; a not-considered frame
      freezes the detector (it neither updates the rolling average nor
      counts toward or against a run) and is parked until the next
      considered frame decides where it belongs;
    * the rolling average is updated only by considered frames that do not
      deviate, so candidates never drag the baseline toward themselves.

    Parked frames sandwiched between deviating frames join the run; parked
    frames at a run's end become its trailing context.  A run that would
    exceed ``capacity`` buffered frames is truncated and emitted
    immediately, mirroring the fixed frame buffer of the target hardware.

    One detector instance serves one stream (single writer).  Feed frames
    with :meth:`push`; each call returns the candidates completed by that
    frame.  Call :meth:`finish` at stream end to flush a trailing run.
    """

    _IDLE, _RUN, _POST = range(3)

    def __init__(self, min_run: int = 9, pad: int = 5, capacity: int = 80) -> None:
        self.deviation = 0.10
        self.stability = 0.01
        self.min_run = min_run
        self.pad = pad
        self.capacity = capacity
        self.baseline_alpha = 0.9
        self._index = -1
        self._rollavg: float | None = None
        self._prev_mean: float | None = None
        self._history: deque = deque(maxlen=pad)
        self._pending: list = []
        self._run: list = []
        self._run_count = 0
        self._post: list = []
        self._phase = self._IDLE

    @property
    def baseline(self) -> float | None:
        """Current rolling average of image mean brightness."""
        return self._rollavg

    def push(self, frame: np.ndarray) -> list[Candidate]:
        """Feed one frame; returns candidates completed by this frame."""
        self._index += 1
        index = self._index
        mean = float(np.asarray(frame, dtype=float).mean())

        if self._rollavg is None:
            self._rollavg = mean
            self._prev_mean = mean
            self._history.append((index, frame))
            return []

        prev = self._prev_mean
        considered = mean == prev or abs(mean - prev) < self.stability * prev
        diff = abs(mean - self._rollavg)
        deviating = diff > 0.0 and diff >= self.deviation * self._rollavg
        self._prev_mean = mean

        emitted: list[Candidate] = []

        if self._phase == self._POST:
            self._post.append((index, frame))
            if considered and not deviating:
                self._update_baseline(mean)
            if (
                len(self._post) >= self.pad
                or self._buffered() + len(self._post) >= self.capacity
            ):
                emitted.append(self._emit())
            return emitted

        if not considered:
            self._pending.append((index, frame))
            if self._phase == self._RUN and self._buffered() >= self.capacity:
                self._run.extend(self._pending)
                self._pending = []
                emitted.append(self._emit(truncated=True))
            elif self._phase == self._IDLE and len(self._pending) > self.capacity:
                # pathological flicker; oldest parked frames decay to context
                self._history.append(self._pending.pop(0))
            return emitted

        if self._phase == self._IDLE:
            if deviating:
                self._run = self._pending + [(index, frame)]
                self._pending = []
                self._run_count = 1
                self._phase = self._RUN
                if self._buffered() >= self.capacity:
                    emitted.append(self._emit(truncated=True))
            else:
                self._update_baseline(mean)
                for item in self._pending:
                    self._history.append(item)
                self._pending = []
                self._history.append((index, frame))
            return emitted

        # self._phase == self._RUN
        if deviating:
            self._run.extend(self._pending)
            self._pending = []
            self._run.append((index, frame))
            self._run_count += 1
            if self._buffered() >= self.capacity:
                emitted.append(self._emit(truncated=True))
        else:
            self._update_baseline(mean)
            if self._run_count >= self.min_run:
                self._post = self._pending + [(index, frame)]
                self._pending = []
                self._phase = self._POST
                if len(self._post) >= self.pad:
                    emitted.append(self._emit())
            else:
                for item in self._run + self._pending + [(index, frame)]:
                    self._history.append(item)
                self._run = []
                self._pending = []
                self._run_count = 0
                self._phase = self._IDLE
        return emitted

    def finish(self) -> list[Candidate]:
        """Flush a run still open at stream end."""
        emitted = []
        if self._phase == self._POST or (
            self._phase == self._RUN and self._run_count >= self.min_run
        ):
            if self._phase == self._RUN:
                self._post = self._pending
                self._pending = []
            emitted.append(self._emit())
        self._reset_window()
        return emitted

    def _buffered(self) -> int:
        return min(len(self._history), self.pad) + len(self._run)

    def _update_baseline(self, mean: float) -> None:
        a = self.baseline_alpha
        self._rollavg = a * self._rollavg + (1.0 - a) * mean

    def _emit(self, truncated: bool = False) -> Candidate:
        pre = list(self._history)[-self.pad:]
        items = (pre + self._run + self._post[: self.pad])[: self.capacity]
        frames = np.stack([frame for _, frame in items])
        cand = Candidate(
            frames=frames,
            start_index=items[0][0],
            end_index=items[-1][0],
            truncated=truncated,
        )
        self._reset_window()
        return cand

    def _reset_window(self) -> None:
        self._history.clear()
        self._pending = []
        self._run = []
        self._run_count = 0
        self._post = []
        self._phase = self._IDLE


def oracle_extract_candidates(frames: np.ndarray, **detector_kwargs) -> list[Candidate]:
    """Run the streaming detector over a ``(T, H, W)`` frame stack."""
    detector = OracleCandidateDetector(**detector_kwargs)
    found: list[Candidate] = []
    for frame in np.asarray(frames):
        found.extend(detector.push(frame))
    found.extend(detector.finish())
    return found


def oracle_match_events(events, annotations, tolerance=10):
    """The accuracy metric as it stood before events were binary-searched:
    every event scanned for every scored annotation.  Returns the report's
    ``(accuracy, total, correct, outcomes)``."""
    scored = [a for a in annotations if a.label != int(GestureClass.NO_GESTURE)]
    outcomes = []
    correct = 0
    for ann in scored:
        window = [ev for ev in events if abs(ev[0] - ann.frame) <= tolerance]
        if len(window) == 1 and int(window[0][1]) == ann.label:
            correct += 1
            outcomes.append((ann, "correct"))
        elif not window:
            outcomes.append((ann, "missed"))
        elif len(window) > 1:
            outcomes.append((ann, "multiple"))
        else:
            outcomes.append((ann, GestureClass(int(window[0][1])).name.lower()))
    total = len(scored)
    return (correct / total if total else 0.0), total, correct, outcomes


def oracle_label_candidates(
    candidates: Sequence[Candidate],
    annotations: Sequence[Annotation],
    tolerance: int = 10,
) -> list[tuple[Candidate, int]]:
    """Pair extracted candidates with gesture labels for training.

    A candidate takes the label of the closest annotation within
    ``tolerance`` frames of its end; candidates matching nothing are
    labelled NO_GESTURE, which turns spurious detections into negative
    training examples.
    """
    labelled = []
    for cand in candidates:
        best: Annotation | None = None
        for ann in annotations:
            dist = abs(ann.frame - cand.end_index)
            if dist <= tolerance and (
                best is None or dist < abs(best.frame - cand.end_index)
            ):
                best = ann
        label = best.label if best is not None else int(GestureClass.NO_GESTURE)
        labelled.append((cand, label))
    return labelled


# --- temporal scaling --------------------------------------------------------

def oracle_scale_frames(frames, target: int) -> np.ndarray:
    """One candidate's frames resampled to ``target`` frames, one sample at
    a time in Python scalars: sample ``k`` sits at ``t = k (L - 1) /
    (target - 1)`` and blends frames ``floor(t)`` and ``min(floor(t) + 1,
    L - 1)`` by ``1 - (t - floor(t))`` and ``t - floor(t)``."""
    frames = np.asarray(frames, dtype=float)
    last = len(frames) - 1
    out = np.empty((target,) + frames.shape[1:])
    for k in range(target):
        t = k * last / (target - 1)
        i = math.floor(t)
        f = t - i
        out[k] = frames[i] * (1.0 - f) + frames[min(i + 1, last)] * f
    return out


# --- rendering, one instance at a time ---------------------------------------
# The renderer as it stood before the library rendered a whole block of
# instances per pass: each instance's coverage maps, pixels and phase
# states are built on their own, and its noise drawn as one array.

def _band_coverage(path: np.ndarray, half_width: float, cells: int) -> np.ndarray:
    """Coverage (T, cells) of equal cells on [0, 1] by a band at each path center."""
    edges = np.arange(cells + 1) / cells
    lo = np.maximum(edges[:-1], path[:, None] - half_width)
    cov = np.minimum(edges[1:], path[:, None] + half_width)
    cov -= lo
    cov *= cells
    np.maximum(cov, 0.0, out=cov)
    return np.minimum(cov, 1.0, out=cov)


def _sweep(
    path: np.ndarray, half_width: float, motion: tuple[int, int], p: GestureSynthParams
) -> np.ndarray:
    """Coverage maps of a band moving along ``motion`` on ``path``, as a
    ``(T, 1, W)`` or ``(T, H, 1)`` stack that broadcasts to ``(T, H, W)``.

    ``path`` holds band centers in path coordinates (0 at the edge the band
    enters from); the cells are flipped when the motion runs against the axis.
    """
    dx, dy = motion
    cov = _band_coverage(path, half_width, p.width if dx else p.height)
    if dx + dy < 0:
        cov = cov[:, ::-1]
    return cov[:, None, :] if dx else cov[:, :, None]


def _crossing_path(p: GestureSynthParams) -> np.ndarray:
    """Band centers of a full crossing, from just outside to just outside."""
    t_cross = max(2, int(round(p.speed)))
    w = p.occluder_width
    return -w / 2 + (1.0 + w) * np.arange(t_cross) / (t_cross - 1)


def _disturbance_coverage(p: GestureSynthParams, rng) -> np.ndarray:
    """Coverage maps of a NO_GESTURE disturbance, hover or aborted swipe, as
    a stack that broadcasts to ``(T, H, W)``."""
    hold = max(14, int(round(p.speed / 3)))
    if rng.random() < 0.5:
        # hover: the whole field dims and recovers without lateral motion
        ramp = max(3, int(round(p.speed / 6)))
        depth = float(np.clip(p.occluder_width * 1.3, 0.25, 0.6))
        up = np.linspace(0.0, 1.0, ramp + 1)[1:]
        profile = np.concatenate([up, np.ones(hold), up[::-1]]) * depth
        return profile[:, None, None]
    # aborted swipe: the band enters partway, hesitates, and retreats
    w = p.occluder_width
    reach = rng.uniform(0.30, 0.45)
    steps = max(4, int(round(p.speed / 2)))
    path_in = -w / 2 + (reach + w / 2) * np.arange(1, steps + 1) / steps
    path = np.concatenate([path_in, np.full(hold, reach), path_in[::-1]])
    along_x = rng.random() < 0.5
    sign = 1 if rng.random() < 0.5 else -1
    return _sweep(path, w / 2, (sign, 0) if along_x else (0, sign), p)


def _phase_states(p: GestureSynthParams, centers: np.ndarray) -> np.ndarray:
    """Motion-phase state of every crossing frame, in path coordinates."""
    g = p.direction
    n = p.width if _MOTION[g][0] else p.height
    lead = centers + p.occluder_width / 2
    trail = centers - p.occluder_width / 2
    return np.select(
        [(lead <= 0.0) | (trail >= 1.0), lead <= (n // 2) / n, lead <= (n - 1) / n,
         trail <= 1.0 / n],
        [0, phase_state(g, 1), phase_state(g, 2), phase_state(g, 3)],
        last_phase_state(g),
    )


def oracle_render(
    p: GestureSynthParams, rng: np.random.Generator, labels: str
) -> tuple[np.ndarray, int, list[int]]:
    """Render one instance as ``(values, first, states)``: ``values`` are
    its float pixels before ADC rounding, and annotation ``i`` marks frame
    ``first + i`` with label ``states[i]``.  Every random draw comes from
    ``rng``."""
    if labels not in (LABEL_KIND_GESTURE, LABEL_KIND_PHASE):
        raise InvalidParams(f"unknown label mode {labels!r}")
    crossing = p.contrast > 0.0 and p.direction is not GestureClass.NO_GESTURE
    if crossing:
        centers = _crossing_path(p)
        coverage = _sweep(centers, p.occluder_width / 2, _MOTION[p.direction], p)
    elif p.contrast > 0.0:
        coverage = _disturbance_coverage(p, rng)
    else:
        coverage = np.zeros((max(2, int(round(p.speed))), p.height, p.width))
    n = coverage.shape[0]
    stop = LEAD_FRAMES + n

    # background * (1 - contrast * coverage) between steady lead frames
    values = np.empty((stop + LEAD_FRAMES, p.height, p.width))
    values[:LEAD_FRAMES] = p.background_brightness
    values[stop:] = p.background_brightness
    body = values[LEAD_FRAMES:stop]
    np.multiply(coverage, p.contrast, out=body)
    np.subtract(1.0, body, out=body)
    body *= p.background_brightness
    if p.noise_sigma > 0.0:
        values += rng.normal(0.0, p.noise_sigma, values.shape)

    if labels == LABEL_KIND_GESTURE:
        effective = p.direction if crossing else GestureClass.NO_GESTURE
        return values, stop - 1, [int(effective)]
    states = np.zeros(values.shape[0], dtype=int)
    if crossing:
        states[LEAD_FRAMES:stop] = _phase_states(p, centers)
    return values, 0, states.tolist()



def oracle_synthesize(p, seed, labels=LABEL_KIND_GESTURE):
    """``synthesize_gesture`` through :func:`oracle_render`."""
    values, first, states = oracle_render(p, np.random.default_rng(seed), labels)
    np.rint(values, out=values)
    np.clip(values, 0, 1023, out=values)
    return AnnotatedSequence(
        width=p.width,
        height=p.height,
        frames=values.astype(np.uint16),
        label_frames=[first + i for i in range(len(states))],
        labels=states,
        label_kind=labels,
    )


# --- corpus assembly, one call per step --------------------------------------

def oracle_build_corpus(per_class, seed, width=3, height=3, label_kind="gesture"):
    """``build_corpus`` made of :func:`oracle_synthesize`, ``augment`` and
    ``gesture_label_map`` calls, each instance drawing from its own fresh
    ``default_rng(iseed)`` streams.  Returns the corpus and the set of
    ``(geometry, gamma applied, brightness applied)`` its instances used."""
    rng = np.random.default_rng(seed)
    order = [(cls, int(rng.integers(0, 2**31)))
             for cls in GestureClass for _ in range(per_class)]
    rng.shuffle(order)
    lo, hi = 520.0, 940.0
    bg = float(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)))
    geoms = [None, MirrorX(), MirrorY()]
    if width == height:
        geoms += [Rotate(1), Rotate(2), Rotate(3)]
    chunks, annotations, combos = [], [], set()
    offset, prev_tail = 0, None
    for cls, iseed in order:
        irng = np.random.default_rng(iseed)
        band = float(irng.uniform(0.30, 0.42))
        min_speed = math.ceil(14 * (1 + band) / (1 - band))
        max_speed = math.floor(13 * (1 + band) / band)
        speed = float(irng.uniform(min_speed, max_speed))
        contrast = float(irng.uniform(0.55, 0.95))
        noise = float(irng.uniform(1.0, 3.2))
        bg = float(np.clip(bg * math.exp(irng.uniform(-0.12, 0.12)), lo, hi))
        geom = geoms[int(irng.integers(0, len(geoms)))]
        source = next(src for src, dst in gesture_label_map(geom).items() if dst == cls)
        params = GestureSynthParams(
            direction=source, speed=speed, occluder_width=band,
            background_brightness=bg, contrast=contrast, noise_sigma=noise,
            width=width, height=height,
        )
        seq = oracle_synthesize(params, iseed, label_kind)
        if geom is not None:
            seq = augment(seq, geom)
        gamma = irng.random() < 0.5
        if gamma:
            seq = augment(seq, Gamma(float(irng.uniform(0.88, 1.15))))
        brightness = irng.random() < 0.3
        if brightness:
            seq = augment(seq, Brightness(float(irng.uniform(-0.06, 0.10)) * bg))
        combos.add((geom, gamma, brightness))

        first_mean = float(seq.frames[0].mean())
        if prev_tail is not None and abs(first_mean - prev_tail) > 1e-9:
            if prev_tail <= 0 or first_mean <= 0:
                steps = 1
            else:
                steps = max(1, math.ceil(abs(math.log(first_mean / prev_tail)) / 0.004))
            levels = prev_tail * np.power(first_mean / prev_tail,
                                          np.arange(1, steps + 1) / steps)
            values = levels[:, None, None] * np.ones((height, width))
            noisy = values + irng.normal(0.0, 1.0, values.shape)
            chunks.append(np.clip(np.rint(noisy), 0, 1023).astype(np.uint16))
            if label_kind == LABEL_KIND_PHASE:
                annotations += [Annotation(offset + t, 0) for t in range(steps)]
            offset += steps
        annotations += [Annotation(a.frame + offset, a.label) for a in seq.annotations]
        chunks.append(seq.frames)
        offset += len(seq)
        prev_tail = float(seq.frames[-1].mean())
    frames = np.concatenate(chunks) if chunks else np.zeros((0, height, width), np.uint16)
    corpus = AnnotatedSequence(width=width, height=height, frames=frames,
                               label_frames=[a.frame for a in annotations],
                               labels=[a.label for a in annotations], label_kind=label_kind)
    return corpus, combos


# --- the loaded BLAS kernel --------------------------------------------------

@functools.cache
def openblas_kernel() -> str:
    """Name of the OpenBLAS kernel numpy runs on, as OpenBLAS reports it:
    the one it picked for this CPU, or the one ``OPENBLAS_CORETYPE`` forced
    (``SkylakeX``, ``Haswell``, ``Sandybridge``, ...).  ``"not found"`` where
    no OpenBLAS library that names its kernel is mapped into the process.

    Each kernel sums a product in its own order, so the weight and gradient
    digests pinned in ``test_training.py`` are recorded per kernel.  Print
    it with ``PYTHONPATH=src:tests python -c "import conftest;
    print(conftest.openblas_kernel())"``.
    """
    try:
        with open("/proc/self/maps") as maps:  # Linux; numpy has loaded OpenBLAS
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    kernels = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            if hasattr(handle, symbol):
                corename = getattr(handle, symbol)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                kernels.append(corename().decode())
                break
    return ", ".join(kernels) or "not found"


# --- random model construction -----------------------------------------------

def random_spec(rng, features=None, allow_recurrent=True, max_layers=3):
    """A small random architecture, always ending in softmax."""
    features = features or int(rng.integers(1, 8))
    n_layers = int(rng.integers(1, max_layers + 1))
    acts = [
        Activation.SIGMOID,
        Activation.TANH,
        Activation.HARD_SIGMOID,
        Activation.SOFTSIGN,
        Activation.RELU,
    ]
    defs = []
    for i in range(n_layers):
        neurons = int(rng.integers(1, 8))
        recurrent = allow_recurrent and rng.random() < 0.4
        kind = LayerKind.RECURRENT if recurrent else LayerKind.DENSE
        if i == n_layers - 1:
            act = Activation.SOFTMAX
        else:
            act = acts[int(rng.integers(0, len(acts)))]
        defs.append((kind, neurons, act))
    return chain(features, defs)


def random_model(rng, **kwargs):
    spec = random_spec(rng, **kwargs)
    params = init_params(spec, int(rng.integers(0, 2**31)))
    return spec, params


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
