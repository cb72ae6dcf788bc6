"""Optical gesture recognition pipeline.

Two recognition styles share this module:

* feed-forward: a brightness-dip detector cuts candidate windows out of the
  stream, each candidate is resampled to a fixed frame count and classified
  in one shot;
* recurrent: a small RNN labels every frame with a motion-phase state and a
  finite-state machine turns completed phase walks into gesture events.

Both emit ``(frame_index, GestureClass)`` events that the accuracy metric
compares against stream annotations.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from enum import IntEnum
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidParams,
    RecurrentLayerPresent,
    ShapeMismatch,
    TooShort,
    _check_integer,
    _is_integer,
)
from .features import NORM_DIVISOR, LABEL_KIND_PHASE, AnnotatedSequence, Annotation
from .inference import _frames, run_ffnn
from .model import ModelSpec, Parameters


class GestureClass(IntEnum):
    """Classifier output classes, in output-neuron order."""

    LEFT_TO_RIGHT = 0
    RIGHT_TO_LEFT = 1
    TOP_TO_BOTTOM = 2
    BOTTOM_TO_TOP = 3
    NO_GESTURE = 4


#: Gesture classes that describe an actual swipe (everything but NO_GESTURE).
SWIPE_CLASSES = (
    GestureClass.LEFT_TO_RIGHT,
    GestureClass.RIGHT_TO_LEFT,
    GestureClass.TOP_TO_BOTTOM,
    GestureClass.BOTTOM_TO_TOP,
)

# Motion-phase state space: state 0 is the idle state; each swipe gesture g
# owns the four states 4g+1 .. 4g+4, in phase order.
N_PHASE_STATES = 17
PHASES_PER_GESTURE = 4


def _label_count(label_kind: str) -> int:
    """Size of a label kind's space: gesture labels are the
    :class:`GestureClass` values 0..4, phase labels the states 0..16."""
    return N_PHASE_STATES if label_kind == LABEL_KIND_PHASE else len(GestureClass)


def _check_labels(seq: AnnotatedSequence) -> None:
    """Refuse a sequence with a label outside its kind's space
    (:func:`_label_count`)."""
    n = _label_count(seq.label_kind)
    bad = [ann.label for ann in seq.annotations if not 0 <= ann.label < n]
    if bad:
        raise InvalidParams(f"{seq.label_kind} label {bad[0]} outside 0..{n - 1}")


def phase_state(gesture: GestureClass, phase: int) -> int:
    """State id of ``phase`` (1-based, 1..4) of a swipe gesture."""
    if gesture not in SWIPE_CLASSES:
        raise InvalidParams(f"{gesture} has no phase states")
    if not 1 <= phase <= PHASES_PER_GESTURE:
        raise InvalidParams(f"phase must be 1..{PHASES_PER_GESTURE}, got {phase}")
    return PHASES_PER_GESTURE * int(gesture) + phase


def last_phase_state(gesture: GestureClass) -> int:
    """State id a swipe's walk must reach before returning to idle."""
    return phase_state(gesture, PHASES_PER_GESTURE)


# --- candidate extraction ----------------------------------------------------

@dataclass
class Candidate:
    """A span of a stream that may contain one gesture.

    ``start_index`` and ``end_index`` are the stream indices of its first
    and last frame (inclusive).  ``frames`` has shape ``(L, H, W)``; from
    :func:`extract_candidates` it is a view of the stream, not a copy.
    ``truncated`` marks candidates cut short by the frame buffer capacity.
    """

    frames: np.ndarray
    start_index: int
    end_index: int
    truncated: bool = False

    def __len__(self) -> int:
        return int(self.frames.shape[0])


def _frame_pixels(stack: np.ndarray) -> int:
    """Pixels per frame of a ``(T, ...)`` stack, which must have some."""
    if stack.ndim < 1:
        raise ShapeMismatch("frames must be a stack with one frame per row")
    pixels = math.prod(stack.shape[1:])
    if pixels == 0:
        raise ShapeMismatch(f"frames of shape {stack.shape[1:]} have no pixels")
    return pixels


def _frame_means(frames) -> np.ndarray:
    """Mean brightness of every frame of a ``(T, ...)`` stack, as float64.

    Pixels are widened to float64 before the reduction and each frame is
    summed as one contiguous row, then divided by its pixel count: the two
    steps ``ndarray.mean`` takes, without its Python-level wrapper.  That
    gives the same bits as ``np.asarray(frame, dtype=float).mean()`` taken
    frame by frame.
    """
    stack = np.asarray(frames)
    pixels = _frame_pixels(stack)
    rows = np.asarray(stack, dtype=float).reshape(len(stack), pixels)
    return np.add.reduce(rows, axis=1) / pixels


# The detector's fixed rules, described in CandidateDetector
DETECTOR_DEVIATION = 0.10
DETECTOR_STABILITY = 0.01
DETECTOR_BASELINE_ALPHA = 0.9


def _considered(means, prevs):
    """The stability rule: a frame is considered when its mean equals the
    previous frame's mean or differs from it by less than
    :data:`DETECTOR_STABILITY` of it.  Takes float64 arrays, element by
    element with the IEEE operations of Python floats."""
    return (means == prevs) | (abs(means - prevs) < DETECTOR_STABILITY * prevs)


class CandidateDetector:
    """Streaming brightness-dip detector.

    The detector tracks a rolling average of image mean brightness and looks
    for runs of frames deviating from it by a tenth or more
    (:data:`DETECTOR_DEVIATION`).  A run of at least ``min_run`` counted
    frames becomes a candidate, padded with ``pad`` frames of context on
    each side.

    Two stability rules shape what is counted:

    * only frames whose mean differs by less than one percent
      (:data:`DETECTOR_STABILITY`) from the previous frame's mean are
      "considered"; a not-considered frame freezes the detector (it
      neither updates the rolling average nor counts toward or against a
      run) and is parked until the next considered frame decides where it
      belongs;
    * the rolling average is updated only by considered frames that do not
      deviate, so candidates never drag the baseline toward themselves;
      each update keeps 0.9 (:data:`DETECTOR_BASELINE_ALPHA`) of the old
      average.

    Parked frames sandwiched between deviating frames join the run; parked
    frames at a run's end become its trailing context.  A run that would
    exceed ``capacity`` buffered frames is truncated and emitted
    immediately, mirroring the fixed frame buffer of the target hardware.

    The rules are one state machine over frame means that tracks frame
    indices only; every candidate is a contiguous index span.  Streaming
    and whole-stream detection share it: :meth:`push` takes one frame's
    mean and keeps just the frames a live index still refers to, while
    :func:`extract_candidates` takes the means of whole blocks of frames
    and gives each candidate as a view of its slice of the stack.  Either
    way the stability rule of the new frames is taken in one numpy call.
    While the detector is idle, a stretch of considered frames that do not
    deviate runs through a tight loop that only moves the rolling average,
    and the stretch then turns into context at once; the general step would
    give each such frame the same average and fold it into context one at a
    time, and context is capped at ``pad`` either way.

    One detector instance serves one stream (single writer).  Feed frames
    with :meth:`push`; each call returns the candidates completed by that
    frame.  Call :meth:`finish` at stream end to flush a trailing run.
    """

    _IDLE, _RUN, _POST = range(3)

    def __init__(self, min_run: int = 9, pad: int = 5, capacity: int = 80) -> None:
        for name, value, least in (("min_run", min_run, 0), ("pad", pad, 0),
                                   ("capacity", capacity, 1)):
            _check_integer(name, value, least)
        self.min_run = min_run
        self.pad = pad
        self.capacity = capacity
        self._index = -1
        self._rollavg: float | None = None
        self._prev_mean: float | None = None
        self._phase = self._IDLE
        # Window layout: ``_hist`` context frames end just before index
        # ``_mark``; from ``_mark`` on lie the parked frames (idle), or the
        # ``_run`` frames of the run followed by parked (run) or trailing
        # (post) frames up to the current index.
        self._mark = 0
        self._hist = 0
        self._run = 0
        self._run_count = 0
        # push() only: the stream's frame shape, and the frames from index
        # ``_first`` on while the window still refers to them
        self._shape: tuple | None = None
        self._frames: deque = deque()
        self._first = 0

    @property
    def baseline(self) -> float | None:
        """Current rolling average of image mean brightness."""
        return self._rollavg

    def push(self, frame: np.ndarray) -> list[Candidate]:
        """Feed one frame; returns candidates completed by this frame."""
        frame = np.asarray(frame)
        if self._shape is None:
            self._shape = frame.shape
        elif frame.shape != self._shape:
            raise ShapeMismatch(f"frame of shape {frame.shape} in a stream of {self._shape}")
        self._frames.append(frame)
        return self._collect(self._advance(_frame_means(frame[np.newaxis])))

    def finish(self) -> list[Candidate]:
        """Flush a run still open at stream end."""
        return self._collect(self._close())

    def _collect(self, spans) -> list[Candidate]:
        """Candidates of the spans from the kept frames, which are then
        trimmed to those the window still refers to."""
        found = [
            Candidate(
                frames=np.stack(
                    list(islice(self._frames, first - self._first, last + 1 - self._first))
                ),
                start_index=first,
                end_index=last,
                truncated=truncated,
            )
            for first, last, truncated in spans
        ]
        for _ in range(self._mark - self._hist - self._first):
            self._frames.popleft()
        self._first = self._mark - self._hist
        return found

    def _advance(self, means: np.ndarray) -> list[tuple[int, int, bool]]:
        """Step the state machine over the float64 means of the next frames.

        Each frame is considered or not by :func:`_considered` against the
        mean before it, the stored previous mean for the first of them (the
        stream's first frame needs none).  Returns the index spans
        ``(first, last, truncated)`` of the candidates completed on the way.
        """
        prevs = np.concatenate(
            (means[:1] if self._prev_mean is None else [self._prev_mean], means[:-1])
        )
        with np.errstate(invalid="ignore"):  # inf - inf is NaN here as for floats
            considered = _considered(means, prevs).tolist()
        means = means.tolist()
        deviation = DETECTOR_DEVIATION
        min_run, pad, capacity = self.min_run, self.pad, self.capacity
        alpha = DETECTOR_BASELINE_ALPHA
        beta = 1.0 - alpha
        IDLE, RUN, POST = self._IDLE, self._RUN, self._POST
        rollavg = self._rollavg
        phase, mark, hist = self._phase, self._mark, self._hist
        run, count = self._run, self._run_count
        base, n, i = self._index + 1, len(means), 0  # means[i] is frame base + i
        if rollavg is None and n:
            rollavg = means[0]
            hist, mark = min(hist + 1, pad), base + 1
            i = 1
        spans = []
        while i < n:
            if phase == IDLE:
                # the idle fast path: considered frames that do not deviate
                # only move the average, then turn into context at once
                stretch = i
                while i < n and considered[i]:
                    mean = means[i]
                    diff = abs(mean - rollavg)
                    if diff > 0.0 and diff >= deviation * rollavg:
                        break
                    rollavg = alpha * rollavg + beta * mean
                    i += 1
                if i > stretch:
                    hist, mark = min(hist + base + i - mark, pad), base + i
                    if i == n:
                        break
            index, mean = base + i, means[i]
            diff = abs(mean - rollavg)
            deviating = diff > 0.0 and diff >= deviation * rollavg
            if considered[i] and not deviating:
                rollavg = alpha * rollavg + beta * mean
            emit = truncated = False
            if phase == POST:
                post = index + 1 - mark - run
                emit = post >= pad or hist + run + post >= capacity
            elif not considered[i]:
                # parked at the window's end until a considered frame
                if phase == IDLE and index + 1 - mark > capacity:
                    # pathological flicker; oldest parked frames decay to context
                    hist, mark = min(hist + 1, pad), mark + 1
            elif deviating:
                # parked frames between deviating ones join the run
                run = index + 1 - mark
                count = count + 1 if phase == RUN else 1
                phase = RUN
                emit = truncated = hist + run >= capacity
            elif phase == RUN and count >= min_run:
                phase = POST
                emit = index + 1 - mark - run >= pad
            else:
                # a run too short: everything so far is context
                hist, mark = min(hist + index + 1 - mark, pad), index + 1
                phase, run, count = IDLE, 0, 0
            if emit:
                spans.append(_window_span(mark, hist, run, index + 1, pad, capacity, truncated))
                phase, mark, hist, run, count = IDLE, index + 1, 0, 0, 0
            i += 1
        if n:
            self._index, self._prev_mean = base + n - 1, means[-1]
        self._rollavg = rollavg
        self._phase, self._mark, self._hist = phase, mark, hist
        self._run, self._run_count = run, count
        return spans

    def _close(self) -> list[tuple[int, int, bool]]:
        """Span of a run still open at stream end; resets the window."""
        spans = []
        if self._phase == self._POST or (
            self._phase == self._RUN and self._run_count >= self.min_run
        ):
            spans.append(
                _window_span(self._mark, self._hist, self._run, self._index + 1,
                             self.pad, self.capacity, False)
            )
        self._phase, self._mark, self._hist = self._IDLE, self._index + 1, 0
        self._run = self._run_count = 0
        return spans


def _window_span(mark, hist, run, end, pad, capacity, truncated):
    """Candidate span of a window closed before index ``end``: the context,
    the run and at most ``pad`` trailing frames, capped at ``capacity``."""
    trailing = min(end - mark - run, pad)
    first = mark - hist
    return first, first + min(hist + run + trailing, capacity) - 1, truncated


# Whole-stream detection widens and steps this many pixels at a time, which
# bounds the float64 copy of the stack.
_BLOCK_PIXELS = 1 << 14
# Whole-stream resampling gathers and blends this many samples at a time,
# which keeps its temporaries, numpy's iterator buffers among them, small
# beside the detector's float64 block.
_GATHER_SAMPLES = 1 << 10


def extract_candidates(frames: np.ndarray, **detector_kwargs) -> list[Candidate]:
    """Run the detector over a ``(T, H, W)`` frame stack.

    Frame means are computed a block of frames at a time; each candidate's
    frames are a view of its slice of the stack, not a copy.
    """
    detector = CandidateDetector(**detector_kwargs)
    stack = np.asarray(frames)
    step = max(1, _BLOCK_PIXELS // _frame_pixels(stack))
    spans = []
    for start in range(0, len(stack), step):
        spans += detector._advance(_frame_means(stack[start : start + step]))
    spans += detector._close()
    return [
        Candidate(stack[first : last + 1], first, last, truncated)
        for first, last, truncated in spans
    ]


# --- temporal scaling --------------------------------------------------------

def _check_target(target) -> None:
    """The target rule of temporal scaling: a whole number of at least 2
    frames."""
    if not _is_integer(target) or target < 2:
        raise InvalidParams(
            f"target must be a whole number of at least 2 frames, got {target!r}"
        )


def _resample(stack: np.ndarray, spans, target: int) -> np.ndarray:
    """Every span ``(first, last)`` of a ``(T, ...)`` frame stack resampled
    to ``target`` frames, as one float64 ``(N, target, ...)`` array.

    This is the rule of :func:`scale_candidate`, which applies it to one
    span.  A block of spans at a time, sample times, floor and ceiling
    frames and blend fractions are ``(B, target)`` arrays, and the frames
    are gathered from the stack and blended straight into the result with
    the IEEE operations of a lone rescale, so each row is bit-identical to
    one.  Temporaries stay within :data:`_GATHER_SAMPLES` samples.
    """
    _check_target(target)
    ends = np.array(spans, dtype=int).reshape(-1, 2)
    first = ends[:, :1]
    lasts = ends[:, 1:] - first  # last frame of each span, counted from its first
    if lasts.size and lasts.min() < 1:
        raise TooShort(f"need at least 2 frames to rescale, got {lasts.min() + 1}")
    pixels = math.prod(stack.shape[1:])
    frames = stack.reshape(len(stack), pixels)
    out = np.empty((len(ends), target, pixels))
    samples = np.arange(target)
    step = max(1, _GATHER_SAMPLES // (target * pixels or 1))
    for b in range(0, len(ends), step):
        block = slice(b, b + step)
        last = lasts[block]
        times = samples * last / (target - 1)
        lower = np.floor(times).astype(int)
        upper = np.minimum(lower + 1, last)
        frac = (times - lower)[..., np.newaxis]
        lower += first[block]
        upper += first[block]
        dst = out[block]
        np.multiply(frames[lower], 1.0 - frac, out=dst)
        dst += frames[upper] * frac
    return out.reshape((len(ends), target) + stack.shape[1:])


def scale_candidate(candidate, target: int = 20) -> Candidate:
    """Resample a candidate to ``target`` frames by linear interpolation.

    Sample times are spread evenly from the first to the last recorded
    frame; a sample at time ``t`` between frames ``i`` and ``i+1`` blends
    them as ``S_i * (i + 1 - t) + S_{i+1} * (t - i)``.  A candidate of
    exactly ``target`` frames passes through unchanged, which makes the
    operation idempotent.  The result keeps the candidate's indices and
    ``truncated`` flag; a bare ``(L, H, W)`` stack counts as the span
    ``0 .. L - 1``, not truncated.  Whole streams of candidates go through
    the same rule in one pass (:func:`_resample`).
    """
    whole = not isinstance(candidate, Candidate)
    frames = np.asarray(candidate if whole else candidate.frames, dtype=float)
    if frames.ndim == 0:
        raise ShapeMismatch("a candidate must be a stack of frames, got a single value")
    (scaled,) = _resample(frames, [(0, len(frames) - 1)], target)
    return Candidate(scaled, 0, len(frames) - 1) if whole else replace(candidate, frames=scaled)


def candidate_features(scaled: Candidate) -> np.ndarray:
    """Normalized, time-major flattened feature vector of a scaled candidate."""
    return scaled.frames.astype(float).ravel() / NORM_DIVISOR


def _candidate_rows(stack: np.ndarray, candidates, target: int) -> np.ndarray:
    """The candidates' spans of ``stack`` resampled to ``target`` frames
    (:func:`_resample`), flattened and normalized in place: one float64 row
    per candidate, as :func:`candidate_features` gives it for the rescale."""
    spans = [(cand.start_index, cand.end_index) for cand in candidates]
    rows = _resample(stack, spans, target)
    rows = rows.reshape(len(rows), target * math.prod(stack.shape[1:]))
    rows /= NORM_DIVISOR
    return rows


def _check_outputs(spec: ModelSpec) -> None:
    """A candidate model has one output per gesture class."""
    if spec.output_size != len(GestureClass):
        raise ShapeMismatch(
            f"candidate classes need a {len(GestureClass)}-output model, "
            f"got {spec.output_size}"
        )


def _candidate_frames(spec: ModelSpec, pixels: int) -> int:
    """The candidate-model contract for training, evaluation and inference:
    a feed-forward model whose features are at least 2 whole frames of
    ``pixels``, one output per gesture class.  Returns the frame count."""
    if spec.has_recurrent:
        raise RecurrentLayerPresent("a candidate model must be feed-forward")
    frames, extra = divmod(spec.features, pixels)
    if extra:
        raise ShapeMismatch(
            f"model expects {spec.features} features, not whole frames of {pixels} pixels"
        )
    _check_target(frames)
    _check_outputs(spec)
    return frames


def classify_candidate(spec: ModelSpec, params: Parameters, features: np.ndarray) -> GestureClass:
    """Classify one candidate's feature row with a feed-forward model.

    ``features`` is the row :func:`candidate_features` gives for a scaled
    candidate: time-major, all pixels of the first frame, then the second,
    and so on.  Ties in the output argmax resolve to the lowest class
    index.  The model must have one output per gesture class.
    """
    _check_outputs(spec)
    out = run_ffnn(spec, params, features)
    return GestureClass(int(np.argmax(out)))


# --- recognizers and event streams -------------------------------------------

Event = tuple[int, GestureClass]


class FfnnRecognizer:
    """Candidate-based recognizer: detect, rescale, classify, emit.

    Calling the recognizer on a ``(T, H, W)`` frame stack (or an
    :class:`AnnotatedSequence`) returns gesture events ``(frame, class)``.
    Every candidate classified as a swipe emits one event at the
    candidate's last frame index; NO_GESTURE classifications stay silent.

    The target frame count is checked on construction, and the model
    against the stream (:func:`_candidate_frames`, whose frame count must
    be the target) before anything is detected.  A stream's feature rows
    are built in one pass (:func:`_candidate_rows`); each row is then
    classified on its own through :func:`classify_candidate`.
    """

    def __init__(self, spec: ModelSpec, params: Parameters, target_frames: int = 20) -> None:
        _check_target(target_frames)
        self.spec = spec
        self.params = params
        self.target_frames = target_frames

    def __call__(self, stream) -> list[Event]:
        frames = stream.frames if isinstance(stream, AnnotatedSequence) else stream
        stack = np.asarray(frames)
        pixels = _frame_pixels(stack)
        if _candidate_frames(self.spec, pixels) != self.target_frames:
            raise ShapeMismatch(f"candidates yield {self.target_frames * pixels} "
                                f"features, model expects {self.spec.features}")
        cands = extract_candidates(stack)
        events: list[Event] = []
        for cand, row in zip(cands, _candidate_rows(stack, cands, self.target_frames)):
            cls = classify_candidate(self.spec, self.params, row)
            if cls is not GestureClass.NO_GESTURE:
                events.append((cand.end_index, cls))
        return events


def phase_events(states: Sequence[int]) -> list[Event]:
    """Gesture events of a per-frame phase-state walk.

    A gesture ``g`` is emitted at frame ``t + 1`` exactly when frame ``t``
    rested in the last phase state of ``g`` and frame ``t + 1`` is the idle
    state: leaving a walk early emits nothing.  Any other value (say -1 for
    an unlabelled frame) is neither a last phase state nor idle.
    """
    ends = {last_phase_state(g): g for g in SWIPE_CLASSES}
    return [
        (t + 1, ends[state])
        for t, (state, after) in enumerate(zip(states, states[1:]))
        if state in ends and after == 0
    ]


def fsm_postprocess(outputs) -> list[Event]:
    """Turn per-frame phase-state outputs into gesture events.

    ``outputs`` is a ``(T, 17)`` block of activations over the phase
    states, one row per frame, as :func:`~microgest.inference.step_rnn`
    returns it for a stream (a sequence of ``(17,)`` vectors reads as one).
    Each frame is reduced to its argmax state, and the walk of states goes
    through :func:`phase_events`.
    """
    block = _frames(outputs, N_PHASE_STATES, "phase output", "states")
    if block.ndim != 2:
        raise ShapeMismatch(
            f"phase output expects a (T, {N_PHASE_STATES}) block, got {block.shape}"
        )
    return phase_events(np.argmax(block, axis=-1).tolist())


# --- accuracy metric ---------------------------------------------------------

@dataclass
class AccuracyReport:
    """Outcome of matching emitted events against stream annotations."""

    accuracy: float
    total: int
    correct: int
    outcomes: list[tuple[Annotation, str]] = field(default_factory=list)

    def confusion(self) -> dict[tuple[int, str], int]:
        table: dict[tuple[int, str], int] = {}
        for ann, outcome in self.outcomes:
            key = (ann.label, outcome)
            table[key] = table.get(key, 0) + 1
        return table


def match_events(
    events: Sequence[Event],
    annotations: Sequence[Annotation],
    tolerance: int = 10,
) -> AccuracyReport:
    """Score events against gesture annotations.

    Each swipe annotation opens a window of ``tolerance`` frames on both
    sides of its annotated frame.  The annotation counts as correct exactly
    when that window contains one single event and its class matches; a
    second event inside the window spoils it even if one class is right.
    NO_GESTURE annotations are bookkeeping for training data and do not
    enter the score.  ``tolerance`` is an integer of at least 0.
    """
    _check_integer("tolerance", tolerance, 0)
    scored = [a for a in annotations if a.label != int(GestureClass.NO_GESTURE)]
    outcomes: list[tuple[Annotation, str]] = []
    correct = 0
    for ann in scored:
        window = [
            ev for ev in events if abs(ev[0] - ann.frame) <= tolerance
        ]
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
    accuracy = correct / total if total else 0.0
    return AccuracyReport(accuracy, total, correct, outcomes)


def evaluate_accuracy(
    recognizer: Callable[[AnnotatedSequence], list[Event]],
    sequences: AnnotatedSequence | Sequence[AnnotatedSequence],
    tolerance: int = 10,
) -> float:
    """Fraction of annotated swipes a recognizer reproduces.

    ``recognizer`` maps an annotated sequence to gesture events; see
    :func:`match_events` for the per-annotation scoring rule.
    ``tolerance`` is an integer of at least 0, even with no sequences.
    """
    _check_integer("tolerance", tolerance, 0)
    if isinstance(sequences, AnnotatedSequence):
        sequences = [sequences]
    total = 0
    correct = 0
    for seq in sequences:
        report = match_events(recognizer(seq), seq.annotations, tolerance)
        total += report.total
        correct += report.correct
    return correct / total if total else 0.0


def label_candidates(
    candidates: Sequence[Candidate],
    annotations: Sequence[Annotation],
    tolerance: int = 10,
) -> list[tuple[Candidate, int]]:
    """Pair extracted candidates with gesture labels for training.

    A candidate takes the label of the closest annotation within
    ``tolerance`` frames of its end; when annotations are equally close,
    or share a frame, the one listed first wins.  Candidates matching
    nothing are labelled NO_GESTURE, which turns spurious detections into
    negative training examples.  ``tolerance`` is an integer of at least 0.
    """
    _check_integer("tolerance", tolerance, 0)
    order = sorted(range(len(annotations)), key=lambda k: annotations[k].frame)
    at = [annotations[k].frame for k in order]
    labelled = []
    for cand in candidates:
        end = cand.end_index
        near = order[bisect_left(at, end - tolerance) : bisect_right(at, end + tolerance)]
        best = min(near, key=lambda k: (abs(annotations[k].frame - end), k), default=None)
        label = int(GestureClass.NO_GESTURE) if best is None else annotations[best].label
        labelled.append((cand, label))
    return labelled
