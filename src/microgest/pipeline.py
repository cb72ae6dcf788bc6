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
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import IntEnum
from itertools import compress
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
from .features import _first_outside, _frame_pixels, _frame_stack, _label_array
from .inference import _frames, run_ffnn
from .model import MAX_DENSE_WEIGHTS, ModelSpec, Parameters


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
    bad = _first_outside(seq.labels, n)
    if bad is not None:
        raise InvalidParams(f"{seq.label_kind} label {bad} outside 0..{n - 1}")


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


def _frame_means(frames) -> np.ndarray:
    """Mean brightness of every frame of a ``(T, ...)`` stack, as float64.

    Pixels are widened to float64 before the reduction and each frame is
    summed as one contiguous row, then divided by its pixel count: the two
    steps ``ndarray.mean`` takes, without its Python-level wrapper.  That
    gives the same bits as ``np.asarray(frame, dtype=float).mean()`` taken
    frame by frame.
    """
    stack, pixels = _frame_pixels(frames)
    rows = np.asarray(stack, dtype=float).reshape(len(stack), pixels)
    return np.add.reduce(rows, axis=1) / pixels


# The detector's fixed rules, described in CandidateDetector
DETECTOR_DEVIATION = 0.10
DETECTOR_STABILITY = 0.01
DETECTOR_BASELINE_ALPHA = 0.9
DETECTOR_MIN_RUN = 9
DETECTOR_PAD = 5
DETECTOR_CAPACITY = 80
_PARKED, _QUIET, _DEVIATING = range(3)  # a frame's kind; the first two are _considered's bytes


def _considered(means, prevs):
    """The stability rule: a frame is considered when its mean equals the
    previous frame's mean or differs from it by less than
    :data:`DETECTOR_STABILITY` of it.  Takes float64 arrays, element by
    element with the IEEE operations of Python floats."""
    return (means == prevs) | (abs(means - prevs) < DETECTOR_STABILITY * prevs)


class CandidateDetector:
    """Brightness-dip detector: the state machine :func:`extract_candidates`
    walks over a stream's frame means.

    The detector tracks a rolling average of image mean brightness and looks
    for runs of frames deviating from it by a tenth or more
    (:data:`DETECTOR_DEVIATION`).  A run of at least 9 counted frames
    (:data:`DETECTOR_MIN_RUN`) becomes a candidate, padded with 5 frames of
    context on each side (:data:`DETECTOR_PAD`).

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
    exceed 80 buffered frames (:data:`DETECTOR_CAPACITY`) is truncated and
    emitted at once, as the target hardware's fixed frame buffer does.

    The rules are one state machine over frame means that tracks frame
    indices only; every candidate is a contiguous index span.
    :meth:`_advance` takes the means of the next block of frames, whose
    stability rule is taken in one numpy call, and :meth:`_close` flushes
    a run still open at stream end.  A device port steps the same rules on
    a block of one frame.

    The rolling average moves on every considered frame that does not
    deviate, in every state, so it depends on the frame means alone, and a
    block is walked in two passes.  The first moves the average and marks
    each frame parked, quiet or deviating in a ``bytearray``.  The second
    jumps the state machine between the frames where it acts with
    ``bytearray.find``, ``rfind`` and ``count``: idle, to the next deviating
    frame (parked frames that decay are counted, not stepped); in a run, to
    the next quiet frame or the deviating one that fills the buffer; in
    trailing context, to the frame that emits.

    One detector instance serves one stream (single writer).
    """

    _IDLE, _RUN, _POST = range(3)

    def __init__(self) -> None:
        self._index, self._phase = -1, self._IDLE
        self._rollavg: float | None = None
        self._prev_mean: float | None = None
        # Window layout: ``_hist`` context frames end just before index
        # ``_mark``; from ``_mark`` on lie the parked frames (idle), or the
        # ``_run`` frames of the run followed by parked (run) or trailing
        # (post) frames up to the current index.
        self._mark = self._hist = self._run = self._run_count = 0

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
            kinds = bytearray(_considered(means, prevs).tobytes())  # _QUIET or _PARKED
        means = means.tolist()
        min_run, pad, capacity = DETECTOR_MIN_RUN, DETECTOR_PAD, DETECTOR_CAPACITY
        rollavg = self._rollavg
        phase, mark, hist = self._phase, self._mark, self._hist
        run, count = self._run, self._run_count
        base, n, i = self._index + 1, len(means), 0  # means[i] is frame base + i
        if rollavg is None and n:
            rollavg = means[0]
            hist, mark = min(hist + 1, pad), base + 1
            i = 1
        # pass 1: the rolling average over the considered frames
        deviation, alpha = DETECTOR_DEVIATION, DETECTOR_BASELINE_ALPHA
        beta = 1.0 - alpha
        for k in compress(range(i, n), kinds[i:]):
            mean = means[k]
            diff = abs(mean - rollavg)
            if diff > 0.0 and diff >= deviation * rollavg:
                kinds[k] = _DEVIATING
            else:
                rollavg = alpha * rollavg + beta * mean
        # pass 2: the state machine, from one frame where it acts to the next
        IDLE, RUN, POST = self._IDLE, self._RUN, self._POST
        spans = []
        while i < n:
            if phase == IDLE:
                # quiet frames and parked ones beyond capacity become context
                j = kinds.find(_DEVIATING, i)
                stop = n if j < 0 else j
                q = kinds.rfind(_QUIET, i, stop)
                if q >= 0:
                    hist, mark = min(hist + base + q + 1 - mark, pad), base + q + 1
                decay = max(0, base + stop - mark - capacity)
                hist, mark = min(hist + decay, pad), mark + decay
                if j < 0:
                    break
                # parked frames before a deviating one join its run
                i = j + 1
                phase, run, count = RUN, base + i - mark, 1
                truncated = hist + run >= capacity
            elif phase == RUN:
                # deviating frames extend the run until a quiet one or a full buffer
                j = kinds.find(_QUIET, i)
                stop = n if j < 0 else j
                full = kinds.find(_DEVIATING, max(i, mark + capacity - hist - 1 - base), stop)
                last = kinds.rfind(_DEVIATING, i, stop) if full < 0 else full
                if last >= 0:
                    count += kinds.count(_DEVIATING, i, last + 1)
                    run = base + last + 1 - mark
                truncated = full >= 0
                if truncated:
                    i = full + 1
                elif j < 0:
                    break
                else:
                    i = j + 1
                    if count < min_run:  # a run too short: everything so far is context
                        hist, mark = min(hist + base + i - mark, pad), base + i
                        phase, run, count = IDLE, 0, 0
                        continue
                    phase = POST
                    if base + i - mark - run < pad:
                        continue
            else:
                # trailing frames of any kind until pad of them or a full buffer
                j = max(i, mark + run + min(pad, capacity - hist - run) - 1 - base)
                if j >= n:
                    break
                i, truncated = j + 1, False
            if phase == POST or truncated:
                spans.append(_window_span(mark, hist, run, base + i, truncated))
                phase, mark, hist, run, count = IDLE, base + i, 0, 0, 0
        if n:
            self._index, self._prev_mean = base + n - 1, means[-1]
        self._rollavg = rollavg
        self._phase, self._mark, self._hist = phase, mark, hist
        self._run, self._run_count = run, count
        return spans

    def _close(self) -> list[tuple[int, int, bool]]:
        """Span of a run still open at stream end."""
        if self._phase != self._IDLE and self._run_count >= DETECTOR_MIN_RUN:
            return [_window_span(self._mark, self._hist, self._run, self._index + 1, False)]
        return []


def _window_span(mark, hist, run, end, truncated):
    """Candidate span of a window closed before index ``end``: the context,
    the run and at most DETECTOR_PAD trailing frames, within DETECTOR_CAPACITY."""
    trailing = min(end - mark - run, DETECTOR_PAD)
    first = mark - hist
    return first, first + min(hist + run + trailing, DETECTOR_CAPACITY) - 1, truncated


# Whole-stream detection widens and steps this many pixels at a time, which
# bounds the float64 copy of the stack.
_BLOCK_PIXELS = 1 << 14
# Whole-stream resampling gathers and blends this many samples at a time,
# which keeps its temporaries, numpy's iterator buffers among them, small
# beside the detector's float64 block.
_GATHER_SAMPLES = 1 << 10


def extract_candidates(frames: np.ndarray) -> list[Candidate]:
    """Run the detector over a ``(T, H, W)`` frame stack.

    Frame means are computed a block of frames at a time; each candidate's
    frames are a view of its slice of the stack, not a copy.
    """
    detector = CandidateDetector()
    stack, pixels = _frame_pixels(frames)
    step = max(1, _BLOCK_PIXELS // pixels)
    spans = []
    for start in range(0, len(stack), step):
        spans += detector._advance(_frame_means(stack[start : start + step]))
    spans += detector._close()
    return [Candidate(stack[first : last + 1], first, last, truncated)
            for first, last, truncated in spans]


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
    one.  Temporaries stay within :data:`_GATHER_SAMPLES` samples.  A
    target whose rows would hold more than ``model.MAX_DENSE_WEIGHTS``
    samples is refused before anything is allocated.
    """
    _check_target(target)
    pixels = math.prod(stack.shape[1:])
    # no model takes a longer row; Python ints, as numpy integers could wrap
    if int(target) * pixels > MAX_DENSE_WEIGHTS:
        raise InvalidParams(f"{target} frames of {pixels} pixels are above the "
                            f"{MAX_DENSE_WEIGHTS}-feature cap of a candidate row")
    ends = np.array(spans, dtype=int).reshape(-1, 2)
    first = ends[:, :1]
    lasts = ends[:, 1:] - first  # last frame of each span, counted from its first
    if lasts.size and lasts.min() < 1:
        raise TooShort(f"need at least 2 frames to rescale, got {lasts.min() + 1}")
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
    frames = _frame_stack(candidate if whole else candidate.frames).astype(float, copy=False)
    (scaled,) = _resample(frames, [(0, len(frames) - 1)], target)
    return Candidate(scaled, 0, len(frames) - 1) if whole else replace(candidate, frames=scaled)


def candidate_features(scaled: Candidate) -> np.ndarray:
    """Normalized, time-major flattened feature vector of a scaled candidate."""
    return _frame_stack(scaled.frames).astype(float).ravel() / NORM_DIVISOR


def _candidate_rows(stack: np.ndarray, candidates, target: int) -> np.ndarray:
    """The candidates' spans of ``stack`` resampled to ``target`` frames
    (:func:`_resample`), flattened and normalized in place: one float64 row
    per candidate, as :func:`candidate_features` gives it for the rescale."""
    spans = [(cand.start_index, cand.end_index) for cand in candidates]
    rows = _resample(stack, spans, target)
    rows = rows.reshape(len(rows), target * math.prod(stack.shape[1:]))
    rows /= NORM_DIVISOR
    return rows


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
    if spec.output_size != len(GestureClass):
        raise ShapeMismatch(
            f"candidate classes need a {len(GestureClass)}-output model, "
            f"got {spec.output_size}"
        )
    return frames


# --- recognizers and event streams -------------------------------------------

Event = tuple[int, GestureClass]


class FfnnRecognizer:
    """Candidate-based recognizer: detect, rescale, classify, emit.

    Calling the recognizer on a ``(T, H, W)`` frame stack (or an
    :class:`AnnotatedSequence`) returns gesture events ``(frame, class)``.
    Every candidate classified as a swipe emits one event at the
    candidate's last frame index; NO_GESTURE classifications stay silent.
    Ties in a candidate's output argmax resolve to the lowest class index.

    The target frame count is checked on construction, and the model
    against the stream (:func:`_candidate_frames`, whose frame count must
    be the target) before anything is detected.  A stream's feature rows
    are built in one pass (:func:`_candidate_rows`) and classified in one
    network pass: :func:`~microgest.inference.run_ffnn` on the
    ``(N, features)`` block, each row of which equals that row run alone,
    bit for bit.
    """

    def __init__(self, spec: ModelSpec, params: Parameters, target_frames: int = 20) -> None:
        _check_target(target_frames)
        self.spec = spec
        self.params = params
        self.target_frames = target_frames

    def __call__(self, stream) -> list[Event]:
        frames = stream.frames if isinstance(stream, AnnotatedSequence) else stream
        stack, pixels = _frame_pixels(frames)
        if _candidate_frames(self.spec, pixels) != self.target_frames:
            raise ShapeMismatch(f"candidates yield {self.target_frames * pixels} "
                                f"features, model expects {self.spec.features}")
        cands = extract_candidates(stack)
        rows = _candidate_rows(stack, cands, self.target_frames)
        classes = np.argmax(run_ffnn(self.spec, self.params, rows), axis=-1).tolist()
        return [
            (cand.end_index, GestureClass(cls))
            for cand, cls in zip(cands, classes)
            if cls != GestureClass.NO_GESTURE
        ]


def phase_events(states: Sequence[int]) -> list[Event]:
    """Gesture events of a per-frame phase-state walk.

    A gesture ``g`` is emitted at frame ``t + 1`` exactly when frame ``t``
    rested in the last phase state of ``g`` and frame ``t + 1`` is the idle
    state: leaving a walk early emits nothing.  Any other value (say -1 for
    an unlabelled frame) is neither a last phase state nor idle; the 1-D walk
    goes through ``features._label_array``.
    """
    walk = _label_array("phase states", states)
    if walk.ndim != 1:
        raise ShapeMismatch(f"phase states must be one 1-D walk, got shape {walk.shape}")
    states = walk.tolist()
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
    block = _frames(outputs, N_PHASE_STATES, "phase output", "states", block=True)
    return phase_events(np.argmax(block, axis=-1))


# --- accuracy metric ---------------------------------------------------------

@dataclass
class AccuracyReport:
    """Outcome of matching emitted events against stream annotations."""

    accuracy: float
    total: int
    correct: int
    outcomes: list[tuple[Annotation, str]] = field(default_factory=list)

    def confusion(self) -> dict[tuple[int, str], int]:
        return dict(Counter((ann.label, outcome) for ann, outcome in self.outcomes))


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
    enter the score.  ``tolerance`` is an integer of at least 0.  Events are
    ``(frame, GestureClass value)`` integer pairs (``_event_pairs``); a
    window is counted by binary search over them, sorted by frame.
    """
    _check_integer("tolerance", tolerance, 0)
    table = sorted(_event_pairs(events))
    at = [frame for frame, _ in table]
    scored = [a for a in annotations if a.label != int(GestureClass.NO_GESTURE)]
    outcomes: list[tuple[Annotation, str]] = []
    for ann in scored:
        first = bisect_left(at, ann.frame - tolerance)
        count = bisect_right(at, ann.frame + tolerance) - first
        if count != 1:
            outcomes.append((ann, "multiple" if count else "missed"))
        else:
            name = GestureClass(table[first][1]).name.lower()
            outcomes.append((ann, "correct" if table[first][1] == ann.label else name))
    correct = sum(outcome == "correct" for _, outcome in outcomes)
    total = len(scored)
    accuracy = correct / total if total else 0.0
    return AccuracyReport(accuracy, total, correct, outcomes)


def _event_pairs(events) -> list[tuple[int, int]]:
    """The event rule of :func:`match_events`, as plain ``int`` pairs."""
    try:
        pairs = [tuple(ev) for ev in events]
    except TypeError:  # no sequence, or an event that is none
        pairs = [()]
    if any(len(pair) != 2 for pair in pairs):
        raise ShapeMismatch("events must be a sequence of (frame, class) pairs")
    if not all(_is_integer(f) and _is_integer(c) and 0 <= c < len(GestureClass) for f, c in pairs):
        raise InvalidParams("events must pair an integer frame with a gesture class")
    return [(int(frame), int(label)) for frame, label in pairs]


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
