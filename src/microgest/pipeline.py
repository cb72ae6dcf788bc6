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

from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidParams, ShapeMismatch, TooShort
from .features import NORM_DIVISOR, AnnotatedSequence, Annotation
from .inference import run_ffnn
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


def phase_state(gesture: GestureClass, phase: int) -> int:
    """State id of ``phase`` (1-based, 1..4) of a swipe gesture."""
    if gesture not in SWIPE_CLASSES:
        raise ValueError(f"{gesture} has no phase states")
    if not 1 <= phase <= PHASES_PER_GESTURE:
        raise ValueError(f"phase must be 1..{PHASES_PER_GESTURE}, got {phase}")
    return PHASES_PER_GESTURE * int(gesture) + phase


def last_phase_state(gesture: GestureClass) -> int:
    """State id a swipe's walk must reach before returning to idle."""
    return phase_state(gesture, PHASES_PER_GESTURE)


# --- candidate extraction ----------------------------------------------------

@dataclass
class Candidate:
    """A stream window that may contain one gesture.

    ``frames`` has shape ``(L, H, W)``; ``start_index`` and ``end_index``
    are the stream indices of its first and last frame (inclusive).
    ``truncated`` marks candidates cut short by the frame buffer capacity.
    """

    frames: np.ndarray
    start_index: int
    end_index: int
    truncated: bool = False

    def __len__(self) -> int:
        return int(self.frames.shape[0])


@dataclass
class ScaledCandidate:
    """A candidate resampled to a fixed frame count; pixels are real-valued."""

    frames: np.ndarray
    start_index: int
    end_index: int


class CandidateDetector:
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

    def __init__(
        self,
        deviation: float = 0.10,
        stability: float = 0.01,
        min_run: int = 9,
        pad: int = 5,
        capacity: int = 80,
        baseline_alpha: float = 0.9,
    ) -> None:
        self.deviation = deviation
        self.stability = stability
        self.min_run = min_run
        self.pad = pad
        self.capacity = capacity
        self.baseline_alpha = baseline_alpha
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


def extract_candidates(frames: np.ndarray, **detector_kwargs) -> list[Candidate]:
    """Run the streaming detector over a ``(T, H, W)`` frame stack."""
    detector = CandidateDetector(**detector_kwargs)
    found: list[Candidate] = []
    for frame in np.asarray(frames):
        found.extend(detector.push(frame))
    found.extend(detector.finish())
    return found


# --- temporal scaling --------------------------------------------------------

def scale_candidate(candidate, target: int = 20) -> ScaledCandidate:
    """Resample a candidate to ``target`` frames by linear interpolation.

    Sample times are spread evenly from the first to the last recorded
    frame; a sample at time ``t`` between frames ``i`` and ``i+1`` blends
    them as ``S_i * (i + 1 - t) + S_{i+1} * (t - i)``.  A candidate of
    exactly ``target`` frames passes through unchanged, which makes the
    operation idempotent.
    """
    if target < 2:
        raise InvalidParams(f"target must be at least 2 frames, got {target}")
    if isinstance(candidate, (Candidate, ScaledCandidate)):
        frames = candidate.frames
        start, end = candidate.start_index, candidate.end_index
    else:
        frames = np.asarray(candidate)
        start, end = 0, frames.shape[0] - 1
    frames = np.asarray(frames, dtype=float)
    length = frames.shape[0]
    if length < 2:
        raise TooShort(f"need at least 2 frames to rescale, got {length}")
    times = np.arange(target) * (length - 1) / (target - 1)
    lower = np.floor(times).astype(int)
    upper = np.minimum(lower + 1, length - 1)
    frac = (times - lower).reshape((-1,) + (1,) * (frames.ndim - 1))
    scaled = frames[lower] * (1.0 - frac) + frames[upper] * frac
    return ScaledCandidate(frames=scaled, start_index=start, end_index=end)


def candidate_features(scaled: ScaledCandidate) -> np.ndarray:
    """Normalized, time-major flattened feature vector of a scaled candidate."""
    return scaled.frames.astype(float).ravel() / NORM_DIVISOR


def classify_candidate(
    spec: ModelSpec, params: Parameters, scaled: ScaledCandidate
) -> GestureClass:
    """Classify one scaled candidate with a feed-forward model.

    The feature order is time-major: all pixels of the first frame, then the
    second, and so on.  Ties in the output argmax resolve to the lowest
    class index.
    """
    feats = candidate_features(scaled)
    if feats.shape[0] != spec.features:
        raise ShapeMismatch(
            f"candidate yields {feats.shape[0]} features, model expects {spec.features}"
        )
    out = run_ffnn(spec, params, feats)
    return GestureClass(int(np.argmax(out)))


# --- recognizers and event streams -------------------------------------------

Event = tuple[int, GestureClass]


class FfnnRecognizer:
    """Candidate-based recognizer: detect, rescale, classify, emit.

    Calling the recognizer on a ``(T, H, W)`` frame stack (or an
    :class:`AnnotatedSequence`) returns gesture events ``(frame, class)``.
    Every candidate classified as a swipe emits one event at the
    candidate's last frame index; NO_GESTURE classifications stay silent.
    """

    def __init__(
        self,
        spec: ModelSpec,
        params: Parameters,
        target_frames: int = 20,
        **detector_kwargs,
    ) -> None:
        self.spec = spec
        self.params = params
        self.target_frames = target_frames
        self.detector_kwargs = detector_kwargs

    def __call__(self, stream) -> list[Event]:
        frames = stream.frames if isinstance(stream, AnnotatedSequence) else stream
        events: list[Event] = []
        for cand in extract_candidates(np.asarray(frames), **self.detector_kwargs):
            scaled = scale_candidate(cand, self.target_frames)
            cls = classify_candidate(self.spec, self.params, scaled)
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


def fsm_postprocess(outputs: Iterable[np.ndarray]) -> list[Event]:
    """Turn per-frame phase-state outputs into gesture events.

    ``outputs`` is a sequence of activation vectors over the 17 phase
    states.  Each frame is reduced to its argmax state, and the walk of
    states goes through :func:`phase_events`.
    """
    states = []
    for vec in outputs:
        vec = np.asarray(vec, dtype=float)
        if vec.shape[0] != N_PHASE_STATES:
            raise ShapeMismatch(
                f"phase output needs {N_PHASE_STATES} entries, got {vec.shape[0]}"
            )
        states.append(int(np.argmax(vec)))
    return phase_events(states)


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
    enter the score.
    """
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
    """
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
