"""Normalization, rolling statistics, classifier feature vectors and
annotated frame streams.

The sensor is a small photodiode array (3x3 in the reference hardware) read
by a 10-bit ADC, so raw pixels are integers in 0..1023.  Normalization
divides by 1024: a power of two that the target reaches by exponent
arithmetic alone, at the price of never producing exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, PixelOutOfRange, ShapeMismatch

ADC_MAX = 1023
NORM_DIVISOR = 1024.0


def _frame_stack(frames, shape: tuple | None = None) -> np.ndarray:
    """The stack rule: ``frames`` as an array of real numbers, one frame per
    row, each of ``shape`` if given; refused like a wrong shape otherwise."""
    try:
        stack = np.asarray(frames)
    except ValueError:  # ragged rows
        stack = None
    if stack is None or stack.dtype.kind not in "biuf" or stack.ndim < 1:
        raise ShapeMismatch("frames must be a stack of numbers with one frame per row")
    if shape is not None and stack.shape[1:] != shape:
        raise ShapeMismatch(f"frames of shape {stack.shape[1:]}, expected {shape}")
    return stack


def _frame_pixels(frames) -> tuple[np.ndarray, int]:
    """A ``(T, ...)`` stack under ``_frame_stack``, and its pixels per frame (>= 1)."""
    stack = _frame_stack(frames)
    pixels = math.prod(stack.shape[1:])
    if pixels == 0:
        raise ShapeMismatch(f"frames of shape {stack.shape[1:]} have no pixels")
    return stack, pixels


def _check_pixels(values: np.ndarray) -> None:
    """The pixel rule: whole numbers in 0..1023.  NaN fails the range
    comparisons; integer arrays hold whole numbers only, so they skip
    that test."""
    if values.size and not (
        values.min() >= 0
        and values.max() <= ADC_MAX
        and (values.dtype.kind in "biu" or (values == np.floor(values)).all())
    ):
        raise PixelOutOfRange(f"pixel values must be whole numbers in 0..{ADC_MAX}")


def _normalized_rows(frames: np.ndarray, spare: int) -> np.ndarray:
    """A new ``(T, H*W + spare)`` array whose first ``H*W`` columns hold
    the normalized frames; the division writes straight into it, so no
    full-size float copy of the stack is made on the way."""
    frames = _frame_stack(frames)
    T = frames.shape[0]
    pixels = math.prod(frames.shape[1:])
    out = np.empty((T, pixels + spare))
    np.divide(frames.reshape(T, pixels), NORM_DIVISOR, out=out[:, :pixels])
    return out


# Decay of the rolling statistics: close to one, so the average follows
# slow illumination drift only.
ROLLING_ALPHA = 0.99


# The rolling step keeps ``(avg, min, -max)`` tracks: rounding to nearest is
# symmetric under negation, so ``min(-s, -e) == -max(s, e)`` and ``a * -x +
# -c * y == -(a * x + c * y)`` bit for bit.  This column weighs avg into both.
_ENVELOPE_DRIFT = np.array([[1.0 - ROLLING_ALPHA], [-(1.0 - ROLLING_ALPHA)]])


def _roll_block(prev: np.ndarray, block: np.ndarray, tracks: np.ndarray) -> None:
    """The rolling recursion over the ``(m, n)`` samples ``block`` from the
    tracks ``prev`` into ``tracks[k]``, four in-place ufunc calls a step;
    the addend's row 0 and the ``(s, -s)`` bounds are taken once a block."""
    m, n = block.shape
    addend = np.empty((m, 3, n))
    np.multiply(block, 1.0 - ROLLING_ALPHA, out=addend[:, 0])
    bounds = np.empty((m, 2, n))
    bounds[:, 0] = block
    np.multiply(block, -1.0, out=bounds[:, 1])
    for track, add, shares, envelope, bound in zip(
            tracks, addend, addend[:, 1:], tracks[:, 1:], bounds):
        np.multiply(prev, ROLLING_ALPHA, out=track)
        np.multiply(_ENVELOPE_DRIFT, prev[0], out=shares)
        np.add(track, add, out=track)
        np.minimum(envelope, bound, out=envelope)
        prev = track


# frames whose rolling tracks are held at once while their means are taken
_STATS_BLOCK = 256


def stream_features(frames: np.ndarray, with_stats: bool) -> np.ndarray:
    """Classifier feature rows of a ``(T, H, W)`` frame stack, one per frame.

    Returns ``(T, H*W)`` normalized pixels, row-major, plus (``with_stats``)
    three aggregates of per-pixel rolling statistics fed the stream from its
    first frame: the means over the pixels of the exponential average, of
    the decaying minimum and of the decaying maximum.  A 3x3 sensor yields
    the recurrent models' 12 features.  All three tracks live in the
    normalized domain.  With the fixed decay ``alpha`` =
    :data:`ROLLING_ALPHA` (0.99) the average follows slow illumination
    drift, while the envelopes latch short excursions and then relax back
    toward the average.  The first frame's sample ``s`` initializes all
    three tracks; each later sample updates them as::

        avg'  = alpha * avg + (1 - alpha) * s
        min'  = min(s, alpha * min + (1 - alpha) * avg)
        max'  = max(s, alpha * max + (1 - alpha) * avg)

    where ``avg`` on the right-hand side is the value from before the
    update.  This is the per-frame rule a device port steps.  The
    statistics need frames of at least one pixel (:func:`_frame_pixels`).

    The stack is normalized with one division, written straight into the
    output.  The recursion (``_roll_block``) writes ``(avg, min, -max)``
    tracks straight into a block buffer; the means are taken one block of
    frames at a time, which bounds the tracks held at once, the max's
    negated back.  Pixel ranges are not checked here
    (:meth:`AnnotatedSequence.check` does that).

    The recursion runs once per frame, so it keeps to the rule of the
    per-step code in :mod:`microgest.inference`: no method wrapper, no
    Python-level enum hash, and only numpy routines the flows already
    call.
    """
    if not with_stats:
        return _normalized_rows(frames, 0)
    out = _normalized_rows(_frame_pixels(frames)[0], 3)
    T, n = out.shape[0], out.shape[1] - 3
    if T == 0:
        return out
    pixels = out[:, :n]
    tracks = np.empty((min(T, _STATS_BLOCK), 3, n))
    tracks[0] = pixels[0]  # the first frame starts all three tracks
    tracks[0, 2] *= -1.0
    prev = tracks[0]
    for start in range(0, T, _STATS_BLOCK):
        block = pixels[start : start + _STATS_BLOCK]
        first = 1 if start == 0 else 0
        _roll_block(prev, block[first:], tracks[first : len(block)])
        prev = tracks[len(block) - 1]
        rows = out[start : start + len(block)]
        rows[:, n:] = tracks[: len(block)].mean(axis=-1)
        # 0 - x, not -1 * x: numpy sums -0 terms to +0, which must stay +0
        np.subtract(0.0, rows[:, -1], out=rows[:, -1])
    return out


# --- annotated frame streams -------------------------------------------------

LABEL_KIND_GESTURE = "gesture"
LABEL_KIND_PHASE = "phase"


def _check_label_kind(kind: str) -> None:
    if kind not in (LABEL_KIND_GESTURE, LABEL_KIND_PHASE):
        raise InvalidParams(f"unknown label kind {kind!r}")


@dataclass(frozen=True)
class Annotation:
    """A label attached to one frame of a stream."""

    frame: int
    label: int


def _label_array(name: str, values) -> np.ndarray:
    """``values`` as an int64 array of at least one dimension under the
    integer rule (``errors._is_integer``): a bool, a float or a value
    outside int64 is refused, never cast.  A list's bools turn into
    integers in its array, so its element types are looked at too."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged list
        array = None
    if array is None or array.ndim < 1:
        raise ShapeMismatch(f"{name} must be a sequence")
    if array.size and (
        array.dtype.kind not in "iu"
        or (array.dtype == np.uint64 and array.max() > np.iinfo(np.int64).max)
        or (not isinstance(values, np.ndarray) and {bool, np.bool_} & set(map(type, values)))
    ):
        raise InvalidParams(f"{name} hold a value that is not an integer within 64 bits")
    return array.astype(np.int64, copy=False)


def _first_outside(values: np.ndarray, stop: int) -> int | None:
    """The first of the int64 ``values`` outside ``0 .. stop - 1``, or None.
    A negative value viewed as unsigned lies above every ``stop``, so one
    comparison checks both ends."""
    outside = values[values.view(np.uint64) >= stop]
    return int(outside[0]) if outside.size else None


@dataclass
class AnnotatedSequence:
    """A frame stream plus sparse or per-frame labels.

    ``frames`` has shape ``(T, height, width)`` with ADC-range values.
    The labels are two 1-D int64 arrays of equal length: ``labels[i]`` is
    attached to frame ``label_frames[i]``; anything but integers within
    64 bits is refused at construction.  ``label_kind`` says how labels
    are meant: ``"gesture"`` labels name a gesture class at its final
    frame, ``"phase"`` labels give the motion-phase state of that frame.
    ``fps``, the frame rate, must be finite and above zero.
    """

    width: int
    height: int
    frames: np.ndarray
    label_frames: np.ndarray = ()
    labels: np.ndarray = ()
    label_kind: str = LABEL_KIND_GESTURE
    fps: float = 40.0

    def __post_init__(self) -> None:
        self.frames = _frame_stack(self.frames, (self.height, self.width))
        self.label_frames = _label_array("label_frames", self.label_frames)
        self.labels = _label_array("labels", self.labels)
        if self.label_frames.ndim != 1 or self.label_frames.shape != self.labels.shape:
            raise ShapeMismatch(f"label frames {self.label_frames.shape}, labels "
                                f"{self.labels.shape}: need two 1-D arrays of one length")
        _check_label_kind(self.label_kind)
        if not 0.0 < self.fps < math.inf:  # NaN fails both comparisons
            raise InvalidParams(f"fps must be finite and > 0, got {self.fps}")

    def __len__(self) -> int:
        return int(self.frames.shape[0])

    def __eq__(self, other: object) -> bool:
        """Equal sizes, frame rate, label kind, frames and labels."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.width, self.height, self.fps, self.label_kind)
            == (other.width, other.height, other.fps, other.label_kind)
            and np.array_equal(self.frames, other.frames)
            and np.array_equal(self.label_frames, other.label_frames)
            and np.array_equal(self.labels, other.labels)
        )

    @property
    def annotations(self) -> list[Annotation]:
        """The labels as a new list of :class:`Annotation` objects, in order."""
        return list(map(Annotation, self.label_frames.tolist(), self.labels.tolist()))

    def check(self) -> None:
        """Validate every field under the construction rules, since any can
        be re-bound, then pixel values and label frame indices."""
        self.__post_init__()
        _check_pixels(self.frames)
        length = len(self)
        frame = _first_outside(self.label_frames, length)
        if frame is not None:
            raise InvalidParams(f"annotation frame {frame} outside stream of {length}")
