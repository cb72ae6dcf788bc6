"""Synthetic gesture data: rendering, augmentation, corpus assembly.

A gesture is rendered as a rectangular occluder (a hand silhouette reduced
to a band) sweeping across the sensor field.  One motion table gives each
class its direction ``(dx, dy)`` on the sensor (y pointing down): the axis
a band travels along, which way it moves, the cell count its phase labels
are measured in, and how mirrors and rotations rename the class.  Per
frame, each cell's coverage is the fraction of its extent along the motion
axis that the band overlaps, which yields naturally soft edges; a covered
pixel darkens as ``background * (1 - contrast * coverage)`` before sensor
noise is added.

Augmentation transforms re-use one rendered sequence as several training
instances.  Geometric transforms (mirrors, quarter-turn rotations) remap
gesture labels by moving the class's motion; photometric transforms
(brightness, gamma, noise) keep them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams, NonSquareImage, ShapeMismatch
from .errors import _check_integer, _check_seed, _is_integer
from .features import (
    ADC_MAX,
    AnnotatedSequence,
    LABEL_KIND_GESTURE,
    LABEL_KIND_PHASE,
    _check_label_kind,
    _frame_stack,
)
from .pipeline import (
    _BLOCK_PIXELS,
    _check_labels,
    _frame_means,
    GestureClass,
    N_PHASE_STATES,
    PHASES_PER_GESTURE,
    SWIPE_CLASSES,
    extract_candidates,
    phase_state,
)


# Steady frames before and after each rendered crossing or disturbance
LEAD_FRAMES = 15

# Most instances of a synthesized corpus, all classes together: far above
# the paper's corpora (the acceptance gate builds 2,700), checked before
# the first draw so a mistyped count cannot run unbounded.  Larger frames
# allow fewer: instances x frame pixels stay within those of 3x3 frames.
MAX_CORPUS_INSTANCES = 1 << 16
MAX_CORPUS_PIXELS = 9 * MAX_CORPUS_INSTANCES

# Most pixels of a synthesized frame: far above the paper's 3x3 sensor,
# and small enough that a frame stack is allocated without surprise.
MAX_FRAME_PIXELS = 1 << 16


def _check_frame_size(width, height) -> None:
    """The frame-size rule of every renderer: integer sides of at least 1
    and at most :data:`MAX_FRAME_PIXELS` pixels in all."""
    _check_integer("width", width, 1)
    _check_integer("height", height, 1)
    # Python ints: a product of numpy integers could wrap into range
    _check_integer("width * height", int(width) * int(height), 1, MAX_FRAME_PIXELS)


@dataclass(frozen=True)
class GestureSynthParams:
    """Knobs of one rendered gesture instance.

    ``speed`` is the number of frames the occluder needs to cross the
    field; ``occluder_width`` is the band width as a fraction of the field
    span.  ``direction`` is a :class:`GestureClass` (an integer 0..4 is
    taken as the class it names); NO_GESTURE renders a non-directional
    disturbance (a hover dip or an aborted half swipe) instead of a
    crossing.  Every instance has :data:`LEAD_FRAMES` (15) steady frames on
    each side; a gamma curve is the :class:`Gamma` transform's job.
    """

    direction: GestureClass
    speed: float = 40.0
    occluder_width: float = 0.4
    background_brightness: float = 800.0
    contrast: float = 0.8
    noise_sigma: float = 2.0
    width: int = 3
    height: int = 3

    def __post_init__(self) -> None:
        if not (_is_integer(self.direction) and 0 <= self.direction < len(GestureClass)):
            raise InvalidParams(f"direction must be a GestureClass, got {self.direction!r}")
        object.__setattr__(self, "direction", GestureClass(int(self.direction)))
        if not (math.isfinite(self.speed) and self.speed >= 2):
            raise InvalidParams("speed must be a finite number of at least 2 frames")
        if not 0.0 < self.occluder_width <= 1.0:
            raise InvalidParams("occluder_width must be in (0, 1]")
        if not 0.0 <= self.background_brightness <= ADC_MAX:
            raise InvalidParams("background_brightness must be in 0..1023")
        if not 0.0 <= self.contrast <= 1.0:
            raise InvalidParams("contrast must be in [0, 1]")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise InvalidParams("noise_sigma must be finite and >= 0")
        _check_frame_size(self.width, self.height)


# Motion of each class across the sensor as (dx, dy), y pointing down;
# NO_GESTURE does not move.  Rendering, phase labels and the label maps of
# geometric transforms all derive from this one table.
_MOTION = {
    GestureClass.LEFT_TO_RIGHT: (1, 0),
    GestureClass.RIGHT_TO_LEFT: (-1, 0),
    GestureClass.TOP_TO_BOTTOM: (0, 1),
    GestureClass.BOTTOM_TO_TOP: (0, -1),
    GestureClass.NO_GESTURE: (0, 0),
}
_CLASS_OF = {motion: cls for cls, motion in _MOTION.items()}


def _round_adc(values: np.ndarray) -> np.ndarray:
    """Round and clamp float pixel values to the ADC range, in place."""
    np.rint(values, out=values)
    np.maximum(values, 0, out=values)
    return np.minimum(values, ADC_MAX, out=values)


def _to_adc(values: np.ndarray) -> np.ndarray:
    """ADC pixels of float pixel values.  Works in place, so ``values`` is
    overwritten."""
    return _round_adc(values).astype(np.uint16)


# Motion-phase state of each class (row) in each phase 1..4 (column; 0 is
# no phase): NO_GESTURE has none.
_PHASE_STATES = np.array([
    [0] + [phase_state(g, k) if g in SWIPE_CLASSES else 0
           for k in range(1, PHASES_PER_GESTURE + 1)]
    for g in GestureClass
])


# The columns of a run of frames, one row of _render_block's table
_RUN_COLUMNS = ("frames", "k0", "dk", "a", "b", "d", "depth", "c", "phase_class", "hw",
                "dx", "dy", "contrast", "background", "sigma")


def _runs(direction, speed, band, background, contrast, noise, rng):
    """The runs of frames one instance is rendered from (the rows of
    :func:`_render_block`'s table), and its gesture label.

    The runs are the steady lead frames, the body and the steady lead
    frames again.  The body's draws, a NO_GESTURE disturbance's, come from
    ``rng``; they precede the render's noise there.
    """
    w = band
    nog = GestureClass.NO_GESTURE
    motion, label = (0, 0), nog
    if contrast > 0.0 and direction is not nog:
        # a full crossing, from just outside to just outside the field
        t = max(2, int(round(speed)))
        body = [(t, 0, 1, -w / 2, 1.0 + w, t - 1, 0.0, 1.0, int(direction))]
        motion, label = _MOTION[direction], direction
    elif contrast > 0.0:
        hold = max(14, int(round(speed / 3)))
        if rng.random() < 0.5:
            # hover: the whole field dims and recovers without lateral
            # motion, along np.linspace(0, 1, ramp + 1)[1:], which is
            # k * (1 / ramp) up to its last value, exactly 1.0
            ramp = max(3, int(round(speed / 6)))
            depth = min(max(w * 1.3, 0.25), 0.6)
            up = (ramp - 1, 1, 1, 0.0, 1.0 / ramp, 1, depth, 0.0, nog)
            top = (hold + 2, 0, 0, 1.0, 0.0, 1, depth, 0.0, nog)
            body = [up, top, (ramp - 1, ramp - 1, -1, *up[3:])]
        else:
            # aborted swipe: the band enters partway, hesitates, and retreats
            reach = rng.uniform(0.30, 0.45)
            steps = max(4, int(round(speed / 2)))
            along_x = rng.random() < 0.5
            sign = 1 if rng.random() < 0.5 else -1
            enter = (steps, 1, 1, -w / 2, reach + w / 2, steps, 0.0, 1.0, nog)
            hesitate = (hold, 0, 0, reach, 0.0, 1, 0.0, 1.0, nog)
            body = [enter, hesitate, (steps, steps, -1, *enter[3:])]
            motion = (sign, 0) if along_x else (0, sign)
    else:
        body = [(max(2, int(round(speed))), 0, 0, 0.0, 0.0, 1, 0.0, 0.0, nog)]
    steady = (LEAD_FRAMES, 0, 0, 0.0, 0.0, 1, 0.0, 0.0, nog)
    instance = (w / 2, *motion, contrast, background, noise)
    # lists, not tuples: CPython keeps freed short tuples for reuse
    return [[*run, *instance] for run in (steady, *body, steady)], int(label)


def _axis_coverage(lo: np.ndarray, hi: np.ndarray, sign: np.ndarray, cells: int):
    """Coverage ``(cells, T)`` of one sensor axis, per frame: where the
    frame's motion runs along the axis (``sign`` nonzero), the fraction of
    each of ``cells`` equal cells on [0, 1] that a band over ``[lo, hi]``
    overlaps, counted from the far end when ``sign`` is negative; 1.0
    everywhere where it does not.  Frames run along the last axis, so each
    call loops over the whole block at once."""
    edges = (np.arange(cells + 1) / cells)[:, None]
    cov = np.minimum(edges[1:], hi)
    cov -= np.maximum(edges[:-1], lo)
    cov *= cells
    np.maximum(cov, 0.0, out=cov)
    np.minimum(cov, 1.0, out=cov)
    return np.where(sign == 0, 1.0, np.where(sign < 0, cov[::-1], cov))


def _render_block(
    rows: np.ndarray, runs: list[list], width: int, height: int, phases: bool
) -> np.ndarray | None:
    """Render a block of frames into ``rows`` ``(T, width * height)``, which
    hold each frame's standard normal noise; returns each frame's
    motion-phase state if ``phases``, else None.

    Each row of ``runs`` describes a run of consecutive frames, column by
    column as :data:`_RUN_COLUMNS` names them: its frame count; ``k0, dk, a,
    b, d``, so that its frame ``i`` has ``k = k0 + i * dk`` and ``u = a + b *
    k / d``; ``depth, c``, so that ``amp = u * depth + c``; the class whose
    motion phases it walks (NO_GESTURE for none); and its instance's band
    half-width ``hw``, motion ``(dx, dy)``, contrast, background and noise
    sigma.  ``u`` is the band center of a swipe in path coordinates and the
    hover profile of a hover.  A frame's coverage of pixel ``(y, x)`` is
    ``amp * cy[y] * cx[x]``, each axis's coverage being exactly 1.0 where
    the band does not cross it (:func:`_axis_coverage`); ``amp`` is 1.0 for
    swipes and 0.0 for steady frames.  A pixel is then ``background * (1 -
    contrast * coverage)`` plus ``sigma`` times its noise.  Every value is
    taken per frame with the IEEE operations of one instance's render, so
    each pixel gets the same bits.
    """
    table = np.fromiter(chain.from_iterable(runs), float).reshape(len(runs), -1)
    lengths = np.array([run[0] for run in runs])  # ints, not a cast of the table's floats

    def per_frame(column):
        return np.repeat(table[:, _RUN_COLUMNS.index(column)], lengths)

    # one per-frame array at a time, so a block's temporaries stay few
    u = np.arange(len(rows)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    u = u * per_frame("dk")
    u += per_frame("k0")
    u *= per_frame("b")
    u /= per_frame("d")
    u += per_frame("a")
    amp = u * per_frame("depth")
    amp += per_frame("c")
    hw = per_frame("hw")
    lo = u - hw
    hi = np.add(u, hw, out=u)
    dx = per_frame("dx")
    states = _phase_states(lo, hi, dx, runs, lengths, width, height) if phases else None
    cov = (amp * _axis_coverage(lo, hi, per_frame("dy"), height))[:, None, :]
    cov = cov * _axis_coverage(lo, hi, dx, width)
    cov *= per_frame("contrast")
    np.subtract(1.0, cov, out=cov)
    cov *= per_frame("background")
    rows *= per_frame("sigma")[:, None]
    rows += cov.reshape(-1, len(rows)).T
    return states


def _phase_states(lo, hi, dx, runs, lengths, width, height) -> np.ndarray:
    """Motion-phase state of each frame of a block (see :func:`_render_block`),
    from the band's trailing and leading edges ``lo`` and ``hi`` against the
    cells of the axis it crosses; each bound is taken in Python for that
    axis's cell count ``n``."""
    along_x = dx != 0

    def bound(of_n):
        return np.where(along_x, of_n(width), of_n(height))

    phase = np.select(
        [(hi <= 0.0) | (lo >= 1.0), hi <= bound(lambda n: (n // 2) / n),
         hi <= bound(lambda n: (n - 1) / n), lo <= bound(lambda n: 1.0 / n)],
        [0, 1, 2, 3],
        PHASES_PER_GESTURE,
    )
    column = _RUN_COLUMNS.index("phase_class")
    return _PHASE_STATES[np.repeat([int(run[column]) for run in runs], lengths), phase]


def _render_one(p: GestureSynthParams, rng: np.random.Generator, labels: str):
    """One instance as a block of one (:func:`_render_block`): its float
    pixels ``(T, width * height)`` before ADC rounding, its label frames
    and its labels.  Every random draw comes from ``rng``."""
    runs, label = _runs(p.direction, p.speed, p.occluder_width, p.background_brightness,
                        p.contrast, p.noise_sigma, rng)
    shape = (sum(run[0] for run in runs), p.width * p.height)
    values = rng.standard_normal(shape) if p.noise_sigma > 0.0 else np.zeros(shape)
    states = _render_block(values, runs, p.width, p.height, labels == LABEL_KIND_PHASE)
    if states is None:
        return values, np.array([len(values) - LEAD_FRAMES - 1]), np.array([label])
    return values, np.arange(len(values)), states


def synthesize_gesture(
    p: GestureSynthParams, seed: int, labels: str = LABEL_KIND_GESTURE
) -> AnnotatedSequence:
    """Render one annotated gesture instance.

    The sequence is :data:`LEAD_FRAMES` steady frames, the crossing (or
    disturbance), then :data:`LEAD_FRAMES` steady frames again.  With
    ``labels="gesture"`` a single annotation marks the final frame of the
    crossing; with ``labels="phase"`` every frame carries its motion-phase
    state.  A ``contrast`` of zero renders a constant sequence and is
    labelled NO_GESTURE regardless of the requested direction.  Every
    random draw of the render comes from one ``default_rng(seed)`` stream,
    and the label mode draws nothing, so both label modes give the same
    frames and identical parameters and seed reproduce identical bytes.
    """
    _check_seed(seed)
    _check_label_kind(labels)
    values, *label_arrays = _render_one(p, np.random.default_rng(seed), labels)
    frames = _to_adc(values).reshape(-1, p.height, p.width)
    return AnnotatedSequence(p.width, p.height, frames, *label_arrays, label_kind=labels)


# --- augmentation ------------------------------------------------------------

@dataclass(frozen=True)
class MirrorX:
    """Flip left-right (swaps the horizontal swipe directions)."""


@dataclass(frozen=True)
class MirrorY:
    """Flip top-bottom (swaps the vertical swipe directions)."""


@dataclass(frozen=True)
class Rotate:
    """Rotate by ``quarters`` quarter turns clockwise (square sensors only);
    a negative count turns counter-clockwise."""

    quarters: int

    def __post_init__(self) -> None:
        if not _is_integer(self.quarters) or self.quarters % 4 == 0:
            raise InvalidParams(f"rotation must be 1..3 quarter turns, got {self.quarters!r}")


@dataclass(frozen=True)
class Brightness:
    """Add ``delta`` ADC counts to every pixel, clamped to the ADC range."""

    delta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta):
            raise InvalidParams("brightness delta must be finite")


@dataclass(frozen=True)
class Gamma:
    """Apply ``1023 * (v / 1023) ** gamma`` to every pixel."""

    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise InvalidParams("gamma must be finite and > 0")


@dataclass(frozen=True)
class Noise:
    """Add Gaussian noise with the given sigma, clamped to the ADC range."""

    sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise InvalidParams("noise sigma must be finite and >= 0")
        _check_seed(self.seed)


Transform = MirrorX | MirrorY | Rotate | Brightness | Gamma | Noise


def _moved(motion: tuple[int, int], transform) -> tuple[int, int]:
    """Where a transform sends a motion: a mirror flips one sign, and a
    clockwise quarter turn maps ``(dx, dy)`` to ``(-dy, dx)``."""
    dx, dy = motion
    if isinstance(transform, MirrorX):
        return -dx, dy
    if isinstance(transform, MirrorY):
        return dx, -dy
    if isinstance(transform, Rotate):
        for _ in range(transform.quarters % 4):
            dx, dy = -dy, dx
    return dx, dy


def gesture_label_map(transform: Transform | None) -> dict[GestureClass, GestureClass]:
    """How a transform renames gesture classes (identity for photometric or None)."""
    return {cls: _CLASS_OF[_moved(m, transform)] for cls, m in _MOTION.items()}


def _label_table(kind: str, mapping) -> np.ndarray:
    """What a class map makes of every label of ``kind``'s space, indexed
    by label: a phase state keeps its phase under its class's image, and
    the idle state stays idle."""
    moved = [mapping[g] for g in GestureClass]
    if kind == LABEL_KIND_GESTURE:
        return np.array(moved, dtype=np.int64)
    table = np.zeros(N_PHASE_STATES, dtype=np.int64)
    table[_PHASE_STATES] = _PHASE_STATES[moved]
    return table


def _transform_frames(frames: np.ndarray, transform: Transform) -> np.ndarray:
    """ADC frames ``(T, H, W)`` after one transform, as a new array."""
    if isinstance(transform, MirrorX):
        return np.flip(frames, axis=2).copy()
    if isinstance(transform, MirrorY):
        return np.flip(frames, axis=1).copy()
    if isinstance(transform, Rotate):
        if frames.shape[1] != frames.shape[2]:
            raise NonSquareImage("quarter-turn rotation needs a square sensor")
        return np.rot90(frames, k=-transform.quarters, axes=(1, 2)).copy()
    if not isinstance(transform, (Brightness, Gamma, Noise)):
        raise InvalidParams(f"unknown transform {transform!r}")
    values = frames.astype(float)
    if isinstance(transform, Brightness):
        values += transform.delta
    elif isinstance(transform, Gamma):
        values /= ADC_MAX
        np.power(values, transform.gamma, out=values)
        values *= ADC_MAX
    else:
        rng = np.random.default_rng(transform.seed)
        values += rng.normal(0.0, transform.sigma, values.shape)
    return _to_adc(values)


def augment(seq: AnnotatedSequence, transform: Transform) -> AnnotatedSequence:
    """Apply one transform to a sequence, remapping labels as needed; the
    labels must lie in their kind's space (``pipeline._check_labels``)."""
    _check_labels(seq)
    table = _label_table(seq.label_kind, gesture_label_map(transform))
    return replace(seq, frames=_transform_frames(seq.frames, transform),
                   label_frames=seq.label_frames.copy(), labels=table[seq.labels])


def auto_annotate(
    frames: np.ndarray, protocol: tuple[GestureClass, GestureClass]
) -> AnnotatedSequence:
    """Label a recorded ``(T, H, W)`` stream by a known alternation protocol.

    The stream must contain gestures performed strictly alternating between
    the two protocol classes, starting with the first.  Candidates found by
    the brightness-dip detector are labelled in that order at their final
    frame, which removes per-frame hand labelling for recorded data.  The
    sensor's width and height are the stack's.
    """
    frames = _frame_stack(frames)
    if frames.ndim != 3:
        raise ShapeMismatch(f"frames shape {frames.shape}, expected (T, H, W)")
    height, width = frames.shape[1:]
    ends = [cand.end_index for cand in extract_candidates(frames)]
    labels = np.array(protocol, dtype=np.int64)[np.arange(len(ends)) % 2]
    return AnnotatedSequence(width, height, frames, ends, labels)


# --- corpus assembly ---------------------------------------------------------

# Background drift per bridge frame; slow enough that the detector keeps
# treating bridge frames as stable, steady illumination.
_BRIDGE_RATE = 0.004
# Range of a corpus's background brightness, in ADC counts
BACKGROUND_RANGE = (520.0, 940.0)


def _bridge_steps(from_level: float, to_level: float) -> int:
    """Frame count of a gentle ramp between two brightness levels."""
    if from_level <= 0 or to_level <= 0:
        return 1
    return max(1, int(math.ceil(abs(math.log(to_level / from_level)) / _BRIDGE_RATE)))


def _bridge_levels(starts: list[float], ratios: list[float], steps: list[int]) -> np.ndarray:
    """Background level of each frame of a block's bridges: bridge ``i``
    puts its frame ``k`` (1-based) at ``starts[i] * ratios[i] ** (k /
    steps[i])``."""
    k = np.arange(1, sum(steps) + 1) - np.repeat(np.cumsum(steps) - steps, steps)
    levels = np.power(np.repeat(ratios, steps), k / np.repeat(steps, steps))
    levels *= np.repeat(starts, steps)
    return levels


class _Instance(NamedTuple):
    """One corpus instance of a block, with its render's draws made."""

    runs: list[list]  # what its frames are rendered from (see _runs)
    label: int  # its gesture label before its geometry
    frames: int  # frame count
    geometry: int  # index of its geometric transform; 0 is none
    gamma: float  # its Gamma exponent, or 0.0 for none
    shift: float  # its Brightness delta, or 0.0 for none
    rng: np.random.Generator  # its own stream; the bridge draw comes last


def _blocks(order, bg, sources, perms, width, height, phases):
    """Render the instances of ``order`` a block at a time; yields each
    block's ADC frames ``(T, height, width)``, its frames' motion-phase
    states as rendered (if ``phases``, else None), the means of each
    instance's first and last frame, and its :class:`_Instance` list.

    Every draw of an instance comes from its own ``default_rng(iseed)``
    in a fixed order, except the render's, which come from a copy of
    that stream's starting state (see :func:`build_corpus`); ``bg``
    drifts from one instance to the next.  The render noise is written
    straight into one buffer of ``pipeline._BLOCK_PIXELS`` floats (or of
    one instance, if that is larger), reused from block to block and
    freed with the generator.  ``perms[g]`` lists the pixel of a frame
    that each of its pixels is taken from under geometry ``g``.
    """
    pixels = width * height

    def rendered():
        rows = buffer[:used].reshape(-1, pixels)
        runs = [run for inst in block for run in inst.runs]
        states = _render_block(rows, runs, width, height, phases)
        frames, heads, tails = _pixel_stages(rows, block)
        source = np.repeat(perms[[inst.geometry for inst in block]],
                           [inst.frames for inst in block], axis=0)
        source += np.arange(0, source.size, pixels)[:, None]
        return np.take(frames, source).reshape(-1, height, width), states, heads, tails, block

    lo, hi = BACKGROUND_RANGE
    # the render stream: re-started at each instance's seed by copying
    # the state of that instance's fresh parameter stream
    render_bits = np.random.PCG64()
    render_rng = np.random.Generator(render_bits)
    buffer = np.empty(_BLOCK_PIXELS)
    block: list[_Instance] = []
    used = 0
    for cls, iseed in order:
        irng = np.random.default_rng(iseed)
        render_bits.state = irng.bit_generator.state
        # the five leading uniforms in one draw, each mapped as
        # ``Generator.uniform`` maps it: low + (high - low) * u
        u_band, u_speed, u_contrast, u_noise, u_drift = irng.random(5).tolist()
        band = 0.30 + (0.42 - 0.30) * u_band
        min_speed = math.ceil(14 * (1 + band) / (1 - band))
        max_speed = math.floor(13 * (1 + band) / band)
        speed = min_speed + (max_speed - min_speed) * u_speed
        contrast = 0.55 + (0.95 - 0.55) * u_contrast
        noise = 1.0 + (3.2 - 1.0) * u_noise
        bg = min(max(bg * math.exp(-0.12 + (0.12 - -0.12) * u_drift), lo), hi)

        g = int(irng.integers(0, len(sources)))
        runs, label = _runs(sources[g][cls], speed, band, bg, contrast, noise, render_rng)
        frames = sum(run[0] for run in runs)
        size = frames * pixels
        if block and used + size > buffer.size:
            yield rendered()
            block, used = [], 0
        if size > buffer.size:
            buffer = np.empty(size)
        render_rng.standard_normal(out=buffer[used : used + size])
        gamma = 0.88 + (1.15 - 0.88) * irng.random() if irng.random() < 0.5 else 0.0
        shift = 0.0
        if irng.random() < 0.3:
            shift = (-0.06 + (0.10 - -0.06) * irng.random()) * bg
        block.append(_Instance(runs, label, frames, g, gamma, shift, irng))
        used += size
    if block:
        yield rendered()


def _pixel_stages(rows: np.ndarray, block: list[_Instance]):
    """ADC frames ``(T, pixels)`` of a block's float pixel rows, which are
    overwritten, and the means of each instance's first and last frame.

    Each stage is one in-place call over the whole block, with a per-frame
    parameter (the instance's, repeated over its frames): ADC rounding,
    Gamma, and Brightness.  Every stage maps each pixel on its own with
    the IEEE operations :func:`_transform_frames` applies to one instance,
    so each pixel gets the same bits: ``np.power`` with a per-frame
    exponent equals the call with that exponent as a scalar bit for bit.
    The frames of an instance without Gamma take the exponent 1.0 and
    those without Brightness a zero shift; either leaves a whole pixel
    value within far less than half a count of itself, so the rounding
    after the stage gives it back unchanged.  The stages act on each pixel
    alone, so they may run before the geometry moves pixels within a
    frame; a frame's mean is its integer sum (exact in any order) over its
    pixel count.
    """
    lengths = [inst.frames for inst in block]
    _round_adc(rows)
    rows /= ADC_MAX
    np.power(rows, np.repeat([inst.gamma or 1.0 for inst in block], lengths)[:, None],
             out=rows)
    rows *= ADC_MAX
    _round_adc(rows)
    rows += np.repeat([inst.shift for inst in block], lengths)[:, None]
    frames = _round_adc(rows).astype(np.uint16)
    ends = list(accumulate(lengths))
    heads = _frame_means(frames[[end - n for end, n in zip(ends, lengths)]])
    tails = _frame_means(frames[[end - 1 for end in ends]])
    return frames, heads.tolist(), tails.tolist()


def build_corpus(
    per_class: int,
    seed: int,
    width: int = 3,
    height: int = 3,
    label_kind: str = LABEL_KIND_GESTURE,
) -> AnnotatedSequence:
    """Assemble one long annotated stream with ``per_class`` instances each.

    All five classes (four swipes plus NO_GESTURE disturbances) appear
    ``per_class`` times in shuffled order.  Geometry, contrast, speed,
    noise, and background (within :data:`BACKGROUND_RANGE`, 520 to 940
    ADC counts) vary per instance; a slice of instances is
    produced by augmenting a rendering of a different class (mirrors and
    rotations remap the label back).  Background changes between instances
    ride on slow bridge ramps so a streaming detector can follow the
    baseline.  Deterministic for a given seed, a non-negative integer;
    ``per_class``, ``width`` and ``height`` are integers too, within
    :data:`MAX_CORPUS_INSTANCES` and :data:`MAX_CORPUS_PIXELS`.  Speeds are
    frame counts tuned for the stream's default 40 fps.

    Each instance has its own seed ``iseed``, drawn from ``seed``.  Its
    parameter draws (and its augmentation and bridge draws after the
    render) come from ``default_rng(iseed)``, and its render draws come
    from a second stream that also starts where ``default_rng(iseed)``
    starts, as if ``synthesize_gesture(params, iseed)`` were called.  So an
    instance is ``synthesize_gesture`` followed by ``augment`` with its
    geometry, gamma and brightness, and the label kind changes no frame;
    the tests hold every instance to an independent single-instance
    render and ``augment`` (``tests/conftest.py``).

    Instances are rendered a block at a time: each instance makes only
    its own draws, its render noise written straight into a block of at
    most ``pipeline._BLOCK_PIXELS`` floats, and the rest, coverage,
    contrast and background (:func:`_render_block`), the pixel stages
    (:func:`_pixel_stages`), the geometry, the phase states and the bridge
    levels, is computed for the whole block at once, so no float copy of
    the whole corpus is made.  Each instance's bridge needs the mean of
    its first frame, so the bridge draws follow a block's pixel stages.
    Every draw stays on its instance's own stream, and every pixel gets
    the bits of the per-instance calls.
    """
    _check_frame_size(width, height)
    most = min(MAX_CORPUS_INSTANCES, MAX_CORPUS_PIXELS // (int(width) * int(height)))
    _check_integer("per_class", per_class, 0, most // len(GestureClass))
    _check_seed(seed)
    _check_label_kind(label_kind)
    rng = np.random.default_rng(seed)
    order = [
        (cls, int(rng.integers(0, 2**31)))
        for cls in GestureClass
        for _ in range(per_class)
    ]
    rng.shuffle(order)

    lo, hi = BACKGROUND_RANGE
    bg = float(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)))

    geoms: list[Transform | None] = [None, MirrorX(), MirrorY()]
    if width == height:
        geoms += [Rotate(1), Rotate(2), Rotate(3)]
    # per geometry: the class to render for each wanted class, the label
    # every rendered label becomes, and where each pixel of a frame comes from
    sources, relabel = [], []
    for geom in geoms:
        mapping = gesture_label_map(geom)
        sources.append({dst: src for src, dst in mapping.items()})
        relabel.append(_label_table(label_kind, mapping))
    relabel = np.stack(relabel)
    pixels = width * height
    index = np.arange(pixels).reshape(1, height, width)
    # per geometry, the pixel of a frame each of its pixels is taken from
    perms = np.stack([
        index if geom is None else _transform_frames(index, geom) for geom in geoms
    ]).reshape(len(geoms), -1)
    phases = label_kind == LABEL_KIND_PHASE

    chunks: list[np.ndarray] = []
    # each block's label frames (gesture labels only) and labels
    label_frames, labels = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    offset = 0
    prev_tail: float | None = None
    for frames, states, heads, tails, block in _blocks(
        order, bg, sources, perms, width, height, phases
    ):
        geometry = [inst.geometry for inst in block]
        lengths = [inst.frames for inst in block]
        steps, ramps, noise = [], [], []
        for inst, head, tail in zip(block, heads, tails):
            bridge = 0
            if prev_tail is not None and abs(head - prev_tail) > 1e-9:
                bridge = _bridge_steps(prev_tail, head)
                ramps.append((prev_tail, head / prev_tail, bridge))
                noise.append(inst.rng.standard_normal((bridge, pixels)))
            steps.append(bridge)
            prev_tail = tail
        if ramps:
            ramp = np.concatenate(noise)
            ramp += _bridge_levels(*map(list, zip(*ramps)))[:, None]
            ramp = _to_adc(ramp).reshape(-1, height, width)

        at = done = 0
        for inst, bridge in zip(block, steps):
            if bridge:
                chunks.append(ramp[done : done + bridge])
                done += bridge
            chunks.append(frames[at : at + inst.frames])
            at += inst.frames
        bridged = np.cumsum(steps)  # bridge frames up to each instance
        if phases:  # every frame is labelled, a bridge frame idle (state 0)
            block_labels = np.zeros(at + bridged[-1], dtype=np.int64)
            block_labels[np.arange(at) + np.repeat(bridged, lengths)] = relabel[
                np.repeat(geometry, lengths), states]
            labels.append(block_labels)
        else:  # an instance's label sits on the last frame of its crossing
            label_frames.append(offset + bridged + np.cumsum(lengths) - LEAD_FRAMES - 1)
            labels.append(relabel[geometry, [inst.label for inst in block]])
        offset += at + int(bridged[-1])

    frames = np.concatenate(chunks) if chunks else np.zeros((0, height, width), np.uint16)
    label_frames = np.arange(len(frames)) if phases else np.concatenate(label_frames)
    return AnnotatedSequence(width, height, frames, label_frames, np.concatenate(labels),
                             label_kind=label_kind)
