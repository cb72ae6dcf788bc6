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
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams, NonSquareImage, ShapeMismatch
from .errors import _check_integer, _check_seed, _is_integer
from .features import (
    ADC_MAX,
    AnnotatedSequence,
    Annotation,
    LABEL_KIND_GESTURE,
    LABEL_KIND_PHASE,
)
from .pipeline import (
    _BLOCK_PIXELS,
    _check_labels,
    _frame_means,
    _label_count,
    GestureClass,
    PHASES_PER_GESTURE,
    extract_candidates,
    last_phase_state,
    phase_state,
)


# Steady frames before and after each rendered crossing or disturbance
LEAD_FRAMES = 15

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
    span.  ``direction`` NO_GESTURE renders a non-directional disturbance
    (a hover dip or an aborted half swipe) instead of a crossing.  Every
    instance has :data:`LEAD_FRAMES` (15) steady frames on each side; a
    gamma curve is the :class:`Gamma` transform's job.
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
    np.clip(values, 0, ADC_MAX, out=values)
    return values


def _to_adc(values: np.ndarray) -> np.ndarray:
    """ADC pixels of float pixel values.  Works in place, so ``values`` is
    overwritten."""
    return _round_adc(values).astype(np.uint16)


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


def _render(
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
    values, first, states = _render(p, np.random.default_rng(seed), labels)
    return AnnotatedSequence(
        width=p.width,
        height=p.height,
        frames=_to_adc(values),
        annotations=[Annotation(first + i, s) for i, s in enumerate(states)],
        label_kind=labels,
    )


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


def _remap_label(label: int, kind: str, mapping) -> int:
    if kind == LABEL_KIND_GESTURE:
        return int(mapping[GestureClass(label)])
    if label == 0:
        return 0
    gesture, phase = divmod(label - 1, PHASES_PER_GESTURE)
    return phase_state(mapping[GestureClass(gesture)], phase + 1)


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
    frames = _transform_frames(seq.frames, transform)
    mapping = gesture_label_map(transform)
    annotations = [
        Annotation(a.frame, _remap_label(a.label, seq.label_kind, mapping))
        for a in seq.annotations
    ]
    return AnnotatedSequence(
        width=seq.width,
        height=seq.height,
        frames=frames,
        annotations=annotations,
        label_kind=seq.label_kind,
        fps=seq.fps,
    )


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
    frames = np.asarray(frames)
    if frames.ndim != 3:
        raise ShapeMismatch(f"frames shape {frames.shape}, expected (T, H, W)")
    height, width = frames.shape[1:]
    annotations = []
    for i, cand in enumerate(extract_candidates(frames)):
        label = protocol[i % 2]
        annotations.append(Annotation(cand.end_index, int(label)))
    return AnnotatedSequence(
        width=width, height=height, frames=frames, annotations=annotations
    )


# --- corpus assembly ---------------------------------------------------------

# Background drift per bridge frame; slow enough that the detector keeps
# treating bridge frames as stable, steady illumination.
_BRIDGE_RATE = 0.004
# Range of a corpus's background brightness, in ADC counts
BACKGROUND_RANGE = (520.0, 940.0)


def _bridge_levels(from_level: float, to_level: float) -> np.ndarray:
    """Background level of each frame of a gentle ramp between two
    brightness levels."""
    if from_level <= 0 or to_level <= 0:
        steps = 1
    else:
        steps = max(1, int(math.ceil(abs(math.log(to_level / from_level)) / _BRIDGE_RATE)))
    return from_level * np.power(to_level / from_level, np.arange(1, steps + 1) / steps)


class _Instance(NamedTuple):
    """One rendered corpus instance, as its pixel stages and bridge need it."""

    frames: int  # frame count
    geometry: int  # index of its geometric transform; 0 is none
    gamma: float  # its Gamma exponent, or 0.0 for none
    shift: float  # its Brightness delta, or 0.0 for none
    rng: np.random.Generator  # its own stream; the bridge draw comes last
    first: int
    states: list[int]


def _instances(order, bg, sources, width, height, label_kind):
    """Render the instances of ``order`` one after another, as pairs of
    float pixels ``(T, H, W)`` before ADC rounding and :class:`_Instance`.

    Every draw of an instance comes from its own ``default_rng(iseed)``
    in a fixed order, except the render's, which come from a copy of
    that stream's starting state (see :func:`build_corpus`); ``bg``
    drifts from one instance to the next.
    """
    lo, hi = BACKGROUND_RANGE
    # the render stream: re-started at each instance's seed by copying
    # the state of that instance's fresh parameter stream
    render_bits = np.random.PCG64()
    render_rng = np.random.Generator(render_bits)
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
        params = GestureSynthParams(
            direction=sources[g][cls],
            speed=speed,
            occluder_width=band,
            background_brightness=bg,
            contrast=contrast,
            noise_sigma=noise,
            width=width,
            height=height,
        )
        values, first, states = _render(params, render_rng, label_kind)
        gamma = 0.88 + (1.15 - 0.88) * irng.random() if irng.random() < 0.5 else 0.0
        shift = 0.0
        if irng.random() < 0.3:
            shift = (-0.06 + (0.10 - -0.06) * irng.random()) * bg
        yield values, _Instance(len(values), g, gamma, shift, irng, first, states)


def _blocks(instances, perms: np.ndarray):
    """Run the pixel stages of rendered instances a block at a time; yields
    each block's ADC frames ``(T, pixels)``, the means of each instance's
    first and last frame, and its :class:`_Instance` list.

    An instance's float pixels are copied into one buffer of
    ``pipeline._BLOCK_PIXELS`` floats (or of one instance, if that is
    larger), each frame's pixels in the order of its geometry's
    permutation ``perms[geometry]``.  The buffer is reused from block to
    block and freed with the generator.
    """
    pixels = perms.shape[1]
    buffer = np.empty(_BLOCK_PIXELS)
    block: list[_Instance] = []
    used = 0
    for values, inst in instances:
        if block and used + values.size > buffer.size:
            yield *_pixel_stages(buffer[:used].reshape(-1, pixels), block), block
            block, used = [], 0
        if values.size > buffer.size:
            buffer = np.empty(values.size)
        rows = buffer[used : used + values.size].reshape(-1, pixels)
        np.take(values.reshape(-1, pixels), perms[inst.geometry], axis=1, out=rows,
                mode="clip")
        block.append(inst)
        used += values.size
    if block:
        yield *_pixel_stages(buffer[:used].reshape(-1, pixels), block), block


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
    after the stage gives it back unchanged.  The geometry moved pixels
    within a frame before these stages, which act on each pixel alone, so
    the order does not matter; a frame's mean is its integer sum (exact in
    any order) over its pixel count.
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
    ``per_class``, ``width`` and ``height`` are integers too.  Speeds are
    frame counts tuned for the stream's default 40 fps.

    Each instance has its own seed ``iseed``, drawn from ``seed``.  Its
    parameter draws (and its augmentation and bridge draws after the
    render) come from ``default_rng(iseed)``, and its render draws come
    from a second stream that also starts where ``default_rng(iseed)``
    starts, as if ``synthesize_gesture(params, iseed)`` were called.  So an
    instance is ``synthesize_gesture`` followed by ``augment`` with its
    geometry, gamma and brightness, and the label kind changes no frame.

    Instances are rendered one at a time, and their pixel stages
    (:func:`_pixel_stages`) run once per block of instances holding at
    most ``pipeline._BLOCK_PIXELS`` float pixels, so no float copy of the
    whole corpus is made.  Each instance's bridge needs the mean of its
    first frame, so the bridge draws follow a block's pixel stages, and
    the bridges of a block are rounded in one call too.  Every draw stays
    on its instance's own stream, and every pixel gets the bits of the
    per-instance calls.
    """
    _check_integer("per_class", per_class, 0)
    _check_frame_size(width, height)
    _check_seed(seed)
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
    n_labels = _label_count(label_kind)
    sources, relabel = [], []
    for geom in geoms:
        mapping = gesture_label_map(geom)
        sources.append({dst: src for src, dst in mapping.items()})
        relabel.append([_remap_label(l, label_kind, mapping) for l in range(n_labels)])
    index = np.arange(width * height).reshape(1, height, width)
    perms = np.stack([
        index if geom is None else _transform_frames(index, geom) for geom in geoms
    ]).reshape(len(geoms), -1)

    chunks: list[np.ndarray] = []
    annotations: list[Annotation] = []
    offset = 0
    prev_tail: float | None = None
    instances = _instances(order, bg, sources, width, height, label_kind)
    for frames, heads, tails, block in _blocks(instances, perms):
        frames = frames.reshape(-1, height, width)
        noise, levels, steps = [], [], []
        for inst, head, tail in zip(block, heads, tails):
            bridge = 0
            if prev_tail is not None and abs(head - prev_tail) > 1e-9:
                levels.append(_bridge_levels(prev_tail, head))
                bridge = len(levels[-1])
                noise.append(inst.rng.normal(0.0, 1.0, (bridge, height, width)))
                if label_kind == LABEL_KIND_PHASE:
                    annotations.extend(Annotation(offset + t, 0) for t in range(bridge))
                offset += bridge
            steps.append(bridge)
            table = relabel[inst.geometry]
            start = offset + inst.first
            annotations.extend(
                Annotation(start + i, table[s]) for i, s in enumerate(inst.states)
            )
            offset += inst.frames
            prev_tail = tail
        if noise:
            ramp = np.concatenate(noise)
            ramp += np.concatenate(levels)[:, None, None]
            ramp = _to_adc(ramp)
        at = done = 0
        for inst, bridge in zip(block, steps):
            if bridge:
                chunks.append(ramp[done : done + bridge])
                done += bridge
            chunks.append(frames[at : at + inst.frames])
            at += inst.frames

    frames = (
        np.concatenate(chunks)
        if chunks
        else np.zeros((0, height, width), dtype=np.uint16)
    )
    return AnnotatedSequence(
        width=width,
        height=height,
        frames=frames,
        annotations=annotations,
        label_kind=label_kind,
    )
