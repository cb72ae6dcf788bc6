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

import numpy as np

from .errors import InvalidParams, NonSquareImage
from .features import (
    ADC_MAX,
    AnnotatedSequence,
    Annotation,
    LABEL_KIND_GESTURE,
    LABEL_KIND_PHASE,
)
from .pipeline import GestureClass, PHASES_PER_GESTURE


@dataclass(frozen=True)
class GestureSynthParams:
    """Knobs of one rendered gesture instance.

    ``speed`` is the number of frames the occluder needs to cross the
    field; ``occluder_width`` is the band width as a fraction of the field
    span.  ``direction`` NO_GESTURE renders a non-directional disturbance
    (a hover dip or an aborted half swipe) instead of a crossing.
    """

    direction: GestureClass
    speed: float = 40.0
    occluder_width: float = 0.4
    background_brightness: float = 800.0
    contrast: float = 0.8
    noise_sigma: float = 2.0
    gamma: float = 1.0
    width: int = 3
    height: int = 3
    lead_in: int = 15
    lead_out: int = 15

    def __post_init__(self) -> None:
        if self.speed < 2:
            raise InvalidParams("speed must be at least 2 frames")
        if not 0.0 < self.occluder_width <= 1.0:
            raise InvalidParams("occluder_width must be in (0, 1]")
        if not 0.0 <= self.background_brightness <= ADC_MAX:
            raise InvalidParams("background_brightness must be in 0..1023")
        if not 0.0 <= self.contrast <= 1.0:
            raise InvalidParams("contrast must be in [0, 1]")
        if self.noise_sigma < 0.0:
            raise InvalidParams("noise_sigma must be >= 0")
        if self.gamma <= 0.0:
            raise InvalidParams("gamma must be > 0")
        if self.width < 1 or self.height < 1:
            raise InvalidParams("sensor must be at least 1x1")
        if self.lead_in < 0 or self.lead_out < 0:
            raise InvalidParams("lead frames must be >= 0")


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


def _to_adc(values: np.ndarray) -> np.ndarray:
    """Round and clamp pixel values to the ADC range."""
    return np.clip(np.rint(values), 0, ADC_MAX).astype(np.uint16)


def _band_coverage(path: np.ndarray, half_width: float, cells: int) -> np.ndarray:
    """Coverage (T, cells) of equal cells on [0, 1] by a band at each path center."""
    edges = np.arange(cells + 1) / cells
    lo = np.maximum(edges[:-1], path[:, None] - half_width)
    hi = np.minimum(edges[1:], path[:, None] + half_width)
    return np.clip((hi - lo) * cells, 0.0, 1.0)


def _sweep(
    path: np.ndarray, half_width: float, motion: tuple[int, int], p: GestureSynthParams
) -> np.ndarray:
    """Coverage maps (T, H, W) of a band moving along ``motion`` on ``path``.

    ``path`` holds band centers in path coordinates (0 at the edge the band
    enters from); the cells are flipped when the motion runs against the axis.
    """
    dx, dy = motion
    cov = _band_coverage(path, half_width, p.width if dx else p.height)
    if dx + dy < 0:
        cov = cov[:, ::-1]
    per_frame = cov[:, None, :] if dx else cov[:, :, None]
    return np.broadcast_to(per_frame, (len(path), p.height, p.width))


def _crossing_path(p: GestureSynthParams) -> np.ndarray:
    """Band centers of a full crossing, from just outside to just outside."""
    t_cross = max(2, int(round(p.speed)))
    w = p.occluder_width
    return -w / 2 + (1.0 + w) * np.arange(t_cross) / (t_cross - 1)


def _disturbance_coverage(p: GestureSynthParams, rng) -> np.ndarray:
    """Coverage maps of a NO_GESTURE disturbance: hover or aborted swipe."""
    hold = max(14, int(round(p.speed / 3)))
    if rng.random() < 0.5:
        # hover: the whole field dims and recovers without lateral motion
        ramp = max(3, int(round(p.speed / 6)))
        depth = float(np.clip(p.occluder_width * 1.3, 0.25, 0.6))
        up = np.linspace(0.0, 1.0, ramp + 1)[1:]
        profile = np.concatenate([up, np.ones(hold), up[::-1]]) * depth
        return profile[:, None, None] * np.ones((p.height, p.width))
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
    n = p.width if _MOTION[p.direction][0] else p.height
    base = PHASES_PER_GESTURE * int(p.direction)
    lead = centers + p.occluder_width / 2
    trail = centers - p.occluder_width / 2
    return np.select(
        [(lead <= 0.0) | (trail >= 1.0), lead <= (n // 2) / n, lead <= (n - 1) / n,
         trail <= 1.0 / n],
        [0, base + 1, base + 2, base + 3],
        base + 4,
    )


def synthesize_gesture(
    p: GestureSynthParams, seed: int, labels: str = LABEL_KIND_GESTURE
) -> AnnotatedSequence:
    """Render one annotated gesture instance.

    The sequence is ``lead_in`` steady frames, the crossing (or disturbance),
    then ``lead_out`` steady frames.  With ``labels="gesture"`` a single
    annotation marks the final frame of the crossing; with ``labels="phase"``
    every frame carries its motion-phase state.  A ``contrast`` of zero
    renders a constant sequence and is labelled NO_GESTURE regardless of the
    requested direction.  Identical parameters and seed reproduce identical
    bytes.
    """
    rng = np.random.default_rng(seed)
    if p.contrast > 0.0 and p.direction is not GestureClass.NO_GESTURE:
        effective = p.direction
        centers = _crossing_path(p)
        coverage = _sweep(centers, p.occluder_width / 2, _MOTION[effective], p)
        states = _phase_states(p, centers)
    else:
        effective = GestureClass.NO_GESTURE
        if p.contrast > 0.0:
            coverage = _disturbance_coverage(p, rng)
        else:
            coverage = np.zeros((max(2, int(round(p.speed))), p.height, p.width))
        states = np.zeros(coverage.shape[0], dtype=int)

    body = p.background_brightness * (1.0 - p.contrast * coverage)
    pre = np.full((p.lead_in, p.height, p.width), p.background_brightness)
    post = np.full((p.lead_out, p.height, p.width), p.background_brightness)
    values = np.concatenate([pre, body, post])
    if p.gamma != 1.0:
        values = ADC_MAX * np.power(values / ADC_MAX, p.gamma)
    if p.noise_sigma > 0.0:
        values = values + rng.normal(0.0, p.noise_sigma, values.shape)
    frames = _to_adc(values)

    final = p.lead_in + coverage.shape[0] - 1
    if labels == LABEL_KIND_GESTURE:
        annotations = [Annotation(final, int(effective))]
    elif labels == LABEL_KIND_PHASE:
        all_states = np.zeros(frames.shape[0], dtype=int)
        all_states[p.lead_in : p.lead_in + len(states)] = states
        annotations = [Annotation(t, int(s)) for t, s in enumerate(all_states)]
    else:
        raise InvalidParams(f"unknown label mode {labels!r}")
    return AnnotatedSequence(
        width=p.width,
        height=p.height,
        frames=frames,
        annotations=annotations,
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
    """Rotate by ``quarters`` quarter turns clockwise (square sensors only)."""

    quarters: int

    def __post_init__(self) -> None:
        if self.quarters % 4 == 0:
            raise InvalidParams("rotation must be 1..3 quarter turns")


@dataclass(frozen=True)
class Brightness:
    """Add ``delta`` ADC counts to every pixel, clamped to the ADC range."""

    delta: float


@dataclass(frozen=True)
class Gamma:
    """Apply ``1023 * (v / 1023) ** gamma`` to every pixel."""

    gamma: float


@dataclass(frozen=True)
class Noise:
    """Add Gaussian noise with the given sigma, clamped to the ADC range."""

    sigma: float
    seed: int = 0


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
    gesture = GestureClass((label - 1) // PHASES_PER_GESTURE)
    phase = (label - 1) % PHASES_PER_GESTURE + 1
    return PHASES_PER_GESTURE * int(mapping[gesture]) + phase


def augment(seq: AnnotatedSequence, transform: Transform) -> AnnotatedSequence:
    """Apply one transform to a sequence, remapping labels as needed."""
    frames = seq.frames
    width, height = seq.width, seq.height
    if isinstance(transform, MirrorX):
        frames = np.flip(frames, axis=2).copy()
    elif isinstance(transform, MirrorY):
        frames = np.flip(frames, axis=1).copy()
    elif isinstance(transform, Rotate):
        if seq.width != seq.height:
            raise NonSquareImage("quarter-turn rotation needs a square sensor")
        frames = np.rot90(frames, k=-transform.quarters, axes=(1, 2)).copy()
    elif isinstance(transform, Brightness):
        frames = _to_adc(frames.astype(float) + transform.delta)
    elif isinstance(transform, Gamma):
        if transform.gamma <= 0.0:
            raise InvalidParams("gamma must be > 0")
        frames = _to_adc(
            ADC_MAX * np.power(frames.astype(float) / ADC_MAX, transform.gamma)
        )
    elif isinstance(transform, Noise):
        rng = np.random.default_rng(transform.seed)
        frames = _to_adc(
            frames.astype(float) + rng.normal(0.0, transform.sigma, frames.shape)
        )
    else:
        raise InvalidParams(f"unknown transform {transform!r}")
    mapping = gesture_label_map(transform)
    annotations = [
        Annotation(a.frame, _remap_label(a.label, seq.label_kind, mapping))
        for a in seq.annotations
    ]
    return AnnotatedSequence(
        width=width,
        height=height,
        frames=frames,
        annotations=annotations,
        label_kind=seq.label_kind,
        fps=seq.fps,
    )


def auto_annotate(
    frames: np.ndarray,
    protocol: tuple[GestureClass, GestureClass],
    width: int | None = None,
    height: int | None = None,
    **detector_kwargs,
) -> AnnotatedSequence:
    """Label a recorded stream by a known alternation protocol.

    The stream must contain gestures performed strictly alternating between
    the two protocol classes, starting with the first.  Candidates found by
    the brightness-dip detector are labelled in that order at their final
    frame, which removes per-frame hand labelling for recorded data.
    """
    from .pipeline import extract_candidates

    frames = np.asarray(frames)
    height = frames.shape[1] if height is None else height
    width = frames.shape[2] if width is None else width
    annotations = []
    for i, cand in enumerate(extract_candidates(frames, **detector_kwargs)):
        label = protocol[i % 2]
        annotations.append(Annotation(cand.end_index, int(label)))
    return AnnotatedSequence(
        width=width, height=height, frames=frames, annotations=annotations
    )


# --- corpus assembly ---------------------------------------------------------

# Background drift per bridge frame; slow enough that the detector keeps
# treating bridge frames as stable, steady illumination.
_BRIDGE_RATE = 0.004


def _bridge_frames(
    from_level: float, to_level: float, shape: tuple[int, int], rng
) -> np.ndarray:
    """Gently ramp the background between two brightness levels."""
    if from_level <= 0 or to_level <= 0:
        steps = 1
    else:
        steps = max(1, int(math.ceil(abs(math.log(to_level / from_level)) / _BRIDGE_RATE)))
    levels = from_level * np.power(to_level / from_level, np.arange(1, steps + 1) / steps)
    values = levels[:, None, None] * np.ones(shape)
    return _to_adc(values + rng.normal(0.0, 1.0, values.shape))


def build_corpus(
    per_class: int,
    seed: int,
    width: int = 3,
    height: int = 3,
    label_kind: str = LABEL_KIND_GESTURE,
    background_range: tuple[float, float] = (520.0, 940.0),
    fps: float = 40.0,
) -> AnnotatedSequence:
    """Assemble one long annotated stream with ``per_class`` instances each.

    All five classes (four swipes plus NO_GESTURE disturbances) appear
    ``per_class`` times in shuffled order.  Geometry, contrast, speed,
    noise, and background vary per instance; a slice of instances is
    produced by augmenting a rendering of a different class (mirrors and
    rotations remap the label back).  Background changes between instances
    ride on slow bridge ramps so a streaming detector can follow the
    baseline.  Deterministic for a given seed.
    """
    if per_class < 0:
        raise InvalidParams("per_class must be >= 0")
    rng = np.random.default_rng(seed)
    square = width == height
    order = [
        (cls, int(rng.integers(0, 2**31)))
        for cls in GestureClass
        for _ in range(per_class)
    ]
    rng.shuffle(order)

    lo, hi = background_range
    bg = float(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)))
    chunks: list[np.ndarray] = []
    annotations: list[Annotation] = []
    offset = 0
    prev_tail: float | None = None

    geoms: list[Transform | None] = [None, MirrorX(), MirrorY()]
    if square:
        geoms += [Rotate(1), Rotate(2), Rotate(3)]

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
        source = {dst: src for src, dst in gesture_label_map(geom).items()}[cls]

        params = GestureSynthParams(
            direction=source,
            speed=speed,
            occluder_width=band,
            background_brightness=bg,
            contrast=contrast,
            noise_sigma=noise,
            width=width,
            height=height,
        )
        seq = synthesize_gesture(params, seed=iseed, labels=label_kind)
        if geom is not None:
            seq = augment(seq, geom)
        if irng.random() < 0.5:
            seq = augment(seq, Gamma(float(irng.uniform(0.88, 1.15))))
        if irng.random() < 0.3:
            seq = augment(seq, Brightness(float(irng.uniform(-0.06, 0.10)) * bg))

        first_mean = float(seq.frames[0].mean())
        if prev_tail is not None and abs(first_mean - prev_tail) > 1e-9:
            bridge = _bridge_frames(prev_tail, first_mean, (height, width), irng)
            if label_kind == LABEL_KIND_PHASE:
                annotations.extend(
                    Annotation(offset + t, 0) for t in range(bridge.shape[0])
                )
            chunks.append(bridge)
            offset += bridge.shape[0]
        annotations.extend(
            Annotation(a.frame + offset, a.label) for a in seq.annotations
        )
        chunks.append(seq.frames)
        offset += len(seq)
        prev_tail = float(seq.frames[-1].mean())

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
        fps=fps,
    )
