"""Synthetic gesture rendering, augmentation transforms, corpus assembly."""

import hashlib

import numpy as np
import pytest

from microgest.errors import InvalidParams, NonSquareImage
from microgest.features import ADC_MAX, LABEL_KIND_GESTURE, LABEL_KIND_PHASE
from microgest.model_io import save_dataset
from microgest.pipeline import GestureClass, PHASES_PER_GESTURE
from microgest.synth import (
    Brightness,
    Gamma,
    GestureSynthParams,
    MirrorX,
    MirrorY,
    Noise,
    Rotate,
    augment,
    auto_annotate,
    build_corpus,
    gesture_label_map,
    synthesize_gesture,
)

L2R = GestureClass.LEFT_TO_RIGHT
R2L = GestureClass.RIGHT_TO_LEFT
T2B = GestureClass.TOP_TO_BOTTOM
B2T = GestureClass.BOTTOM_TO_TOP
NOG = GestureClass.NO_GESTURE


def _params(**kw):
    base = dict(direction=L2R, speed=30.0, noise_sigma=0.0)
    base.update(kw)
    return GestureSynthParams(**base)


# --- rendering ---------------------------------------------------------------

def test_rendering_is_deterministic():
    a = synthesize_gesture(_params(noise_sigma=2.5), seed=99)
    b = synthesize_gesture(_params(noise_sigma=2.5), seed=99)
    assert np.array_equal(a.frames, b.frames)
    assert a.annotations == b.annotations


def test_different_seeds_change_the_noise():
    a = synthesize_gesture(_params(noise_sigma=2.5), seed=1)
    b = synthesize_gesture(_params(noise_sigma=2.5), seed=2)
    assert not np.array_equal(a.frames, b.frames)


def test_zero_contrast_renders_constant_no_gesture():
    seq = synthesize_gesture(_params(contrast=0.0), seed=0)
    assert np.all(seq.frames == 800)
    assert len(seq.annotations) == 1
    assert seq.annotations[0].label == int(NOG)


def test_gesture_annotation_marks_final_crossing_frame():
    seq = synthesize_gesture(_params(speed=30, lead_in=15, lead_out=10), seed=0)
    assert len(seq.annotations) == 1
    ann = seq.annotations[0]
    assert ann.label == int(L2R)
    assert ann.frame == 15 + 30 - 1
    assert len(seq) == 15 + 30 + 10


def test_swipe_dims_cells_in_motion_order():
    def dim_times(direction, axis):
        seq = synthesize_gesture(_params(direction=direction), seed=0)
        body = seq.frames.astype(float)
        other = 2 if axis == 1 else 1
        series = body.mean(axis=other)  # (T, cells) along the motion axis
        return [int(np.argmin(series[:, j])) for j in range(series.shape[1])]

    assert dim_times(L2R, 2) == sorted(dim_times(L2R, 2))
    assert dim_times(L2R, 2)[0] < dim_times(L2R, 2)[-1]
    assert dim_times(R2L, 2)[0] > dim_times(R2L, 2)[-1]
    assert dim_times(T2B, 1)[0] < dim_times(T2B, 1)[-1]
    assert dim_times(B2T, 1)[0] > dim_times(B2T, 1)[-1]


def test_disturbance_only_dims_never_crosses_fully():
    seq = synthesize_gesture(_params(direction=NOG, noise_sigma=0.0), seed=4)
    assert seq.annotations[0].label == int(NOG)
    assert seq.frames.min() < 800  # genuinely disturbs the field
    assert seq.frames.max() == 800


def test_phase_labels_cover_every_frame_in_walk_order():
    seq = synthesize_gesture(_params(direction=R2L, speed=40), seed=0,
                             labels=LABEL_KIND_PHASE)
    assert [a.frame for a in seq.annotations] == list(range(len(seq)))
    states = [a.label for a in seq.annotations]
    assert all(s == 0 for s in states[:15])
    base = PHASES_PER_GESTURE * int(R2L)
    nonzero = [s for s in states if s != 0]
    assert sorted(set(nonzero)) == [base + 1, base + 2, base + 3, base + 4]
    # phases advance monotonically within the crossing
    assert nonzero == sorted(nonzero)


def test_gamma_darkens_midtones():
    flat = synthesize_gesture(_params(), seed=0)
    curved = synthesize_gesture(_params(gamma=2.0), seed=0)
    assert curved.frames.max() < flat.frames.max()


@pytest.mark.parametrize(
    "kw",
    [
        dict(speed=1.0),
        dict(occluder_width=0.0),
        dict(occluder_width=1.5),
        dict(background_brightness=2000.0),
        dict(contrast=1.5),
        dict(noise_sigma=-1.0),
        dict(gamma=0.0),
        dict(width=0),
        dict(lead_in=-1),
    ],
)
def test_invalid_render_parameters_rejected(kw):
    with pytest.raises(InvalidParams):
        _params(**kw)


def test_unknown_label_mode_rejected():
    with pytest.raises(InvalidParams):
        synthesize_gesture(_params(), seed=0, labels="bogus")


# --- augmentation ------------------------------------------------------------

def test_mirror_x_flips_columns_and_swaps_horizontal_labels():
    seq = synthesize_gesture(_params(direction=L2R), seed=0)
    out = augment(seq, MirrorX())
    assert np.array_equal(out.frames, np.flip(seq.frames, axis=2))
    assert out.annotations[0].label == int(R2L)


def test_mirror_y_flips_rows_and_swaps_vertical_labels():
    seq = synthesize_gesture(_params(direction=T2B), seed=0)
    out = augment(seq, MirrorY())
    assert np.array_equal(out.frames, np.flip(seq.frames, axis=1))
    assert out.annotations[0].label == int(B2T)


def test_quarter_turn_label_cycle():
    mapping = gesture_label_map(Rotate(1))
    assert mapping[L2R] is T2B
    assert mapping[T2B] is R2L
    assert mapping[R2L] is B2T
    assert mapping[B2T] is L2R
    assert mapping[NOG] is NOG


def test_half_turn_twice_is_identity():
    seq = synthesize_gesture(_params(direction=B2T, noise_sigma=1.0), seed=5)
    back = augment(augment(seq, Rotate(2)), Rotate(2))
    assert np.array_equal(back.frames, seq.frames)
    assert back.annotations == seq.annotations


def test_four_quarter_turns_compose_to_identity_on_labels():
    mapping = {c: c for c in GestureClass}
    step = gesture_label_map(Rotate(1))
    for _ in range(4):
        mapping = {src: step[dst] for src, dst in mapping.items()}
    assert all(src is dst for src, dst in mapping.items())


_PINNED_LABEL_MAPS = {
    MirrorX(): (R2L, L2R, T2B, B2T, NOG),
    MirrorY(): (L2R, R2L, B2T, T2B, NOG),
    Rotate(1): (T2B, B2T, R2L, L2R, NOG),
    Rotate(2): (R2L, L2R, B2T, T2B, NOG),
    Rotate(3): (B2T, T2B, L2R, R2L, NOG),
    Gamma(1.1): (L2R, R2L, T2B, B2T, NOG),
}


@pytest.mark.parametrize("transform", list(_PINNED_LABEL_MAPS))
def test_label_map_tables_are_pinned(transform):
    mapping = gesture_label_map(transform)
    assert list(mapping) == list(GestureClass)
    assert tuple(mapping.values()) == _PINNED_LABEL_MAPS[transform]
    assert all(type(v) is GestureClass for v in mapping.values())


def test_mirror_then_mirror_restores_labels():
    step = gesture_label_map(MirrorX())
    assert all(step[step[c]] is c for c in GestureClass)


def test_rotation_requires_square_sensor():
    seq = synthesize_gesture(_params(width=4, height=3), seed=0)
    with pytest.raises(NonSquareImage):
        augment(seq, Rotate(1))


def test_whole_turn_rotation_rejected():
    with pytest.raises(InvalidParams):
        Rotate(4)


def test_brightness_shift_clamps_to_adc_range():
    seq = synthesize_gesture(_params(), seed=0)
    bright = augment(seq, Brightness(5000.0))
    dark = augment(seq, Brightness(-5000.0))
    assert np.all(bright.frames == ADC_MAX)
    assert np.all(dark.frames == 0)
    assert bright.annotations == seq.annotations


def test_unit_gamma_is_identity():
    seq = synthesize_gesture(_params(noise_sigma=1.5), seed=8)
    assert np.array_equal(augment(seq, Gamma(1.0)).frames, seq.frames)


def test_noise_transform_is_seeded():
    seq = synthesize_gesture(_params(), seed=0)
    a = augment(seq, Noise(3.0, seed=11))
    b = augment(seq, Noise(3.0, seed=11))
    c = augment(seq, Noise(3.0, seed=12))
    assert np.array_equal(a.frames, b.frames)
    assert not np.array_equal(a.frames, c.frames)


def test_phase_labels_remap_with_the_gesture():
    seq = synthesize_gesture(_params(direction=L2R), seed=0,
                             labels=LABEL_KIND_PHASE)
    out = augment(seq, MirrorX())
    src_states = [a.label for a in seq.annotations]
    dst_states = [a.label for a in out.annotations]
    base_src = PHASES_PER_GESTURE * int(L2R)
    base_dst = PHASES_PER_GESTURE * int(R2L)
    for s, d in zip(src_states, dst_states):
        if s == 0:
            assert d == 0
        else:
            assert d == base_dst + (s - base_src)


def test_augmentation_preserves_geometry_and_length():
    seq = synthesize_gesture(_params(), seed=0)
    for tf in (MirrorX(), MirrorY(), Rotate(1), Brightness(20.0), Gamma(0.9),
               Noise(2.0)):
        out = augment(seq, tf)
        assert out.frames.shape == seq.frames.shape
        assert (out.width, out.height) == (seq.width, seq.height)
        assert len(out.annotations) == len(seq.annotations)


# --- protocol-based auto annotation ------------------------------------------

def test_auto_annotate_alternates_protocol_labels():
    def dip(level):
        return np.full((12, 3, 3), level * 0.8)

    steady = np.full((25, 3, 3), 800.0)
    frames = np.concatenate([steady, dip(800), steady, dip(800), steady,
                             dip(800), steady])
    seq = auto_annotate(frames, (L2R, R2L))
    labels = [a.label for a in seq.annotations]
    assert labels == [int(L2R), int(R2L), int(L2R)]
    for ann in seq.annotations:
        assert frames[ann.frame].mean() == 800.0  # end frame sits in padding


# --- corpus assembly ---------------------------------------------------------

def test_corpus_is_deterministic():
    a = build_corpus(2, seed=7)
    b = build_corpus(2, seed=7)
    assert np.array_equal(a.frames, b.frames)
    assert a.annotations == b.annotations


def test_corpus_balances_all_five_classes():
    corpus = build_corpus(3, seed=11)
    counts = {}
    for ann in corpus.annotations:
        counts[ann.label] = counts.get(ann.label, 0) + 1
    assert counts == {int(c): 3 for c in GestureClass}


def test_empty_corpus():
    corpus = build_corpus(0, seed=0)
    assert corpus.frames.shape == (0, 3, 3)
    assert corpus.annotations == []


# SHA-256 of the saved ``build_corpus(12, seed=7)`` for each label kind and
# sensor shape (width, height); rendering changes must keep these bytes.
_PINNED_CORPUS = {
    (LABEL_KIND_GESTURE, 3, 3): "c97a87e43aec8f2fa60c292bad586aa1283c8b63600887fc3404bf967368af49",
    (LABEL_KIND_GESTURE, 4, 3): "696e8b21325ff3a9441a2627d7e2f2f4d7f12ab02ce42fb4ad980b0b9bf78f17",
    (LABEL_KIND_GESTURE, 2, 5): "48bc624332cb591f23d42c1c245c57ab97f0e2c905970c47361e4788888becfc",
    (LABEL_KIND_PHASE, 3, 3): "f9e0b5df37fa0691f44969c528d0359bc090ca375bbde887fbbdb7f171e04fe5",
    (LABEL_KIND_PHASE, 4, 3): "222e290a4c70e8bb0ec7e20d9f220dda2f6f41c8145229c404b16d6125980dba",
    (LABEL_KIND_PHASE, 2, 5): "31ca5fb6981777ef32ca4e767b4db34d876fdbdd7a4a99b51a0062b521738eb9",
}


@pytest.mark.parametrize("kind, width, height", list(_PINNED_CORPUS))
def test_saved_corpus_bytes_are_pinned(tmp_path, kind, width, height):
    corpus = build_corpus(12, seed=7, width=width, height=height, label_kind=kind)
    path = tmp_path / "corpus.mgds"
    save_dataset(path, corpus)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _PINNED_CORPUS[kind, width, height]


def test_negative_per_class_rejected():
    with pytest.raises(InvalidParams):
        build_corpus(-1, seed=0)


def test_corpus_frames_stay_in_adc_range():
    corpus = build_corpus(2, seed=3)
    assert corpus.frames.dtype == np.uint16
    assert corpus.frames.max() <= ADC_MAX


def test_phase_corpus_labels_every_frame_once():
    corpus = build_corpus(1, seed=5, label_kind=LABEL_KIND_PHASE)
    assert [a.frame for a in corpus.annotations] == list(range(len(corpus)))


def test_non_square_corpus_avoids_rotations():
    corpus = build_corpus(2, seed=9, width=4, height=3)
    assert corpus.frames.shape[1:] == (3, 4)
    counts = {}
    for ann in corpus.annotations:
        counts[ann.label] = counts.get(ann.label, 0) + 1
    assert counts == {int(c): 2 for c in GestureClass}
