"""Synthetic gesture rendering, augmentation transforms, corpus assembly."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from microgest.errors import InvalidParams, NonSquareImage, ShapeMismatch
from microgest.features import ADC_MAX, LABEL_KIND_GESTURE, LABEL_KIND_PHASE
from microgest.model_io import save_dataset
from microgest.pipeline import _BLOCK_PIXELS, GestureClass, PHASES_PER_GESTURE
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

from conftest import oracle_build_corpus, oracle_render, oracle_synthesize

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
    # 15 steady lead frames on each side of the 30-frame crossing
    seq = synthesize_gesture(_params(speed=30), seed=0)
    assert len(seq.annotations) == 1
    ann = seq.annotations[0]
    assert ann.label == int(L2R)
    assert ann.frame == 15 + 30 - 1
    assert len(seq) == 15 + 30 + 15


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
    curved = augment(flat, Gamma(2.0))
    assert curved.frames.max() < flat.frames.max()


@pytest.mark.parametrize("direction", [5, -1, 2.0, True, "L2R", None])
def test_a_direction_that_is_not_a_gesture_class_is_refused(direction):
    # 5 once raised a KeyError when rendered, and 2.0 rendered as class 2
    with pytest.raises(InvalidParams):
        GestureSynthParams(direction=direction)


@pytest.mark.parametrize("labels", [LABEL_KIND_GESTURE, LABEL_KIND_PHASE])
def test_an_integer_direction_renders_as_its_gesture_class(labels):
    # 4 as a plain int once rendered a vertical sweep, not a disturbance
    for g in GestureClass:
        for value in (int(g), np.int64(g)):
            params = _params(direction=value, noise_sigma=1.5)
            assert params.direction is g
            _same_sequence(synthesize_gesture(params, 3, labels),
                           synthesize_gesture(_params(direction=g, noise_sigma=1.5), 3, labels))


@pytest.mark.parametrize(
    "kw",
    [
        dict(speed=1.0),
        dict(occluder_width=0.0),
        dict(occluder_width=1.5),
        dict(background_brightness=2000.0),
        dict(contrast=1.5),
        dict(noise_sigma=-1.0),
        dict(height=0),
        dict(width=0),
        dict(contrast=-0.1),
        dict(speed=np.inf),
        dict(speed=np.nan),
        dict(noise_sigma=np.inf),
        dict(noise_sigma=np.nan),
        dict(occluder_width=np.nan),
        dict(background_brightness=np.nan),
    ],
)
def test_invalid_render_parameters_rejected(kw):
    with pytest.raises(InvalidParams):
        _params(**kw)


def test_unknown_label_mode_rejected():
    with pytest.raises(InvalidParams):
        synthesize_gesture(_params(), seed=0, labels="bogus")


def _same_sequence(got, want):
    assert got.frames.dtype == want.frames.dtype
    assert got.frames.shape == want.frames.shape
    assert got.frames.tobytes() == want.frames.tobytes()
    assert got.annotations == want.annotations
    assert got.label_kind == want.label_kind


def _same_render(params, seed, labels):
    # the float pixels before ADC rounding, bit for bit, then the public call
    import microgest.synth as synth

    values, frames, states = synth._render_one(params, np.random.default_rng(seed), labels)
    want, first, want_states = oracle_render(params, np.random.default_rng(seed), labels)
    assert values.shape == (len(want), params.width * params.height)
    assert values.tobytes() == want.tobytes()
    assert frames.tolist() == [first + i for i in range(len(want_states))]
    assert states.tolist() == want_states
    _same_sequence(synthesize_gesture(params, seed, labels),
                   oracle_synthesize(params, seed, labels))


@settings(max_examples=150, deadline=None)
@given(
    direction=st.sampled_from(list(GestureClass)),
    speed=st.one_of(st.sampled_from([2.0, 3.0, 4.0, 5.0, 9.0]), st.floats(2.0, 2.6),
                    st.floats(2.0, 90.0)),
    band=st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.01, 1.0)),
    background=st.one_of(st.just(0.0), st.floats(0.0, ADC_MAX)),
    contrast=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    noise=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    size=st.sampled_from([(1, 1), (2, 5), (4, 3), (8, 8)]),
    labels=st.sampled_from([LABEL_KIND_GESTURE, LABEL_KIND_PHASE]),
    seed=st.integers(0, 2**32 - 1),
)
# band edges on the cell edges that bound the phases: half the field with
# 2 cells, then 3/4 and 1/4 of it with 4 cells
@example(direction=L2R, speed=4.0, band=0.5, background=800.0, contrast=0.8, noise=0.0,
         size=(2, 5), labels=LABEL_KIND_PHASE, seed=0)
@example(direction=L2R, speed=3.0, band=0.5, background=800.0, contrast=0.8, noise=0.0,
         size=(4, 3), labels=LABEL_KIND_PHASE, seed=0)
def test_rendering_equals_the_single_instance_oracle(
    direction, speed, band, background, contrast, noise, size, labels, seed
):
    # synthesize_gesture is a block of one instance of the corpus renderer;
    # the oracle renders each instance on its own, as the library did before
    width, height = size
    params = GestureSynthParams(
        direction=direction, speed=speed, occluder_width=band,
        background_brightness=background, contrast=contrast, noise_sigma=noise,
        width=width, height=height,
    )
    _same_render(params, seed, labels)


@pytest.mark.parametrize("labels", [LABEL_KIND_GESTURE, LABEL_KIND_PHASE])
@pytest.mark.parametrize("width, height", [(1, 1), (2, 5), (4, 3), (8, 8)])
def test_both_disturbances_equal_the_oracle(labels, width, height):
    # a NO_GESTURE render's first draw picks a hover (below 0.5) or an
    # aborted swipe; these seeds give both, and the swipe runs both ways
    # along both axes
    kinds = set()
    for seed in range(24):
        draws = np.random.default_rng(seed)
        if draws.random() < 0.5:
            kinds.add("hover")
        else:
            draws.uniform()  # how far the band reaches
            kinds.add((draws.random() < 0.5, draws.random() < 0.5))  # axis, sign
        for speed in (2.0, 23.5, 61.0):
            params = GestureSynthParams(direction=NOG, speed=speed, occluder_width=0.37,
                                        noise_sigma=1.5, width=width, height=height)
            _same_render(params, seed, labels)
    assert kinds == {"hover", (True, True), (True, False), (False, True), (False, False)}


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: Brightness(np.nan),
        lambda: Brightness(np.inf),
        lambda: Gamma(np.nan),
        lambda: Gamma(np.inf),
        lambda: Gamma(0.0),
        lambda: Noise(np.nan),
        lambda: Noise(np.inf),
        lambda: Noise(-1.0),
    ],
    ids=["delta-nan", "delta-inf", "gamma-nan", "gamma-inf", "gamma-zero",
         "sigma-nan", "sigma-inf", "sigma-negative"],
)
def test_invalid_photometric_transform_rejected(make):
    seq = synthesize_gesture(_params(), seed=0)
    with pytest.raises(InvalidParams):
        augment(seq, make())


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


@pytest.mark.parametrize("seed", [-1, None])
def test_a_noise_seed_that_is_not_a_seed_is_refused_when_made(seed):
    with pytest.raises(InvalidParams, match="seed"):
        Noise(3.0, seed=seed)


@pytest.mark.parametrize("seed", [-1, None])
def test_a_render_seed_that_is_not_a_seed_is_refused(seed):
    with pytest.raises(InvalidParams, match="seed"):
        synthesize_gesture(_params(), seed=seed)


def test_a_negative_rotation_turns_counter_clockwise():
    seq = synthesize_gesture(_params(), seed=0)
    left, right = augment(seq, Rotate(-1)), augment(seq, Rotate(3))
    assert left.frames.tobytes() == right.frames.tobytes()
    assert left.annotations == right.annotations
    assert gesture_label_map(Rotate(-1)) == gesture_label_map(Rotate(3))


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


@pytest.mark.parametrize("kind, label", [
    (LABEL_KIND_GESTURE, 5), (LABEL_KIND_GESTURE, -2),
    (LABEL_KIND_PHASE, 17), (LABEL_KIND_PHASE, 21), (LABEL_KIND_PHASE, -3),
])
def test_augment_refuses_a_label_outside_its_kind(kind, label):
    # gesture 5 and phase 21 once leaked a ValueError, phase 17 passed through
    seq = synthesize_gesture(_params(), seed=0, labels=kind)
    seq.labels[-1] = label
    with pytest.raises(InvalidParams, match=f"{kind} label {label} outside"):
        augment(seq, MirrorX())


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
    assert (seq.width, seq.height) == (3, 3)


@pytest.mark.parametrize("shape", [(40,), (40, 9), (40, 3, 3, 1)])
def test_auto_annotate_needs_a_frame_stack(shape):
    # a 1-D or 2-D stack once escaped as an IndexError
    with pytest.raises(ShapeMismatch):
        auto_annotate(np.full(shape, 800.0), (L2R, R2L))


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


# SHA-256 of the saved ``build_corpus(40, seed=1101)`` (gesture labels) and
# ``build_corpus(4, seed=1101, label_kind="phase")``, as rendered before the
# corpus loop stopped calling synthesize_gesture and augment per instance.
_PINNED_LARGER_CORPUS = {
    (40, LABEL_KIND_GESTURE): "d1fcdace0b2f795f5c21363debed14ca4ef6a82383e04defedfa4f75fffefdd5",
    (4, LABEL_KIND_PHASE): "e0044b6127c32409ac1db8e97b85ac9a5ff30d05bf49369afc01d5533b4cb948",
}


@pytest.mark.parametrize("per_class, kind", list(_PINNED_LARGER_CORPUS))
def test_larger_saved_corpora_are_pinned(tmp_path, per_class, kind):
    path = tmp_path / "corpus.mgds"
    save_dataset(path, build_corpus(per_class, seed=1101, label_kind=kind))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _PINNED_LARGER_CORPUS[per_class, kind]


@pytest.mark.parametrize("kind", [LABEL_KIND_GESTURE, LABEL_KIND_PHASE])
@pytest.mark.parametrize("width, height", [(3, 3), (4, 3)])
def test_corpus_equals_render_then_augment_for_every_combination(kind, width, height):
    # every instance equals synthesize_gesture followed by augment with its
    # geometry, gamma and brightness, and the seeds together use every
    # geometry x gamma x brightness combination
    geometries = 6 if width == height else 3
    used = set()
    for seed in range(20, 25):
        corpus = build_corpus(8, seed=seed, width=width, height=height, label_kind=kind)
        want, combos = oracle_build_corpus(8, seed, width, height, kind)
        assert np.array_equal(corpus.frames, want.frames)
        assert corpus.frames.dtype == want.frames.dtype
        assert corpus.annotations == want.annotations
        used |= combos
    assert len(used) == geometries * 2 * 2


@pytest.mark.parametrize("direction", list(GestureClass))
@pytest.mark.parametrize("kw", [{}, {"speed": 18.0, "occluder_width": 0.3},
                                {"contrast": 0.0}, {"noise_sigma": 0.0, "width": 4}])
def test_label_mode_never_changes_the_frames(direction, kw):
    params = GestureSynthParams(direction=direction, **kw)
    gesture = synthesize_gesture(params, seed=31, labels=LABEL_KIND_GESTURE)
    phase = synthesize_gesture(params, seed=31, labels=LABEL_KIND_PHASE)
    assert gesture.frames.tobytes() == phase.frames.tobytes()
    assert gesture.frames.shape == phase.frames.shape


def test_negative_per_class_rejected():
    with pytest.raises(InvalidParams):
        build_corpus(-1, seed=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(per_class=2.5), dict(per_class=True), dict(per_class=-1),
        dict(width=3.0), dict(height=np.float64(3)), dict(width=0), dict(height=-2),
        dict(per_class=0, width=0), dict(per_class=0, height=2.0),
        dict(seed=-1), dict(seed=1.5), dict(seed=True), dict(seed="3"),
        dict(per_class=0, seed=-1), dict(label_kind="bogus"),
    ],
    ids=repr,
)
def test_bad_corpus_arguments_are_refused_before_any_instance_is_rendered(
    monkeypatch, kwargs
):
    # each once raised a TypeError or numpy's ValueError, rendered first,
    # or (with no instances) returned a stack of frames without pixels
    import microgest.synth as synth

    rendered = []
    render = synth._render_block

    def counting_render(*args, **kw):
        rendered.append(args)
        return render(*args, **kw)

    monkeypatch.setattr(synth, "_render_block", counting_render)
    with pytest.raises(InvalidParams):
        build_corpus(**{"per_class": 1, "seed": 1, **kwargs})
    assert rendered == []


def test_numpy_integer_corpus_arguments_give_the_same_corpus():
    want = build_corpus(2, seed=3, width=4, height=3)
    got = build_corpus(np.int64(2), seed=np.uint32(3), width=np.int32(4), height=np.int8(3))
    assert got.frames.tobytes() == want.frames.tobytes()
    assert got.frames.shape == want.frames.shape
    assert got.annotations == want.annotations


@pytest.mark.parametrize(
    "per_class, width, height, kind",
    [(30, 3, 3, LABEL_KIND_GESTURE), (80, 1, 1, LABEL_KIND_PHASE),
     (8, 4, 3, LABEL_KIND_PHASE), (2, 14, 14, LABEL_KIND_GESTURE),
     (1, 20, 20, LABEL_KIND_GESTURE)],
)
def test_a_corpus_over_several_blocks_equals_the_oracle(
    monkeypatch, per_class, width, height, kind
):
    # the pixel stages run once per block of instances; a 14x14 instance
    # may hold more pixels than a block, and a 20x20 one always does, so
    # it is a block of its own and the block buffer grows to hold it
    import microgest.synth as synth

    blocks = []
    stages = synth._pixel_stages

    def counting_stages(rows, block):
        blocks.append(len(block))
        return stages(rows, block)

    monkeypatch.setattr(synth, "_pixel_stages", counting_stages)
    corpus = build_corpus(per_class, seed=61, width=width, height=height, label_kind=kind)
    want, _ = oracle_build_corpus(per_class, 61, width, height, kind)
    assert corpus.frames.dtype == want.frames.dtype
    assert corpus.frames.shape == want.frames.shape
    assert corpus.frames.tobytes() == want.frames.tobytes()
    assert corpus.annotations == want.annotations
    assert len(blocks) > 1 and sum(blocks) == 5 * per_class
    if width * height * 100 > _BLOCK_PIXELS:
        assert blocks == [1] * (5 * per_class)


def test_power_with_a_per_frame_exponent_equals_the_scalar_call():
    # _pixel_stages raises a whole block of instances to their Gamma in one
    # call; each instance must get the bits of np.power(frames, gamma)
    rng = np.random.default_rng(62)
    for height, width in [(1, 1), (3, 3), (4, 3), (2, 5), (14, 14)]:
        lengths = rng.integers(1, 140, 25)
        exponents = rng.uniform(0.88, 1.15, 25)
        values = rng.integers(0, ADC_MAX + 1, (lengths.sum(), height, width)) / ADC_MAX
        block = values.reshape(len(values), -1).copy()
        np.power(block, np.repeat(exponents, lengths)[:, None], out=block)
        start = 0
        for n, gamma in zip(lengths, exponents):
            one = values[start : start + n].copy()
            np.power(one, float(gamma), out=one)
            assert block[start : start + n].tobytes() == one.tobytes()
            start += n


def test_unit_gamma_and_zero_brightness_leave_every_adc_value_unchanged():
    # frames without Gamma or Brightness go through those stages with the
    # exponent 1.0 and a zero shift, among frames that have them
    adc = np.arange(ADC_MAX + 1, dtype=float)
    rows = np.stack([adc, adc[::-1], adc, adc[::-1]])
    rows /= ADC_MAX
    np.power(rows, np.array([1.0, 1.0, 1.1, 0.9])[:, None], out=rows)
    rows *= ADC_MAX
    np.clip(np.rint(rows), 0, ADC_MAX, out=rows)
    rows += np.array([0.0, 0.0, 3.5, -2.0])[:, None]
    np.clip(np.rint(rows), 0, ADC_MAX, out=rows)
    assert np.array_equal(rows[0], adc)
    assert np.array_equal(rows[1], adc[::-1])


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
