"""Normalization, rolling statistics, feature vectors, annotated streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microgest.errors import InvalidParams, MicrogestError, PixelOutOfRange, ShapeMismatch
from microgest.features import (
    _STATS_BLOCK,
    ADC_MAX,
    ROLLING_ALPHA,
    AnnotatedSequence,
    Annotation,
    Image,
    RollingStats,
    build_features,
    normalize,
    stream_features,
    update_rolling,
)
from microgest.model_io import save_dataset
from microgest.synth import build_corpus


def _img(values):
    arr = np.asarray(values)
    return Image(arr.shape[1], arr.shape[0], arr)


def test_image_validates_shape():
    with pytest.raises(ShapeMismatch):
        Image(3, 3, np.zeros((2, 3)))


def test_image_validates_pixel_range():
    for bad in (1024, -1, np.nan, np.inf, 2.5):
        with pytest.raises(PixelOutOfRange):
            _img([[0, bad]])
    assert _img([[0.0, 1023.0]]).pixels.max() == ADC_MAX  # whole floats pass


def test_normalize_divides_by_1024():
    out = normalize(_img([[0, 512], [1023, 256]]))
    assert np.array_equal(out, [0.0, 0.5, 1023.0 / 1024.0, 0.25])


def test_normalize_never_reaches_one():
    out = normalize(_img([[ADC_MAX]]))
    assert out[0] < 1.0


def test_normalize_is_row_major():
    out = normalize(_img([[1, 2], [3, 4]]))
    assert np.array_equal(out * 1024.0, [1.0, 2.0, 3.0, 4.0])


def test_stream_features_without_stats_matches_per_image_normalize():
    frames = np.arange(24).reshape(2, 3, 4) * 40
    batch = stream_features(frames, with_stats=False)
    for t in range(2):
        assert np.array_equal(batch[t], normalize(_img(frames[t])))


def test_rolling_first_sample_initializes_all_tracks():
    stats = RollingStats()
    assert not stats.initialized
    update_rolling(stats, _img([[512, 256], [128, 0]]))
    want = np.array([0.5, 0.25, 0.125, 0.0])
    assert np.array_equal(stats.avg, want)
    assert np.array_equal(stats.min, want)
    assert np.array_equal(stats.max, want)


def test_rolling_update_formulas_hand_computed():
    # the fixed alpha of 0.99, one pixel
    stats = RollingStats()
    update_rolling(stats, _img([[512]]))  # avg = min = max = 0.5
    update_rolling(stats, _img([[1024 // 4]]))  # sample 0.25
    # avg' = .99*.5 + .01*.25 = .4975
    # min' = min(.25, .99*.5 + .01*.5) = .25   (uses avg from before the update)
    # max' = max(.25, .99*.5 + .01*.5) = .5
    assert stats.avg[0] == pytest.approx(0.4975)
    assert stats.min[0] == pytest.approx(0.25)
    assert stats.max[0] == pytest.approx(0.5)

    update_rolling(stats, _img([[512]]))  # sample 0.5
    # uses avg_prev = .4975:
    # min' = min(.5, .99*.25 + .01*.4975) = .252475
    # max' = max(.5, .99*.5  + .01*.4975) = .5
    # avg' = .99*.4975 + .01*.5 = .497525
    assert stats.min[0] == pytest.approx(0.252475)
    assert stats.max[0] == pytest.approx(0.5)
    assert stats.avg[0] == pytest.approx(0.497525)


def test_rolling_constant_stream_is_a_fixed_point():
    stats = RollingStats()
    for _ in range(50):
        update_rolling(stats, _img([[700, 700], [700, 700]]))
    level = 700.0 / 1024.0
    assert np.allclose(stats.avg, level)
    assert np.allclose(stats.min, level)
    assert np.allclose(stats.max, level)


def test_build_features_without_stats_is_normalized_pixels():
    img = _img(np.arange(9).reshape(3, 3) * 100)
    assert np.array_equal(build_features(img), normalize(img))
    assert build_features(img).shape == (9,)


def test_build_features_with_stats_appends_three_aggregates():
    img = _img(np.full((3, 3), 512))
    stats = update_rolling(RollingStats(), img)
    feats = build_features(img, stats)
    assert feats.shape == (12,)
    assert np.array_equal(feats[:9], normalize(img))
    # constant stream: all three aggregates equal the pixel level
    assert np.allclose(feats[9:], 0.5)


def test_build_features_requires_initialized_stats():
    with pytest.raises(InvalidParams):
        build_features(_img([[0]]), RollingStats())


@given(
    st.lists(
        st.lists(st.integers(0, ADC_MAX), min_size=4, max_size=4),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100)
def test_rolling_bounds_and_determinism(stream):
    # envelopes stay ordered and inside [0, 1); replay reproduces bit-for-bit
    stats = RollingStats()
    for row in stream:
        update_rolling(stats, _img(np.array(row).reshape(2, 2)))
    assert np.all(stats.min <= stats.avg + 1e-12)
    assert np.all(stats.avg <= stats.max + 1e-12)
    assert np.all(stats.min >= 0.0)
    assert np.all(stats.max < 1.0)

    replay = RollingStats()
    for row in stream:
        update_rolling(replay, _img(np.array(row).reshape(2, 2)))
    assert np.array_equal(replay.avg, stats.avg)
    assert np.array_equal(replay.min, stats.min)
    assert np.array_equal(replay.max, stats.max)


def _per_frame_features(frames):
    """Features the way a streaming caller built them, one image at a time:
    a fresh default :class:`RollingStats` and one 1-D mean per track.  The
    tracks must equal the recursion of the :class:`RollingStats` docstring,
    stepped here on its own, bit for bit."""
    stats = RollingStats()
    rows = []
    a = ROLLING_ALPHA
    for t, frame in enumerate(frames):
        image = _img(frame)
        update_rolling(stats, image)
        s = normalize(image)
        if t == 0:
            avg, lo, hi = s, s, s
        else:
            avg, lo, hi = (
                a * avg + (1 - a) * s,
                np.minimum(s, a * lo + (1 - a) * avg),
                np.maximum(s, a * hi + (1 - a) * avg),
            )
        for want, got in ((avg, stats.avg), (lo, stats.min), (hi, stats.max)):
            assert want.tobytes() == got.tobytes()
        means = [np.mean(stats.avg), np.mean(stats.min), np.mean(stats.max)]
        row = np.concatenate([normalize(image), means])
        assert build_features(image, stats).tobytes() == row.tobytes()
        rows.append(row)
    width = frames.shape[1] * frames.shape[2] + 3
    return np.stack(rows) if rows else np.zeros((0, width))


def test_stream_features_equal_per_frame_features_bit_for_bit():
    # The appended means are taken over the rows of a (3, n) track stack,
    # and the whole-stream path over a block of such stacks at once; a numpy
    # whose row reduction sums differently from a lone vector's must fail
    # here.  Lengths cover no frame, one frame, and the edges of the blocks
    # the tracks carry across (_STATS_BLOCK is 256).
    assert _STATS_BLOCK == 256
    rng = np.random.default_rng(71)
    for side in (1, 3, 8):
        for length in (0, 1, 2, 255, 256, 257, 300, 512, 513, 700):
            frames = rng.integers(0, ADC_MAX + 1, size=(length, side, side))
            frames = frames.astype(np.uint16)
            want = _per_frame_features(frames)
            got = stream_features(frames, with_stats=True)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            plain = stream_features(frames, with_stats=False)
            assert plain.tobytes() == want[:, : side * side].tobytes()


def test_rolling_step_at_the_pixel_extremes_equals_per_frame_features():
    # 0 and 1023 are the signed-zero and the extreme cases of the negated
    # max track: a stream resting at 0 keeps every track at zero, whose
    # mean must come back +0, not -0
    rng = np.random.default_rng(5)
    for frames in (
        np.zeros((300, 3, 3), int),
        np.full((300, 3, 3), ADC_MAX),
        rng.choice([0, ADC_MAX], size=(600, 3, 3)),
        np.concatenate([np.full((20, 2, 2), ADC_MAX), np.zeros((280, 2, 2), int)]),
    ):
        want = _per_frame_features(frames)
        got = stream_features(frames, with_stats=True)
        assert got.tobytes() == want.tobytes()
    assert not np.signbit(stream_features(np.zeros((3, 3, 3)), True)).any()


def test_stream_features_stay_within_their_memory_bound():
    # the recursion holds one block of frames' tracks and addends (three
    # rows each) and (s, -s) bounds (two rows), not a copy per frame; it
    # peaked 187 KB over the output on this 1,681-frame corpus (3x3)
    import tracemalloc

    frames = build_corpus(4, seed=3, label_kind="phase").frames
    stream_features(frames, with_stats=True)  # warm caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = stream_features(frames, with_stats=True)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + _STATS_BLOCK * 8 * 9 * 8 + 65_536


def _stats3():
    return update_rolling(RollingStats(), _img(np.zeros((3, 3), int)))


@pytest.mark.parametrize("call", [
    lambda: update_rolling(_stats3(), _img(np.zeros((4, 4), int))),  # once a broadcast ValueError
    lambda: update_rolling(RollingStats(avg=np.zeros(2)), _img(np.zeros((3, 3), int))),
    lambda: update_rolling(RollingStats(avg=np.zeros(9), min=np.zeros(9), max="x" * 9),
                           _img(np.zeros((3, 3), int))),
    lambda: build_features(_img(np.zeros((4, 4), int)), _stats3()),  # once 19 features
    lambda: build_features(_img(np.zeros((3, 3), int)), RollingStats(avg=np.zeros(9))),
    lambda: stream_features(np.zeros((3, 0, 3)), True),  # once "Mean of empty slice"
    lambda: stream_features(np.zeros((0, 3, 0)), True),
], ids=["update-4x4", "update-missing-tracks", "update-text-track", "build-4x4",
        "build-missing-tracks", "stream-no-pixels", "stream-empty-no-pixels"])
def test_rolling_statistics_of_another_size_are_refused(call):
    with pytest.raises(ShapeMismatch):
        call()


def test_rolling_stats_keep_a_positive_max_track():
    stats = _stats3()
    for level in (0, 1023, 0):
        update_rolling(stats, _img(np.full((3, 3), level)))
    assert (stats.max >= stats.avg).all() and (stats.avg >= stats.min).all()
    assert not np.signbit(stats.max).any()


# --- annotated streams -------------------------------------------------------

def test_annotated_sequence_validates_frame_shape():
    with pytest.raises(ShapeMismatch):
        AnnotatedSequence(width=3, height=3, frames=np.zeros((5, 2, 3)))


def test_annotated_sequence_rejects_unknown_label_kind():
    with pytest.raises(InvalidParams):
        AnnotatedSequence(
            width=1, height=1, frames=np.zeros((1, 1, 1)), label_kind="other"
        )


def test_annotated_sequence_check_catches_bad_pixels():
    seq = AnnotatedSequence(
        width=1, height=1, frames=np.full((2, 1, 1), 2000, dtype=np.int32)
    )
    with pytest.raises(PixelOutOfRange):
        seq.check()
    for bad in (np.nan, np.inf, 2.5, 1023.5):
        seq = AnnotatedSequence(width=1, height=1, frames=np.array([[[0.0]], [[bad]]]))
        with pytest.raises(PixelOutOfRange):
            seq.check()


def test_annotated_sequence_check_catches_bad_annotation_frame():
    seq = AnnotatedSequence(
        width=1,
        height=1,
        frames=np.zeros((2, 1, 1)),
        label_frames=[5],
        labels=[0],
    )
    with pytest.raises(InvalidParams):
        seq.check()


def test_annotated_sequence_labels_are_two_int64_arrays():
    seq = AnnotatedSequence(width=1, height=1, frames=np.zeros((4, 1, 1)),
                            label_frames=np.array([3, 1], dtype=np.uint8),
                            labels=[np.int32(2), 0])
    for array, want in ((seq.label_frames, [3, 1]), (seq.labels, [2, 0])):
        assert array.dtype == np.int64 and array.tolist() == want
    assert seq.annotations == [Annotation(3, 2), Annotation(1, 0)]
    with pytest.raises(AttributeError):
        seq.annotations = []
    with pytest.raises(TypeError):
        AnnotatedSequence(width=1, height=1, frames=np.zeros((4, 1, 1)), annotations=[])
    empty = AnnotatedSequence(width=1, height=1, frames=np.zeros((4, 1, 1)))
    assert empty.labels.dtype == np.int64 and empty.annotations == []


@pytest.mark.parametrize("frames, labels", [
    ([True], [0]), ([1], [0 == 0]), ([1, True], [0, 0]), (np.array([True]), [0]),
    ([3.9], [0]), ([1], [3.9]), (np.array([1.0]), [0]), (["1"], [0]), ([None], [0]),
    ([2**63], [0]), ([1], [2**70]), ([-(2**63) - 1], [0]),
    (np.array([2**63], dtype=np.uint64), [0]),
    ([0, 1], [0]), ([[0]], [[0]]), ([[0], [0, 1]], [0, 0]), (1, 0),
], ids=["bool-frame", "bool-label", "bool-among-ints", "bool-array", "float", "float-label",
        "float-array", "text", "null", "2**63", "2**70", "below-int64", "uint64-2**63",
        "unequal", "2-d", "ragged", "scalar"])
def test_annotated_sequence_refuses_labels_that_are_not_int64_values(frames, labels):
    # a cast would truncate 3.9 to 3 and take a bool for 0 or 1
    with pytest.raises(MicrogestError):
        AnnotatedSequence(width=1, height=1, frames=np.zeros((4, 1, 1)),
                          label_frames=frames, labels=labels)


@pytest.mark.parametrize("name, rebind", [
    ("label_frames", lambda _: [5]),
    ("labels", lambda _: [1.5]),
    ("labels", lambda array: array.astype(float)),
    ("label_frames", lambda array: array[:, None]),
], ids=["list", "float-list", "float-array", "2-d"])
def test_saving_refuses_label_arrays_re_bound_after_construction(tmp_path, name, rebind):
    ds = build_corpus(1, seed=1)
    setattr(ds, name, rebind(getattr(ds, name)))
    with pytest.raises(MicrogestError):
        save_dataset(tmp_path / "ds.mgds", ds)
    assert not (tmp_path / "ds.mgds").exists()


def test_annotated_sequences_compare_by_content():
    a, b = build_corpus(1, seed=1), build_corpus(1, seed=1)
    assert a == b and not a != b
    b.labels[-1] += 1
    assert a != b
    b.labels[-1] -= 1
    b.frames = b.frames.copy()
    b.frames[0, 0, 0] += 1
    assert a != b
    assert a != "corpus"


@pytest.mark.parametrize("fps", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_annotated_sequence_rejects_a_bad_fps(fps):
    with pytest.raises(InvalidParams):
        AnnotatedSequence(width=1, height=1, frames=np.zeros((2, 1, 1)), fps=fps)
