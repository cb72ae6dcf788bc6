"""Normalization, rolling statistics, feature vectors, annotated streams."""

import numpy as np
import pytest
from conftest import oracle_stream_features
from hypothesis import given, settings, strategies as st

from microgest.errors import InvalidParams, MicrogestError, PixelOutOfRange, ShapeMismatch
from microgest.features import (
    _STATS_BLOCK,
    ADC_MAX,
    AnnotatedSequence,
    Annotation,
    stream_features,
)
from microgest.model_io import save_dataset
from microgest.synth import build_corpus


def _plain(frame):
    """The normalized pixels of one frame, through the whole-stack route."""
    return stream_features(np.asarray([frame]), with_stats=False)[0]


def _tracks(samples):
    """The ``(T, 3)`` avg/min/max tracks of a 1-pixel stream: with one pixel
    the appended means are the tracks themselves."""
    frames = np.asarray(samples).reshape(-1, 1, 1)
    return stream_features(frames, with_stats=True)[:, 1:]


def test_normalize_divides_by_1024():
    out = _plain([[0, 512], [1023, 256]])
    assert np.array_equal(out, [0.0, 0.5, 1023.0 / 1024.0, 0.25])


def test_normalize_never_reaches_one():
    out = _plain([[ADC_MAX]])
    assert out[0] < 1.0


def test_normalize_is_row_major():
    out = _plain([[1, 2], [3, 4]])
    assert np.array_equal(out * 1024.0, [1.0, 2.0, 3.0, 4.0])


def test_stream_features_without_stats_are_the_normalized_pixels_of_each_frame():
    frames = np.arange(24).reshape(2, 3, 4) * 40
    batch = stream_features(frames, with_stats=False)
    assert batch.shape == (2, 12)
    assert batch.tobytes() == oracle_stream_features(frames)[:, :12].tobytes()


def test_rolling_first_sample_initializes_all_tracks():
    for level, want in ((512, 0.5), (256, 0.25), (128, 0.125), (0, 0.0)):
        assert _tracks([level]).tolist() == [[want] * 3]


def test_rolling_update_formulas_hand_computed():
    # the fixed alpha of 0.99, one pixel: avg = min = max = 0.5, then the
    # samples 0.25 and 0.5
    tracks = _tracks([512, 1024 // 4, 512])
    # avg' = .99*.5 + .01*.25 = .4975
    # min' = min(.25, .99*.5 + .01*.5) = .25   (uses avg from before the update)
    # max' = max(.25, .99*.5 + .01*.5) = .5
    assert tracks[1] == pytest.approx([0.4975, 0.25, 0.5])
    # uses avg_prev = .4975:
    # min' = min(.5, .99*.25 + .01*.4975) = .252475
    # max' = max(.5, .99*.5  + .01*.4975) = .5
    # avg' = .99*.4975 + .01*.5 = .497525
    assert tracks[2] == pytest.approx([0.497525, 0.252475, 0.5])


def test_rolling_constant_stream_is_a_fixed_point():
    out = stream_features(np.full((50, 2, 2), 700), with_stats=True)
    assert np.allclose(out[:, 4:], 700.0 / 1024.0)


def test_stream_features_with_stats_append_three_aggregates():
    frames = np.full((1, 3, 3), 512)
    feats = stream_features(frames, with_stats=True)
    assert feats.shape == (1, 12)
    assert np.array_equal(feats[:, :9], stream_features(frames, with_stats=False))
    # constant stream: all three aggregates equal the pixel level
    assert np.allclose(feats[:, 9:], 0.5)


@given(
    st.lists(
        st.lists(st.integers(0, ADC_MAX), min_size=4, max_size=4),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100)
def test_rolling_bounds_and_determinism(stream):
    # envelopes stay ordered and inside [0, 1) at every frame of every
    # pixel's own stream; replay reproduces bit-for-bit
    for pixel in np.array(stream).T:
        tracks = _tracks(pixel)
        avg, lo, hi = tracks.T
        assert np.all(lo <= avg + 1e-12)
        assert np.all(avg <= hi + 1e-12)
        assert np.all(lo >= 0.0)
        assert np.all(hi < 1.0)
        assert _tracks(pixel).tobytes() == tracks.tobytes()
    frames = np.array(stream).reshape(-1, 2, 2)
    first = stream_features(frames, with_stats=True)
    assert stream_features(frames, with_stats=True).tobytes() == first.tobytes()


def test_stream_features_equal_the_per_frame_oracle_bit_for_bit():
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
            want = oracle_stream_features(frames)
            got = stream_features(frames, with_stats=True)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            plain = stream_features(frames, with_stats=False)
            assert plain.tobytes() == want[:, : side * side].tobytes()


def test_rolling_step_at_the_pixel_extremes_equals_the_per_frame_oracle():
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
        want = oracle_stream_features(frames)
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


@pytest.mark.parametrize("call", [
    lambda: stream_features(np.zeros((3, 0, 3)), True),  # once "Mean of empty slice"
    lambda: stream_features(np.zeros((0, 3, 0)), True),
], ids=["stream-no-pixels", "stream-empty-no-pixels"])
def test_stream_features_of_frames_without_pixels_are_refused(call):
    with pytest.raises(ShapeMismatch):
        call()


def test_stream_features_of_a_frame_of_another_shape_are_refused():
    # the stream's statistics are per pixel, so every frame must hold the same pixels
    frames = [np.zeros((3, 3), int)] * 5 + [np.zeros((4, 4), int)]
    for stream in (frames, frames[::-1]):
        for with_stats in (True, False):
            with pytest.raises(ShapeMismatch):
                stream_features(stream, with_stats)


def test_rolling_stats_keep_a_positive_max_track():
    avg, lo, hi = _tracks([0, 0, 1023, 0]).T
    assert (hi >= avg).all() and (avg >= lo).all()
    assert not np.signbit(hi).any()


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


def test_annotated_sequence_check_holds_pixels_to_the_adc_range():
    for bad in (ADC_MAX + 1, -1):
        seq = AnnotatedSequence(width=2, height=1, frames=np.array([[[0, bad]]]))
        with pytest.raises(PixelOutOfRange):
            seq.check()
    AnnotatedSequence(width=2, height=1, frames=np.array([[[0, ADC_MAX]]])).check()
    AnnotatedSequence(width=2, height=1, frames=np.array([[[0.0, 1023.0]]])).check()  # whole floats pass


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
