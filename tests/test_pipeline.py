"""Candidate detection, temporal scaling, FSM events, accuracy metric."""

from contextlib import contextmanager

import numpy as np
import pytest
from conftest import (
    OracleCandidateDetector,
    oracle_extract_candidates,
    oracle_label_candidates,
    oracle_match_events,
    oracle_scale_frames,
)
from hypothesis import example, given, settings, strategies as st

from microgest import pipeline
from microgest.errors import InvalidParams, RecurrentLayerPresent, ShapeMismatch, TooShort
from microgest.features import Annotation
from microgest.inference import run_ffnn
from microgest.model import parse_arch, zero_params
from microgest.pipeline import (
    Candidate,
    CandidateDetector,
    FfnnRecognizer,
    GestureClass,
    N_PHASE_STATES,
    candidate_features,
    extract_candidates,
    fsm_postprocess,
    label_candidates,
    last_phase_state,
    match_events,
    phase_events,
    phase_state,
    scale_candidate,
    _BLOCK_PIXELS,
    _candidate_rows,
    _considered,
    _frame_means,
    _resample,
)
from microgest.synth import build_corpus
from microgest.training import init_params


def _stream(*segments):
    """Concatenate (length, level) segments into a (T, 3, 3) stream."""
    parts = [np.full((n, 3, 3), float(level)) for n, level in segments]
    return np.concatenate(parts)


# --- candidate detection -----------------------------------------------------

def test_constant_stream_yields_no_candidates():
    assert extract_candidates(_stream((60, 700))) == []


def test_twelve_frame_dip_yields_one_padded_candidate():
    # 15 steady frames, 12 frames dimmed by 20 percent, steady again
    frames = _stream((15, 800), (12, 640), (13, 800))
    cands = extract_candidates(frames)
    assert len(cands) == 1
    cand = cands[0]
    assert len(cand) == 22  # 5 context + 12 dip + 5 context
    assert (cand.start_index, cand.end_index) == (10, 31)
    assert not cand.truncated
    assert np.array_equal(cand.frames, frames[10:32])


def test_candidates_are_views_of_the_stream():
    frames = _stream((20, 800), (12, 640), (30, 800), (100, 600), (20, 800)).astype(np.uint16)
    cands = extract_candidates(frames)
    assert len(cands) >= 2 and any(c.truncated for c in cands)
    for cand in cands:
        assert np.shares_memory(cand.frames, frames)
        assert np.array_equal(cand.frames, frames[cand.start_index : cand.end_index + 1])


def test_five_frame_dip_is_too_short():
    assert extract_candidates(_stream((15, 800), (5, 640), (20, 800))) == []


def test_shallow_dip_below_threshold_ignored():
    # 5 percent is below the 10 percent deviation threshold
    assert extract_candidates(_stream((15, 800), (12, 760), (13, 800))) == []


def test_brightness_rise_also_detected():
    cands = extract_candidates(_stream((15, 800), (12, 1000), (13, 800)))
    assert len(cands) == 1
    assert len(cands[0]) == 22


def test_long_run_truncated_at_capacity():
    cands = extract_candidates(_stream((20, 800), (100, 640), (10, 800)))
    assert len(cands) >= 1
    assert len(cands[0]) == 80
    assert cands[0].truncated
    for cand in cands:
        assert len(cand) <= 80


def test_multiple_dips_give_ordered_disjoint_candidates():
    frames = _stream(
        (20, 800), (12, 640), (30, 800), (15, 600), (30, 800), (10, 950), (20, 800)
    )
    cands = extract_candidates(frames)
    assert len(cands) == 3
    for a, b in zip(cands, cands[1:]):
        assert a.end_index < b.start_index
    for cand in cands:
        assert cand.end_index - cand.start_index + 1 == len(cand)


def test_shipped_min_run_drops_eight_counted_frames_and_keeps_nine():
    assert pipeline.DETECTOR_MIN_RUN == 9
    # a dip's first frame differs from the one before by a fifth: it is
    # parked, joins the run and is not counted
    assert extract_candidates(_stream((15, 800), (9, 640), (20, 800))) == []
    (cand,) = extract_candidates(_stream((15, 800), (10, 640), (20, 800)))
    assert (cand.start_index, cand.end_index, cand.truncated) == (10, 29, False)


def test_shipped_capacity_truncates_a_long_dip_at_eighty_frames():
    assert pipeline.DETECTOR_CAPACITY == 80
    cands = extract_candidates(_stream((20, 800), (100, 640), (10, 800)))
    # 5 frames of context, then the first 75 frames of the dip
    assert (cands[0].start_index, cands[0].end_index, cands[0].truncated) == (15, 94, True)
    assert all(len(cand) <= 80 for cand in cands)


def test_shipped_pad_gives_five_frames_of_trailing_context():
    assert pipeline.DETECTOR_PAD == 5
    # a dip of frames 15-26, then steady frames to the end
    (cand,) = extract_candidates(_stream((15, 800), (12, 640), (40, 800)))
    assert cand.end_index == 26 + 5 and cand.start_index == 15 - 5


def test_noisy_dips_equal_the_oracle():
    rng = np.random.default_rng(8)
    frames = _stream((20, 800), (12, 640), (25, 800), (14, 620), (20, 800))
    frames = frames + rng.normal(0.0, 1.0, frames.shape)  # stable-range noise
    assert _assert_detector_equals_oracle(frames, {})


def test_baseline_follows_steady_level():
    det = CandidateDetector()
    det._advance(_frame_means(_stream((200, 640))))
    assert det._rollavg == pytest.approx(640.0)


def test_run_open_at_stream_end_is_flushed():
    frames = _stream((15, 800), (12, 640))
    det = CandidateDetector()
    assert det._advance(_frame_means(frames)) == []
    assert len(det._close()) == 1
    assert len(extract_candidates(frames)) == 1


def _same_candidates(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.start_index, a.end_index, a.truncated) == (
            b.start_index, b.end_index, b.truncated
        )
        assert a.frames.dtype == b.frames.dtype
        assert a.frames.shape == b.frames.shape
        assert a.frames.tobytes() == b.frames.tobytes()


# Stream segments, each a level relative to the starting brightness: a steady
# stretch, a dip or rise held for the segment and entered and left through
# ``edge`` intermediate frames (each one parked), flicker whose consecutive
# means differ by a few percent (every frame is parked), and a slow drift.
_SEGMENT = st.tuples(
    st.sampled_from(["steady", "dip", "flicker", "drift"]),
    st.integers(1, 120),
    st.floats(0.5, 1.5),
    st.integers(0, 3),
)


def _dip_stream(segments, shape, dtype, seed):
    rng = np.random.default_rng(seed)
    levels = []
    for kind, length, factor, edge in segments:
        if kind == "steady":
            levels += [1.0] * length
        elif kind == "dip":
            ramp = list(np.linspace(1.0, factor, edge + 2)[1:-1])
            levels += ramp + [factor] * length + ramp[::-1]
        elif kind == "flicker":
            levels += [1.0 + 0.04 * (i % 2) for i in range(length)]
        else:
            levels += list(np.linspace(1.0, factor, length))
    frames = 700.0 * np.asarray(levels)[:, None, None] + rng.normal(
        0.0, 1.5, (len(levels),) + shape
    )
    if dtype == "uint16":
        return np.clip(np.rint(frames), 0, 1023).astype(np.uint16)
    return frames.astype(dtype)


@given(
    segments=st.lists(_SEGMENT, max_size=10),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    dtype=st.sampled_from(["uint16", "float64", "float32"]),
    seed=st.integers(0, 2**32 - 1),
    kwargs=st.fixed_dictionaries(
        {
            "min_run": st.integers(0, 14),
            "pad": st.integers(0, 8),
            "capacity": st.integers(1, 90),
        },
    ),
)
@settings(max_examples=150, deadline=None)
def test_detector_equals_the_frame_based_oracle(segments, shape, dtype, seed, kwargs):
    _assert_detector_equals_oracle(_dip_stream(segments, shape, dtype, seed), kwargs)


@contextmanager
def _detector_counts(kwargs):
    """The detector's frame counts patched to the oracle's ``kwargs``
    (``min_run``, ``pad``, ``capacity``); those not given keep their value."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in kwargs.items():
            patch.setattr(pipeline, f"DETECTOR_{name.upper()}", value)
        yield patch


def _assert_detector_equals_oracle(frames, kwargs):
    """The detector, its frame counts patched to ``kwargs``, against the
    frame-based oracle built with them: whole-stream extraction at the
    default block size and at one frame per block, and the state machine
    stepped one frame's mean at a time, each step completing the candidates
    that the oracle's push completes at that frame and leaving its
    baseline."""
    want = oracle_extract_candidates(frames, **kwargs)
    stack, oracle = np.asarray(frames), OracleCandidateDetector(**kwargs)

    def found(spans):
        return [Candidate(stack[first : last + 1], first, last, truncated)
                for first, last, truncated in spans]

    with _detector_counts(kwargs) as patch:
        _same_candidates(extract_candidates(frames), want)
        patch.setattr(pipeline, "_BLOCK_PIXELS", 1)
        _same_candidates(extract_candidates(frames), want)
        det = CandidateDetector()
        for t, frame in enumerate(stack):
            _same_candidates(found(det._advance(_frame_means(stack[t : t + 1]))),
                             oracle.push(frame))
            assert det._rollavg == oracle.baseline
        _same_candidates(found(det._close()), oracle.finish())
    return want


_TWO_DIPS = _stream((15, 800), (12, 640), (13, 800), (12, 640), (13, 800))
_FLICKER = np.concatenate(
    [_stream((10, 800))]
    + [_stream((1, 800), (1, 840))] * 60
    + [_stream((12, 600), (20, 800))]
)


@pytest.mark.parametrize(
    "frames, kwargs",
    [
        (_stream((15, 800), (12, 640)), {}),
        (_stream((15, 800), (12, 640), (3, 800)), {}),
        (_TWO_DIPS, dict(capacity=20)),
        (_TWO_DIPS, dict(pad=2)),
        (_TWO_DIPS, dict(capacity=16)),
        (_FLICKER, dict(capacity=5)),
        (_FLICKER, dict(capacity=30)),
        (_FLICKER, {}),
    ],
    ids=[
        "ends-in-run",
        "ends-in-trailing-context",
        "trailing-context-fills-buffer",
        "parked-frame-completes-context",
        "run-fills-buffer",
        "flicker-beyond-small-capacity",
        "flicker-beyond-capacity",
        "flicker-beyond-default-capacity",
    ],
)
def test_detector_equals_the_oracle_on_window_edges(frames, kwargs):
    assert _assert_detector_equals_oracle(frames, kwargs)


def _block_edge_stream(shape, seed):
    """A steady stream over four of ``extract_candidates``'s blocks: a dip
    across the first block edge, a flicker stretch longer than the default
    capacity across the second, and an idle stretch longer than ``pad``
    and ``capacity`` across the third, between two dips."""
    edge = _BLOCK_PIXELS // (shape[0] * shape[1])
    levels = np.ones(3 * edge + 200)
    levels[edge - 8 : edge + 8] = 0.8
    levels[2 * edge - 60 : 2 * edge + 60 : 2] = 1.04
    levels[3 * edge - 150 : 3 * edge - 135] = 0.8
    levels[3 * edge + 100 : 3 * edge + 115] = 0.8
    frames = 700.0 * levels[:, None, None] + np.random.default_rng(seed).normal(
        0.0, 1.5, (len(levels),) + shape
    )
    return edge, np.clip(np.rint(frames), 0, 1023).astype(np.uint16)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3)])
@pytest.mark.parametrize("kwargs", [{}, dict(min_run=4, pad=7, capacity=30)])
def test_detector_equals_the_oracle_across_block_edges(shape, kwargs):
    edge, frames = _block_edge_stream(shape, seed=71)
    cands = _assert_detector_equals_oracle(frames, kwargs)
    spans = [(c.start_index, c.end_index) for c in cands]
    assert any(first < edge <= last for first, last in spans)  # the dip
    before = [last for _, last in spans if last < 3 * edge]
    after = [first for first, _ in spans if first >= 3 * edge - 100]
    assert max(before) < 3 * edge - 100 and min(after) > 3 * edge + 50  # the idle stretch


@given(
    segments=st.lists(_SEGMENT, max_size=10),
    block_pixels=st.integers(9, 300),
    seed=st.integers(0, 2**32 - 1),
    kwargs=st.fixed_dictionaries(
        {
            "min_run": st.integers(0, 11),
            "pad": st.integers(0, 11),
            "capacity": st.integers(1, 99),
        },
    ),
)
@example(
    segments=[("steady", 3, 1.0, 0), ("flicker", 40, 1.0, 0), ("dip", 30, 0.8, 2)],
    block_pixels=9, seed=0, kwargs=dict(min_run=2, pad=9, capacity=4),
)
@settings(max_examples=200, deadline=None)
def test_detector_walk_equals_the_oracle_for_blocks_of_any_size(
    segments, block_pixels, seed, kwargs
):
    # blocks of 1 to 33 frames of 3x3 pixels end in every state of the walk:
    # idle with parked frames, in a run and in trailing context
    frames = _dip_stream(segments, (3, 3), "uint16", seed)
    want = _assert_detector_equals_oracle(frames, kwargs)
    with _detector_counts(kwargs) as patch:
        patch.setattr(pipeline, "_BLOCK_PIXELS", block_pixels)
        _same_candidates(extract_candidates(frames), want)


def test_the_stability_rule_of_a_block_equals_that_of_each_frame():
    # the detector takes the rule over an array of means in one call, the
    # frame-based oracle over one frame's mean as Python floats
    rng = np.random.default_rng(72)
    prevs = np.concatenate([rng.uniform(0.0, 1023.0, 500), [0.0, 0.0, 700.0, 1e-300, 5.0]])
    means = np.concatenate([prevs[:500] * rng.uniform(0.98, 1.02, 500),
                            [0.0, 1e-300, 707.0, 0.0, 5.05]])
    block = _considered(means, prevs).tolist()
    assert block == [_considered(float(m), float(p)) for m, p in zip(means, prevs)]
    assert 0 < sum(block) < len(block)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_frames_of_infinite_or_nan_mean_match_the_oracle_without_a_warning(bad):
    # a block's stability rule subtracts infinite means from each other,
    # which numpy flags and Python floats do not
    frames = np.full((50, 2, 2), bad)
    frames[:10], frames[30:33] = 700.0, 650.0
    _assert_detector_equals_oracle(frames, {})


def _per_frame_means(frames):
    return np.array([float(np.asarray(f, dtype=float).mean()) for f in frames])


def test_whole_stack_means_equal_per_frame_means_bit_for_bit():
    # The detector compares means with thresholds, so a last-bit difference
    # can move a candidate; a numpy whose row reduction sums differently
    # from its whole-array reduction must fail here.
    rng = np.random.default_rng(201)
    stacks = [
        build_corpus(40, seed=201).frames,
        rng.integers(0, 1024, size=(50_000, 3, 3)).astype(np.uint16),
        rng.uniform(0.0, 1023.0, size=(50_000, 3, 3)),
        rng.uniform(0.0, 1023.0, size=(20_000, 3, 3)).astype(np.float32),
        rng.uniform(0.0, 1023.0, size=(50, 100, 100)).astype(np.float32),
        rng.uniform(0.0, 1023.0, size=(50, 1, 5000)),
        rng.uniform(0.0, 1023.0, size=(200, 7, 13)),
    ]
    for stack in stacks:
        assert _frame_means(stack).tobytes() == _per_frame_means(stack).tobytes()


@pytest.mark.parametrize("name", ["min_run", "pad", "capacity"])
@pytest.mark.parametrize("route", [CandidateDetector, extract_candidates])
def test_the_detector_frame_counts_are_no_arguments(route, name):
    # the counts are the module's DETECTOR_* constants, not settings
    args = () if route is CandidateDetector else (_stream((20, 800)),)
    with pytest.raises(TypeError):
        route(*args, **{name: 9})


def test_frames_without_pixels_are_a_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        extract_candidates(np.zeros((5, 0, 3)))


_CANDIDATE_MODEL = parse_arch("27-5softmax")

# a route that takes a stream of frames -> a call on a list of such frames
_FRAME_ROUTES = {
    "extract_candidates": extract_candidates,
    "FfnnRecognizer": lambda frames: FfnnRecognizer(
        _CANDIDATE_MODEL, zero_params(_CANDIDATE_MODEL), 3
    )(frames),
    "scale_candidate": lambda frames: scale_candidate(Candidate(frames, 0, 20), 3),
    "candidate_features": lambda frames: candidate_features(Candidate(frames, 0, 20)),
}


@pytest.mark.parametrize("route", _FRAME_ROUTES)
def test_a_frame_of_another_shape_is_a_shape_mismatch(route):
    # a stream's frames share one shape, wherever the odd one stands
    frames = [np.full((3, 3), 500)] * 20 + [np.full((3, 4), 500)]
    for stream in (frames, frames[::-1]):
        with pytest.raises(ShapeMismatch):
            _FRAME_ROUTES[route](stream)


def test_empty_stream_yields_no_candidates():
    assert extract_candidates(np.zeros((0, 3, 3))) == []


# --- temporal scaling --------------------------------------------------------

def test_scale_twenty_frames_is_identity():
    rng = np.random.default_rng(0)
    frames = rng.uniform(0, 1023, size=(20, 3, 3))
    cand = Candidate(frames=frames, start_index=7, end_index=26)
    scaled = scale_candidate(cand, 20)
    assert np.array_equal(scaled.frames, frames)
    assert (scaled.start_index, scaled.end_index) == (7, 26)


def test_scale_reproduces_fractional_interpolation_example():
    # sample 1 of 51 falls at t = 163/50 = 3.26 between frames worth 100 and 200:
    # 100 * (4 - 3.26) + 200 * (3.26 - 3) = 126
    frames = np.zeros((164, 1, 1))
    frames[3] = 100.0
    frames[4] = 200.0
    scaled = scale_candidate(Candidate(frames=frames, start_index=0, end_index=163), 51)
    assert scaled.frames[1][0, 0] == pytest.approx(126.0, abs=1e-9)


def test_scale_endpoints_are_preserved():
    frames = np.random.default_rng(1).uniform(0, 1000, size=(33, 2, 2))
    scaled = scale_candidate(Candidate(frames=frames, start_index=0, end_index=32), 20)
    assert np.allclose(scaled.frames[0], frames[0])
    assert np.allclose(scaled.frames[-1], frames[-1])


@pytest.mark.parametrize("truncated", [False, True])
def test_scale_keeps_the_span_and_truncation_of_a_candidate(truncated):
    frames = np.random.default_rng(4).uniform(0, 1023, size=(80, 3, 3))
    scaled = scale_candidate(Candidate(frames, 12, 91, truncated), 20)
    assert type(scaled) is Candidate and scaled.frames.shape == (20, 3, 3)
    assert (scaled.start_index, scaled.end_index, scaled.truncated) == (12, 91, truncated)
    bare = scale_candidate(frames, 20)
    assert (bare.start_index, bare.end_index, bare.truncated) == (0, 79, False)


def test_scale_matches_linear_interpolation_oracle():
    rng = np.random.default_rng(2)
    for length in (2, 3, 19, 20, 21, 39, 80):
        frames = rng.uniform(0, 1023, size=(length, 3, 3))
        scaled = scale_candidate(
            Candidate(frames=frames, start_index=0, end_index=length - 1), 20
        )
        times = np.arange(20) * (length - 1) / 19.0
        for r in range(3):
            for c in range(3):
                want = np.interp(times, np.arange(length), frames[:, r, c])
                assert np.max(np.abs(scaled.frames[:, r, c] - want)) < 1e-9


def test_scale_is_idempotent():
    frames = np.random.default_rng(3).uniform(0, 1023, size=(37, 3, 3))
    once = scale_candidate(Candidate(frames=frames, start_index=0, end_index=36), 20)
    twice = scale_candidate(once, 20)
    assert np.array_equal(once.frames, twice.frames)


def test_scale_rejects_single_frame():
    with pytest.raises(TooShort):
        scale_candidate(Candidate(frames=np.zeros((1, 3, 3)), start_index=0, end_index=0), 20)


@pytest.mark.parametrize("target", [1, 0, -3])
def test_scale_rejects_a_target_below_two_frames(target):
    cand = Candidate(frames=np.zeros((5, 3, 3)), start_index=0, end_index=4)
    with pytest.raises(InvalidParams):
        scale_candidate(cand, target)


@pytest.mark.parametrize("target", [2.5, 20.0, True, "20", None])
def test_scale_refuses_a_target_that_is_not_an_integer(target):
    # 2.5 once raised an IndexError from inside the interpolation
    cand = Candidate(frames=np.zeros((5, 3, 3)), start_index=0, end_index=4)
    with pytest.raises(InvalidParams, match="target"):
        scale_candidate(cand, target)


def test_scale_takes_a_numpy_integer_target():
    frames = np.random.default_rng(73).uniform(0, 1023, (37, 3, 3))
    want = scale_candidate(frames, 20).frames
    assert scale_candidate(frames, np.int64(20)).frames.tobytes() == want.tobytes()


@given(st.integers(2, 60), st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_scaled_values_stay_inside_input_envelope(length, seed):
    frames = np.random.default_rng(seed).uniform(0, 1023, size=(length, 2, 2))
    scaled = scale_candidate(
        Candidate(frames=frames, start_index=0, end_index=length - 1), 20
    )
    assert scaled.frames.shape == (20, 2, 2)
    assert scaled.frames.min() >= frames.min() - 1e-9
    assert scaled.frames.max() <= frames.max() + 1e-9


def test_scale_refuses_a_single_value():
    # a 0-d input once leaked an IndexError
    for value in (5.0, np.float64(5.0), Candidate(np.float64(5.0), 0, 0)):
        with pytest.raises(ShapeMismatch):
            scale_candidate(value, 3)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_stream_resampling_equals_each_candidate_rescaled_alone(data):
    # random spans of one stream, some exactly target frames long, in blocks
    # of one to many spans; every row must equal the lone rescale and the
    # sample-by-sample oracle bit for bit, and the feature rows of no spans
    # are an empty matrix of the same width
    target = data.draw(st.integers(2, 60), label="target")
    lengths = data.draw(
        st.lists(st.one_of(st.just(target), st.integers(2, 120)), max_size=20),
        label="lengths",
    )
    height, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shape = (max(lengths, default=0) + 30, height, width)
    if data.draw(st.booleans(), label="uint16"):
        frames = rng.integers(0, 1024, shape).astype(np.uint16)
    else:
        frames = rng.normal(500.0, 300.0, shape)
    starts = [int(rng.integers(0, shape[0] - n + 1)) for n in lengths]
    spans = [(s, s + n - 1) for s, n in zip(starts, lengths)]
    rows = _resample(frames, spans, target)
    assert rows.shape == (len(spans), target, height, width)
    cands = [Candidate(frames[s : e + 1], s, e) for s, e in spans]
    features = _candidate_rows(frames, cands, target)
    assert features.shape == (len(spans), target * height * width)
    assert _candidate_rows(frames, [], target).shape == (0, target * height * width)
    for (first, last), row, feats in zip(spans, rows, features):
        cand = Candidate(frames[first : last + 1].copy(), first, last)
        want = candidate_features(scale_candidate(cand, target))
        assert feats.tobytes() == want.tobytes()
        assert row.tobytes() == oracle_scale_frames(cand.frames, target).tobytes()


def test_stream_resampling_refuses_a_span_of_one_frame():
    with pytest.raises(TooShort):
        _resample(np.zeros((10, 3, 3)), [(0, 4), (6, 6)], 20)


# --- classification ----------------------------------------------------------

def _scaled(frames):
    return Candidate(frames=np.asarray(frames, dtype=float), start_index=0,
                     end_index=len(frames) - 1)


def test_candidate_features_flatten_and_normalize():
    frames = np.full((20, 3, 3), 512.0)
    feats = candidate_features(_scaled(frames))
    assert feats.shape == (180,)
    assert np.all(feats == 0.5)


def test_recognizer_ties_resolve_to_the_lowest_class():
    # zero params give every class the same output
    frames = build_corpus(2, seed=4).frames
    spec = parse_arch("180-8relu-5softmax")
    events = FfnnRecognizer(spec, zero_params(spec))(frames)
    assert [end for end, _ in events] == [c.end_index for c in extract_candidates(frames)]
    assert len(events) > 1
    assert {cls for _, cls in events} == {GestureClass.LEFT_TO_RIGHT}


@st.composite
def _candidate_archs(draw, target):
    """A candidate model over ``target`` frames of 3x3 pixels: one to three
    layers, hidden widths of 1 to 12, and one of the output kinds a
    classifier takes its argmax from."""
    hidden = draw(st.lists(st.tuples(st.integers(1, 12),
                                     st.sampled_from(["relu", "tanh", "sigmoid"])),
                           max_size=2))
    output = draw(st.sampled_from(["softmax", "approxsoftmax", "max"]))
    layers = [f"{n}{act}" for n, act in hidden] + [f"5{output}"]
    return parse_arch("-".join([str(target * 9)] + layers))


@given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.sampled_from([2, 10, 20]),
       st.booleans(), st.data())
@settings(max_examples=25, deadline=None)
def test_recognizer_block_events_equal_a_per_candidate_loop(
    seed, per_class, target, uint16, data
):
    # the recognizer's one network pass over a stream's rows against
    # run_ffnn on each candidate's row alone, resampled by the oracle; from
    # 2 per class at 10 and 20 frames the rows span several resampling blocks
    frames = build_corpus(per_class, seed=seed).frames
    if not uint16:
        frames = frames + np.random.default_rng(seed).uniform(-0.5, 0.5, frames.shape)
    spec = data.draw(_candidate_archs(target))
    params = init_params(spec, seed)
    cands = extract_candidates(frames)
    outs, want = [], []
    for cand in cands:
        scaled = Candidate(
            oracle_scale_frames(cand.frames, target), cand.start_index, cand.end_index
        )
        outs.append(run_ffnn(spec, params, candidate_features(scaled)))
        cls = int(np.argmax(outs[-1]))
        if cls != GestureClass.NO_GESTURE:
            want.append((cand.end_index, GestureClass(cls)))
    block = run_ffnn(spec, params, _candidate_rows(frames, cands, target))
    assert block.tobytes() == np.array(outs).reshape(block.shape).tobytes()
    assert FfnnRecognizer(spec, params, target)(frames) == want


def test_recognizer_makes_one_network_call_per_stream(monkeypatch):
    calls = []

    def counted(spec, params, features):
        calls.append(np.shape(features))
        return run_ffnn(spec, params, features)

    monkeypatch.setattr(pipeline, "run_ffnn", counted)
    frames = build_corpus(2, seed=4).frames
    spec = parse_arch("180-8relu-5softmax")
    FfnnRecognizer(spec, init_params(spec, 0))(frames)
    n = len(extract_candidates(frames))
    assert n > 1 and calls == [(n, 180)]


@pytest.mark.parametrize("target", [1, 2.5, -3, True, None])
def test_recognizer_refuses_a_bad_target_on_construction(target):
    # these once passed silently on a stream without candidates
    spec = parse_arch("180-8relu-5softmax")
    with pytest.raises(InvalidParams, match="target"):
        FfnnRecognizer(spec, init_params(spec, 0), target)


@pytest.mark.parametrize("arch, error", [
    ("180-8relu-7softmax", ShapeMismatch),  # outputs are not the gesture classes
    ("90-8relu-5softmax", ShapeMismatch),  # 20 frames of 3x3 are 180 features
    ("180-r8-5softmax", RecurrentLayerPresent),
])
def test_recognizer_checks_its_model_against_the_stream_on_entry(arch, error):
    # a steady stream has no candidates, so nothing reaches the network
    spec = parse_arch(arch)
    recognizer = FfnnRecognizer(spec, init_params(spec, 0), 20)
    with pytest.raises(error):
        recognizer(_stream((60, 700)))


# --- FSM events --------------------------------------------------------------

def _onehot_walk(states):
    outs = []
    for s in states:
        v = np.zeros(N_PHASE_STATES)
        v[s] = 1.0
        outs.append(v)
    return outs


def test_phase_state_numbering():
    assert phase_state(GestureClass.LEFT_TO_RIGHT, 1) == 1
    assert last_phase_state(GestureClass.LEFT_TO_RIGHT) == 4
    assert last_phase_state(GestureClass.RIGHT_TO_LEFT) == 8
    assert last_phase_state(GestureClass.TOP_TO_BOTTOM) == 12
    assert last_phase_state(GestureClass.BOTTOM_TO_TOP) == 16
    # a deliberate error, not a bare ValueError
    for gesture, phase in ((GestureClass.NO_GESTURE, 1), (GestureClass.LEFT_TO_RIGHT, 0),
                           (GestureClass.LEFT_TO_RIGHT, 5)):
        with pytest.raises(InvalidParams):
            phase_state(gesture, phase)


def test_fsm_emits_on_completed_walk():
    events = fsm_postprocess(_onehot_walk([0, 1, 2, 3, 4, 0]))
    assert events == [(5, GestureClass.LEFT_TO_RIGHT)]


def test_fsm_emits_each_gesture_from_its_final_state():
    for gesture in (
        GestureClass.LEFT_TO_RIGHT,
        GestureClass.RIGHT_TO_LEFT,
        GestureClass.TOP_TO_BOTTOM,
        GestureClass.BOTTOM_TO_TOP,
    ):
        walk = [0, last_phase_state(gesture), 0]
        events = fsm_postprocess(_onehot_walk(walk))
        assert events == [(2, gesture)]


def test_fsm_ignores_aborted_walks():
    assert fsm_postprocess(_onehot_walk([0, 1, 2, 0])) == []
    assert fsm_postprocess(_onehot_walk([0, 1, 2, 3, 0])) == []


def test_fsm_idle_stream_emits_nothing():
    assert fsm_postprocess(_onehot_walk([0] * 30)) == []


def test_fsm_no_emission_without_return_to_idle():
    assert fsm_postprocess(_onehot_walk([0, 1, 2, 3, 4])) == []


def test_fsm_emits_multiple_gestures_in_order():
    walk = [0, 1, 2, 3, 4, 0, 0, 13, 14, 15, 16, 0]
    events = fsm_postprocess(_onehot_walk(walk))
    assert events == [
        (5, GestureClass.LEFT_TO_RIGHT),
        (11, GestureClass.BOTTOM_TO_TOP),
    ]


def test_phase_events_of_a_walk_equal_the_fsm_on_its_one_hot_outputs():
    walk = [0, 1, 2, 3, 4, 0, 0, 13, 14, 15, 16, 0, 8, 0, 5, 6, 0, 12]
    assert phase_events(walk) == fsm_postprocess(_onehot_walk(walk)) == [
        (5, GestureClass.LEFT_TO_RIGHT),
        (11, GestureClass.BOTTOM_TO_TOP),
        (13, GestureClass.RIGHT_TO_LEFT),
    ]
    assert phase_events(np.array([0, 12, 0])) == [(2, GestureClass.TOP_TO_BOTTOM)]
    assert phase_events([]) == []


def test_phase_events_need_a_last_phase_state_then_idle():
    # -1 (an unlabelled frame) and 20 are neither a last phase state nor idle
    assert phase_events([0, 4, -1, 0, 8, 0]) == [(5, GestureClass.RIGHT_TO_LEFT)]
    assert phase_events([0, 20, 0, 16, -1]) == []


@pytest.mark.parametrize("states, error", [
    (np.zeros((2, 2), int), ShapeMismatch),  # once "unhashable type"
    (None, ShapeMismatch),  # once a TypeError
    (3, ShapeMismatch),
    ([0, 4.0, 0], InvalidParams),
    ([0, True, 0], InvalidParams),
    (["a", "b"], InvalidParams),
], ids=["2-d", "none", "scalar", "float", "bool", "text"])
def test_phase_events_refuse_what_is_no_walk_of_integers(states, error):
    with pytest.raises(error):
        phase_events(states)


@pytest.mark.parametrize("vec", [
    np.zeros(5),
    np.zeros((N_PHASE_STATES, 2)),  # once argmaxed over its 34 flat entries
    np.zeros((1, N_PHASE_STATES)),
    np.float64(3.0),  # once an IndexError
    ["x"] * N_PHASE_STATES,  # once numpy's ValueError
], ids=["5", "17x2", "1x17", "scalar", "text"])
def test_fsm_rejects_wrong_vector_length(vec):
    with pytest.raises(ShapeMismatch, match="phase output"):
        fsm_postprocess([np.eye(N_PHASE_STATES)[0], vec])


def test_fsm_rejects_a_lone_vector_for_a_block():
    with pytest.raises(ShapeMismatch, match=r"phase output expects a \(T, 17\) block"):
        fsm_postprocess(np.eye(N_PHASE_STATES)[0])


# --- accuracy metric ---------------------------------------------------------

def test_event_at_tolerance_edge_counts():
    ann = [Annotation(100, int(GestureClass.LEFT_TO_RIGHT))]
    events = [(110, GestureClass.LEFT_TO_RIGHT)]
    assert match_events(events, ann, tolerance=10).accuracy == 1.0


def test_event_just_outside_tolerance_misses():
    ann = [Annotation(100, int(GestureClass.LEFT_TO_RIGHT))]
    events = [(111, GestureClass.LEFT_TO_RIGHT)]
    report = match_events(events, ann, tolerance=10)
    assert report.accuracy == 0.0
    assert report.outcomes[0][1] == "missed"


def test_second_event_in_window_spoils_the_match():
    ann = [Annotation(100, int(GestureClass.LEFT_TO_RIGHT))]
    events = [
        (98, GestureClass.LEFT_TO_RIGHT),
        (104, GestureClass.RIGHT_TO_LEFT),
    ]
    report = match_events(events, ann, tolerance=10)
    assert report.accuracy == 0.0
    assert report.outcomes[0][1] == "multiple"


def test_wrong_class_recorded_by_name():
    ann = [Annotation(100, int(GestureClass.LEFT_TO_RIGHT))]
    events = [(100, GestureClass.TOP_TO_BOTTOM)]
    report = match_events(events, ann, tolerance=10)
    assert report.accuracy == 0.0
    assert report.outcomes[0][1] == "top_to_bottom"


def test_no_gesture_annotations_do_not_enter_the_score():
    ann = [
        Annotation(50, int(GestureClass.NO_GESTURE)),
        Annotation(100, int(GestureClass.LEFT_TO_RIGHT)),
    ]
    events = [(100, GestureClass.LEFT_TO_RIGHT)]
    report = match_events(events, ann, tolerance=10)
    assert report.total == 1
    assert report.accuracy == 1.0


def test_empty_annotation_list_scores_zero_over_zero():
    report = match_events([], [], tolerance=10)
    assert report.total == 0
    assert report.accuracy == 0.0


def test_confusion_counts_by_label_and_outcome():
    ann = [
        Annotation(10, 0),
        Annotation(40, 0),
        Annotation(70, 1),
    ]
    events = [(10, GestureClass.LEFT_TO_RIGHT), (70, GestureClass.LEFT_TO_RIGHT)]
    table = match_events(events, ann, tolerance=10).confusion()
    assert table[(0, "correct")] == 1
    assert table[(0, "missed")] == 1
    assert table[(1, "left_to_right")] == 1


_frames_near = st.integers(0, 120)


@settings(max_examples=300, deadline=None)
@given(
    events=st.lists(st.tuples(_frames_near, st.sampled_from(list(GestureClass))), max_size=25),
    annotations=st.lists(st.builds(Annotation, _frames_near, st.integers(0, 4)), max_size=25),
    tolerance=st.integers(0, 30),
)
@example(events=[(50, GestureClass.LEFT_TO_RIGHT), (10, GestureClass.RIGHT_TO_LEFT),
                 (50, GestureClass.LEFT_TO_RIGHT)],
         annotations=[Annotation(50, 0), Annotation(10, 1), Annotation(0, 1)], tolerance=0)
def test_match_events_equals_the_scanning_oracle(events, annotations, tolerance):
    # unsorted events and shared frames: the binary search must count each
    # window as a scan of every event does, outcomes in annotation order
    report = match_events(events, annotations, tolerance)
    assert (report.accuracy, report.total, report.correct, report.outcomes) == (
        oracle_match_events(events, annotations, tolerance)
    )


@pytest.mark.parametrize("events, error", [
    ([(1, 99)], InvalidParams),  # once numpy's ValueError from GestureClass(99)
    ([(1, -1)], InvalidParams),
    ([("a", 2)], InvalidParams),  # once a TypeError
    ([(1.0, 2)], InvalidParams),
    ([(True, 2)], InvalidParams),
    ([(1,)], ShapeMismatch),  # once an IndexError
    ([(1, 2, 3)], ShapeMismatch),
    ([1, 2], ShapeMismatch),
    (None, ShapeMismatch),  # once a TypeError
], ids=["class-99", "class-minus-1", "text-frame", "float-frame", "bool-frame",
        "one-entry", "three-entries", "bare-ints", "none"])
def test_match_events_refuses_events_that_are_no_frame_class_pairs(events, error):
    with pytest.raises(error):
        match_events(events, [Annotation(1, 2)])


def test_match_events_takes_numpy_integers_and_plain_class_ints():
    ann = [Annotation(100, 2)]
    for events in ([(np.int64(100), 2)], [(100, np.uint8(2))], np.array([[100, 2]])):
        assert match_events(events, ann).accuracy == 1.0


# --- training labels from annotations ----------------------------------------

def _cand(end):
    return Candidate(frames=np.zeros((10, 3, 3)), start_index=end - 9, end_index=end)


def test_label_candidates_takes_closest_annotation():
    anns = [Annotation(100, 2), Annotation(120, 3)]
    labelled = label_candidates([_cand(108)], anns, tolerance=10)
    assert labelled[0][1] == 2


def test_label_candidates_marks_unmatched_as_no_gesture():
    labelled = label_candidates([_cand(500)], [Annotation(100, 2)], tolerance=10)
    assert labelled[0][1] == int(GestureClass.NO_GESTURE)


def test_label_candidates_tolerance_boundary():
    anns = [Annotation(100, 1)]
    assert label_candidates([_cand(110)], anns)[0][1] == 1
    assert label_candidates([_cand(111)], anns)[0][1] == int(GestureClass.NO_GESTURE)


def test_label_candidates_prefers_the_first_listed_on_a_tie():
    # equally far on either side, and two annotations on one frame
    assert label_candidates([_cand(105)], [Annotation(110, 3), Annotation(100, 1)])[0][1] == 3
    assert label_candidates([_cand(105)], [Annotation(100, 1), Annotation(110, 3)])[0][1] == 1
    anns = [Annotation(104, 2), Annotation(90, 0), Annotation(104, 1)]
    assert label_candidates([_cand(105)], anns)[0][1] == 2


@given(
    ends=st.lists(st.integers(0, 80), max_size=12),
    annotations=st.lists(st.tuples(st.integers(0, 80), st.integers(0, 4)), max_size=12),
    tolerance=st.integers(-2, 30),
)
@settings(max_examples=300, deadline=None)
def test_label_candidates_equals_the_scanning_oracle(ends, annotations, tolerance):
    # annotations arrive unsorted and may share frames
    cands = [_cand(end) for end in ends]
    anns = [Annotation(frame, label) for frame, label in annotations]
    if tolerance < 0:
        with pytest.raises(InvalidParams, match="tolerance"):
            label_candidates(cands, anns, tolerance)
        return
    got = label_candidates(cands, anns, tolerance)
    want = oracle_label_candidates(cands, anns, tolerance)
    assert [(c.end_index, label) for c, label in got] == [
        (c.end_index, label) for c, label in want
    ]
