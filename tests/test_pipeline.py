"""Candidate detection, temporal scaling, FSM events, accuracy metric."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microgest.errors import InvalidParams, ShapeMismatch, TooShort
from microgest.features import Annotation
from microgest.model import Activation, LayerKind, chain, zero_params
from microgest.pipeline import (
    Candidate,
    CandidateDetector,
    GestureClass,
    N_PHASE_STATES,
    ScaledCandidate,
    candidate_features,
    classify_candidate,
    extract_candidates,
    fsm_postprocess,
    label_candidates,
    last_phase_state,
    match_events,
    phase_events,
    phase_state,
    scale_candidate,
)


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


def test_min_run_parameter_controls_length_cutoff():
    frames = _stream((15, 800), (6, 640), (20, 800))
    assert extract_candidates(frames) == []
    shorter = extract_candidates(frames, min_run=5)
    assert len(shorter) == 1


def test_streaming_push_equals_batch_extraction():
    rng = np.random.default_rng(8)
    frames = _stream((20, 800), (12, 640), (25, 800), (14, 620), (20, 800))
    frames = frames + rng.normal(0.0, 1.0, frames.shape)  # stable-range noise
    det = CandidateDetector()
    streamed = []
    for frame in frames:
        streamed.extend(det.push(frame))
    streamed.extend(det.finish())
    batch = extract_candidates(frames)
    assert len(streamed) == len(batch)
    for a, b in zip(streamed, batch):
        assert (a.start_index, a.end_index) == (b.start_index, b.end_index)
        assert np.array_equal(a.frames, b.frames)


def test_baseline_follows_steady_level():
    det = CandidateDetector()
    for frame in _stream((200, 640)):
        det.push(frame)
    assert det.baseline == pytest.approx(640.0)


def test_run_open_at_stream_end_is_flushed_by_finish():
    frames = _stream((15, 800), (12, 640))
    det = CandidateDetector()
    collected = []
    for frame in frames:
        collected.extend(det.push(frame))
    assert collected == []
    collected.extend(det.finish())
    assert len(collected) == 1


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


# --- classification ----------------------------------------------------------

def _scaled(frames):
    return ScaledCandidate(frames=np.asarray(frames, dtype=float), start_index=0,
                           end_index=len(frames) - 1)


def test_candidate_features_flatten_and_normalize():
    frames = np.full((20, 3, 3), 512.0)
    feats = candidate_features(_scaled(frames))
    assert feats.shape == (180,)
    assert np.all(feats == 0.5)


def test_classify_tie_resolves_to_lowest_class():
    spec = chain(180, [(LayerKind.DENSE, 5, Activation.SOFTMAX)])
    params = zero_params(spec)  # all outputs equal
    cls = classify_candidate(spec, params, _scaled(np.full((20, 3, 3), 100.0)))
    assert cls is GestureClass.LEFT_TO_RIGHT


def test_classify_rejects_wrong_feature_count():
    spec = chain(90, [(LayerKind.DENSE, 5, Activation.SOFTMAX)])
    with pytest.raises(ShapeMismatch):
        classify_candidate(spec, zero_params(spec), _scaled(np.zeros((20, 3, 3))))


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


def test_fsm_rejects_wrong_vector_length():
    with pytest.raises(ShapeMismatch):
        fsm_postprocess([np.zeros(5)])


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
