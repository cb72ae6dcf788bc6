"""Every array argument goes through one rule per input kind.

Floats go through ``errors._float_array``, feature blocks through
``inference._frames``, integer labels through ``features._label_array``,
frame stacks through ``features._frame_stack`` and models through
``model.validate``.  One table holds each public function that takes such
an array, as a call that takes a bad array in place of a good one.  Text,
a ragged list and an array with the wrong number of dimensions must give a
result or a ``MicrogestError``, never a stray Python exception; parameters
made for another model must give a ``MicrogestError``.  Labels that are
bools or floats are refused, never cast.
"""

import numpy as np
import pytest

from microgest.bitcode import pack_bits
from microgest.compression import (
    CompressionOptions,
    apply_pruning,
    compress_model,
    encode_sparse,
    kmeans_1d,
    sparse_matvec,
)
from microgest.errors import InvalidParams, MicrogestError, ShapeMismatch
from microgest.features import AnnotatedSequence, Image, stream_features
from microgest.inference import (
    approx_exp,
    approx_pow2,
    approx_softmax,
    forward_dense,
    max_onehot,
    run_ffnn,
    softmax,
    step_recurrent,
    step_rnn,
)
from microgest.model import (
    Activation,
    LayerKind,
    LayerParams,
    RnnState,
    chain,
    parse_arch,
    zero_params,
)
from microgest.model_io import load_dataset, save_dataset
from microgest.pipeline import (
    Candidate,
    CandidateDetector,
    FfnnRecognizer,
    GestureClass,
    candidate_features,
    extract_candidates,
    fsm_postprocess,
    scale_candidate,
)
from microgest.synth import auto_annotate, build_corpus
from microgest.training import (
    TrainingConfig,
    classification_accuracy,
    evaluate_loss,
    gradients,
    init_params,
    retrain_pruned,
    retrain_quantized,
    sequence_gradients,
    sequence_loss,
    train_ffnn,
    train_rnn_bptt,
)

D, R, A = LayerKind.DENSE, LayerKind.RECURRENT, Activation

FFNN = chain(4, [(D, 3, A.RELU), (D, 2, A.SOFTMAX)])
FFNN_PARAMS = init_params(FFNN, 0)
OTHER_FFNN = chain(4, [(D, 5, A.RELU), (D, 2, A.SOFTMAX)])
RNN = chain(3, [(R, 4, A.TANH), (D, 2, A.SOFTMAX)])
RNN_PARAMS = init_params(RNN, 0)
OTHER_RNN = chain(3, [(D, 4, A.RELU), (R, 2, A.SOFTMAX)])
CFG = TrainingConfig(epochs=1)
X = np.random.default_rng(0).normal(size=(6, 4))
Y = np.arange(6) % 2
SEQ_X = np.random.default_rng(1).normal(size=(5, 3))
SEQ_T = np.array([0, 1, -1, 1, 0])
MASKS = [np.zeros((3, 4), dtype=bool), np.zeros((2, 3), dtype=bool)]
ASSIGNMENTS = [np.zeros((3, 4), dtype=int), np.zeros((2, 3), dtype=int)]
CENTROIDS = [np.array([0.5]), np.array([-0.5])]
FRAMES = np.full((30, 3, 3), 500, dtype=np.uint16)
FRAMES[10:20] = 100
CANDIDATE_MODEL = parse_arch("27-5softmax")


def _ffnn_calls(X=X, y=Y, masks=MASKS, assignments=ASSIGNMENTS, centroids=CENTROIDS,
                params=FFNN_PARAMS):
    """Every feed-forward training entry point on one set of arguments."""
    return [
        lambda: train_ffnn(FFNN, params, X, y, CFG),
        lambda: evaluate_loss(FFNN, params, X, y),
        lambda: classification_accuracy(FFNN, params, X, y),
        lambda: gradients(FFNN, params, X, y),
        lambda: retrain_pruned(FFNN, params, masks, X, y, CFG),
        lambda: retrain_quantized(FFNN, params, assignments, centroids, X, y, CFG),
    ]


def _sequence_calls(X=SEQ_X, t=SEQ_T, params=RNN_PARAMS, pairs=None):
    """Every sequence training entry point on one sequence."""
    pairs = [(X, t)] if pairs is None else pairs
    return [
        lambda: train_rnn_bptt(RNN, params, pairs, CFG, horizon=2),
        lambda: sequence_loss(RNN, params, X, t),
        lambda: sequence_gradients(RNN, params, X, t),
    ]


def _calls(calls):
    def run():
        for call in calls:
            call()
    return run


# array argument -> a call that takes the value in place of a good array
SITES = {
    "run_ffnn.features": lambda v: run_ffnn(FFNN, FFNN_PARAMS, v),
    "step_rnn.features": lambda v: step_rnn(RNN, RNN_PARAMS, v, RnnState(RNN)),
    "forward_dense.inputs": lambda v: forward_dense(FFNN.layers[0], FFNN_PARAMS.layers[0], v),
    "step_recurrent.inputs": lambda v: step_recurrent(
        RNN.layers[0], RNN_PARAMS.layers[0], v, np.zeros(4)
    ),
    "step_recurrent.prev": lambda v: step_recurrent(
        RNN.layers[0], RNN_PARAMS.layers[0], np.zeros(3), v
    ),
    "feed-forward training X": lambda v: _calls(_ffnn_calls(X=v))(),
    "feed-forward training y": lambda v: _calls(_ffnn_calls(y=v))(),
    "retrain_pruned.removed": lambda v: retrain_pruned(FFNN, FFNN_PARAMS, [v, v], X, Y, CFG),
    "retrain_quantized.assignments": lambda v: retrain_quantized(
        FFNN, FFNN_PARAMS, [v, v], CENTROIDS, X, Y, CFG
    ),
    "retrain_quantized.centroids": lambda v: retrain_quantized(
        FFNN, FFNN_PARAMS, ASSIGNMENTS, [v, v], X, Y, CFG
    ),
    "sequence features": lambda v: _calls(_sequence_calls(X=v))(),
    "sequence targets": lambda v: _calls(_sequence_calls(t=v))(),
    "kmeans_1d.values": lambda v: kmeans_1d(v, 1),
    "encode_sparse.matrix": encode_sparse,
    "sparse_matvec.x": lambda v: sparse_matvec(encode_sparse(np.eye(3)), (3, 3), v),
    "pack_bits.values": lambda v: pack_bits(v, 3),
    "Image.pixels": lambda v: Image(3, 3, v),
    "stream_features.frames": lambda v: stream_features(v, True),
    "AnnotatedSequence.frames": lambda v: AnnotatedSequence(3, 3, v).check(),
    "AnnotatedSequence.labels": lambda v: AnnotatedSequence(3, 3, FRAMES, [1], v).check(),
    "CandidateDetector.push": lambda v: CandidateDetector().push(v),
    "extract_candidates.frames": extract_candidates,
    "auto_annotate.frames": lambda v: auto_annotate(
        v, (GestureClass.LEFT_TO_RIGHT, GestureClass.RIGHT_TO_LEFT)
    ),
    "scale_candidate.frames": lambda v: scale_candidate(v, 3),
    "scale_candidate.Candidate": lambda v: scale_candidate(Candidate(v, 0, 1), 3),
    "candidate_features.Candidate": lambda v: candidate_features(Candidate(v, 0, 1)),
    "FfnnRecognizer.stream": lambda v: FfnnRecognizer(
        CANDIDATE_MODEL, zero_params(CANDIDATE_MODEL), 3
    )(v),
    "fsm_postprocess.outputs": fsm_postprocess,
}

BAD_ARRAYS = {
    "text": [["a", "b", "c"], ["d", "e", "f"]],
    "text array": np.full((2, 3), "a"),
    "ragged": [[0.0, 1.0, 2.0], [3.0]],
    "ragged 3-d": [[[0.0, 1.0]], [[2.0]]],
    "0-d": np.float64(1.0),
    "4-d": np.zeros((2, 3, 3, 3)),
    "objects": np.array([None, 1.0], dtype=object),
}


@pytest.mark.parametrize("value", BAD_ARRAYS.values(), ids=BAD_ARRAYS)
@pytest.mark.parametrize("site", SITES)
def test_a_bad_array_gives_a_result_or_a_microgest_error(site, value):
    try:
        SITES[site](value)
    except MicrogestError:
        pass


LABEL_SITES = {
    "feed-forward training y": lambda v: _calls(_ffnn_calls(y=v))(),
    "sequence targets": lambda v: _calls(_sequence_calls(t=v))(),
    "AnnotatedSequence.labels": lambda v: AnnotatedSequence(3, 3, FRAMES, [1] * len(v), v),
    "pack_bits.values": lambda v: pack_bits(v, 3),
}

NOT_INTEGER_LABELS = {
    "bools": [True, False, True, False, True, False],
    "bool array": np.ones(6, dtype=bool),
    "bool among integers": [1, 0, True, 0, 1, 0],
    "floats": [0.5, 1.9, 0.0, 1.0, 0.0, 1.0],
    "whole floats": np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]),
    "text": ["0", "1", "0", "1", "0", "1"],
}


@pytest.mark.parametrize("labels", NOT_INTEGER_LABELS.values(), ids=NOT_INTEGER_LABELS)
@pytest.mark.parametrize("site", LABEL_SITES)
def test_labels_that_are_not_integers_are_refused_never_cast(site, labels):
    with pytest.raises(InvalidParams):
        LABEL_SITES[site](labels if site != "sequence targets" else labels[:5])


def test_integer_labels_of_any_integer_type_are_taken():
    for y in (Y, Y.astype(np.uint8), Y.tolist()):
        for call in _ffnn_calls(y=y):
            call()
    for t in (SEQ_T, SEQ_T.astype(np.int8), SEQ_T.tolist()):
        for call in _sequence_calls(t=t):
            call()


# a model made for another architecture: same inputs, other layer sizes
PARAMETER_SITES = {
    "run_ffnn": lambda: run_ffnn(FFNN, zero_params(OTHER_FFNN), X[0]),
    "step_rnn": lambda: step_rnn(RNN, zero_params(OTHER_RNN), SEQ_X, RnnState(RNN)),
    "feed-forward training": _calls(_ffnn_calls(params=zero_params(OTHER_FFNN))),
    "sequence training": _calls(_sequence_calls(params=zero_params(OTHER_RNN))),
    "retrain_pruned masks": lambda: retrain_pruned(FFNN, FFNN_PARAMS, MASKS[::-1], X, Y, CFG),
    "retrain_quantized assignments": lambda: retrain_quantized(
        FFNN, FFNN_PARAMS, ASSIGNMENTS[::-1], CENTROIDS, X, Y, CFG
    ),
    "compress_model": lambda: compress_model(FFNN, zero_params(OTHER_FFNN), CompressionOptions()),
    "FfnnRecognizer": lambda: FfnnRecognizer(
        CANDIDATE_MODEL, zero_params(parse_arch("27-4-5softmax")), 3
    )(FRAMES),
}


@pytest.mark.parametrize("site", PARAMETER_SITES)
def test_parameters_of_another_model_are_a_microgest_error(site):
    with pytest.raises(MicrogestError):
        PARAMETER_SITES[site]()


# --- reproductions: each once raised a stray exception or took a bad array ----

TEXT = [["a"] * 4]
TEXT_ROWS = [["a"] * 3]


@pytest.mark.parametrize("call", [
    lambda: train_ffnn(FFNN, FFNN_PARAMS, TEXT, [0], CFG),
    lambda: evaluate_loss(FFNN, FFNN_PARAMS, TEXT, [0]),
    lambda: classification_accuracy(FFNN, FFNN_PARAMS, TEXT, [0]),
    lambda: train_ffnn(FFNN, FFNN_PARAMS, [[0.0] * 4, [0.0]], [0, 0], CFG),
    lambda: train_rnn_bptt(RNN, RNN_PARAMS, [(TEXT_ROWS, [0])], CFG),
    lambda: train_rnn_bptt(RNN, RNN_PARAMS, [([[0.0] * 3, [0.0]], [0, 0])], CFG),
    lambda: train_rnn_bptt(RNN, RNN_PARAMS, [(SEQ_X,)], CFG),
    lambda: kmeans_1d(["a", "b"], 1),
    lambda: encode_sparse(TEXT),
    lambda: sparse_matvec(encode_sparse(np.eye(2)), (2, 2), ["a", "b"]),
    lambda: scale_candidate(np.full((3, 2, 2), "a"), 3),
    lambda: extract_candidates(np.full((3, 2, 2), "a")),
    lambda: auto_annotate(np.full((3, 2, 2), "a"),
                          (GestureClass.LEFT_TO_RIGHT, GestureClass.RIGHT_TO_LEFT)),
    lambda: stream_features(np.full((3, 2, 2), "a"), True),
    lambda: AnnotatedSequence(3, 3, np.full((2, 3, 3), "a")).check(),
], ids=["train_ffnn text X", "evaluate_loss text X", "classification_accuracy text X",
        "train_ffnn ragged X", "train_rnn_bptt text", "train_rnn_bptt ragged",
        "train_rnn_bptt 1-tuple", "kmeans_1d text", "encode_sparse text",
        "sparse_matvec text", "scale_candidate text", "extract_candidates text",
        "auto_annotate text", "stream_features text", "AnnotatedSequence text"])
def test_input_that_is_no_array_of_numbers_is_a_shape_mismatch(call):
    with pytest.raises(ShapeMismatch):
        call()


@pytest.mark.parametrize("call", [
    lambda: train_ffnn(FFNN, FFNN_PARAMS, X[:1], ["a"], CFG),
    lambda: train_ffnn(FFNN, FFNN_PARAMS, X[:1], [0.5], CFG),
    lambda: train_ffnn(FFNN, FFNN_PARAMS, X[:1], [True], CFG),
    lambda: sequence_loss(RNN, RNN_PARAMS, SEQ_X[:1], ["a"]),
    lambda: pack_bits(["a"], 3),
], ids=["train_ffnn text y", "train_ffnn y 0.5", "train_ffnn y True",
        "sequence_loss text targets", "pack_bits text"])
def test_labels_that_are_not_integers_are_invalid(call):
    # labels [0.5, 1.9] once trained as [0, 1], and [True, False] as [1, 0]
    with pytest.raises(InvalidParams):
        call()


def test_a_model_runs_only_with_its_own_parameters_and_state():
    # run_ffnn once gave a 4-wide output for a 5-output model, and step_rnn
    # raised numpy's ValueError, or a KeyError for another model's state
    with pytest.raises(ShapeMismatch):
        run_ffnn(parse_arch("12-5softmax"), zero_params(parse_arch("12-4softmax")), np.zeros(12))
    spec = parse_arch("12-8-r6softmax")
    with pytest.raises(ShapeMismatch):
        step_rnn(spec, zero_params(parse_arch("12-r6softmax")), np.zeros((2, 12)), RnnState(spec))
    for other in map(parse_arch, ("12-r6softmax", "12-8-r5softmax", "12-r8-r6softmax")):
        # the last one's layer 1 fits, so it was once stepped and left changed
        state = RnnState(other)
        held = [state.layer(i) for i, layer in enumerate(other.layers) if layer.kind is R]
        with pytest.raises(ShapeMismatch):
            step_rnn(spec, zero_params(spec), np.ones((2, 12)), state)
        assert not any(prev.any() for prev in held)


@pytest.mark.parametrize("rebind", [
    lambda ds: setattr(ds, "width", 4),
    lambda ds: setattr(ds, "frames", ds.frames[:, :2]),
    lambda ds: setattr(ds, "frames", np.full(ds.frames.shape, "a")),
], ids=["width", "frames", "text frames"])
def test_saving_refuses_frames_that_no_longer_fit_the_sizes(tmp_path, rebind):
    # the file was once written, and loading it refused it as Truncated
    ds = build_corpus(1, seed=1)
    rebind(ds)
    with pytest.raises(ShapeMismatch):
        save_dataset(tmp_path / "ds.mgds", ds)
    assert not (tmp_path / "ds.mgds").exists()


def test_saving_takes_frames_re_bound_to_a_list_of_the_right_shape(tmp_path):
    ds = build_corpus(1, seed=1)
    frames = ds.frames
    ds.frames = frames.tolist()
    save_dataset(tmp_path / "ds.mgds", ds)
    assert np.array_equal(load_dataset(tmp_path / "ds.mgds").frames, frames)


@pytest.mark.parametrize("value", [["a"], 0.5, [], np.zeros((2, 0))],
                         ids=["text", "0-d", "empty", "empty rows"])
@pytest.mark.parametrize("activation", [softmax, approx_softmax, max_onehot])
def test_the_layer_wise_activations_take_rows_of_numbers_only(activation, value):
    # ["a"] once raised numpy's ValueError, 0-d a TypeError or AxisError,
    # an empty row numpy's ValueError of a reduction without identity
    with pytest.raises(ShapeMismatch):
        activation(value)


@pytest.mark.parametrize("function", [approx_pow2, approx_exp])
def test_the_fast_exponentials_take_numbers_only(function):
    with pytest.raises(ShapeMismatch):
        function(["a"])
    assert function([]).shape == (0,)


def test_a_layer_steps_only_with_its_own_parameters():
    # forward_dense once gave 5 outputs for a 3-neuron layer, and
    # step_recurrent raised numpy's ValueError
    dense, other = parse_arch("4-3-2softmax"), parse_arch("4-5-2softmax")
    with pytest.raises(ShapeMismatch):
        forward_dense(dense.layers[0], zero_params(other).layers[0], np.zeros(4))
    recurrent, other = parse_arch("4-r3softmax"), parse_arch("4-r5softmax")
    with pytest.raises(ShapeMismatch):
        step_recurrent(recurrent.layers[0], zero_params(other).layers[0], np.zeros(4),
                       np.zeros(3))
    lp = zero_params(dense).layers[0]
    with pytest.raises(ShapeMismatch):
        forward_dense(dense.layers[0], LayerParams(lp.weights, np.zeros(5)), np.zeros(4))


@pytest.mark.parametrize("masks", [
    [np.zeros((5, 4), dtype=bool), np.zeros((2, 5), dtype=bool)],
    [[[1.0, 0.0], [1.0]], np.zeros((2, 3))],
    [np.zeros((3, 4), dtype=bool)],
    [np.full((3, 4), "a"), np.zeros((2, 3))],
], ids=["another model's", "ragged", "one for two layers", "text"])
def test_apply_pruning_takes_one_mask_per_layer_shaped_like_its_weights(masks):
    # once numpy's IndexError or ValueError, a silent one-layer model, or
    # text cast to True
    with pytest.raises(ShapeMismatch):
        apply_pruning(zero_params(parse_arch("4-3-2softmax")), masks)


def test_pruning_masks_of_bools_are_taken_as_they_are_and_numbers_are_cast():
    # the sweep prunes with the bool masks of prune(), which must not be copied
    from microgest.model import _removal_masks

    params = init_params(FFNN, 0)
    assert _removal_masks(MASKS, [(3, 4), (2, 3)])[0] is MASKS[0]
    pruned = apply_pruning(params, [np.eye(3, 4), [[0, 0, 2]] * 2])
    assert np.array_equal(pruned.layers[0].weights == 0.0, np.eye(3, 4, dtype=bool))
    assert not pruned.layers[1].weights[:, 2].any() and pruned.layers[1].weights[:, :2].all()
