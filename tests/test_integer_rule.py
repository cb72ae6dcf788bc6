"""Every count, size and seed argument goes through the one integer rule.

One table holds each such parameter as a call that uses it.  A bool, a
float or a non-finite value is not an integer, so it must be refused with
the parameter's own error; a negative or a huge integer must give a result
or a ``MicrogestError``, never a stray Python exception; a numpy integer
must be taken as the integer it holds.
"""

import math

import numpy as np
import pytest

from microgest.bitcode import MAX_DENSE_WEIGHTS, pack_bits, unpack_bits
from microgest.compression import CompressionOptions, bits_per_index, compress_model, kmeans_1d
from microgest.errors import InvalidParams, MicrogestError, ShapeMismatch
from microgest.estimator import Budget
from microgest.model import Activation, LayerKind, chain
from microgest.pipeline import (
    Candidate,
    GestureClass,
    evaluate_accuracy,
    label_candidates,
    match_events,
)
from microgest.synth import (
    MAX_FRAME_PIXELS,
    GestureSynthParams,
    Noise,
    Rotate,
    augment,
    build_corpus,
    synthesize_gesture,
)
from microgest.training import (
    TrainingConfig,
    init_params,
    sequence_gradients,
    train_rnn_bptt,
)

D, R, A = LayerKind.DENSE, LayerKind.RECURRENT, Activation

FFNN = chain(4, [(D, 3, A.RELU), (D, 2, A.SOFTMAX)])
FFNN_PARAMS = init_params(FFNN, 0)
RNN = chain(3, [(R, 4, A.TANH), (D, 2, A.SOFTMAX)])
RNN_PARAMS = init_params(RNN, 0)
_rng = np.random.default_rng(0)
SEQ_X = _rng.normal(size=(12, 3))
SEQ_T = np.arange(12) % 2
VALUES = _rng.normal(size=40)
SENSOR = GestureSynthParams(GestureClass.LEFT_TO_RIGHT)
SEQ = synthesize_gesture(SENSOR, seed=0)
CANDIDATE = Candidate(SEQ.frames, 0, len(SEQ) - 1)


def _budget(name):
    return lambda v: Budget(**{name: v})


# parameter -> (a call that uses the value, the error that refuses it)
SITES = {
    "TrainingConfig.epochs": (lambda v: TrainingConfig(epochs=v), InvalidParams),
    "TrainingConfig.batch_size": (lambda v: TrainingConfig(batch_size=v), InvalidParams),
    "TrainingConfig.seed": (lambda v: TrainingConfig(seed=v), InvalidParams),
    "sequence_gradients.horizon": (
        lambda v: sequence_gradients(RNN, RNN_PARAMS, SEQ_X, SEQ_T, horizon=v),
        InvalidParams,
    ),
    "train_rnn_bptt.horizon": (
        lambda v: train_rnn_bptt(
            RNN, RNN_PARAMS, [(SEQ_X, SEQ_T)], TrainingConfig(epochs=1), horizon=v
        ),
        InvalidParams,
    ),
    "kmeans_1d.k": (lambda v: kmeans_1d(VALUES, v), InvalidParams),
    "bits_per_index.k": (bits_per_index, InvalidParams),
    "CompressionOptions.clusters": (
        lambda v: compress_model(FFNN, FFNN_PARAMS, CompressionOptions(clusters=v)),
        InvalidParams,
    ),
    "pack_bits.width": (lambda v: pack_bits([1, 0, 1], v), InvalidParams),
    "unpack_bits.width": (lambda v: unpack_bits(bytes(32), v, 3), InvalidParams),
    "unpack_bits.count": (lambda v: unpack_bits(bytes(4), 1, v), InvalidParams),
    "unpack_bits.count (width 0)": (lambda v: unpack_bits(b"", 0, v), InvalidParams),
    "GestureSynthParams.width": (
        lambda v: GestureSynthParams(GestureClass.LEFT_TO_RIGHT, width=v), InvalidParams
    ),
    "GestureSynthParams.height": (
        lambda v: GestureSynthParams(GestureClass.LEFT_TO_RIGHT, height=v), InvalidParams
    ),
    "synthesize_gesture.seed": (lambda v: synthesize_gesture(SENSOR, seed=v), InvalidParams),
    "synthesize_gesture.width": (
        lambda v: synthesize_gesture(
            GestureSynthParams(GestureClass.LEFT_TO_RIGHT, width=v), seed=0
        ),
        InvalidParams,
    ),
    "build_corpus.width": (lambda v: build_corpus(0, 0, width=v), InvalidParams),
    "Noise.seed": (lambda v: augment(SEQ, Noise(1.0, seed=v)), InvalidParams),
    "Rotate.quarters": (lambda v: augment(SEQ, Rotate(v)), InvalidParams),
    "Budget.flash_bytes": (_budget("flash_bytes"), InvalidParams),
    "Budget.ram_bytes": (_budget("ram_bytes"), InvalidParams),
    "Budget.bytes_per_parameter": (_budget("bytes_per_parameter"), InvalidParams),
    "Budget.bytes_per_variable": (_budget("bytes_per_variable"), InvalidParams),
    "chain.features": (lambda v: chain(v, [(D, 2, A.SOFTMAX)]), ShapeMismatch),
    "chain.neurons": (lambda v: chain(4, [(D, v, A.SOFTMAX)]), ShapeMismatch),
    "match_events.tolerance": (
        lambda v: match_events([(len(SEQ) - 1, GestureClass.LEFT_TO_RIGHT)],
                               SEQ.annotations, tolerance=v),
        InvalidParams,
    ),
    "label_candidates.tolerance": (
        lambda v: label_candidates([CANDIDATE], SEQ.annotations, tolerance=v),
        InvalidParams,
    ),
    "evaluate_accuracy.tolerance": (
        lambda v: evaluate_accuracy(lambda s: [], [], tolerance=v), InvalidParams
    ),
}

NOT_INTEGERS = [True, False, 2.5, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_a_value_that_is_not_an_integer_is_refused(site, value):
    call, error = SITES[site]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("value", [-1, 2**70], ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_a_negative_or_huge_integer_gives_a_result_or_a_microgest_error(site, value):
    call, _ = SITES[site]
    try:
        call(value)
    except MicrogestError:
        pass


@pytest.mark.parametrize("site", SITES)
def test_a_numpy_integer_is_an_integer(site):
    call, _ = SITES[site]
    call(np.int64(2))


@pytest.mark.parametrize(
    "site",
    ["match_events.tolerance", "label_candidates.tolerance", "evaluate_accuracy.tolerance"],
)
def test_a_negative_tolerance_is_refused_and_zero_is_valid(site):
    # a negative window matches nothing: every annotation would be missed
    # and every candidate labelled NO_GESTURE
    call, error = SITES[site]
    with pytest.raises(error, match="tolerance"):
        call(-3)
    call(0)


def test_sizes_above_their_cap_are_refused_before_anything_is_allocated():
    # numpy would take each of these as one allocation and fail with a
    # ValueError or MemoryError of its own
    for count in (MAX_DENSE_WEIGHTS + 1, 2**50, 2**70):
        with pytest.raises(InvalidParams, match="count"):
            unpack_bits(b"", 0, count)
    assert unpack_bits(b"", 0, 5).tolist() == [0] * 5
    for width, height in ((2**40, 3), (3, 2**40), (MAX_FRAME_PIXELS + 1, 1),
                          (np.int64(2**62 + 1), np.int64(4))):  # wraps to 4 in int64
        with pytest.raises(InvalidParams, match=r"width \* height"):
            GestureSynthParams(GestureClass.LEFT_TO_RIGHT, width=width, height=height)
        with pytest.raises(InvalidParams, match=r"width \* height"):
            build_corpus(1, 0, width=width, height=height)
    GestureSynthParams(GestureClass.LEFT_TO_RIGHT, width=MAX_FRAME_PIXELS // 2, height=2)
