"""Forward passes, activations, fast exponentials, MAC instrumentation."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microgest import inference
from microgest.estimator import count_weights
from microgest.errors import (
    RangeExceeded,
    RecurrentLayerPresent,
    ShapeMismatch,
)
from microgest.inference import (
    _ACTIVATIONS,
    approx_exp,
    approx_pow2,
    approx_softmax,
    count_macs,
    forward_dense,
    layer_forward,
    max_onehot,
    record_macs,
    run_ffnn,
    softmax,
    step_recurrent,
    step_rnn,
)
from microgest.model import (
    Activation,
    LayerKind,
    LayerParams,
    LayerSpec,
    Parameters,
    RnnState,
    chain,
    zero_params,
)

from conftest import loop_matvec, oracle_activation, oracle_forward, random_model

D = LayerKind.DENSE
R = LayerKind.RECURRENT


# --- fast exponentials -------------------------------------------------------

def test_approx_pow2_exact_at_integers():
    # remainder zero: the quadratic evaluates to exactly 1
    for n in (-10, -1, 0, 1, 10, 100):
        assert approx_pow2(n) == math.ldexp(1.0, n)


def test_approx_pow2_half_matches_hand_evaluation():
    # 2^0 * (1 + (2/3)*0.5 + (1/3)*0.25) = 17/12
    assert abs(approx_pow2(0.5) - 17.0 / 12.0) < 1e-12


def test_approx_pow2_negative_argument():
    # n = -1, v = 0.5 -> (17/12)/2
    assert abs(approx_pow2(-0.5) - 17.0 / 24.0) < 1e-12


def test_approx_pow2_array_input():
    out = approx_pow2(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0, 4.0])


def test_approx_pow2_range_limit():
    assert approx_pow2(126.0) > 0
    with pytest.raises(RangeExceeded):
        approx_pow2(126.5)
    with pytest.raises(RangeExceeded):
        approx_pow2(-127.0)
    with pytest.raises(RangeExceeded):
        approx_pow2(np.array([0.0, 200.0]))


@pytest.mark.parametrize("call", [
    lambda: approx_pow2(math.nan),
    lambda: approx_pow2(np.array([0.0, math.nan])),
    lambda: approx_exp(math.nan),
    lambda: approx_softmax(np.array([math.nan, 1.0])),
], ids=["pow2-scalar", "pow2-array", "exp", "softmax"])
def test_nan_is_out_of_the_fast_exponential_range(call):
    # NaN once passed the range test and reached the integer cast, which
    # warns "invalid value encountered in cast"
    with pytest.raises(RangeExceeded):
        call()


def test_approx_pow2_relative_error_under_half_percent():
    x = np.linspace(-5.0, 5.0, 20001)
    rel = np.abs(approx_pow2(x) - np.exp2(x)) / np.exp2(x)
    assert rel.max() < 0.005


def test_approx_exp_identity_at_zero():
    assert approx_exp(0.0) == 1.0


def test_approx_exp_tracks_exp():
    x = np.linspace(-20.0, 20.0, 10001)
    rel = np.abs(approx_exp(x) - np.exp(x)) / np.exp(x)
    assert rel.max() < 0.005


def test_approx_exp_scalar_returns_float():
    out = approx_exp(1.0)
    assert isinstance(out, float)
    assert abs(out - math.e) / math.e < 0.005


# --- element-wise activations ------------------------------------------------

def test_sigmoid_midpoint():
    assert _ACTIVATIONS[Activation.SIGMOID](0.0) == 0.5


def test_hard_sigmoid_piecewise_points():
    assert _ACTIVATIONS[Activation.HARD_SIGMOID](0.0) == 0.5
    assert _ACTIVATIONS[Activation.HARD_SIGMOID](3.0) == 1.0
    assert _ACTIVATIONS[Activation.HARD_SIGMOID](-3.0) == 0.0


def test_softsign_known_value():
    assert _ACTIVATIONS[Activation.SOFTSIGN](1.0) == 0.5
    assert _ACTIVATIONS[Activation.SOFTSIGN](-1.0) == -0.5


def test_tanh_is_the_standard_odd_function():
    # range (-1, 1), odd symmetry, matches the library tanh
    assert _ACTIVATIONS[Activation.TANH](1.0) == pytest.approx(math.tanh(1.0))
    assert _ACTIVATIONS[Activation.TANH](-2.0) == -_ACTIVATIONS[Activation.TANH](2.0)


def test_relu_clamps_negatives():
    assert _ACTIVATIONS[Activation.RELU](-3.5) == 0.0
    assert _ACTIVATIONS[Activation.RELU](2.5) == 2.5


@given(
    st.lists(st.floats(-30, 30), min_size=1, max_size=16),
    st.sampled_from(
        [
            Activation.SIGMOID,
            Activation.TANH,
            Activation.HARD_SIGMOID,
            Activation.SOFTSIGN,
            Activation.RELU,
        ]
    ),
)
def test_elementwise_matches_textbook_oracle(values, kind):
    z = np.array(values)
    assert np.allclose(_ACTIVATIONS[kind](z), oracle_activation(kind, z), atol=1e-12)


# --- layer-wise activations --------------------------------------------------

def test_softmax_sums_to_one_and_orders():
    out = softmax(np.array([1.0, 2.0, 3.0]))
    assert out.sum() == pytest.approx(1.0)
    assert np.all(np.diff(out) > 0)


def test_softmax_shift_invariance():
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(softmax(v), softmax(v + 100.0))


def test_softmax_survives_large_arguments():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0)


def test_approx_softmax_sums_to_one():
    v = np.array([0.3, -1.2, 4.0, 0.0])
    assert approx_softmax(v).sum() == pytest.approx(1.0)


def test_approx_softmax_handles_extreme_spread():
    # shifted arguments far below the clamp still evaluate
    out = approx_softmax(np.array([500.0, -500.0]))
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0, abs=1e-12)


@given(
    st.lists(
        st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=32,
    )
)
@settings(max_examples=200)
def test_approx_softmax_within_one_percent(values):
    v = np.array(values)
    exact = softmax(v)
    fast = approx_softmax(v)
    assert np.all(np.abs(fast - exact) <= 0.01 * np.maximum(exact, 1e-30) + 1e-12)


def test_max_onehot_marks_argmax():
    assert np.array_equal(max_onehot(np.array([0.1, 3.0, 2.0])), [0.0, 1.0, 0.0])


def test_max_onehot_tie_goes_to_lowest_index():
    assert np.array_equal(max_onehot(np.array([2.0, 2.0, 1.0])), [1.0, 0.0, 0.0])


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
def test_max_onehot_is_one_hot(values):
    out = max_onehot(np.array(values))
    assert out.sum() == 1.0
    assert set(np.unique(out)) <= {0.0, 1.0}


@pytest.mark.parametrize("fn", [softmax, approx_softmax, max_onehot])
@given(rows=st.integers(1, 6), n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from(["ties", "normal", "wide"]))
def test_layerwise_activation_of_a_batch_equals_row_by_row(fn, rows, n, seed, spread):
    # bit for bit, for a (rows, n) batch and a (T, 1, n) stack as the BPTT
    # windows pass them: a lone vector's reductions take another shape
    # than a batch's, and must round the same
    rng = np.random.default_rng(seed)
    # small integers make tied maxima common, so MAX's lowest-index rule is
    # hit; a wide spread underflows the exponentials and hits the clamp of
    # the fast one
    if spread == "ties":
        Z = rng.integers(-3, 4, size=(rows, n)).astype(float)
    else:
        Z = rng.normal(0.0, 20.0 if spread == "normal" else 1e3, size=(rows, n))
    singles = np.stack([fn(z) for z in Z])
    for stack in (Z, Z[:, None, :]):
        batch = fn(stack)
        assert batch.shape == stack.shape
        assert batch.tobytes() == singles.tobytes()


# --- dense and recurrent stepping --------------------------------------------

@pytest.mark.parametrize("kind", list(Activation))
def test_layer_forward_applies_the_table_entry_of_every_activation(kind):
    rng = np.random.default_rng(5)
    W, b = rng.normal(size=(4, 3)), rng.normal(size=4)
    for U in (rng.normal(size=3), rng.normal(size=(5, 3)), rng.normal(size=(5, 1, 3))):
        Z, A = layer_forward(kind, W, b, U)
        assert Z.tobytes() == (U @ W.T + b).tobytes()
        assert A.tobytes() == _ACTIVATIONS[kind](Z).tobytes()
    assert len(_ACTIVATIONS) == len(Activation)


def test_forward_dense_matches_loop_oracle(rng):
    for _ in range(20):
        n_in = int(rng.integers(1, 10))
        n_out = int(rng.integers(1, 10))
        layer = LayerSpec(D, n_in, n_out, Activation.SIGMOID)
        lp = LayerParams(
            rng.normal(size=(n_out, n_in)), rng.normal(size=n_out)
        )
        x = rng.normal(size=n_in)
        want = oracle_activation(Activation.SIGMOID, loop_matvec(lp.weights, x, lp.biases))
        got = forward_dense(layer, lp, x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_forward_dense_rejects_wrong_input_size():
    layer = LayerSpec(D, 3, 2, Activation.RELU)
    lp = LayerParams(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        forward_dense(layer, lp, np.zeros(4))


def test_step_recurrent_zero_feedback_equals_dense():
    rng = np.random.default_rng(5)
    n_in, n = 4, 3
    W_in = rng.normal(size=(n, n_in))
    b = rng.normal(size=n)
    x = rng.normal(size=n_in)

    dense = forward_dense(
        LayerSpec(D, n_in, n, Activation.TANH), LayerParams(W_in, b), x
    )
    # recurrent layer with zero feedback weights and zero state
    W_rec = np.concatenate([W_in, np.zeros((n, n))], axis=1)
    prev = np.zeros(n)
    rec = step_recurrent(
        LayerSpec(R, n_in, n, Activation.TANH), LayerParams(W_rec, b), x, prev
    )
    assert np.allclose(rec, dense, atol=1e-15)


def test_step_recurrent_two_step_hand_unrolled():
    # 1 input, 2 neurons, identity-ish weights chosen for hand evaluation
    layer = LayerSpec(R, 1, 2, Activation.RELU)
    W = np.array(
        [
            [1.0, 0.5, 0.0],  # neuron 0: input + 0.5 * own prev a0
            [2.0, 0.0, 1.0],  # neuron 1: 2*input + prev a1
        ]
    )
    lp = LayerParams(W, np.zeros(2))
    prev = np.zeros(2)
    out1 = step_recurrent(layer, lp, np.array([1.0]), prev)
    # step 1: a = relu([1*1, 2*1]) = [1, 2]
    assert np.array_equal(out1, [1.0, 2.0])
    assert np.array_equal(prev, [1.0, 2.0])
    out2 = step_recurrent(layer, lp, np.array([1.0]), prev)
    # step 2: a = relu([1 + 0.5*1, 2 + 1*2]) = [1.5, 4]
    assert np.array_equal(out2, [1.5, 4.0])


def test_step_recurrent_overwrites_state_in_place():
    layer = LayerSpec(R, 1, 1, Activation.RELU)
    lp = LayerParams(np.array([[1.0, 1.0]]), np.zeros(1))
    prev = np.zeros(1)
    step_recurrent(layer, lp, np.array([3.0]), prev)
    assert prev[0] == 3.0


def test_step_recurrent_rejects_dense_layer():
    layer = LayerSpec(D, 1, 1, Activation.RELU)
    lp = LayerParams(np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(ShapeMismatch):
        step_recurrent(layer, lp, np.zeros(1), np.zeros(1))


# each shape is an array of zeros; text is input numpy cannot read as
# floats, which once leaked numpy's ValueError.  A (T, 3) block is valid
# input, so a wrong block has a wrong width or a third axis
_BAD_INPUTS = [(2,), (4,), (1, 2), (1, 1, 3), (), ["a"] * 3]


def _bad_input(shape):
    return np.zeros(shape) if isinstance(shape, tuple) else shape


@pytest.mark.parametrize("shape", _BAD_INPUTS)
def test_step_recurrent_rejects_a_wrong_input_shape(shape):
    layer = LayerSpec(R, 3, 2, Activation.TANH)
    lp = LayerParams(np.zeros((2, 5)), np.zeros(2))
    with pytest.raises(ShapeMismatch, match="recurrent layer expects 3 inputs"):
        step_recurrent(layer, lp, _bad_input(shape), np.zeros(2))


@pytest.mark.parametrize("frames", [(3,), (4, 3), (0, 3)])
@pytest.mark.parametrize("shape", [(1,), (3,), (1, 2), ()])
def test_step_recurrent_rejects_a_wrong_state_shape(shape, frames):
    layer = LayerSpec(R, 3, 2, Activation.TANH)
    lp = LayerParams(np.zeros((2, 5)), np.zeros(2))
    with pytest.raises(ShapeMismatch, match="feedback state must have 2 entries"):
        step_recurrent(layer, lp, np.zeros(frames), np.zeros(shape))


@pytest.mark.parametrize("shape", _BAD_INPUTS)
def test_run_ffnn_and_step_rnn_reject_a_wrong_feature_shape(shape):
    ffnn = chain(3, [(D, 2, Activation.SOFTMAX)])
    rnn = chain(3, [(R, 2, Activation.TANH), (D, 2, Activation.SOFTMAX)])
    with pytest.raises(ShapeMismatch, match="model expects 3 features"):
        run_ffnn(ffnn, zero_params(ffnn), _bad_input(shape))
    with pytest.raises(ShapeMismatch, match="model expects 3 features"):
        step_rnn(rnn, zero_params(rnn), _bad_input(shape), RnnState(rnn))


def test_run_ffnn_refuses_recurrent_models():
    spec = chain(3, [(R, 3, Activation.TANH), (D, 2, Activation.SOFTMAX)])
    with pytest.raises(RecurrentLayerPresent):
        run_ffnn(spec, zero_params(spec), np.zeros(3))


def test_run_ffnn_matches_oracle_on_seeded_models(rng):
    for _ in range(30):
        spec, params = random_model(rng, allow_recurrent=False)
        x = rng.normal(size=spec.features)
        want = oracle_forward(spec, params, x)
        got = run_ffnn(spec, params, x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_step_rnn_matches_oracle_over_time(rng):
    for _ in range(15):
        spec, params = random_model(rng)
        state = RnnState(spec)
        oracle_states = {
            i: np.zeros(layer.neurons)
            for i, layer in enumerate(spec.layers)
            if layer.kind is LayerKind.RECURRENT
        }
        for _t in range(4):
            x = rng.normal(size=spec.features)
            want = oracle_forward(spec, params, x, oracle_states)
            got = step_rnn(spec, params, x, state)
            assert np.max(np.abs(got - want)) < 1e-12


def test_step_rnn_without_recurrent_layers_equals_run_ffnn(rng):
    spec, params = random_model(rng, allow_recurrent=False)
    x = rng.normal(size=spec.features)
    assert np.array_equal(
        step_rnn(spec, params, x, RnnState(spec)), run_ffnn(spec, params, x)
    )


def test_independent_states_do_not_interfere():
    spec = chain(1, [(R, 1, Activation.RELU)])
    params = Parameters([LayerParams(np.array([[1.0, 1.0]]), np.zeros(1))])
    s1, s2 = RnnState(spec), RnnState(spec)
    step_rnn(spec, params, np.array([1.0]), s1)
    out1 = step_rnn(spec, params, np.array([1.0]), s1)  # 1 + 1 = 2
    out2 = step_rnn(spec, params, np.array([1.0]), s2)  # fresh state: 1
    assert out1[0] == 2.0
    assert out2[0] == 1.0


def test_feedback_makes_outputs_history_dependent():
    # same input, different step -> different output iff feedback is live
    spec = chain(1, [(R, 1, Activation.RELU)])
    params = Parameters([LayerParams(np.array([[1.0, 1.0]]), np.zeros(1))])
    state = RnnState(spec)
    first = step_rnn(spec, params, np.array([1.0]), state).copy()
    second = step_rnn(spec, params, np.array([1.0]), state).copy()
    assert not np.array_equal(first, second)


# --- time-major blocks of frames ---------------------------------------------

# the layer kinds of a block test's architecture, input side first: dense
# layers only, or a recurrent layer first, in the middle or as the output,
# or two recurrent layers
_BLOCK_LAYOUTS = ["D", "DD", "DDD", "R", "RD", "RDD", "DRD", "DDR", "DR",
                  "RR", "RRD", "DRR", "RDR"]


@st.composite
def _block_specs(draw):
    """An architecture of one of ``_BLOCK_LAYOUTS``; every layer draws its
    activation from all of them, MAX only where it may go (dense layers)."""
    layout = draw(st.sampled_from(_BLOCK_LAYOUTS))
    width = st.integers(1, 6)
    dense_kinds = st.sampled_from(list(Activation))
    recurrent_kinds = st.sampled_from([a for a in Activation if a is not Activation.MAX])
    return chain(draw(width), [
        (D, draw(width), draw(dense_kinds)) if kind == "D"
        else (R, draw(width), draw(recurrent_kinds))
        for kind in layout
    ])


def _stepped_by_hand(spec, params, X, state):
    """Every frame through every layer by the kernel, one frame at a time, a
    recurrent layer's input concatenated with its state: the steppers'
    arithmetic before they took blocks."""
    outs = []
    for x in X:
        for i, (layer, lp) in enumerate(zip(spec.layers, params.layers)):
            recurrent = layer.kind is R
            u = np.concatenate([x, state.layer(i)]) if recurrent else x
            x = layer_forward(layer.activation, lp.weights, lp.biases, u)[1]
            if recurrent:
                state.layer(i)[:] = x
        outs.append(x)
    return np.array(outs).reshape(len(X), spec.output_size)


def _random_params(rng, spec, scale=1.0):
    return Parameters([
        LayerParams(rng.normal(size=(l.neurons, l.fan_in)) * scale, rng.normal(size=l.neurons))
        for l in spec.layers
    ])


def _state_bytes(spec, state):
    return [state.layer(i).tobytes() for i, l in enumerate(spec.layers) if l.kind is R]


@contextmanager
def _frames_per_block(n):
    saved, inference._BLOCK_FRAMES = inference._BLOCK_FRAMES, n
    try:
        yield
    finally:
        inference._BLOCK_FRAMES = saved


@settings(max_examples=150, deadline=None)
@given(spec=_block_specs(), seed=st.integers(0, 2**31 - 1), length=st.integers(0, 64),
       frames_per_block=st.integers(1, 70), data=st.data())
def test_a_stream_in_blocks_equals_stepping_it_one_frame_at_a_time(
    spec, seed, length, frames_per_block, data
):
    # bit for bit: outputs, the state left behind and the MACs counted, for a
    # stream cut into random consecutive blocks (empty ones included), which
    # step_rnn cuts again into blocks of _BLOCK_FRAMES
    rng = np.random.default_rng(seed)
    params = _random_params(rng, spec, rng.choice([0.1, 1.0, 10.0]))
    X = 3.0 * rng.normal(size=(length, spec.features))
    X[rng.random(length) < 0.2] = 0.0  # relu and hard-sigmoid kinks, ties
    cuts = sorted(data.draw(st.lists(st.integers(0, length), max_size=5)))

    hand_state = RnnState(spec)
    want = _stepped_by_hand(spec, params, X, hand_state)
    frame_state = RnnState(spec)
    with count_macs() as per_frame:
        frames = [step_rnn(spec, params, x, frame_state) for x in X]
    block_state = RnnState(spec)
    with count_macs() as per_block, _frames_per_block(frames_per_block):
        blocks = [step_rnn(spec, params, X[a:b], block_state)
                  for a, b in zip([0] + cuts, cuts + [length])]
    got = np.concatenate(blocks)

    assert all(b.shape == (len(b), spec.output_size) for b in blocks)
    assert got.tobytes() == want.tobytes()
    assert np.array(frames).reshape(want.shape).tobytes() == want.tobytes()
    assert _state_bytes(spec, block_state) == _state_bytes(spec, hand_state)
    assert _state_bytes(spec, frame_state) == _state_bytes(spec, hand_state)
    assert per_block.count == per_frame.count == length * count_weights(spec)
    if not spec.has_recurrent:
        assert run_ffnn(spec, params, X).tobytes() == want.tobytes()


def test_an_empty_block_gives_no_rows_and_leaves_the_state_untouched():
    spec = chain(3, [(D, 4, Activation.RELU), (R, 2, Activation.TANH),
                     (R, 5, Activation.SOFTMAX)])
    rng = np.random.default_rng(8)
    params = _random_params(rng, spec)
    state = RnnState(spec)
    step_rnn(spec, params, rng.normal(size=(3, 3)), state)
    before = _state_bytes(spec, state)
    with count_macs() as counter:
        out = step_rnn(spec, params, np.zeros((0, 3)), state)
        prev = state.layer(1)
        hidden = step_recurrent(spec.layers[1], params.layers[1], np.zeros((0, 4)), prev)
        dense = forward_dense(spec.layers[0], params.layers[0], np.zeros((0, 3)))
    assert (out.shape, hidden.shape, dense.shape) == ((0, 5), (0, 2), (0, 4))
    assert _state_bytes(spec, state) == before
    assert counter.count == 0
    ffnn = chain(3, [(D, 2, Activation.SOFTMAX)])
    assert run_ffnn(ffnn, zero_params(ffnn), np.zeros((0, 3))).shape == (0, 2)


# --- MAC instrumentation -----------------------------------------------------

def test_three_layer_example_costs_15_macs():
    spec = chain(3, [(D, 3, Activation.SIGMOID), (D, 2, Activation.SOFTMAX)])
    params = zero_params(spec)
    with count_macs() as counter:
        run_ffnn(spec, params, np.zeros(3))
    assert counter.count == 15


def test_recurrent_example_costs_631_macs_per_step():
    spec = chain(
        12,
        [
            (D, 9, Activation.RELU),
            (D, 9, Activation.RELU),
            (R, 17, Activation.SOFTMAX),
        ],
    )
    params = zero_params(spec)
    state = RnnState(spec)
    with count_macs() as counter:
        step_rnn(spec, params, np.zeros(12), state)
    assert counter.count == 631
    with count_macs() as counter2:
        step_rnn(spec, params, np.zeros(12), state)
    assert counter2.count == 631


def test_counting_does_not_change_results(rng):
    spec, params = random_model(rng, allow_recurrent=False)
    x = rng.normal(size=spec.features)
    plain = run_ffnn(spec, params, x)
    with count_macs():
        counted = run_ffnn(spec, params, x)
    assert np.array_equal(plain, counted)


def test_counters_nest_innermost_wins():
    with count_macs() as outer:
        record_macs(5)
        with count_macs() as inner:
            record_macs(3)
        record_macs(2)
    assert inner.count == 3
    assert outer.count == 7


def test_record_macs_without_counter_is_noop():
    record_macs(10)  # must not raise
