"""Initialization, explicit backprop, optimizers, BPTT, retraining hooks."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from microgest.errors import (
    DivergenceDetected,
    InvalidParams,
    NonFiniteParameter,
    ShapeMismatch,
)
from microgest.estimator import count_weights
from microgest.inference import _ACTIVATIONS, count_macs, step_rnn
from microgest.model import (
    Activation,
    LayerKind,
    RnnState,
    _check_size,
    chain,
    parse_arch,
    zero_params,
)
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

from microgest import backprop, training
from conftest import (
    OracleAdam,
    OracleSgd,
    max_rel_error,
    numeric_grad,
    openblas_kernel,
    oracle_window_route,
)

D, R = LayerKind.DENSE, LayerKind.RECURRENT
A = Activation


def _cfg(**kw):
    base = dict(optimizer="sgd", learning_rate=0.1, epochs=3, batch_size=4, seed=0)
    base.update(kw)
    return TrainingConfig(**base)


# --- initialization ----------------------------------------------------------

def test_init_is_deterministic_per_seed():
    spec = chain(6, [(D, 5, A.TANH), (D, 3, A.SOFTMAX)])
    a, b = init_params(spec, 42), init_params(spec, 42)
    c = init_params(spec, 43)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
    assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)


def test_init_biases_are_zero():
    spec = chain(4, [(R, 6, A.SIGMOID), (D, 3, A.SOFTMAX)])
    params = init_params(spec, 0)
    for lp in params.layers:
        assert np.all(lp.biases == 0.0)


def test_init_weight_variance_scales_with_fan_in():
    spec = chain(200, [(D, 400, A.RELU), (D, 400, A.TANH), (D, 5, A.SOFTMAX)])
    params = init_params(spec, 1)
    relu_var = params.layers[0].weights.var()
    tanh_var = params.layers[1].weights.var()
    assert relu_var == pytest.approx(2.0 / 200, rel=0.05)
    assert tanh_var == pytest.approx(1.0 / 400, rel=0.05)


def test_init_shapes_cover_recurrent_fan_in():
    spec = chain(4, [(R, 6, A.TANH), (D, 3, A.SOFTMAX)])
    params = init_params(spec, 0)
    assert params.layers[0].weights.shape == (6, 10)
    assert params.layers[1].weights.shape == (3, 6)


@pytest.mark.parametrize("make", [lambda spec: init_params(spec, 0), zero_params],
                         ids=["init_params", "zero_params"])
def test_parameters_above_the_size_cap_are_refused_before_allocation(make):
    # 4097 * 4097 = 16,785,409 weights, just above MAX_DENSE_WEIGHTS = 4096 * 4096;
    # the refusal must come before numpy allocates the 134 MB
    with pytest.raises(InvalidParams, match="16785409 dense weights, above the 16777216 cap"):
        make(parse_arch("4097-4097softmax"))
    _check_size(parse_arch("4096-4096softmax"))  # at the cap


# --- configuration validation -------------------------------------------------

@pytest.mark.parametrize(
    "kw",
    [
        dict(optimizer="rmsprop"),
        dict(learning_rate=-0.1),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(epochs=-1),
        dict(batch_size=0),
        dict(optimizer="Adam"),
        dict(learning_rate=float("-inf")),
        dict(epochs=-100),
        dict(batch_size=-1),
        dict(optimizer=""),
    ],
)
def test_bad_training_config_rejected(kw):
    with pytest.raises(InvalidParams):
        _cfg(**kw)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None])
def test_a_seed_that_is_not_a_non_negative_integer_is_refused(seed):
    # -1 once raised numpy's ValueError from default_rng, 1.5 a TypeError
    spec = chain(6, [(D, 5, A.TANH), (D, 3, A.SOFTMAX)])
    with pytest.raises(InvalidParams, match="seed"):
        _cfg(seed=seed)
    with pytest.raises(InvalidParams, match="seed"):
        init_params(spec, seed)


def test_a_numpy_integer_seed_is_the_same_seed():
    spec = chain(6, [(D, 5, A.TANH), (D, 3, A.SOFTMAX)])
    assert _cfg(seed=np.uint32(7)).seed == 7
    for a, b in zip(init_params(spec, np.int64(7)).layers, init_params(spec, 7).layers):
        assert a.weights.tobytes() == b.weights.tobytes()


def test_zero_learning_rate_and_zero_epochs_are_legal():
    _cfg(learning_rate=0.0)
    _cfg(epochs=0)


# --- feed-forward gradients ---------------------------------------------------

def _grad_check(spec, params, X, y):
    arrays = [lp.weights for lp in params.layers] + [lp.biases for lp in params.layers]
    numeric = numeric_grad(lambda: evaluate_loss(spec, params, X, y), arrays)
    gW, gb = gradients(spec, params, X, y)
    return max_rel_error(gW + gb, numeric)


def test_ffnn_gradients_match_finite_differences():
    spec = chain(4, [(D, 5, A.TANH), (D, 4, A.RELU), (D, 3, A.SOFTMAX)])
    params = init_params(spec, 3)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    assert _grad_check(spec, params, X, y) < 1e-4


def test_gradients_through_every_elementwise_activation():
    for act in (A.SIGMOID, A.TANH, A.HARD_SIGMOID, A.SOFTSIGN, A.RELU):
        spec = chain(3, [(D, 4, act), (D, 2, A.SOFTMAX)])
        params = init_params(spec, 5)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5)
        assert _grad_check(spec, params, X, y) < 1e-4, act


def test_gradients_through_hidden_softmax_layer():
    spec = chain(4, [(D, 4, A.SOFTMAX), (D, 3, A.SOFTMAX)])
    params = init_params(spec, 9)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    assert _grad_check(spec, params, X, y) < 1e-4


def test_uniform_output_gradient_has_closed_form():
    # all-zero parameters emit a uniform distribution, so the output delta is
    # (1/n - onehot) / batch and the bias gradient equals its column sums
    spec = chain(2, [(D, 4, A.SOFTMAX)])
    params = zero_params(spec)
    X = np.ones((2, 2))
    y = np.array([1, 3])
    _, gb = gradients(spec, params, X, y)
    want = np.full(4, 0.25) - 0.5 * (np.eye(4)[1] + np.eye(4)[3])
    assert np.allclose(gb[0], want)


def test_zero_model_loss_is_log_output_size():
    spec = chain(3, [(D, 5, A.SOFTMAX)])
    loss = evaluate_loss(spec, zero_params(spec), np.ones((4, 3)), np.zeros(4, int))
    assert loss == pytest.approx(np.log(5.0))


def test_max_and_approx_softmax_outputs_train_as_softmax():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6)
    grads_by_kind = []
    for act in (A.SOFTMAX, A.MAX, A.APPROX_SOFTMAX):
        spec = chain(3, [(D, 2, act)])
        params = init_params(spec, 6)
        gW, gb = gradients(spec, params, X, y)
        grads_by_kind.append((gW[0], gb[0]))
    for gW, gb in grads_by_kind[1:]:
        assert np.array_equal(gW, grads_by_kind[0][0])
        assert np.array_equal(gb, grads_by_kind[0][1])


@pytest.mark.parametrize("arch", ["180-8relu-5softmax", "6-5tanh-4sigmoid-3max"])
def test_training_forward_passes_count_macs_per_row(arch):
    spec = parse_arch(arch)
    rng = np.random.default_rng(9)
    X = rng.normal(size=(7, spec.features))
    y = rng.integers(0, spec.output_size, size=7)
    with count_macs() as counter:
        evaluate_loss(spec, init_params(spec, 0), X, y)
    assert counter.count == len(X) * count_weights(spec)


def test_non_softmax_output_rejected_for_training():
    spec = chain(3, [(D, 2, A.SIGMOID)])
    params = init_params(spec, 0)
    with pytest.raises(InvalidParams):
        gradients(spec, params, np.ones((2, 3)), np.zeros(2, int))


@pytest.mark.parametrize(
    "X, y, err",
    [
        (np.ones((2, 5)), np.zeros(2, int), ShapeMismatch),
        (np.ones((2, 3)), np.zeros(3, int), ShapeMismatch),
        (np.ones((0, 3)), np.zeros(0, int), InvalidParams),
        (np.ones((2, 3)), np.array([0, 2]), InvalidParams),
    ],
)
def test_ffnn_data_validation(X, y, err):
    spec = chain(3, [(D, 2, A.SOFTMAX)])
    with pytest.raises(err):
        gradients(spec, init_params(spec, 0), X, y)


@pytest.mark.parametrize("fn", [evaluate_loss, classification_accuracy])
def test_loss_and_accuracy_reject_parameters_of_another_network(fn):
    # the 5-unit hidden layer still chains, so an unchecked pass computes
    spec = parse_arch("4-3relu-2softmax")
    params = init_params(parse_arch("4-5relu-2softmax"), 0)
    X = np.random.default_rng(8).normal(size=(3, 4))
    with pytest.raises(ShapeMismatch):
        fn(spec, params, X, np.array([0, 1, 0]))


@pytest.mark.parametrize("fn", [evaluate_loss, classification_accuracy])
def test_loss_and_accuracy_reject_a_non_finite_weight(fn):
    spec = parse_arch("4-3relu-2softmax")
    params = init_params(spec, 0)
    params.layers[1].weights[0, 2] = np.nan
    with pytest.raises(NonFiniteParameter):
        fn(spec, params, np.ones((3, 4)), np.array([0, 1, 0]))


@pytest.mark.parametrize("kind", [k for k in Activation if backprop._train_kind(k) is k])
def test_pull_back_writes_into_out_as_it_returns(kind):
    # the recurrent backward loop writes each step's dZ through out=
    rng = np.random.default_rng(23)
    for shape in ((1,), (17,), (6, 9), (3, 1, 5)):
        Z = rng.normal(0.0, 3.0, size=shape)
        Z.flat[::4] = 0.0
        Z.flat[1::6] = 2.5
        A = _ACTIVATIONS[kind](Z)
        dA = rng.normal(size=shape)
        dA.flat[::5] = -0.0
        inputs = [x.copy() for x in (Z, A, dA)]
        want = backprop._pull_back(kind, Z, A, dA)
        out = np.full(shape, np.nan)
        assert backprop._pull_back(kind, Z, A, dA, out) is out
        assert out.tobytes() == want.tobytes()
        assert [x.tobytes() for x in (Z, A, dA)] == [x.tobytes() for x in inputs]


# --- feed-forward training ----------------------------------------------------

def _xor_data():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    return X, y


def test_training_is_deterministic():
    spec = chain(2, [(D, 6, A.TANH), (D, 2, A.SOFTMAX)])
    X, y = _xor_data()
    cfg = _cfg(optimizer="adam", learning_rate=0.05, epochs=20)
    a, ha = train_ffnn(spec, init_params(spec, 1), X, y, cfg)
    b, hb = train_ffnn(spec, init_params(spec, 1), X, y, cfg)
    assert ha == hb
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)


def test_zero_learning_rate_leaves_parameters_unchanged():
    spec = chain(2, [(D, 4, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 2)
    X, y = _xor_data()
    out, history = train_ffnn(spec, params, X, y, _cfg(learning_rate=0.0, epochs=5))
    assert len(history) == 5
    # batch order varies per epoch, so summation order may shift the last ulp
    assert np.allclose(history, history[0], rtol=1e-12)
    for lp, lo in zip(params.layers, out.layers):
        assert np.array_equal(lp.weights, lo.weights)


def test_zero_epochs_returns_a_copy_of_the_input():
    spec = chain(2, [(D, 4, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 2)
    out, history = train_ffnn(spec, params, *_xor_data(), _cfg(epochs=0))
    assert history == []
    for lp, lo in zip(params.layers, out.layers):
        assert np.array_equal(lp.weights, lo.weights)
        assert lp.weights is not lo.weights


def test_xor_trains_to_perfect_accuracy():
    spec = chain(2, [(D, 6, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 1)
    X, y = _xor_data()
    cfg = _cfg(optimizer="adam", learning_rate=0.05, epochs=300)
    trained, history = train_ffnn(spec, params, X, y, cfg)
    assert history[-1] < history[0] / 10
    assert classification_accuracy(spec, trained, X, y) == 1.0


def test_sgd_reduces_loss_on_separable_data():
    rng = np.random.default_rng(7)
    X = np.concatenate([rng.normal(-2, 0.3, (20, 2)), rng.normal(2, 0.3, (20, 2))])
    y = np.concatenate([np.zeros(20, int), np.ones(20, int)])
    spec = chain(2, [(D, 2, A.SOFTMAX)])
    trained, history = train_ffnn(
        spec, init_params(spec, 0), X, y, _cfg(learning_rate=0.5, epochs=40)
    )
    assert history[-1] < history[0] / 5
    assert classification_accuracy(spec, trained, X, y) == 1.0


def test_exploding_run_raises_divergence():
    spec = chain(2, [(D, 3, A.RELU), (D, 2, A.SOFTMAX)])
    params = zero_params(spec)
    for lp in params.layers:
        lp.weights[:] = 1e200
    X = np.array([[1.0, 2.0], [2.0, 1.0]])
    y = np.array([0, 1])
    with pytest.raises(DivergenceDetected):
        train_ffnn(spec, params, X, y, _cfg(learning_rate=0.1, batch_size=2))


def test_exploding_bptt_run_raises_divergence():
    spec = chain(2, [(R, 3, A.RELU), (D, 2, A.SOFTMAX)])
    params = zero_params(spec)
    for lp in params.layers:
        lp.weights[:] = 1e200
    X = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]])
    targets = np.array([0, -1, 1])
    with pytest.raises(DivergenceDetected):
        train_rnn_bptt(spec, params, [(X, targets)], _cfg(learning_rate=0.1), horizon=2)


# --- pruned retraining --------------------------------------------------------

def test_retrain_pruned_pins_removed_weights_at_zero():
    spec = chain(2, [(D, 6, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 3)
    removed = [np.abs(lp.weights) < 0.3 for lp in params.layers]
    assert any(m.any() for m in removed)
    X, y = _xor_data()
    cfg = _cfg(optimizer="adam", learning_rate=0.05, epochs=50)
    out, _ = retrain_pruned(spec, params, removed, X, y, cfg)
    for lo, m, lp in zip(out.layers, removed, params.layers):
        assert np.all(lo.weights[m] == 0.0)
        assert not np.array_equal(lo.weights[~m], lp.weights[~m])


def test_retrain_pruned_with_empty_mask_matches_plain_training():
    spec = chain(2, [(D, 4, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 4)
    removed = [np.zeros_like(lp.weights, dtype=bool) for lp in params.layers]
    X, y = _xor_data()
    cfg = _cfg(optimizer="adam", learning_rate=0.05, epochs=30)
    a, ha = retrain_pruned(spec, params, removed, X, y, cfg)
    b, hb = train_ffnn(spec, params, X, y, cfg)
    assert ha == hb
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)


def test_retrain_pruned_validates_its_masks():
    # a transposed mask has the right size, so the flat parameter buffer
    # would take it without a shape check; a missing one once went unseen
    spec = chain(2, [(D, 3, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 4)
    X, y = _xor_data()
    good = [np.zeros_like(lp.weights, dtype=bool) for lp in params.layers]
    for removed in ([good[0].T, good[1]], good[:1], good + [good[1]]):
        with pytest.raises(ShapeMismatch):
            retrain_pruned(spec, params, removed, X, y, _cfg(epochs=1))


# --- quantized retraining -----------------------------------------------------

def test_identity_quantization_reproduces_plain_training():
    # one centroid per weight makes shared-weight training collapse to the
    # ordinary per-weight update, so both paths must agree bit for bit
    spec = chain(2, [(D, 4, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 5)
    assignments = []
    centroids = []
    for lp in params.layers:
        assignments.append(np.arange(lp.weights.size).reshape(lp.weights.shape))
        centroids.append(lp.weights.ravel().copy())
    X, y = _xor_data()
    cfg = _cfg(optimizer="adam", learning_rate=0.05, epochs=30)
    _, quant_out, qh = retrain_quantized(spec, params, assignments, centroids, X, y, cfg)
    plain_out, ph = train_ffnn(spec, params, X, y, cfg)
    assert qh == ph
    for lq, lp in zip(quant_out.layers, plain_out.layers):
        assert np.array_equal(lq.weights, lp.weights)
        assert np.array_equal(lq.biases, lp.biases)


def test_centroid_gradient_is_the_sum_over_members():
    spec = chain(2, [(D, 2, A.SOFTMAX)])
    params = init_params(spec, 6)
    # two clusters split the four weights into pairs
    assignment = np.array([[0, 1], [1, 0]])
    centroids = np.array([0.3, -0.2])
    quant_params = zero_params(spec)
    quant_params.layers[0].weights[:] = centroids[assignment]
    X = np.array([[1.0, -2.0], [0.5, 0.8], [-1.0, 0.2]])
    y = np.array([0, 1, 1])
    gW, _ = gradients(spec, quant_params, X, y)
    want = np.array(
        [gW[0][0, 0] + gW[0][1, 1], gW[0][0, 1] + gW[0][1, 0]]
    )
    cfg = _cfg(learning_rate=0.1, epochs=1, batch_size=8)
    new_centroids, _, _ = retrain_quantized(
        spec, params, [assignment], [centroids], X, y, cfg
    )
    # params' own weights are ignored: the forward pass reads centroids
    assert np.allclose(new_centroids[0], centroids - 0.1 * want)


def test_quantized_retraining_keeps_pruned_positions_at_zero():
    spec = chain(3, [(D, 3, A.SOFTMAX)])
    params = init_params(spec, 7)
    assignment = np.array([[0, -1, 1], [-1, 0, 1], [1, -1, 0]])
    centroids = np.array([0.4, -0.6])
    rng = np.random.default_rng(8)
    X = rng.normal(size=(12, 3))
    y = rng.integers(0, 3, size=12)
    cfg = _cfg(optimizer="adam", learning_rate=0.05, epochs=20)
    new_c, out, _ = retrain_quantized(spec, params, [assignment], [centroids], X, y, cfg)
    W = out.layers[0].weights
    assert np.all(W[assignment < 0] == 0.0)
    assert np.array_equal(W[assignment >= 0],
                          np.asarray(new_c[0])[assignment[assignment >= 0]])
    assert not np.array_equal(out.layers[0].biases, params.layers[0].biases)


def test_quantized_retraining_validates_assignments():
    spec = chain(2, [(D, 2, A.SOFTMAX)])
    params = init_params(spec, 0)
    X, y = np.ones((2, 2)), np.zeros(2, int)
    with pytest.raises(ShapeMismatch):
        retrain_quantized(spec, params, [np.zeros((3, 3), int)], [np.zeros(1)], X, y, _cfg())
    with pytest.raises(InvalidParams):
        retrain_quantized(
            spec, params, [np.full((2, 2), 5)], [np.zeros(2)], X, y, _cfg()
        )
    # -1 marks a pruned position; any other negative index is refused
    with pytest.raises(InvalidParams):
        retrain_quantized(
            spec, params, [np.full((2, 2), -5)], [np.zeros(2)], X, y, _cfg()
        )
    retrain_quantized(spec, params, [np.full((2, 2), -1)], [np.zeros(2)], X, y, _cfg())
    # the centroid tables share one flat buffer with the biases, so a
    # missing, extra or two-dimensional table must not shift them
    good = [np.zeros((2, 2), int)]
    for assignments, centroids in [(good, []), (good, [np.zeros(2)] * 2),
                                   (good * 2, [np.zeros(2)]),
                                   (good, [np.zeros((2, 1))])]:
        with pytest.raises(ShapeMismatch):
            retrain_quantized(spec, params, assignments, centroids, X, y, _cfg())


# --- recurrent training -------------------------------------------------------

def _echo_sequences(rng, n, length):
    """Predict the previous frame's bit: needs one step of memory."""
    seqs = []
    for _ in range(n):
        bits = rng.integers(0, 2, size=length)
        X_seq = np.eye(2)[bits]
        targets = np.full(length, -1)
        targets[1:] = bits[:-1]
        seqs.append((X_seq, targets))
    return seqs


def test_bptt_gradients_match_finite_differences():
    spec = chain(3, [(R, 4, A.TANH), (D, 3, A.SOFTMAX)])
    params = init_params(spec, 11)
    rng = np.random.default_rng(3)
    X_seq = rng.normal(size=(6, 3))
    targets = np.array([-1, 0, 2, -1, 1, 2])
    arrays = [lp.weights for lp in params.layers] + [lp.biases for lp in params.layers]
    numeric = numeric_grad(
        lambda: sequence_loss(spec, params, X_seq, targets), arrays
    )
    gW, gb = sequence_gradients(spec, params, X_seq, targets, horizon=None)
    assert max_rel_error(gW + gb, numeric) < 1e-4


def test_bptt_gradients_with_stacked_recurrent_layers():
    spec = chain(2, [(R, 3, A.SOFTSIGN), (R, 3, A.SIGMOID), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 12)
    rng = np.random.default_rng(4)
    X_seq = rng.normal(size=(7, 2))
    targets = rng.integers(0, 2, size=7)
    arrays = [lp.weights for lp in params.layers] + [lp.biases for lp in params.layers]
    numeric = numeric_grad(
        lambda: sequence_loss(spec, params, X_seq, targets), arrays
    )
    gW, gb = sequence_gradients(spec, params, X_seq, targets, horizon=None)
    assert max_rel_error(gW + gb, numeric) < 1e-4


def test_horizon_covering_the_sequence_equals_full_backprop():
    spec = chain(2, [(R, 3, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 13)
    rng = np.random.default_rng(5)
    X_seq = rng.normal(size=(9, 2))
    targets = rng.integers(0, 2, size=9)
    full = sequence_gradients(spec, params, X_seq, targets, horizon=None)
    wide = sequence_gradients(spec, params, X_seq, targets, horizon=9)
    for a, b in zip(full[0] + full[1], wide[0] + wide[1]):
        assert np.array_equal(a, b)


def test_truncation_changes_the_gradient():
    spec = chain(2, [(R, 3, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 13)
    rng = np.random.default_rng(6)
    X_seq = rng.normal(size=(9, 2))
    targets = rng.integers(0, 2, size=9)
    full = sequence_gradients(spec, params, X_seq, targets, horizon=None)
    cut = sequence_gradients(spec, params, X_seq, targets, horizon=2)
    assert not np.allclose(full[0][0], cut[0][0])
    assert all(np.all(np.isfinite(g)) for g in cut[0] + cut[1])


def test_bptt_learns_a_one_step_echo():
    rng = np.random.default_rng(42)
    spec = chain(2, [(R, 8, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 7)
    seqs = _echo_sequences(rng, 8, 30)
    cfg = TrainingConfig(optimizer="adam", learning_rate=0.02, epochs=150,
                         batch_size=1, seed=3)
    trained, history = train_rnn_bptt(spec, params, seqs, cfg, horizon=8)
    assert history[-1] < history[0] / 20
    correct = total = 0
    for X_seq, targets in _echo_sequences(rng, 4, 40):
        state = RnnState(spec)
        for t in range(X_seq.shape[0]):
            out = step_rnn(spec, trained, X_seq[t], state)
            if targets[t] >= 0:
                correct += int(np.argmax(out) == targets[t])
                total += 1
    assert correct / total == 1.0


def test_rnn_training_is_deterministic():
    rng = np.random.default_rng(0)
    spec = chain(2, [(R, 4, A.TANH), (D, 2, A.SOFTMAX)])
    seqs = _echo_sequences(rng, 3, 12)
    cfg = TrainingConfig(optimizer="adam", learning_rate=0.05, epochs=10,
                         batch_size=1, seed=2)
    a, ha = train_rnn_bptt(spec, init_params(spec, 1), seqs, cfg, horizon=4)
    b, hb = train_rnn_bptt(spec, init_params(spec, 1), seqs, cfg, horizon=4)
    assert ha == hb
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)


def test_unlabeled_sequences_take_no_steps():
    spec = chain(2, [(R, 3, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 1)
    seqs = [(np.ones((10, 2)), np.full(10, -1))]
    out, history = train_rnn_bptt(spec, params, seqs, _cfg(epochs=3), horizon=4)
    assert history == [0.0, 0.0, 0.0]
    for lp, lo in zip(params.layers, out.layers):
        assert np.array_equal(lp.weights, lo.weights)


def test_sequence_gradients_need_a_labeled_frame():
    spec = chain(2, [(R, 3, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 1)
    with pytest.raises(InvalidParams):
        sequence_gradients(spec, params, np.ones((4, 2)), np.full(4, -1))


def test_rnn_input_validation():
    spec = chain(2, [(R, 3, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 1)
    with pytest.raises(InvalidParams):
        train_rnn_bptt(spec, params, [], _cfg())
    with pytest.raises(ShapeMismatch):
        train_rnn_bptt(spec, params, [(np.ones((4, 3)), np.zeros(4, int))], _cfg())
    with pytest.raises(ShapeMismatch):
        train_rnn_bptt(spec, params, [(np.ones((4, 2)), np.zeros(5, int))], _cfg())
    with pytest.raises(InvalidParams):
        train_rnn_bptt(spec, params, [(np.ones((4, 2)), np.full(4, 9))], _cfg())
    with pytest.raises(InvalidParams):
        train_rnn_bptt(
            spec, params, [(np.ones((4, 2)), np.zeros(4, int))], _cfg(), horizon=0
        )


def test_sequence_loss_rejects_parameters_of_another_network():
    spec = chain(2, [(R, 3, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(chain(2, [(R, 4, A.TANH), (D, 2, A.SOFTMAX)]), 1)
    with pytest.raises(ShapeMismatch):
        sequence_loss(spec, params, np.ones((4, 2)), np.zeros(4, int))


def test_sequence_loss_rejects_a_non_finite_weight():
    spec = chain(2, [(R, 3, A.TANH), (D, 2, A.SOFTMAX)])
    params = init_params(spec, 1)
    params.layers[0].biases[1] = np.inf
    with pytest.raises(NonFiniteParameter):
        sequence_loss(spec, params, np.ones((4, 2)), np.zeros(4, int))


# --- the flat optimizer buffer against per-array updates ---------------------

_PARAM_SHAPES = st.one_of(
    st.tuples(st.integers(1, 9), st.integers(1, 9)),  # weights, maybe pruned
    st.tuples(st.integers(1, 9)),  # biases, or a centroid table
)


@settings(max_examples=80, deadline=None)
@given(shapes=st.lists(_PARAM_SHAPES, min_size=1, max_size=6),
       optimizer=st.sampled_from(["sgd", "adam"]),
       seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 6),
       pruned=st.booleans())
def test_the_flat_optimizer_equals_per_array_updates(shapes, optimizer, seed,
                                                    steps, pruned):
    # bit for bit: element-wise IEEE arithmetic rounds each element alone
    rng = np.random.default_rng(seed)
    cfg = TrainingConfig(optimizer=optimizer,
                         learning_rate=float(10.0 ** rng.uniform(-4, 0)))
    arrays = [rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 2) for shape in shapes]
    # pruned weights start at 0.0 and see zero gradients, as in retraining
    masks = [rng.random(a.shape) < 0.4 if pruned and a.ndim == 2 else None
             for a in arrays]
    for a, m in zip(arrays, masks):
        if m is not None:
            a[m] = 0.0
    flat, views = training._flat_copy(arrays)
    fast = training._make_optimizer(flat.size, cfg)
    slow = (OracleAdam if optimizer == "adam" else OracleSgd)(arrays, cfg)
    for _ in range(steps):
        grads = [rng.normal(size=a.shape) * 10.0 ** rng.uniform(-8, 3) for a in arrays]
        for g, m in zip(grads, masks):
            if m is not None:
                g[m] = 0.0
        fast.step(flat, np.concatenate(grads, axis=None))
        slow.step(arrays, grads)
    assert [v.tobytes() for v in views] == [a.tobytes() for a in arrays]
    if optimizer == "adam":
        assert fast.m.tobytes() == np.concatenate(slow.m, axis=None).tobytes()
        assert fast.v.tobytes() == np.concatenate(slow.v, axis=None).tobytes()
    for v, m in zip(views, masks):
        if m is not None:
            assert not v[m].any()


# --- time-major windows against the per-step oracle --------------------------

_HIDDEN = [A.SIGMOID, A.TANH, A.HARD_SIGMOID, A.SOFTSIGN, A.RELU, A.SOFTMAX]


@st.composite
def _window_specs(draw):
    """A dense prefix (maybe none), a stepped part, a softmax-family output.

    The stepped part is one or two stacked recurrent layers, maybe with
    dense layers above them, or no recurrent layer at all."""
    width = st.integers(1, 6)
    hidden = st.sampled_from(_HIDDEN)
    defs = [(D, draw(width), draw(hidden)) for _ in range(draw(st.integers(0, 3)))]
    defs += [(R, draw(width), draw(hidden)) for _ in range(draw(st.integers(0, 2)))]
    defs += [(D, draw(width), draw(hidden)) for _ in range(draw(st.integers(0, 2)))]
    out = draw(st.sampled_from([A.SOFTMAX, A.MAX, A.APPROX_SOFTMAX]))
    kind = R if out is not A.MAX and draw(st.booleans()) else D
    defs.append((kind, draw(width), out))
    return chain(draw(width), defs)


def _sequence_route(spec, params, X, targets, horizon):
    """Everything the public sequence functions return, and the MACs counted."""
    cfg = TrainingConfig(optimizer="adam", learning_rate=0.05, epochs=2,
                         batch_size=1, seed=5)
    with count_macs() as counter:
        loss = sequence_loss(spec, params, X, targets)
        grads = []
        if (targets >= 0).any():
            gW, gb = sequence_gradients(spec, params, X, targets, horizon=horizon)
            grads = gW + gb
        trained, history = train_rnn_bptt(
            spec, params, [(X, targets), (X[::-1], targets)], cfg, horizon=horizon
        )
    arrays = grads + [a for lp in trained.layers for a in (lp.weights, lp.biases)]
    return loss, [a.tobytes() for a in arrays], history, counter.count


@settings(max_examples=120, deadline=None)
@given(spec=_window_specs(), seed=st.integers(0, 2**31 - 1),
       length=st.integers(1, 40), horizon=st.integers(1, 45),
       labels=st.sampled_from(["every", "some", "gap", "none"]))
@example(spec=chain(1, [(D, 1, A.SIGMOID), (D, 1, A.RELU), (R, 1, A.TANH),
                        (D, 1, A.SOFTMAX)]),
         seed=3, length=37, horizon=37, labels="some")
@example(spec=parse_arch("12-9-9-r17softmax"), seed=4, length=1, horizon=1,
         labels="every")
def test_sequence_functions_equal_the_per_step_oracle(spec, seed, length, horizon, labels):
    # bit for bit: each dense layer runs once per window, the oracle steps it
    rng = np.random.default_rng(seed)
    X = 3.0 * rng.normal(size=(length, spec.features))
    X[rng.random(length) < 0.2] = 0.0  # relu kinks
    targets = rng.integers(0, spec.output_size, size=length)
    if labels == "some":
        targets[rng.random(length) < 0.5] = -1
    elif labels == "gap":  # whole windows without a label
        targets[length // 4 : 3 * length // 4 + 1] = -1
    elif labels == "none":
        targets[:] = -1
    params = init_params(spec, seed)
    fast = _sequence_route(spec, params, X, targets, horizon)
    with oracle_window_route():
        slow = _sequence_route(spec, params, X, targets, horizon)
    assert fast == slow


def test_stacked_products_equal_per_row_products_bit_for_bit():
    # The windowed passes rely on numpy multiplying a (T, 1, f) stack and a
    # stack of (n, 1) columns one row at a time, exactly as it does a lone
    # vector; a plain (T, f) product goes to another routine and rounds
    # differently.  A numpy or BLAS that changes this must fail here.
    rng = np.random.default_rng(61)
    shapes = [(T, n, f) for T in (1, 2, 37) for n in (1, 2) for f in (1, 3)]
    shapes += [tuple(int(v) for v in rng.integers(1, (41, 21, 21))) for _ in range(600)]
    for T, n, f in shapes:
        W = rng.normal(size=(n, f)) * rng.choice([1e-3, 1.0, 50.0])
        U = rng.normal(size=(T, f))
        dZ = rng.normal(size=(T, n))
        forward = (U[:, None, :] @ W.T)[:, 0]
        backward = (W.T @ dZ[:, :, None])[:, :, 0]
        assert forward.tobytes() == np.stack([u @ W.T for u in U]).tobytes()
        assert backward.tobytes() == np.stack([W.T @ dz for dz in dZ]).tobytes()


def test_chunked_gradient_sums_equal_the_last_to_first_loop_bit_for_bit():
    # The window gradients rely on numpy forming a (n, 1) @ (1, f) stack
    # product exactly as the element-wise outer product and reducing a
    # reversed chunk of those terms over its first axis one step after
    # another; a pairwise reduction would round differently.  A numpy that
    # changes either must fail here.
    rng = np.random.default_rng(71)
    for T in range(1, 71):
        for n, f in [(1, 1), (1, 4), (3, 1), (17, 26), (9, 12)] + [
            tuple(int(v) for v in rng.integers(1, 20, 2))
        ]:
            dZ = rng.normal(size=(T, n)) * 10.0 ** rng.uniform(-6, 6, (T, n))
            U = np.ones((T, f + 1))
            U[:, :f] = rng.normal(size=(T, f)) * 10.0 ** rng.uniform(-6, 6, (T, f))
            dZ[rng.random((T, n)) < 0.1] = -0.0
            U[:, :f][rng.random((T, f)) < 0.1] = -0.0
            loop = np.zeros((n, f + 1))
            for t in range(T - 1, -1, -1):
                loop += dZ[t, :, None] * U[t]
            assert backprop._stepwise_sum(dZ, U).tobytes() == loop.tobytes()


def test_one_window_backward_pass_stays_within_its_memory_bound():
    # The per-step walk it replaced peaked at 31 568 traced bytes here; the
    # chunked sums may add one chunk of outer products (8 steps of the
    # widest layer, 17 x 27 floats), not one per step of the window.
    import tracemalloc

    spec = parse_arch("12-9-9-r17softmax")
    params = init_params(spec, 0)
    Ws = [lp.weights for lp in params.layers]
    bs = [lp.biases for lp in params.layers]
    rng = np.random.default_rng(0)
    X = rng.normal(size=(32, 12))
    targets = rng.integers(0, 17, 32)
    targets[rng.random(32) < 0.3] = -1
    net = backprop._Net(spec)
    caches = backprop._forward_window(net, Ws, bs, X, RnnState(spec))
    backprop._backward_window(net, Ws, *caches, targets, 0.1)  # warm caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grads = backprop._backward_window(net, Ws, *caches, targets, 0.1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert grads[0][-1].shape == (17, 26)
    assert peak <= 31_568 + 8 * 17 * 27 * 8


# --- pinned trained weights ---------------------------------------------------

def _assert_pinned(digest, per_kernel):
    kernel = openblas_kernel()
    assert kernel in per_kernel, f"no digest recorded for OpenBLAS kernel {kernel}: got {digest}"
    assert digest == per_kernel[kernel], f"OpenBLAS kernel {kernel}"


def _params_sha(params) -> str:
    h = hashlib.sha256()
    for lp in params.layers:
        h.update(np.ascontiguousarray(lp.weights, dtype=float).tobytes())
        h.update(np.ascontiguousarray(lp.biases, dtype=float).tobytes())
    return h.hexdigest()


def _pinned_ffnn_run(kind):
    spec = parse_arch("180-8relu-5softmax")
    params = init_params(spec, 11)
    rng = np.random.default_rng(12)
    X = rng.normal(size=(96, 180))
    y = rng.integers(0, 5, size=96)
    cfg = TrainingConfig(optimizer="adam", learning_rate=0.01, epochs=4,
                         batch_size=16, seed=13)
    if kind == "train_ffnn":
        return train_ffnn(spec, params, X, y, cfg)[0]
    if kind == "retrain_pruned":
        removed = [np.abs(lp.weights) < 0.05 for lp in params.layers]
        return retrain_pruned(spec, params, removed, X, y, cfg)[0]
    assignments, centroids = [], []
    for lp in params.layers:
        c = np.linspace(lp.weights.min(), lp.weights.max(), 8)
        a = np.argmin(np.abs(lp.weights[..., None] - c), axis=-1)
        a[np.abs(lp.weights) < 0.05] = -1
        assignments.append(a)
        centroids.append(c)
    return retrain_quantized(spec, params, assignments, centroids, X, y, cfg)[1]


def _pinned_bptt_run(kind):
    spec = parse_arch("12-9-9-r17softmax")
    rng = np.random.default_rng(21)
    seqs = []
    for length in (70, 45):
        targets = rng.integers(0, 17, size=length)
        targets[rng.random(length) < 0.3] = -1
        seqs.append((rng.normal(size=(length, 12)), targets))
    cfg = TrainingConfig(optimizer="adam", learning_rate=0.01, epochs=3,
                         batch_size=1, seed=22)
    return train_rnn_bptt(spec, init_params(spec, 23), seqs, cfg, horizon=16)[0]


# SHA-256 over every layer's float64 weights then biases, one per OpenBLAS
# kernel (conftest.openblas_kernel), since each kernel sums a product in its
# own order.  The SkylakeX digests were recorded with the per-module forward
# passes that preceded the shared layer kernel; the others on one AVX-512
# host with OPENBLAS_CORETYPE set for the test process alone.
_PINNED_WEIGHTS = {
    "retrain_pruned": {
        "SkylakeX": "29027595be7d6abdaf883b2d8354a6f2d72cdee08c8d0d8eb92c0a9fea6034cc",
        "Haswell": "360827ab9804004fd03a4441baedcbacd1797f47dbf23a246013d7cf02e7f91c",
        "Sandybridge": "34a019a533368d9cc0c40ee170190382f22e4e443427e91cefb65dcf0ce7b4d2",
        "Nehalem": "23865b1e7253792ba5a097a3675ab65ca6c9a0e2117f800e003cd96d59269c09",
        "Katmai": "81dc93a08a85436c161d448a0162d18204236356b79b766b95bdcf1ca7acf723",
    },
    "retrain_quantized": {
        "SkylakeX": "8b8f0abfc431abd7be22d5b9b09ddb4e4e4e20327ce3daa19d9e7b5dc56f7269",
        "Haswell": "81c604c0f24797db2e51b0d2e7629534f4ed398ba343056507d411b2bd4eebe7",
        "Sandybridge": "1dae8eba7c55144711470f11514b5604e288de434b3b095b4080dfdd7569014d",
        "Nehalem": "521cc47dbb5b5ba302d3ab3e5dfc22e8f944eba14f899aa36e7c5190dc115e7f",
        "Katmai": "12557c763c3e98f95cb3e777a981c248037919a9a7e41ebe9457a8ad2e9bff54",
    },
    "train_ffnn": {
        "SkylakeX": "d1c0aabdf71bb153f62e84420cde2da2a20ee392cab34016b918332c7be313ef",
        "Haswell": "8f14e583635ed9aee73c7282b2636faec44cfbcd4bd87758702f84973ccbde22",
        "Sandybridge": "557e54abd25d665626d5ff6c128853ba0cb414a00d4ca8bca4a20a9954811f82",
        "Nehalem": "f0ab7ec1345edbe38d856519a077d44fd07e7562737def19375e509019d1364f",
        "Katmai": "ad0195fdb69e15738335af73dcf61213534bb0c5742f880b37b03eb8ca8674f5",
    },
    "train_rnn_bptt": {
        "SkylakeX": "172c06c131a213ee0e7b73274a6e0f27307270044a3bc87426262c5109fcaa21",
        "Haswell": "1ac412276f24bd9e5deee2c7569759446449fa6430d84c7186aec4e128f28e27",
        "Sandybridge": "9fbf425743455a5a9a3b11b46f0156dcb10fb9f89074248e21eae42f6c408f61",
        "Nehalem": "a1df68d06efe22c026cb6c77443ae11bc09505de606607aa26fcf1330d29e368",
        "Katmai": "9fbf425743455a5a9a3b11b46f0156dcb10fb9f89074248e21eae42f6c408f61",
    },
}


@pytest.mark.parametrize("kind", sorted(_PINNED_WEIGHTS))
def test_trained_weights_are_pinned(kind):
    run = _pinned_bptt_run if kind == "train_rnn_bptt" else _pinned_ffnn_run
    _assert_pinned(_params_sha(run(kind)), _PINNED_WEIGHTS[kind])


# --- pinned gradients ---------------------------------------------------------

def _grads_sha(gW, gb) -> str:
    h = hashlib.sha256()
    for g in list(gW) + list(gb):
        h.update(np.ascontiguousarray(g, dtype=float).tobytes())
    return h.hexdigest()


def _pinned_gradients(net, kind):
    rng = np.random.default_rng(31)
    # scaled inputs drive many pre-activations past the hard-sigmoid corners;
    # the all-zero first row puts every relu of that row exactly on its kink
    X = 4.0 * rng.normal(size=(12, 5))
    X[0] = 0.0
    y = rng.integers(0, 3, size=12)
    if net == "dense":
        spec = chain(5, [(D, 6, kind), (D, 4, kind), (D, 3, A.SOFTMAX)])
        return gradients(spec, init_params(spec, 32), X, y)
    spec = chain(5, [(D, 6, kind), (R, 4, kind), (R, 3, A.SOFTMAX)])
    y[rng.random(12) < 0.3] = -1
    return sequence_gradients(spec, init_params(spec, 33), X, y, horizon=5)


# SHA-256 over every layer's float64 weight gradients then bias gradients,
# one per OpenBLAS kernel as for _PINNED_WEIGHTS; the SkylakeX digests were
# recorded with separate element-wise and softmax derivative routines
_PINNED_GRADIENTS = {
    ("dense", "sigmoid"): {
        "SkylakeX": "4d0c4d5cecd2ecf607831fbebb76c702a168266b605a35cc83708498615d64c1",
        "Haswell": "2d42e0a3c2d5da33421c94bd426e2bb7d2e698576e0fc8c4ddaf2173f1383be1",
        "Sandybridge": "92021678c7037218fb50d983bedf862fa2ef96271cd48e7ee548b93e9d7d4834",
        "Nehalem": "0f4bb2fd6f97f0c8a6ce1a64f09803f0de67d90829e1984e5bc8a87c7c589e56",
        "Katmai": "fc5d4b867b1f1f1f96960fc708785befa89b3cc014233f0fc7aea38d960e9ecd",
    },
    ("dense", "tanh"): {
        "SkylakeX": "03867bef16dcb7a38430eddf0f0afe003e8e3e1a25eabec2c8178a232be72a1d",
        "Haswell": "255c55b0d7d0ebe6db72375cc2509c7dd597c1e54141bcd6e6d843bf641aad86",
        "Sandybridge": "e11b84f47cb0d841c823ab0f25a0b876118f93d3aee2f9f1b16181cf5092b5a5",
        "Nehalem": "c09b2e6ae5d170ee1ab8ac302dc97e62b855eeedd14dc101145e270c9bce7fed",
        "Katmai": "81e793aac9978e41479c68c7f87c8d4a81b329db1c19422ebc64591aada9edcc",
    },
    ("dense", "hardsigmoid"): {
        "SkylakeX": "80eec092aba3facf3bf43231247d50430bcb06d4b51b97f5da65334cab090bc9",
        "Haswell": "16ba07717d10841059d87d0762a4926b95e5a24e9bd484b16c4f0b2aba0711dd",
        "Sandybridge": "58eaeb153c5d861598fc7f32e79a32715e260b97be740c835f2c87a9d8eb2284",
        "Nehalem": "f6696537a226f844a1259d2040c1b90e6c82cde42947ed18f5f6c02f224d0d03",
        "Katmai": "4cd1808aca4cf16a4fc37e5ac827feefbb295aa55834dbf65c989a0bb28ca258",
    },
    ("dense", "softsign"): {
        "SkylakeX": "c55c3435a03143cc4574cc88b47d3df1bae7bb6b5ed6e3d5efbd52c757187465",
        "Haswell": "b65e8a2a2f5ffef450d38b1410a2fb0f2c8ada48ac065e5a60d2651c6f6c0e66",
        "Sandybridge": "e5822dd966d0d0dbf1a6e80606ecea6b74f4f293db319136a1e4a392efe4b800",
        "Nehalem": "2e2ef707019629b744c0df1914007d74dc4aa2f759e5c181c0cd92858a53d30f",
        "Katmai": "df7f9a474ae9fee174f7682bcea62bb926a6c688ebd2647434d794749862ac45",
    },
    ("dense", "relu"): {
        "SkylakeX": "7a693b0fc205a5f1b2d7c799e0dc4e84eefbfce840e22feda3079b87f2d6523d",
        "Haswell": "70d80a37aa11c97578d75836dd21505df662b17ad0040f518818112fa9a77210",
        "Sandybridge": "c159735d3a687a1e5f0012d74748008fd8640a4231c20295ec30d4d5cad17c69",
        "Nehalem": "1aa704e85ab81f9f9bc53aa5081eba510602dea7838fd6072a291496da8f3a92",
        "Katmai": "763ce2ddd2076360497a1223554ef16c2a33206ea9f2c0f5afcd0ca72042bbc9",
    },
    ("dense", "softmax"): {
        "SkylakeX": "9d98cebe740143fe833ab5e56c40b6276fb4e4c865ba1a470278f7707d43ed12",
        "Haswell": "498fddb707f7e844a3c9814c2a09e8941941861bc8491937ad28c4d73d994d10",
        "Sandybridge": "7c5333e4d06e40b3446177a76f311bd51fc5705b6780597edec381e36e9dacdc",
        "Nehalem": "9959c0049f3aa70b6f1392df959e81ea556cd4783904cb59ff5f0db9479239f8",
        "Katmai": "4bb3e3afd650105085c882da31188fdb282cb5ef5606ec3652fd005fab156156",
    },
    ("recurrent", "sigmoid"): {
        "SkylakeX": "86cef87af9b5d2c67189cbeb389bb66c3312ce9f1950e202668d31f6c780f093",
        "Haswell": "c7ca1a103e69fcbfb8f0d61e0a2d3f35236381b304b09efc33421b55e02b651c",
        "Sandybridge": "dcbce917652b80e79fec942d61f299bcd529d53fa47728b82fe8d71b07aca930",
        "Nehalem": "dcbce917652b80e79fec942d61f299bcd529d53fa47728b82fe8d71b07aca930",
        "Katmai": "dcbce917652b80e79fec942d61f299bcd529d53fa47728b82fe8d71b07aca930",
    },
    ("recurrent", "tanh"): {
        "SkylakeX": "db52763a6c940c2054a238f0ce00fd569264dec3e28127297472e53bb70e0993",
        "Haswell": "6a560f3556a3d58c81ca19c15a249320db2b720a90772a1265fc7b22e732af57",
        "Sandybridge": "14261df6594ab0c006f1bd31ed22474ad9079740be456e7a26fd96054773f73e",
        "Nehalem": "14261df6594ab0c006f1bd31ed22474ad9079740be456e7a26fd96054773f73e",
        "Katmai": "14261df6594ab0c006f1bd31ed22474ad9079740be456e7a26fd96054773f73e",
    },
    ("recurrent", "hardsigmoid"): {
        "SkylakeX": "50fccc593056d8a5f9d7147e34f9134be3c4ff4befc622fb8c8cf62f1508626f",
        "Haswell": "115e2aef55c8518fd38c8b57f6648c591610cd0faab15a16330c4213f710f89f",
        "Sandybridge": "5c6982bed2fe1b5ade7a495280ef5734c3f24a539ee53d414ef77e1ff05829b7",
        "Nehalem": "5c6982bed2fe1b5ade7a495280ef5734c3f24a539ee53d414ef77e1ff05829b7",
        "Katmai": "5c6982bed2fe1b5ade7a495280ef5734c3f24a539ee53d414ef77e1ff05829b7",
    },
    ("recurrent", "softsign"): {
        "SkylakeX": "68cef9ccccbc1096170a5b8973f157b2258cacf4e2bca353148ad3f5df495d11",
        "Haswell": "c33aa14cba4302dd9bd705e56296c5a4491d753cb45991d6866dce3e01b06e17",
        "Sandybridge": "a7d020aff5c64c620b9837bb53fd0cdf268220e1896731e10ea15c4f4a4c973b",
        "Nehalem": "a7d020aff5c64c620b9837bb53fd0cdf268220e1896731e10ea15c4f4a4c973b",
        "Katmai": "a7d020aff5c64c620b9837bb53fd0cdf268220e1896731e10ea15c4f4a4c973b",
    },
    ("recurrent", "relu"): {
        "SkylakeX": "5f26e2eb3a1bd2c06adf1e47ee7b19bf4341fc9191aa41025ab0e8cc99878197",
        "Haswell": "27e8ea6606607cdd0a7a01db38d7e1267509fa8f7058b7d325e16104b24e3064",
        "Sandybridge": "27db778d401ac168a993cd242fd38811e9e3144d71a9b1c2030556e8908e272e",
        "Nehalem": "27db778d401ac168a993cd242fd38811e9e3144d71a9b1c2030556e8908e272e",
        "Katmai": "27db778d401ac168a993cd242fd38811e9e3144d71a9b1c2030556e8908e272e",
    },
    ("recurrent", "softmax"): {
        "SkylakeX": "fe9d129011e31756f1bc435368851427688ac486a088c4b00f1b99e944f3b64b",
        "Haswell": "c02b101e5ff8722204456fccc94dd3da4c5650931cad02ba22a470a784d2c32f",
        "Sandybridge": "1b9ccfe0d32c878ab42376eba801367dcd1169bedce9883cf00101cbcda2167a",
        "Nehalem": "1b9ccfe0d32c878ab42376eba801367dcd1169bedce9883cf00101cbcda2167a",
        "Katmai": "1b9ccfe0d32c878ab42376eba801367dcd1169bedce9883cf00101cbcda2167a",
    },
}


@pytest.mark.parametrize("net, kind", sorted(_PINNED_GRADIENTS))
def test_gradients_are_pinned(net, kind):
    _assert_pinned(_grads_sha(*_pinned_gradients(net, Activation(kind))),
                   _PINNED_GRADIENTS[net, kind])
