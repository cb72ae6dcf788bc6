"""Counting identities, RAM/flash rules, execution-time model, config files."""

import math

import numpy as np
import pytest

from microgest import estimator
from microgest.errors import InvalidParams, UnknownActivationCost
from microgest.estimator import (
    Budget,
    CostModel,
    activation_time,
    check_fit,
    count_parameters,
    count_ram_variables,
    count_weights,
    estimate_exec_time,
    layer_costs,
    load_config,
    parse_config_text,
)
from microgest.inference import count_macs, run_ffnn, step_rnn
from microgest.model import Activation, LayerKind, RnnState, chain, parse_arch
from microgest.training import init_params

from conftest import random_spec

D, R = LayerKind.DENSE, LayerKind.RECURRENT
A = Activation


def _rnn17(hidden=A.SIGMOID, out=A.SOFTMAX):
    return chain(12, [(D, 9, hidden), (D, 9, hidden), (R, 17, out)])


# --- counting ----------------------------------------------------------------

def test_tiny_dense_net_counts():
    spec = chain(3, [(D, 3, A.SIGMOID), (D, 2, A.SOFTMAX)])
    assert count_weights(spec) == 15
    assert count_parameters(spec) == 20
    assert check_fit(spec).activation_calls == 5


def test_tiny_recurrent_net_counts():
    spec = chain(3, [(R, 3, A.SIGMOID), (D, 2, A.SOFTMAX)])
    assert count_weights(spec) == 24
    assert count_parameters(spec) == 29


def test_mid_size_recurrent_net_counts():
    spec = _rnn17()
    assert count_weights(spec) == 631
    assert count_parameters(spec) == 666
    assert check_fit(spec).activation_calls == 35


@pytest.mark.parametrize(
    "arch, weights, parameters",
    [
        ("180-5-5", 925, 935),
        ("180-8-5", 1480, 1493),
        ("180-10-5", 1850, 1865),
        ("180-15-5", 2775, 2795),
        ("180-20-5", 3700, 3725),
        ("180-10-10-5", 1950, 1975),
        ("180-20-10-5", 3850, 3885),
    ],
)
def test_classifier_family_counts(arch, weights, parameters):
    spec = parse_arch(arch)
    assert count_weights(spec) == weights
    assert count_parameters(spec) == parameters


def test_parameters_minus_weights_is_the_neuron_count():
    rng = np.random.default_rng(0)
    for _ in range(20):
        spec = random_spec(rng)
        neurons = sum(layer.neurons for layer in spec.layers)
        assert count_parameters(spec) - count_weights(spec) == neurons


# --- per-layer cost rows -----------------------------------------------------

def test_layer_cost_rows_of_the_mixed_net():
    rows = layer_costs(_rnn17(), CostModel())
    assert [r.weights for r in rows] == [108, 81, 442]
    assert [r.neurons for r in rows] == [9, 9, 17]
    assert [r.ram_variables for r in rows] == [21, 18, 51]
    assert [r.activation_us for r in rows] == [1530.0, 1530.0, 2890.0]


def test_every_count_is_a_sum_over_the_layer_rows():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = random_spec(rng)
        rows = layer_costs(spec)
        report = check_fit(spec)
        assert report.weights == count_weights(spec) == sum(r.weights for r in rows)
        assert report.activation_calls == sum(r.neurons for r in rows)
        assert report.parameters == report.weights + report.activation_calls
        assert report.ram_variables == max(r.ram_variables for r in rows)
        assert report.activation_time_us == activation_time(spec)
        assert report.exec_time_us == estimate_exec_time(spec)


def test_ram_variables_are_neurons_plus_fan_in_without_a_layerwise_copy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        spec = random_spec(rng)
        for layer, row in zip(spec.layers, layer_costs(spec)):
            k = 3 if layer.kind is R else 2
            floor = layer.neurons + layer.fan_in
            if layer.activation.is_layerwise:
                assert row.ram_variables == max(floor, k * layer.neurons)
            else:
                assert row.ram_variables == floor


def test_check_fit_validates_the_spec_once(monkeypatch):
    calls = []
    real = estimator.check_spec
    monkeypatch.setattr(
        estimator, "check_spec", lambda spec: calls.append(spec) or real(spec)
    )
    check_fit(_rnn17())
    assert len(calls) == 1


# --- RAM variables -----------------------------------------------------------

def test_ram_rule_on_the_mixed_net():
    # layers need 21, 18, and max(2*17+9, 3*17) = 51 working variables
    peak, limiting = count_ram_variables(_rnn17())
    assert peak == 51
    assert limiting == 2


def test_ram_rule_for_equal_dense_layers():
    spec = chain(128, [(D, 128, A.SIGMOID), (D, 128, A.SIGMOID)])
    assert count_ram_variables(spec)[0] == 256


def test_ram_rule_for_equal_recurrent_softmax_layers():
    spec = chain(85, [(R, 85, A.SOFTMAX), (R, 85, A.SOFTMAX)])
    assert count_ram_variables(spec)[0] == 255


def test_layerwise_output_can_dominate_ram():
    # 2n beats n + input when the input vector is short
    spec = chain(2, [(D, 10, A.SOFTMAX)])
    assert count_ram_variables(spec)[0] == 20
    spec = chain(2, [(D, 10, A.SIGMOID)])
    assert count_ram_variables(spec)[0] == 12


# --- execution-time model ----------------------------------------------------

def test_mac_portion_is_weights_times_unit_cost():
    spec = _rnn17()
    assert estimate_exec_time(spec) - activation_time(spec) == 631 * 18.0
    assert estimate_exec_time(spec) - activation_time(spec) == pytest.approx(11358.0)


TABLE_ROWS = [
    (A.SIGMOID, A.SOFTMAX, 5.95, 17.31),
    (A.HARD_SIGMOID, A.SOFTMAX, 3.16, 14.52),
    (A.SOFTSIGN, A.SOFTMAX, 3.63, 14.99),
    (A.RELU, A.SOFTMAX, 2.98, 14.34),
    (A.RELU, A.MAX, 0.18, 11.54),
    (A.RELU, A.APPROX_SOFTMAX, 1.50, 12.86),
]


def _row_times_us(hidden, out):
    """Row times for the 631-weight net; the one-hot output cannot sit on a
    recurrent layer, so that row swaps the output activation's cost."""
    if out is A.MAX:
        cost = CostModel()
        base = _rnn17(hidden, A.SOFTMAX)
        act = activation_time(base) - 17 * cost.activation_cost(A.SOFTMAX)
        act += 17 * cost.activation_cost(A.MAX)
        total = count_weights(base) * cost.mac_us + act
        return act, total
    spec = _rnn17(hidden, out)
    return activation_time(spec), estimate_exec_time(spec)


@pytest.mark.parametrize("hidden, out, act_ms, total_ms", TABLE_ROWS)
def test_execution_time_rows(hidden, out, act_ms, total_ms):
    act_us, total_us = _row_times_us(hidden, out)
    assert abs(act_us / 1000.0 - act_ms) <= 0.01
    assert abs(total_us / 1000.0 - total_ms) <= 0.01


def test_exact_row_microseconds():
    assert _row_times_us(A.SIGMOID, A.SOFTMAX) == (5950.0, 17308.0)
    assert _row_times_us(A.RELU, A.MAX) == (175.0, 11533.0)
    assert _row_times_us(A.RELU, A.APPROX_SOFTMAX) == (1501.0, 12859.0)


def test_custom_cost_model_scales_the_estimate():
    spec = chain(3, [(D, 2, A.RELU), (D, 2, A.SOFTMAX)])
    cost = CostModel(mac_us=1.0, activation_us={A.RELU: 2.0, A.SOFTMAX: 3.0})
    assert estimate_exec_time(spec, cost) == 10 * 1.0 + 2 * 2.0 + 2 * 3.0


FRACTIONAL = CostModel(
    mac_us=0.1, activation_us={A.RELU: 0.3, A.SOFTMAX: 1.7}
)


def test_report_times_under_fractional_costs():
    spec = parse_arch("180-8-5")
    report = check_fit(spec, cost=FRACTIONAL)
    # the MAC portion first, then each layer; regrouping moves the last bits
    assert report.exec_time_us == 1480 * 0.1 + 8 * 0.3 + 5 * 1.7
    # the exact sum, not exec time minus the MAC portion (10.900000000000006)
    assert report.activation_time_us == activation_time(spec, FRACTIONAL) == 10.9


def test_missing_activation_cost_raises():
    cost = CostModel(activation_us={A.SIGMOID: 170.0})
    assert cost.activation_cost(A.SIGMOID) == 170.0
    with pytest.raises(UnknownActivationCost):
        cost.activation_cost(A.TANH)
    spec = chain(3, [(D, 2, A.TANH), (D, 2, A.SIGMOID)])
    with pytest.raises(UnknownActivationCost):
        estimate_exec_time(spec, cost)


def test_cost_model_rejects_nonpositive_times():
    with pytest.raises(InvalidParams):
        CostModel(mac_us=0.0)
    with pytest.raises(InvalidParams):
        CostModel(activation_us={A.RELU: -1.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cost_model_rejects_non_finite_times(value):
    with pytest.raises(InvalidParams):
        CostModel(mac_us=value)
    with pytest.raises(InvalidParams):
        CostModel(activation_us={A.RELU: value})


# --- flash and fit -----------------------------------------------------------

def test_flash_size_of_the_reference_classifier():
    report = check_fit(parse_arch("180-8-5"))
    assert report.parameters == 1493
    assert report.flash_bytes == 5972
    assert report.fits_flash
    assert report.fits


def test_flash_capacity_boundary_at_four_bytes():
    exactly = chain(1023, [(D, 8, A.SOFTMAX)])  # 8 * 1023 + 8 = 8192 parameters
    assert count_parameters(exactly) == 8192
    assert check_fit(exactly).fits_flash
    over = chain(8192, [(D, 1, A.SOFTMAX)])  # 8193 parameters
    assert count_parameters(over) == 8193
    assert not check_fit(over).fits_flash


def test_one_byte_parameters_quadruple_the_capacity():
    over = chain(8192, [(D, 1, A.SOFTMAX)])
    small = Budget(bytes_per_parameter=1)
    assert check_fit(over, small).flash_bytes == 8193
    assert check_fit(over, small).fits_flash


def test_ram_fit_uses_half_the_ram_by_default():
    fits = chain(128, [(D, 128, A.SIGMOID)])  # 256 vars * 4 B = 1024 B
    assert check_fit(fits).fits_ram
    too_big = chain(129, [(D, 129, A.SIGMOID)])  # 258 vars -> 1032 B
    assert not check_fit(too_big).fits_ram


def test_zero_byte_budget_fits_nothing():
    report = check_fit(chain(1, [(D, 1, A.SIGMOID)]),
                       Budget(flash_bytes=0, ram_bytes=0))
    assert not report.fits_flash
    assert not report.fits_ram
    assert not report.fits


def test_budget_validation():
    with pytest.raises(InvalidParams):
        Budget(bytes_per_parameter=3)
    with pytest.raises(InvalidParams):
        Budget(ram_fraction_for_layers=0.0)
    with pytest.raises(InvalidParams):
        Budget(flash_bytes=-1)
    with pytest.raises(InvalidParams):
        Budget(bytes_per_variable=0)


def test_report_carries_all_counts():
    report = check_fit(_rnn17())
    assert report.weights == 631
    assert report.parameters == 666
    assert report.activation_calls == 35
    assert report.ram_variables == 51
    assert report.ram_limiting_layer == 2
    assert report.exec_time_us == pytest.approx(17308.0)


# --- instrumented multiply counts vs static counts ----------------------------

def test_mac_counter_agrees_with_count_weights():
    rng = np.random.default_rng(77)
    for _ in range(10):
        spec = random_spec(rng)
        params = init_params(spec, int(rng.integers(0, 2**31)))
        x = rng.normal(size=spec.features)
        has_recurrent = any(l.kind is R for l in spec.layers)
        with count_macs() as macs:
            if has_recurrent:
                step_rnn(spec, params, x, RnnState(spec))
            else:
                run_ffnn(spec, params, x)
        assert macs.count == count_weights(spec)


# --- configuration files -----------------------------------------------------

def test_config_text_overrides_every_field():
    text = """
    # execution-time constants
    mac_us = 2.5
    sigmoid_us = 100
    tanh_us = 101
    hard_sigmoid_us = 7
    softsign_us = 20
    relu_us = 1
    softmax_us = 99
    max_us = 2
    approx_softmax_us = 40

    flash_bytes = 1000      # smaller part
    ram_bytes = 512
    bytes_per_parameter = 2
    ram_fraction_for_layers = 0.25
    bytes_per_variable = 2
    """
    cost, budget = parse_config_text(text)
    assert cost.mac_us == 2.5
    assert cost.activation_cost(A.SIGMOID) == 100.0
    assert cost.activation_cost(A.TANH) == 101.0
    assert cost.activation_cost(A.HARD_SIGMOID) == 7.0
    assert cost.activation_cost(A.SOFTSIGN) == 20.0
    assert cost.activation_cost(A.RELU) == 1.0
    assert cost.activation_cost(A.SOFTMAX) == 99.0
    assert cost.activation_cost(A.MAX) == 2.0
    assert cost.activation_cost(A.APPROX_SOFTMAX) == 40.0
    assert budget == Budget(
        flash_bytes=1000,
        ram_bytes=512,
        bytes_per_parameter=2,
        ram_fraction_for_layers=0.25,
        bytes_per_variable=2,
    )


def test_empty_config_gives_defaults():
    cost, budget = parse_config_text("")
    assert cost == CostModel()
    assert budget == Budget()


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(InvalidParams):
        parse_config_text("made_up_key = 3")
    with pytest.raises(InvalidParams, match="unknown key 'approx_exp_us'"):
        parse_config_text("approx_exp_us = 75")
    with pytest.raises(InvalidParams):
        parse_config_text("mac_us = fast")
    with pytest.raises(InvalidParams):
        parse_config_text("just some words")


@pytest.mark.parametrize("key", ["mac_us", "relu_us", "softmax_us"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_costs(key, value):
    with pytest.raises(InvalidParams):
        parse_config_text(f"{key} = {value}")


def test_config_file_must_be_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# carte d\u00e9mo\nmac_us = 9\n".encode("latin-1"))
    with pytest.raises(InvalidParams):
        load_config(path)


def test_config_loads_from_a_file(tmp_path):
    path = tmp_path / "target.cfg"
    path.write_text("mac_us = 9\nflash_bytes = 2048\n")
    cost, budget = load_config(path)
    assert cost.mac_us == 9.0
    assert budget.flash_bytes == 2048
