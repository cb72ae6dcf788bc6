"""Architecture descriptions, parameter containers, arch strings."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from microgest.errors import (
    IllegalActivationPlacement,
    InvalidParams,
    NonFiniteParameter,
    ShapeMismatch,
)
from microgest.model import (
    Activation,
    LayerKind,
    LayerParams,
    LayerSpec,
    ModelSpec,
    Parameters,
    RnnState,
    chain,
    check_spec,
    format_arch,
    parse_arch,
    validate,
    zero_params,
)

D = LayerKind.DENSE
R = LayerKind.RECURRENT


def test_fan_in_dense_is_input_size():
    layer = LayerSpec(D, 12, 9, Activation.RELU)
    assert layer.fan_in == 12


def test_fan_in_recurrent_adds_own_neurons():
    layer = LayerSpec(R, 9, 17, Activation.SOFTMAX)
    assert layer.fan_in == 26


def test_chain_fills_input_sizes():
    spec = chain(3, [(D, 3, Activation.SIGMOID), (D, 2, Activation.SOFTMAX)])
    assert spec.features == 3
    assert [l.input_size for l in spec.layers] == [3, 3]
    assert spec.output_size == 2


def test_check_spec_rejects_broken_chaining():
    spec = ModelSpec(
        3,
        (
            LayerSpec(D, 3, 4, Activation.RELU),
            LayerSpec(D, 5, 2, Activation.SOFTMAX),
        ),
    )
    with pytest.raises(ShapeMismatch):
        check_spec(spec)


def test_check_spec_rejects_empty_model():
    with pytest.raises(ShapeMismatch):
        check_spec(ModelSpec(3, ()))


def test_check_spec_rejects_zero_features():
    with pytest.raises(ShapeMismatch):
        check_spec(ModelSpec(0, (LayerSpec(D, 0, 2, Activation.SOFTMAX),)))


def test_max_on_recurrent_layer_rejected():
    with pytest.raises(IllegalActivationPlacement):
        chain(3, [(R, 3, Activation.MAX)])


def test_max_on_dense_layer_allowed():
    spec = chain(3, [(D, 3, Activation.MAX)])
    assert spec.layers[0].activation is Activation.MAX


def test_layerwise_classification():
    assert Activation.SOFTMAX.is_layerwise
    assert Activation.APPROX_SOFTMAX.is_layerwise
    assert Activation.MAX.is_layerwise
    assert not Activation.RELU.is_layerwise
    assert not Activation.SIGMOID.is_layerwise


def test_zero_params_shapes():
    spec = chain(12, [(D, 9, Activation.RELU), (R, 17, Activation.SOFTMAX)])
    params = zero_params(spec)
    assert params.layers[0].weights.shape == (9, 12)
    assert params.layers[1].weights.shape == (17, 26)
    assert params.layers[1].biases.shape == (17,)
    validate(spec, params)


def test_validate_rejects_wrong_weight_shape():
    spec = chain(3, [(D, 2, Activation.SOFTMAX)])
    params = Parameters([LayerParams(np.zeros((2, 4)), np.zeros(2))])
    with pytest.raises(ShapeMismatch):
        validate(spec, params)


def test_validate_rejects_missing_layer():
    spec = chain(3, [(D, 2, Activation.RELU), (D, 2, Activation.SOFTMAX)])
    params = Parameters([LayerParams(np.zeros((2, 3)), np.zeros(2))])
    with pytest.raises(ShapeMismatch):
        validate(spec, params)


def test_validate_rejects_nan_weight():
    spec = chain(3, [(D, 2, Activation.SOFTMAX)])
    params = zero_params(spec)
    params.layers[0].weights[0, 0] = np.nan
    with pytest.raises(NonFiniteParameter):
        validate(spec, params)


def test_rnn_state_tracks_recurrent_layers_only():
    spec = chain(4, [(D, 3, Activation.RELU), (R, 2, Activation.SOFTMAX)])
    state = RnnState(spec)
    assert state.layer(1).shape == (2,)
    with pytest.raises(KeyError):
        state.layer(0)


# --- architecture strings ----------------------------------------------------

def test_parse_arch_explicit_activations():
    spec = parse_arch("180-8relu-5softmax")
    assert spec.features == 180
    assert [l.neurons for l in spec.layers] == [8, 5]
    assert [l.kind for l in spec.layers] == [D, D]
    assert [l.activation for l in spec.layers] == [
        Activation.RELU,
        Activation.SOFTMAX,
    ]


def test_parse_arch_recurrent_marker():
    spec = parse_arch("12-9relu-9relu-r17softmax")
    assert [l.kind for l in spec.layers] == [D, D, R]
    assert spec.layers[2].fan_in == 26


def test_parse_arch_defaults_hidden_relu_output_softmax():
    spec = parse_arch("180-8-5")
    assert [l.activation for l in spec.layers] == [
        Activation.RELU,
        Activation.SOFTMAX,
    ]


def test_parse_arch_single_layer_defaults_to_softmax():
    spec = parse_arch("4-3")
    assert spec.layers[0].activation is Activation.SOFTMAX


@pytest.mark.parametrize(
    "bad", ["", "180", "x-5", "4-relu", "4-5tanhh", "4--5", "4-0softmax"]
)
def test_parse_arch_rejects_malformed(bad):
    with pytest.raises((InvalidParams, ShapeMismatch)):
        parse_arch(bad)


def test_format_arch_round_trips_fig_architectures():
    for text in ("180-8relu-5softmax", "12-9relu-9relu-r17softmax"):
        assert format_arch(parse_arch(text)) == text


_act_names = st.sampled_from(
    ["sigmoid", "tanh", "hardsigmoid", "softsign", "relu"]
)


@st.composite
def arch_strings(draw):
    n_layers = draw(st.integers(1, 4))
    parts = [str(draw(st.integers(1, 32)))]
    for i in range(n_layers):
        r = "r" if draw(st.booleans()) else ""
        neurons = draw(st.integers(1, 32))
        if i == n_layers - 1:
            act = draw(st.sampled_from(["softmax", "approxsoftmax"]))
        else:
            act = draw(_act_names)
        parts.append(f"{r}{neurons}{act}")
    return "-".join(parts)


@given(arch_strings())
def test_parse_format_round_trip(text):
    spec = parse_arch(text)
    assert format_arch(spec) == text
    assert parse_arch(format_arch(spec)) == spec
