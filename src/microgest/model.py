"""Network architecture descriptions and parameter containers.

A model is an architecture (an input feature count plus a stack of layer
descriptions) together with one weight matrix and one bias vector per layer.
Dense layers read only the previous layer's outputs.  Recurrent layers
additionally read their own previous-step activations, so their weight
matrices carry extra feedback columns: external input columns first,
feedback columns last.

Weight matrices are stored row-major with shape ``(neurons, fan_in)``;
row ``i`` holds the incoming weights of neuron ``i``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import IllegalActivationPlacement, InvalidParams, NonFiniteParameter
from .errors import ShapeMismatch, _float_array, _is_integer


class Activation(Enum):
    """Activation functions a layer can use.

    ``SOFTMAX``, ``APPROX_SOFTMAX`` and ``MAX`` are layer-wise: they are
    computed over the whole pre-activation vector at once.  The rest are
    element-wise.
    """

    SIGMOID = "sigmoid"
    TANH = "tanh"
    HARD_SIGMOID = "hardsigmoid"
    SOFTSIGN = "softsign"
    RELU = "relu"
    SOFTMAX = "softmax"
    APPROX_SOFTMAX = "approxsoftmax"
    MAX = "max"

    # Members are singletons, so the identity hash keys the activation
    # table as the name hash did, without a Python-level call per lookup.
    __hash__ = object.__hash__

    @property
    def is_layerwise(self) -> bool:
        return self in _LAYERWISE


_LAYERWISE = frozenset(
    {Activation.SOFTMAX, Activation.APPROX_SOFTMAX, Activation.MAX}
)


class LayerKind(Enum):
    DENSE = "dense"
    RECURRENT = "recurrent"


@dataclass(frozen=True)
class LayerSpec:
    """Description of one layer: kind, input width, neuron count, activation."""

    kind: LayerKind
    input_size: int
    neurons: int
    activation: Activation

    @property
    def fan_in(self) -> int:
        """Inputs per neuron.  Recurrent layers append their own feedback."""
        if self.kind is LayerKind.RECURRENT:
            return self.input_size + self.neurons
        return self.input_size


@dataclass(frozen=True)
class ModelSpec:
    """Architecture: feature count plus an ordered stack of layers."""

    features: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def output_size(self) -> int:
        return self.layers[-1].neurons

    @property
    def has_recurrent(self) -> bool:
        return any(l.kind is LayerKind.RECURRENT for l in self.layers)


def chain(features: int, layer_defs: Iterable[tuple[LayerKind, int, Activation]]) -> ModelSpec:
    """Build a ModelSpec from ``(kind, neurons, activation)`` triples.

    Input sizes are filled in automatically so consecutive layers chain.
    """
    layers = []
    prev = features
    for kind, neurons, activation in layer_defs:
        layers.append(LayerSpec(kind, prev, neurons, activation))
        prev = neurons
    spec = ModelSpec(features, tuple(layers))
    check_spec(spec)
    return spec


def check_spec(spec: ModelSpec) -> None:
    """Validate architecture structure.

    Raises ShapeMismatch for broken chaining or empty models, and
    IllegalActivationPlacement for a MAX activation on a recurrent layer
    (the one-hot output would be fed back and freeze the layer state).
    """
    if not (_is_integer(spec.features) and spec.features >= 1):
        raise ShapeMismatch(f"feature count must be an integer >= 1, got {spec.features!r}")
    if not spec.layers:
        raise ShapeMismatch("a model needs at least one layer")
    prev = spec.features
    for i, layer in enumerate(spec.layers):
        if not (_is_integer(layer.neurons) and layer.neurons >= 1):
            raise ShapeMismatch(
                f"layer {i}: neuron count must be an integer >= 1, got {layer.neurons!r}"
            )
        if layer.input_size != prev:
            raise ShapeMismatch(
                f"layer {i}: input_size {layer.input_size} does not match "
                f"preceding width {prev}"
            )
        if layer.kind is LayerKind.RECURRENT and layer.activation is Activation.MAX:
            raise IllegalActivationPlacement(
                f"layer {i}: MAX cannot be used on a recurrent layer"
            )
        prev = layer.neurons


@dataclass
class LayerParams:
    """Weights ``(neurons, fan_in)`` and biases ``(neurons,)`` of one layer."""

    weights: np.ndarray
    biases: np.ndarray


@dataclass
class Parameters:
    """Trainable state of a model: one LayerParams per layer."""

    layers: list[LayerParams]


#: Most dense weights a model may have (the paper's largest network,
#: 180-20-10-5, has 3,850).  A mistyped architecture or a forged header
#: could otherwise ask numpy for terabytes.
MAX_DENSE_WEIGHTS = 1 << 24


def _check_size(spec: ModelSpec, error: type[Exception] = InvalidParams) -> None:
    """The size rule of fresh parameters and loaded compressed models, taken
    before any weight array is allocated: at most :data:`MAX_DENSE_WEIGHTS`
    dense weights in all, else ``error``."""
    dense = sum(layer.neurons * layer.fan_in for layer in spec.layers)
    if dense > MAX_DENSE_WEIGHTS:
        raise error(f"{dense} dense weights, above the {MAX_DENSE_WEIGHTS} cap")


def zero_params(spec: ModelSpec) -> Parameters:
    """All-zero parameters with the shapes the architecture demands, which
    must pass the size rule (:func:`_check_size`)."""
    _check_size(spec)
    return Parameters(
        [
            LayerParams(np.zeros((l.neurons, l.fan_in)), np.zeros(l.neurons))
            for l in spec.layers
        ]
    )


def _check_layer_shapes(layer: LayerSpec, lp: LayerParams, owner: str) -> None:
    """Refuse weights that are not ``(neurons, fan_in)``, biases not ``(neurons,)``."""
    want = (layer.neurons, layer.fan_in)
    if lp.weights.shape != want:
        raise ShapeMismatch(f"{owner}: weight shape {lp.weights.shape}, expected {want}")
    if lp.biases.shape != (layer.neurons,):
        raise ShapeMismatch(f"{owner}: bias shape {lp.biases.shape}, expected ({layer.neurons},)")


def _removal_masks(removed, shapes) -> list[np.ndarray]:
    """The pruning-mask rule: one mask per layer, of its weights' shape in
    ``shapes``; a bool array passes as it is, other numbers are cast to bool."""
    masks = [m if isinstance(m, np.ndarray) and m.dtype == bool
             else _float_array(m, "a removal mask must hold numbers").astype(bool) for m in removed]
    if [m.shape for m in masks] != list(shapes):
        raise ShapeMismatch("need one removal mask per layer, shaped like its weights")
    return masks


def validate(spec: ModelSpec, params: Parameters) -> None:
    """Check that parameters fit the architecture and are finite."""
    check_spec(spec)
    if len(params.layers) != len(spec.layers):
        raise ShapeMismatch(
            f"expected {len(spec.layers)} parameter layers, got {len(params.layers)}"
        )
    for i, (layer, lp) in enumerate(zip(spec.layers, params.layers)):
        _check_layer_shapes(layer, lp, f"layer {i}")
        if not (np.all(np.isfinite(lp.weights)) and np.all(np.isfinite(lp.biases))):
            raise NonFiniteParameter(f"layer {i}: non-finite weight or bias")


def _float32(values) -> np.ndarray:
    """``values`` as little-endian float32; one beyond its range is NonFiniteParameter."""
    with np.errstate(over="ignore"):
        rounded = np.asarray(values, dtype="<f4")
    if not np.isfinite(rounded).all():
        raise NonFiniteParameter("a weight or bias overflows a 32-bit float")
    return rounded


class RnnState:
    """Previous-step activations of every recurrent layer.

    One state belongs to exactly one stream; create a fresh state at every
    stream start.  Single writer, no sharing.
    """

    def __init__(self, spec: ModelSpec) -> None:
        self._prev = {
            i: np.zeros(layer.neurons)
            for i, layer in enumerate(spec.layers)
            if layer.kind is LayerKind.RECURRENT
        }

    def layer(self, index: int) -> np.ndarray:
        return self._prev[index]

    def _check(self, spec: ModelSpec) -> None:
        """Refuse the state of another model: ``spec``'s recurrent layers at their sizes."""
        held, want = ({i: p.shape for i, p in s._prev.items()} for s in (self, RnnState(spec)))
        if held != want:
            raise ShapeMismatch(f"state of recurrent layers {held}, the model has {want}")


# --- architecture strings ----------------------------------------------------

_LAYER_TOKEN = re.compile(r"^(r?)(\d+)([a-z]*)$")

_ACT_BY_NAME = {act.value: act for act in Activation}


def parse_arch(text: str) -> ModelSpec:
    """Parse an architecture string such as ``180-8relu-5softmax``.

    Grammar: ``FEATURES-LAYER[-LAYER...]`` where each layer token is
    ``[r]NEURONS[ACTIVATION]``.  A leading ``r`` marks the layer recurrent.
    When the activation is omitted, hidden layers default to relu and the
    output layer to softmax.  Example with a recurrent output layer:
    ``12-9relu-9relu-r17softmax``.
    """
    tokens = text.strip().lower().split("-")
    if len(tokens) < 2:
        raise InvalidParams(f"architecture {text!r} needs features and one layer")
    try:
        features = int(tokens[0])
    except ValueError:
        raise InvalidParams(f"bad feature count {tokens[0]!r} in {text!r}") from None
    layer_defs = []
    for pos, token in enumerate(tokens[1:]):
        m = _LAYER_TOKEN.match(token)
        if not m:
            raise InvalidParams(f"bad layer token {token!r} in {text!r}")
        kind = LayerKind.RECURRENT if m.group(1) else LayerKind.DENSE
        neurons = int(m.group(2))
        name = m.group(3)
        if not name:
            name = "softmax" if pos == len(tokens) - 2 else "relu"
        if name not in _ACT_BY_NAME:
            raise InvalidParams(f"unknown activation {name!r} in {text!r}")
        layer_defs.append((kind, neurons, _ACT_BY_NAME[name]))
    return chain(features, layer_defs)


def format_arch(spec: ModelSpec) -> str:
    """Inverse of :func:`parse_arch`, always spelling activations out."""
    parts = [str(spec.features)]
    for layer in spec.layers:
        prefix = "r" if layer.kind is LayerKind.RECURRENT else ""
        parts.append(f"{prefix}{layer.neurons}{layer.activation.value}")
    return "-".join(parts)
