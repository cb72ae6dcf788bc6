"""Static resource analysis against 8-bit microcontroller budgets.

Everything here is arithmetic over a :class:`~microgest.model.ModelSpec`;
no network is ever executed.  The execution-time model charges a fixed
cost per multiply-accumulate plus a per-neuron cost for each layer's
activation function.  Cost constants and memory budgets are plain data so
other targets can be modeled by swapping the configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from .errors import InvalidParams, UnknownActivationCost, _check_integer
from .model import Activation, LayerKind, ModelSpec, check_spec


def _default_activation_costs() -> dict[Activation, float]:
    # microseconds per neuron, measured on a 16 MHz ATmega328P-class core
    return {
        Activation.SIGMOID: 170.0,
        Activation.TANH: 170.0,
        Activation.HARD_SIGMOID: 15.0,
        Activation.SOFTSIGN: 41.0,
        Activation.RELU: 5.0,
        Activation.SOFTMAX: 170.0,
        Activation.MAX: 5.0,
        Activation.APPROX_SOFTMAX: 83.0,
    }


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class CostModel:
    """Per-operation execution times in microseconds.

    ``mac_us`` covers one weight multiplication plus its accumulation.
    ``activation_us`` maps each activation to its per-neuron evaluation
    time; layer-wise activations (softmax family, max) are also charged
    per neuron.
    """

    mac_us: float = 18.0
    activation_us: Mapping[Activation, float] = field(
        default_factory=_default_activation_costs
    )

    def __post_init__(self) -> None:
        if not _finite_positive(self.mac_us):
            raise InvalidParams("mac_us must be finite and positive")
        for act, us in self.activation_us.items():
            if not _finite_positive(us):
                raise InvalidParams(f"cost for {act.value} must be finite and positive")

    def activation_cost(self, activation: Activation) -> float:
        try:
            return float(self.activation_us[activation])
        except KeyError:
            raise UnknownActivationCost(
                f"no cost configured for activation {activation.value!r}"
            ) from None


@dataclass(frozen=True)
class Budget:
    """Memory limits of the target.

    Defaults describe an ATmega328P: 32 kB flash, 2 kB RAM, 4-byte float
    parameters, and half of the RAM reserved for layer activations.
    Zero-byte budgets are allowed; nothing fits them.
    """

    flash_bytes: int = 32768
    ram_bytes: int = 2048
    bytes_per_parameter: int = 4
    ram_fraction_for_layers: float = 0.5
    bytes_per_variable: int = 4

    def __post_init__(self) -> None:
        _check_integer("flash_bytes", self.flash_bytes, 0)
        _check_integer("ram_bytes", self.ram_bytes, 0)
        _check_integer("bytes_per_parameter", self.bytes_per_parameter, 1)
        if self.bytes_per_parameter not in (1, 2, 4):
            raise InvalidParams("bytes_per_parameter must be 1, 2, or 4")
        if not 0.0 < self.ram_fraction_for_layers <= 1.0:
            raise InvalidParams("ram_fraction_for_layers must be in (0, 1]")
        _check_integer("bytes_per_variable", self.bytes_per_variable, 1)


@dataclass(frozen=True)
class LayerCost:
    """Static cost of one layer in one execution.

    ``weights`` is neurons × fan-in, its multiplications.  ``ram_variables``
    is its working set: inputs, any previous outputs, and outputs, i.e.
    ``neurons + fan_in``; a layer-wise activation (softmax family, max)
    needs a second copy of the outputs, which can dominate when the input
    vector is short.
    """

    weights: int
    neurons: int
    ram_variables: int
    activation_us: float


def layer_costs(spec: ModelSpec, cost: CostModel | None = None) -> tuple[LayerCost, ...]:
    """One :class:`LayerCost` row per layer, in layer order."""
    check_spec(spec)
    cost = cost or CostModel()
    rows = []
    for layer in spec.layers:
        ram = layer.neurons + layer.fan_in
        if layer.activation.is_layerwise:
            copies = 3 if layer.kind is LayerKind.RECURRENT else 2
            ram = max(ram, copies * layer.neurons)
        act_us = layer.neurons * cost.activation_cost(layer.activation)
        rows.append(LayerCost(layer.neurons * layer.fan_in, layer.neurons, ram, act_us))
    return tuple(rows)


@dataclass(frozen=True)
class ResourceReport:
    """Counts, sizes, and fit verdicts for one model against one budget."""

    weights: int
    parameters: int
    activation_calls: int
    ram_variables: int
    ram_limiting_layer: int
    flash_bytes: int
    ram_bytes_needed: int
    ram_bytes_allowed: float
    activation_time_us: float
    exec_time_us: float
    fits_flash: bool
    fits_ram: bool

    @property
    def fits(self) -> bool:
        return self.fits_flash and self.fits_ram


def rows_exec_time(rows: Sequence[LayerCost], cost: CostModel) -> float:
    """Execution time in microseconds of a model priced by ``rows``.

    ``rows`` are :func:`layer_costs` rows, possibly edited.  The MAC portion
    comes first, then each row's activation time in layer order:
    regrouping the sum moves the last bits.
    """
    exec_time_us = sum(row.weights for row in rows) * cost.mac_us
    for row in rows:
        exec_time_us += row.activation_us
    return exec_time_us


def check_fit(
    spec: ModelSpec,
    budget: Budget | None = None,
    cost: CostModel | None = None,
) -> ResourceReport:
    """Assemble the full resource report for one model."""
    budget = budget or Budget()
    cost = cost or CostModel()
    rows = layer_costs(spec, cost)
    weights = sum(row.weights for row in rows)
    neurons = sum(row.neurons for row in rows)
    needs = [row.ram_variables for row in rows]
    ram_vars = max(needs)
    flash = (weights + neurons) * budget.bytes_per_parameter
    ram_needed = ram_vars * budget.bytes_per_variable
    ram_allowed = budget.ram_fraction_for_layers * budget.ram_bytes
    return ResourceReport(
        weights=weights,
        parameters=weights + neurons,
        activation_calls=neurons,
        ram_variables=ram_vars,
        ram_limiting_layer=needs.index(ram_vars),
        flash_bytes=flash,
        ram_bytes_needed=ram_needed,
        ram_bytes_allowed=ram_allowed,
        activation_time_us=sum((row.activation_us for row in rows), 0.0),
        exec_time_us=rows_exec_time(rows, cost),
        fits_flash=flash <= budget.flash_bytes,
        fits_ram=ram_needed <= ram_allowed,
    )


def count_weights(spec: ModelSpec) -> int:
    """Multiplications per execution: Σ neurons × fan-in.

    A recurrent layer's fan-in includes its own neurons, so its feedback
    edges are counted.
    """
    return sum(row.weights for row in layer_costs(spec))


def count_parameters(spec: ModelSpec) -> int:
    """Weights plus one bias per neuron."""
    return sum(row.weights + row.neurons for row in layer_costs(spec))


def count_ram_variables(spec: ModelSpec) -> tuple[int, int]:
    """Peak per-layer variable count and the index of the limiting layer."""
    needs = [row.ram_variables for row in layer_costs(spec)]
    return max(needs), needs.index(max(needs))


def estimate_exec_time(spec: ModelSpec, cost: CostModel | None = None) -> float:
    """Execution time in microseconds: MAC portion plus activation portion."""
    return check_fit(spec, cost=cost).exec_time_us


def activation_time(spec: ModelSpec, cost: CostModel | None = None) -> float:
    """Just the activation portion of the execution time, in microseconds."""
    return check_fit(spec, cost=cost).activation_time_us


# --- key=value configuration files -------------------------------------------

_COST_KEYS = {
    "mac_us": "mac_us",
    "sigmoid_us": Activation.SIGMOID,
    "tanh_us": Activation.TANH,
    "hard_sigmoid_us": Activation.HARD_SIGMOID,
    "softsign_us": Activation.SOFTSIGN,
    "relu_us": Activation.RELU,
    "softmax_us": Activation.SOFTMAX,
    "max_us": Activation.MAX,
    "approx_softmax_us": Activation.APPROX_SOFTMAX,
}

_BUDGET_KEYS = {
    "flash_bytes": int,
    "ram_bytes": int,
    "bytes_per_parameter": int,
    "ram_fraction_for_layers": float,
    "bytes_per_variable": int,
}


def parse_config_text(text: str) -> tuple[CostModel, Budget]:
    """Parse ``key = value`` lines into a cost model and budget.

    Blank lines and ``#`` comments are ignored.  Any key may be omitted
    (its default applies); unknown keys are rejected.
    """
    cost, budget = CostModel(), Budget()
    cost_kwargs: dict[str, float] = {}
    activation_us = dict(cost.activation_us)
    budget_kwargs: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParams(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key in _COST_KEYS:
                target = _COST_KEYS[key]
                if isinstance(target, Activation):
                    activation_us[target] = float(value)
                else:
                    cost_kwargs[target] = float(value)
            elif key in _BUDGET_KEYS:
                budget_kwargs[key] = _BUDGET_KEYS[key](value)
            else:
                raise InvalidParams(f"line {lineno}: unknown key {key!r}")
        except ValueError:
            raise InvalidParams(
                f"line {lineno}: bad value {value!r} for {key}"
            ) from None
    return (
        replace(cost, activation_us=activation_us, **cost_kwargs),
        replace(budget, **budget_kwargs),
    )


def load_config(path: str | Path) -> tuple[CostModel, Budget]:
    """Read a cost-and-budget configuration file (UTF-8 text)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParams(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_config_text(text)
