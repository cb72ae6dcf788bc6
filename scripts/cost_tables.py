#!/usr/bin/env python3
"""Print the static resource tables for the reference architectures.

Covers the gesture-classifier family (multiplications, parameters, flash)
and the activation sweep on the 631-weight recurrent phase net (time per
candidate).  Useful as a quick sanity check after touching the estimator,
and as the source for the numbers quoted in the README.
"""

import argparse
from dataclasses import replace

from microgest.estimator import (
    Budget,
    CostModel,
    check_fit,
    count_parameters,
    count_weights,
    layer_costs,
    rows_exec_time,
)
from microgest.model import Activation, LayerKind, chain, parse_arch

CLASSIFIERS = [
    "180-5-5",
    "180-8-5",
    "180-10-5",
    "180-15-5",
    "180-20-5",
    "180-10-10-5",
    "180-20-10-5",
]

ACTIVATION_SWEEP = [
    (Activation.SIGMOID, Activation.SOFTMAX),
    (Activation.HARD_SIGMOID, Activation.SOFTMAX),
    (Activation.SOFTSIGN, Activation.SOFTMAX),
    (Activation.RELU, Activation.SOFTMAX),
    (Activation.RELU, Activation.MAX),
    (Activation.RELU, Activation.APPROX_SOFTMAX),
]


def classifier_table(budget: Budget, cost: CostModel) -> None:
    print("gesture classifiers (3x3 sensor, 20 scaled frames, 5 classes)")
    print(f"{'architecture':>16} {'mults':>6} {'params':>7} "
          f"{'flash B':>8} {'time ms':>8} fits")
    for arch in CLASSIFIERS:
        spec = parse_arch(arch)
        report = check_fit(spec, budget, cost)
        print(
            f"{arch:>16} {report.weights:>6} {report.parameters:>7} "
            f"{report.flash_bytes:>8} {report.exec_time_us / 1000.0:>8.2f} "
            f"{'yes' if report.fits else 'NO'}"
        )
    print()


def sweep_table(cost: CostModel) -> None:
    D, R = LayerKind.DENSE, LayerKind.RECURRENT
    print("activation sweep on the 12-9-9-r17 phase net "
          f"(631 multiplications at {cost.mac_us:g} us each)")
    print(f"{'hidden':>14} {'output':>16} {'act ms':>7} {'total ms':>9}")
    for hidden, out in ACTIVATION_SWEEP:
        # a one-hot output cannot sit on a recurrent layer: build that net with
        # a softmax output, then charge the output layer at the swept cost
        built = Activation.SOFTMAX if out is Activation.MAX else out
        spec = chain(12, [(D, 9, hidden), (D, 9, hidden), (R, 17, built)])
        rows = list(layer_costs(spec, cost))
        rows[-1] = replace(
            rows[-1], activation_us=rows[-1].neurons * cost.activation_cost(out)
        )
        act = sum(row.activation_us for row in rows)
        total = rows_exec_time(rows, cost)
        print(f"{hidden.value:>14} {out.value:>16} "
              f"{act / 1000.0:>7.2f} {total / 1000.0:>9.2f}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bytes-per-param", type=int, default=4, choices=(1, 2, 4),
        help="storage width used for the flash column",
    )
    args = parser.parse_args()
    budget = Budget(bytes_per_parameter=args.bytes_per_param)
    cost = CostModel()
    classifier_table(budget, cost)
    sweep_table(cost)
    spec = parse_arch("12-9-9-r17softmax")
    print(f"phase net parameter count: {count_parameters(spec)} "
          f"({count_weights(spec)} of them multiplications)")


if __name__ == "__main__":
    main()
