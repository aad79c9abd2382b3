"""Empirical verification of the total-weight lower bound sqrt(n)/(8 L max(1, R)).

Any network with an L-Lipschitz activation that fits Rademacher labels to
half error on rows of norm at most 1 carries total weight at least
sqrt(n)/(8L), sqrt(n)/8 for the ReLU.  The proof caps the correlation of
the labels with one neuron of unit ||(w, b)|| at 2 L sqrt(n), and it reads
the rows only through ||(x_i, 1)||^2 <= 2: the floor holds on the unit ball,
not only on the sphere.  A network on rows of norm at most R > 1 is a
network on the rows over R with weight at most R times its own (positive
homogeneity), so the floor there is sqrt(n)/(8 L R).  A network below that
line would falsify the implementation (of the evaluation or of the weight
measure), never the bound.  The single-neuron correlation cap behind the
bound is probed in ``tests/test_bounds.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, max_row_norm
from .errors import DataError
from .network import TwoLayerNetwork, evaluate, total_weight


def weight_floor(ds: Dataset) -> float:
    """The ReLU floor sqrt(n) / (8 max(1, R)), R the largest row norm."""
    return math.sqrt(ds.n) / 8.0 / max(1.0, max_row_norm(ds.points))  # 8 R overflows at 2^1021


@dataclass
class WeightBoundReport:
    bound: float
    falsifications: list = field(default_factory=list)

    @property
    def falsified(self) -> bool:
        return bool(self.falsifications)


def verify_weight_bound(ds: Dataset, nets: list[tuple[str, TwoLayerNetwork]]
                        ) -> WeightBoundReport:
    """Check every half-fitting network against the ReLU floor ``weight_floor``.

    Networks with error ratio above 1/2 are exempt.  A FALSIFICATION entry
    indicates an implementation bug, not new math.
    """
    y = ds.labels
    if not np.all(np.abs(y) == 1.0):
        raise DataError("verify_weight_bound requires +-1 labels")
    y_sq = float(y @ y)
    report = WeightBoundReport(bound=weight_floor(ds))
    for name, net in nets:
        ratio = float(np.sum((evaluate(net, ds) - y) ** 2)) / y_sq
        if ratio <= 0.5 and total_weight(net) < report.bound:
            report.falsifications.append(name)
    return report
