"""Empirical verification of the sqrt(n)/(8L) total-weight lower bound.

Any network with an L-Lipschitz activation that fits Rademacher labels to
half error carries total weight at least sqrt(n)/(8L), sqrt(n)/8 for the
ReLU; a network below that line would falsify the implementation (of the
evaluation or of the weight measure), never the bound.  The single-neuron
correlation cap behind the bound is probed in ``tests/test_bounds.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError
from .network import TwoLayerNetwork, evaluate, total_weight


@dataclass
class WeightBoundReport:
    bound: float
    falsifications: list = field(default_factory=list)

    @property
    def falsified(self) -> bool:
        return bool(self.falsifications)


def verify_weight_bound(ds: Dataset, nets: list[tuple[str, TwoLayerNetwork]]
                        ) -> WeightBoundReport:
    """Check every half-fitting network against the ReLU floor sqrt(n)/8.

    Networks with error ratio above 1/2 are exempt.  A FALSIFICATION entry
    indicates an implementation bug, not new math.
    """
    y = ds.labels
    if not np.all(np.abs(y) == 1.0):
        raise DataError("verify_weight_bound requires +-1 labels")
    y_sq = float(y @ y)
    report = WeightBoundReport(bound=math.sqrt(ds.n) / 8.0)
    for name, net in nets:
        ratio = float(np.sum((evaluate(net, ds) - y) ** 2)) / y_sq
        if ratio <= 0.5 and total_weight(net) < report.bound:
            report.falsifications.append(name)
    return report
