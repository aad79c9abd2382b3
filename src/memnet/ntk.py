"""NTK-style construction: random-initialization derivative-neuron steps,
the size bound at the measured coherence, and the boosted fit.

One step draws u ~ N(0, I_d), sets v to the residual-weighted sum of points
in the active halfspace {u . x >= 0}, and realizes psi'(u . x) (v . x) as
two ReLU neurons via a small finite difference.  The step's correlation
with the residual is exactly ||v||^2.  The lemmas behind the size bound (the
arcsin Gram matrix and its eigenvalue floor, and the Hermite-tail bound for
other activations) are checked by test code, in ``tests/probes.py`` and
``tests/test_ntk.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructive import DerivativeNeuronPair, safe_delta
from .data import Dataset, GenericityReport, genericity
from .errors import DataError, ParameterError
from .network import FitTrace, StepProposal, TwoLayerNetwork, boost_fit


def ntk_step(ds: Dataset, residual: np.ndarray, seed: int
             ) -> DerivativeNeuronPair | None:
    """One NTK step for the given residual, the pair (u, v, b = 0, delta);
    None signals v = 0 (resample).

    u is resampled, at most 16 times, on the (measure-zero) event that some
    u . x_i is exactly zero, so the two-ReLU realization is exact on every
    data point.
    """
    r = np.asarray(residual, dtype=np.float64)
    if float(r @ r) == 0.0:
        raise ParameterError("residual must be nonzero")
    rng = np.random.default_rng(seed)
    for _ in range(16):
        u = rng.standard_normal(ds.d)
        margins = ds.points @ u
        if np.any(margins == 0.0):
            continue
        active = margins >= 0.0
        v = (r[active, None] * ds.points[active]).sum(axis=0)
        if float(v @ v) == 0.0:
            return None
        return DerivativeNeuronPair(u, v, 0.0, safe_delta(ds.points, u, v, 0.0))
    raise DataError("could not draw u avoiding exact ties u . x_i = 0")


def ntk_kd_bound(n: int, epsilon: float, report: GenericityReport) -> float | None:
    """Right-hand side of the size condition k*d >= 20 w n log(1/eps) log(2n)/log(1/g),
    None when gamma >= 1 makes it vacuous."""
    gamma = report.gamma_clamped(n)
    if gamma >= 1.0:
        return None
    return (20.0 * report.omega * n * math.log(1.0 / epsilon)
            * math.log(2.0 * n) / math.log(1.0 / gamma))


@dataclass
class NtkFitResult:
    network: TwoLayerNetwork
    trace: FitTrace
    kd_bound: float | None  # None when coherence 1 makes the size bound vacuous
    report: GenericityReport


def ntk_fit(ds: Dataset, epsilon: float, seed: int = 0,
            max_iters: int = 100000) -> NtkFitResult:
    """Boosted NTK fit with adaptive step size; ConvergenceError when
    ``max_iters`` steps leave the error ratio above ``epsilon``.

    ``kd_bound`` is the theoretical requirement on k * d evaluated at the
    measured (gamma, omega), None when the bound is vacuous (gamma >= 1);
    the fit itself stands.
    """
    report = genericity(ds)

    def builder(r: np.ndarray, attempt_seed: int) -> StepProposal | None:
        pair = ntk_step(ds, r, attempt_seed)
        if pair is None:
            return None
        return StepProposal(neurons=pair.neurons(), values=pair.values(ds.points))

    net, trace, _ = boost_fit(builder, ds, epsilon, max_iters=max_iters, seed=seed)
    return NtkFitResult(network=net, trace=trace,
                        kd_bound=ntk_kd_bound(ds.n, epsilon, report), report=report)
