"""NTK-style construction: random-initialization derivative-neuron steps,
the size bound at the measured coherence, and the boosted fit.

One step draws u ~ N(0, I_d), sets v to the residual-weighted sum of points
in the active halfspace {u . x >= 0}, and realizes psi'(u . x) (v . x) as
two ReLU neurons via a small finite difference.  The step's correlation
with the residual is exactly ||v||^2.

A step makes four matrix-vector products with the n x d points X: the
margins X u, v = (r on the halfspace, 0 off it) X, the slopes X v (with the
margins, delta), and X (u + delta v) for the upper ReLU.  The lower ReLU has
bias 0, so its pre-activations are the margins, bit for bit.  One product
X [u + delta v, u] would round differently, and the 1/delta of a small delta
carries that into the fit's weights (1e-8 relative).

The fit runs on ``data.unit_frame``'s rows, so its size bound is scale-free.  The
lemmas behind it (the arcsin Gram matrix and its eigenvalue floor, and the
Hermite-tail bound for other activations) are checked by test code, in
``tests/probes.py`` and ``tests/test_ntk.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .constructive import derivative_neurons, safe_delta
from .data import Dataset, GenericityReport, genericity, unit_frame
from .errors import ParameterError
from .network import FitTrace, StepProposal, TwoLayerNetwork, boost_fit, from_unit_frame

_EPS = float(np.finfo(np.float64).eps)


def ntk_step(ds: Dataset, residual: np.ndarray, seed: int) -> StepProposal | None:
    """One NTK step for the given residual: the two neurons of the derivative
    neuron (u, v, b = 0, delta) and their values; None when v = 0 or when u
    ties a point, and ``boost_fit`` draws again.  A tie is a margin u . x_i
    within its product's rounding bound d eps ||u|| ||x_i||, zero included:
    its sign is not known, so the two-ReLU realization may not be exact, and
    its delta would put a weight of order 1/delta on the step.  ``ds`` is in
    ``data.unit_frame`` (rows of norm below 2), as ``ntk_fit`` passes it, so
    one scalar 2 d eps ||u|| covers every row's bound.
    """
    r = np.asarray(residual, dtype=np.float64)
    if float(r @ r) == 0.0:
        raise ParameterError("residual must be nonzero")
    u = np.random.default_rng(seed).standard_normal(ds.d)
    margins = ds.points @ u
    if np.abs(margins).min() <= 2.0 * ds.d * _EPS * math.sqrt(u @ u):
        return None
    v = np.where(margins >= 0.0, r, 0.0) @ ds.points
    if float(v @ v) == 0.0:
        return None
    delta = safe_delta(margins, ds.points @ v)
    upper, lower = derivative_neurons(u, v, 0.0, delta)
    values = (np.maximum(ds.points @ upper.w, 0.0) - np.maximum(margins, 0.0)) / delta
    return StepProposal(neurons=(upper, lower), values=values)


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
    ds, k = unit_frame(ds)
    report = genericity(ds)
    net, trace, _ = boost_fit(partial(ntk_step, ds), ds, epsilon, max_iters=max_iters, seed=seed)
    return NtkFitResult(network=from_unit_frame(net, k), trace=trace,
                        kd_bound=ntk_kd_bound(ds.n, epsilon, report), report=report)
