"""NTK-style construction: random-initialization derivative-neuron steps,
the arcsin Gram matrix with its Hadamard-power lower bound, the boosted
fit, and the Hermite-expansion generalization to other activations.

One step draws u ~ N(0, I_d), sets v to the residual-weighted sum of points
in the active halfspace {u . x >= 0}, and realizes psi'(u . x) (v . x) as
two ReLU neurons via a small finite difference.  The step's correlation
with the residual is exactly ||v||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructive import DerivativeNeuronPair, safe_delta
from .data import Dataset, GenericityReport, genericity
from .errors import DataError, ParameterError, UninformativeBoundError
from .hermite import HermiteExpansion
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


def ntk_kd_bound(n: int, epsilon: float, report: GenericityReport) -> float:
    """Right-hand side of the size condition k*d >= 20 w n log(1/eps) log(2n)/log(1/g)."""
    gamma = report.gamma_clamped(n)
    if gamma >= 1.0:
        raise UninformativeBoundError("gamma >= 1: size bound is vacuous")
    return (20.0 * report.omega * n * math.log(1.0 / epsilon)
            * math.log(2.0 * n) / math.log(1.0 / gamma))


@dataclass
class NtkFitResult:
    network: TwoLayerNetwork
    trace: FitTrace
    kd_achieved: float
    kd_bound: float | None  # None when coherence 1 makes the size bound vacuous
    report: GenericityReport


def ntk_fit(ds: Dataset, epsilon: float, seed: int = 0,
            max_iters: int = 100000) -> NtkFitResult:
    """Boosted NTK fit with adaptive step size; ConvergenceError when
    ``max_iters`` steps leave the error ratio above ``epsilon``.

    ``kd_achieved`` (neuron count times d) is reported against the
    theoretical requirement evaluated at the measured (gamma, omega), which
    is None when the bound is vacuous (gamma >= 1); the fit itself stands.
    """
    report = genericity(ds)

    def builder(r: np.ndarray, attempt_seed: int) -> StepProposal | None:
        pair = ntk_step(ds, r, attempt_seed)
        if pair is None:
            return None
        return StepProposal(neurons=pair.neurons(), values=pair.values(ds.points))

    net, trace, _ = boost_fit(builder, ds, epsilon, max_iters=max_iters, seed=seed)
    try:
        kd_bound = ntk_kd_bound(ds.n, epsilon, report)
    except UninformativeBoundError:
        kd_bound = None
    return NtkFitResult(network=net, trace=trace, kd_achieved=float(net.k * ds.d),
                        kd_bound=kd_bound, report=report)


def arcsin_gram(ds: Dataset) -> np.ndarray:
    """H_ij = E_u[x_i . x_j 1{u.x_i >= 0} 1{u.x_j >= 0}] in closed form.

    The joint halfspace probability for Gaussian u is 1/4 + arcsin(rho)/(2 pi)
    with rho the normalized inner product, so
    H_ij = (x_i . x_j) (1/4 + arcsin(rho_ij) / (2 pi)).
    """
    X = ds.points
    norms = np.linalg.norm(X, axis=1)
    G = X @ X.T
    rho = np.clip(G / np.outer(norms, norms), -1.0, 1.0)
    return G * (0.25 + np.arcsin(rho) / (2.0 * math.pi))


def gram_lower_bound_check(ds: Dataset) -> tuple[float, float]:
    """lambda_min of the norm-scaled arcsin Gram vs (1/10) sqrt(log(1/g)/log(2n))."""
    gamma = genericity(ds).gamma_clamped(ds.n)
    if gamma >= 1.0:
        raise ParameterError("requires gamma < 1")
    H = arcsin_gram(ds)
    norms = np.linalg.norm(ds.points, axis=1)
    Hn = H / np.outer(norms, norms)
    lam_min = float(np.linalg.eigvalsh(Hn)[0])
    bound = 0.1 * math.sqrt(math.log(1.0 / gamma) / math.log(2.0 * ds.n))
    return lam_min, bound


@dataclass
class GeneralNtkReport:
    required_kd: float
    threshold_index: int
    tail_sum: float
    correlation_bound: float
    mean_correlation: float | None


def general_ntk_bound(ds: Dataset, expansion: HermiteExpansion, L: float,
                      epsilon: float, psi_prime=None) -> GeneralNtkReport:
    """Size requirement for a general activation via its Hermite tail.

    required_kd evaluates 16 w L / (sum_{l >= l0} a_l^2) * n log(1/eps) with
    l0 = ceil(log(2n) / (2 log(1/gamma))).  When ``psi_prime`` is supplied the
    generalized step v = sum_i psi'(u . x_i) y_i x_i is run over 200 seed-0
    initializations and the mean correlation ||v||^2 is reported against the
    theoretical floor (1/4) * tail * ||y||^2.
    """
    report = genericity(ds)
    n = ds.n
    gamma = report.gamma_clamped(n)
    threshold_index = math.ceil(math.log(2.0 * n) / (2.0 * math.log(1.0 / gamma)))
    if expansion.truncation_degree < threshold_index:
        raise ParameterError(
            f"expansion truncated at {expansion.truncation_degree}, below the "
            f"threshold index {threshold_index}")
    tail = expansion.tail_sum(threshold_index)
    if tail <= 1e-12:
        raise UninformativeBoundError("Hermite tail sum is zero within tolerance")
    required_kd = (16.0 * report.omega * L / tail) * n * math.log(1.0 / epsilon)

    y = ds.labels
    corr_bound = 0.25 * tail * float(y @ y)
    mean_corr = None
    if psi_prime is not None:
        rng = np.random.default_rng(0)
        vals = []
        for _ in range(200):
            u = rng.standard_normal(ds.d)
            g = np.asarray(psi_prime(ds.points @ u))
            v = ((y * g)[:, None] * ds.points).sum(axis=0)
            vals.append(float(v @ v))
        mean_corr = float(np.mean(vals))
    return GeneralNtkReport(required_kd=required_kd, threshold_index=threshold_index,
                            tail_sum=tail, correlation_bound=corr_bound,
                            mean_correlation=mean_corr)
