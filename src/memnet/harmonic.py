"""Harmonic (complex-perturbation) network construction.

Pipeline for one boosting step:

1. draw a random base weight w and a uniform phase a, perturb by the
   residual-driven vector v(w), and keep the best complex neuron
   g(x) = Re(z * phi((w~ + i w~') . x)) with phi = H_m / sqrt(m), scoring
   the pool through He_m and one shared W X^T (``sample_complex_neuron``);
2. rewrite Re(z * phi(x + i y)) as a sum of univariate polynomials in the
   directions x + j y, j = 0..m: the integer-node Vandermonde systems have
   the closed-form Lagrange solution L_j(i), turned once per degree from
   exact integers into two correctly rounded float bases, and each step
   combines them linearly in (Re z, Im z);
3. represent each truncated univariate polynomial as a signed mixture of
   ReLUs using psi'' = delta_0, with biases distributed as |f''| / int|f''|;
   ``relu_mixture`` reads the masses int |f_j''| off a half-period table (z
   folded to Re z >= 0, 1e-10 relative); the mean correlation is corr / sum;
4. return the single ReLU realization maximizing the correlation with the
   residual by a breakpoint argmax: for a fixed direction the correlation is
   piecewise linear in the bias, with breakpoints at the data projections,
   so its exact maximum over the mixture's bias support [-2M, 2M] sits at
   -2M or at a projection and dominates the mixture mean; one sort of the
   projections and suffix sums give the correlation at every breakpoint.

The tuning constants (cutoff, correlation floor, variance cap) are
calibrated once on a reference fixture and frozen in ``CONSTANTS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, genericity
from .errors import (ConvergenceError, DegenerateDataError, InvariantError,
                     ParameterError, QuadratureResolutionError, SamplerFailureError)
from .hermite import gl_grid, he_coeffs, he_eval, hermite_eval
from .network import (FitTrace, Neuron, StepProposal, TwoLayerNetwork, boost_fit,
                      total_weight)


# Frozen on 2026-08-25 from pilot Monte Carlo on the reference fixture
# sphere-n100-d50-seed0 (unit-sphere data, n=100, d=50, seed 0, Rademacher
# labels) at degree m=10; see README.
CONSTANTS = {"cutoff_c": 0.076, "corr_c": 4.0, "var_c": 1.0e9}


def choose_degree(n: int, gamma: float) -> int:
    """Smallest m >= 3 with n * gamma^(m-2) <= 1/2."""
    if not (0.0 < gamma < 1.0):
        raise ParameterError("gamma must lie in (0, 1)")
    m = 3
    while n * gamma ** (m - 2) > 0.5:
        m += 1
    return m


def perturbation_vector(ds: Dataset, residual: np.ndarray, proj: np.ndarray,
                        m: int, gamma: float) -> np.ndarray:
    """v(w) = (n gamma^2)^(-1/2) sum_i r_i H_{m-1}(w . x_i) x_i from the
    projections ``proj``: X w of one w, or W X^T, one row per w of a batch."""
    r = np.asarray(residual, dtype=np.float64)
    h = np.real(hermite_eval(m - 1, proj))
    return ((h * r) @ ds.points) / math.sqrt(ds.n * gamma * gamma)


@dataclass(frozen=True)
class ComplexNeuron:
    """g(x) = Re(z * phi((w_re + i w_im) . x)), phi = H_m / sqrt(m)."""

    w_re: np.ndarray
    w_im: np.ndarray
    z: complex
    m: int

    def __post_init__(self):
        if abs(abs(self.z) - 1.0) > 1e-12:
            raise ParameterError("z must have unit modulus")


def projection_cutoff(n: int, m: int) -> float:
    """The calibrated cutoff (4 C log n)^(m/2) on data projections."""
    return (4.0 * CONSTANTS["cutoff_c"] * math.log(n)) ** (m / 2.0)


def sample_complex_neuron(ds: Dataset, residual: np.ndarray, m: int,
                          candidates: int, seed: int, gamma: float
                          ) -> tuple[ComplexNeuron, float]:
    """Best-of-pool complex neuron; returns (neuron, correlation).

    Candidates violating the projection cutoff are discarded; the winner
    must reach the calibrated correlation floor
    ||r||^2 / (2 corr_c sqrt(n gamma^2)), else SamplerFailureError carries
    the best achieved correlation.  W X^T feeds v(w) and the projections
    W X^T + cos(a) V X^T, sin(a) V X^T.  Scores are Re(z He_m(P) @ r) with
    the pool-wide 1/(sqrt(m!) sqrt(m)) applied after the sum: only the
    argmax, the floor test, the mixture-mean check (1e-9) and ``best_value``
    read them, and the winner's weights come from W, V and a alone.
    """
    r = np.asarray(residual, dtype=np.float64)
    n = ds.n
    r_sq = float(r @ r)
    if r_sq == 0.0:
        raise ParameterError("residual must be nonzero")
    if np.max(r * r) > n * gamma * gamma * (1 + 1e-9) or r_sq > n * (1 + 1e-9):
        raise ParameterError("residual violates the trimming preconditions")

    cutoff = projection_cutoff(n, m)
    floor = r_sq / (2.0 * CONSTANTS["corr_c"] * math.sqrt(n * gamma * gamma))
    # spawn-keyed stream: a dataset sampled with the same integer seed would
    # otherwise share its Gaussian draws, aligning every candidate with a
    # data point and clipping the whole pool
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    W = rng.standard_normal((candidates, ds.d))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=candidates)
    WX = W @ ds.points.T                                          # (C, n)
    V = perturbation_vector(ds, r, WX, m, gamma)                  # (C, d)
    VX = V @ ds.points.T
    ar, ai = np.cos(theta), np.sin(theta)
    proj = np.empty(WX.shape, dtype=np.complex128)
    proj.real, proj.imag = WX + ar[:, None] * VX, ai[:, None] * VX
    z = ar - 1j * ai
    F = np.real(z * (he_eval(m, proj) @ r)) / (math.sqrt(math.factorial(m)) * math.sqrt(m))
    ok = np.max(np.abs(proj.view(np.float64)), axis=1) <= cutoff  # both parts
    best_raw = float(np.max(F))
    if np.any(ok):
        idx = int(np.flatnonzero(ok)[np.argmax(F[ok])])
        if F[idx] >= floor:
            neuron = ComplexNeuron(w_re=W[idx] + ar[idx] * V[idx],
                                   w_im=ai[idx] * V[idx], z=complex(z[idx]), m=m)
            return neuron, float(F[idx])
    raise SamplerFailureError(
        f"no candidate reached the correlation floor {floor:.3e}",
        best_value=best_raw)


# -- directional decomposition ------------------------------------------------

@dataclass(frozen=True)
class DirectionalDecomposition:
    """Re(z * phi(x + i y)) = sum_j p_j(x + j y), polynomial coefficients
    up to the common irrational factor 1/(sqrt(m!) sqrt(m))."""

    m: int
    polys: np.ndarray       # (m+1, m+1) floats, row j = p_j, constant term first
    z: complex              # the unit z; the mixture combines its per-degree
                            # quadrature linearly in (Re z, Im z)


_decomp_basis_cache: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}


def _decomp_basis(m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-degree bases (p_re, p_im) of He_m as (m+1, m+1) floats, row j = p_j,
    and the scale 1/(sqrt(m!) sqrt(m)) of phi = He_m / (sqrt(m!) sqrt(m));
    for a unit z, p_j = Re(z) p_re + Im(z) p_im.

    The Vandermonde system sum_j c_j j^s = i^s, s = 0..k, is solved by the
    Lagrange basis at the nodes 0..k, c_j = L_j(i), so p_re[j, k] =
    c_k Re L_j(i) and p_im[j, k] = -c_k Im L_j(i): an exact Gaussian integer
    over an exact integer, divided once and so correctly rounded.
    """
    if m not in _decomp_basis_cache:  # scale first: m! > 1.8e308 fails at once
        scale = 1.0 / (math.sqrt(math.factorial(m)) * math.sqrt(m))
        p_re, p_im = np.zeros((m + 1, m + 1)), np.zeros((m + 1, m + 1))
        for k, ck in enumerate(he_coeffs(m)):
            for j in range(k + 1):
                a, b, den = ck, 0, 1
                for l in range(k + 1):
                    if l != j:  # (a + i b) (i - l), den (j - l)
                        a, b, den = -l * a - b, a - l * b, den * (j - l)
                if den < 0:
                    a, b, den = -a, -b, -den
                p_re[j, k], p_im[j, k] = a / den, -b / den
        _decomp_basis_cache[m] = (p_re, p_im, scale)
    return _decomp_basis_cache[m]


def decompose_directions(z: complex, m: int) -> DirectionalDecomposition:
    """Directional decomposition of Re(z * phi(x + i y)).

    Each homogeneous degree k of He_m is expressed in the basis
    {(x + j y)^k, j = 0..k} through the cached closed-form bases of
    ``_decomp_basis``; the coefficients for z are Re(z) p_re + Im(z) p_im in
    floats, within a few units in the last place of the exact combination.
    """
    basis_re, basis_im, _ = _decomp_basis(m)
    return DirectionalDecomposition(m=m, polys=z.real * basis_re + z.imag * basis_im, z=z)


# -- smooth bump and ReLU mixture ---------------------------------------------

def _ramp(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, g', g'') for the exp(-1/s) smooth step on (0, 1).

    g(s) = h(s) / (h(s) + h(1-s)) with h = exp(-1/s).  Writing
    q = exp(phi), phi = 1/s - 1/(1-s), gives g = 1/(1+q) and closed-form
    derivatives (sympy differentiation of g serves as the test oracle).
    """
    t = 1.0 - s
    phi = 1.0 / s - 1.0 / t
    phi1 = -1.0 / s ** 2 - 1.0 / t ** 2
    phi2 = 2.0 / s ** 3 - 2.0 / t ** 3
    q = np.exp(np.clip(phi, -700.0, 700.0))
    g = 1.0 / (1.0 + q)
    # q/(1+q)^2 = g(1-g) and q^2/(1+q)^3 = g(1-g)^2 avoid overflow of q alone
    e = g * (1.0 - g)
    g1 = -phi1 * e
    g2 = -(phi2 + phi1 ** 2) * e + 2.0 * phi1 ** 2 * e * (1.0 - g)
    return g, g1, g2


def bump_eval(t: np.ndarray, M: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """chi_M and its first two analytic derivatives.

    chi_M = 1 on [-M, M], 0 outside [-2M, 2M], smooth exp-ramp in between.
    """
    t = np.asarray(t, dtype=np.float64)
    at = np.abs(t)
    chi = np.zeros_like(t)
    d1 = np.zeros_like(t)
    d2 = np.zeros_like(t)
    chi[at <= M] = 1.0
    trans = (at > M) & (at < 2.0 * M)
    if np.any(trans):
        s = np.clip((2.0 * M - at[trans]) / M, 1e-9, 1.0 - 1e-9)
        g, g1, g2 = _ramp(s)
        chi[trans] = g
        sgn = np.sign(t[trans])
        d1[trans] = g1 * (-sgn / M)
        d2[trans] = g2 / (M * M)
    return chi, d1, d2


_mixture_basis_cache: dict[tuple, tuple] = {}


def _basis_second_derivatives(coeffs: np.ndarray, nodes: np.ndarray,
                              chis: tuple) -> np.ndarray:
    """(p * chi)'' = p'' chi + 2 p' chi' + p chi'' at the nodes, one row per
    coefficient row p of ``coeffs``."""
    chi, chi1, chi2 = chis
    P = np.polynomial.polynomial  # loaded on first access; memnet does not import it
    return np.vstack([P.polyval(nodes, P.polyder(c, 2)) * chi
                      + 2.0 * P.polyval(nodes, P.polyder(c)) * chi1
                      + P.polyval(nodes, c) * chi2 for c in coeffs])


def _mixture_f2(m: int, M: float, panels: int) -> tuple:
    """Nodes, weights and (p * chi_M)'' rows of the z = 1 and z = i bases on
    ``panels`` Gauss-Legendre panels of [-2M, 2M]; f'' is linear in z."""
    basis_re, basis_im, scale = _decomp_basis(m)
    nodes, wts = gl_grid(-2.0 * M, 2.0 * M, panels)
    chis = bump_eval(nodes, M)
    return (nodes, wts, _basis_second_derivatives(basis_re * scale, nodes, chis),
            _basis_second_derivatives(basis_im * scale, nodes, chis))


def _mixture_basis(m: int, M: float) -> tuple:
    """(panels, (keys, shifts, S)): panels double from 64 until each int |f''|
    is stable to 1e-6 relative (at most 4096).  Node k of row j adds |Re z A_k +
    Im z B_k| (A = f2_re wts, B = f2_im wts); on Re z >= 0 it flips sign only
    at the angle of (|B_k|, -c_k A_k), c_k = copysign(1, B_k).  Row j: keys =
    4j (shifts) + (sorted angles, 2); S = sum_{i<k} - sum_{i>=k} of (c_i A_i, |B_i|)."""
    if M <= 0.0:
        raise ParameterError("M must be positive")
    key = (m, round(M, 9))
    if key not in _mixture_basis_cache:
        panels, prev = 64, None
        while True:
            _, wts, f2_re, f2_im = _mixture_f2(m, M, panels)
            AB = np.vstack([f2_re, f2_im]) * wts
            masses = np.abs(AB).sum(axis=1)
            if not np.isfinite(masses).all():
                raise QuadratureResolutionError(
                    f"degree {m} overflows float64 on the {panels}-panel grid")
            if prev is not None:
                ref = max(float(masses.max()), 1e-300)
                if np.all(np.abs(masses - prev)
                          <= 1e-6 * np.maximum(np.abs(masses), ref * 1e-12)):
                    break
            if panels >= 4096:
                break
            prev = masses
            panels *= 2
        del f2_re, f2_im  # A and B live on in AB: peak memory stays the grid's
        keys, S = np.empty((m + 1, wts.size + 1)), np.zeros((2, m + 1, wts.size + 1))
        for j in range(m + 1):  # one row of temporaries at a time
            cA, aB = np.copysign(1.0, AB[m + 1 + j]) * AB[j], np.abs(AB[m + 1 + j])
            angle = np.arctan2(-cA, aB)
            order = np.argsort(angle, kind="stable")
            keys[j] = np.append(angle[order], 2.0) + 4.0 * j  # 2 > pi/2 pads the row
            np.cumsum(np.vstack((cA, aB))[:, order], axis=1, out=S[:, j, 1:])
        S *= 2.0  # sum_{i<k} - sum_{i>=k} = 2 sum_{i<k} - sum_i
        S -= S[:, :, -1:] / 2.0
        _mixture_basis_cache[key] = (panels, (keys.ravel(), 4.0 * np.arange(m + 1),
                                              S.reshape(2, -1)))
    return _mixture_basis_cache[key]


def relu_mixture(dd: DirectionalDecomposition, M: float) -> np.ndarray:
    """Masses int |f_j''|, j = 0..m, of the signed ReLU mixture realizing
    scale * sum_j p_j(x + j y) on [-M, M], with scale = 1 / sum_j int |f_j''|.

    Each f_j = p_j * chi_M is compactly supported and C^2, so
    f_j(t) = int psi(t - y) f_j''(y) dy exactly; biases follow |f_j''| and
    signs follow sign(f_j'').  Every direction with a nonzero p_j must have
    a positive mass.

    The masses come off the table of ``_mixture_basis``: z folds to Re z >= 0,
    one ``searchsorted`` of arg z + 4j finds row j's k flipped nodes, and the
    mass Re z S[0] + Im z S[1] there is the direct sum of |(Re z f2_re + Im z
    f2_im) wts| within a few N u sum_k (|A_k| + |B_k|), u the unit roundoff.
    """
    keys, shifts, S = _mixture_basis(dd.m, M)[1]
    z = dd.z if dd.z.real >= 0.0 else -dd.z
    at = np.searchsorted(keys, math.atan2(z.imag, z.real) + shifts)
    masses = z.real * S[0, at] + z.imag * S[1, at]
    if masses.min() <= 0.0:
        for j in np.flatnonzero(dd.polys.any(axis=1) & (masses <= 0.0))[:1]:
            raise QuadratureResolutionError(f"int |f_{j}''| vanished for a nonzero p_{j}")
        if masses.sum() <= 0.0:
            raise QuadratureResolutionError("all mixture components are zero")
    return masses


# -- single-neuron step and the trimmed iterative fit -------------------------

@dataclass
class SingleNeuronStep:
    neuron: Neuron
    values: np.ndarray
    correlation: float
    mixture_mean_correlation: float
    complex_neuron: ComplexNeuron
    M: float


def _breakpoint_argmax(P: np.ndarray, r: np.ndarray, M: float) -> tuple[int, float, float]:
    """(j, b, c): the direction, bias and signed value maximizing
    |c| = |sum_i r_i psi(P[i, j] - b)| over columns j and b in [-2M, 2M].

    Every projection must lie in (-2M, 2M).  The sum is piecewise linear in
    b with breakpoints at the projections, so its maximum sits at b = -2M or
    at a projection.  With column j sorted ascending and S0, S1 the suffix
    sums of r_i and r_i p_i, it is S1[0] + 2M S0[0] at -2M and
    S1[k+1] - p_(k) S0[k+1] at the k-th smallest projection (0 at the
    largest).  Ties go to the first column, then the smallest bias.
    """
    n, cols = P.shape
    order = np.argsort(P, axis=0)
    ps = np.take_along_axis(P, order, axis=0)
    rs = r[order]
    s0 = np.cumsum(rs[::-1], axis=0)[::-1]
    s1 = np.cumsum((rs * ps)[::-1], axis=0)[::-1]
    # row j holds column j's values at b = -2M, p_(0), ..., p_(n-1)
    corr = np.zeros((cols, n + 1))
    corr[:, 0] = s1[0] + 2.0 * M * s0[0]
    corr[:, 1:n] = (s1[1:] - ps[:-1] * s0[1:]).T
    j, k = divmod(int(np.argmax(np.abs(corr))), n + 1)
    bias = -2.0 * M if k == 0 else float(ps[k - 1, j])
    return j, bias, float(corr[j, k])


def single_neuron_step(ds: Dataset, residual: np.ndarray, m: int, seed: int,
                       gamma: float) -> SingleNeuronStep:
    """One harmonic step: a single ReLU neuron correlating with the residual.

    The complex neuron is the best of a pool of 64 sampler candidates.
    The returned neuron sigma * psi((w~ + j w~') . x - b) is the breakpoint
    argmax of |r . f| over directions j, signs, and biases b in the mixture's
    bias support [-2M, 2M]; every data projection lies in [-M, M].  The
    argmax dominates the signed mixture mean by construction.  Ties go to the
    first direction, then the smallest bias.
    """
    r = np.asarray(residual, dtype=np.float64)
    cn, corr_g = sample_complex_neuron(ds, r, m, 64, seed, gamma)
    M = 2.0 * m * projection_cutoff(ds.n, m)
    dd = decompose_directions(cn.z, m)
    mean_corr = corr_g / relu_mixture(dd, M).sum()

    directions = cn.w_re[:, None] + np.arange(m + 1) * cn.w_im[:, None]  # (d, m+1)
    j, bias, corr = _breakpoint_argmax(ds.points @ directions, r, M)
    score = abs(corr)
    if score < mean_corr * (1.0 - 1e-9):
        raise InvariantError("breakpoint argmax fell below the mixture mean")
    neuron = Neuron(1.0 if corr >= 0.0 else -1.0, cn.w_re + j * cn.w_im, -bias)
    values = neuron.a * np.maximum(ds.points @ neuron.w + neuron.b, 0.0)
    return SingleNeuronStep(neuron=neuron, values=values, correlation=score,
                            mixture_mean_correlation=mean_corr,
                            complex_neuron=cn, M=M)


@dataclass
class HarmonicFitResult:
    network: TwoLayerNetwork
    trace: FitTrace
    active_set: np.ndarray
    m: int
    gamma: float


def harmonic_fit(ds: Dataset, epsilon: float, seed: int = 0,
                 max_iters: int | None = None) -> HarmonicFitResult:
    """Trimmed iterative harmonic fit on the boosting driver; ``max_iters``
    defaults to max(4000, 20 n) steps (a fit takes about 5-6 n at d = 100).

    Labels are normalized to ||y||^2 = n internally (undone on output).
    Indices whose residual exceeds n gamma^2 are trimmed from the active
    set A, which only shrinks; the guarantee |A| >= n - ceil(1/gamma^2) is
    checked on exit (InvariantError).  The fit stops when the trimmed
    residual reaches epsilon * ||y||^2; each step gets 20 attempts (a failed
    sampler draw is one), else ConvergenceError.
    """
    n = ds.n
    y_sq = float(ds.labels @ ds.labels)
    report = genericity(ds)
    gamma = report.gamma_clamped(n)
    if gamma >= 1.0:
        raise DegenerateDataError("harmonic_fit requires coherence < 1")
    m = choose_degree(n, gamma)
    try:  # the degree's mixture table, built before the first step
        with np.errstate(over="ignore", invalid="ignore"):
            _mixture_basis(m, 2.0 * m * projection_cutoff(n, m))
    except (OverflowError, QuadratureResolutionError):
        raise DegenerateDataError(
            f"coherence {gamma:.6g} needs degree m={m}, past float64 range") from None
    if max_iters is None:
        max_iters = max(4000, 20 * n)
    norm_scale = math.sqrt(n / y_sq) if y_sq > 0.0 else 1.0

    def builder(r: np.ndarray, attempt_seed: int) -> StepProposal | None:
        try:
            step = single_neuron_step(ds, r, m, attempt_seed, gamma)
        except SamplerFailureError:
            return None
        return StepProposal(neurons=(step.neuron,), values=step.values)

    notes = {"m": m, "gamma": gamma, "gamma_clamped": gamma != report.gamma}
    try:
        net, trace, active = boost_fit(builder, ds.with_labels(ds.labels * norm_scale),
                                       epsilon, max_iters=max_iters, seed=seed,
                                       retry_budget=20, trim_sq=n * gamma * gamma)
    except ConvergenceError as err:
        err.trace.notes.update(notes)
        err.trace.total_weight /= norm_scale
        raise
    trace.notes.update(notes)
    net = TwoLayerNetwork(tuple(nr.scaled(1.0 / norm_scale) for nr in net.neurons))
    trace.total_weight = total_weight(net)
    min_active = n - math.ceil(1.0 / (gamma * gamma))
    if int(active.sum()) < min_active:
        raise InvariantError(
            f"active set {int(active.sum())} below the guarantee {min_active}")
    return HarmonicFitResult(network=net, trace=trace,
                             active_set=np.flatnonzero(active), m=m, gamma=gamma)
