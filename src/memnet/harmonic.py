"""Harmonic (complex-perturbation) network construction.

Pipeline for one boosting step:

1. draw a random base weight w and a uniform phase a, perturb by the
   residual-driven vector v(w), and keep the best complex neuron
   g(x) = Re(z * phi((w~ + i w~') . x)) with phi = H_m / sqrt(m), scoring
   the pool through He_m and one shared W X^T (``sample_complex_neuron``);
2. return the single ReLU neuron on a direction w~ + j w~', j = 0..m, that
   maximizes the correlation with the residual, by a breakpoint argmax: for
   a fixed direction the correlation is piecewise linear in the bias, with
   breakpoints at the data projections, so its exact maximum over the bias
   support [-2M, 2M] sits at -2M or at a projection; one sort of the
   projections and suffix sums give the correlation at every breakpoint.

The paper's proof reaches that neuron through a mixture the step does not
compute.  Re(z * phi(x + i y)) is a sum of univariate polynomials p_j in the
directions x + j y (``decompose_directions``: closed-form Lagrange bases,
exact once per degree, combined linearly in (Re z, Im z)); each truncated
p_j is a signed mixture of ReLUs by psi'' = delta_0, with biases on
[-2M, 2M] distributed as |f_j''|, and ``relu_mixture`` returns the masses
int |f_j''|.  The argmax dominates the mixture mean corr / sum of masses.
``harmonic_fit`` builds the degree's mixture once, before the first step,
so a degree with no finite float64 mixture is refused up front; the test
suite checks the domination on every step of an acceptance fit.  One builder,
``_mixture_basis``, writes the table's node-weighted f'' rows (35-58 ms and a
6.6 MB allocation peak cold at m = 9, n = 200 on a 2-core VM).

The fit runs on ``data.unit_frame``'s rows, of norm near 1 as in the paper.  The
tuning constants (cutoff, correlation floor) are calibrated once on a reference
fixture and frozen in ``CONSTANTS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, genericity, unit_frame
from .errors import (ConvergenceError, DegenerateDataError, InvariantError,
                     ParameterError, QuadratureResolutionError, SamplerFailureError)
from .hermite import gl_grid, he_coeffs, he_eval, hermite_eval
from .network import FitTrace, Neuron, StepProposal, TwoLayerNetwork, boost_fit, from_unit_frame


# Frozen on 2026-08-25 from pilot Monte Carlo on the reference fixture
# sphere-n100-d50-seed0 (unit-sphere data, n=100, d=50, seed 0, Rademacher
# labels) at degree m=10; see README.
CONSTANTS = {"cutoff_c": 0.076, "corr_c": 4.0}
_CANDIDATES = 64  # the sampler's pool size


def choose_degree(n: int, gamma: float) -> int:
    """Smallest m >= 3 with n * gamma^(m-2) <= 1/2 in floats: 2 + ceil(log(2n)
    / log(1/gamma)), stepped where rounding moves the float test."""
    if not (0.0 < gamma < 1.0):
        raise ParameterError("gamma must lie in (0, 1)")
    m = max(3, 2 + math.ceil(math.log(max(2.0 * n, 1.0)) / -math.log(gamma)))
    while m > 3 and n * gamma ** (m - 3) <= 0.5:
        m -= 1
    while n * gamma ** (m - 2) > 0.5:
        m += 1
    return m


def perturbation_vector(ds: Dataset, residual: np.ndarray, proj: np.ndarray,
                        m: int, gamma: float) -> np.ndarray:
    """v(w) = (n gamma^2)^(-1/2) sum_i r_i H_{m-1}(w . x_i) x_i from the
    projections ``proj``: X w of one w, or W X^T, one row per w of a batch."""
    h = hermite_eval(m - 1, proj)
    h *= np.asarray(residual, dtype=np.float64)
    return (h @ ds.points) / math.sqrt(ds.n * gamma * gamma)


@dataclass(frozen=True)
class ComplexNeuron:
    """g(x) = Re(z * phi((w_re + i w_im) . x)), phi = H_m / sqrt(m)."""

    w_re: np.ndarray
    w_im: np.ndarray
    z: complex

    def __post_init__(self):
        if abs(abs(self.z) - 1.0) > 1e-12:
            raise ParameterError("z must have unit modulus")


def projection_cutoff(n: int, m: int) -> float:
    """The calibrated cutoff (4 C log n)^(m/2) on data projections."""
    return (4.0 * CONSTANTS["cutoff_c"] * math.log(n)) ** (m / 2.0)


def sample_complex_neuron(ds: Dataset, residual: np.ndarray, m: int, seed: int,
                          gamma: float) -> tuple[ComplexNeuron, float]:
    """Best of a pool of 64 complex neurons; returns (neuron, correlation).

    Candidates violating the projection cutoff are discarded; the winner
    must reach the calibrated correlation floor
    ||r||^2 / (2 corr_c sqrt(n gamma^2)), else SamplerFailureError.  W X^T
    feeds v(w) and the projections W X^T + cos(a) V X^T, sin(a) V X^T.
    Scores are Re(z He_m(P) @ r) with the pool-wide 1/(sqrt(m!) sqrt(m))
    applied after the sum: only the argmax and the floor test read them,
    and the winner's weights come from W, V and a alone.
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
    W = rng.standard_normal((_CANDIDATES, ds.d))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=_CANDIDATES)
    WX = W @ ds.points.T                                          # (C, n)
    V = perturbation_vector(ds, r, WX, m, gamma)                  # (C, d)
    VX = V @ ds.points.T
    ar, ai = np.cos(theta), np.sin(theta)
    proj = np.empty(WX.shape, dtype=np.complex128)
    np.add(np.multiply(ar[:, None], VX, out=proj.real), WX, out=proj.real)
    np.multiply(ai[:, None], VX, out=proj.imag)
    z = ar - 1j * ai
    F = np.real(z * (he_eval(m, proj) @ r)) / (math.sqrt(math.factorial(m)) * math.sqrt(m))
    pv = proj.view(np.float64)  # max |.| over both parts
    ok = np.maximum(pv.max(axis=1), -pv.min(axis=1)) <= cutoff
    if np.any(ok):
        idx = int(np.flatnonzero(ok)[np.argmax(F[ok])])
        if F[idx] >= floor:
            return (ComplexNeuron(w_re=W[idx] + ar[idx] * V[idx], w_im=ai[idx] * V[idx],
                                  z=complex(z[idx])), float(F[idx]))
    raise SamplerFailureError(f"no candidate reached the correlation floor {floor:.3e}")


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


def _in_float_range(m: int, M: float) -> bool:
    """Whether degree m's table on [-2M, 2M] can stay in float64, before its O(m^3) basis:
    m! must fit, and so must the leading terms, below (4M)^m / sqrt(m! m) (|L_j(i)| < 2^m)."""
    return m <= 170 and (m * math.log(4.0 * M) - 0.5 * math.log(math.factorial(m) * m)
                         <= math.log(np.finfo(np.float64).max))


def _mixture_basis(m: int, M: float) -> tuple:
    """(panels, AB) on ``panels`` Gauss-Legendre panels of [-2M, 2M]: AB's rows
    are the node-weighted (p chi_M)'' = p'' chi + 2 p' chi' + p chi'' of the
    z = 1 basis rows p of ``_decomp_basis`` times its scale (A, rows 0..m) over
    those of the z = i basis (B); f'' is linear in z.  Panels double from 64
    until each int |f''| is stable to 1e-6 relative (at most 4096)."""
    if M <= 0.0:
        raise ParameterError("M must be positive")
    key = (m, round(M, 9))
    if key not in _mixture_basis_cache:
        if not _in_float_range(m, M):
            raise QuadratureResolutionError(f"degree {m} overflows float64 on [-2M, 2M]")
        basis_re, basis_im, scale = _decomp_basis(m)
        P = np.polynomial.polynomial  # loaded on first access; memnet does not import it
        rows = [(c, P.polyder(c), P.polyder(c, 2))
                for c in np.vstack([basis_re, basis_im]) * scale]
        panels, prev = 64, None
        while True:
            nodes, wts = gl_grid(-2.0 * M, 2.0 * M, panels)
            chi, chi1, chi2 = bump_eval(nodes, M)
            AB = np.empty((len(rows), len(nodes)))
            for out, (c, c1, c2) in zip(AB, rows):
                np.multiply(P.polyval(nodes, c2) * chi + 2.0 * P.polyval(nodes, c1) * chi1
                            + P.polyval(nodes, c) * chi2, wts, out=out)
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
        _mixture_basis_cache[key] = (panels, AB)
    return _mixture_basis_cache[key]


def relu_mixture(dd: DirectionalDecomposition, M: float) -> np.ndarray:
    """Masses int |f_j''|, j = 0..m, of the signed ReLU mixture realizing
    scale * sum_j p_j(x + j y) on [-M, M], with scale = 1 / sum_j int |f_j''|.

    Each f_j = p_j * chi_M is compactly supported and C^2, so
    f_j(t) = int psi(t - y) f_j''(y) dy exactly; biases follow |f_j''| and
    signs follow sign(f_j'').  Every direction with a nonzero p_j must have
    a positive mass.  The masses are the direct sums of |Re z A + Im z B|
    over the degree's grid (``_mixture_basis``).
    """
    AB = _mixture_basis(dd.m, M)[1]
    masses = np.abs(dd.z.real * AB[:dd.m + 1] + dd.z.imag * AB[dd.m + 1:]).sum(axis=1)
    for j in np.flatnonzero(dd.polys.any(axis=1) & (masses <= 0.0))[:1]:
        raise QuadratureResolutionError(f"int |f_{j}''| vanished for a nonzero p_{j}")
    return masses


# -- single-neuron step and the trimmed iterative fit -------------------------

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


def single_neuron_step(ds: Dataset, residual: np.ndarray, seed: int, m: int,
                       gamma: float) -> StepProposal | None:
    """One harmonic step: a single ReLU neuron correlating with the residual,
    as the driver's proposal, or None when the sampler fails.

    The complex neuron is the best of the sampler's pool.  The neuron
    sigma * psi((w~ + j w~') . x - b) is the breakpoint argmax of |r . f| over
    directions j, signs, and biases b in the mixture's bias support
    [-2M, 2M]; every data projection lies in [-M, M].  The step computes no
    mixture: that the argmax dominates the mixture mean is the paper's
    lemma, checked by the tests.  Ties go to the first direction, then the
    smallest bias.
    """
    r = np.asarray(residual, dtype=np.float64)
    try:
        cn, _ = sample_complex_neuron(ds, r, m, seed, gamma)
    except SamplerFailureError:
        return None
    M = 2.0 * m * projection_cutoff(ds.n, m)
    directions = cn.w_re[:, None] + np.arange(m + 1) * cn.w_im[:, None]  # (d, m+1)
    j, bias, corr = _breakpoint_argmax(ds.points @ directions, r, M)
    neuron = Neuron(1.0 if corr >= 0.0 else -1.0, cn.w_re + j * cn.w_im, -bias)
    values = neuron.a * np.maximum(ds.points @ neuron.w + neuron.b, 0.0)
    return StepProposal(neurons=(neuron,), values=values)


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

    The sampler sees the residual in the paper's frame ||y||^2 = n.  Points
    whose squared residual exceeds gamma^2 ||y||^2 are trimmed from the
    active set A, which only shrinks; the guarantee |A| >= n - ceil(1/gamma^2)
    is checked on exit (InvariantError).  The fit stops when the trimmed
    residual reaches epsilon * ||y||^2; each step gets the driver's 20
    attempts (a failed sampler draw is one), else ConvergenceError.
    """
    n = ds.n
    if n < 2:  # log n = 0 makes the projection cutoff, hence M, zero
        raise DegenerateDataError(f"harmonic_fit needs n >= 2 points, got n={n}")
    ds, k = unit_frame(ds)
    y_sq = float(ds.labels @ ds.labels)
    report = genericity(ds)
    gamma = report.gamma_clamped(n)
    if gamma >= 1.0:
        raise DegenerateDataError("harmonic_fit requires coherence < 1")
    m = choose_degree(n, gamma)
    try:  # the degree's mixture before the first step, its float range before its basis
        M = 2.0 * m * projection_cutoff(n, m)
        if not _in_float_range(m, M):
            raise QuadratureResolutionError
        with np.errstate(over="ignore", invalid="ignore"):
            relu_mixture(decompose_directions(1, m), M)
    except (OverflowError, QuadratureResolutionError):
        raise DegenerateDataError(
            f"coherence {gamma:.6g} needs degree m={m}, past float64 range") from None
    if max_iters is None:
        max_iters = max(4000, 20 * n)
    norm_scale = math.sqrt(n / y_sq) if y_sq > 0.0 else 1.0
    notes = {"m": m, "gamma": gamma, "gamma_clamped": gamma != report.gamma}
    try:
        net, trace, active = boost_fit(
            lambda r, s: single_neuron_step(ds, r * norm_scale, s, m, gamma), ds, epsilon,
            max_iters=max_iters, seed=seed, trim_sq=y_sq * gamma * gamma)
    except ConvergenceError as err:
        err.trace.notes.update(notes)
        raise
    trace.notes.update(notes)
    net = from_unit_frame(net, k)
    min_active = n - math.ceil(1.0 / (gamma * gamma))
    if int(active.sum()) < min_active:
        raise InvariantError(
            f"active set {int(active.sum())} below the guarantee {min_active}")
    return HarmonicFitResult(network=net, trace=trace,
                             active_set=np.flatnonzero(active), m=m, gamma=gamma)
