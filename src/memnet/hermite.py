"""Normalized Hermite polynomials and Hermite expansions of activations.

The project-wide convention is the probabilists' Hermite polynomial divided
by sqrt(m!), so that {H_m} is orthonormal against the standard Gaussian:
E[H_m(X) H_m'(X)] = delta_{m,m'} for X ~ N(0,1).  With this normalization

    H_0 = 1,  H_1(x) = x,  H_m(x) = (x H_{m-1}(x) - sqrt(m-1) H_{m-2}(x)) / sqrt(m)

and H_m' = sqrt(m) H_{m-1}.  Internally coefficients are the exact integer
coefficients of the unnormalized polynomials, with the 1/sqrt(m!) factor
kept symbolic until evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError

__all__ = [
    "HermiteExpansion", "eval_monomial", "he_coeffs", "hermite_eval",
    "orthogonality_check", "expand_activation_derivative",
    "gauss_expectation", "gl_grid",
]


def he_coeffs(m: int) -> list[int]:
    """Exact integer monomial coefficients of the unnormalized He_m, constant
    term first, by He_m = x He_{m-1} - (m-1) He_{m-2}."""
    if m < 0:
        raise ParameterError("degree must be >= 0")
    prev, row = [], [1]  # He_{-1} = 0, He_0 = 1
    for k in range(1, m + 1):
        nxt = [0] + row
        for i, c in enumerate(prev):
            nxt[i] -= (k - 1) * c
        prev, row = row, nxt
    return row


def eval_monomial(m: int, z):
    """H_m(z) by Horner's rule on the exact coefficients of He_m; supports
    complex z.  The reference that ``hermite_eval`` is tested against."""
    coeffs = np.array(he_coeffs(m), dtype=np.float64)
    return np.polynomial.polynomial.polyval(np.asarray(z), coeffs) / math.sqrt(math.factorial(m))


def hermite_eval(m: int, z):
    """H_m(z) by the three-term recursion; z may be real/complex, scalar/array."""
    if m < 0:
        raise ParameterError("degree must be >= 0")
    z = np.asarray(z)
    one = np.ones_like(z, dtype=np.result_type(z.dtype, np.float64))
    if m == 0:
        return one
    h_prev, h, nxt = one, np.asarray(z * one), np.empty_like(one)
    # numpy divides a complex a + bj by a real c as by c + 0j, with Smith's
    # method: rat = 0/c, scl = 1/(c + 0*rat) = 1/c, and the parts become
    # (a + b*rat)*scl and (b - a*rat)*scl.  Multiplying by 1/c + 0j gives
    # a*scl - b*0 and a*0 + b*scl: the same values with NaNs in the same
    # places, only the sign of a zero or a NaN may differ, at a fraction of
    # the cost.  For a real array x/c and x*(1/c) differ in the last bit, so
    # the real branch divides.
    complex_branch = np.iscomplexobj(one)
    for k in range(2, m + 1):
        # (z h - sqrt(k-1) h_prev) / sqrt(k) in three buffers that rotate
        # (never the caller's z)
        h_prev *= math.sqrt(k - 1)
        np.multiply(z, h, out=nxt)
        nxt -= h_prev
        if complex_branch:
            nxt *= 1.0 / math.sqrt(k)
        else:
            nxt /= math.sqrt(k)
        h_prev, h, nxt = h, nxt, h_prev
    return h[()]  # a numpy scalar for a 0-d z, as numpy arithmetic returns


def orthogonality_check(m: int, m2: int, rho: float, samples: int,
                        seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of E[H_m(X) H_m2(Y)] with corr(X, Y) = rho, and
    its standard error.

    The exact value is delta_{m,m2} * rho^m.
    """
    if abs(rho) > 1.0:
        raise ParameterError("|rho| must be <= 1")
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(samples)
    z2 = rng.standard_normal(samples)
    x = z1
    y = rho * z1 + math.sqrt(max(0.0, 1.0 - rho * rho)) * z2
    prod = hermite_eval(m, x) * hermite_eval(m2, y)
    return float(np.mean(prod)), float(np.std(prod) / math.sqrt(samples))


# -- Gaussian quadrature ------------------------------------------------------

# the 16-point rule, loaded on first use: memnet does not import numpy.polynomial
_leggauss_cache: list[np.ndarray] = []


def gl_grid(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights: ``panels`` equal panels on
    [lo, hi] with 16 nodes each, panel by panel."""
    if not _leggauss_cache:
        _leggauss_cache.extend(np.polynomial.legendre.leggauss(16))
    nodes, weights = _leggauss_cache
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return pts, wts


def _composite_gl(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                  panels: int) -> float:
    pts, wts = gl_grid(lo, hi, panels)
    vals = f(pts)
    if not np.all(np.isfinite(vals)):
        raise ParameterError("non-finite function values on quadrature nodes")
    return float(vals @ wts)


def gauss_expectation(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """E[f(X)] for X ~ N(0,1) by panel-doubling composite Gauss-Legendre.

    The integral runs over [-15, 15]; panels are doubled from 8 until the
    estimate moves by less than 1e-8, at most to 8192.  The panel boundary
    at 0 makes this robust for piecewise-smooth integrands with a kink or
    jump at the origin (e.g. the ReLU derivative).
    """
    gauss = lambda t: f(t) * np.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    panels = 8
    prev = _composite_gl(gauss, -15.0, 15.0, panels)
    while panels < 8192:
        panels *= 2
        cur = _composite_gl(gauss, -15.0, 15.0, panels)
        if abs(cur - prev) < 1e-8:
            return cur
        prev = cur
    return prev


@dataclass(frozen=True)
class HermiteExpansion:
    """Hermite coefficients a_0..a_L of a function (typically psi')."""

    coeffs: np.ndarray
    truncation_degree: int
    tail_mass: float

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def tail_sum(self, from_index: int) -> float:
        """sum of a_l^2 for l >= from_index (within the truncation)."""
        return float(np.sum(self.coeffs[from_index:] ** 2))


def expand_activation_derivative(psi_prime: Callable[[np.ndarray], np.ndarray],
                                 L: int) -> HermiteExpansion:
    """Hermite coefficients a_l = E[psi'(X) H_l(X)], l = 0..L.

    Quadrature is refined until each coefficient is stable to 1e-8.
    ``tail_mass`` is the Parseval remainder E[psi'(X)^2] - sum a_l^2,
    clipped at zero.
    """
    if L < 0:
        raise ParameterError("truncation degree must be >= 0")
    coeffs = np.array([
        gauss_expectation(lambda t, l=l: np.asarray(psi_prime(t)) * hermite_eval(l, t))
        for l in range(L + 1)
    ])
    energy = gauss_expectation(lambda t: np.asarray(psi_prime(t)) ** 2)
    tail = max(0.0, energy - float(coeffs @ coeffs))
    return HermiteExpansion(coeffs=coeffs, truncation_degree=L, tail_mass=tail)
