"""Normalized Hermite polynomials and the composite Gauss-Legendre grid.

The project-wide convention is the probabilists' Hermite polynomial divided
by sqrt(m!), so that {H_m} is orthonormal against the standard Gaussian:
E[H_m(X) H_m'(X)] = delta_{m,m'} for X ~ N(0,1).  With this normalization

    H_0 = 1,  H_1(x) = x,  H_m(x) = (x H_{m-1}(x) - sqrt(m-1) H_{m-2}(x)) / sqrt(m)

and H_m' = sqrt(m) H_{m-1}.  Internally coefficients are the exact integer
coefficients of the unnormalized polynomials, with the 1/sqrt(m!) factor
kept symbolic until evaluation.  The harmonic fit evaluates H_{m-1} through
``hermite_eval``, scores its complex candidates through ``he_eval`` (the
unnormalized He_m, whose common factor 1/sqrt(m!) it applies to the scores
afterwards) and integrates on ``gl_grid``; the checks of the Hermite
lemmas (orthogonality, activation expansions) are test code, in
``tests/probes.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = ["he_coeffs", "he_eval", "hermite_eval", "gl_grid"]


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


def he_eval(m: int, z):
    """The unnormalized He_m(z) of ``he_coeffs`` by He_{k+2} = (s - (2k+1)) He_k
    - k(k-1) He_{k-2} in s = z^2 (odd m: on He_k / z, times z at the end);
    z may be real/complex, scalar/array."""
    if m < 0:
        raise ParameterError("degree must be >= 0")
    z = np.asarray(z)
    s = z * z.astype(np.result_type(z.dtype, np.float64), copy=False)
    h_prev, h, nxt = np.empty_like(s), np.ones_like(s), np.empty_like(s)
    for k in range(m % 2, m - 1, 2):
        np.subtract(s, 2 * k + 1, out=nxt)
        if k > 1:  # at k = 0 and 1, h = 1 and the He_{k-2} term vanishes
            nxt *= h
            h_prev *= k * (k - 1)
            nxt -= h_prev
        h_prev, h, nxt = h, nxt, h_prev
    if m % 2:
        h *= z
    return h[()]


def hermite_eval(m: int, z):
    """H_m(z) by the three-term recursion; z may be real/complex, scalar/array."""
    if m < 0:
        raise ParameterError("degree must be >= 0")
    z = np.asarray(z)
    one = np.ones_like(z, dtype=np.result_type(z.dtype, np.float64))
    if m == 0:
        return one
    h_prev, h, nxt = one, np.asarray(z * one), np.empty_like(one)
    for k in range(2, m + 1):
        # (z h - sqrt(k-1) h_prev) / sqrt(k) in three buffers that rotate
        # (never the caller's z)
        h_prev *= math.sqrt(k - 1)
        np.multiply(z, h, out=nxt)
        nxt -= h_prev
        nxt /= math.sqrt(k)
        h_prev, h, nxt = h, nxt, h_prev
    return h[()]  # a numpy scalar for a 0-d z, as numpy arithmetic returns


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
