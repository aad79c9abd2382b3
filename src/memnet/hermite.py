"""Normalized Hermite polynomials and the composite Gauss-Legendre grid.

The project-wide convention is the probabilists' Hermite polynomial divided
by sqrt(m!), so that {H_m} is orthonormal against the standard Gaussian:
E[H_m(X) H_m'(X)] = delta_{m,m'} for X ~ N(0,1).  With this normalization

    H_0 = 1,  H_1(x) = x,  H_m(x) = (x H_{m-1}(x) - sqrt(m-1) H_{m-2}(x)) / sqrt(m)

and H_m' = sqrt(m) H_{m-1}.  Internally coefficients are the exact integer
coefficients of the unnormalized polynomials, with the 1/sqrt(m!) factor
kept symbolic until evaluation.  The harmonic fit evaluates H_m through
``hermite_eval`` and integrates on ``gl_grid``; the checks of the Hermite
lemmas (orthogonality, activation expansions) are test code, in
``tests/probes.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = ["he_coeffs", "hermite_eval", "gl_grid"]


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
