"""One Hermite recurrence, its normalized view, and the Gauss-Legendre grid.

``he_eval`` evaluates the probabilists' He_m (integer coefficients ``he_coeffs``)
by He_{k+2} = (z^2 - (2k+1)) He_k - k(k-1) He_{k-2}; ``hermite_eval`` is its
normalized view H_m = He_m / sqrt(m!), the project-wide convention, orthonormal
against N(0,1) with H_m' = sqrt(m) H_{m-1}.  The harmonic fit evaluates H_{m-1}
through ``hermite_eval``, scores its complex candidates through ``he_eval`` and
integrates on ``gl_grid``, numpy's 16-point rule stored as constants; the Hermite
lemma checks are test code.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError


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
    h_prev, nxt = np.empty_like(s), np.empty_like(s)
    # start at He_{k0+2} / z^{k0} = s - (2 k0 + 1), k0 = m % 2; He_{k0} / z^{k0} = 1
    h = np.ones_like(s) if m < 2 else np.subtract(s, 2 * (m % 2) + 1, out=np.empty_like(s))
    for k in range(m % 2 + 2, m - 1, 2):
        np.subtract(s, 2 * k + 1, out=nxt)
        nxt *= h
        if k < 4:  # the first update: k(k-1) He_{k0} / z^{k0} is a scalar
            nxt -= k * (k - 1)
        else:
            h_prev *= k * (k - 1)
            nxt -= h_prev
        h_prev, h, nxt = h, nxt, h_prev
    if m % 2:
        h *= z
    return h[()]  # a numpy scalar for a 0-d z, as numpy arithmetic returns


def hermite_eval(m: int, z):
    """H_m(z) = He_m(z) / sqrt(m!), the normalized view of ``he_eval``; z may be real/complex,
    scalar/array.  Past m = 170, m! overflows float64 and the degree is rejected."""
    if m > 170:
        raise ParameterError(f"degree {m} past float64 range: {m}! overflows")
    h = he_eval(m, z)
    h /= math.sqrt(math.factorial(m))
    return h


# -- Gaussian quadrature ------------------------------------------------------

# numpy's 16-point Gauss-Legendre rule on [-1, 1], exactly symmetric, so memnet does not
# import numpy.polynomial: the 8 positive nodes and their weights, mirrored
_GL_X = np.array([0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                  0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                  0.9445750230732326, 0.9894009349916499])
_GL_W = np.array([0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                  0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                  0.062253523938647456, 0.027152459411754176])
_GL_NODES = np.concatenate([-_GL_X[::-1], _GL_X])
_GL_WEIGHTS = np.concatenate([_GL_W[::-1], _GL_W])


def gl_grid(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights: ``panels`` equal panels on
    [lo, hi] with 16 nodes each, panel by panel."""
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    pts = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return pts, wts
