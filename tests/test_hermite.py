import math

import numpy as np
import pytest

from memnet.errors import ParameterError
from memnet.hermite import gl_grid, he_coeffs, he_eval, hermite_eval
from probes import (gauss_expectation, hermite_coefficients, hermite_textbook, horner,
                    orthogonality_check)


def test_h0_and_h1():
    assert hermite_eval(0, 3.7) == 1.0
    assert hermite_eval(1, -2.5) == -2.5


def test_h2_at_zero():
    # H_2(x) = (x^2 - 1)/sqrt(2)
    assert hermite_eval(2, 0.0) == pytest.approx(-1.0 / math.sqrt(2))


def test_recursion_matches_monomial_oracle():
    rng = np.random.default_rng(0)
    for m in range(21):
        z = rng.uniform(-10, 10, size=50)
        a = hermite_eval(m, z)
        b = horner(he_coeffs(m), z) / math.sqrt(math.factorial(m))
        assert np.max(np.abs(a - b) / (1.0 + np.abs(b))) < 1e-10


def test_hermite_eval_is_normalized_he_eval():
    """hermite_eval is he_eval divided once by sqrt(m!), bit for bit, with
    the same dtype, shape and scalar type, and never writes to z."""
    rng = np.random.default_rng(3)
    real = rng.uniform(-6, 6, size=(7, 5))
    inputs = [real, real + 1j * rng.uniform(-3, 3, size=(7, 5)),
              np.array(1.7), np.array(0.4 - 2.2j), 2.5, -1.25 + 0.5j, 3]
    for z in inputs:
        before = np.array(z, copy=True)
        for m in range(30):
            got, want = hermite_eval(m, z), he_eval(m, z) / math.sqrt(math.factorial(m))
            assert type(got) is type(want)
            assert np.asarray(got).dtype == np.asarray(want).dtype
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
        assert np.array_equal(z, before)


def test_hermite_eval_within_ulps_of_textbook():
    """The two-step recurrence stays within a few ulps of the normalized
    one-step recurrence at the sampler's projections (|z| <= 4)."""
    z = np.random.default_rng(5).uniform(-4.0, 4.0, size=2000)
    for m in range(21):
        got, want = hermite_eval(m, z), hermite_textbook(m, z)
        envelope = sum(abs(c) * np.abs(z) ** k for k, c in enumerate(he_coeffs(m)))
        assert np.all(np.abs(got - want) <= 1e-14 * envelope / math.sqrt(math.factorial(m)))


def test_hermite_eval_past_float64_factorial_rejected():
    # 170! fits a float64 and 171! does not: that degree and above raise
    assert np.isfinite(hermite_eval(170, 0.5))
    for m in (171, 500):
        with pytest.raises(ParameterError, match="float64"):
            hermite_eval(m, 0.5)


def _he_exact(m, z):
    """He_m at the float z = (a + ib) / q, q a power of two, by Horner on
    exact Gaussian integers scaled by q^m; correctly rounded at the end."""
    (a, qa), (b, qb) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    q = max(qa, qb)
    a, b = a * (q // qa), b * (q // qb)
    re, im, qk = 0, 0, 1
    for c in reversed(he_coeffs(m)):
        re, im, qk = re * a - im * b + c * qk, re * b + im * a, qk * q
    return complex(re / (qk // q), im / (qk // q))


def test_he_eval_matches_exact_polynomial():
    """The two-step recurrence in z^2 stays within 1e-12 of the envelope
    |He_m(i|z|)| = sum_k |c_k| |z|^k on real and complex grids, |z| <= 8."""
    rng = np.random.default_rng(7)
    real = np.concatenate([[0.0, 8.0, -8.0], rng.uniform(-8.0, 8.0, 9)])
    cplx = 8.0 * np.sqrt(rng.uniform(0.0, 1.0, 12)) * np.exp(2j * np.pi * rng.uniform(size=12))
    for m in range(61):
        coeffs = he_coeffs(m)
        for grid in (real, cplx):
            got = he_eval(m, grid)
            assert got.dtype == grid.dtype and got.shape == grid.shape
            for value, z in zip(got, grid):
                envelope = sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))
                assert abs(value - _he_exact(m, complex(z))) <= 1e-12 * envelope
    with pytest.raises(ParameterError):
        he_eval(-1, 0.0)


def test_scalar_input_gives_numpy_scalar():
    # the recurrence's rotating buffers are 0-d arrays for a scalar z
    for z, kind in ((2.5, np.float64), (np.array(1.7), np.float64), (3, np.float64),
                    (-1.25 + 0.5j, np.complex128)):
        for m in range(6):
            assert type(hermite_eval(m, z)) is kind


def test_gl_grid_matches_per_panel_rule():
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(16)
    for lo, hi, panels in ((-1.0, 1.0, 1), (-15.0, 15.0, 64), (-3.7, 8.2, 7)):
        pts, wts = gl_grid(lo, hi, panels)
        assert pts.shape == wts.shape == (16 * panels,)
        edges = np.linspace(lo, hi, panels + 1)
        for p in range(panels):
            half = (edges[p + 1] - edges[p]) / 2.0
            mid = (edges[p] + edges[p + 1]) / 2.0
            assert np.array_equal(pts[16 * p:16 * (p + 1)], mid + half * ref_nodes)
            assert np.array_equal(wts[16 * p:16 * (p + 1)], half * ref_weights)
        # 16 nodes per panel integrate degree 31 exactly
        exact = (hi ** 32 - lo ** 32) / 32.0
        assert float(pts ** 31 @ wts) == pytest.approx(
            exact, rel=1e-12, abs=1e-12 * abs(hi) ** 32)


def test_complex_argument():
    z = 1.5 + 0.5j
    want = horner(he_coeffs(4), z) / math.sqrt(math.factorial(4))
    assert hermite_eval(4, z) == pytest.approx(want, rel=1e-12)


def test_negative_degree_rejected():
    with pytest.raises(ParameterError):
        hermite_eval(-1, 0.0)
    with pytest.raises(ParameterError):
        he_coeffs(-1)


def test_basis_recursion_exact_integers():
    """He_m = x He_{m-1} - (m-1) He_{m-2} coefficient-wise, exactly."""
    for m in range(2, 16):
        he, p1, p2 = (he_coeffs(k) for k in (m, m - 1, m - 2))
        rebuilt = [0] * (m + 1)
        for k, c in enumerate(p1):
            rebuilt[k + 1] += c
        for k, c in enumerate(p2):
            rebuilt[k] -= (m - 1) * c
        assert rebuilt == he


def test_derivative_identity_coefficientwise():
    """H'_m = sqrt(m) H_{m-1} after formal differentiation."""
    coeffs = [np.array(he_coeffs(m), dtype=np.float64) / math.sqrt(math.factorial(m))
              for m in range(13)]
    for m in range(1, 13):
        d = coeffs[m][1:] * np.arange(1, m + 1)
        target = math.sqrt(m) * coeffs[m - 1]
        assert np.max(np.abs(d - target)) < 1e-12


def test_derivative_identity_finite_difference():
    h = 1e-6
    for m in range(1, 11):
        for x in np.linspace(-3, 3, 13):
            fd = (hermite_eval(m, x + h) - hermite_eval(m, x - h)) / (2 * h)
            assert fd == pytest.approx(math.sqrt(m) * hermite_eval(m - 1, x), abs=1e-5)


def test_generating_function():
    """sum_m t^m He_m(x)/m! = exp(t x - t^2/2); with H_m = He_m/sqrt(m!) the
    partial sum is sum t^m H_m(x)/sqrt(m!)."""
    for t in (-0.5, 0.2, 0.5):
        for x in (-2.0, 0.0, 1.3, 2.0):
            s = sum(t ** m * hermite_eval(m, x) / math.sqrt(math.factorial(m))
                    for m in range(31))
            assert s == pytest.approx(math.exp(t * x - t * t / 2.0), abs=1e-10)


def test_orthogonality_diagonal():
    est, se = orthogonality_check(1, 1, 0.5, 200000, 0)
    assert abs(est - 0.5) <= 3 * se
    est, se = orthogonality_check(3, 3, 1.0, 200000, 1)
    assert abs(est - 1.0) <= 3 * se


def test_orthogonality_offdiagonal():
    for rho in (-0.7, 0.2, 0.9):
        est, se = orthogonality_check(2, 3, rho, 200000, 2)
        assert abs(est) <= 3 * se + 1e-12


def test_orthogonality_grid():
    # E[H_m(X) H_m'(Y)] = delta rho^m over a small (m, m', rho) grid
    for m in range(4):
        for m2 in range(4):
            for rho in (-0.6, 0.3):
                est, se = orthogonality_check(m, m2, rho, 100000, 10 * m + m2)
                exact = rho ** m if m == m2 else 0.0
                assert abs(est - exact) <= 3 * se + 1e-12


def test_gauss_expectation_known_moments():
    assert gauss_expectation(lambda t: t * t) == pytest.approx(1.0, abs=1e-8)
    assert gauss_expectation(lambda t: t ** 4) == pytest.approx(3.0, abs=1e-7)


def test_expand_basis_function():
    coeffs = hermite_coefficients(lambda t: hermite_eval(3, t), 6)
    target = np.zeros(7)
    target[3] = 1.0
    assert np.max(np.abs(coeffs - target)) < 1e-8
    # Parseval remainder E[psi'^2] - sum a_l^2
    assert gauss_expectation(lambda t: hermite_eval(3, t) ** 2) - coeffs @ coeffs < 1e-6


def test_expand_relu_derivative():
    """Closed-form Gaussian integrals: a_0 = E[1{X>=0}] = 1/2 and
    a_1 = E[X 1{X>=0}] = 1/sqrt(2 pi)."""
    coeffs = hermite_coefficients(lambda t: (t >= 0).astype(float), 8)
    assert coeffs[0] == pytest.approx(0.5, abs=1e-6)
    assert coeffs[1] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-6)
    # even coefficients beyond 0 vanish by symmetry of the jump about 0
    assert abs(coeffs[2]) < 1e-6


def test_expand_identity_function():
    coeffs = hermite_coefficients(lambda t: t, 5)
    assert coeffs[1] == pytest.approx(1.0, abs=1e-8)
    others = np.delete(coeffs, 1)
    assert np.max(np.abs(others)) < 1e-8


def test_expansion_parseval():
    coeffs = hermite_coefficients(lambda t: (t >= 0).astype(float), 10)
    energy = gauss_expectation(lambda t: (t >= 0).astype(float))  # E[psi'^2] = 1/2
    assert float(coeffs @ coeffs) <= energy + 1e-6
