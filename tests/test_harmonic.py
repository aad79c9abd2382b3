import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from memnet.data import (Dataset, gaussian_labels, genericity, rademacher_labels,
                         sample_sphere)
import memnet.harmonic as harmonic
from memnet.errors import (ConvergenceError, DegenerateDataError, InvariantError,
                           ParameterError, QuadratureResolutionError,
                           SamplerFailureError)
from memnet.harmonic import (CONSTANTS, ComplexNeuron, _breakpoint_argmax, _decomp_basis,
                             _mixture_basis, bump_eval, choose_degree, decompose_directions,
                             harmonic_fit, perturbation_vector, projection_cutoff,
                             relu_mixture, sample_complex_neuron, single_neuron_step)
from memnet.hermite import he_coeffs, hermite_eval
from memnet.network import evaluate, total_weight
from probes import (direct_masses, directional_sum, f2_rows, hermite_gram, hermite_textbook,
                    mixture_expectation, mixture_quadrature, mixture_rows)


def _fixture(n=100, d=50, seed=0):
    ds = rademacher_labels(sample_sphere(n, d, seed), seed + 1)
    gamma = genericity(ds).gamma_clamped(n)
    return ds, gamma


def test_constants_table_loaded():
    assert {"cutoff_c", "corr_c"} == set(CONSTANTS)
    assert all(v > 0 for v in CONSTANTS.values())


# -- degree selection and perturbation ----------------------------------------

def test_choose_degree_examples():
    assert choose_degree(100, 0.1) == 5
    assert choose_degree(2, 0.5) == 4
    assert choose_degree(1000, 0.2) == 7


def _choose_degree_loop(n, gamma):
    m = 3
    while n * gamma ** (m - 2) > 0.5:
        m += 1
    return m


def test_choose_degree_closed_form_matches_loop():
    """The closed form returns the loop's degree, float test included: random
    (n, gamma), exact ties n gamma^k = 1/2, gammas a few ulps around the
    roots (1 / 2n)^(1/k), and gammas near 1 (m up to about 6e5)."""
    rng = np.random.default_rng(0)
    cases = list(zip(rng.integers(1, 5000, 300).tolist(), rng.uniform(1e-3, 0.99, 300).tolist()))
    cases += [(2, 0.5), (2, 0.25), (8, 0.5), (1024, 0.5), (1, 0.9), (1, 0.3)]
    for n in (50, 200, 1000):
        for k in range(1, 60):
            root = (0.5 / n) ** (1.0 / k)
            cases += [(n, g) for g in np.nextafter(root, [0.0] * 3 + [1.0] * 3) if g < 1.0]
            cases += [(n, root)]
        cases += [(n, 1.0 - 1e-5), (n, 1.0 - 3e-4)]
    for n, gamma in cases:
        assert choose_degree(n, float(gamma)) == _choose_degree_loop(n, float(gamma)), (n, gamma)


def test_choose_degree_validation():
    with pytest.raises(ParameterError):
        choose_degree(10, 1.0)
    with pytest.raises(ParameterError):
        choose_degree(10, 0.0)


def test_perturbation_zero_residual():
    ds, gamma = _fixture(20, 10)
    v = perturbation_vector(ds, np.zeros(20), ds.points @ np.ones(10), 4, gamma)
    assert np.array_equal(v, np.zeros(10))


def test_perturbation_single_point():
    # one point e_1, residual 1, m=2: v = (w_1 / gamma) e_1
    ds = Dataset(np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))
    w = np.array([0.7, -2.0, 1.1])
    v = perturbation_vector(ds, ds.labels, ds.points @ w, 2, 0.3)
    assert np.allclose(v, [0.7 / 0.3, 0.0, 0.0])


def test_perturbation_matches_naive_loop():
    ds, gamma = _fixture(30, 12, 4)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(30)
    w = rng.standard_normal(12)
    m = 5
    v = perturbation_vector(ds, r, ds.points @ w, m, gamma)
    naive = np.zeros(12)
    for i in range(30):
        naive += r[i] * float(hermite_eval(m - 1, float(ds.points[i] @ w))) * ds.points[i]
    naive /= math.sqrt(30 * gamma * gamma)
    assert np.max(np.abs(v - naive)) < 1e-12


def test_perturbation_batch_rows_match_single_calls():
    ds, gamma = _fixture(30, 12, 4)
    rng = np.random.default_rng(5)
    r = rng.standard_normal(30)
    W = rng.standard_normal((7, 12))
    V = perturbation_vector(ds, r, W @ ds.points.T, 5, gamma)
    assert V.shape == (7, 12)
    for w, v in zip(W, V):
        single = perturbation_vector(ds, r, ds.points @ w, 5, gamma)
        assert np.max(np.abs(v - single)) <= 1e-14 * np.max(np.abs(single))


# -- Hermite Gram -------------------------------------------------------------

def test_hermite_gram_diagonal():
    ds, _ = _fixture(25, 40, 1)
    H = hermite_gram(ds, 6)
    assert np.max(np.abs(np.diag(H) - 1.0)) < 1e-9


def test_hermite_gram_lower_bound_on_sphere():
    ds = sample_sphere(50, 100, 0)
    gamma = genericity(ds).gamma_clamped(50)
    m = choose_degree(50, gamma)
    assert 50 * gamma ** m <= 0.5
    H = hermite_gram(ds, m)
    assert float(np.linalg.eigvalsh(H)[0]) >= 0.5
    # diagonal dominance under the same hypothesis
    off = np.abs(H) - np.diag(np.diag(np.abs(H)))
    assert np.min(1.0 - 2.0 * off.sum(axis=1)) >= 0.0


def test_hermite_gram_matches_monte_carlo():
    """E_w[H_{m-1}(w.x) H_{m-1}(w.x')] (x.x') equals (x.x')^m for unit vectors."""
    ds = sample_sphere(2, 6, 3)
    m = 4
    H = hermite_gram(ds, m)
    rng = np.random.default_rng(0)
    N = 1000000
    W = rng.standard_normal((N, 6))
    a = np.real(hermite_eval(m - 1, W @ ds.points[0]))
    b = np.real(hermite_eval(m - 1, W @ ds.points[1]))
    prods = a * b * float(ds.points[0] @ ds.points[1])
    se = float(np.std(prods)) / math.sqrt(N)
    assert abs(float(np.mean(prods)) - H[0, 1]) <= 3 * se


# -- phase averaging ----------------------------------------------------------

def test_phase_averaging_exact_roots_of_unity():
    """Averaging a^{-1} phi((w + a v).x) over K >= m+2 equally spaced phases
    keeps only the first Taylor order phi'(w.x)(v.x)."""
    rng = np.random.default_rng(5)
    for m in (3, 6, 9):
        w, v, x = rng.standard_normal((3, 8))
        x /= np.linalg.norm(x)
        K = m + 2
        phases = np.exp(2j * math.pi * np.arange(K) / K)
        vals = np.conj(phases) * hermite_eval(m, (w @ x) + phases * (v @ x)) / math.sqrt(m)
        avg = complex(np.mean(vals))
        target = float(np.real(hermite_eval(m - 1, w @ x))) * (v @ x)
        assert abs(avg - target) <= 1e-10 * max(1.0, abs(target))


def test_phase_averaging_uniform_random_phases():
    rng = np.random.default_rng(7)
    m = 5
    w, v, x = rng.standard_normal((3, 10))
    x /= np.linalg.norm(x)
    # stratified uniform phases: one uniform draw per cell of a 1e4 grid
    theta = 2 * math.pi * (np.arange(10000) + rng.uniform(size=10000)) / 10000
    a = np.exp(1j * theta)
    vals = np.conj(a) * hermite_eval(m, (w @ x) + a * (v @ x)) / math.sqrt(m)
    target = float(np.real(hermite_eval(m - 1, w @ x))) * (v @ x)
    assert abs(complex(np.mean(vals)) - target) <= 1e-3 * max(1.0, abs(target))


# -- complex neuron sampler ---------------------------------------------------

def test_complex_neuron_unit_modulus_enforced():
    with pytest.raises(ParameterError):
        ComplexNeuron(np.zeros(3), np.zeros(3), 2.0 + 0.0j)


def test_mean_correlation_closed_form_floor():
    """E over (w, a) of F equals r^T (X X^T)^{o m} r / sqrt(n g^2), which the
    Gram lower bound pins above ||r||^2 / (2 sqrt(n g^2))."""
    ds, gamma = _fixture()
    m = choose_degree(ds.n, gamma)
    assert ds.n * gamma ** m <= 0.5
    r = ds.labels
    mean_F = float(r @ hermite_gram(ds, m) @ r) / math.sqrt(ds.n * gamma ** 2)
    target = float(r @ r) / (2.0 * math.sqrt(ds.n * gamma ** 2))
    assert mean_F >= target


def test_mean_correlation_monte_carlo_consistent():
    """Phase-averaged estimator of E F over 500 weight draws: the one-sided
    95% upper confidence limit must not refute the closed-form mean.

    The raw statistic is heavy-tailed (degree-m powers of rare large
    projections), so the test is formulated as 'not refuted' rather than a
    two-sided match.
    """
    ds, gamma = _fixture()
    m = choose_degree(ds.n, gamma)
    r = ds.labels
    scale = math.sqrt(ds.n * gamma ** 2)
    rng = np.random.default_rng(0)
    draws = 500
    W = rng.standard_normal((draws, ds.d))
    H = np.real(hermite_eval(m - 1, W @ ds.points.T))
    V = ((H * r) @ ds.points) / scale
    # exact phase average: F_w = sum_i r_i H_{m-1}(w.x_i) (v(w).x_i)
    F = ((H * r) * (V @ ds.points.T)).sum(axis=1)
    mean, se = float(np.mean(F)), float(np.std(F)) / math.sqrt(draws)
    target = float(r @ r) / (2.0 * scale)
    assert mean + 1.645 * se >= target


def test_squared_norm_mean_within_calibrated_cap():
    """E ||g||^2 of the complex neuron stays below var_c n, var_c = 1e9 as
    calibrated on the reference fixture (see README)."""
    var_c = 1.0e9
    ds, gamma = _fixture()
    m = choose_degree(ds.n, gamma)
    r = ds.labels
    rng = np.random.default_rng(1)
    draws = 200
    totals = []
    for _ in range(draws):
        w = rng.standard_normal(ds.d)
        theta = rng.uniform(0, 2 * math.pi)
        v = perturbation_vector(ds, r, ds.points @ w, m, gamma)
        a = complex(math.cos(theta), math.sin(theta))
        # the complex neuron Re(z * phi((w~ + i w~') . x)), z = 1/a
        t = ds.points @ (w + a.real * v) + 1j * (ds.points @ (a.imag * v))
        g = np.real(1.0 / a * hermite_eval(m, t)) / math.sqrt(m)
        totals.append(float(g @ g))
    assert float(np.mean(totals)) <= var_c * ds.n


def test_sampler_reaches_floor_and_is_deterministic():
    ds, gamma = _fixture()
    m = choose_degree(ds.n, gamma)
    cn, corr = sample_complex_neuron(ds, ds.labels, m, seed=3, gamma=gamma)
    floor = ds.n / (2.0 * CONSTANTS["corr_c"] * math.sqrt(ds.n * gamma ** 2))
    assert corr >= floor
    cutoff = projection_cutoff(ds.n, m)
    assert np.max(np.abs(ds.points @ cn.w_re)) <= cutoff
    assert np.max(np.abs(ds.points @ cn.w_im)) <= cutoff
    cn2, corr2 = sample_complex_neuron(ds, ds.labels, m, seed=3, gamma=gamma)
    assert corr == corr2 and np.array_equal(cn.w_re, cn2.w_re)


def test_sampler_cutoff_reads_both_parts(monkeypatch):
    """A candidate is eligible only when the real and the imaginary parts of
    its projections lie within the cutoff; a 10x perturbation makes the
    imaginary parts large enough to matter."""
    ds, gamma = _fixture()
    m = choose_degree(ds.n, gamma)
    real_vector = harmonic.perturbation_vector
    monkeypatch.setattr(harmonic, "perturbation_vector", lambda *a: 10.0 * real_vector(*a))
    monkeypatch.setattr(harmonic, "projection_cutoff", lambda n, m: 4.0)
    for seed in range(10):
        cn, _ = sample_complex_neuron(ds, ds.labels, m, seed, gamma)
        assert np.max(np.abs(ds.points @ cn.w_re)) <= 4.0 * (1 + 1e-12)
        assert np.max(np.abs(ds.points @ cn.w_im)) <= 4.0 * (1 + 1e-12)


def test_sampler_failure_is_a_retry(monkeypatch):
    """A pool below the correlation floor raises SamplerFailureError (the
    benchmark counts those spans), and the step hands the driver None."""
    ds, gamma = _fixture(40, 20, 2)
    m = choose_degree(ds.n, gamma)
    monkeypatch.setitem(CONSTANTS, "corr_c", 1e-12)
    with pytest.raises(SamplerFailureError, match="correlation floor"):
        sample_complex_neuron(ds, ds.labels, m, seed=0, gamma=gamma)
    assert single_neuron_step(ds, ds.labels, 0, m, gamma) is None


def test_sampler_rejects_untrimmed_residual():
    ds, gamma = _fixture(50, 25, 1)
    m = choose_degree(ds.n, gamma)
    bad = np.zeros(50)
    bad[0] = 2.0 * math.sqrt(50) * gamma  # r_0^2 > n gamma^2
    with pytest.raises(ParameterError):
        sample_complex_neuron(ds, bad, m, 0, gamma)
    with pytest.raises(ParameterError):
        sample_complex_neuron(ds, np.full(50, 1.5), m, 0, gamma)


# -- directional decomposition ------------------------------------------------

def test_decompose_degree_one_symbolic():
    # Re(z(x+iy)) = Re(z) x - Im(z) y = (Re z + Im z) x - Im(z) (x + y)
    for theta in (0.0, 0.9, 2.4):
        z = complex(math.cos(theta), math.sin(theta))
        dd = decompose_directions(z, 1)
        p0, p1 = dd.polys  # the common factor is 1 at m = 1
        assert p0[1] == pytest.approx(z.real + z.imag, abs=1e-12)
        assert p1[1] == pytest.approx(-z.imag, abs=1e-12)
        assert p0[0] == p1[0] == 0.0


def test_decompose_degree_two_reconstruction():
    dd = decompose_directions(1.0 + 0.0j, 2)
    rng = np.random.default_rng(0)
    x, y = rng.uniform(-3, 3, size=(2, 50))
    target = np.real(hermite_eval(2, x + 1j * y)) / math.sqrt(2)
    assert np.max(np.abs(directional_sum(dd, x, y) - target)) < 1e-12


def test_decompose_any_degree_reconstruction():
    rng = np.random.default_rng(1)
    for m in (3, 5, 8, 10):
        theta = rng.uniform(0, 2 * math.pi)
        z = complex(math.cos(theta), math.sin(theta))
        dd = decompose_directions(z, m)
        x, y = rng.uniform(-1, 1, size=(2, 50))
        target = np.real(z * hermite_eval(m, x + 1j * y)) / math.sqrt(m)
        scale = max(1.0, float(np.max(np.abs(target))))
        assert np.max(np.abs(directional_sum(dd, x, y) - target)) / scale < 1e-8


def _vandermonde_fraction(k: int, targets: list[int]) -> list[Fraction]:
    """Exact Gauss-Jordan solve of sum_j c_j j^s = targets[s], s = 0..k."""
    rows = [[Fraction(j ** s) for j in range(k + 1)] + [Fraction(targets[s])]
            for s in range(k + 1)]
    for col in range(k + 1):
        piv = next(i for i in range(col, k + 1) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(k + 1):
            if i != col and rows[i][col] != 0:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[col])]
    return [row[k + 1] for row in rows]


def _exact_decomp_basis(m: int) -> tuple[list, list]:
    """Exact per-degree bases of He_m for z = 1 and z = i: p[j][k] = c_k x_j
    with x the Vandermonde solution for the targets Re(z i^s)."""
    he = he_coeffs(m)
    out = []
    for re_z_i_pow in ((1, 0, -1, 0), (0, -1, 0, 1)):
        polys = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
        for k, ck in enumerate(he):
            sol = _vandermonde_fraction(k, [re_z_i_pow[s % 4] for s in range(k + 1)])
            for j in range(k + 1):
                polys[j][k] = ck * sol[j]
        out.append(polys)
    return out[0], out[1]


def test_decompose_float_matches_exact_recombination():
    """The closed-form basis is the correctly rounded exact Vandermonde
    solution, and the float combination for z stays within 1e-14 of the
    exact Fraction combination Re(z) p_re + Im(z) p_im."""
    rng = np.random.default_rng(2)
    for m in range(1, 21):
        polys_re, polys_im = _exact_decomp_basis(m)
        basis_re, basis_im, _ = _decomp_basis(m)
        assert np.array_equal(basis_re, np.array(polys_re, dtype=np.float64))
        assert np.array_equal(basis_im, np.array(polys_im, dtype=np.float64))
        for theta in rng.uniform(0, 2 * math.pi, size=3):
            z = complex(math.cos(theta), math.sin(theta))
            zr, zi = Fraction(z.real), Fraction(z.imag)
            exact = np.array([[float(zr * a + zi * b) for a, b in zip(pr, pi)]
                              for pr, pi in zip(polys_re, polys_im)])
            got = decompose_directions(z, m).polys
            assert got.shape == (m + 1, m + 1)
            assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_polynomial_evaluations_bit_identical_to_horner():
    """The mass table's (p chi)'' rows are the probe's textbook Horner rows
    times the quadrature weights, bit for bit."""
    for m in range(1, 13):
        _, wts, f2_re, f2_im = mixture_rows(m, 1.5)
        assert np.array_equal(_mixture_basis(m, 1.5)[1], np.vstack([f2_re, f2_im]) * wts)


# -- ReLU mixture -------------------------------------------------------------

def test_mixture_quadratic_reconstruction():
    # Re(phi(t)) = H_2(t) / sqrt(2) = (t^2 - 1) / 2 on the real axis
    dd = decompose_directions(1, 2)
    scale = 1.0 / relu_mixture(dd, 1.0).sum()
    t = np.linspace(-1, 1, 41)
    got = mixture_expectation(dd, 1.0, t, np.zeros_like(t))
    want = (t * t - 1.0) / 2.0 * scale
    assert np.max(np.abs(got - want)) < 1e-3 * max(np.max(np.abs(want)), 1.0)


def test_mixture_linear_reconstruction():
    """A linear p has f'' supported only in the bump transition bands, yet the
    mixture still reconstructs p on [-M, M]."""
    dd = decompose_directions(1, 1)
    scale = 1.0 / relu_mixture(dd, 2.0).sum()
    nodes, quad = mixture_quadrature(dd, 2.0)
    inside = np.abs(nodes) <= 2.0 * (1 + 1e-12)
    assert np.all(np.abs(quad[:, inside]) < 1e-9)
    t = np.linspace(-2, 2, 41)
    got = mixture_expectation(dd, 2.0, t, np.zeros_like(t))
    assert np.max(np.abs(got - t * scale)) < 1e-3 * 2.0 * scale


def test_mixture_full_pipeline_degree_three():
    dd = decompose_directions(1.0 + 0.0j, 3)
    M = 5.0
    scale = 1.0 / relu_mixture(dd, M).sum()
    rng = np.random.default_rng(0)
    pts = []
    while len(pts) < 20:
        x, y = rng.uniform(-1.5, 1.5, size=2)
        if 3 * (abs(x) + abs(y)) <= M:
            pts.append((x, y))
    x, y = np.array(pts).T
    target = np.real(hermite_eval(3, x + 1j * y)) / math.sqrt(3) * scale
    got = mixture_expectation(dd, M, x, y)
    assert np.max(np.abs(got - target) / (1e-12 + np.max(np.abs(target)))) < 2e-3


def test_mixture_probabilities_and_support():
    dd = decompose_directions(complex(math.cos(1.0), math.sin(1.0)), 4)
    M = 3.0
    masses = relu_mixture(dd, M)
    assert masses.shape == (5,)
    assert float((masses / masses.sum()).sum()) == pytest.approx(1.0, abs=1e-12)
    nodes, quad = mixture_quadrature(dd, M)
    assert np.max(np.abs(nodes)) <= 2.0 * M
    for j in range(5):
        assert float((np.abs(quad[j]) / masses[j]).sum()) == pytest.approx(1.0, abs=1e-6)
        nz = np.sign(quad[j][quad[j] != 0.0])
        assert set(np.unique(nz)) <= {-1.0, 1.0}


@pytest.mark.parametrize("m", [1, 2, 3, 9, 12])
def test_mass_table_matches_direct_sum(m):
    """The half-period table agrees with the direct sum over the quadrature
    nodes within 1e-10 relative: on the axes, on a breakpoint, on Re z < 0
    (the fold) and at 200 random z."""
    M = 2.0 * m * projection_cutoff(100, m)
    _, wts, f2_re, f2_im = mixture_rows(m, M)
    # a breakpoint: the z orthogonal to the heaviest node's (A, B) in row 0
    A, B = f2_re[0] * wts, f2_im[0] * wts
    k = int(np.argmax(np.hypot(A, B)))
    on_break = complex(abs(B[k]), -math.copysign(1.0, B[k]) * A[k]) / math.hypot(A[k], B[k])
    rng = np.random.default_rng(m)
    zs = [1.0 + 0.0j, -1.0 + 0.0j, 1j, -1j, on_break, -on_break,
          complex(math.cos(2.5), math.sin(2.5))]
    zs += list(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=200)))
    for z in zs:
        dd = decompose_directions(complex(z), m)
        got, want = relu_mixture(dd, M), direct_masses(dd, M)
        assert np.all(np.abs(got - want) <= 1e-10 * want), z


def test_mass_table_degree_one_builds_without_warnings(monkeypatch):
    """At m = 1, f'' vanishes on [-M, M], so A = B = 0 there: the grid and
    the masses must come out without a division by zero or a NaN."""
    monkeypatch.setattr(harmonic, "_mixture_basis_cache", {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        AB = _mixture_basis(1, 2.0)[1]
        masses = relu_mixture(decompose_directions(1j, 1), 2.0)
    assert np.all(np.isfinite(AB))
    assert np.all(masses > 0.0)


def test_mass_table_zero_row_raises(monkeypatch):
    m, M = 4, 3.0
    panels, AB = _mixture_basis(m, M)
    dd = decompose_directions(complex(math.cos(1.0), math.sin(1.0)), m)
    assert np.any(dd.polys[2] != 0.0)  # so direction 2 needs a positive mass
    AB = AB.copy()
    AB[[2, m + 1 + 2]] = 0.0  # row 2 of A and of B
    monkeypatch.setitem(harmonic._mixture_basis_cache, (m, round(M, 9)), (panels, AB))
    with pytest.raises(QuadratureResolutionError, match="f_2"):
        relu_mixture(dd, M)


def test_mixture_rejects_bad_radius():
    with pytest.raises(ParameterError):
        relu_mixture(decompose_directions(1, 1), 0.0)


def test_bump_derivatives_match_symbolic_oracle():
    """Closed-form ramp derivatives vs sympy differentiation of
    g = h(s)/(h(s)+h(1-s)), h = exp(-1/s)."""
    import sympy

    from memnet.harmonic import _ramp

    s = sympy.Symbol("s")
    h = sympy.exp(-1 / s)
    g = h / (h + h.subs(s, 1 - s))
    fns = [sympy.lambdify(s, sympy.simplify(sympy.diff(g, s, k)), "numpy")
           for k in range(3)]
    pts = np.linspace(0.02, 0.98, 193)
    got = _ramp(pts)
    for k in range(3):
        want = np.asarray(fns[k](pts), dtype=np.float64)
        scale = 1.0 + np.max(np.abs(want))
        assert np.max(np.abs(got[k] - want)) / scale < 1e-9


def test_bump_eval_flat_and_support():

    t = np.array([-3.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.5])
    chi, d1, d2 = bump_eval(t, 1.0)
    assert np.array_equal(chi[[0, 6]], [0.0, 0.0])
    assert np.array_equal(chi[[1, 2, 3, 4]], [1.0, 1.0, 1.0, 1.0])
    assert 0.0 < chi[5] < 1.0
    # derivatives vanish off the transition bands
    assert np.all(d1[[0, 1, 2, 3, 4, 6]] == 0.0)
    assert d1[5] < 0.0  # decreasing on the right ramp
    # finite-difference spot check at an asymmetric transition point
    p = np.array([1.3])
    fd1 = float((bump_eval(p + 1e-6, 1.0)[0] - bump_eval(p - 1e-6, 1.0)[0])[0] / 2e-6)
    fd2 = float((bump_eval(p + 1e-5, 1.0)[1] - bump_eval(p - 1e-5, 1.0)[1])[0] / 2e-5)
    assert float(bump_eval(p, 1.0)[1][0]) == pytest.approx(fd1, rel=1e-4)
    assert float(bump_eval(p, 1.0)[2][0]) == pytest.approx(fd2, rel=1e-3)


# -- single-neuron step and the fit -------------------------------------------

def _step_parts(ds, m, gamma, seed):
    """The step of ``seed`` with what it was built from: the complex neuron
    and its correlation (the sampler is deterministic in the seed), the
    mixture mean correlation, and the bias bound M."""
    step = single_neuron_step(ds, ds.labels, seed, m, gamma)
    cn, corr_g = sample_complex_neuron(ds, ds.labels, m, seed, gamma)
    M = 2.0 * m * projection_cutoff(ds.n, m)
    return step, cn, corr_g / relu_mixture(decompose_directions(cn.z, m), M).sum(), M


def test_single_neuron_step_guarantees():
    ds, gamma = _fixture()
    m = choose_degree(ds.n, gamma)
    step, cn, mean_corr, M = _step_parts(ds, m, gamma, 0)
    (neuron,) = step.neurons
    assert any(np.array_equal(neuron.w, cn.w_re + j * cn.w_im) for j in range(m + 1))
    f = step.values
    assert float(ds.labels @ f) >= mean_corr * (1 - 1e-9)
    assert float(f @ f) <= 10.0 * m * M ** 2 * ds.n
    # construction-level weight bounds
    assert abs(neuron.b) <= 2.0 * M
    cap = m * (np.linalg.norm(cn.w_re) + np.linalg.norm(cn.w_im))
    assert np.linalg.norm(neuron.w) <= cap * (1 + 1e-12)


def _dense_correlations(p, r, biases):
    return np.maximum(p[:, None] - biases[None, :], 0.0).T @ r


def _dense_max(P, r, M):
    """max over columns of |sum_i r_i relu(p_i - b)| on 10^4 biases in
    [-2M, 2M] plus every projection."""
    return max(np.max(np.abs(_dense_correlations(
        p, r, np.concatenate([np.linspace(-2.0 * M, 2.0 * M, 10_000), p]))))
        for p in P.T)


_ARGMAX_CASES = ("random", "repeated", "signs")


@pytest.mark.parametrize("case", _ARGMAX_CASES)
def test_breakpoint_argmax_matches_dense(case):
    rng = np.random.default_rng(_ARGMAX_CASES.index(case))
    n, cols, M = 200, 6, 20.0
    if case == "repeated":
        P = rng.integers(-4, 5, size=(n, cols)) / 3.0
    else:
        P = rng.uniform(-M, M, size=(n, cols))
    # +-1 residuals summing to zero make the suffix sums vanish exactly
    r = rng.permutation(np.repeat([1.0, -1.0], n // 2)) if case == "signs" \
        else rng.standard_normal(n)
    j, bias, corr = _breakpoint_argmax(P, r, M)
    want = _dense_max(P, r, M)
    assert abs(corr) >= want * (1.0 - 1e-12)
    assert abs(corr) <= want * (1.0 + 1e-12)
    assert bias == -2.0 * M or bias in P[:, j]
    got = _dense_correlations(P[:, j], r, np.array([bias]))[0]
    assert abs(got - corr) <= 1e-12 * want


def test_breakpoint_argmax_ties():
    # suffix sums of r vanish below p = 0, so |corr| = 2 on all of [-2M, 0]
    p = np.array([0.0, 1.0, 2.0, 3.0])
    r = np.array([1.0, -1.0, 1.0, -1.0])
    M = 5.0
    assert _breakpoint_argmax(p[:, None], r, M) == (0, -2.0 * M, -2.0)
    # |corr| = 1 at both interior breakpoints b = 1 and b = 2, 0 below b = 0
    r2 = np.array([1.0, -1.0, -1.0, 1.0])
    assert _breakpoint_argmax(p[:, None], r2, M) == (0, 1.0, 1.0)
    # the second direction reaches the same |corr| = 1 at smaller biases
    # (-2M and 0): the direction order decides before the bias order
    P = np.column_stack([p, [1.0, 0.0, 0.0, 0.0]])
    assert _breakpoint_argmax(P[:, ::-1], r2, M) == (0, -2.0 * M, 1.0)
    assert _breakpoint_argmax(P, r2, M) == (0, 1.0, 1.0)
    # all three directions reach |corr| = 2 at -2M: the first one wins
    P = np.column_stack([p - 1.0, p, p])
    assert _breakpoint_argmax(P, r, M) == (0, -2.0 * M, -2.0)
    # a stronger later direction beats the first; of two equal ones, the first wins
    P = np.column_stack([p, 2.0 * p, 2.0 * p])
    assert _breakpoint_argmax(P, r, M) == (1, -2.0 * M, -4.0)
    # a zero residual ties everywhere at 0: first direction, smallest bias
    assert _breakpoint_argmax(P, np.zeros(4), M) == (0, -2.0 * M, 0.0)


def _old_grid_score(ds, r, cn, M, m):
    """The argmax over the former per-direction bias grid: 512 quantiles of
    |f_j''| plus a 128-point cover of the projection range."""
    dd = decompose_directions(cn.z, m)
    nodes, quad = mixture_quadrature(dd, M)
    q = (np.arange(512) + 0.5) / 512
    best = 0.0
    for j in range(m + 1):
        proj = ds.points @ (cn.w_re + j * cn.w_im)
        grids = []
        if dd.polys[j].any():
            cdf = np.cumsum(np.abs(quad[j]))
            grids.append(nodes[np.searchsorted(cdf / cdf[-1], q)])
        span = max(np.max(np.abs(proj)), 1e-6)
        grids.append(np.linspace(-1.5 * span, 1.5 * span, 128))
        biases = np.unique(np.concatenate(grids))
        best = max(best, float(np.max(np.abs(_dense_correlations(proj, r, biases)))))
    return best


def test_step_dominates_old_bias_grid():
    ds, gamma = _fixture()
    m = choose_degree(ds.n, gamma)
    for seed in range(4):
        step, cn, mean_corr, M = _step_parts(ds, m, gamma, seed)
        corr = float(ds.labels @ step.values)
        assert corr >= _old_grid_score(ds, ds.labels, cn, M, m) * (1 - 1e-12)
        assert corr >= mean_corr


def test_step_calls_traced_names(monkeypatch):
    """bench/tracing.py times layers through the ``harmonic`` module's
    names.  One step calls ``hermite_eval`` once (H_{m-1} in
    ``perturbation_vector``), scores the pool with one ``he_eval`` and calls
    neither mixture name; one fit calls ``decompose_directions`` and
    ``relu_mixture`` once each, before its first step."""
    ds, gamma = _fixture()
    m = choose_degree(ds.n, gamma)
    calls = dict.fromkeys(("decompose_directions", "relu_mixture", "hermite_eval",
                           "he_eval"), 0)
    for name in calls:
        def spy(*args, _name=name, _real=getattr(harmonic, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(harmonic, name, spy)
    single_neuron_step(ds, ds.labels, 0, m, gamma)
    assert calls == {"decompose_directions": 0, "relu_mixture": 0, "hermite_eval": 1,
                     "he_eval": 1}
    calls.update(dict.fromkeys(calls, 0))
    res = harmonic_fit(rademacher_labels(sample_sphere(40, 80, 0), 1), epsilon=0.3, seed=0)
    assert res.network.k > 1
    assert calls["decompose_directions"] == calls["relu_mixture"] == 1


def test_every_step_dominates_the_mixture_mean(monkeypatch):
    """The paper's lemma, on every step of one acceptance fit (criterion 8,
    seed 0): the breakpoint argmax |corr| is at least the mixture mean
    corr_g / sum_j int |f_j''| of the sampler's complex neuron, to 1e-9
    relative.  The fit itself builds the mixture once, before its first step."""
    picks, argmaxes = [], []

    def sampler(ds, residual, m, seed, gamma, _real=harmonic.sample_complex_neuron):
        cn, corr_g = _real(ds, residual, m, seed, gamma)
        picks.append((cn.z, corr_g, m))
        return cn, corr_g

    def argmax(P, r, M, _real=harmonic._breakpoint_argmax):
        j, bias, corr = _real(P, r, M)
        argmaxes.append((corr, M))
        return j, bias, corr

    monkeypatch.setattr(harmonic, "sample_complex_neuron", sampler)
    monkeypatch.setattr(harmonic, "_breakpoint_argmax", argmax)
    res = harmonic_fit(rademacher_labels(sample_sphere(200, 100, 0), 201), epsilon=0.25,
                       seed=0)
    assert len(picks) == len(argmaxes) >= res.network.k > 0
    for (z, corr_g, m), (corr, M) in zip(picks, argmaxes):
        mean_corr = corr_g / relu_mixture(decompose_directions(z, m), M).sum()
        assert abs(corr) >= mean_corr * (1.0 - 1e-9)


def _he_by_normalized_recurrence(m, z):
    return hermite_textbook(m, z) * math.sqrt(math.factorial(m))


@pytest.mark.parametrize("n, d", [(60, 80), (100, 20)])
def test_fit_identical_with_normalized_recurrence(monkeypatch, n, d):
    """The sampler scores its pool through the unnormalized He_m and scales
    the 64 scores; the fit reads the scores only through the argmax and the
    floor test, so scoring through the normalized one-step recurrence builds
    the same network and trace (m = 8 and 20), picks the same complex neuron
    bit for bit and a correlation within 1e-12."""
    ds = rademacher_labels(sample_sphere(n, d, 0), 1)
    gamma = genericity(ds).gamma_clamped(ds.n)
    m = choose_degree(ds.n, gamma)
    fast = harmonic_fit(ds, epsilon=0.3, seed=0)
    picks = [sample_complex_neuron(ds, ds.labels, m, seed, gamma) for seed in range(10)]
    monkeypatch.setattr(harmonic, "he_eval", _he_by_normalized_recurrence)
    reference = harmonic_fit(ds, epsilon=0.3, seed=0)
    assert fast.network.to_json() == reference.network.to_json()
    assert fast.trace.iterations == reference.trace.iterations
    for seed, (cn, corr) in enumerate(picks):
        ref_cn, ref_corr = sample_complex_neuron(ds, ds.labels, m, seed, gamma)
        assert np.array_equal(cn.w_re, ref_cn.w_re) and np.array_equal(cn.w_im, ref_cn.w_im)
        assert cn.z == ref_cn.z
        assert abs(corr - ref_corr) <= 1e-12 * abs(ref_corr)
        # the correlation is r . g of the chosen neuron, normalization included
        g = np.real(cn.z * hermite_eval(m, ds.points @ cn.w_re + 1j * (ds.points @ cn.w_im)))
        assert abs(corr - float(g @ ds.labels) / math.sqrt(m)) <= 1e-10 * abs(corr)


@pytest.mark.parametrize("n, d", [(60, 80), (100, 20)])
def test_fit_stable_under_textbook_perturbation_recurrence(monkeypatch, n, d):
    """v(w) through the normalized one-step recurrence moves by a few ulps
    only (m = 8 and 20): the fit keeps k and the per-step neurons added and
    active-set sizes; every neuron's (w, b) agrees within 1e-12 relative,
    and the outer weights within 1e-12 of W(f) in its own norm
    sum_l |a_l - a'_l| ||(w_l, b_l)|| (a tiny line-search step a moves by
    more, relative to itself)."""
    ds = rademacher_labels(sample_sphere(n, d, 0), 1)
    fast = harmonic_fit(ds, epsilon=0.3, seed=0)
    monkeypatch.setattr(harmonic, "hermite_eval", hermite_textbook)
    reference = harmonic_fit(ds, epsilon=0.3, seed=0)
    assert fast.network.k == reference.network.k
    steps = [[(it.neurons_added, it.active_set_size) for it in res.trace.iterations]
             for res in (fast, reference)]
    assert steps[0] == steps[1]
    outer = 0.0
    for got, want in zip(fast.network.neurons, reference.network.neurons):
        wb, ref = np.append(got.w, got.b), np.append(want.w, want.b)
        assert np.linalg.norm(wb - ref) <= 1e-12 * np.linalg.norm(ref)
        outer += abs(got.a - want.a) * np.linalg.norm(ref)
    assert outer <= 1e-12 * total_weight(reference.network)
    assert total_weight(fast.network) == pytest.approx(total_weight(reference.network),
                                                       rel=1e-12)


def test_harmonic_fit_active_set_guarantee_raises_invariant_error(monkeypatch):
    ds = rademacher_labels(sample_sphere(40, 80, 0), 1)
    real_boost_fit = harmonic.boost_fit

    def too_small_mask(*args, **kwargs):
        # the driver's residual check keeps real fits above the guarantee, so
        # only a broken driver can hand back a mask below it
        net, trace, active = real_boost_fit(*args, **kwargs)
        return net, trace, np.zeros_like(active)

    monkeypatch.setattr(harmonic, "boost_fit", too_small_mask)
    with pytest.raises(InvariantError, match="active set"):
        harmonic_fit(ds, epsilon=0.3, seed=0)


def test_harmonic_fit_small_instance():
    ds = rademacher_labels(sample_sphere(40, 80, 0), 1)
    res = harmonic_fit(ds, epsilon=0.3, seed=0)
    net, trace, A = res.network, res.trace, res.active_set
    assert trace.final_error_ratio <= 0.3
    # residual on the active set matches the reported ratio
    r = evaluate(net, ds) - ds.labels
    r_A = r[A]
    assert float(r_A @ r_A) <= 0.3 * float(ds.labels @ ds.labels) * (1 + 1e-9)
    assert len(A) >= ds.n - math.ceil(1.0 / res.gamma ** 2)
    # trimmed residual and active-set size are non-increasing
    seq = [rec.residual_sq for rec in trace.iterations]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(seq, seq[1:]))
    sizes = [rec.active_set_size for rec in trace.iterations]
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    assert res.m == choose_degree(ds.n, res.gamma)
    assert net.k == len(trace.iterations)


def test_harmonic_fit_on_rows_past_the_largest_power_of_two():
    """Rows of norm 1.5e308, past 2^1023.5: the frame's exponent is the
    integer 1024, so the rows enter the fit at norm near 0.83 (a frame capped
    at 2^1023 left them at 1.67, and the sampler stalled at error ratio 0.85)."""
    ds = rademacher_labels(sample_sphere(30, 10, 0), 1)
    res = harmonic_fit(Dataset(1.5e308 * ds.points, ds.labels), epsilon=0.3)
    assert res.trace.final_error_ratio <= 0.3


def test_harmonic_fit_iteration_cap_raises_with_trace():
    # Gaussian labels: the internal label normalization is not the identity
    ds = gaussian_labels(sample_sphere(40, 80, 3), 4)
    with pytest.raises(ConvergenceError, match="iteration cap") as err:
        harmonic_fit(ds, epsilon=0.3, seed=3, max_iters=2)
    trace = err.value.trace
    assert len(trace.iterations) == 2 and trace.final_error_ratio > 0.3
    full = harmonic_fit(ds, epsilon=0.3, seed=3)
    assert trace.notes.pop("stop_reason") == "iteration cap reached"
    assert full.trace.notes.pop("stop_reason") == "epsilon reached"
    assert trace.notes == full.trace.notes
    assert trace.iterations == full.trace.iterations[:2]


@pytest.mark.parametrize("n, cap", [(150, 4000), (300, 6000)])
def test_harmonic_fit_default_cap_grows_with_n(monkeypatch, n, cap):
    """The default iteration cap is max(4000, 20 n)."""
    class Stop(Exception):
        pass

    def spy(*args, max_iters, **kwargs):
        raise Stop(max_iters)

    monkeypatch.setattr(harmonic, "boost_fit", spy)
    with pytest.raises(Stop) as err:
        harmonic_fit(rademacher_labels(sample_sphere(n, 100, 0), 1), epsilon=0.25)
    assert err.value.args == (cap,)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, d, m", [(60, 4, 483), (100, 6, 250), (200, 14, 53)])
def test_harmonic_fit_past_float64_degree_is_degenerate_data(monkeypatch, n, d, m):
    """Near-coherent data needs a degree with no finite float64 mixture: m!
    overflows the decomposition's scale (m = 483, 250) or the polynomials
    overflow on [-2M, 2M] (m = 53).  The fit raises DegenerateDataError
    before its first step, without a numpy warning."""
    ds = rademacher_labels(sample_sphere(n, d, 0), 1)
    monkeypatch.setattr(harmonic, "single_neuron_step", None)  # never reached
    with pytest.raises(DegenerateDataError, match=f"m={m},"):
        harmonic_fit(ds, epsilon=0.3, seed=0)


# First degree whose mixture table overflows float64, by n: a scan of the
# panel-doubling table build over m = 3..200, made before the float-range
# check existed, built every degree below it and overflowed from it to 200.
TABLE_OVERFLOW_FROM = {50: 68, 200: 47, 1000: 39}


def test_float_range_check_matches_table_build(monkeypatch):
    """The check rejects exactly the degrees the table build rejected, for m
    = 3..200 at three n; at each boundary, the table's first level is still
    finite one degree below it and the build overflows at it."""
    for n, first in TABLE_OVERFLOW_FROM.items():
        rejected = [m for m in range(3, 201)
                    if not harmonic._in_float_range(m, 2.0 * m * projection_cutoff(n, m))]
        assert rejected == list(range(first, 201))
    # a small M keeps the leading terms in range: past 170, m! alone rejects
    assert harmonic._in_float_range(170, 1e-3) and not harmonic._in_float_range(171, 1e-3)
    monkeypatch.setattr(harmonic, "_mixture_basis_cache", {})
    monkeypatch.setattr(harmonic, "_in_float_range", lambda m, M: True)
    for n, first in TABLE_OVERFLOW_FROM.items():
        with np.errstate(over="ignore", invalid="ignore"):
            _, wts, f2_re, f2_im = f2_rows(first - 1, 2.0 * (first - 1)
                                           * projection_cutoff(n, first - 1), 64)
            assert np.isfinite(np.vstack([f2_re, f2_im]) * wts).all()
            with pytest.raises(QuadratureResolutionError, match="64-panel"):
                _mixture_basis(first, 2.0 * first * projection_cutoff(n, first))


def test_mass_table_stops_on_non_finite_level(monkeypatch):
    monkeypatch.setattr(harmonic, "_mixture_basis_cache", {})
    M = 2.0 * 48 * projection_cutoff(200, 48)
    with pytest.raises(QuadratureResolutionError, match=r"\[-2M, 2M\]"):
        _mixture_basis(48, M)  # the float-range check, before the first level
    # past that check, the panel loop still stops on the first non-finite level
    monkeypatch.setattr(harmonic, "_in_float_range", lambda m, M: True)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureResolutionError, match="64-panel"):
            _mixture_basis(48, M)
    assert harmonic._mixture_basis_cache == {}


def test_harmonic_fit_one_point_is_degenerate(monkeypatch):
    """At n = 1, log n = 0 zeroes the projection cutoff; the fit names n
    before it builds the degree's mixture table."""
    monkeypatch.setattr(harmonic, "_mixture_basis_cache", {})
    ds = rademacher_labels(sample_sphere(1, 5, 0), 1)
    with pytest.raises(DegenerateDataError, match="n=1"):
        harmonic_fit(ds, epsilon=0.3)
    assert harmonic._mixture_basis_cache == {}


def test_harmonic_fit_zero_labels():
    ds = sample_sphere(10, 20, 0)
    res = harmonic_fit(ds, epsilon=0.5)
    assert res.network.k == 0
    assert len(res.active_set) == 10


def test_harmonic_fit_epsilon_validation():
    ds, _ = _fixture(10, 20, 0)
    with pytest.raises(ParameterError):
        harmonic_fit(ds, epsilon=0.0)
