import math

import numpy as np
import pytest

from memnet import ntk
from memnet.bounds import verify_weight_bound
from memnet.data import Dataset, genericity, rademacher_labels, sample_sphere
from memnet.errors import ConvergenceError, ParameterError
from memnet.hermite import hermite_eval
from memnet.network import FitTrace, TwoLayerNetwork, evaluate, total_weight
from memnet.ntk import ntk_fit, ntk_kd_bound, ntk_step
from probes import (arcsin_gram, gram_lower_bound_check, halfspace_sum, hermite_coefficients,
                    linearized_values)


def _labeled(n, d, seed):
    return rademacher_labels(sample_sphere(n, d, seed), seed + 1)


# -- single step --------------------------------------------------------------

def _u_and_v(step, ds, r):
    """The step's u (its lower neuron's w, an exact copy) and v by the oracle."""
    u = step.neurons[1].w
    return u, halfspace_sum(ds.points, r, u)


def test_step_correlation_is_v_norm_squared():
    """r . f = ||v||^2 where f_i = 1{u.x_i >= 0} (v . x_i)."""
    ds = _labeled(50, 10, 0)
    r = ds.labels
    for seed in range(10):
        step = ntk_step(ds, r, seed)
        _, v = _u_and_v(step, ds, r)
        assert float(r @ step.values) == pytest.approx(float(v @ v), rel=1e-9)


def test_step_two_relu_realization_exact():
    ds = _labeled(30, 8, 2)
    step = ntk_step(ds, ds.labels, 0)
    u, v = _u_and_v(step, ds, ds.labels)
    assert np.max(np.abs(step.values - linearized_values(u, v, 0.0, ds.points))) < 1e-9


def test_step_norm_controlled_by_covariance():
    """||f||^2 <= (n omega / d) ||v||^2 since each f_i is a clipped projection."""
    ds = _labeled(60, 12, 3)
    rep = genericity(ds)
    for seed in range(5):
        step = ntk_step(ds, ds.labels, seed)
        _, v = _u_and_v(step, ds, ds.labels)
        cap = ds.n * rep.omega / ds.d * float(v @ v)
        assert float(step.values @ step.values) <= cap * (1 + 1e-9)


def test_step_zero_residual_rejected():
    ds = sample_sphere(5, 3, 0)
    with pytest.raises(ParameterError):
        ntk_step(ds, np.zeros(5), 0)


def test_step_single_point():
    ds = Dataset(np.array([[1.0, 0.0]]), np.array([2.0]))
    # when the point is active, v = r_1 x_1 and the correlation is r_1^2
    for seed in range(20):
        step = ntk_step(ds, ds.labels, seed)
        if step is not None:
            upper, lower = step.neurons
            assert np.allclose((upper.w - lower.w) * upper.a, 2.0 * ds.points[0])
            assert np.allclose(step.values, [2.0])
            return
    pytest.fail("point never fell in the active halfspace across 20 seeds")


def test_step_and_proposal_match_their_definition(monkeypatch):
    """Row by row, with v_ref = sum of r_i x_i over u . x_i >= 0 and delta_ref
    = (1/2) min |u . x_i| / |v_ref . x_i| over slopes |v_ref . x_i| >= 1e-14:
    the upper neuron has 1/a = delta_ref and w = u + delta_ref v_ref (1e-12
    relative), and every proposal ntk_fit hands boost_fit holds the values
    of its two neurons, ``evaluate`` within 1e-12 of their outputs' scale
    |a| max|u . x| (evaluate sums the two outputs, which cancel to the
    difference)."""
    ds = _labeled(200, 20, 1)
    X, r = ds.points, ds.labels
    for seed in range(10):
        step = ntk_step(ds, r, seed)
        u, v_ref = _u_and_v(step, ds, r)
        rows = [(X[i] @ u, X[i] @ v_ref) for i in range(ds.n)]
        delta_ref = 0.5 * min(abs(m) / abs(s) for m, s in rows if abs(s) >= 1e-14)
        upper = step.neurons[0]
        assert 1.0 / upper.a == pytest.approx(delta_ref, rel=1e-12)
        w_ref = u + delta_ref * v_ref
        assert np.linalg.norm(upper.w - w_ref) <= 1e-12 * np.linalg.norm(w_ref)

    proposals = []
    real_boost_fit = ntk.boost_fit

    def recording_boost_fit(builder, *args, **kwargs):
        def record(residual, attempt_seed):
            proposal = builder(residual, attempt_seed)
            if proposal is not None:
                proposals.append(proposal)
            return proposal
        return real_boost_fit(record, *args, **kwargs)

    monkeypatch.setattr(ntk, "boost_fit", recording_boost_fit)
    ntk_fit(ds, 0.25, seed=0)
    assert len(proposals) > 20
    for proposal in proposals:
        upper, lower = proposal.neurons
        scale = abs(upper.a) * np.max(np.abs(X @ lower.w))
        diff = evaluate(TwoLayerNetwork(tuple(proposal.neurons)), ds) - proposal.values
        assert np.max(np.abs(diff)) <= 1e-12 * scale


def test_step_tie_returns_none_and_boost_fit_draws_again(monkeypatch):
    """Seed 7 draws u = default_rng(7).standard_normal(d); the row (u_1, -u_0, 0, ...)
    has margin exactly 0 under it, so that step is None, and the fit's next attempt
    draws a fresh u and goes on to fit the data."""
    d = 5
    u = np.random.default_rng(7).standard_normal(d)
    row = np.zeros(d)
    row[:2] = u[1], -u[0]
    base = _labeled(30, d, 0)
    ds = Dataset(np.vstack([base.points, row]), np.r_[base.labels, 1.0])
    assert (ds.points @ u)[-1] == 0.0
    assert ntk_step(ds, ds.labels, 7) is None

    steps = []
    real_step = ntk.ntk_step

    def tie_first(ds, residual, seed):
        steps.append(real_step(ds, residual, 7 if not steps else seed))
        return steps[-1]

    monkeypatch.setattr(ntk, "ntk_step", tie_first)
    res = ntk_fit(ds, 0.25, seed=0)
    assert steps[0] is None and steps[1] is not None
    assert len(steps) == len(res.trace.iterations) + 1
    assert res.trace.final_error_ratio <= 0.25


# -- arcsin Gram --------------------------------------------------------------

def test_arcsin_gram_closed_form_entries():
    # aligned point with itself: ||x||^2 (1/4 + (pi/2)/(2 pi)) = ||x||^2 / 2
    pts = np.array([[2.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    H = arcsin_gram(Dataset(pts, np.zeros(3)))
    assert H[0, 0] == pytest.approx(2.0)
    assert H[1, 1] == pytest.approx(0.5)
    # orthogonal pair: inner product 0 kills the entry
    assert H[0, 1] == pytest.approx(0.0)
    # antipodal pair: rho = -1, factor 1/4 - 1/4 = 0
    assert H[0, 2] == pytest.approx(0.0, abs=1e-12)


def test_arcsin_gram_matches_monte_carlo():
    ds = sample_sphere(6, 4, 1)
    H = arcsin_gram(ds)
    rng = np.random.default_rng(0)
    N = 200000
    U = rng.standard_normal((N, 4))
    A = (U @ ds.points.T >= 0.0).astype(float)
    G = ds.points @ ds.points.T
    est = G * (A.T @ A) / N
    se = 1.0 / math.sqrt(N)
    assert np.max(np.abs(est - H)) <= 3 * se


def test_arcsin_gram_positive_semidefinite():
    for seed in range(5):
        ds = sample_sphere(40, 15, seed)
        lam = np.linalg.eigvalsh(arcsin_gram(ds))
        assert lam[0] >= -1e-10


def test_hadamard_powers_preserve_psd():
    """Entrywise odd powers of the correlation matrix stay PSD; these are the
    series terms behind the arcsin lower bound."""
    ds = sample_sphere(30, 10, 4)
    rho = ds.points @ ds.points.T
    for power in (1, 3, 5):
        lam = np.linalg.eigvalsh(rho ** power)
        assert lam[0] >= -1e-10


def test_gram_lower_bound_orthonormal():
    ds = Dataset(np.eye(8), np.zeros(8))
    lam_min, bound = gram_lower_bound_check(ds)
    assert lam_min == pytest.approx(0.5, abs=1e-10)
    assert lam_min >= bound


def test_gram_lower_bound_on_sphere_samples():
    for seed in range(8):
        ds = sample_sphere(80, 30, seed)
        lam_min, bound = gram_lower_bound_check(ds)
        assert lam_min >= bound


# -- size bound and full fit --------------------------------------------------

def test_kd_bound_formula():
    ds = sample_sphere(50, 10, 0)
    rep = genericity(ds)
    got = ntk_kd_bound(50, 0.1, rep)
    g = rep.gamma_clamped(50)
    want = 20.0 * rep.omega * 50 * math.log(10.0) * math.log(100.0) / math.log(1.0 / g)
    assert got == pytest.approx(want, rel=1e-12)


def test_kd_bound_vacuous_gamma():
    pts = np.vstack([np.eye(3), np.eye(3)[0]])
    rep = genericity(Dataset(pts, np.zeros(4)))
    assert ntk_kd_bound(4, 0.1, rep) is None


def test_ntk_fit_orthonormal_points():
    ds = Dataset(np.eye(10), np.arange(10, dtype=float) - 4.5)
    res = ntk_fit(ds, epsilon=0.1, seed=0)
    # convergence target is on the squared residual
    resid = np.linalg.norm(evaluate(res.network, ds) - ds.labels)
    assert resid ** 2 <= 0.1 * float(ds.labels @ ds.labels)


def test_ntk_fit_sphere():
    ds = _labeled(60, 20, 0)
    res = ntk_fit(ds, epsilon=0.25, seed=1)
    net, trace = res.network, res.trace
    resid_sq = float(np.sum((evaluate(net, ds) - ds.labels) ** 2))
    assert resid_sq <= 0.25 * float(ds.labels @ ds.labels)
    assert trace.final_error_ratio <= 0.25
    assert total_weight(net) > 0.0
    assert res.kd_bound > 0.0


def test_ntk_fit_residual_decay_geometric():
    ds = _labeled(40, 15, 2)
    res = ntk_fit(ds, epsilon=0.2, seed=0)
    seq = [rec.residual_sq for rec in res.trace.iterations]
    assert all(b < a for a, b in zip(seq, seq[1:]))
    # median per-step contraction strictly below 1
    ratios = np.array(seq[1:]) / np.array(seq[:-1])
    assert np.median(ratios) < 0.95


def test_ntk_fit_deterministic():
    ds = _labeled(30, 10, 5)
    a = ntk_fit(ds, epsilon=0.3, seed=7)
    b = ntk_fit(ds, epsilon=0.3, seed=7)
    assert a.network.to_json() == b.network.to_json()


def test_ntk_fit_at_the_top_of_the_float_range():
    """Rows of norm 2^1023 (squared norms past float64: a data error once) fit
    in the unit frame.  The hidden weights near 2^-1023 have squares under
    float64's normal numbers, so W is taken with hypot; their squares' sum read
    W = 0, under the floor sqrt(n)/(8 R), a falsification.  8 R itself
    overflows, so the floor divides twice (it read 0 too)."""
    ds = _labeled(30, 10, 0)
    big = Dataset(2.0 ** 1023 * ds.points, ds.labels)
    net = ntk_fit(big, epsilon=0.3).network
    report = verify_weight_bound(big, [("ntk", net)])
    assert 0.0 < report.bound < total_weight(net) and not report.falsified


def test_ntk_fit_iteration_cap_raises_with_trace():
    ds = _labeled(200, 20, 0)
    with pytest.raises(ConvergenceError, match="iteration cap") as err:
        ntk_fit(ds, epsilon=0.25, seed=0, max_iters=3)
    trace = err.value.trace
    assert isinstance(trace, FitTrace) and len(trace.iterations) == 3
    assert trace.final_error_ratio > 0.25
    assert trace.notes["stop_reason"] == "iteration cap reached"


def test_ntk_fit_zero_labels():
    ds = sample_sphere(10, 5, 0)
    res = ntk_fit(ds, epsilon=0.5)
    assert res.network.k == 0


# -- general activations ------------------------------------------------------

def _hermite_tail(ds, coeffs):
    """(l0, sum_{l >= l0} a_l^2): the general-activation size bound
    16 w L n log(1/eps) / tail reads the Hermite tail of psi' from
    l0 = ceil(log(2n) / (2 log(1/gamma)))."""
    gamma = genericity(ds).gamma_clamped(ds.n)
    l0 = math.ceil(math.log(2.0 * ds.n) / (2.0 * math.log(1.0 / gamma)))
    return l0, float(np.sum(coeffs[l0:] ** 2))


def test_general_bound_relu_matches_specialized_tail():
    ds = _labeled(100, 20, 0)
    _, tail = _hermite_tail(ds, hermite_coefficients(lambda t: (t >= 0).astype(float), 30))
    assert 0.0 < tail <= 0.5 + 1e-6


def test_general_bound_pure_high_degree_tail_is_one():
    """An activation derivative equal to H_5 has all its mass above any small
    threshold index, so the tail sum is 1."""
    ds = _labeled(20, 100, 1)
    l0, tail = _hermite_tail(ds, hermite_coefficients(lambda t: hermite_eval(5, t), 12))
    assert l0 <= 5
    assert tail == pytest.approx(1.0, abs=1e-6)


def test_general_bound_mean_correlation_floor():
    """The generalized step v = sum_i psi'(u . x_i) y_i x_i correlates, on
    average over 200 draws of u, at least (1/4) tail ||y||^2."""
    ds = _labeled(80, 30, 3)
    psi_prime = lambda t: (t >= 0).astype(float)
    _, tail = _hermite_tail(ds, hermite_coefficients(psi_prime, 20))
    y = ds.labels
    rng = np.random.default_rng(0)
    corrs = []
    for _ in range(200):
        v = ((y * psi_prime(ds.points @ rng.standard_normal(ds.d)))[:, None]
             * ds.points).sum(axis=0)
        corrs.append(float(v @ v))
    assert float(np.mean(corrs)) >= 0.25 * tail * float(y @ y)
