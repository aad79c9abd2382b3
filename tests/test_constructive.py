import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memnet.cli import sweep_cell
from memnet.constructive import (DerivativeNeuronPair, _hyperplane_through,
                                 baum_relu_fit, baum_threshold_fit,
                                 exact_fit_generic, safe_delta)
from memnet.data import Dataset, gaussian_labels, rademacher_labels, sample_sphere
from memnet.errors import DataError, RankDeficiencyError
from memnet.network import Neuron, TwoLayerNetwork, evaluate, relu
from probes import linearized_values


def _sphere(n, d, seed, labels="gaussian"):
    ds = sample_sphere(n, d, seed)
    maker = gaussian_labels if labels == "gaussian" else rademacher_labels
    return maker(ds, seed + 1)


# -- derivative neurons -------------------------------------------------------

def test_derivative_pair_matches_linearization():
    """The two-ReLU finite difference equals psi'(u.x - b)(v.x) on the data
    when delta is below the safe threshold."""
    rng = np.random.default_rng(0)
    pts = sample_sphere(40, 6, 1).points
    for trial in range(10):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        b = rng.standard_normal() * 0.3
        delta = safe_delta(pts, u, v, b)
        pair = DerivativeNeuronPair(u, v, b, delta)
        assert np.max(np.abs(pair.values(pts) - linearized_values(pair, pts))) < 1e-9


def test_derivative_pair_two_relu_neurons():
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    pair = DerivativeNeuronPair(u, v, 0.5, 0.01)
    n1, n2 = pair.neurons()
    assert n1.a == pytest.approx(100.0) and n2.a == pytest.approx(-100.0)
    pts = np.array([[2.0, 3.0], [-1.0, 1.0]])
    direct = (np.maximum(pts @ (u + 0.01 * v) - 0.5, 0)
              - np.maximum(pts @ u - 0.5, 0)) / 0.01
    assert np.allclose(pair.values(pts), direct)


def test_safe_delta_skips_flat_slopes():
    pts = np.array([[1.0, 0.0]])
    # v orthogonal to the only point: no constraint, fall back to 1
    assert safe_delta(pts, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.3) == 1.0


# -- generic exact fit --------------------------------------------------------

def test_exact_fit_single_point():
    ds = Dataset(np.array([[0.6, 0.8]]), np.array([5.0]))
    net = exact_fit_generic(ds)
    assert net.k == 1
    assert evaluate(net, ds)[0] == pytest.approx(5.0, abs=1e-8)


def test_exact_fit_uses_exactly_n_neurons():
    ds = _sphere(30, 5, 0)
    net = exact_fit_generic(ds)
    assert net.k == 30
    resid = np.linalg.norm(evaluate(net, ds) - ds.labels)
    assert resid <= 1e-8 * np.linalg.norm(ds.labels)


def test_exact_fit_conflicting_duplicate():
    pts = np.array([[1.0, 0.0], [1.0, 0.0]])
    ds = Dataset(pts, np.array([1.0, -1.0]))
    with pytest.raises(RankDeficiencyError):
        exact_fit_generic(ds)


def _exact_fit_scipy_qr(ds, seed, dtype=np.float64):
    """Reference for exact_fit_generic: the same draws, the features as one
    row-major product, ``scipy.linalg.qr(mode="r", pivoting=True)`` on them
    cast to ``dtype`` and a solve on the selected float64 columns."""
    from scipy.linalg import qr
    rng = np.random.default_rng(seed)
    K = 10 * ds.n
    W = rng.standard_normal((K, ds.d))
    b = rng.standard_normal(K)
    A = relu(ds.points @ W.T + b)
    cols = qr(A.astype(dtype), mode="r", pivoting=True)[1][:ds.n]
    a = np.linalg.solve(A[:, cols], ds.labels)
    return TwoLayerNetwork(tuple(Neuron(a[j], W[cols[j]], b[cols[j]])
                                 for j in range(ds.n)))


def _near_duplicate():
    """n=200 sphere points in d=20 whose second point lies 1e-6 from the first."""
    ds = _sphere(200, 20, 3, labels="rademacher")
    u = np.random.default_rng(0).standard_normal(20)
    pts = np.array(ds.points)
    pts[1] = pts[0] + 1e-6 * u / np.linalg.norm(u)
    return Dataset(pts, ds.labels)


REFERENCE_SHAPES = [(37, 5), (120, 10), (100, 20), (200, 20)]


@pytest.mark.parametrize("n, d", [pytest.param(n, d, id=f"{n}-{d}-relu")  # the fit's activation
                                  for n, d in REFERENCE_SHAPES])
def test_exact_fit_matches_scipy_qr_reference(n, d):
    """On these shapes the fit's float32 pivots select the float64
    reference's (w, b) in its order. At d=20 the blocked and the full product also sum each feature in the same
    order, so the networks are equal; on other shapes, such as n=250, d=40,
    the outer coefficients may differ in the last bits."""
    ds = _sphere(n, d, 2, labels="rademacher")
    net = exact_fit_generic(ds, seed=4)
    ref = _exact_fit_scipy_qr(ds, seed=4)
    assert ([(nr.w.tobytes(), nr.b) for nr in net.neurons]
            == [(nr.w.tobytes(), nr.b) for nr in ref.neurons])
    if d == 20:
        assert net.to_json() == ref.to_json()


@pytest.mark.parametrize("n, d", REFERENCE_SHAPES)
def test_exact_fit_matches_single_precision_reference(n, d):
    """The pivots come from the float32 features: the fit selects the
    (w, b) of a float32 ``scipy.linalg.qr`` reference, in its order."""
    ds = _sphere(n, d, 2, labels="rademacher")
    net = exact_fit_generic(ds, seed=4)
    ref = _exact_fit_scipy_qr(ds, seed=4, dtype=np.float32)
    assert ([(nr.w.tobytes(), nr.b) for nr in net.neurons]
            == [(nr.w.tobytes(), nr.b) for nr in ref.neurons])


def test_exact_fit_sphere_fixtures_skip_float64_pass(monkeypatch):
    """Sphere data is far from rank deficient in float32: no fit of these
    fixtures calls dgeqp3."""
    def refuse(*args, **kwargs):
        raise AssertionError("float64 pivoting pass")

    monkeypatch.setattr("scipy.linalg.lapack.dgeqp3", refuse)
    for n, d in REFERENCE_SHAPES:
        assert exact_fit_generic(_sphere(n, d, 2, labels="rademacher"), seed=4).k == n
    assert exact_fit_generic(_sphere(200, 20, 1, labels="rademacher")).k == 200
    assert exact_fit_generic(_sphere(30, 5, 0)).k == 30


def test_exact_fit_near_duplicate_takes_float64_pass(monkeypatch):
    """Two points 1e-6 apart leave the float32 |R_nn| within 100 float32 eps
    of |R_11|: the fit pivots again in float64 and equals the float64
    reference."""
    from scipy.linalg import lapack
    dgeqp3, calls = lapack.dgeqp3, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("lwork"))
        return dgeqp3(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgeqp3", counted)
    ds = _near_duplicate()
    net = exact_fit_generic(ds)
    assert len(calls) == 2                       # workspace query, factorization
    assert net.to_json() == _exact_fit_scipy_qr(ds, seed=0).to_json()


def test_exact_fit_past_single_precision_range_warns_nothing():
    """Points of norm 1e40 give features past float32's range: they are
    stored as inf without numpy's cast warning, fail the float32 rank test,
    and the float64 pass builds the network a run with warnings off builds,
    the float64 reference's."""
    ds = _sphere(30, 5, 0)
    ds = Dataset(ds.points * 1e40, ds.labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = exact_fit_generic(ds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = exact_fit_generic(ds)
    assert net.to_json() == quiet.to_json() == _exact_fit_scipy_qr(ds, seed=0).to_json()


def _traced_peak(ds):
    exact_fit_generic(ds)                 # imports scipy outside the trace
    tracemalloc.start()
    try:
        exact_fit_generic(ds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_fit_holds_one_feature_matrix():
    """Peak traced memory stays within two copies of the float32 n x 10n
    matrix, and within 1.5 copies of the float64 one when the fit pivots
    again in float64: the float32 matrix is freed first."""
    assert _traced_peak(_sphere(200, 20, 1, labels="rademacher")) <= 2 * 4 * 200 * 2000
    assert _traced_peak(_near_duplicate()) <= 1.5 * 8 * 200 * 2000


# -- Baum threshold -----------------------------------------------------------

def test_baum_threshold_two_neurons_for_one_group():
    d = 5
    ds = sample_sphere(2 * d, d, 0)
    y = np.zeros(2 * d)
    y[:d] = 1.0
    ds = ds.with_labels(y)
    net = baum_threshold_fit(ds)
    assert net.k == 2
    assert np.array_equal(evaluate(net, ds), y)


def test_baum_threshold_all_zero():
    ds = sample_sphere(10, 4, 0)
    net = baum_threshold_fit(ds)
    assert net.k == 0
    assert np.array_equal(evaluate(net, ds), np.zeros(10))


def test_baum_threshold_count_bound():
    ds = sample_sphere(100, 10, 2)
    y = np.zeros(100)
    y[np.random.default_rng(0).choice(100, size=30, replace=False)] = 1.0
    ds = ds.with_labels(y)
    net = baum_threshold_fit(ds)
    assert net.k <= 2 * math.ceil(30 / 10)
    assert np.array_equal(evaluate(net, ds), y)


def test_baum_threshold_majority_ones():
    """When label 1 is the majority the construction complements and adds a
    constant neuron."""
    ds = sample_sphere(50, 8, 4)
    y = np.ones(50)
    y[:12] = 0.0
    ds = ds.with_labels(y)
    net = baum_threshold_fit(ds)
    assert net.k <= 2 * math.ceil(12 / 8) + 1
    assert np.array_equal(evaluate(net, ds), y)


def test_baum_threshold_rejects_nonbinary():
    ds = _sphere(10, 4, 0)
    with pytest.raises(DataError):
        baum_threshold_fit(ds)


# -- Baum ReLU ----------------------------------------------------------------

def test_baum_relu_one_group():
    ds = _sphere(6, 6, 1)
    net = baum_relu_fit(ds)
    assert net.k == 4
    assert np.max(np.abs(evaluate(net, ds) - ds.labels)) < 1e-6


def test_baum_relu_count_and_residual():
    ds = _sphere(200, 20, 5)
    net = baum_relu_fit(ds)
    assert net.k <= 4 * math.ceil(200 / 20)
    assert np.max(np.abs(evaluate(net, ds) - ds.labels)) < 1e-6


def test_baum_relu_zero_labels():
    ds = sample_sphere(30, 10, 7)
    net = baum_relu_fit(ds)
    assert np.max(np.abs(evaluate(net, ds))) < 1e-9


def test_baum_relu_many_seeds():
    for seed in range(10):
        ds = _sphere(200, 20, 100 + seed, labels="rademacher")
        net = baum_relu_fit(ds, seed=seed)
        assert net.k == 40
        assert np.max(np.abs(evaluate(net, ds) - ds.labels)) < 1e-6


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 120), d=st.integers(2, 20), seed=st.integers(0, 2 ** 32 - 2))
def test_baum_relu_exact_property(n, d, seed):
    """On sphere points (general position almost surely) with Gaussian labels,
    baum_relu_fit interpolates within 1e-6 with at most 4 ceil(n/d) neurons."""
    ds = _sphere(n, d, seed)
    net = baum_relu_fit(ds, seed=seed)
    assert net.k <= 4 * math.ceil(n / d)
    assert np.max(np.abs(evaluate(net, ds) - ds.labels)) <= 1e-6


def test_hyperplane_through_points():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 5))
    u, b = _hyperplane_through(X)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    assert np.max(np.abs(X @ u - b)) < 1e-9


def test_weight_scaling_table():
    """The sweep cells that acceptance criterion 9 reads its Baum weights from."""
    rows = [sweep_cell("baum-relu", n, 10, seed, None, "rademacher")
            for n in (20, 40) for seed in range(3)]
    assert [(r["n"], r["seed"]) for r in rows] == [(n, s) for n in (20, 40) for s in range(3)]
    assert all(r["max_residual"] < 1e-6 and r["total_weight"] > 0.0 for r in rows)
    # one-group additivity spot check: n=d gives a single 4-neuron group
    assert sweep_cell("baum-relu", 10, 10, 0, None, "rademacher")["k"] == 4
