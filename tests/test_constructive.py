import importlib.machinery
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memnet.cli import main, sweep_cell
from memnet import constructive
from memnet.constructive import (_slabs, baum_relu_fit, baum_threshold_fit,
                                 derivative_neurons, exact_fit_generic, safe_delta)
from memnet.data import (Dataset, gaussian_labels, norm_exponent, rademacher_labels, sample_sphere,
                         save_dataset)
from memnet.errors import DataError, DegenerateDataError, RankDeficiencyError
from memnet.network import Neuron, TwoLayerNetwork, evaluate, relu
from probes import baum_group_neurons, linearized_values, slab_oracle


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
        delta = safe_delta(pts @ u - b, pts @ v)
        values = _values(derivative_neurons(u, v, b, delta), pts)
        assert np.max(np.abs(values - linearized_values(u, v, b, pts))) < 1e-9


def test_derivative_pair_two_relu_neurons():
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    n1, n2 = derivative_neurons(u, v, 0.5, 0.01)
    assert n1.a == pytest.approx(100.0) and n2.a == pytest.approx(-100.0)
    pts = np.array([[2.0, 3.0], [-1.0, 1.0]])
    direct = (np.maximum(pts @ (u + 0.01 * v) - 0.5, 0)
              - np.maximum(pts @ u - 0.5, 0)) / 0.01
    assert np.allclose(_values((n1, n2), pts), direct)


def _values(neurons, pts):
    """The two neurons' summed outputs on the points, by ``evaluate``."""
    return evaluate(TwoLayerNetwork(neurons), Dataset(pts, np.zeros(len(pts))))


def test_safe_delta_skips_flat_slopes():
    pts = np.array([[1.0, 0.0]])
    # v orthogonal to the only point: no constraint, fall back to 1
    assert safe_delta(pts @ np.array([1.0, 0.0]) - 0.3, pts @ np.array([0.0, 1.0])) == 1.0


def test_safe_delta_columns_are_its_one_dimensional_calls():
    """Over an (n, G) stack, column j is the 1-D call on column j, bit for bit,
    a column of flat slopes and one with some slopes skipped included."""
    rng = np.random.default_rng(0)
    margins, slopes = rng.standard_normal((2, 50, 7))
    slopes[:, 3] = 1e-15
    slopes[::4, 1] = 0.0
    deltas = safe_delta(margins, slopes)
    assert deltas[3] == 1.0
    assert deltas.tobytes() == b"".join(safe_delta(margins[:, j], slopes[:, j]).tobytes()
                                        for j in range(7))


def _masked_safe_delta(margins, slopes):
    """``safe_delta`` by a masked divide: the ratio is computed only where the slope
    is not flat, and is inf elsewhere."""
    slopes = np.abs(slopes)
    keep = slopes >= constructive._SLOPE_EPS
    ratio = np.divide(np.abs(margins), slopes, out=np.full(slopes.shape, np.inf), where=keep)
    return np.where(keep.any(axis=0), 0.5 * ratio.min(axis=0), 1.0)


def test_safe_delta_is_the_masked_divide():
    """Dividing everywhere and then setting flat slopes' ratios to inf gives the masked
    divide's bytes: on (n, G) stacks with exactly zero slopes, slopes below 1e-14, zero
    margins (over a flat slope too) and an all-flat column (delta 1), and on 1-D input."""
    rng = np.random.default_rng(3)
    for n, G in ((800, 40), (37, 5), (1, 3)):
        margins, slopes = rng.standard_normal((2, n, G))
        slopes[rng.random((n, G)) < 0.2] = 0.0
        slopes[rng.random((n, G)) < 0.1] = 3e-15
        margins[rng.random((n, G)) < 0.2] = 0.0
        slopes[:, 1] = 0.0
        deltas = safe_delta(margins, slopes)
        assert deltas[1] == 1.0
        assert deltas.tobytes() == _masked_safe_delta(margins, slopes).tobytes()
        for j in range(G):
            assert (safe_delta(margins[:, j], slopes[:, j]).tobytes()
                    == _masked_safe_delta(margins[:, j], slopes[:, j]).tobytes())


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

    monkeypatch.setattr(constructive._lapack(), "dgeqp3", refuse)
    for n, d in REFERENCE_SHAPES:
        assert exact_fit_generic(_sphere(n, d, 2, labels="rademacher"), seed=4).k == n
    assert exact_fit_generic(_sphere(200, 20, 1, labels="rademacher")).k == 200
    assert exact_fit_generic(_sphere(30, 5, 0)).k == 30


def test_exact_fit_near_duplicate_takes_float64_pass(monkeypatch):
    """Two points 1e-6 apart leave the float32 |R_nn| within 100 float32 eps
    of |R_11|: the fit pivots again in float64 and equals the float64
    reference, computed first: scipy's ``qr`` looks its routine up in the
    module that the counter patches."""
    lapack = constructive._lapack()
    dgeqp3, calls = lapack.dgeqp3, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("lwork"))
        return dgeqp3(*args, **kwargs)

    ds = _near_duplicate()
    ref = _exact_fit_scipy_qr(ds, seed=0)
    monkeypatch.setattr(lapack, "dgeqp3", counted)
    net = exact_fit_generic(ds)
    assert len(calls) == 2                       # workspace query, factorization
    assert net.to_json() == ref.to_json()


def _fresh_process(code):
    """stdout of ``code`` run by a new interpreter with the package on its path."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n"
                          + code], capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.split()


_FIT = ("from memnet.constructive import _lapack, exact_fit_generic\n"
        "from memnet.data import sample_sphere\n"
        "exact_fit_generic(sample_sphere(30, 5, 0))\n")


def test_exact_fit_leaves_scipy_linalg_unimported():
    """An exact fit loads scipy's compiled LAPACK wrappers alone: neither the
    ``scipy.linalg`` package nor any other module under it is imported.
    (The extension registers itself under its own name.)"""
    code = _FIT + ("print(*sorted(m for m in sys.modules\n"
                   "             if m == 'scipy.linalg' or m.startswith('scipy.linalg.')))")
    assert _fresh_process(code) == ["scipy.linalg._flapack"]


def test_exact_fit_routines_are_scipys_own():
    """The routines the fit calls are the objects ``scipy.linalg.lapack``
    exports when ``scipy.linalg`` is imported after the fit."""
    code = _FIT + ("import scipy.linalg.lapack as lapack\n"
                   "print(_lapack().sgeqp3 is lapack.sgeqp3, _lapack().dgeqp3 is lapack.dgeqp3)")
    assert _fresh_process(code) == ["True", "True"]


def test_exact_fit_fallback_fits_the_same_bytes(monkeypatch):
    """Where scipy's LAPACK extension file is not found, the loader falls
    back to ``scipy.linalg.lapack``, and the fit is the same network."""
    from scipy.linalg import lapack
    ds = _sphere(200, 20, 1, labels="rademacher")
    want = exact_fit_generic(ds).to_json()
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    constructive._lapack.cache_clear()
    try:
        assert constructive._lapack() is lapack
        assert exact_fit_generic(ds).to_json() == want
    finally:
        constructive._lapack.cache_clear()


def _traced_peak(ds):
    exact_fit_generic(ds)                 # loads LAPACK outside the trace
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_features_reuse_one_chunk_buffer(dtype):
    """``_features`` holds the K x n result plus at most 1.1 float64 blocks of 128 x n,
    whatever n, and numpy's one ufunc buffer (``getbufsize`` float64 values, 64 KB),
    which the broadcast bias add takes: one block serves every 128 rows of W, and its
    ReLU is written into the result.  K off a multiple of 128 and K below 128 included.
    The values are the whole product's ``relu(W X^T + b)`` cast to ``dtype``, bit for
    bit, and ``relu(X W^T + b)`` at (n, K) = (400, 4000): at (130, 300) numpy 2.4's
    OpenBLAS rounds 174 entries of X W^T differently from W X^T, blocked or not."""
    rng = np.random.default_rng(0)
    for n, K in ((400, 4000), (130, 300), (60, 90)):
        X, W, b = rng.standard_normal((n, 20)), rng.standard_normal((K, 20)), rng.standard_normal(K)
        tracemalloc.start()
        try:
            A = constructive._features(X, W, b, dtype)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (K * n * np.dtype(dtype).itemsize + 1.1 * 128 * n * 8
                        + 8 * np.getbufsize())
        assert A.dtype == dtype and A.flags.f_contiguous
        assert np.array_equal(A, relu(W @ X.T + b[:, None]).T.astype(dtype))
        assert n != 400 or np.array_equal(A, relu(X @ W.T + b).astype(dtype))


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


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 120), d=st.integers(2, 20), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 2))
def test_baum_threshold_exact_property(n, d, share, seed):
    """On sphere points with any share of ones, all-zero and all-one labels
    included, baum_threshold_fit is exact with at most 2 ceil(minority/d)
    neurons, plus the constant one when label 1 is the majority."""
    ds = sample_sphere(n, d, seed)
    y = np.zeros(n)
    y[:round(share * n)] = 1.0
    net = baum_threshold_fit(ds.with_labels(y), seed=seed)
    ones = int(y.sum())
    assert net.k <= 2 * math.ceil(min(ones, n - ones) / d) + (2 * ones > n)
    assert np.array_equal(evaluate(net, ds), y)


def test_baum_threshold_redraws_a_partition_that_fails_to_certify(monkeypatch):
    """Slab pairs that do not realize their groups' indicator fail the
    certificate inside the retry loop, and the next partition fits."""
    ds = sample_sphere(40, 5, 3)
    y = np.zeros(40)
    y[:12] = 1.0
    calls = []
    partition_network = constructive._partition_network

    def corrupt_first(ds, idx, activation):
        calls.append(idx)
        net = partition_network(ds, idx, activation)
        return (TwoLayerNetwork(zip(net.a * 2.0, net.W, net.b), activation)
                if len(calls) == 1 else net)

    monkeypatch.setattr(constructive, "_partition_network", corrupt_first)
    net = baum_threshold_fit(ds.with_labels(y))
    assert len(calls) == 2                      # two partitions of three groups
    assert net.k == 2 * math.ceil(12 / 5)
    assert np.array_equal(evaluate(net, ds), y)


@pytest.mark.parametrize("activation", ["relu", "threshold"])
def test_partition_network_is_the_per_group_builder(activation):
    """The partition network stacked at once is, byte for byte, the one built group
    by group from ``derivative_neurons`` calls (or threshold pairs), a partial last
    group included."""
    ds = _sphere(107, 10, 4)
    for seed in range(3):
        idx = np.random.default_rng(seed).permutation(ds.n)
        net = constructive._partition_network(ds, idx, activation)
        ref = TwoLayerNetwork(baum_group_neurons(ds, idx, activation == "relu"), activation)
        assert net.k == 2 * (1 + (activation == "relu")) * math.ceil(107 / 10)
        assert all(x.tobytes() == r.tobytes()
                   for x, r in ((net.a, ref.a), (net.W, ref.W), (net.b, ref.b)))


@pytest.mark.parametrize("fit, ones", [(baum_relu_fit, None), (baum_threshold_fit, 37),
                                       (baum_threshold_fit, 71)])
def test_baum_fits_match_the_per_group_builder(monkeypatch, fit, ones):
    """Whole fits, with the unit frame, partial groups and, for 71 ones in 107 labels,
    the majority-ones flip, give the per-group builder's bytes."""
    ds = _sphere(107, 10, 5)
    labels = ds.labels if ones is None else np.r_[np.ones(ones), np.zeros(107 - ones)]
    ds = Dataset(ds.points * 3.0, labels)
    net = fit(ds, seed=2)
    monkeypatch.setattr(constructive, "_partition_network", lambda ds, idx, activation:
                        TwoLayerNetwork(baum_group_neurons(ds, idx, activation == "relu"),
                                        activation))
    assert fit(ds, seed=2).to_json() == net.to_json()


def test_baum_fits_solve_once_per_partition(monkeypatch):
    """One stacked ``np.linalg.solve`` per partition drawn, and an SVD only for
    a partial group: no per-group loop of factorizations."""
    calls = {"solve": 0, "svd": 0, "partitions": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    for name in ("solve", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(constructive, "_partition_network",
                        counted("partitions", constructive._partition_network))
    for n, ones in ((200, 40), (207, 47)):
        ds = _sphere(n, 20, n, labels="rademacher")
        y = np.r_[np.ones(ones), np.zeros(n - ones)]
        for fit, labeled, partial in ((baum_relu_fit, ds, n % 20),
                                      (baum_threshold_fit, ds.with_labels(y), ones % 20)):
            calls.update(solve=0, svd=0, partitions=0)
            fit(labeled)
            assert calls["partitions"] >= 1
            assert calls["solve"] == calls["partitions"]
            assert calls["svd"] == calls["partitions"] * (partial > 0)


def test_singular_group_is_named():
    """Two equal points in a full group make its system singular; the stacked
    solve fails and the error names that group."""
    pts = np.array(sample_sphere(10, 5, 0).points)
    pts[7] = pts[6]
    with pytest.raises(DegenerateDataError, match=r"singular group system \(group \[5, 6, 7, 8, 9\]"):
        _slabs(Dataset(pts, np.zeros(10)), np.arange(10), False)


def test_baum_fits_give_up_on_conflicting_duplicates():
    """Two copies of one point with different labels: a group holding both
    cannot realize its labels, and a group holding one has the other on its
    hyperplane, so every partition fails."""
    pts = sample_sphere(12, 4, 0).points
    ds = Dataset(np.vstack([pts, pts[:1]]), np.r_[np.zeros(12), 1.0])
    for fit in (baum_relu_fit, baum_threshold_fit):
        with pytest.raises(DegenerateDataError, match="after 20 partitions"):
            fit(ds)


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
    U, b, tau = _slabs(Dataset(X, np.zeros(5)), np.arange(5), False)[:3]
    assert abs(np.linalg.norm(U[0]) - 1.0) < 1e-12
    assert np.max(np.abs(X @ U[0] - b[0])) < 1e-9
    assert b[0] > 0.0 and tau[0] == 2.0 ** norm_exponent(X)  # no other point


def _twelve_decades():
    """Threshold labels on sphere rows whose norms spread over 12 decades."""
    ds = sample_sphere(60, 6, 3)
    y = (rademacher_labels(ds, 4).labels > 0).astype(float)
    return Dataset(ds.points * 10 ** np.random.default_rng(3).uniform(-6, 6, 60)[:, None], y)


def _oracle_cases():
    """(dataset, the indices the fit partitions, relu) of each oracle case."""
    ds = _sphere(37, 5, 2)
    majority = sample_sphere(50, 8, 4).with_labels(np.r_[np.zeros(12), np.ones(38)])
    het = _twelve_decades()
    return {"full-groups": (_sphere(200, 20, 1), np.arange(200), True),
            "partial-group": (ds, np.arange(37), True),
            "partial-group-threshold": (ds, np.arange(37), False),
            "majority-ones": (majority, np.arange(12), False),
            "twelve-decades": (het, np.flatnonzero(het.labels == 0.0), False),
            "2^600": (Dataset(np.ldexp(ds.points, 600), ds.labels), np.arange(37), True),
            "2^-600": (Dataset(np.ldexp(ds.points, -600), ds.labels), np.arange(37), True)}


@pytest.mark.parametrize("case", list(_oracle_cases()))
def test_slabs_match_the_svd_oracle(case):
    """On the partitions a fit draws, each group's (u, b) is the SVD oracle's up
    to one common sign, and tau is the oracle's.  u is a unit vector; b and tau
    are measured in the group's power of two s.  Two backward-stable methods
    agree to about eps kappa, kappa the condition number of [X_group, -s]:
    within 1e-12 on the sphere rows, and 1e-15 kappa on the 12-decade ones,
    whose groups reach kappa 1e11.  A full group's hyperplane has b > 0."""
    ds, indices, relu = _oracle_cases()[case]
    built = 0
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence((3, attempt)))
        idx = indices[rng.permutation(len(indices))]
        try:
            U, b, tau = _slabs(ds, idx, relu)[:3]
        except DegenerateDataError:
            continue
        built += 1
        for g in range(len(b)):
            group = idx[g * ds.d:(g + 1) * ds.d]
            u0, b0, tau0 = slab_oracle(ds.points, group)
            s = 2.0 ** norm_exponent(ds.points[group])
            kappa = np.linalg.cond(np.hstack([ds.points[group], np.full((len(group), 1), -s)]))
            sign = np.sign(U[g] @ u0)
            err = max(np.max(np.abs(U[g] - sign * u0)), abs(b[g] - sign * b0) / s,
                      abs(tau[g] - tau0) / s)
            assert err <= (1e-15 * kappa if case == "twelve-decades" else 1e-12)
            assert b[g] > 0.0 or len(group) < ds.d
    assert built >= (1 if case == "twelve-decades" else 20)


def test_baum_threshold_keeps_each_group_slab_scale():
    """Rows whose norms spread over 12 decades: in the frame alone, a group of
    the smallest rows meets the slab's column of 1 and tau floor of 1e-12 and
    no partition certifies; measured in its own power of two, every group fits."""
    het = _twelve_decades()
    net = baum_threshold_fit(het, seed=3)
    assert np.array_equal(evaluate(net, het), het.labels)


def _decades_apart(s):
    """The s-th of twelve datasets: sphere rows times 10^U(-6, 6), Rademacher labels."""
    ds = sample_sphere(60, 6, s)
    scale = 10.0 ** np.random.default_rng(s).uniform(-6, 6, 60)
    return rademacher_labels(Dataset(ds.points * scale[:, None], ds.labels), s + 1)


@pytest.mark.xfail(strict=True, raises=DegenerateDataError,
                   reason="a group mixing rows of norm 1e-6 and 1e6 gets slopes near 1e6, "
                          "whose rounding on its largest rows fails the 1e-8 label check")
def test_baum_relu_fits_rows_whose_norms_spread_over_twelve_decades():
    """baum_relu_fit (fit seed s) fits none of the twelve datasets ``_decades_apart(s)``,
    each after 20 partitions, while baum_threshold_fit fits 11 of their 0/1
    versions.  A fix of the ReLU fit makes this test pass, and strict xfail then fails."""
    for s in range(12):
        ds = _decades_apart(s)
        net = baum_relu_fit(ds, seed=s)
        assert np.max(np.abs(evaluate(net, ds) - ds.labels)) <= 1e-6


def test_baum_relu_failure_names_the_spread_of_the_group_row_norms(tmp_path, capsys):
    """``fit --method baum-relu`` on ``_decades_apart(0)`` exits 3, and its one error
    line names the last partition's failing group and how many decades its row norms
    span: 10.6."""
    path = str(tmp_path / "decades.bin")
    save_dataset(_decades_apart(0), path)
    assert main(["fit", "--method", "baum-relu", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: baum_relu_fit failed after 20 partitions: ")
    assert err.endswith(", row norms spread over 10.6 decades)\n") and err.count("\n") == 1


def test_baum_threshold_at_the_top_of_the_float_range():
    """Rows of norm 1.5e308 round to 2^1024, past float64; the frame's
    exponent is the integer 1024, which ``np.ldexp`` takes."""
    big = Dataset(1.5e308 * sample_sphere(30, 10, 0).points, np.arange(30) % 3 == 0)
    net = baum_threshold_fit(big)
    assert net.k <= 2 * math.ceil(10 / 10)
    assert np.array_equal(evaluate(net, big), big.labels)


def test_baum_relu_at_the_top_of_the_float_range():
    """Rows of norm 2^1023: delta's margin-to-slope quotients are taken in the
    unit frame, so none overflows (an overflow warning in the divide once,
    which fails under error::RuntimeWarning)."""
    ds = rademacher_labels(sample_sphere(30, 10, 0), 1)
    big = Dataset(2.0 ** 1023 * ds.points, ds.labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = baum_relu_fit(big)
    assert net.k <= 4 * math.ceil(30 / 10)
    assert np.max(np.abs(evaluate(net, big) - big.labels)) <= 1e-6


def test_weight_scaling_table():
    """The sweep cells that acceptance criterion 9 reads its Baum weights from."""
    rows = [sweep_cell("baum-relu", n, 10, seed, None, "rademacher")
            for n in (20, 40) for seed in range(3)]
    assert [(r["n"], r["seed"]) for r in rows] == [(n, s) for n in (20, 40) for s in range(3)]
    assert all(r["max_residual"] < 1e-6 and r["total_weight"] > 0.0 for r in rows)
    # one-group additivity spot check: n=d gives a single 4-neuron group
    assert sweep_cell("baum-relu", 10, 10, 0, None, "rademacher")["k"] == 4
