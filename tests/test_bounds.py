import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memnet.bounds import verify_weight_bound
from memnet.constructive import baum_relu_fit
from memnet.data import rademacher_labels, sample_sphere
from memnet.errors import DataError
from memnet.network import TwoLayerNetwork, evaluate, relu, total_weight
from memnet.ntk import ntk_fit


def _rademacher(n, d, seed=0):
    return rademacher_labels(sample_sphere(n, d, seed), seed + 1)


def _error_ratio(ds, net):
    """||f - y||^2 / ||y||^2 on the data."""
    return float(np.sum((evaluate(net, ds) - ds.labels) ** 2)) / float(ds.labels @ ds.labels)


def test_baum_relu_clears_weight_floor():
    ds = _rademacher(200, 20)
    net = baum_relu_fit(ds)
    report = verify_weight_bound(ds, [("baum-relu", net)])
    assert report.bound == pytest.approx(math.sqrt(200) / 8.0)
    assert _error_ratio(ds, net) <= 0.5
    assert total_weight(net) >= report.bound
    assert not report.falsified


def test_harmonic_clears_weight_floor():
    from memnet.harmonic import harmonic_fit

    ds = _rademacher(40, 80)
    res = harmonic_fit(ds, epsilon=0.4, seed=0)
    report = verify_weight_bound(ds, [("harmonic", res.network)])
    assert total_weight(res.network) >= report.bound
    assert not report.falsified


def test_half_fitting_exemption():
    """A network with error ratio above 1/2 is never flagged."""
    ds = _rademacher(50, 10)
    empty = TwoLayerNetwork((), "relu")
    report = verify_weight_bound(ds, [("empty", empty)])
    assert _error_ratio(ds, empty) == pytest.approx(1.0)
    assert total_weight(empty) == 0.0
    assert not report.falsified


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(1, 60), d=st.integers(3, 20), seed=st.integers(0, 2 ** 16),
       epsilon=st.floats(0.05, 0.5))
def test_no_half_fit_below_the_floor_property(n, d, seed, epsilon):
    """Baum ReLU and NTK fits of random sphere data with +-1 labels fit to half
    error, so each must carry at least sqrt(n)/8 total weight."""
    ds = _rademacher(n, d, seed)
    nets = [("baum-relu", baum_relu_fit(ds, seed=seed)),
            ("ntk", ntk_fit(ds, epsilon, seed=seed).network)]
    report = verify_weight_bound(ds, nets)
    assert max(_error_ratio(ds, net) for _, net in nets) <= 0.5
    assert not report.falsified


def test_requires_sign_labels():
    ds = sample_sphere(10, 4, 0)
    with pytest.raises(DataError):
        verify_weight_bound(ds, [])


def _correlation(ds, w, b):
    """sum_i y_i psi(w.x_i - b) / sqrt(||w||^2 + b^2) for the ReLU psi; 0 at
    w = 0, b = 0."""
    denom = math.sqrt(float(w @ w) + b * b)
    return float(ds.labels @ relu(ds.points @ w - b)) / denom if denom else 0.0


def _correlation_cap(ds, trials, seed):
    """Empirical max of ``_correlation``: random restarts, then 200 steps of a
    shrinking perturbation search around the best.  A lower bound on the
    true max, probed against the 2 L sqrt(n) Rademacher ceiling."""
    rng = np.random.default_rng(seed)
    best_val, w, b = -math.inf, None, None
    for _ in range(trials):
        w2, b2 = rng.standard_normal(ds.d), rng.standard_normal()
        val = _correlation(ds, w2, b2)
        if val > best_val:
            best_val, w, b = val, w2, b2
    step = 0.5
    for _ in range(200):
        w2 = w + step * rng.standard_normal(ds.d)
        b2 = b + step * rng.standard_normal()
        val = _correlation(ds, w2, b2)
        if val > best_val:
            best_val, w, b = val, w2, b2
        else:
            step *= 0.97
    return best_val


def test_correlation_cap_rademacher_ceiling():
    """Random restarts never push past 2 sqrt(n) by more than the seed spread."""
    caps = [_correlation_cap(_rademacher(400, 40, s), 200, s)
            for s in range(5)]
    slack = 3.0 * float(np.std(caps))
    assert max(caps) <= 2.0 * math.sqrt(400) + slack


def test_correlation_cap_constant_labels_escape():
    """Constant labels are not Rademacher: w=0, b=-1 realizes correlation n."""
    ds = sample_sphere(60, 10, 0).with_labels(np.ones(60))
    val = _correlation(ds, np.zeros(10), -1.0)
    assert val == pytest.approx(60.0)


def test_correlation_cap_linear_neuron_floor():
    """The search should at least rival the explicit linear-direction neuron
    w proportional to sum_i y_i x_i, which scales like sqrt(n/2)."""
    ds = _rademacher(100, 25, 3)
    w = (ds.labels[:, None] * ds.points).sum(axis=0)
    floor = _correlation(ds, w, 0.0)
    assert floor >= math.sqrt(100.0 / 2.0) * 0.5
    cap = _correlation_cap(ds, 500, 0)
    assert cap >= floor * 0.8


def test_correlation_scale_invariance():
    ds = _rademacher(40, 8, 1)
    rng = np.random.default_rng(0)
    w, b = rng.standard_normal(8), 0.7
    base = _correlation(ds, w, b)
    for c in (0.01, 3.0, 250.0):
        assert _correlation(ds, c * w, c * b) == pytest.approx(
            base, abs=1e-10)


def test_correlation_cap_zero_weight_candidate():
    ds = _rademacher(10, 4)
    assert _correlation(ds, np.zeros(4), 0.0) == 0.0
