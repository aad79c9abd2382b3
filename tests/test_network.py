import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from memnet.constructive import baum_relu_fit, baum_threshold_fit, exact_fit_generic
from memnet.data import BLOCK, Dataset, gaussian_labels, rademacher_labels, sample_sphere
from memnet.errors import ConvergenceError, InvariantError, ParameterError
from memnet.harmonic import harmonic_fit
from memnet.network import (FitTrace, IterationRecord, Neuron, StepProposal, TwoLayerNetwork,
                            boost_fit, evaluate, from_unit_frame, get_activation,
                            relu, threshold, total_weight)
from memnet.ntk import ntk_fit
from probes import network_from_json


def _net(neurons, activation="relu"):
    return TwoLayerNetwork(neurons, activation)


def test_activations():
    t = np.array([-1.0, -0.0, 0.0, 2.0])
    assert np.array_equal(relu(t), [0.0, 0.0, 0.0, 2.0])
    # boundary t = +-0 maps to 1
    assert threshold(t).dtype == np.float64
    assert np.array_equal(threshold(t), [0.0, 1.0, 1.0, 1.0])
    for psi in (relu, threshold):
        s = t.copy()
        assert psi(s, out=s) is s and np.array_equal(s, psi(t))
    with pytest.raises(ParameterError):
        get_activation("sigmoid")


def test_evaluate_empty():
    ds = sample_sphere(4, 3, 0)
    assert np.array_equal(evaluate(_net([]), ds), np.zeros(4))


def test_evaluate_single_relu():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    ds = Dataset(pts, np.zeros(2))
    net = _net([Neuron(1.0, np.array([1.0, 0.0]), 0.0)])
    assert np.array_equal(evaluate(net, ds), [1.0, 0.0])


def test_evaluate_matches_naive():
    """Vectorized evaluation vs a direct scalar loop."""
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((10, 4))
    ds = Dataset(pts, np.zeros(10))
    neurons = [Neuron(rng.standard_normal(), rng.standard_normal(4),
                      rng.standard_normal()) for _ in range(5)]
    net = _net(neurons)
    expected = np.zeros(10)
    for i in range(10):
        for nr in neurons:
            expected[i] += nr.a * max(0.0, float(nr.w @ pts[i]) + nr.b)
    assert np.max(np.abs(evaluate(net, ds) - expected)) < 1e-12


def test_evaluate_dimension_mismatch():
    for activation in ("relu", "threshold"):
        net = _net([Neuron(1.0, np.zeros(3), 0.0)], activation)
        with pytest.raises(ParameterError):
            evaluate(net, sample_sphere(2, 4, 0))


@pytest.mark.parametrize("activation", ["relu", "threshold"])
@pytest.mark.parametrize("k", [1, 2, 40, 128])
def test_evaluate_is_the_activation_formula_bit_for_bit(activation, k):
    """evaluate's in-place buffer gives ``psi(X W^T + b) @ a`` exactly, also at
    pre-activations that are exactly zero: x . w = -b, and a row w = -0 with b = -0
    (-0 wherever the product keeps the sign), where threshold reads 1."""
    rng = np.random.default_rng(k)
    X = rng.integers(-3, 4, (12, 3)).astype(float)
    X[:, 0] = 1.0                                       # no zero rows
    W = rng.integers(-3, 4, (k, 3)).astype(float)
    b = rng.standard_normal(k)
    b[0] = -float(X[0] @ W[0])
    if k > 1:
        W[1], b[1] = -0.0, -0.0
    net = _net(zip(rng.standard_normal(k), W, b), activation)
    t = X @ W.T + b
    assert (t == 0.0).sum() >= 1 + 12 * (k > 1)
    want = get_activation(activation)(t) @ net.a
    assert np.array_equal(evaluate(net, Dataset(X, np.zeros(12))), want)


@pytest.mark.parametrize("activation", ["relu", "threshold"])
def test_evaluate_holds_one_n_by_k_buffer(activation):
    """Peak traced memory of one evaluation stays within 1.1 n k float64 entries: the
    pre-activations, their bias and the activation share one array."""
    rng = np.random.default_rng(0)
    n, d, k = 300, 20, 500
    ds = Dataset(rng.standard_normal((n, d)), np.zeros(n))
    net = _net(zip(rng.standard_normal(k), rng.standard_normal((k, d)),
                   rng.standard_normal(k)), activation)
    tracemalloc.start()
    try:
        evaluate(net, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * n * k * 8


@pytest.mark.parametrize("activation", ["relu", "threshold"])
def test_evaluate_memory_does_not_grow_with_k(activation):
    """At k = 10 blocks the peak traced memory is one (n, 128) float64 buffer plus a few
    n-vectors (the result and one block's values), and numpy's ufunc buffer of
    ``np.getbufsize()`` elements, which the broadcast ``+= b`` allocates whatever k is."""
    rng = np.random.default_rng(0)
    n, d, k = 300, 20, 10 * BLOCK
    ds = Dataset(rng.standard_normal((n, d)), np.zeros(n))
    net = _net(zip(rng.standard_normal(k), rng.standard_normal((k, d)),
                   rng.standard_normal(k)), activation)
    tracemalloc.start()
    try:
        evaluate(net, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * n * BLOCK * 8 + 4 * n * 8 + np.getbufsize() * 8


@pytest.mark.parametrize("activation", ["relu", "threshold"])
def test_evaluate_sums_blocks_left_to_right(activation):
    """Past one block evaluate is the blockwise sum, first block first, bit for bit (signs
    of zero included), with exact-zero pre-activations in every block; per point it is the
    one-shot ``psi(X W^T + b) @ a`` within 1e-13 (|psi| @ |a|)."""
    rng = np.random.default_rng(5)
    n, k = 12, 3 * BLOCK + 5
    X = rng.integers(-3, 4, (n, 3)).astype(float)
    X[:, 0] = 1.0                                       # no zero rows
    W = rng.integers(-3, 4, (k, 3)).astype(float)
    b = rng.standard_normal(k)
    for s in range(0, k, BLOCK):
        b[s] = -float(X[s % n] @ W[s])
        W[s + 1], b[s + 1] = -0.0, -0.0
    a = rng.standard_normal(k)
    net = _net(zip(a, W, b), activation)
    psi = get_activation(activation)
    t = X @ W.T + b
    assert (t == 0.0).sum() >= 4 * (1 + n)
    blocks = [psi(X @ W[s:s + BLOCK].T + b[s:s + BLOCK]) @ a[s:s + BLOCK]
              for s in range(0, k, BLOCK)]
    got = evaluate(net, Dataset(X, np.zeros(n)))
    assert got.tobytes() == functools.reduce(np.add, blocks).tobytes()
    assert np.all(np.abs(got - psi(t) @ a) <= 1e-13 * (np.abs(psi(t)) @ np.abs(a)))


def test_total_weight():
    assert total_weight(_net([])) == 0.0
    net = _net([Neuron(2.0, np.array([3.0, 4.0]), 0.0)])
    assert abs(total_weight(net) - 10.0) < 1e-12
    # W(f) = sum |a| sqrt(||w||^2 + b^2): the bias counts
    net = _net([Neuron(2.0, np.array([3.0, 4.0]), 12.0)])
    assert abs(total_weight(net) - 26.0) < 1e-12


def test_total_weight_additive_under_concat():
    rng = np.random.default_rng(1)
    a = _net([Neuron(rng.standard_normal(), rng.standard_normal(3),
                     rng.standard_normal()) for _ in range(4)])
    b = _net([Neuron(rng.standard_normal(), rng.standard_normal(3),
                     rng.standard_normal()) for _ in range(2)])
    both = TwoLayerNetwork(a.neurons + b.neurons)
    assert both.k == 6
    assert abs(total_weight(both) - total_weight(a) - total_weight(b)) < 1e-10


def test_network_json_roundtrip():
    rng = np.random.default_rng(2)
    net = _net([Neuron(rng.standard_normal(), rng.standard_normal(3),
                       rng.standard_normal()) for _ in range(3)], "threshold")
    back = network_from_json(net.to_json())
    assert back.activation == "threshold"
    ds = Dataset(rng.standard_normal((6, 3)), np.zeros(6))
    assert np.max(np.abs(evaluate(back, ds) - evaluate(net, ds))) < 1e-15


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _networks(draw):
    d = draw(st.integers(1, 5))
    neurons = [Neuron(draw(_FINITE), draw(hnp.arrays(np.float64, d, elements=_FINITE)),
                      draw(_FINITE)) for _ in range(draw(st.integers(0, 6)))]
    return TwoLayerNetwork(tuple(neurons), draw(st.sampled_from(["relu", "threshold"])))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(net=_networks())
def test_network_json_roundtrip_property(net):
    """Bit-exact round trip of every a, w and b (signed zeros, subnormals,
    extreme magnitudes) and of the activation name."""
    back = network_from_json(net.to_json())
    assert back.activation == net.activation
    assert back.k == net.k
    for got, want in zip(back.neurons, net.neurons):
        assert _bits(got.a) == _bits(want.a)
        assert _bits(got.w) == _bits(want.w)
        assert _bits(got.b) == _bits(want.b)


def test_network_rejects_nonfinite_rows():
    """A non-finite a, w or b in any row is refused when the network stacks its rows."""
    ok = Neuron(1.0, np.zeros(2), 0.0)
    for a, w, b in ((np.inf, [0.0, 0.0], 0.0), (1.0, [0.0, np.nan], 0.0),
                    (1.0, [0.0, 1.0], -np.inf), (np.float64(np.nan), [0.0, 1.0], 0.0)):
        with pytest.raises(ParameterError, match="finite"):
            _net([ok, Neuron(a, np.array(w), b)])


def test_network_refuses_rows_of_two_input_dimensions():
    for w in (np.zeros(3), np.zeros((2, 2)), 0.0):
        with pytest.raises(ParameterError, match="input dimension"):
            _net([Neuron(1.0, np.zeros(2), 0.0), Neuron(1.0, w, 0.0)])


def test_network_arrays_are_read_only_copies():
    """a, W and b are read-only float64 copies of the rows, whose arrays stay
    writable, and the rows the network hands back are views of them."""
    for w in (np.zeros(3), np.zeros(3, dtype=np.float32), np.zeros((2, 3))[1],
              np.zeros((3, 2))[:, 0], [0.0, 0.0, 0.0]):
        net = _net([Neuron(1.0, w, 0.0)])
        for arr in (net.a, net.W, net.b):
            assert arr.dtype == np.float64 and not arr.flags.writeable
        if isinstance(w, np.ndarray):
            assert w.flags.writeable and not np.shares_memory(w, net.W)
            w[0] = 1.0
        assert np.array_equal(net.W, np.zeros((1, 3)))
    a, W, b = np.ones(2), np.zeros((2, 3)), np.zeros(2)
    net = _net(zip(a, W, b))
    a[0], W[0, 0], b[0] = 2.0, 1.0, 1.0
    assert (net.a.tolist(), net.W.any(), net.b.any()) == ([1.0, 1.0], False, False)
    (nr, _) = net.neurons
    assert np.shares_memory(nr.w, net.W) and not nr.w.flags.writeable
    with pytest.raises(ValueError):
        net.W[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.a = a


def _weight(a, w, b):
    """The weight of the neuron (a, w, b): the total weight of its one-neuron network."""
    return total_weight(_net([Neuron(a, np.array(w, dtype=float), b)]))


def test_neuron_weight_when_the_bias_square_overflows():
    """b * b is past the float range at |b| = 1e160 (a Baum network of rows
    of that scale); the weight is then taken with hypot."""
    assert _weight(1e-160, [1, 0, 0], 1e160) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_neuron_weight_when_the_weight_square_overflows():
    """w . w is past the float range at |w| = 1e200 (an exact network of rows
    of norm 1e-170 has |w| near 1e170): inf once, now taken with hypot, also
    when a = 0 (it read nan)."""
    assert _weight(1.0, [1e200, 0, 0], 0.0) == 1e200
    assert _weight(2.0, [3e200, -4e200], 0.0) == pytest.approx(1e201, rel=1e-15)
    assert _weight(0.0, [1e200, 0, 0], 0.0) == 0.0


@pytest.mark.filterwarnings("error")
def test_neuron_weight_when_the_weight_square_underflows():
    """w . w under float64's normal numbers (a network fitted on rows of norm
    2^1023 has |w| near 2^-1023): the square read 0.0 at |w| = 1e-200 and
    lost bits at 1e-160 (9.99994e-161); the weight is then taken with hypot."""
    assert _weight(1.0, [1e-200, 0, 0], 0.0) == 1e-200
    assert _weight(1.0, [1e-160, 0, 0], 0.0) == 1e-160
    assert _weight(3.0, [3e-170, 0, -4e-170], 0.0) == pytest.approx(1.5e-169, rel=1e-15)


_MODERATE = st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100) | st.just(0.0)


@st.composite
def _scaled_networks(draw):
    """Networks whose rows (w, b) are scaled by c in {1, 1e160, 1e-170, 2^600, 2^-600},
    and a by 1/c, so every |a| ||(w, b)|| is finite and normal."""
    d = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        c = draw(st.sampled_from([1.0, 1e160, 1e-170, 2.0 ** 600, 2.0 ** -600]))
        w = draw(hnp.arrays(np.float64, d, elements=_MODERATE))
        rows.append(Neuron(draw(_MODERATE) / c, w * c, draw(_MODERATE) * c))
    return _net(rows)


@settings(max_examples=200, deadline=None, database=None)
@given(net=_scaled_networks())
def test_total_weight_is_the_sum_of_neuron_weights_property(net):
    """W(f) = sum_l |a_l| ||(w_l, b_l)||, held to an fsum of math.hypot norms: a
    total_weight that under-reports (or over-reports) it by any factor fails here."""
    want = math.fsum(abs(nr.a) * math.hypot(*nr.w, nr.b) for nr in net.neurons)
    assert total_weight(net) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert total_weight(_net([])) == 0.0


# -- the unit frame -----------------------------------------------------------

@functools.cache
def _unit_fits(method: str) -> list:
    """(fit, unit-scale dataset, its network) for ``method``; the Baum datasets
    include majority-ones threshold labels (a constant neuron)."""
    if method == "exact":
        pairs = [(exact_fit_generic, gaussian_labels(sample_sphere(30, 5, 0), 1))]
    elif method == "ntk":
        pairs = [(lambda ds: ntk_fit(ds, 0.25, seed=1).network,
                  rademacher_labels(sample_sphere(100, 20, 3), 4))]
    elif method == "harmonic":
        pairs = [(lambda ds: harmonic_fit(ds, 0.3, seed=0).network,
                  rademacher_labels(sample_sphere(40, 80, 0), 1))]
    else:
        sets = [gaussian_labels(sample_sphere(n, d, i), i + 1)
                for i, (n, d) in enumerate([(30, 10), (61, 7), (5, 5), (100, 20)])]
        if method == "baum-relu":
            pairs = [(functools.partial(baum_relu_fit, seed=i), ds) for i, ds in enumerate(sets)]
        else:
            pairs = [(functools.partial(baum_threshold_fit, seed=i),
                      ds.with_labels((ds.labels > cut).astype(float)))
                     for i, ds in enumerate(sets) for cut in (0.3, -0.3)]
    return [(fit, ds, fit(ds)) for fit, ds in pairs]


@pytest.mark.parametrize("k", [-600, -450, -400, -100, -40, -20, -3, 3,
                               40, 100, 133, 300, 400, 450, 500, 600])
@pytest.mark.parametrize("method", ["exact", "baum-relu", "baum-threshold", "ntk", "harmonic"])
def test_every_fit_scales_exactly(method, k):
    """Points times 2^k give the unit network with w 2^-k, byte for byte and
    with no warning: every fit runs on ``unit_frame``'s points and returns
    ``from_unit_frame``'s network.  ntk had no frame: its W grew 4e8-fold too
    much at 2^-40 and its step overflowed at 2^300.  The exponents are those
    of the four per-module scale tests this one replaces, plus -40, 300, 450
    and 600 for every method."""
    for fit, ds, unit in _unit_fits(method):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net = fit(Dataset(2.0 ** k * ds.points, ds.labels))
        want = TwoLayerNetwork(tuple(Neuron(nr.a, nr.w / 2.0 ** k, nr.b) for nr in unit.neurons),
                               unit.activation)
        assert net.to_json() == want.to_json()


@pytest.mark.parametrize("j", [-30, 20, 40])
@pytest.mark.parametrize("method", ["exact", "baum-relu", "ntk", "harmonic"])
def test_every_fit_scales_labels_exactly(method, j):
    """Labels times 2^j give the unit network with a 2^j, byte for byte.  At
    2^20 baum-relu's certificate was a flat 1e-6: two of its four datasets
    silently took another partition, and labels of 2^19 on sphere data failed
    to certify.  baum-threshold is left out: its labels are 0/1."""
    for fit, ds, unit in _unit_fits(method):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net = fit(ds.with_labels(ds.labels * 2.0 ** j))
        want = TwoLayerNetwork(zip(unit.a * 2.0 ** j, unit.W, unit.b), unit.activation)
        assert net.to_json() == want.to_json()


def test_from_unit_frame_at_exponent_zero_is_the_network():
    net = _net([Neuron(2.0, [1.0, -2.0], 0.5)], "threshold")
    assert from_unit_frame(net, 0) is net
    assert from_unit_frame(net, 3).to_json() == _net([Neuron(2.0, [0.125, -0.25], 0.5)],
                                                     "threshold").to_json()


# -- boosting driver ----------------------------------------------------------

def _dataset(n=20, d=5, seed=0):
    return rademacher_labels(sample_sphere(n, d, seed), seed + 1)


def test_boost_oracle_step_one_iteration():
    ds = _dataset()

    def builder(r, seed):
        # perfect step: f = r via a fake neuron (values carry the fit)
        return StepProposal(neurons=[Neuron(1.0, np.zeros(ds.d), 1.0)], values=r.copy())

    net, trace, _ = boost_fit(builder, ds, epsilon=0.5, max_iters=10)
    assert len(trace.iterations) == 1
    assert trace.final_error_ratio < 1e-20
    assert trace.iterations[0].eta == pytest.approx(1.0)


def test_boost_synthetic_contraction():
    """Steps with r.f = alpha ||r||^2, ||f||^2 = beta ||r||^2 contract by 1 - alpha^2/beta."""
    ds = _dataset()
    alpha, beta = 0.3, 2.0

    def builder(r, seed):
        return StepProposal(neurons=[Neuron(1.0, np.zeros(ds.d), 1.0)],
                            values=_synthetic_step(r, alpha, beta, seed))

    net, trace, _ = boost_fit(builder, ds, epsilon=0.01, max_iters=1000)
    factor = 1.0 - alpha * alpha / beta
    for i in range(1, len(trace.iterations)):
        ratio = trace.iterations[i].residual_sq / trace.iterations[i - 1].residual_sq
        assert abs(ratio - factor) < 1e-10


def _unit_orthogonal(r, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(len(r))
    u -= (u @ r) / (r @ r) * r
    return u / np.linalg.norm(u)


def _synthetic_step(r, alpha, beta, seed):
    # r.f = alpha ||r||^2 and ||f||^2 = beta ||r||^2 exactly
    rn = math.sqrt(float(r @ r))
    u = _unit_orthogonal(r, seed)
    return alpha * r + math.sqrt(beta - alpha * alpha) * rn * u


def test_boost_iteration_count_bound():
    """epsilon=0.01, alpha=0.1, beta=1 synthetic steps finish within 461 iterations."""
    ds = _dataset()
    alpha, beta = 0.1, 1.0

    def builder(r, seed):
        return StepProposal(neurons=[Neuron(1.0, np.zeros(ds.d), 1.0)],
                            values=_synthetic_step(r, alpha, beta, seed))

    # the adaptive eta (r.f)/||f||^2 equals the proof's fixed alpha/beta here
    net, trace, _ = boost_fit(builder, ds, epsilon=0.01, max_iters=1000)
    assert len(trace.iterations) <= math.ceil(beta / alpha ** 2 * math.log(100))


def test_boost_pythagoras_per_step():
    ds = _dataset(30, 6, 3)
    rng = np.random.default_rng(0)

    def builder(r, seed):
        g = np.random.default_rng(seed).standard_normal(len(r))
        return StepProposal(neurons=[Neuron(1.0, np.zeros(ds.d), 1.0)], values=g)

    net, trace, _ = boost_fit(builder, ds, epsilon=0.2, max_iters=200)
    # ||r_next||^2 = ||r||^2 - (r.f)^2/||f||^2 for the adaptive step
    for i in range(1, len(trace.iterations)):
        rec = trace.iterations[i - 1]
        predicted = rec.residual_sq * (1.0 - rec.step_correlation_alpha ** 2
                                       / rec.step_norm_beta)
        assert trace.iterations[i].residual_sq == pytest.approx(predicted, rel=1e-9)


def test_boost_adaptive_never_increases_residual():
    ds = _dataset(25, 4, 7)

    def builder(r, seed):
        g = np.random.default_rng(seed).standard_normal(len(r))
        return StepProposal(neurons=[Neuron(1.0, np.zeros(ds.d), 1.0)], values=g)

    net, trace, _ = boost_fit(builder, ds, epsilon=0.3, max_iters=500)
    res = [rec.residual_sq for rec in trace.iterations]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(res, res[1:]))


class _DriftingProposal:
    """A proposal whose values change after the line search has read them
    (one read: the active-set copy that r . f and f . f use)."""

    def __init__(self, neurons, searched, applied):
        self.neurons = neurons
        self._reads = [searched, applied]

    @property
    def values(self):
        return self._reads.pop(0) if len(self._reads) > 1 else self._reads[0]


def test_boost_residual_increase_raises_invariant_error():
    ds = _dataset()

    def builder(r, seed):
        return _DriftingProposal([Neuron(1.0, np.zeros(ds.d), 1.0)], r.copy(), -r)

    with pytest.raises(InvariantError, match="increased the residual"):
        boost_fit(builder, ds, epsilon=0.1, max_iters=5)


def test_boost_weight_is_sum_of_scaled_steps():
    ds = _dataset(15, 4, 1)
    proposed = {}

    def builder(r, seed):
        rng = np.random.default_rng(seed)
        w, b = rng.standard_normal(ds.d), rng.standard_normal()
        vals = np.maximum(ds.points @ w + b, 0.0)
        sign = 1.0 if float(r @ vals) >= 0 else -1.0
        nr = Neuron(sign, w, b)
        proposed[len(proposed)] = total_weight(_net([nr]))  # unit outer coefficient
        return StepProposal(neurons=[nr], values=sign * vals)

    net, trace, _ = boost_fit(builder, ds, epsilon=0.5, max_iters=2000)
    unit_weights = [total_weight(_net([Neuron(nr.a * (1.0 / abs(nr.a)), nr.w, nr.b)]))
                    for nr in net.neurons]
    assert total_weight(net) == pytest.approx(
        sum(abs(rec.eta) * uw for rec, uw in zip(trace.iterations, unit_weights)),
        rel=1e-10)
    # and every accepted unit weight matches one the builder proposed
    assert all(any(abs(uw - pw) < 1e-9 for pw in proposed.values())
               for uw in unit_weights)


def test_boost_retry_exhaustion_raises_with_trace():
    """Every step gets 20 attempts, for ntk and harmonic alike."""
    ds = _dataset()
    calls = []

    def builder(r, seed):
        calls.append(seed)
        return StepProposal(neurons=[Neuron(1.0, np.zeros(ds.d), 1.0)], values=-r)

    with pytest.raises(ConvergenceError, match="step retry budget exhausted") as err:
        boost_fit(builder, ds, epsilon=0.1, max_iters=5)
    assert len(calls) == len(set(calls)) == 20
    assert isinstance(err.value.trace, FitTrace)
    assert err.value.trace.notes["stop_reason"] == "step retry budget exhausted"


def test_boost_iteration_cap_raises_with_trace():
    ds = _dataset()

    def slow(r, seed):
        # each step contracts ||r||^2 by 1 - alpha^2/beta = 0.99
        return StepProposal(neurons=[Neuron(1.0, np.zeros(ds.d), 1.0)],
                            values=_synthetic_step(r, 0.1, 1.0, seed))

    with pytest.raises(ConvergenceError, match="iteration cap") as err:
        boost_fit(slow, ds, epsilon=0.1, max_iters=3)
    trace = err.value.trace
    assert len(trace.iterations) == 3
    assert trace.final_error_ratio == pytest.approx(0.99 ** 3, rel=1e-9)
    assert trace.notes["stop_reason"] == "iteration cap reached"

    def perfect(r, seed):
        return StepProposal(neurons=[Neuron(1.0, np.zeros(ds.d), 1.0)], values=r.copy())

    # reaching the target on the last allowed step is not a failure
    net, trace, _ = boost_fit(perfect, ds, epsilon=0.5, max_iters=1)
    assert len(trace.iterations) == 1 and trace.final_error_ratio < 1e-20
    assert trace.notes["stop_reason"] == "epsilon reached"


@pytest.mark.parametrize("n,d,seed,trim_sq,epsilon",
                         [(40, 5, 2, 1.2, 0.3), (30, 4, 1, 1.1, 0.2), (40, 5, 2, 1.5, 0.2)])
def test_boost_trimming(n, d, seed, trim_sq, epsilon):
    """With a finite trim_sq the active set only shrinks, loses at most
    ceil(||y||^2 / trim_sq) points, and the stop uses the trimmed residual."""
    ds = _dataset(n, d, seed)
    y_sq = float(ds.labels @ ds.labels)

    def builder(r, attempt_seed):
        rng = np.random.default_rng(attempt_seed)
        w, b = rng.standard_normal(ds.d), rng.standard_normal()
        vals = np.maximum(ds.points @ w + b, 0.0)
        sign = 1.0 if float(r @ vals) >= 0 else -1.0
        return StepProposal(neurons=[Neuron(sign, w, b)], values=sign * vals)

    net, trace, active = boost_fit(builder, ds, epsilon=epsilon, max_iters=5000,
                                   trim_sq=trim_sq)
    sizes = [rec.active_set_size for rec in trace.iterations] + [int(active.sum())]
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    assert ds.n - sizes[-1] <= math.ceil(y_sq / trim_sq)
    assert sizes[-1] < ds.n  # the fixture does trim
    r = ds.labels - evaluate(net, ds)
    assert np.all(r[active] ** 2 <= trim_sq * (1 + 1e-9))
    r_act_sq = float(r[active] @ r[active])
    assert r_act_sq <= epsilon * y_sq * (1 + 1e-9)
    assert trace.final_error_ratio == pytest.approx(r_act_sq / y_sq, rel=1e-9)
    # the untrimmed residual is above the target: only the trimmed one stopped
    assert float(r @ r) > epsilon * y_sq
    seq = [rec.residual_sq for rec in trace.iterations]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(seq, seq[1:]))


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(2, 30), d=st.integers(2, 6), data_seed=st.integers(0, 2 ** 16),
       fit_seed=st.integers(0, 2 ** 16), trim_sq=st.floats(1.0, 2.0),
       epsilon=st.floats(0.01, 0.5), kind=st.sampled_from(["relu", "noise", "flaky"]))
def test_boost_monotone_property(n, d, data_seed, fit_seed, trim_sq, epsilon, kind):
    """With a finite trim_sq and any builder, each iteration's active residual
    is no larger than the last and the active set never grows, also in the
    trace of a fit that stops with ConvergenceError.  Builders: a random ReLU
    neuron, values that are pure noise, or a ReLU neuron or None at random.
    With +-1 labels and trim_sq >= 1 every point starts active, and most
    examples trim some during the fit."""
    ds = _dataset(n, d, data_seed)

    def builder(r, attempt_seed):
        rng = np.random.default_rng(attempt_seed)
        if kind == "flaky" and rng.random() < 0.3:
            return None
        w, b, sign = rng.standard_normal(d), rng.standard_normal(), rng.choice([-1.0, 1.0])
        vals = rng.standard_normal(n) if kind == "noise" else relu(ds.points @ w + b)
        return StepProposal(neurons=[Neuron(sign, w, b)], values=sign * vals)

    try:
        _, trace, active = boost_fit(builder, ds, epsilon, max_iters=40, seed=fit_seed,
                                     trim_sq=trim_sq)
        final = [int(active.sum())]
    except ConvergenceError as err:
        trace, final = err.trace, []
    res = [rec.residual_sq for rec in trace.iterations]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(res, res[1:]))
    sizes = [rec.active_set_size for rec in trace.iterations] + final
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_boost_zero_labels():
    ds = sample_sphere(5, 3, 0)  # labels all zero
    net, trace, _ = boost_fit(lambda r, s: None, ds, epsilon=0.5, max_iters=5)
    assert net.k == 0 and trace.final_error_ratio == 0.0


def test_boost_epsilon_validation():
    ds = _dataset()
    with pytest.raises(ParameterError):
        boost_fit(lambda r, s: None, ds, epsilon=0.0, max_iters=5)
    with pytest.raises(ParameterError):
        boost_fit(lambda r, s: None, ds, epsilon=1.5, max_iters=5)


def test_trace_csv(tmp_path):
    ds = _dataset()

    def builder(r, seed):
        return StepProposal(neurons=[Neuron(1.0, np.zeros(ds.d), 1.0)], values=r.copy())

    net, trace, _ = boost_fit(builder, ds, epsilon=0.5, max_iters=10)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("iteration,residual_sq")
    assert len(lines) == 1 + len(trace.iterations)


def test_trace_csv_header_names_the_record_fields(tmp_path):
    """The header is ``iteration`` followed by IterationRecord's field names,
    in order, and each row is the iteration index followed by its record."""
    trace = FitTrace(iterations=[IterationRecord(4.0, 0.5, 0.25, 2.0, 1, 7)])
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    header, row = path.read_text().splitlines()
    names = [f.name for f in dataclasses.fields(IterationRecord)]
    assert header.split(",") == ["iteration", *names]
    assert row == "0,4.0,0.5,0.25,2.0,1,7"
