"""Exact memorization constructions: generic n-neuron fit, Baum threshold
networks, and the four-ReLU-per-group derivative-neuron network.

The derivative neuron of psi is the finite difference

    f_{delta,u,v,b}(x) = [psi((u + delta v) . x - b) - psi(u . x - b)] / delta

which, for the ReLU and delta below half the data's margin-to-slope ratio,
coincides on every data point with psi'(u . x - b) * (v . x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, DegenerateDataError, RankDeficiencyError
from .network import Neuron, TwoLayerNetwork, evaluate, relu

_SLOPE_EPS = 1e-14


@dataclass(frozen=True)
class DerivativeNeuronPair:
    """Two ReLU neurons realizing the derivative neuron f_{delta,u,v,b}."""

    u: np.ndarray
    v: np.ndarray
    b: float
    delta: float

    def neurons(self, sign: float = 1.0) -> tuple[Neuron, Neuron]:
        s = sign / self.delta
        return (Neuron(s, self.u + self.delta * self.v, -self.b),
                Neuron(-s, self.u, -self.b))

    def values(self, points: np.ndarray) -> np.ndarray:
        """Exact finite-difference evaluation (the two-ReLU realization)."""
        hi = np.maximum(points @ (self.u + self.delta * self.v) - self.b, 0.0)
        lo = np.maximum(points @ self.u - self.b, 0.0)
        return (hi - lo) / self.delta


def safe_delta(margins: np.ndarray, slopes: np.ndarray) -> float:
    """delta = (1/2) min_i |margins_i| / |slopes_i|, skipping near-zero slopes,
    for the margins u.x_i - b and slopes v.x_i of a derivative neuron."""
    slopes = np.abs(slopes)
    keep = slopes >= _SLOPE_EPS
    if not keep.any():
        return 1.0
    return float(0.5 * np.min(np.abs(margins[keep]) / slopes[keep]))


def _features(points: np.ndarray, W: np.ndarray, b: np.ndarray,
              dtype=np.float64) -> np.ndarray:
    """relu(x_i . w_j + b_j) as a column-major (n, len(W)) ``dtype`` array,
    computed in float64 for n rows of W at a time."""
    n = len(points)
    A = np.empty((len(W), n), dtype)
    with np.errstate(over="ignore"):  # past float32's range: inf, which fails its rank test
        for s in range(0, len(W), n):
            A[s:s + n] = relu(W[s:s + n] @ points.T + b[s:s + n, None])
    return A.T


def exact_fit_generic(ds: Dataset, seed: int = 0) -> TwoLayerNetwork:
    """Exact ReLU fit with exactly n neurons via random features + column selection.

    Samples 10 n random (w, b) pairs, selects n independent columns of the
    evaluation matrix by pivoted QR, and solves for the outer coefficients.

    The pivots come from LAPACK sgeqp3 on a float32 n x 10n matrix (160 MB
    at n=2000), factored in place: a pivot order is only a heuristic, which
    the float64 solve and residual check certify. When the float32 |R_nn| is
    at most 100 float32 eps times max(|R_11|, 1), dgeqp3 redoes the selection
    on the float64 matrix, built after the float32 one is freed, and a float64
    |R_nn| at most 1e-10 max(|R_11|, 1) is rank deficient. The n selected
    columns are rebuilt in float64 for the solve. The workspace query passes
    overwrite_a too (without it the wrapper copies the matrix), and its lwork
    selects the blocked algorithm.
    """
    n, d = ds.n, ds.d
    rng = np.random.default_rng(seed)
    K = 10 * n
    W = rng.standard_normal((K, d))
    b = rng.standard_normal(K)
    from scipy.linalg import lapack
    for geqp3, dtype, tol in ((lapack.sgeqp3, np.float32, 100 * np.finfo(np.float32).eps),
                              (lapack.dgeqp3, np.float64, 1e-10)):
        A = _features(ds.points, W, b, dtype)
        lwork = int(geqp3(A, lwork=-1, overwrite_a=1)[3][0])
        A, piv = geqp3(A, lwork=lwork, overwrite_a=1)[:2]
        diag = np.abs(np.diagonal(A))
        del A
        if diag[n - 1] > tol * max(diag[0], 1.0):
            break
    else:
        raise RankDeficiencyError(
            f"rank {int(np.sum(diag > tol * max(diag[0], 1.0)))} < n={n} "
            f"within {K} candidates")
    cols = piv[:n] - 1                                # geqp3 pivots are 1-based
    a = np.linalg.solve(_features(ds.points, W[cols], b[cols]), ds.labels)
    net = TwoLayerNetwork(tuple(Neuron(a[j], W[cols[j]], b[cols[j]]) for j in range(n)))
    resid = np.linalg.norm(evaluate(net, ds) - ds.labels)
    if resid > 1e-6 * max(1.0, np.linalg.norm(ds.labels)):
        raise RankDeficiencyError(f"selected columns too ill-conditioned (residual {resid:.3e})")
    return net


def _hyperplane_through(points_group: np.ndarray) -> tuple[np.ndarray, float]:
    """(u, b) with ||u|| = 1 and u . x = b for each group row.

    Solves the homogeneous system [X, -1] (u, b) = 0 by SVD null space.
    """
    g, d = points_group.shape
    M = np.hstack([points_group, -np.ones((g, 1))])
    _, _, Vt = np.linalg.svd(M, full_matrices=True)
    null = Vt[-1]
    u, b = null[:d], null[d]
    norm = np.linalg.norm(u)
    if norm < 1e-12:
        raise DegenerateDataError("degenerate hyperplane (zero normal)")
    return u / norm, float(b / norm)


def _slab_half_width(offsets: np.ndarray, group: np.ndarray) -> float:
    """tau: half the distance from the hyperplane u . x = b through the group
    to the nearest other point (1 when there is none), from the offsets
    u . x_i - b of all n points."""
    others = np.ones(len(offsets), dtype=bool)
    others[group] = False
    tau = 0.5 * float(np.min(np.abs(offsets[others]))) if others.any() else 1.0
    if tau <= 1e-12:
        raise DegenerateDataError(
            f"another point lies on the group hyperplane (group {group.tolist()})")
    return tau


def _retry_partitions(ds: Dataset, indices: np.ndarray, build, seed: int, what: str):
    """``build(groups)`` over random partitions of ``indices`` into groups of
    at most d points, drawing a fresh partition while it raises
    DegenerateDataError, at most 20 times."""
    last_err: Exception | None = None
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        idx = indices[rng.permutation(len(indices))]
        try:
            return build([idx[i:i + ds.d] for i in range(0, len(idx), ds.d)])
        except DegenerateDataError as err:
            last_err = err
    raise DegenerateDataError(f"{what} failed after 20 partitions: {last_err}")


def baum_threshold_fit(ds: Dataset, seed: int = 0) -> TwoLayerNetwork:
    """Baum's combinatorial construction for binary {0,1} labels.

    Groups of at most d minority points are each captured by the indicator
    of a thin slab around a hyperplane through the group (two threshold
    neurons); one extra constant neuron flips the picture when label 1 is
    the majority.  Exact fit with at most 2*ceil(n_minority/d) + 1 neurons.
    """
    y = ds.labels
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("baum_threshold_fit needs labels in {0, 1}")
    ones = int(np.sum(y == 1.0))
    minority_label = 1.0 if ones <= ds.n - ones else 0.0
    minority_idx = np.flatnonzero(y == minority_label)

    neurons: list[Neuron] = []
    if len(minority_idx) > 0:
        neurons = _retry_partitions(ds, minority_idx,
                                    lambda groups: _indicator_slabs(ds, groups),
                                    seed, "indicator construction")
    if minority_label == 0.0:
        # f = 1 - (indicator of 0-points): negate and add the constant neuron.
        neurons = [Neuron(-nr.a, nr.w, nr.b) for nr in neurons]
        neurons.append(Neuron(1.0, np.zeros(ds.d), 1.0))
    net = TwoLayerNetwork(tuple(neurons), "threshold")
    if np.max(np.abs(evaluate(net, ds) - y), initial=0.0) > 1e-9:
        raise DegenerateDataError("threshold construction failed to certify the fit")
    return net


def _indicator_slabs(ds: Dataset, groups: list[np.ndarray]) -> list[Neuron]:
    """Two threshold neurons per group realizing the indicator of its points."""
    neurons: list[Neuron] = []
    for group in groups:
        u, b = _hyperplane_through(ds.points[group])
        tau = _slab_half_width(ds.points @ u - b, group)
        neurons += [Neuron(1.0, u, -(b - tau)), Neuron(-1.0, u, -(b + tau))]
    return neurons


def baum_relu_fit(ds: Dataset, seed: int = 0) -> TwoLayerNetwork:
    """Exact ReLU fit of arbitrary real labels with at most 4*ceil(n/d) neurons.

    Per group of at most d points: a hyperplane through the group, a slope
    vector v with X_group v = y_group, and the difference of two derivative
    neurons at biases b -+ tau, which is supported on a thin slab around the
    hyperplane and linear (equal to v . x) on it.
    """
    def build(groups):
        net = TwoLayerNetwork(tuple(nr for group in groups
                                    for nr in _group_neurons(ds, group)), "relu")
        if np.max(np.abs(evaluate(net, ds) - ds.labels)) > 1e-6:
            raise DegenerateDataError("construction failed to certify the fit")
        return net

    return _retry_partitions(ds, np.arange(ds.n), build, seed, "baum_relu_fit")


def _group_neurons(ds: Dataset, group: np.ndarray) -> list[Neuron]:
    """The group's four neurons; u and v each project the n points once."""
    Xg, yg = ds.points[group], ds.labels[group]
    u, b = _hyperplane_through(Xg)
    if len(group) == ds.d:
        try:
            v = np.linalg.solve(Xg, yg)
        except np.linalg.LinAlgError:
            raise DegenerateDataError(f"singular group system (group {group.tolist()})")
    else:
        v = np.linalg.lstsq(Xg, yg, rcond=None)[0]
    if np.max(np.abs(Xg @ v - yg), initial=0.0) > 1e-8 * max(1.0, np.max(np.abs(yg), initial=0.0)):
        raise DegenerateDataError(f"group labels not realizable (group {group.tolist()})")
    xu, xv = ds.points @ u, ds.points @ v
    tau = _slab_half_width(xu - b, group)
    out: list[Neuron] = []
    for bias, sign in ((b - tau, 1.0), (b + tau, -1.0)):
        pair = DerivativeNeuronPair(u, v, bias, safe_delta(xu - bias, xv))
        out.extend(pair.neurons(sign))
    return out
