"""Exact memorization constructions: generic n-neuron fit, Baum threshold
networks, and the four-ReLU-per-group derivative-neuron network.

All three fits run on ``data.unit_frame``'s points and return their network
through ``network.from_unit_frame``: the points times 2^k give the unit network
with w 2^-k, bit for bit.  A Baum slab is measured in the power of two nearest
its group's largest row norm.

The derivative neuron of psi is the finite difference

    f_{delta,u,v,b}(x) = [psi((u + delta v) . x - b) - psi(u . x - b)] / delta

which, for the ReLU and delta below half the data's margin-to-slope ratio,
coincides on every data point with psi'(u . x - b) * (v . x).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os

import numpy as np

from .data import Dataset, norm_exponent, unit_frame
from .errors import DataError, DegenerateDataError, RankDeficiencyError
from .network import Neuron, TwoLayerNetwork, evaluate, from_unit_frame, relu

_SLOPE_EPS = 1e-14


def derivative_neurons(u: np.ndarray, v: np.ndarray, b: float, delta: float,
                       sign: float = 1.0) -> tuple[Neuron, Neuron]:
    """Two ReLU neurons realizing sign * f_{delta,u,v,b}."""
    s = sign / delta
    return Neuron(s, u + delta * v, -b), Neuron(-s, u, -b)


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
    for s in range(0, len(W), n):
        A[s:s + n] = relu(W[s:s + n] @ points.T + b[s:s + n, None])
    return A.T


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrappers, the extension module
    ``scipy/linalg/_flapack`` whose functions ``scipy.linalg.lapack``
    re-exports, loaded from its file: ``find_spec`` locates scipy without
    importing it, so ``scipy.linalg``'s package init never runs.  Falls back
    to ``scipy.linalg.lapack`` when that file is not on disk (an editable or
    unusual install).  CPython registers the extension under its own name, so
    a later ``import scipy.linalg`` reuses this module and its functions."""
    spec = importlib.util.find_spec("scipy")
    roots = (spec.submodule_search_locations or []) if spec else []
    for path in (os.path.join(root, "linalg", "_flapack" + suffix)
                 for root in roots for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        if os.path.isfile(path):
            ext = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(ext)
            ext.loader.exec_module(module)
            return module
    from scipy.linalg import lapack
    return lapack


def exact_fit_generic(ds: Dataset, seed: int = 0) -> TwoLayerNetwork:
    """Exact ReLU fit with exactly n neurons via random features + column selection.

    Samples 10 n random (w, b) pairs, selects n independent columns of the
    evaluation matrix by pivoted QR, and solves for the outer coefficients.
    It fits ``unit_frame``'s points, so the N(0, 1) biases meet features of
    their own scale, far inside float32's range.

    The pivots come from LAPACK sgeqp3 on a float32 n x 10n matrix (160 MB
    at n=2000), factored in place: a pivot order is only a heuristic, which
    the float64 solve and residual check certify. When the float32 |R_nn| is
    at most 100 float32 eps times max(|R_11|, 1), dgeqp3 redoes the selection
    on the float64 matrix, built after the float32 one is freed, and a float64
    |R_nn| at most 1e-10 max(|R_11|, 1) is rank deficient. The n selected
    columns are rebuilt in float64 for the solve. The workspace query passes
    overwrite_a too (without it the wrapper copies the matrix), and its lwork
    selects the blocked algorithm.

    sgeqp3 and dgeqp3 come from ``_lapack``, scipy's compiled wrappers loaded
    alone: importing ``scipy.linalg`` would load 334 modules and 28.4 MB of
    resident memory for these two functions, and take 0.33-0.36 s against
    10 ms for the extension (scipy 1.17, 2-vCPU VM) on the first fit of a
    process.  They are the very objects ``scipy.linalg.lapack`` exports, so
    the pivots and networks are those of scipy's own routines.
    """
    ds, k = unit_frame(ds)
    n, d, X = ds.n, ds.d, ds.points
    rng = np.random.default_rng(seed)
    K = 10 * n
    W = rng.standard_normal((K, d))
    b = rng.standard_normal(K)
    lapack = _lapack()
    for geqp3, dtype, tol in ((lapack.sgeqp3, np.float32, 100 * np.finfo(np.float32).eps),
                              (lapack.dgeqp3, np.float64, 1e-10)):
        A = _features(X, W, b, dtype)
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
    a = np.linalg.solve(_features(X, W[cols], b[cols]), ds.labels)
    net = TwoLayerNetwork(tuple(Neuron(a[j], W[cols[j]], b[cols[j]]) for j in range(n)))
    resid = np.linalg.norm(evaluate(net, ds) - ds.labels)
    if resid > 1e-6 * max(1.0, np.linalg.norm(ds.labels)):
        raise RankDeficiencyError(f"selected columns too ill-conditioned (residual {resid:.3e})")
    return from_unit_frame(net, k)


def _slab(ds: Dataset, group: np.ndarray) -> tuple[np.ndarray, float, float, np.ndarray]:
    """(u, b, tau, X u): the hyperplane u . x = b, ||u|| = 1, through the group from
    the null vector of [X_group, -s], s = 2^``norm_exponent(X_group)``; tau half the
    distance to the nearest other point (s when there is none); and X u of all n points."""
    Xg = ds.points[group]
    s = 2.0 ** norm_exponent(Xg)
    null = np.linalg.svd(np.hstack([Xg, np.full((len(group), 1), -s)]))[2][-1]
    norm = float(np.linalg.norm(null[:-1]))
    if norm < 1e-12:
        raise DegenerateDataError("degenerate hyperplane (zero normal)")
    u, b = null[:-1] / norm, s * float(null[-1]) / norm
    xu = ds.points @ u
    rest = np.delete(xu, group) - b
    tau = 0.5 * float(np.min(np.abs(rest))) if len(rest) else s
    if tau <= 1e-12 * s:
        raise DegenerateDataError(
            f"another point lies on the group hyperplane (group {group.tolist()})")
    return u, b, tau, xu


def _partition_fit(ds: Dataset, indices: np.ndarray, group_neurons, activation: str,
                   labels: np.ndarray, tol: float, seed: int, what: str) -> TwoLayerNetwork:
    """``group_neurons`` over a random partition of ``indices`` into groups of
    at most d, certified to fit ``labels`` within ``tol``; a new partition is
    drawn on DegenerateDataError from a group or the certificate, 20 at most."""
    ds, k = unit_frame(ds)
    last_err: Exception | None = None
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        idx = indices[rng.permutation(len(indices))]
        try:
            net = TwoLayerNetwork(tuple(nr for i in range(0, len(idx), ds.d)
                                        for nr in group_neurons(ds, idx[i:i + ds.d])), activation)
            if np.max(np.abs(evaluate(net, ds) - labels)) > tol:
                raise DegenerateDataError(f"{what} failed to certify the fit")
            return from_unit_frame(net, k)
        except DegenerateDataError as err:
            last_err = err
    raise DegenerateDataError(f"{what} failed after 20 partitions: {last_err}")


def baum_threshold_fit(ds: Dataset, seed: int = 0) -> TwoLayerNetwork:
    """Baum's combinatorial construction for binary {0,1} labels.

    Groups of at most d minority points are each captured by the indicator
    of a thin slab around a hyperplane through the group (two threshold
    neurons).  When label 1 is the majority, negating them and adding one
    constant neuron gives f = 1 - g exactly (sums of +-1), so certifying g
    certifies f.  Exact fit with at most 2*ceil(n_minority/d) + 1 neurons.
    """
    y = ds.labels
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("baum_threshold_fit needs labels in {0, 1}")
    flip = float(2 * np.sum(y) > ds.n)
    g = np.abs(y - flip)                              # indicator of the minority points
    net = _partition_fit(ds, np.flatnonzero(g), _slab_neurons, "threshold", g, 1e-9,
                         seed, "indicator construction")
    if flip:
        net = TwoLayerNetwork(tuple(nr.scaled(-1.0) for nr in net.neurons)
                              + (Neuron(1.0, np.zeros(ds.d), 1.0),), "threshold")
    return net


def _slab_neurons(ds: Dataset, group: np.ndarray) -> list[Neuron]:
    """Two threshold neurons realizing the indicator of the group's points."""
    u, b, tau, _ = _slab(ds, group)
    return [Neuron(1.0, u, -(b - tau)), Neuron(-1.0, u, -(b + tau))]


def baum_relu_fit(ds: Dataset, seed: int = 0) -> TwoLayerNetwork:
    """Exact ReLU fit of arbitrary real labels with at most 4*ceil(n/d) neurons.

    Per group of at most d points: a hyperplane through the group, a slope
    vector v with X_group v = y_group, and the difference of two derivative
    neurons at biases b -+ tau, which is supported on a thin slab around the
    hyperplane and linear (equal to v . x) on it.
    """
    return _partition_fit(ds, np.arange(ds.n), _group_neurons, "relu", ds.labels, 1e-6,
                          seed, "baum_relu_fit")


def _group_neurons(ds: Dataset, group: np.ndarray) -> list[Neuron]:
    """The group's four neurons; u and v project once."""
    u, b, tau, xu = _slab(ds, group)
    Xg, yg = ds.points[group], ds.labels[group]
    if len(group) == ds.d:
        try:
            v = np.linalg.solve(Xg, yg)
        except np.linalg.LinAlgError:
            raise DegenerateDataError(f"singular group system (group {group.tolist()})")
    else:
        v = np.linalg.lstsq(Xg, yg, rcond=None)[0]
    if np.max(np.abs(Xg @ v - yg), initial=0.0) > 1e-8 * max(1.0, np.max(np.abs(yg), initial=0.0)):
        raise DegenerateDataError(f"group labels not realizable (group {group.tolist()})")
    xv = ds.points @ v
    return [nr for bias, sign in ((b - tau, 1.0), (b + tau, -1.0))
            for nr in derivative_neurons(u, v, bias, safe_delta(xu - bias, xv), sign)]
