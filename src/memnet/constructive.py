"""Exact memorization constructions: generic n-neuron fit, Baum threshold
networks, and the four-ReLU-per-group derivative-neuron network.

All three fits run on ``data.unit_frame``'s points and return their network
through ``network.from_unit_frame``: the points times 2^k give the unit network
with w 2^-k, bit for bit.  A Baum fit builds a partition's groups at once, one LU
per full group giving its hyperplane and slopes, each slab measured in the power of
two nearest its group's largest row norm.

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

from .data import Dataset, norm_exponent, row_norms, unit_frame
from .errors import DataError, DegenerateDataError, RankDeficiencyError
from .network import Neuron, TwoLayerNetwork, evaluate, from_unit_frame, relu

_SLOPE_EPS = 1e-14


def derivative_neurons(u: np.ndarray, v: np.ndarray, b: float, delta: float,
                       sign: float = 1.0) -> tuple[Neuron, Neuron]:
    """Two ReLU neurons realizing sign * f_{delta,u,v,b}."""
    s = sign / delta
    return Neuron(s, u + delta * v, -b), Neuron(-s, u, -b)


def safe_delta(margins: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """delta = (1/2) min_i |margins_i| / |slopes_i| over axis 0, skipping near-zero slopes
    (1 if all are), for the margins u.x_i - b and slopes v.x_i of derivative neurons."""
    slopes = np.abs(slopes)
    keep = slopes >= _SLOPE_EPS
    ratio = np.divide(np.abs(margins), slopes, out=np.full(slopes.shape, np.inf), where=keep)
    return np.where(keep.any(axis=0), 0.5 * ratio.min(axis=0), 1.0)


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
    net = TwoLayerNetwork(zip(a, W[cols], b[cols]))
    resid = np.linalg.norm(evaluate(net, ds) - ds.labels)
    if resid > 1e-6 * max(1.0, np.linalg.norm(ds.labels)):
        raise RankDeficiencyError(f"selected columns too ill-conditioned (residual {resid:.3e})")
    return from_unit_frame(net, k)


@np.errstate(all="ignore")
def _slabs(ds: Dataset, idx: np.ndarray, relu: bool):
    """(U, b, tau, XU, V, XV) over the groups of d consecutive points of ``idx``, the last
    one maybe partial: hyperplanes u_g . x = b_g, ||u_g|| = 1, through group g; tau_g half
    the distance to it of the nearest other point (s_g if none), s_g =
    2^``norm_exponent(X_g)``; v_g with X_g v_g = y_g when ``relu``; XU = X U^T, XV = X V^T.
    One LU per full group solves X_g [u', v_g] = [s_g 1, y_g], u_g = u'/||u'||, b_g =
    s_g/||u'||; a partial group takes the null vector of [X_g, -s_g] and least squares.
    DegenerateDataError names the first group that is singular, whose solve is not finite
    (numpy's warnings stay here), has another point within 1e-12 s_g of its hyperplane, or
    misses its labels, the last three with the spread of its row norms in decades."""
    X, y, d = ds.points, ds.labels, ds.d
    G = len(idx) // d
    full, rest = idx[:G * d].reshape(G, d), idx[G * d:]
    Xg = X[full]
    s = np.ldexp(1.0, norm_exponent(Xg))
    rhs = np.dstack([np.broadcast_to(s[:, None], full.shape), y[full]])[..., :1 + relu]
    try:
        sol = np.linalg.solve(Xg, rhs)
    except np.linalg.LinAlgError:
        g = int(np.argmin(np.abs(np.linalg.slogdet(Xg)[0])))
        raise DegenerateDataError(f"singular group system (group {full[g].tolist()})") from None
    norm = np.linalg.norm(sol[..., 0], axis=1)
    U, b, V = sol[..., 0] / norm[:, None], s / norm, sol[..., -1] if relu else None
    if len(rest):
        sp = np.ldexp(1.0, norm_exponent(X[rest]))
        null = np.linalg.svd(np.hstack([X[rest], np.full((len(rest), 1), -sp)]))[2][-1]
        norm = np.linalg.norm(null[:-1])
        U, b, s = np.vstack([U, null[:-1] / norm]), np.r_[b, sp * null[-1] / norm], np.r_[s, sp]
        V = np.vstack([V, np.linalg.lstsq(X[rest], y[rest], rcond=None)[0]]) if relu else None
    XU, group = X @ U.T, np.arange(len(idx)) // d
    dist = np.abs(XU - b)
    dist[idx, group] = np.inf
    tau = 0.5 * dist.min(axis=0)
    tau = np.where(tau < np.inf, tau, s)
    near = tau <= 1e-12 * s
    off, XV = np.zeros_like(near), None
    finite = np.isfinite(U).all(axis=1) & np.isfinite(b)
    if relu:
        finite &= np.isfinite(V).all(axis=1)
        XV, starts = X @ V.T, np.arange(0, len(idx), d)
        off = (np.maximum.reduceat(np.abs(XV[idx, group] - y[idx]), starts)
               > 1e-8 * np.maximum(1.0, np.maximum.reduceat(np.abs(y[idx]), starts)))
    bad = np.flatnonzero(~finite | near | off)
    if len(bad):
        g = bad[0]
        what = ("group solve is not finite" if not finite[g]
                else "another point lies on the group hyperplane" if near[g]
                else "group labels not realizable")
        rows = idx[g * d:(g + 1) * d]
        spread = np.ptp(np.log10(row_norms(X[rows])))
        raise DegenerateDataError(f"{what} (group {rows.tolist()}, row norms spread over "
                                  f"{spread:.1f} decades)")
    return U, b, tau, XU, V, XV


def _partition_neurons(ds: Dataset, idx: np.ndarray, relu: bool) -> list[Neuron]:
    """Per group of ``_slabs``: two threshold neurons realizing the indicator of its
    slab, or, when ``relu``, the two derivative neurons of opposite sign at biases
    b -+ tau, supported on the slab and equal to v . x on it."""
    U, b, tau, XU, V, XV = _slabs(ds, idx, relu)
    lo, hi = b - tau, b + tau
    if not relu:
        return [nr for g in range(len(b))
                for nr in (Neuron(1.0, U[g], -lo[g]), Neuron(-1.0, U[g], -hi[g]))]
    d_lo, d_hi = safe_delta(XU - lo, XV), safe_delta(XU - hi, XV)
    return [nr for g in range(len(b))
            for nr in (*derivative_neurons(U[g], V[g], lo[g], d_lo[g]),
                       *derivative_neurons(U[g], V[g], hi[g], d_hi[g], -1.0))]


def _partition_fit(ds: Dataset, indices: np.ndarray, activation: str, labels: np.ndarray,
                   tol: float, seed: int, what: str) -> TwoLayerNetwork:
    """``_partition_neurons`` over a random partition of ``indices`` into groups of
    at most d, certified to fit ``labels`` within ``tol``; a new partition is
    drawn on DegenerateDataError from a group or the certificate, 20 at most."""
    ds, k = unit_frame(ds)
    last_err: Exception | None = None
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        idx = indices[rng.permutation(len(indices))]
        try:
            net = TwoLayerNetwork(_partition_neurons(ds, idx, activation == "relu"), activation)
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
    net = _partition_fit(ds, np.flatnonzero(g), "threshold", g, 1e-9, seed,
                         "indicator construction")
    if flip:
        net = TwoLayerNetwork([*zip(-net.a, net.W, net.b), Neuron(1.0, np.zeros(ds.d), 1.0)],
                              "threshold")
    return net


def baum_relu_fit(ds: Dataset, seed: int = 0) -> TwoLayerNetwork:
    """Exact ReLU fit of arbitrary real labels with at most 4*ceil(n/d) neurons.

    Per group of at most d points: a hyperplane through the group, a slope
    vector v with X_group v = y_group, and the difference of two derivative
    neurons at biases b -+ tau, which is supported on a thin slab around the
    hyperplane and linear (equal to v . x) on it.
    """
    tol = 1e-6 * max(1.0, float(np.max(np.abs(ds.labels))))
    return _partition_fit(ds, np.arange(ds.n), "relu", ds.labels, tol, seed, "baum_relu_fit")
