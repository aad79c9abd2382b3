"""Datasets: synthetic samplers, genericity statistics, and (de)serialization.

A dataset is an immutable collection of ``n`` points in ``R^d`` with real
labels.  The genericity report carries the coherence ``gamma`` (largest
normalized inner product between distinct points), the spread parameter
``omega`` (``d`` times the top eigenvalue of the empirical second moment
matrix) and the minimal row norm.  gamma comes from a scan of the n x n
normalized Gram matrix in blocks of 128 rows, so no n x n temporary is
built: each block is one product X[s:s+128] X^T, divided in place by the
outer product of row norms, with its diagonal entries zeroed.
``general_position`` is a separate, costlier probabilistic certificate
that no fit needs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError

_MAGIC = b"MEMNETDS"
_BLOCK = 128  # rows per block of the coherence scan, which reuses two 128 x n buffers
_MIN_NORM = float(np.sqrt(np.finfo(np.float64).tiny))  # squared norm still normal


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only C-contiguous float64 array: itself when it
    already is one, else a frozen copy, so a caller's array stays writable."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.flags.writeable or not arr.flags.c_contiguous:
        arr = np.array(arr, order="C")
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """n points in R^d (rows of ``points``) with real labels."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts, lab = _frozen(self.points), _frozen(self.labels)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ParameterError("points must be a nonempty n x d matrix")
        if lab.shape != (pts.shape[0],):
            raise ParameterError("labels must be a length-n vector")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(lab))):
            raise DataError("points and labels must be finite")
        if np.any(np.all(pts == 0.0, axis=1)):
            raise DataError("dataset contains a zero row")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        return Dataset(self.points, np.asarray(labels, dtype=np.float64))


@dataclass(frozen=True)
class GenericityReport:
    gamma: float
    omega: float
    min_norm: float

    def gamma_clamped(self, n: int) -> float:
        """Coherence clamped below at 1/(2n), for log(1/gamma) consumers."""
        return max(self.gamma, 1.0 / (2.0 * n))


def row_norms(A: np.ndarray) -> np.ndarray:
    """The 2-norms along the last axis: the square root of the sum of squares, and
    ``np.hypot.reduce`` for the rows whose sum of squares leaves float64's normal
    numbers (overflows, or loses bits)."""
    norms = np.sqrt(np.einsum("...i,...i->...", A, A))
    bad = (norms < _MIN_NORM) | (norms == np.inf)
    norms[bad] = np.hypot.reduce(A[bad], axis=-1)
    return norms


def max_row_norm(points: np.ndarray) -> np.ndarray:
    """The largest ``row_norms``; over a stack of point sets, one per set."""
    return row_norms(points).max(axis=-1)


def norm_exponent(points: np.ndarray) -> np.ndarray:
    """The integer nearest log2 of the largest row norm m 2^e (m in [1/2, 1)), exact under
    powers of two: e - 1 when m < 2^-1/2, else e; over a stack of point sets, one per set."""
    m, e = np.frexp(max_row_norm(points))
    return e - (m < 2 ** -0.5)


def unit_frame(ds: Dataset) -> tuple[Dataset, int]:
    """(ds', k): the points times 2^-k by ``np.ldexp``, k = ``norm_exponent``; ``ds`` when k = 0."""
    k = int(norm_exponent(ds.points))
    return (ds, 0) if k == 0 else (Dataset(np.ldexp(ds.points, -k), ds.labels), k)


def sample_sphere(n: int, d: int, seed: int) -> Dataset:
    """i.i.d. uniform points on the unit sphere S^{d-1}, labels zero.

    Deterministic given ``seed`` (normalized Gaussian rows).  ParameterError
    when numpy refuses the n x d array (too large, or out of memory).
    """
    if n < 1 or d < 2:
        raise ParameterError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    try:
        pts = rng.standard_normal((n, d))
    except (ValueError, MemoryError) as err:
        raise ParameterError(f"cannot sample {n} x {d} points: {err}") from None
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    # Resample the (measure-zero) degenerate rows rather than dividing by ~0.
    while np.any(norms < 1e-8):
        bad = norms[:, 0] < 1e-8
        pts[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
    return Dataset(pts / norms, np.zeros(n))


def rademacher_labels(ds: Dataset, seed: int) -> Dataset:
    """Replace labels by i.i.d. uniform +-1; points unchanged."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=ds.n) * 2.0 - 1.0
    return ds.with_labels(labels)


def gaussian_labels(ds: Dataset, seed: int) -> Dataset:
    """Replace labels by i.i.d. standard normals; points unchanged."""
    rng = np.random.default_rng(seed)
    return ds.with_labels(rng.standard_normal(ds.n))


def genericity(ds: Dataset) -> GenericityReport:
    """Measure (gamma, omega) and the minimal row norm.

    gamma is the exact max pairwise normalized coherence, omega is
    ``d * lambda_max((1/n) sum x_i x_i^T)``.  DataError when the squared row
    norms, a normalized Gram block or the second moment leave the float64
    range (rows scaled by 1e160 or 1e-170).
    """
    X = ds.points
    n, d = X.shape
    with np.errstate(over="ignore", invalid="ignore"):  # out-of-range rows raise below
        norms = np.linalg.norm(X, axis=1)
        if not (np.isfinite(norms).all() and norms.min() >= _MIN_NORM):
            raise DataError("squared row norms leave the float64 range")
        gamma = 0.0
        gram, outer = np.empty((min(_BLOCK, n), n)), np.empty((min(_BLOCK, n), n))
        for s in range(0, n, _BLOCK):
            C = np.matmul(X[s:s + _BLOCK], X.T, out=gram[:min(_BLOCK, n - s)])
            C /= np.multiply.outer(norms[s:s + _BLOCK], norms, out=outer[:len(C)])
            rows = np.arange(len(C))
            C[rows, s + rows] = 0.0  # a single point has coherence 0
            gamma = np.max([gamma, C.max(), -C.min()])  # a NaN propagates
        if not np.isfinite(gamma):
            raise DataError("normalized Gram matrix of the rows leaves the float64 range")
        second_moment = (X.T @ X) / n
        omega = (d * float(np.linalg.eigvalsh(second_moment)[-1])
                 if np.isfinite(second_moment).all() else math.inf)
    if not math.isfinite(omega):
        raise DataError("second moment of the rows leaves the float64 range")
    return GenericityReport(gamma=float(gamma), omega=omega, min_norm=float(norms.min()))


def general_position(ds: Dataset) -> bool:
    """Probabilistic general-position certificate: 32 random d-subsets of
    rows (seed 0) each give a d x d submatrix with condition number below
    1e12.  Stops at the first failing subset; True when n < d."""
    n, d = ds.points.shape
    rng = np.random.default_rng(0)
    draws = (rng.choice(n, size=d, replace=False) for _ in range(32))
    return n < d or all(np.linalg.cond(ds.points[idx]) < 1e12 for idx in draws)


def save_dataset(ds: Dataset, path: str, label_kind: str = "unknown") -> None:
    """Write the binary format: JSON header line, then row-major little-endian
    float64 points followed by labels."""
    header = json.dumps({"n": ds.n, "d": ds.d, "label_kind": label_kind})
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(ds.points.astype("<f8").tobytes())
        fh.write(ds.labels.astype("<f8").tobytes())


def load_dataset(path: str) -> Dataset:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from None
    if not raw.startswith(_MAGIC):
        raise DataError(f"{path}: not a memnet dataset file")
    end = raw.find(b"\n", len(_MAGIC))
    if end < 0:
        raise DataError(f"{path}: truncated header")
    try:
        header = json.loads(raw[len(_MAGIC):end].decode("utf-8"))
        n, d = int(header["n"]), int(header["d"])
    except (ValueError, KeyError, TypeError) as err:
        raise DataError(f"{path}: malformed header: {err}") from None
    if n < 1 or d < 1:
        raise DataError(f"{path}: header needs n >= 1 and d >= 1, got n={n}, d={d}")
    payload = raw[end + 1:]
    if len(payload) != 8 * n * (d + 1):
        raise DataError(f"{path}: payload holds {len(payload)} bytes, "
                        f"expected {8 * n * (d + 1)} for n={n}, d={d}")
    values = np.frombuffer(payload, dtype="<f8")
    return Dataset(values[:n * d].reshape(n, d), values[n * d:])


def load_csv(path: str) -> Dataset:
    """CSV import: one row per point, last column is the label."""
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as err:
        raise DataError(f"{path}: {err}") from None
    if raw.shape[1] < 2:
        raise DataError("CSV needs at least one feature column plus a label")
    return Dataset(raw[:, :-1], raw[:, -1])
