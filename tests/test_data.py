import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from memnet.data import (Dataset, gaussian_labels, general_position,
                         genericity, load_csv, load_dataset, rademacher_labels,
                         sample_sphere, save_dataset, unit_frame)
from memnet.errors import DataError, ParameterError
from probes import dense_genericity


def test_sample_sphere_unit_rows():
    ds = sample_sphere(1, 3, 0)
    assert ds.n == 1 and ds.d == 3
    assert abs(np.linalg.norm(ds.points[0]) - 1.0) < 1e-12
    ds = sample_sphere(50, 7, 3)
    norms = np.linalg.norm(ds.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert np.all(ds.labels == 0.0)


def test_sample_sphere_deterministic():
    a = sample_sphere(20, 5, 42)
    b = sample_sphere(20, 5, 42)
    assert np.array_equal(a.points, b.points)
    c = sample_sphere(20, 5, 43)
    assert not np.array_equal(a.points, c.points)


def test_sample_sphere_bad_dims():
    with pytest.raises(ParameterError):
        sample_sphere(0, 3, 0)
    with pytest.raises(ParameterError):
        sample_sphere(5, 1, 0)


def test_sphere_coherence_typical_scale():
    # max coherence of n points on S^{d-1} concentrates below 5*sqrt(ln n / d)
    hits = 0
    for seed in range(30):
        rep = genericity(sample_sphere(500, 100, seed))
        if rep.gamma <= 5.0 * np.sqrt(np.log(500) / 100):
            hits += 1
    assert hits >= 29


def test_sphere_omega_typical_scale():
    omegas = [genericity(sample_sphere(200, 50, s)).omega for s in range(30)]
    assert np.mean(np.array(omegas) <= 4.0) >= 0.95


def test_rademacher_labels():
    ds = rademacher_labels(sample_sphere(4, 3, 0), 1)
    assert set(ds.labels) <= {-1.0, 1.0}
    ds = rademacher_labels(sample_sphere(100, 3, 0), 5)
    assert float(ds.labels @ ds.labels) == 100.0


def test_rademacher_sum_concentration():
    n = 10000
    ds = sample_sphere(n, 2, 0)
    ok = sum(abs(rademacher_labels(ds, s).labels.sum()) <= 4 * np.sqrt(n)
             for s in range(100))
    assert ok >= 99


def test_gaussian_labels_points_unchanged():
    ds = sample_sphere(10, 4, 0)
    ds2 = gaussian_labels(ds, 7)
    assert np.array_equal(ds.points, ds2.points)
    assert not np.array_equal(ds.labels, ds2.labels)


def test_genericity_orthonormal():
    ds = Dataset(np.eye(5), np.zeros(5))
    rep = genericity(ds)
    assert rep.gamma == 0.0
    assert abs(rep.omega - 1.0) < 1e-10
    assert rep.min_norm == 1.0


def test_genericity_duplicate_rows():
    pts = np.vstack([np.eye(3), np.eye(3)[0]])
    rep = genericity(Dataset(pts, np.zeros(4)))
    assert abs(rep.gamma - 1.0) < 1e-14


def test_genericity_matches_bruteforce():
    ds = sample_sphere(100, 20, 11)
    rep = genericity(ds)
    best = 0.0
    X = ds.points
    for i in range(ds.n):
        for j in range(i + 1, ds.n):
            c = abs(X[i] @ X[j]) / (np.linalg.norm(X[i]) * np.linalg.norm(X[j]))
            best = max(best, c)
    assert abs(rep.gamma - best) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 800])
def test_blocked_genericity_equals_dense_formula(n):
    """On sphere points and with the last row a copy of the one before it
    (gamma 1 within rounding, from C.max()) or its negation (from -C.min()):
    the pair straddles two blocks at n = 129 and 257 and shares the last
    block at n = 800.  omega and min_norm are bit for bit the dense
    formula's; so is gamma when the scan is one block (n <= 128: the same
    product).  Past one block gamma is within 2 ulps: BLAS rounds an entry
    of a 128-row block and of the whole X X^T differently at its edge tiles
    (n = 129 moves gamma by 1 ulp on OpenBLAS)."""
    pts = sample_sphere(n, 20, n).points
    cases = [pts]
    if n > 1:
        cases += [np.vstack([pts[:-1], sign * pts[-2]]) for sign in (1.0, -1.0)]
    for points in cases:
        ds = Dataset(points, np.zeros(n))
        rep = genericity(ds)
        gamma, omega, min_norm = dense_genericity(ds)
        assert (rep.omega, rep.min_norm) == (omega, min_norm)
        assert abs(rep.gamma - gamma) <= (0.0 if n <= 128 else 2 * np.spacing(gamma))
        if points is not pts:
            assert abs(rep.gamma - 1.0) < 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, what", [(1e160, "squared row norms"),
                                         (1e-170, "squared row norms"),
                                         (1.3e154, "second moment")])
def test_genericity_outside_float_range_is_a_data_error(scale, what):
    """Squared norms past the float64 maximum or below its least normal
    number, or a second moment that overflows in part while the squared
    norms (1.69e308) do not, which LAPACK fails to diagonalize, raise
    DataError, without a warning, instead of NaN or a LinAlgError."""
    pts = sample_sphere(30, 10, 0).points
    with pytest.raises(DataError, match=what):
        genericity(Dataset(scale * pts, np.zeros(30)))


@pytest.mark.parametrize("scale, k", [(1.0, 0), (0.6, -1), (1e-170, -565),
                                      (1e160, 532), (1.5e308, 1024)])
def test_unit_frame_exponent_has_no_float64_cap(scale, k):
    """k is the integer nearest log2 of the largest row norm, 1024 for rows of
    norm 1.5e308 (2^1024 is past float64), and the points are scaled by
    ``np.ldexp``; unit rows give the dataset itself."""
    ds = rademacher_labels(sample_sphere(30, 10, 0), 1)
    big = Dataset(scale * ds.points, ds.labels)
    framed, got = unit_frame(big)
    assert got == k and framed.labels is big.labels
    assert framed is big if k == 0 else np.array_equal(framed.points, np.ldexp(big.points, -k))


def test_genericity_omega_consistency():
    """(1/n) sum x x^T <= (omega/d) I within tolerance."""
    ds = sample_sphere(60, 10, 2)
    rep = genericity(ds)
    M = (ds.points.T @ ds.points) / ds.n
    lam = np.linalg.eigvalsh(M)
    assert np.all(lam <= rep.omega / ds.d + 1e-10)


def test_genericity_permutation_invariant():
    ds = sample_sphere(40, 8, 5)
    rep = genericity(ds)
    perm = np.random.default_rng(0).permutation(40)
    rep2 = genericity(Dataset(ds.points[perm], ds.labels[perm]))
    assert abs(rep.gamma - rep2.gamma) < 1e-14
    assert abs(rep.omega - rep2.omega) < 1e-10


def test_genericity_rotation_and_sign_invariant():
    ds = sample_sphere(40, 8, 5)
    rep = genericity(ds)
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    signs = rng.choice([-1.0, 1.0], size=40)
    rep2 = genericity(Dataset((signs[:, None] * ds.points) @ Q, ds.labels))
    assert abs(rep.gamma - rep2.gamma) < 1e-10
    assert abs(rep.omega - rep2.omega) < 1e-10


def test_general_position_certificate():
    assert general_position(sample_sphere(60, 10, 0))
    assert general_position(sample_sphere(3, 10, 0))  # n < d: nothing to test
    pts = sample_sphere(5, 5, 1).points.copy()
    pts[4] = pts[0]  # n = d: the only d-subset holds both copies
    assert not general_position(Dataset(pts, np.zeros(5)))


def test_gamma_clamp():
    rep = genericity(Dataset(np.eye(4), np.zeros(4)))
    assert rep.gamma_clamped(4) == 1.0 / 8.0


def test_dataset_validation():
    with pytest.raises(ParameterError):
        Dataset(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ParameterError):
        Dataset(np.eye(3), np.zeros(4))
    with pytest.raises(DataError):
        Dataset(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2))
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan, 1.0]]), np.zeros(1))


def test_dataset_immutable():
    ds = sample_sphere(5, 3, 0)
    with pytest.raises(ValueError):
        ds.points[0, 0] = 2.0


def test_dataset_copies_writable_arrays():
    """The caller's writable arrays stay writable, and writing them leaves
    the dataset unchanged."""
    pts, lab = np.ones((3, 2)), np.zeros(3)
    ds = Dataset(pts, lab)
    pts[0, 0] = 2.0
    lab[0] = 1.0
    assert ds.points[0, 0] == 1.0 and ds.labels[0] == 0.0
    assert not (ds.points.flags.writeable or ds.labels.flags.writeable)


def test_dataset_shares_read_only_arrays():
    """Frozen arrays are shared, not copied: a relabeled dataset keeps the
    points array itself, so no fit copies its points."""
    ds = sample_sphere(5, 3, 0)
    assert rademacher_labels(ds, 1).points is ds.points
    assert Dataset(ds.points, ds.labels).labels is ds.labels


def test_roundtrip_binary(tmp_path):
    ds = rademacher_labels(sample_sphere(17, 6, 9), 2)
    path = str(tmp_path / "ds.bin")
    save_dataset(ds, path, label_kind="rademacher")
    back = load_dataset(path)
    assert np.array_equal(back.points, ds.points)
    assert np.array_equal(back.labels, ds.labels)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _datasets(draw):
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    points = draw(hnp.arrays(np.float64, (n, d), elements=_finite))
    assume(np.all(np.any(points != 0.0, axis=1)))
    return Dataset(points, draw(hnp.arrays(np.float64, n, elements=_finite)))


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ds=_datasets(), tail=st.binary(min_size=1, max_size=16))
def test_roundtrip_binary_property(tmp_path, ds, tail):
    """Bit-exact round trip (signed zeros, subnormals); any trailing bytes
    make the file invalid."""
    path = str(tmp_path / "ds.bin")
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.points.tobytes() == ds.points.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()
    with open(path, "ab") as fh:
        fh.write(tail)
    with pytest.raises(DataError):
        load_dataset(path)


def test_binary_deterministic_bytes(tmp_path):
    ds = rademacher_labels(sample_sphere(8, 4, 1), 2)
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_load_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTADATASET")
    with pytest.raises(DataError):
        load_dataset(str(path))


def test_csv_import(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,0.0,3.5\n0.0,1.0,-2.0\n")
    ds = load_csv(str(path))
    assert ds.n == 2 and ds.d == 2
    assert np.array_equal(ds.labels, [3.5, -2.0])
