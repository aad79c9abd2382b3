"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v``.  The criteria cover the
four constructions end to end: exact interpolation, the two combinatorial
fits, the kernel-step boosting fit, and the harmonic fit, plus the shared
numerical identities and the universal total-weight floor.  Printed lines
bypass pytest's capture so the gate summary is always visible.

The networks fitted on +-1 labels come from session-scoped fixtures: the
criterion that measures a group of fits and the final weight-floor
criterion share them, so every criterion also runs alone and in any order.
"""

import math
import sys
import time
from typing import NamedTuple

import numpy as np
import pytest

from memnet.bounds import verify_weight_bound
from memnet.cli import sweep_cell
from memnet.constructive import baum_relu_fit, baum_threshold_fit, exact_fit_generic
from memnet.data import gaussian_labels, genericity, rademacher_labels, sample_sphere
from memnet.harmonic import choose_degree, decompose_directions, harmonic_fit, relu_mixture
from memnet.hermite import he_coeffs, hermite_eval
from memnet.network import evaluate, total_weight
from memnet.ntk import ntk_fit, ntk_step
from probes import (arcsin_gram, directional_sum, gram_lower_bound_check,
                    hermite_coefficients, hermite_gram, horner, linearized_values,
                    mixture_expectation, orthogonality_check)

_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _report(num: int, ok: bool, desc: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>2}: {verdict} - {desc}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def _slope(ns, ws):
    x = np.log2(np.asarray(ns, dtype=float))
    y = np.log2(np.asarray(ws, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def test_criterion_01_exact_interpolation():
    t0 = time.monotonic()
    ds = gaussian_labels(sample_sphere(30, 5, 0), 1)
    net = exact_fit_generic(ds)
    resid = float(np.linalg.norm(evaluate(net, ds) - ds.labels))
    elapsed = time.monotonic() - t0
    ok = (net.k == 30 and resid <= 1e-8 * float(np.linalg.norm(ds.labels))
          and elapsed < 1.0)
    _report(1, ok, f"exact fit n=30 d=5: k={net.k}, residual={resid:.2e}, "
                   f"{elapsed:.2f}s (<1s)")


class Fits(NamedTuple):
    """One group of fits: (name, dataset, network, fit result) rows and the
    seconds the group took to fit."""

    rows: list
    elapsed: float


@pytest.fixture(scope="session")
def relu_group_fits():
    t0, rows = time.monotonic(), []
    for seed in range(10):
        ds = rademacher_labels(sample_sphere(200, 20, seed), seed + 1)
        rows.append((f"baum-relu-{seed}", ds, baum_relu_fit(ds, seed=seed), None))
    return Fits(rows, time.monotonic() - t0)


@pytest.fixture(scope="session")
def kernel_fits():
    t0, rows = time.monotonic(), []
    for seed in range(50):
        ds = rademacher_labels(sample_sphere(300, 50, seed), seed + 1)
        res = ntk_fit(ds, epsilon=0.1, seed=seed)
        rows.append((f"ntk-{seed}", ds, res.network, res))
    return Fits(rows, time.monotonic() - t0)


@pytest.fixture(scope="session")
def harmonic_fits():
    t0, rows = time.monotonic(), []
    for seed in range(5):
        ds = rademacher_labels(sample_sphere(200, 100, seed), seed + 201)
        res = harmonic_fit(ds, epsilon=0.25, seed=seed)
        rows.append((f"harmonic-{seed}", ds, res.network, res))
    return Fits(rows, time.monotonic() - t0)


@pytest.fixture(scope="session")
def ntk_sweep_fits():
    t0, rows = time.monotonic(), []
    for n in (100, 200, 400, 800):
        for seed in range(7):
            ds = rademacher_labels(sample_sphere(n, 20, seed), seed + 1)
            res = ntk_fit(ds, epsilon=0.25, seed=seed)
            rows.append((f"ntk-sweep-{n}-{seed}", ds, res.network, res))
    return Fits(rows, time.monotonic() - t0)


@pytest.fixture(scope="session")
def harmonic_sweep_fits():
    # single seed per n: the fit is the dominant serial cost and its weight
    # spread across seeds is small
    t0, rows = time.monotonic(), []
    for n in (50, 100, 200, 400):
        ds = rademacher_labels(sample_sphere(n, 100, 0), n + 1)
        res = harmonic_fit(ds, epsilon=0.25, seed=0)
        rows.append((f"harmonic-sweep-{n}", ds, res.network, res))
    return Fits(rows, time.monotonic() - t0)


def test_criterion_02_relu_groups(relu_group_fits):
    worst_resid, ok = 0.0, True
    for _, ds, net, _ in relu_group_fits.rows:
        resid = float(np.max(np.abs(evaluate(net, ds) - ds.labels)))
        worst_resid = max(worst_resid, resid)
        ok = ok and net.k == 40 and resid <= 1e-6
    elapsed = relu_group_fits.elapsed
    ok = ok and elapsed < 5.0
    _report(2, ok, f"4-ReLU groups n=200 d=20 x10 seeds: k=40, "
                   f"max residual={worst_resid:.2e}, {elapsed:.2f}s (<5s)")


def test_criterion_03_threshold_slabs():
    ds = sample_sphere(100, 10, 2)
    y = np.zeros(100)
    y[np.random.default_rng(0).choice(100, size=30, replace=False)] = 1.0
    ds = ds.with_labels(y)
    net = baum_threshold_fit(ds)
    exact = bool(np.array_equal(evaluate(net, ds), y))
    ok = exact and net.k <= 7
    _report(3, ok, f"threshold slabs n=100 d=10, 30 ones: k={net.k} (<=7), "
                   f"exact={exact}")


def test_criterion_04_kernel_step_correlation():
    t0 = time.monotonic()
    ds = rademacher_labels(sample_sphere(100, 20, 0), 1)
    y = ds.labels
    y_sq = float(y @ y)
    gamma = genericity(ds).gamma_clamped(ds.n)
    bound = 0.1 * math.sqrt(math.log(1.0 / gamma) / math.log(2.0 * ds.n))
    ratios = []
    for seed in range(200):
        step = ntk_step(ds, y, seed)
        if step is None:
            continue
        f = linearized_values(step, ds.points)
        ratios.append(float(y @ f) / y_sq)
    mean = float(np.mean(ratios))
    lo95 = mean - 1.645 * float(np.std(ratios)) / math.sqrt(len(ratios))
    elapsed = time.monotonic() - t0
    ok = lo95 >= bound and elapsed < 30.0
    _report(4, ok, f"kernel step correlation, 200 seeds: mean={mean:.4f}, "
                   f"95% lower={lo95:.4f} >= {bound:.4f}, {elapsed:.1f}s (<30s)")


def test_criterion_05_kernel_fit_size(kernel_fits):
    ratios, kd_ok = [], True
    for _, _, _, res in kernel_fits.rows:
        ratios.append(res.trace.final_error_ratio)
        kd_ok = kd_ok and res.network.k * res.network.d <= res.kd_bound
    mean_ratio = float(np.mean(ratios))
    elapsed = kernel_fits.elapsed
    ok = mean_ratio <= 0.1 and kd_ok and elapsed < 120.0
    _report(5, ok, f"kernel fit n=300 d=50 eps=0.1 x50 seeds: mean ratio="
                   f"{mean_ratio:.4f} (<=0.1), k*d within bound={kd_ok}, "
                   f"{elapsed:.1f}s (<2min)")


def test_criterion_06_gram_bounds():
    # (a) closed-form arcsin Gram vs Monte Carlo on 20 random pairs
    ds = sample_sphere(40, 12, 0)
    H = arcsin_gram(ds)
    N = 1000000
    rng = np.random.default_rng(1)
    U = rng.standard_normal((N, 12))
    A = (U @ ds.points.T >= 0.0)
    G = ds.points @ ds.points.T
    pair_rng = np.random.default_rng(2)
    mc_ok = True
    for _ in range(20):
        i, j = pair_rng.choice(40, size=2, replace=False)
        prods = (A[:, i] & A[:, j]).astype(float) * G[i, j]
        se = float(np.std(prods)) / math.sqrt(N)
        mc_ok = mc_ok and abs(float(np.mean(prods)) - H[i, j]) <= 3 * se + 1e-12
    # (b) arcsin Gram eigenvalue floor on 10 sphere fixtures
    eig_ok = True
    for seed in range(10):
        lam, bound = gram_lower_bound_check(sample_sphere(80, 25, seed))
        eig_ok = eig_ok and lam >= bound
    # (c) degree-m Gram floor whenever the coherence hypothesis holds
    herm_ok = True
    for (n, d, seed) in ((50, 100, 0), (100, 50, 1), (60, 120, 2)):
        pts = sample_sphere(n, d, seed)
        gamma = genericity(pts).gamma_clamped(n)
        m = choose_degree(n, gamma)
        if n * gamma ** m <= 0.5:
            lam = float(np.linalg.eigvalsh(hermite_gram(pts, m))[0])
            herm_ok = herm_ok and lam >= 0.5
    ok = mc_ok and eig_ok and herm_ok
    _report(6, ok, f"Gram bounds: MC 3-sigma={mc_ok}, arcsin eig floor={eig_ok}, "
                   f"degree-m eig >= 1/2={herm_ok}")


def test_criterion_07_harmonic_identities():
    rng = np.random.default_rng(0)
    # (a) phase averaging over roots of unity isolates the first order
    phase_ok = True
    for m in (3, 5, 8):
        w, v, x = rng.standard_normal((3, 10))
        x /= np.linalg.norm(x)
        K = m + 2
        a = np.exp(2j * math.pi * np.arange(K) / K)
        avg = complex(np.mean(np.conj(a) * hermite_eval(m, w @ x + a * (v @ x))
                              / math.sqrt(m)))
        target = float(np.real(hermite_eval(m - 1, w @ x))) * (v @ x)
        phase_ok = phase_ok and abs(avg - target) <= 1e-10 * max(1.0, abs(target))
    # (b) directional reconstruction for m <= 8
    recon_ok = True
    for m in range(1, 9):
        theta = rng.uniform(0, 2 * math.pi)
        z = complex(math.cos(theta), math.sin(theta))
        dd = decompose_directions(z, m)
        x, y = rng.uniform(-1, 1, size=(2, 50))
        target = np.real(z * hermite_eval(m, x + 1j * y)) / math.sqrt(m)
        recon_ok = recon_ok and float(np.max(np.abs(directional_sum(dd, x, y) - target))) <= 1e-8
    # (c) mixture reconstruction on admissible points, deterministic quadrature
    dd = decompose_directions(1.0 + 0.0j, 3)
    M = 5.0
    scale = 1.0 / relu_mixture(dd, M).sum()
    pts = []
    while len(pts) < 20:
        x, y = rng.uniform(-1.5, 1.5, size=2)
        if 3 * (abs(x) + abs(y)) <= M:
            pts.append((x, y))
    x, y = np.array(pts).T
    target = np.real(hermite_eval(3, x + 1j * y)) / math.sqrt(3) * scale
    rel = float(np.max(np.abs(mixture_expectation(dd, M, x, y) - target))
                / np.max(np.abs(target)))
    mix_ok = rel <= 2e-3
    ok = phase_ok and recon_ok and mix_ok
    _report(7, ok, f"harmonic identities: phase avg={phase_ok}, "
                   f"reconstruction={recon_ok}, mixture rel err={rel:.1e} (<=2e-3)")


def test_criterion_08_harmonic_fit(harmonic_fits):
    ok = True
    ratios, trims = [], []
    for _, _, _, res in harmonic_fits.rows:
        ratios.append(res.trace.final_error_ratio)
        trims.append(200 - len(res.active_set))
        guarantee = 200 - math.ceil(1.0 / res.gamma ** 2)
        ok = ok and res.trace.final_error_ratio <= 0.25 \
            and len(res.active_set) >= guarantee
    elapsed = harmonic_fits.elapsed
    ok = ok and elapsed < 300.0
    _report(8, ok, f"harmonic fit n=200 d=100 eps=0.25 x5 seeds: max ratio="
                   f"{max(ratios):.4f} (<=0.25), trimmed={trims}, "
                   f"{elapsed:.0f}s (<300s)")


def test_criterion_09_weight_scaling(ntk_sweep_fits, harmonic_sweep_fits):
    t0 = time.monotonic()
    ns = [100, 200, 400, 800]
    # combinatorial construction, d=20, 3 seeds per n, from the sweep's cells
    baum_ws = [sweep_cell("baum-relu", n, 20, seed, None, "rademacher")["total_weight"]
               for n in ns for seed in range(3)]
    baum_slope = _slope(ns, [float(np.median(baum_ws[i:i + 3])) for i in range(0, 12, 3)])
    # kernel-step construction, d=20, 7 seeds per n
    ws = [total_weight(net) for _, _, net, _ in ntk_sweep_fits.rows]
    ntk_medians = [float(np.median(ws[i:i + 7])) for i in range(0, len(ws), 7)]
    ntk_slope = _slope(ns, ntk_medians)
    # harmonic construction, d=100
    harm_ns = [50, 100, 200, 400]
    harm_ws, floor_ok = [], True
    for n, (_, _, _, res) in zip(harm_ns, harmonic_sweep_fits.rows):
        w = total_weight(res.network)
        harm_ws.append(w)
        floor_ok = floor_ok and w >= math.sqrt(n) / 8.0
    harm_slope = _slope(harm_ns, harm_ws)
    elapsed = (time.monotonic() - t0 + ntk_sweep_fits.elapsed
               + harmonic_sweep_fits.elapsed)
    ok = (baum_slope >= 1.5 and ntk_slope >= 1.2 and harm_slope <= 0.9
          and floor_ok and elapsed < 1800.0)
    _report(9, ok, f"weight scaling slopes: baum={baum_slope:.2f} (>=1.5), "
                   f"ntk={ntk_slope:.2f} (>=1.2), harmonic={harm_slope:.2f} "
                   f"(<=0.9), floor ok={floor_ok}, {elapsed:.0f}s (<30min)")


def test_criterion_10_hermite_suite():
    rng = np.random.default_rng(0)
    # recursion vs exact monomial evaluation
    rec_ok = True
    for m in range(21):
        z = rng.uniform(-8, 8, size=30)
        mono = horner(he_coeffs(m), z) / math.sqrt(math.factorial(m))
        err = np.max(np.abs(hermite_eval(m, z) - mono) / (1.0 + np.abs(mono)))
        rec_ok = rec_ok and err < 1e-10
    # derivative identity, coefficient-wise on H_m = He_m / sqrt(m!)
    coeffs = [np.array(he_coeffs(m), dtype=np.float64) / math.sqrt(math.factorial(m))
              for m in range(21)]
    der_ok = True
    for m in range(1, 21):
        d = coeffs[m][1:] * np.arange(1, m + 1)
        der_ok = der_ok and float(np.max(np.abs(
            d - math.sqrt(m) * coeffs[m - 1]))) < 1e-10
    # generating function
    gen_ok = True
    for t in (-0.5, 0.4):
        for x in (-1.7, 0.0, 2.1):
            s = sum(t ** m * float(np.real(hermite_eval(m, x)))
                    / math.sqrt(math.factorial(m)) for m in range(31))
            gen_ok = gen_ok and abs(s - math.exp(t * x - t * t / 2)) < 1e-10
    # correlated-Gaussian orthogonality grid, 3 sigma
    mc_ok = True
    for m in range(4):
        for m2 in range(4):
            for rho in (-0.6, 0.3):
                est, se = orthogonality_check(m, m2, rho, 100000, 10 * m + m2)
                exact = rho ** m if m == m2 else 0.0
                mc_ok = mc_ok and abs(est - exact) <= 3 * se + 1e-12
    # step-function expansion coefficients
    coeffs = hermite_coefficients(lambda t: (t >= 0).astype(float), 8)
    coef_ok = (abs(coeffs[0] - 0.5) < 1e-6
               and abs(coeffs[1] - 1.0 / math.sqrt(2 * math.pi)) < 1e-6)
    ok = rec_ok and der_ok and gen_ok and mc_ok and coef_ok
    _report(10, ok, f"hermite suite: recursion={rec_ok}, derivative={der_ok}, "
                    f"generating fn={gen_ok}, MC grid={mc_ok}, "
                    f"step coeffs={coef_ok}")


@pytest.fixture(scope="session")
def registry(relu_group_fits, kernel_fits, harmonic_fits, ntk_sweep_fits,
             harmonic_sweep_fits):
    """Every network built on +-1-labeled data, re-checked by criterion 11."""
    return [row[:3] for fits in (relu_group_fits, kernel_fits, harmonic_fits,
                                 ntk_sweep_fits, harmonic_sweep_fits)
            for row in fits.rows]


def test_criterion_11_weight_floor_guard(registry):
    flagged = []
    checked = 0
    for name, ds, net in registry:
        report = verify_weight_bound(ds, [(name, net)])
        checked += 1
        flagged.extend(report.falsifications)
    ok = not flagged
    _report(11, ok, f"weight floor guard: {checked} networks checked, "
                    f"flagged={flagged or 'none'}")
