"""Numerical probes of the paper's lemmas, shared by the test modules.

Each probe evaluates a quantity the fit path never computes (a Gram matrix,
a Gaussian expectation, a mixture average) so that a test can hold the
implementation against the lemma that justifies it.  The test modules
import them as ``from probes import ...``: pytest puts ``tests/`` on
``sys.path``.
"""

import functools
import json
import math

import numpy as np

from memnet.data import genericity
from memnet.harmonic import _mixture_basis, _mixture_f2, relu_mixture
from memnet.hermite import gl_grid, hermite_eval
from memnet.network import Neuron, TwoLayerNetwork


def network_from_json(text):
    """The network that ``TwoLayerNetwork.to_json`` wrote, bit for bit."""
    obj = json.loads(text)
    neurons = tuple(Neuron(nr["a"], np.array(nr["w"]), nr["b"]) for nr in obj["neurons"])
    return TwoLayerNetwork(neurons, obj["activation"])


def linearized_values(u, v, b, points):
    """psi'(u.x - b) (v.x), which the two neurons of a derivative neuron
    (u, v, b, delta) equal on points where its delta is safe."""
    gate = (points @ u - b >= 0.0).astype(float)
    return gate * (points @ v)


def halfspace_sum(points, r, u):
    """sum of r_i x_i over the points with u . x_i >= 0, row by row: the
    NTK step's v."""
    v = np.zeros(points.shape[1])
    for x, r_i in zip(points, r):
        if x @ u >= 0.0:
            v += r_i * x
    return v


def horner(coeffs, z):
    """sum_k coeffs[k] z^k by Horner's rule, constant term first; z may be
    complex.  H_m(z) is horner(he_coeffs(m), z) / sqrt(m!)."""
    z = np.asarray(z)
    acc = np.zeros_like(z, dtype=np.result_type(z.dtype, np.float64))
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def hermite_textbook(m, z):
    """H_m(z) by the normalized one-step recurrence H_k = (z H_{k-1}
    - sqrt(k-1) H_{k-2}) / sqrt(k), an oracle independent of ``he_eval``."""
    z = np.asarray(z)
    one = np.ones_like(z, dtype=np.result_type(z.dtype, np.float64))
    if m == 0:
        return one
    h_prev, h = one, z * one
    for k in range(2, m + 1):
        h_prev, h = h, (z * h - math.sqrt(k - 1) * h_prev) / math.sqrt(k)
    return h


def directional_sum(dd, x, y):
    """sum_j p_j(x + j y) of a DirectionalDecomposition, with its common
    factor 1/(sqrt(m!) sqrt(m)): Re(z * phi(x + i y)), phi = H_m / sqrt(m)."""
    scale = 1.0 / (math.sqrt(math.factorial(dd.m)) * math.sqrt(dd.m))
    return sum(horner(dd.polys[j] * scale, x + j * y) for j in range(dd.m + 1))


def orthogonality_check(m, m2, rho, samples, seed):
    """Monte Carlo E[H_m(X) H_m2(Y)] with corr(X, Y) = rho and its standard
    error; the exact value is delta_{m,m2} rho^m."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(samples)
    y = rho * x + math.sqrt(max(0.0, 1.0 - rho * rho)) * rng.standard_normal(samples)
    prod = hermite_eval(m, x) * hermite_eval(m2, y)
    return float(np.mean(prod)), float(np.std(prod) / math.sqrt(samples))


def gauss_expectation(f):
    """E[f(X)], X ~ N(0,1), by composite Gauss-Legendre on [-15, 15]: panels
    double from 8 until the estimate moves by less than 1e-8, at most to
    8192.  The panel edge at 0 suits integrands with a kink or jump there."""
    def estimate(panels):
        t, wts = gl_grid(-15.0, 15.0, panels)
        return float((f(t) * np.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)) @ wts)

    panels, prev = 8, estimate(8)
    while panels < 8192:
        panels *= 2
        cur = estimate(panels)
        if abs(cur - prev) < 1e-8:
            return cur
        prev = cur
    return prev


def hermite_coefficients(psi_prime, L):
    """a_l = E[psi'(X) H_l(X)], l = 0..L."""
    return np.array([gauss_expectation(lambda t, l=l: psi_prime(t) * hermite_eval(l, t))
                     for l in range(L + 1)])


def dense_genericity(ds):
    """(gamma, omega, min_norm) from the whole n x n normalized Gram matrix
    at once, the formula that ``genericity`` scans in row blocks."""
    X = ds.points
    n, d = X.shape
    norms = np.linalg.norm(X, axis=1)
    C = (X @ X.T) / np.outer(norms, norms)
    np.fill_diagonal(C, 0.0)
    lam_max = float(np.linalg.eigvalsh((X.T @ X) / n)[-1])
    return float(np.max(np.abs(C))), d * lam_max, float(np.min(norms))


def arcsin_gram(ds):
    """H_ij = E_u[x_i . x_j 1{u.x_i >= 0} 1{u.x_j >= 0}] in closed form: the
    joint halfspace probability is 1/4 + arcsin(rho_ij) / (2 pi)."""
    norms = np.linalg.norm(ds.points, axis=1)
    G = ds.points @ ds.points.T
    rho = np.clip(G / np.outer(norms, norms), -1.0, 1.0)
    return G * (0.25 + np.arcsin(rho) / (2.0 * math.pi))


def gram_lower_bound_check(ds):
    """(lambda_min of the norm-scaled arcsin Gram, its floor
    (1/10) sqrt(log(1/gamma) / log(2n)))."""
    gamma = genericity(ds).gamma_clamped(ds.n)
    norms = np.linalg.norm(ds.points, axis=1)
    lam_min = float(np.linalg.eigvalsh(arcsin_gram(ds) / np.outer(norms, norms))[0])
    return lam_min, 0.1 * math.sqrt(math.log(1.0 / gamma) / math.log(2.0 * ds.n))


def hermite_gram(ds, m):
    """E_w[phi'(w.x_i) phi'(w.x_j)] x_i.x_j = (x_i . x_j)^m for unit rows."""
    return (ds.points @ ds.points.T) ** m


@functools.lru_cache(maxsize=None)
def mixture_rows(m, M):
    """Nodes, weights and the z = 1 and z = i rows of f'' on [-2M, 2M] at the
    panel count of the mass table."""
    return _mixture_f2(m, M, _mixture_basis(m, M)[0])


def mixture_quadrature(dd, M):
    """Nodes and the (m+1, nodes) array of weight * f_j''(node) for dd's z."""
    nodes, wts, f2_re, f2_im = mixture_rows(dd.m, M)
    return nodes, (dd.z.real * f2_re + dd.z.imag * f2_im) * wts


def direct_masses(dd, M):
    """int |f_j''| by the direct sum over the quadrature nodes, the oracle of
    ``relu_mixture`` (same signature)."""
    return np.abs(mixture_quadrature(dd, M)[1]).sum(axis=1)


def mixture_expectation(dd, M, x, y):
    """The ReLU mixture's mean output at projections (x, y) = (w~.x, w~'.x):
    Re(z * phi(x + i y)) / sum_j int |f_j''| on [-M, M], up to quadrature
    error."""
    nodes, quad = mixture_quadrature(dd, M)
    acc = sum(np.maximum((x + j * y)[:, None] - nodes, 0.0) @ quad[j]
              for j in range(dd.m + 1))
    return acc / relu_mixture(dd, M).sum()
