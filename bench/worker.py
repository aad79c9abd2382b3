"""One benchmark job in a fresh process: set up, fit, check, report.

Reads a JSON request ``{"spec", "seed", "job", "trace"}`` on stdin and
prints one JSON object on stdout.  A fresh process per job gives every job
the package's per-process caches in the cold state a ``memnet fit`` process
sees, and its own peak RSS.  The runner sets the BLAS thread variables in
this process's environment before numpy is imported here.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json
import math
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np

import memnet
from memnet import bounds, constructive, data, harmonic, network, ntk

from tracing import Tracer


def _seeds(*key: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(list(key)).generate_state(2)]


def make_fits(spec: dict, seed: int, job: int) -> list[tuple]:
    """The job's fits as (fit id, method, dataset, fit seed); deterministic in
    (spec, seed, job).  A harmonic job is one fit on the frozen point cloud
    with seed-drawn labels; the combinatorial job is the whole grid."""
    if spec["kind"] == "harmonic":
        label_seed, fit_seed = _seeds(seed, job)
        points = data.sample_sphere(spec["n"], spec["d"], spec["points_seed"])
        return [(f"j{job}", "harmonic", data.rademacher_labels(points, label_seed), fit_seed)]
    fits = []
    for n in spec["n_list"]:
        for i in range(spec["datasets_per_n"]):
            data_seed, fit_seed = _seeds(seed, n, i)
            ds = data.rademacher_labels(data.sample_sphere(n, spec["d"], data_seed),
                                        data_seed + 1)
            ds01 = ds.with_labels((ds.labels + 1.0) / 2.0)
            methods = [("baum-relu", ds), ("baum-threshold", ds01), ("ntk", ds)]
            if n <= spec["exact_max_n"]:
                methods.append(("exact", ds))
            fits += [(f"n{n}.{i}.{m}", m, d, fit_seed) for m, d in methods]
    return fits


def fit(method: str, ds, seed: int, epsilon: float):
    """Run one construction; returns (network, facts the checks need).

    Names are looked up on the modules at call time so traced runs see the
    wrapped functions."""
    if method == "exact":
        return constructive.exact_fit_generic(ds, seed=seed), {}
    if method == "baum-relu":
        return constructive.baum_relu_fit(ds, seed=seed), {}
    if method == "baum-threshold":
        return constructive.baum_threshold_fit(ds, seed=seed), {}
    if method == "ntk":
        res = ntk.ntk_fit(ds, epsilon, seed=seed)
        return res.network, {"steps": len(res.trace.iterations)}
    res = harmonic.harmonic_fit(ds, epsilon, seed=seed)
    return res.network, {"steps": len(res.trace.iterations),
                         "active": res.active_set, "gamma": res.gamma}


def check(method: str, ds, net, facts: dict, epsilon: float) -> str | None:
    """The paper's guarantee for ``method``; returns why it failed, or None."""
    y = ds.labels
    err = network.evaluate(net, ds) - y
    y_sq = float(y @ y)
    n, d = ds.n, ds.d
    if method == "exact":
        if net.k != n:
            return f"k={net.k} != n={n}"
        if np.max(np.abs(err)) > 1e-6:
            return f"max error {np.max(np.abs(err)):.3e} > 1e-6"
    elif method == "baum-relu":
        if net.k > 4 * math.ceil(n / d):
            return f"k={net.k} > 4*ceil(n/d)={4 * math.ceil(n / d)}"
        if np.max(np.abs(err)) > 1e-6:
            return f"max error {np.max(np.abs(err)):.3e} > 1e-6"
    elif method == "baum-threshold":
        if np.max(np.abs(err)) > 1e-9:
            return f"max error {np.max(np.abs(err)):.3e} > 1e-9"
    elif method == "ntk":
        ratio = float(err @ err) / y_sq
        if ratio > epsilon * (1 + 1e-9):
            return f"error ratio {ratio:.4g} > epsilon {epsilon}"
    else:
        active = facts["active"]
        ratio = float(err[active] @ err[active]) / y_sq
        if ratio > epsilon * (1 + 1e-9):
            return f"active-set error ratio {ratio:.4g} > epsilon {epsilon}"
        floor = n - math.ceil(1.0 / facts["gamma"] ** 2)
        if len(active) < floor:
            return f"|A|={len(active)} < n - ceil(1/gamma^2) = {floor}"
    if np.all(np.abs(y) == 1.0) and bounds.verify_weight_bound(ds, [(method, net)]).falsified:
        return "half-fitting network below the sqrt(n)/8 weight floor"
    return None


def run_job(request: dict, tracer: Tracer | None = None) -> dict:
    """Set up the job's datasets, then fit and check each; checks are untimed."""
    spec, epsilon = request["spec"], request["spec"]["epsilon"]
    fits = make_fits(spec, request["seed"], request["job"])
    setup_s = time.perf_counter() - _STARTED
    if request.get("setup_only"):
        fits = []
    records = []
    for fit_id, method, ds, fit_seed in fits:
        if tracer is not None:
            tracer.fit = fit_id
        rec = {"id": fit_id, "method": method, "n": ds.n}
        t0 = time.perf_counter()
        try:
            net, facts = fit(method, ds, fit_seed, epsilon)
        except Exception as exc:  # a failed construction is a failed operation
            rec.update(seconds=time.perf_counter() - t0, ok=False,
                       error=f"{type(exc).__name__}: {exc}")
            records.append(rec)
            continue
        rec["seconds"] = time.perf_counter() - t0
        problem = check(method, ds, net, facts, epsilon)
        rec.update(ok=problem is None, error=problem, k=net.k,
                   weight=network.total_weight(net), steps=facts.get("steps", 0))
        records.append(rec)
    return {"setup_s": setup_s, "fits": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def machine() -> dict:
    """Host and library versions; imported after timing, off the set-up path."""
    import scipy
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {k: v for k, v in os.environ.items()
                             if k.endswith("_NUM_THREADS")}}


def main() -> int:
    if Path(memnet.__file__).resolve().parent != SRC / "memnet":
        print(f"memnet imported from {memnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install()
    result = run_job(request, tracer)
    result["spans"] = tracer.spans if tracer is not None else []
    result["machine"] = machine()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
