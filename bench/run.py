"""memnet benchmark: run one workload for a given time and print its metrics.

    python3 bench/run.py --workload harmonic-lowcoh --seed 1 --seconds 45 --trace 0

The runner repeats the workload's pass (a fixed list of jobs, each in a
fresh worker process, one at a time) until the next pass would overrun
``--seconds``; a pass always runs at least once.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and prints the per-layer metrics from the traced ones.  The
last stdout line is the JSON result; full records go to ``bench/out/``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

# One BLAS thread (at most nproc on any host): the fits' matrices are small,
# and a fixed thread count keeps floating-point results, hence the networks,
# identical across hosts.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
WORKER_TIMEOUT_S = 150
# Set-up timings per untraced run; runs with fewer workers add set-up-only ones.
SETUP_SAMPLES = 5

WORKLOADS = {
    # ROADMAP item 2's fixture: m=9, n-heavy (bias-grid search, sampler).
    "harmonic-lowcoh": {"kind": "harmonic", "n": 200, "d": 100, "points_seed": 0,
                        "epsilon": 0.25, "fits": 4},
    # No harmonic code: Baum, NTK and exact fits over an n grid.
    "combinatorial": {"kind": "combinatorial", "d": 20, "n_list": [100, 200, 400, 800],
                      "datasets_per_n": 24, "exact_max_n": 400, "epsilon": 0.25},
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "fit_ms.p50": "ms", "fit_ms.p90": "ms",
              "neurons": "count", "weight_gmean": "weight", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_worker(request: dict) -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(request),
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s on job {request['job']}")
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(spec: dict, seed: int, traced: bool) -> dict:
    jobs = spec["fits"] if spec["kind"] == "harmonic" else 1
    workers = [run_worker({"spec": spec, "seed": seed, "job": job, "trace": traced})
               for job in range(jobs)]
    fits = [f for w in workers for f in w["fits"]]
    return {"traced": traced, "workers": workers, "fits": fits,
            "wall_s": sum(f["seconds"] for f in fits)}


def run_passes(spec: dict, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repeat the pass (untraced, then traced when tracing) while the next
    repetition is predicted to end within ``seconds``."""
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(spec, seed, False))
        if trace:
            passes.append(run_pass(spec, seed, True))
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    first = passes[0]["fits"]
    per_fit_ms = [1000.0 * statistics.median(p["fits"][i]["seconds"] for p in passes)
                  for i in range(len(first))]
    weights = [f["weight"] for f in first if f["ok"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "fit_ms.p50": percentile(per_fit_ms, 50),
        "fit_ms.p90": percentile(per_fit_ms, 90),
        "neurons": sum(f["k"] for f in first if f["ok"]),
        "weight_gmean": (math.exp(statistics.fmean(math.log(w) for w in weights))
                         if weights else 0.0),
        "peak_rss_mb": statistics.median(max(w["peak_rss_mb"] for w in p["workers"])
                                         for p in passes),
    }


def per_layer(spec: dict, passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    for p in traced:
        missing = tracing.missing_layers(spec["kind"], p["workers"])
        if missing:
            raise BenchError(f"traced pass recorded no calls of {', '.join(missing)}")
    layers = [tracing.layer_metrics(p["workers"]) for p in traced]
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in passes
                                                   if not p["traced"]))
    return out


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, read off the name's suffix."""
    def unit(name):
        if name.endswith((".calls", ".spans")):
            return "count"
        if name.endswith("ratio"):
            return "ratio"
        return "ms" if name.endswith("_ms") else "s"
    names = list(tracing.layer_metrics([])) + ["trace.overhead_s"]
    return {name: unit(name) for name in names}


def nondeterministic(passes: list[dict]) -> list[str]:
    """Fit ids whose network (k, total weight) differs between passes."""
    key = [(f.get("k"), f.get("weight")) for f in passes[0]["fits"]]
    return sorted({f["id"] for p in passes[1:] for f, kw in zip(p["fits"], key)
                   if (f.get("k"), f.get("weight")) != kw})


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "memnet" / "__init__.py").is_file():
        raise BenchError(f"no memnet package under {ROOT / 'src'}")
    spec = WORKLOADS[workload]
    passes = run_passes(spec, seed, seconds, trace)
    fits = [f for p in passes for f in p["fits"]]
    failed = [f for f in fits if not f["ok"]]
    unstable = nondeterministic(passes)
    if trace:
        units, values = per_layer_units(), per_layer(spec, passes)
    else:
        setups = [w["setup_s"] for p in passes for w in p["workers"]]
        setups += [run_worker({"spec": spec, "seed": seed, "job": 0, "trace": False,
                               "setup_only": True})["setup_s"]
                   for _ in range(SETUP_SAMPLES - len(setups))]
        units, values = END_TO_END, end_to_end(passes, setups)
    result = {"correct": not failed and not unstable, "attempted": len(fits),
              "failed": len(failed),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    machine = dict(passes[0]["workers"][0]["machine"], git_commit=git_commit())
    record = {"workload": workload, "spec": spec, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine, "result": result,
              "failures": [(f["id"], f["error"]) for f in failed],
              "nondeterministic": unstable,
              "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "fits": p["fits"],
                          "workers": [{k: w[k] for k in ("setup_s", "peak_rss_mb")}
                                      for w in p["workers"]]} for p in passes]}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}_seed{seed}_trace{int(trace)}"
    (OUT_DIR / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        with open(OUT_DIR / f"spans_{stem}.jsonl", "w") as fh:
            for pi, p in enumerate(passes):
                for job, w in enumerate(p["workers"]):
                    for span in w["spans"]:
                        fh.write(json.dumps(dict(zip(tracing.FIELDS, span),
                                                 process=f"p{pi}.j{job}")) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"machine": record["machine"]}))
    for fid, error in record["failures"]:
        print(f"FAILED {fid}: {error}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
