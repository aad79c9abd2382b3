"""Command-line front end: dataset generation, fitting, and sweep grids.

Exit codes: 0 success, 2 parameter error or an output file that cannot be
written, 3 data error, 4 convergence failure.  All commands are
deterministic given their flags, including ``sweep --parallel`` (rows are
sorted before writing), except that the outer weights of ``exact`` come
from a LAPACK solve whose last bits depend on the BLAS thread count (pin it
with OPENBLAS_NUM_THREADS); its hidden layer does not.  MEMNET_THREADS
caps sweep parallelism, which never exceeds the number of cells.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import data as data_mod
from .constructive import baum_relu_fit, baum_threshold_fit, exact_fit_generic
from .errors import (ConvergenceError, DataError, MemnetError, ParameterError)
from .harmonic import harmonic_fit
from .network import FitTrace, evaluate, total_weight
from .ntk import ntk_fit

EXACT_METHODS = {"exact", "baum-threshold", "baum-relu"}
ITER_METHODS = {"ntk", "harmonic"}
METHODS = EXACT_METHODS | ITER_METHODS
LABELS = {"rademacher": data_mod.rademacher_labels, "gaussian": data_mod.gaussian_labels}


def _load_any(path: str) -> data_mod.Dataset:
    if path.endswith(".csv"):
        return data_mod.load_csv(path)
    return data_mod.load_dataset(path)


def cmd_gen_data(args) -> int:
    ds = data_mod.sample_sphere(args.n, args.d, args.seed)
    ds = LABELS[args.labels](ds, args.seed + 1)
    data_mod.save_dataset(ds, args.output, label_kind=args.labels)
    rep = data_mod.genericity(ds)
    print(json.dumps({
        "n": ds.n, "d": ds.d, "output": args.output,
        "gamma": rep.gamma, "omega": rep.omega,
        "min_norm": rep.min_norm, "general_position": data_mod.general_position(ds),
    }, indent=2))
    return 0


def _run_method(method: str, ds, epsilon, seed: int):
    """Returns (network, trace, extras); ``method`` has passed
    ``_check_method``, so the last branch is harmonic."""
    if method == "exact":
        return exact_fit_generic(ds, seed=seed), FitTrace(), {}
    if method == "baum-threshold":
        return baum_threshold_fit(ds, seed=seed), FitTrace(), {}
    if method == "baum-relu":
        return baum_relu_fit(ds, seed=seed), FitTrace(), {"k_formula": 4 * math.ceil(ds.n / ds.d)}
    if method == "ntk":
        res = ntk_fit(ds, epsilon, seed=seed)
        kd = float(res.network.k * ds.d)
        return res.network, res.trace, {
            "kd_achieved": kd, "kd_bound": res.kd_bound,
            "kd_hypothesis_met": res.kd_bound is not None and kd <= res.kd_bound,
            "gamma": res.report.gamma, "omega": res.report.omega,
        }
    res = harmonic_fit(ds, epsilon, seed=seed)
    return res.network, res.trace, {
        "m": res.m, "gamma": res.gamma,
        "active_set_size": int(len(res.active_set)),
        "trimmed_out": ds.n - int(len(res.active_set)),
        "active_set_guarantee": ds.n - math.ceil(1.0 / res.gamma ** 2),
    }


def _error_ratio(f: np.ndarray, y: np.ndarray) -> float:
    """||f - y||^2 / ||y||^2, 0 for zero labels."""
    y_sq = float(y @ y)
    return float(np.sum((f - y) ** 2)) / y_sq if y_sq > 0 else 0.0


def _summary(method: str, ds, net, epsilon, extras: dict) -> dict:
    ratio = _error_ratio(evaluate(net, ds), ds.labels)
    rademacher = bool(np.all(np.abs(ds.labels) == 1.0))
    out = {
        "method": method, "n": ds.n, "d": ds.d, "epsilon": epsilon,
        "k": net.k, "total_weight": total_weight(net),
        "error_ratio": ratio,
        "weight_floor": math.sqrt(ds.n) / 8.0,
        "weight_floor_hypothesis_met": rademacher and ratio <= 0.5,
    }
    out.update(extras)
    return out


def _check_method(args) -> None:
    """The method must be known; --epsilon is required for the iterative
    methods and forbidden for the exact ones."""
    if args.method not in METHODS:
        raise ParameterError(f"unknown method {args.method!r}")
    if args.method in ITER_METHODS and args.epsilon is None:
        raise ParameterError(f"--epsilon is required for {args.method}")
    if args.method in EXACT_METHODS and args.epsilon is not None:
        raise ParameterError(f"--epsilon is forbidden for {args.method}")


def cmd_fit(args) -> int:
    _check_method(args)
    ds = _load_any(args.dataset)
    net, trace, extras = _run_method(args.method, ds, args.epsilon, args.seed)
    prefix = args.output or os.path.splitext(args.dataset)[0]
    with open(prefix + ".network.json", "w") as fh:
        fh.write(net.to_json())
    trace.to_csv(prefix + ".trace.csv")
    summary = _summary(args.method, ds, net, args.epsilon, extras)
    with open(prefix + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(json.dumps(summary, indent=2))
    return 0


def sweep_cell(method, n, d, seed, epsilon, labels):
    """One sweep row: ``method`` fitted with ``seed`` on ``sample_sphere(n, d,
    seed)`` with ``labels`` drawn from seed + 1 (made 0/1 for baum-threshold)."""
    ds = data_mod.sample_sphere(n, d, seed)
    ds = LABELS[labels](ds, seed + 1)
    if method == "baum-threshold":
        ds = ds.with_labels((ds.labels > 0).astype(float))
    net, _, extras = _run_method(method, ds, epsilon, seed)
    f = evaluate(net, ds)
    return {
        "method": method, "n": n, "d": d, "seed": seed,
        "epsilon": "" if epsilon is None else epsilon,
        "k": net.k, "total_weight": total_weight(net),
        "error_ratio": _error_ratio(f, ds.labels),
        "max_residual": float(np.max(np.abs(f - ds.labels))),
        "trimmed_out": extras.get("trimmed_out", 0),
    }


def cmd_sweep(args) -> int:
    _check_method(args)
    if not args.n_list or not args.seeds:
        raise ParameterError("n-list and seeds must be nonempty")
    cells = [(args.method, n, args.d, seed, args.epsilon, args.labels)
             for n in args.n_list for seed in args.seeds]
    if args.parallel:
        from concurrent.futures import ProcessPoolExecutor
        threads = os.environ.get("MEMNET_THREADS", str(os.cpu_count() or 1))
        try:
            workers = int(threads)
        except ValueError:
            raise ParameterError(f"MEMNET_THREADS must be an integer, got {threads!r}") from None
        # fork starts every worker up front: no more workers than cells
        with ProcessPoolExecutor(max_workers=max(1, min(workers, len(cells)))) as pool:
            rows = list(pool.map(sweep_cell, *zip(*cells)))
    else:
        rows = [sweep_cell(*cell) for cell in cells]
    rows.sort(key=lambda r: (r["method"], r["n"], r["d"], r["seed"]))
    cols = ["method", "n", "d", "seed", "epsilon", "k", "total_weight",
            "error_ratio", "max_residual", "trimmed_out"]
    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _seed(text: str) -> int:
    """A seed flag's value: numpy's generators take non-negative integers only."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _seed_list(text: str) -> list[int]:
    return [_seed(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memnet")
    parser.add_argument("--config", help="JSON file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="sample sphere data and write a dataset file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--labels", default="rademacher", choices=LABELS)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen_data)

    f = sub.add_parser("fit", help="fit a dataset file with one construction")
    f.add_argument("--method", required=True)
    f.add_argument("--epsilon", type=float)
    f.add_argument("--seed", type=_seed, default=0)
    f.add_argument("-o", "--output", help="output path prefix")
    f.add_argument("dataset")
    f.set_defaults(func=cmd_fit)

    s = sub.add_parser("sweep", help="run a method x n x seed grid, emit CSV")
    s.add_argument("--method", required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--n-list", type=_int_list, required=True)
    s.add_argument("--seeds", type=_seed_list, default=[0])
    s.add_argument("--epsilon", type=float)
    s.add_argument("--labels", default="rademacher", choices=LABELS)
    s.add_argument("--parallel", action="store_true")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=cmd_sweep)
    return parser


def _config_argv(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with the ``--config`` JSON object's flags put right after the
    subcommand, where argparse converts and checks them like typed flags and
    a flag typed later wins; a switch takes true or false."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    known = pre.parse_known_args(argv)[0]
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    if known.config is None or not known.rest or known.rest[0] not in commands:
        return argv
    try:
        with open(known.config) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as err:
        raise ParameterError(f"cannot read --config {known.config}: {err}") from None
    if not isinstance(config, dict):
        raise ParameterError(f"--config {known.config} must hold a JSON object")
    command = known.rest[0]
    actions = {a.dest: a for a in commands[command]._actions if a.option_strings}
    flags = []
    for key, value in config.items():
        if key not in actions or key == "help":
            raise ParameterError(f"--config key {key!r} is not a flag of {command}")
        flag, switch = actions[key].option_strings[-1], actions[key].nargs == 0
        if isinstance(value, bool) != switch or not isinstance(value, (str, int, float)):
            raise ParameterError(f"--config key {key!r} has a bad value {value!r}")
        if value is not False:  # a false switch keeps its default
            flags.append(flag if switch else f"{flag}={value}")
    at = len(argv) - len(known.rest) + 1
    return argv[:at] + flags + argv[at:]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_config_argv(parser, argv))
        return args.func(args)
    except (ParameterError, OSError) as err:  # an OSError here comes from writing output
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except ConvergenceError as err:
        print(f"convergence failure: {err}", file=sys.stderr)
        return 4
    except MemnetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
