import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from memnet.cli import build_parser, main, sweep_cell
from memnet.data import (Dataset, load_dataset, rademacher_labels, sample_sphere,
                         save_dataset)
from memnet.errors import ConvergenceError, InvariantError
from memnet.network import FitTrace


def _gen(tmp_path, n=30, d=10, seed=0, labels="rademacher", name="ds.bin"):
    path = str(tmp_path / name)
    rc = main(["gen-data", "--n", str(n), "--d", str(d), "--seed", str(seed),
               "--labels", labels, "-o", path])
    assert rc == 0
    return path


def test_gen_data_writes_file_and_report(tmp_path, capsys):
    path = _gen(tmp_path)
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 30 and out["d"] == 10
    assert 0.0 < out["gamma"] < 1.0
    assert out["general_position"] is True
    assert (tmp_path / "ds.bin").exists()


def test_gen_data_deterministic_bytes(tmp_path):
    a = _gen(tmp_path, seed=5, name="a.bin")
    b = _gen(tmp_path, seed=5, name="b.bin")
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_gen_data_bad_dimension(tmp_path, capsys):
    rc = main(["gen-data", "--n", "10", "--d", "1", "-o", str(tmp_path / "x.bin")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_fit_baum_relu_summary(tmp_path, capsys):
    path = _gen(tmp_path, n=40, d=10)
    rc = main(["fit", "--method", "baum-relu", path])
    assert rc == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "ds.summary.json").read_text())
    assert summary["k"] == 16  # 4 * ceil(40/10)
    assert summary["error_ratio"] < 1e-12
    assert (tmp_path / "ds.network.json").exists()
    assert (tmp_path / "ds.trace.csv").exists()


def test_fit_harmonic_summary(tmp_path):
    path = _gen(tmp_path, n=40, d=80)
    rc = main(["fit", "--method", "harmonic", "--epsilon", "0.3", path])
    assert rc == 0
    summary = json.loads((tmp_path / "ds.summary.json").read_text())
    # the summary ratio is global; the epsilon guarantee holds on the active set
    assert summary["active_set_size"] >= summary["active_set_guarantee"]
    assert summary["trimmed_out"] == 40 - summary["active_set_size"]
    assert summary["m"] >= 3
    assert summary["total_weight"] > 0.0 and summary["k"] > 0


def test_fit_epsilon_rules(tmp_path, capsys):
    path = _gen(tmp_path)
    assert main(["fit", "--method", "exact", "--epsilon", "0.1", path]) == 2
    assert main(["fit", "--method", "ntk", path]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--method", "no-such", path])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such'" in capsys.readouterr().err


def test_readme_cli_section_names_every_flag():
    """README's CLI section names exactly the long flags of the parser and its
    commands (--help aside), and --output beside -o."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?", section)) - {"--help"}
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices.values()
    flags = {opt for p in (parser, *commands) for a in p._actions
             for opt in a.option_strings if opt.startswith("--")} - {"--help"}
    assert named == flags
    assert "`-o`/`--output`" in section


def test_fit_help_lists_the_methods(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0
    assert "{baum-relu,baum-threshold,exact,harmonic,ntk}" in capsys.readouterr().out


def test_fit_bad_dataset_file(tmp_path, capsys):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"NOTADATASET")
    rc = main(["fit", "--method", "exact", str(junk)])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def _write_dataset(tmp_path, header: bytes, payload: bytes = b"\0" * 16):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"MEMNETDS" + header + b"\n" + payload)
    return str(path)


def _assert_data_error(argv, capsys):
    assert main(argv) == 3
    assert "data error" in capsys.readouterr().err


def test_fit_malformed_header(tmp_path, capsys):
    path = _write_dataset(tmp_path, b'{"n": 1, "d":')
    _assert_data_error(["fit", "--method", "exact", path], capsys)


def test_fit_negative_n_header(tmp_path, capsys):
    path = _write_dataset(tmp_path, b'{"n": -1, "d": 1}')
    _assert_data_error(["fit", "--method", "exact", path], capsys)


def test_fit_non_numeric_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.0,1.0\n0.0,abc,-1.0\n")
    _assert_data_error(["fit", "--method", "exact", str(path)], capsys)


def test_fit_trailing_bytes(tmp_path, capsys):
    path = _gen(tmp_path)
    capsys.readouterr()
    with open(path, "ab") as fh:
        fh.write(b"\0")
    _assert_data_error(["fit", "--method", "exact", path], capsys)


@pytest.mark.parametrize("name", ["missing.bin", "missing.csv"])
def test_fit_missing_dataset(tmp_path, capsys, name):
    _assert_data_error(["fit", "--method", "exact", str(tmp_path / name)], capsys)


def _coherence_one(tmp_path):
    """sample_sphere(40, 10, 0) with Rademacher labels and row 1 = -row 0."""
    ds = rademacher_labels(sample_sphere(40, 10, 0), 1)
    points = ds.points.copy()
    points[1] = -points[0]
    path = str(tmp_path / "coh.bin")
    save_dataset(Dataset(points, ds.labels), path)
    return path


def test_fit_ntk_coherence_one_keeps_the_fit(tmp_path, capsys):
    """Coherence 1 makes the k*d size bound vacuous, not the converged fit."""
    path = _coherence_one(tmp_path)
    assert main(["fit", "--method", "ntk", "--epsilon", "0.3", path]) == 0
    for suffix in ("network.json", "trace.csv", "summary.json"):
        assert (tmp_path / f"coh.{suffix}").exists()
    summary = json.loads((tmp_path / "coh.summary.json").read_text())
    assert summary["kd_bound"] is None and summary["kd_hypothesis_met"] is False
    assert summary["error_ratio"] <= 0.3
    capsys.readouterr()


def test_fit_harmonic_coherence_one_is_a_data_error(tmp_path, capsys):
    path = _coherence_one(tmp_path)
    _assert_data_error(["fit", "--method", "harmonic", "--epsilon", "0.3", path], capsys)
    assert not (tmp_path / "coh.network.json").exists()


def test_fit_harmonic_past_float64_degree_is_a_data_error(tmp_path, capsys):
    """(60, 4) data needs degree m = 483, past 170! in float64, and (200, 8)
    data m = 161, whose mixture polynomials overflow float64: one error line,
    exit 3, at once (before the degree's exact-integer basis)."""
    for n, d, m in ((60, 4, 483), (200, 8, 161)):
        path = _gen(tmp_path, n=n, d=d)
        capsys.readouterr()
        start = time.perf_counter()
        rc = main(["fit", "--method", "harmonic", "--epsilon", "0.3", path])
        assert time.perf_counter() - start < 1.0
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"m={m}" in err and err.count("\n") == 1
        assert not (tmp_path / "ds.network.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 1e-170])
@pytest.mark.parametrize("method", ["ntk", "harmonic"])
def test_fit_rows_outside_float_range_is_a_data_error(tmp_path, capsys, method, scale):
    """One row scaled by 1e160 or 1e-170 among unit rows: no power of two
    brings every squared row norm into float64's normal range, so the
    coherence check exits 3 with one error line and no warning."""
    ds = rademacher_labels(sample_sphere(30, 10, 0), 1)
    pts = ds.points.copy()
    pts[0] *= scale
    path = str(tmp_path / "ds.bin")
    save_dataset(Dataset(pts, ds.labels), path)
    assert main(["fit", "--method", method, "--epsilon", "0.3", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: squared row norms leave the float64 range")
    assert err.count("\n") == 1 and not (tmp_path / "ds.network.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 1e-100, 1e-170])
@pytest.mark.parametrize("method", ["exact", "baum-relu", "baum-threshold", "ntk", "harmonic"])
def test_fit_rows_far_from_unit_scale(tmp_path, capsys, method, scale):
    """Rows scaled by 1e160 (squared norms overflow), 1e-100 or 1e-170 (they
    underflow) fit with every method, which runs on the rows times the power
    of two nearest their largest norm.  Each used to exit 3 on some of them:
    ntk at 1e160 and 1e-170, harmonic before its scale, the Baum fits before
    their slab scale, exact at 1e-100 and 1e-170 ("rank 1 < n=30").  The
    floor knows the radius."""
    ds = rademacher_labels(sample_sphere(30, 10, 0), 1)
    if method == "baum-threshold":
        ds = ds.with_labels((ds.labels > 0).astype(float))
    path = str(tmp_path / "ds.bin")
    save_dataset(Dataset(scale * ds.points, ds.labels), path)
    target = ["--epsilon", "0.3"] if method in ("ntk", "harmonic") else []
    assert main(["fit", "--method", method, *target, path]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["error_ratio"] <= (0.3 if target else 1e-12)
    assert 0.0 < summary["total_weight"] < math.inf
    assert summary["max_row_norm"] == pytest.approx(scale)
    assert summary["weight_floor"] == pytest.approx(math.sqrt(30) / (8.0 * max(1.0, scale)))


def test_fit_ntk_summary_is_scale_free(tmp_path, capsys):
    """Rows x 2^-40 report the unit rows' size bound, (gamma, omega) and
    hypothesis, and 2^40 times their weight (kd_bound read 2.6e-20, and the
    hypothesis false, for a network that fits)."""
    ds = rademacher_labels(sample_sphere(30, 10, 0), 1)
    summaries = []
    for c in (1.0, 2.0 ** -40):
        path = str(tmp_path / "ds.bin")
        save_dataset(Dataset(c * ds.points, ds.labels), path)
        assert main(["fit", "--method", "ntk", "--epsilon", "0.3", path]) == 0
        summaries.append(json.loads(capsys.readouterr().out))
    unit, small = summaries
    for key in ("k", "kd_bound", "kd_hypothesis_met", "gamma", "omega", "error_ratio"):
        assert small[key] == unit[key]
    assert small["total_weight"] == 2.0 ** 40 * unit["total_weight"]


def test_fit_harmonic_on_an_unnormalized_gaussian_cloud(tmp_path, capsys):
    """N(0, I) rows, n=200, d=20, norms up to about 7: the fit runs on the
    rows over 8 and exits 0 (before: the sampler's scores overflowed and the
    fit stopped at iteration 0, exit 4)."""
    pts = np.random.default_rng(0).standard_normal((200, 20))
    path = str(tmp_path / "cloud.bin")
    save_dataset(rademacher_labels(Dataset(pts, np.zeros(200)), 1), path)
    assert main(["fit", "--method", "harmonic", "--epsilon", "0.25", "--seed", "1", path]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["error_ratio"] <= 0.25 and summary["trimmed_out"] == 0
    assert (summary["m"], summary["k"]) == (24, 961)
    assert 4.0 < summary["max_row_norm"] < 8.0
    assert summary["weight_floor"] == math.sqrt(200) / (8.0 * summary["max_row_norm"])


def test_baum_fits_on_conflicting_duplicates_are_a_data_error(tmp_path, capsys):
    """Two copies of one point with different labels: no partition certifies."""
    pts = sample_sphere(12, 4, 0).points
    path = str(tmp_path / "dup.bin")
    save_dataset(Dataset(np.vstack([pts, pts[:1]]), np.r_[np.zeros(12), 1.0]), path)
    for method in ("baum-relu", "baum-threshold"):
        assert main(["fit", "--method", method, path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "after 20 partitions" in err
    assert not (tmp_path / "dup.network.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big", ["1e308", "1e200"])
def test_baum_relu_on_rows_near_the_float64_limit_is_a_data_error(tmp_path, capsys, big):
    """The rows (big, big) and (1, 2): at 1e308 the group solve is inf/NaN, which
    used to reach the network (exit 2, "neuron parameters must be finite", after
    two RuntimeWarnings); at 1e200 numpy warned of a norm overflow."""
    path = tmp_path / "big.csv"
    path.write_text(f"{big},{big},1\n1,2,3\n")
    assert main(["fit", "--method", "baum-relu", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: baum_relu_fit failed after 20 partitions")
    assert err.count("\n") == 1 and not (tmp_path / "big.network.json").exists()


def test_harmonic_on_one_point_is_a_data_error(tmp_path, capsys):
    """log n = 0 at n = 1 leaves the harmonic fit no projection cutoff."""
    path = _gen(tmp_path, n=1, d=5)
    capsys.readouterr()
    for argv in (["fit", "--method", "harmonic", "--epsilon", "0.3", path],
                 ["sweep", "--method", "harmonic", "--d", "5", "--n-list", "1",
                  "--epsilon", "0.3", "-o", str(tmp_path / "x.csv")]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "n=1" in err and err.count("\n") == 1
    assert not (tmp_path / "ds.network.json").exists()
    assert not (tmp_path / "x.csv").exists()


def _assert_bad_seed(argv, flag, value, capsys):
    """argparse rejects the seed: exit 2, its usage, then one error line."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(
        f"error: argument {flag}: seed must be a non-negative integer, got '{value}'")


def test_gen_data_negative_seed(tmp_path, capsys):
    out = tmp_path / "ds.bin"
    _assert_bad_seed(["gen-data", "--n", "20", "--d", "5", "--seed", "-1", "-o", str(out)],
                     "--seed", -1, capsys)
    assert not out.exists()


@pytest.mark.parametrize("method", ["exact", "baum-relu", "ntk"])
def test_fit_negative_seed(tmp_path, capsys, method):
    path = _gen(tmp_path, n=20, d=5)
    eps = ["--epsilon", "0.3"] if method == "ntk" else []
    _assert_bad_seed(["fit", "--method", method, *eps, "--seed", "-2", path],
                     "--seed", -2, capsys)
    assert not (tmp_path / "ds.network.json").exists()


def test_sweep_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.csv"
    _assert_bad_seed(["sweep", "--method", "baum-relu", "--d", "5", "--n-list", "20",
                      "--seeds", "0,-3", "-o", str(out)], "--seeds", -3, capsys)
    assert not out.exists()


def test_flag_file_negative_seed(tmp_path, capsys):
    path = _gen(tmp_path, n=20, d=5)
    _assert_bad_seed(["fit", "--method", "baum-relu", _flag_file(tmp_path, "--seed -4\n"), path],
                     "--seed", -4, capsys)


def test_fit_convergence_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = _gen(tmp_path)

    def boom(ds, epsilon, seed=0):
        raise ConvergenceError("stalled", trace=FitTrace())

    monkeypatch.setattr("memnet.cli.ntk_fit", boom)
    rc = main(["fit", "--method", "ntk", "--epsilon", "0.1", path])
    assert rc == 4
    assert "convergence" in capsys.readouterr().err


def test_fit_invariant_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = _gen(tmp_path)

    def broken(ds, epsilon, seed=0):
        raise InvariantError("adaptive step increased the residual")

    monkeypatch.setattr("memnet.cli.ntk_fit", broken)
    rc = main(["fit", "--method", "ntk", "--epsilon", "0.1", path])
    assert rc == 4
    assert "increased the residual" in capsys.readouterr().err


def _flag_file(tmp_path, text):
    flags = tmp_path / "flags.txt"
    flags.write_text(text)
    return f"@{flags}"


def _fit_network(tmp_path, argv, name):
    assert main(argv[:-1] + ["-o", str(tmp_path / name), argv[-1]]) == 0
    return (tmp_path / f"{name}.network.json").read_text()


def test_flag_file_matches_typed_flags(tmp_path, capsys):
    """A flag file may supply required flags; its network is the typed one's."""
    path = _gen(tmp_path)
    typed = ["--method", "ntk", "--epsilon", "0.3", "--seed", "5"]
    at = _flag_file(tmp_path, "\n--method ntk\n\n--epsilon 0.3   --seed 5\n")
    from_file = _fit_network(tmp_path, ["fit", at, path], "a")
    assert from_file == _fit_network(tmp_path, ["fit", *typed, path], "f")
    assert from_file != _fit_network(tmp_path, ["fit", *typed[:4], path], "d")
    command_in_file = _flag_file(tmp_path, "fit " + " ".join(typed))
    assert _fit_network(tmp_path, [command_in_file, path], "c") == from_file
    capsys.readouterr()


def test_typed_flag_after_flag_file_wins(tmp_path, capsys):
    path = _gen(tmp_path)
    fit = ["fit", "--method", "ntk", "--epsilon", "0.3"]
    at = _flag_file(tmp_path, "--seed 5")
    typed = _fit_network(tmp_path, fit + [at, "--seed", "7", path], "t")
    assert typed == _fit_network(tmp_path, fit + ["--seed", "7", path], "s")
    capsys.readouterr()


def test_config_file_defaults(tmp_path, capsys):
    """A flag file holds a fit's settings: --method and --epsilon both come from it."""
    path = _gen(tmp_path)
    at = _flag_file(tmp_path, "--method ntk\n--epsilon 0.3\n")
    assert main(["fit", at, path]) == 0
    summary = json.loads((tmp_path / "ds.summary.json").read_text())
    assert summary["method"] == "ntk" and summary["epsilon"] == 0.3
    capsys.readouterr()


def test_config_values_are_converted(tmp_path, capsys):
    """A flag file is text; its --epsilon reaches summary.json as a float."""
    path = _gen(tmp_path)
    assert main(["fit", "--method", "ntk", _flag_file(tmp_path, "--epsilon 0.3"), path]) == 0
    summary = json.loads((tmp_path / "ds.summary.json").read_text())
    assert summary["epsilon"] == 0.3 and isinstance(summary["epsilon"], float)
    capsys.readouterr()


def _assert_flag_file_error(tmp_path, capsys, at, needle):
    """argparse rejects the flag file: exit 2 and its error line."""
    path = _gen(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--method", "ntk", "--epsilon", "0.3", at, path])
    assert exc.value.code == 2
    assert needle in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "ds.network.json").exists()


def test_flag_file_missing(tmp_path, capsys):
    _assert_flag_file_error(tmp_path, capsys, f"@{tmp_path / 'none.txt'}", "none.txt")


def test_flag_file_bad_value(tmp_path, capsys):
    _assert_flag_file_error(tmp_path, capsys, _flag_file(tmp_path, "--epsilon abc"),
                            "error: argument --epsilon")


def test_flag_file_unknown_flag(tmp_path, capsys):
    _assert_flag_file_error(tmp_path, capsys, _flag_file(tmp_path, "--metod ntk"),
                            "unrecognized arguments: --metod")


def test_sweep_csv_sorted_and_deterministic(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["sweep", "--method", "baum-relu", "--d", "10",
            "--n-list", "40,20", "--seeds", "0,1", "-o", out1]
    assert main(argv) == 0
    assert main(argv[:-1] + [out2]) == 0
    assert Path(out1).read_text() == Path(out2).read_text()
    lines = Path(out1).read_text().strip().splitlines()
    assert lines[0].startswith("method,n,d,seed")
    assert len(lines) == 5
    ns = [int(line.split(",")[1]) for line in lines[1:]]
    assert ns == sorted(ns)
    capsys.readouterr()


@pytest.mark.parametrize("method", ["exact", "baum-threshold", "baum-relu", "ntk", "harmonic"])
def test_sweep_row_is_the_fit_summary(tmp_path, capsys, method):
    """A sweep cell and ``fit`` on the ``gen-data`` file of the same (n, d, seed,
    labels) report the same summary: every key of summary.json is in the row with
    the same value, the row's "" epsilon standing for null."""
    n, d, seed = 60, 30, 1
    path = _gen(tmp_path, n=n, d=d, seed=seed)
    if method == "baum-threshold":
        ds = load_dataset(path)
        save_dataset(ds.with_labels((ds.labels > 0).astype(float)), path)
    eps = ["--epsilon", "0.3"] if method in ("ntk", "harmonic") else []
    assert main(["fit", "--method", method, *eps, "--seed", str(seed), path]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "ds.summary.json").read_text())
    row = sweep_cell(method, n, d, seed, 0.3 if eps else None, "rademacher")
    assert row["seed"] == seed and row["trimmed_out"] == summary.get("trimmed_out", 0)
    if not eps:
        assert row["max_residual"] < 1e-6
    assert row["epsilon"] == ("" if summary["epsilon"] is None else summary["epsilon"])
    assert {key: row[key] for key in summary} == {**summary, "epsilon": row["epsilon"]}


@pytest.mark.parametrize("n, d", [(5, 10 ** 30), (2 ** 40, 2 ** 30)])
def test_oversize_sample_is_a_parameter_error(tmp_path, capsys, n, d):
    """numpy refuses both shapes before it allocates: one error line, exit 2."""
    for argv in (["gen-data", "--n", str(n), "--d", str(d), "-o", str(tmp_path / "x.bin")],
                 ["sweep", "--method", "baum-relu", "--d", str(d), "--n-list", str(n),
                  "-o", str(tmp_path / "x.csv")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot sample {n} x {d} points") and err.count("\n") == 1
    assert not (tmp_path / "x.bin").exists() and not (tmp_path / "x.csv").exists()


def test_out_of_memory_sample_is_a_parameter_error(tmp_path, capsys, monkeypatch):
    """A generator that runs out of memory (monkeypatched: nothing is allocated)."""
    class Starved:
        def __init__(self, seed):
            pass

        def standard_normal(self, shape):
            raise MemoryError("Unable to allocate 3.64 TiB")

    monkeypatch.setattr(np.random, "default_rng", Starved)
    assert main(["gen-data", "--n", "100000000000", "--d", "5",
                 "-o", str(tmp_path / "x.bin")]) == 2
    assert capsys.readouterr().err == (
        "error: cannot sample 100000000000 x 5 points: Unable to allocate 3.64 TiB\n")


def test_sweep_parallel_matches_serial(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MEMNET_THREADS", "2")
    serial, parallel = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
    base = ["sweep", "--method", "ntk", "--d", "10", "--n-list", "20,10",
            "--epsilon", "0.3", "--seeds", "0"]
    assert main(base + ["-o", serial]) == 0
    assert main(base + ["--parallel", "-o", parallel]) == 0
    assert Path(serial).read_text() == Path(parallel).read_text()
    capsys.readouterr()


def test_sweep_pool_capped_at_cell_count(tmp_path, capsys, monkeypatch):
    import concurrent.futures
    sizes = []

    class SerialPool:
        """Records the pool size and maps in this process; starts no worker."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for threads, n_list in (("4096", "20"), ("4096", "20,10"), ("0", "20"), ("1", "20,10")):
        monkeypatch.setenv("MEMNET_THREADS", threads)
        assert main(["sweep", "--method", "baum-relu", "--d", "10", "--n-list", n_list,
                     "--parallel", "-o", str(tmp_path / "x.csv")]) == 0
    assert sizes == [1, 2, 1, 1]
    capsys.readouterr()


def test_sweep_bad_thread_count(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was created")

    monkeypatch.setenv("MEMNET_THREADS", "abc")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    rc = main(["sweep", "--method", "baum-relu", "--d", "10", "--n-list", "20",
               "--parallel", "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "MEMNET_THREADS" in capsys.readouterr().err


def test_sweep_empty_n_list(tmp_path, capsys):
    rc = main(["sweep", "--method", "baum-relu", "--d", "10",
               "--n-list", "", "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    capsys.readouterr()


def test_sweep_empty_seeds(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--method", "baum-relu", "--d", "10",
               "--n-list", "20", "--seeds", "", "-o", str(out)])
    assert rc == 2
    assert not out.exists()
    capsys.readouterr()


def _assert_unwritable(argv, path, capsys):
    assert main(argv) == 2
    assert f"error: [Errno 2] No such file or directory: '{path}" in capsys.readouterr().err


def test_gen_data_unwritable_output(tmp_path, capsys):
    out = str(tmp_path / "missing" / "ds.bin")
    _assert_unwritable(["gen-data", "--n", "20", "--d", "5", "-o", out], out, capsys)


def test_fit_unwritable_output(tmp_path, capsys):
    path = _gen(tmp_path, n=20, d=5)
    capsys.readouterr()
    out = str(tmp_path / "missing" / "x")
    _assert_unwritable(["fit", "--method", "baum-relu", "-o", out, path], out, capsys)


def test_sweep_unwritable_output(tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.csv")
    _assert_unwritable(["sweep", "--method", "baum-relu", "--d", "5", "--n-list", "20",
                        "-o", out], out, capsys)


def test_sweep_epsilon_forbidden_for_exact(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--method", "baum-relu", "--d", "10",
               "--n-list", "20", "--epsilon", "0.1", "-o", str(out)])
    assert rc == 2
    assert "forbidden" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_requires_epsilon_for_iterative(tmp_path, capsys):
    rc = main(["sweep", "--method", "harmonic", "--d", "10",
               "--n-list", "20", "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    capsys.readouterr()


def test_fit_bytes_across_blas_thread_counts(tmp_path):
    """Under one and two OpenBLAS threads every method but exact writes the
    same network bytes.  Exact selects the same hidden layer (w, b); its
    outer solve may differ in the last bits with the thread count."""
    ds = sample_sphere(100, 50, 0)
    labeled = rademacher_labels(ds, 1)
    save_dataset(labeled, str(tmp_path / "ds.bin"))
    save_dataset(ds.with_labels((labeled.labels > 0).astype(float)), str(tmp_path / "01.bin"))
    fits = {"exact": ["ds.bin"], "baum-threshold": ["01.bin"], "baum-relu": ["ds.bin"],
            "ntk": ["--epsilon", "0.25", "ds.bin"],
            "harmonic": ["--epsilon", "0.25", "ds.bin"]}
    nets = {}
    for threads in ("1", "2"):
        argvs = [["fit", "--method", method, "-o", str(tmp_path / f"{method}-{threads}"),
                  *args[:-1], str(tmp_path / args[-1])] for method, args in fits.items()]
        code = (f"from memnet.cli import main\nfor argv in {argvs!r}:\n"
                "    assert main(argv) == 0\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       check=True, timeout=300)
        for method in fits:
            nets[method, threads] = (tmp_path / f"{method}-{threads}.network.json").read_bytes()
    for method in ("baum-threshold", "baum-relu", "ntk", "harmonic"):
        one, two = (hashlib.sha256(nets[method, t]).hexdigest() for t in ("1", "2"))
        assert one == two, method
    one, two = ([(nr["w"], nr["b"]) for nr in json.loads(nets["exact", t])["neurons"]]
                for t in ("1", "2"))
    assert one == two
