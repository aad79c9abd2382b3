"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest bench/tests -q
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from memnet.network import Neuron, TwoLayerNetwork  # noqa: E402

TINY = {
    "harmonic-lowcoh": dict(run.WORKLOADS["harmonic-lowcoh"], n=50, d=100, fits=2),
    "combinatorial": dict(run.WORKLOADS["combinatorial"], d=5, n_list=[10, 20],
                          datasets_per_n=1, exact_max_n=10),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def declared() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_declared_workloads_and_metrics_match_the_runner():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_run_emits_every_metric_with_its_unit(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = declared()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in metrics}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _negated(net: TwoLayerNetwork) -> TwoLayerNetwork:
    return TwoLayerNetwork(tuple(Neuron(-nr.a, nr.w, nr.b) for nr in net.neurons),
                           net.activation)


@pytest.mark.parametrize("workload", ["harmonic-lowcoh", "combinatorial"])
def test_corrupted_network_counts_as_failed(tiny, monkeypatch, workload):
    real_fit = worker.fit

    def corrupted_fit(*args):
        net, facts = real_fit(*args)
        return _negated(net), facts

    monkeypatch.setattr(worker, "fit", corrupted_fit)
    monkeypatch.setattr(run, "run_worker", lambda request: dict(
        worker.run_job(request), spans=[], machine={}))
    result = run.measure(workload, seed=0, seconds=0, trace=False)["result"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_missing_public_name_stops_tracing(monkeypatch):
    for module_name, name, _label in tracing.TARGETS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, name, getattr(module, name))
    monkeypatch.delattr(importlib.import_module("memnet.ntk"), "ntk_step")
    with pytest.raises(tracing.MissingLayerError, match="memnet.ntk.ntk_step"):
        tracing.Tracer().install()
