"""Smoke test of the benchmark at tiny sizes: every metric appears with its unit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import spans

CONTRACT = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def test_contract_lists_every_workload_and_every_span_is_reachable():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(bench.WORKLOADS)
    assert set().union(*bench.MUST_FIRE.values()) == set(spans.SPAN_NAMES)


def test_end_to_end_metrics_have_their_units():
    result, lines = bench.run_workload("train_single", seed=1, seconds=0, trace=False, sizes=bench.TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in ("epoch_ms", "setup_s", "peak_rss_mb", "failed_fraction"):
        assert any(line.startswith(f"train_single {name} = ") for line in lines)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_reports_per_layer_metrics_and_exact_counts(workload):
    result, _ = bench.run_workload(workload, seed=2, seconds=0, trace=True, sizes=bench.TINY)
    assert result["correct"], result
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    calls = {k: metrics[f"hsic.{k}.calls"]["value"] for k in ("hsic_value_and_grad", "median_bandwidth")}
    per_step = {k: metrics[f"hsic.{k}.calls_per_step"]["value"] for k in calls}
    if workload == "train_ced":
        assert per_step == {"hsic_value_and_grad": 4, "median_bandwidth": 8}
    if workload in ("train_single", "eval_open"):
        assert calls == per_step == {"hsic_value_and_grad": 0, "median_bandwidth": 0}


def test_tracer_restores_every_binding():
    cli = bench.import_osev()
    import osev.debias
    import osev.hsic
    import osev.nn

    before = (osev.debias.hsic_value_and_grad, osev.hsic.hsic_value_and_grad, osev.nn.TemporalConv.forward, cli.main)
    tracer = spans.Tracer()
    tracer.start()
    try:
        assert osev.debias.hsic_value_and_grad is not before[0]
        assert osev.hsic.hsic_value_and_grad is not before[1]
    finally:
        tracer.stop()
    assert (osev.debias.hsic_value_and_grad, osev.hsic.hsic_value_and_grad, osev.nn.TemporalConv.forward, cli.main) == before


def test_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = CONTRACT["command"][1:]
    proc = subprocess.run(
        [sys.executable, *command, "--workload", "train_single", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (Path(tmp_path) / ".bench_work").exists()
