"""Self-test of the benchmark at a reduced campaign size.

    python3 -m pytest perfbench/tests -q

Each workload runs for a second at ``--scale 0.1``.  The tests check the
result line against ``BENCHMARK.json``, that a planted wrong expected
value makes ``ok_ratio`` drop below 1, that a traced run reports every
per-layer metric and keeps each workload off the layers it should
bypass, and that the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# layers each workload must not touch, per the traced call counts
BYPASSED = {
    "compose": ("core.stats", "query", "viz", "serve", "client"),
    "eda": ("readers", "ingest", "core.io", "serve", "client"),
    "serve-mixed": ("readers", "ingest", "graph", "core.stats", "core.io",
                    "query", "viz"),
}


def run(workload: str, *extra: str, trace: int = 0, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "0.1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["samples"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    samples, res = result(run(workload))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 100
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
        assert samples[m["name"]] >= 1
    assert res["metrics"]["ok_ratio"]["value"] == 1.0
    assert samples["setup_s"] == 3
    assert samples["op_p90_ms"] >= 100 and samples["op_p90_ms_above"] >= 10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_fault_is_caught(workload):
    _, res = result(run(workload, "--plant-fault"))
    assert not res["correct"] and res["failed"] > 0
    assert res["metrics"]["ok_ratio"]["value"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    samples, res = result(run(workload, trace=1))
    assert res["correct"]
    # a filled-in time comes from another workload, never from this one
    filled = samples["filled_in"]
    assert filled and workload not in filled.values()
    assert set(filled) < set(res["metrics"])
    assert ("setup.server_ready_s" in filled) == (workload != "serve-mixed")
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    value = {k: v["value"] for k, v in res["metrics"].items()}
    # every time is measured, on this workload or by the fill-in runs
    assert all(v["value"] != 0 for v in res["metrics"].values()
               if v["unit"] in ("s", "ms"))
    for layer in BYPASSED[workload]:
        assert value[f"{layer}.calls"] == 0, layer
    assert value["trace.overhead_ratio"] > 0
    if workload == "eda":
        assert value["trace.stats_groupby_share"] > 0.5
        assert value["core.stats.grouped_values_calls"] > 0
    if workload == "compose":
        assert value["readers.calls"] > 0 and value["core.store_bytes"] > 0
    if workload == "serve-mixed":
        assert value["client.calls"] > 0 and value["serve.calls"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("eda", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
