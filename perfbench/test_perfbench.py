"""Tests of the benchmark itself: tiny runs, forged results, contract.

    python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # first: it pins BLAS to one thread before numpy loads
import layers
from workloads import JOINT_CASES, WORKLOADS, CertifyLargeL, OracleCheck, Run, setup

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload(name, tmp_path):
    workload = WORKLOADS[name]
    plain = run.run_benchmark(name, 5, 0.0, 0, workload.tiny, out=tmp_path)
    result = plain["result"]
    assert result["correct"], plain["failed_checks"] or plain["errors"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.run_benchmark(name, 5, 0.0, 1, workload.tiny, out=tmp_path)
    result = traced["result"]
    assert result["correct"], traced["failed_checks"] or traced["errors"]
    assert list(result["metrics"]) == [s["name"] for s in layers.specs()]
    # Same seed, same outputs, also across the two runs and with tracing.
    assert traced["digests"] == plain["digests"]
    assert traced["digest_vs_earlier_run"]["ok"] is True
    metrics = result["metrics"]
    peaks = [k for k in metrics if ".peak_alloc_mb" in k and metrics[k]["value"] > 0]
    assert peaks, "the memory repetition recorded no allocation peak"
    spans = (tmp_path / f"spans-{name}-seed5.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert {"id", "parent", "name", "start", "end", "run"} <= set(first)


def test_pool_spans_take_run_experiment_as_parent(tmp_path):
    workload = WORKLOADS["monte_carlo"]
    run.run_benchmark("monte_carlo", 2, 0.0, 1, workload.tiny, out=tmp_path)
    spans = [json.loads(line) for line in
             (tmp_path / "spans-monte_carlo-seed2.jsonl").read_text().splitlines()]
    experiments = {s["id"] for s in spans if s["name"] == "cli.run_experiment"}
    simulates = [s for s in spans if s["name"] == "sim.simulate"]
    assert simulates
    assert all(s["parent"] in experiments for s in simulates)


def _forged_run(workload, tmp_path) -> Run:
    pkg = run.import_fresh()
    return setup(pkg, workload, workload.tiny, 0, tmp_path / "rep")


def test_negative_certificate_is_a_failed_op(tmp_path):
    workload = CertifyLargeL()
    forged = _forged_run(workload, tmp_path)
    for name in forged.configs:
        spectral = tmp_path / f"{name}_spectral.json"
        spectral.write_text(json.dumps({"rho": 1.25, "route_agreement": 0.0}))
        forged.outputs[f"spectral.{name}"] = spectral
    workload.check(forged)
    failed = {c["check"] for c in forged.checks if not c["ok"]}
    assert {f"{name} rho < 1" for name in forged.configs} <= failed
    assert forged.failed >= len(forged.configs)


def test_joint_optimum_below_c_rp_is_a_failed_op(tmp_path):
    workload = OracleCheck()
    forged = _forged_run(workload, tmp_path)
    for name in ("reference", "shrinking_gap"):
        report = tmp_path / f"{name}.json"
        report.write_text(json.dumps({"ok": True, "max_cost_error": 0.0}))
        forged.outputs[f"oracle-check.{name}"] = report
    forged.values = {name: 0.5 for name in JOINT_CASES}  # below any c_rp >= 1
    workload.check(forged)
    assert forged.failed == len(JOINT_CASES)


def test_digest_mismatch_is_a_failed_op(tmp_path):
    workload = WORKLOADS["analysis"]
    first = run.run_benchmark("analysis", 1, 0.0, 0, workload.tiny,
                              out=tmp_path)
    assert first["result"]["failed"] == 0
    store = tmp_path / "digests.json"
    known = json.loads(store.read_text())
    for digests in known.values():
        digests["values"] = "0" * 64
    store.write_text(json.dumps(known))
    again = run.run_benchmark("analysis", 1, 0.0, 0, workload.tiny,
                              out=tmp_path)
    assert again["result"]["failed"] == 1
    assert again["result"]["correct"] is False
    assert again["digest_vs_earlier_run"]["ok"] is False


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monte_carlo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == layers.specs()
    assert spec["paths"] == [Path(run.HERE).name]
