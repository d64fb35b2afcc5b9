"""The benchmark's own test: tiny runs of every workload, both modes.

    python3 -m pytest perfbench/test_smoke.py -q

``--smoke`` shrinks every instance, so this catches a benchmark broken by a
refactor of ``evaluate`` or ``solve`` within seconds.  It also checks that
the oracles reject a wrong answer, and that the benchmark refuses to run
without the sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import inproc  # noqa: E402
import mix  # noqa: E402
import oracles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def smoke_run(workload: str, trace: int, seed: int = 3) -> dict:
    """The metrics of one passing smoke run, as {name: {"value", "unit"}}."""
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = bench(ROOT, *args, "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result["metrics"]


def units(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


def test_workloads_match_benchmark_json():
    assert WORKLOADS == list(mix.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = smoke_run(workload, 0)
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    metrics = smoke_run(workload, 1)
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["model.choice_key.calls"] > 0
    if workload == "threshold-independent":
        assert value["solve.brute_force_opt.menus"] == 0
        assert value["solve.best_threshold.menus"] > 0
    serialize = [
        value[f"serialize.{fn}.{m}"]
        for fn in ("loads_instance", "dumps_instance")
        for m in ("busy_s", "bytes")
    ]
    if workload == "cli-batch":
        assert all(serialize) and value["cli.sweep.wall_s"] > 0
    else:
        assert not any(serialize)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_has_references(workload):
    smoke_run(workload, 0, seed=mix.HELD_OUT_SEED)


def test_oracles_reject_wrong_answers():
    dm = harness.load_delmenu()
    pool = mix.SMOKE["opt-exhaustive"].slots[1]
    item = mix.build_item(dm, pool, 0)
    result, bounds = inproc.run_opt(dm, item)
    assert oracles.check_opt(item, result, bounds) == []
    wrong = dataclasses.replace(result, opt_value=result.opt_value + 1)
    assert oracles.check_opt(item, wrong, bounds)
    reference = harness.load_reference("opt-exhaustive")
    assert oracles.compare_reference(item.key, oracles.opt_record(result, bounds), reference) == []
    assert oracles.compare_reference(item.key, oracles.opt_record(wrong, bounds), reference)

    item = mix.build_item(dm, mix.SMOKE["threshold-independent"].slots[0], 0)
    best, report, dec = inproc.run_threshold(dm, item)
    assert oracles.check_threshold(item, best, report, dec) == []
    wrong_report = dataclasses.replace(report, f=report.f + 1)
    assert oracles.check_threshold(item, best, wrong_report, dec)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "opt-exhaustive", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
