"""Tests of the benchmark itself: generator, checks, and a tiny run of every
workload in both modes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_passes_are_deterministic_per_seed(workload):
    first = workloads.make_pass(workload, 11, 2)
    assert first == workloads.make_pass(workload, 11, 2)
    assert first != workloads.make_pass(workload, 12, 2)
    assert all(r["argv"][0] == "--profile" for r in first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("tiny", [False, True])
def test_every_check_is_wired(workload, tiny):
    for index in range(3):
        for request in workloads.make_pass(workload, 5, index, tiny):
            assert oracle.miswired(request) == [], request["argv"]


def test_a_wrong_value_fails_its_check():
    request = next(r for r in workloads.make_pass("cli_cold", 3, 0) if r["kind"] == "speed")
    reference = oracle.expected(request)
    good = {k: v.value for k, v in reference.items()}
    assert oracle.verdict(request, {"code": 0, "parsed": good})["ok"]
    bad = dict(good, v=good["v"] * (1 + 1e-9))
    judged = oracle.verdict(request, {"code": 0, "parsed": bad})
    assert not judged["ok"] and "v" in judged["cause"]


def test_field_momentum_is_checked_against_the_truncated_bore():
    request = next(r for r in workloads.make_pass("cli_cold", 3, 0) if r["kind"] == "pmomentum")
    reference = oracle.expected(request)
    good = json.loads(json.dumps(reference, default=lambda ref: ref.value))
    assert oracle.verdict(request, {"code": 0, "parsed": good})["ok"]
    # the ideal-solenoid answer is off by the truncation tail, beyond the grid's error
    bad = json.loads(json.dumps(good))
    bad["P_e"][1] = bad["levels"][-1]["P_mag"] = good["analytic"][1]
    judged = oracle.verdict(request, {"code": 0, "parsed": bad})
    assert not judged["ok"] and "P_e" in judged["cause"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    done = _run("--workload", workload, "--seed", "2", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "cli_cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
