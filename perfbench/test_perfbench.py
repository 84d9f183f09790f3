"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python -m pytest perfbench -q

Each workload runs once briefly with ``--trace 0`` and once with
``--trace 1``; the printed metrics must be exactly the ones
``BENCHMARK.json`` declares, with the declared units.  Two runs with
the same seed must agree exactly on every modeled metric.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODELED = [m["name"] for m in SPEC["end_to_end"] if m["unit"] == "modeled_s"] + [
    "goodput_ratio"
]


@functools.lru_cache(maxsize=None)
def run(workload, trace, seed=3, attempt=0):
    """One short benchmark run; returns its final JSON line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_and_units_match_the_spec(workload, trace):
    result = run(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["dos-paper", "gateway-overload"])
def test_modeled_metrics_repeat_exactly(workload):
    first = run(workload, 0)["metrics"]
    second = run(workload, 0, attempt=1)["metrics"]
    for name in MODELED:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dos-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
