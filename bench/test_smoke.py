"""Smoke test of the benchmark: every workload, traced and untraced, at a tiny size.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY_TRIALS = {"bo-branin-serial": 6, "bo-curve-stop-parallel": 6,
               "curve-stop-journal": 12}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=180)


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(TINY_TRIALS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(TINY_TRIALS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, key):
    proc = run_bench(REPO, "--workload", workload, "--seed", "1",
                     "--seconds", "1", "--trace", str(trace),
                     "--max-trials", str(TINY_TRIALS[workload]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, metric in result["metrics"].items():
        assert NAME.match(name) and UNIT.match(metric["unit"])
        assert isinstance(metric["value"], float)


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "curve-stop-journal", "--seed",
                     "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
