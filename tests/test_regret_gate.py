"""``tools/regret_gate.py`` finds no difference between a tree and itself."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "regret_gate.py"


def test_same_tree_twice_differs_on_no_seed_and_passes(tmp_path):
    out = tmp_path / "gate.json"
    src = str(ROOT / "src")
    subprocess.run([sys.executable, str(SCRIPT), "--src", src, "--src", src,
                    "--workload", "branin-50", "--seeds", "2",
                    "--first-seed", "1000", "--trials", "8",
                    "--out", str(out)], check=True, timeout=30)
    report = json.loads(out.read_text())
    assert report["seeds"] == [1000, 1001] and report["trials"] == 8
    assert report["parent"]["regret"] == report["change"]["regret"]
    assert all(regret >= 0.0 for regret in report["parent"]["regret"])
    assert report["paired_diff"] == [0.0, 0.0]
    assert report["median_diff_ci95"] == [0.0, 0.0]
    assert report["verdict"]["pass"]
    assert len(report["change"]["cpu_s_per_job"]) == 2
    assert report["change"]["host"]["OPENBLAS_NUM_THREADS"] == "1"
