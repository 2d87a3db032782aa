"""``tools/compare.py``: deterministic hex journals, and a tree that
finds no regret difference against itself."""
from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "compare.py"
SRC = str(ROOT / "src")


def load_tool():
    spec = importlib.util.spec_from_file_location("compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_hex(out: Path, *args: str) -> list[str]:
    subprocess.run([sys.executable, str(SCRIPT), "hex", *args,
                    "--out", str(out)], check=True, timeout=120)
    return out.read_text().splitlines()


def run_regret(out: Path, workload: str, *args: str) -> dict:
    subprocess.run([sys.executable, str(SCRIPT), "regret", "--src", SRC,
                    "--src", SRC, "--workload", workload, "--seeds", "2",
                    "--first-seed", "1000", *args, "--out", str(out)],
                   check=True, timeout=30)
    return json.loads(out.read_text())


def test_hex_is_deterministic_and_hex(tmp_path):
    first = run_hex(tmp_path / "a.hex", "--trials", "6")
    assert first == run_hex(tmp_path / "b.hex", "--trials", "6")
    assert [line for line in first if line.startswith("#")] == [
        "# job acc4-bo-1000", "# job acc4-bo-1001"]
    events = [json.loads(line) for line in first if not line.startswith("#")]
    assert not any("ts" in event for event in events)
    launches = [e for e in events if e["type"] == "trial_launched"]
    assert len(launches) == 12
    # the first four trials of a job are design points, the rest model
    # proposals carrying the chain state
    assert sum("proposal" in e for e in launches) == 4
    values = [v for e in launches for v in e["encoded"]]
    assert all(isinstance(v, str) and float.fromhex(v) >= 0.0 for v in values)


def test_hex_slots_are_deterministic_and_see_pending_trials(tmp_path):
    args = ("--slots", "3", "--trials", "8")
    first = run_hex(tmp_path / "a.hex", *args)
    assert first == run_hex(tmp_path / "b.hex", *args)
    running: set[str] = set()
    pending_at_model_launch = []
    for line in first:
        if line.startswith("#"):
            running.clear()
            continue
        event = json.loads(line)
        if event["type"] == "trial_launched":
            if "proposal" in event:
                pending_at_model_launch.append(len(running))
            running.add(event["trial_id"])
        elif event["type"] in ("trial_completed", "trial_failed",
                               "trial_stopped"):
            running.discard(event["trial_id"])
    assert max(pending_at_model_launch, default=0) > 0


def test_hex_curve_stop_is_deterministic_and_stops_trials(tmp_path):
    args = ("--workload", "curve-stop", "--trials", "20")
    first = run_hex(tmp_path / "a.hex", *args)
    assert first == run_hex(tmp_path / "b.hex", *args)
    assert [line for line in first if line.startswith("#")] == [
        "# job curve-stop-1000", "# job curve-stop-1001"]
    events = [json.loads(line) for line in first if not line.startswith("#")]
    assert sum(e["type"] == "trial_launched" for e in events) == 40
    stopped = [e for e in events if e["type"] == "trial_stopped"]
    assert stopped
    assert all(isinstance(e["final_value"], str) for e in stopped)


def test_regret_same_tree_twice_differs_on_no_seed_and_passes(tmp_path):
    report = run_regret(tmp_path / "gate.json", "branin-50", "--trials", "8")
    assert report["seeds"] == [1000, 1001] and report["trials"] == 8
    assert report["parent"]["regret"] == report["change"]["regret"]
    assert all(regret >= 0.0 for regret in report["parent"]["regret"])
    assert report["paired_diff"] == [0.0, 0.0]
    assert report["median_diff_ci95"] == [0.0, 0.0]
    assert report["verdict"]["pass"]
    assert len(report["change"]["cpu_s_per_job"]) == 2
    assert report["change"]["host"]["OPENBLAS_NUM_THREADS"] == "1"


def test_regret_four_slots_report_the_same_near_pending_share(tmp_path):
    report = run_regret(tmp_path / "gate.json", "branin-40-p4")
    assert report["slots"] == 4 and report["trials"] == 40
    assert report["paired_diff"] == [0.0, 0.0]
    parent, change = report["parent"], report["change"]
    assert parent["near_pending"]["model_launches"] == 2 * 35
    assert parent["near_pending"]["share"] is not None
    assert parent["near_pending"] == change["near_pending"]
    assert parent["warnings"] == change["warnings"]
    assert report["verdict"]["pass"]


def test_near_pending_counts_only_trials_still_running():
    near_pending = load_tool().near_pending

    def launched(trial_id, encoded, model=True):
        event = {"type": "trial_launched", "trial_id": trial_id,
                 "encoded": encoded}
        return {**event, "proposal": {}} if model else event

    def completed(trial_id):
        return {"type": "trial_completed", "trial_id": trial_id}

    journal = [
        launched("a", [0.5, 0.5], model=False),
        launched("b", [0.505, 0.5]),   # 0.005 from a, running: counts
        completed("a"),
        completed("b"),
        launched("c", [0.5, 0.505]),   # near a and b, both done: not
        launched("d", [0.9, 0.9]),     # far from c, running: not
    ]
    assert near_pending(journal) == (1, 3)
