"""``tools/proposal_hex.py`` runs and writes the same file twice."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "proposal_hex.py"


def run_script(out: Path, *args: str) -> list[str]:
    subprocess.run([sys.executable, str(SCRIPT), *args, "--out", str(out)],
                   check=True, timeout=120)
    return out.read_text().splitlines()


def test_output_is_deterministic_and_hex(tmp_path):
    first = run_script(tmp_path / "a.hex", "--trials", "6")
    assert first == run_script(tmp_path / "b.hex", "--trials", "6")
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


def test_slots_are_deterministic_and_see_pending_trials(tmp_path):
    args = ("--slots", "3", "--trials", "8")
    first = run_script(tmp_path / "a.hex", *args)
    assert first == run_script(tmp_path / "b.hex", *args)
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


def test_curve_stop_mode_is_deterministic_and_stops_trials(tmp_path):
    args = ("--mode", "curve-stop", "--trials", "20")
    first = run_script(tmp_path / "a.hex", *args)
    assert first == run_script(tmp_path / "b.hex", *args)
    assert [line for line in first if line.startswith("#")] == [
        "# job curve-stop-1000", "# job curve-stop-1001"]
    events = [json.loads(line) for line in first if not line.startswith("#")]
    assert sum(e["type"] == "trial_launched" for e in events) == 40
    stopped = [e for e in events if e["type"] == "trial_stopped"]
    assert stopped
    assert all(isinstance(e["final_value"], str) for e in stopped)
