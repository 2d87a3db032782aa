"""``tools/proposal_hex.py`` runs and writes the same file twice."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "proposal_hex.py"


def run_script(out: Path) -> list[str]:
    subprocess.run([sys.executable, str(SCRIPT), "--trials", "6",
                    "--out", str(out)], check=True, timeout=120)
    return out.read_text().splitlines()


def test_output_is_deterministic_and_hex(tmp_path):
    first = run_script(tmp_path / "a.hex")
    assert first == run_script(tmp_path / "b.hex")
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
