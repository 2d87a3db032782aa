"""The traced bench run can still wrap every tunekit name it patches.

``bench/spans.py`` replaces module and class attributes, such as
``acquisition.predict_batch``, ``inference.lml_function`` and
``JobStore.write_trial``, for the length of a ``bench/run.py --trace 1``
run.  Deleting or renaming one of them breaks that run; this test breaks
first, inside the tier-1 suite.  The bench also stops jobs through
``JobStore.set_status``, and stops again the copies it resumes.
"""
from __future__ import annotations

import math
import shutil
from pathlib import Path

from tunekit.jobstore import JobStore

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_trace_wrappers_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    patches = spans.Patches(spans.Tracer())
    with patches:
        assert not patches.restored()
    assert patches.restored()


def test_bench_stops_a_job_and_a_resumed_copy_of_it(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness

    workload = harness.WORKLOADS["curve-stop-journal"]
    store = JobStore(tmp_path / "store")
    try:
        job = harness.run_one(workload, store, "job-000", 7, -math.inf, 4)
        assert job.cut
        assert store.load_job("job-000")[2].running_ids == []
    finally:
        store.close()
    # As the bench's resume timing does: copy the stopped job, stop file
    # included, cut its journal just after a launch, and run it again.
    copy_root = tmp_path / "resume"
    shutil.copytree(store.job_dir("job-000"), copy_root / "job-000")
    events = copy_root / "job-000" / "events.log"
    lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
    launch = next(i for i, line in enumerate(lines)
                  if '"type":"trial_launched"' in line)
    events.write_text("".join(lines[:launch + 1]), encoding="utf-8")
    copy = JobStore(copy_root)
    try:
        resumed = harness.run_one(workload, copy, "job-000", 7, -math.inf, 4)
        assert resumed.cut
        state = copy.load_job("job-000")[2]
        assert state.running_ids == [] and state.status == "completed"
    finally:
        copy.close()
