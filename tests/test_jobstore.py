"""Filesystem store tests: atomicity, journaling, replay, recovery."""
from __future__ import annotations

import json
import logging
import math
import os
import shutil
import stat
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunekit.jobs import (
    JobConfigError,
    ObjectiveSpec,
    TuningJobConfig,
    job_config_to_dict,
)
from tunekit.jobstore import (
    EVENT_TYPES,
    AlreadyExistsError,
    CorruptStoreError,
    JobStore,
    NotFoundError,
    StoreError,
    replay_events,
)
from tunekit.runner import ExecutorSpec
from tunekit.space import Configuration, SearchSpace, continuous
from tunekit.stopping import MetricCurve
from tunekit.jobs import TrialRecord

DELETE = object()
SPACE = SearchSpace([continuous("x1", -5.0, 10.0), continuous("x2", 0.0, 15.0)])
EXECUTOR = ExecutorSpec(kind="builtin", benchmark="branin")


def make_config(job_id="job-a", **overrides) -> TuningJobConfig:
    defaults = dict(job_id=job_id, space=SPACE, objective=ObjectiveSpec("loss"),
                    max_trials=6)
    defaults.update(overrides)
    return TuningJobConfig(**defaults)


def launched(trial_id, attempt=1, ts=1.0):
    return {"type": "trial_launched", "trial_id": trial_id,
            "config": {"x1": 0.0, "x2": 1.0}, "encoded": [0.333, 0.066],
            "attempt": attempt, "ts": ts}


def metric(trial_id, iteration, value):
    return {"type": "metric_reported", "trial_id": trial_id,
            "metric": "loss", "iteration": iteration, "value": value}


def completed(trial_id, final, ts=2.0):
    return {"type": "trial_completed", "trial_id": trial_id,
            "final_value": final, "ts": ts}


@pytest.fixture
def store(tmp_path) -> JobStore:
    s = JobStore(tmp_path / "jobs")
    yield s
    s.close()


class TestLifecycle:
    def test_create_and_layout(self, store):
        store.create_job(make_config(), EXECUTOR)
        job_dir = store.job_dir("job-a")
        assert (job_dir / "job.json").is_file()
        assert not (job_dir / "trials").exists()
        assert (job_dir / "events.log").is_file()
        assert store.job_exists("job-a")
        assert "status" not in store.read_job_file("job-a")
        assert store.read_status("job-a") == "created"

    def test_duplicate_rejected(self, store):
        store.create_job(make_config(), EXECUTOR)
        with pytest.raises(AlreadyExistsError):
            store.create_job(make_config(), EXECUTOR)

    def test_invalid_config_writes_nothing(self, store):
        bad_space = SearchSpace([continuous("x", 1.0, 0.0)])
        with pytest.raises(JobConfigError):
            store.create_job(make_config(space=bad_space), EXECUTOR)
        assert not store.job_dir("job-a").exists()
        assert store.list_jobs() == []

    def test_status_round_trip(self, store):
        store.create_job(make_config(), EXECUTOR)
        job_json = store.job_dir("job-a") / "job.json"
        before = job_json.read_bytes()
        store.set_status("job-a", "stopping")
        assert store.read_status("job-a") == "stopping"
        assert (store.job_dir("job-a") / "stop").read_bytes() == b""
        assert job_json.read_bytes() == before
        for status in ("running", "completed", "created"):
            with pytest.raises(ValueError, match="only 'stopping'"):
                store.set_status("job-a", status)

    def test_no_temp_files_left_behind(self, store):
        store.create_job(make_config(), EXECUTOR)
        store.set_status("job-a", "stopping")
        store.set_status("job-a", "stopping")
        assert sorted(p.name for p in store.job_dir("job-a").iterdir()) == [
            "events.log", "job.json", "stop"]

    def test_stop_request_of_a_copied_stopped_job(self, store, tmp_path):
        # A copy of a stopped job's directory carries its stop file; a
        # second request on the copy is done already and succeeds.
        store.create_job(make_config(), EXECUTOR)
        store.set_status("job-a", "stopping")
        copy = JobStore(tmp_path / "copy")
        shutil.copytree(store.job_dir("job-a"), copy.job_dir("job-a"))
        assert copy.read_status("job-a") == "stopping"
        copy.set_status("job-a", "stopping")
        assert copy.load_job("job-a")[2].status == "stopping"
        copy.close()

    def test_create_and_stop_fsync_the_job_directory(self, store,
                                                      monkeypatch):
        synced = []
        real = os.fsync

        def recording(fd):
            st = os.fstat(fd)
            synced.append((stat.S_ISDIR(st.st_mode), st.st_ino))
            real(fd)

        monkeypatch.setattr(os, "fsync", recording)
        store.create_job(make_config(), EXECUTOR)
        job_dir = store.job_dir("job-a")
        assert (True, job_dir.stat().st_ino) in synced
        assert (True, store.root.stat().st_ino) in synced
        synced.clear()
        store.set_status("job-a", "stopping")
        assert synced == [(True, job_dir.stat().st_ino)]

    def test_concurrent_status_writes(self, store):
        # More writers than cores, switching often, race to create the
        # stop file afresh each round: every request succeeds, one file
        # stays, and job.json is never written.
        store.create_job(make_config(), EXECUTOR)
        job_dir = store.job_dir("job-a")
        before = (job_dir / "job.json").read_bytes()
        writers = 8
        barrier = threading.Barrier(
            writers, action=lambda: (job_dir / "stop").unlink(missing_ok=True))
        errors = []

        def hammer():
            for _ in range(25):
                try:
                    barrier.wait(timeout=60.0)
                    store.set_status("job-a", "stopping")
                except Exception as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(p.name for p in job_dir.iterdir()) == [
            "events.log", "job.json", "stop"]
        assert (job_dir / "job.json").read_bytes() == before

    def test_missing_job_errors(self, store):
        with pytest.raises(NotFoundError):
            store.read_job_file("ghost")
        with pytest.raises(NotFoundError):
            store.set_status("ghost", "stopping")
        with pytest.raises(NotFoundError):
            store.load_job("ghost")
        with pytest.raises(NotFoundError):
            store.append_event("ghost", {"type": "job_status_changed",
                                         "status": "running"})
        # The coordinator asks only about a job it runs.
        assert store.read_status("ghost") == "created"

    def test_list_jobs(self, store, tmp_path):
        store.create_job(make_config("job-a"), EXECUTOR)
        store.create_job(make_config("job-b"), EXECUTOR)
        store.append_event("job-b", {"type": "job_status_changed",
                                     "status": "completed"})
        (store.root / "stray.txt").write_text("not a job")
        assert store.list_jobs() == [("job-a", "created"), ("job-b", "completed")]

    def test_list_jobs_flags_unreadable(self, store):
        store.create_job(make_config(), EXECUTOR)
        for text in ("{broken", "[]"):
            (store.job_dir("job-a") / "job.json").write_text(text)
            assert store.list_jobs() == [("job-a", "unreadable")]


class TestJournal:
    def test_append_and_read_in_order(self, store):
        store.create_job(make_config(), EXECUTOR)
        events = [launched("trial-0001"), metric("trial-0001", 1, 3.0),
                  completed("trial-0001", 3.0)]
        for event in events:
            store.append_event("job-a", event)
        assert store.read_events("job-a") == events

    def test_unknown_event_type_rejected(self, store):
        store.create_job(make_config(), EXECUTOR)
        with pytest.raises(ValueError):
            store.append_event("job-a", {"type": "mystery"})
        assert store.read_events("job-a") == []

    def test_events_survive_reopen(self, store, tmp_path):
        store.create_job(make_config(), EXECUTOR)
        store.append_event("job-a", launched("trial-0001"))
        store.close()
        fresh = JobStore(store.root)
        assert fresh.read_events("job-a") == [launched("trial-0001")]
        fresh.close()

    def test_torn_final_line_skipped_with_warning(self, store, caplog):
        store.create_job(make_config(), EXECUTOR)
        store.append_event("job-a", launched("trial-0001"))
        store.append_event("job-a", metric("trial-0001", 1, 2.5))
        store.close()
        with open(store.job_dir("job-a") / "events.log", "a") as fh:
            fh.write('{"type": "trial_comp')  # crash mid-append
        with caplog.at_level(logging.WARNING, logger="tunekit.jobstore"):
            events = store.read_events("job-a")
        assert len(events) == 2
        assert any("torn" in record.message for record in caplog.records)

    def test_mid_file_corruption_raises(self, store):
        store.create_job(make_config(), EXECUTOR)
        store.append_event("job-a", launched("trial-0001"))
        store.close()
        with open(store.job_dir("job-a") / "events.log", "a") as fh:
            fh.write("garbage line\n")
            fh.write(json.dumps(metric("trial-0001", 1, 2.5)) + "\n")
        with pytest.raises(CorruptStoreError):
            store.read_events("job-a")

    BAD_LINES = {
        "garbage": "garbage line",
        "torn": '{"type": "trial_comp',
        "two-objects": (json.dumps(metric("trial-0001", 2, 2.0)) + ","
                        + json.dumps(metric("trial-0001", 3, 1.5))),
    }

    def _write_journal(self, store, lines):
        store.create_job(make_config(), EXECUTOR)
        path = store.job_dir("job-a") / "events.log"
        path.write_text("\n".join(lines), encoding="utf-8")

    @pytest.mark.parametrize("kind", sorted(BAD_LINES))
    def test_bad_middle_line_names_its_number(self, store, kind):
        self._write_journal(store, [json.dumps(launched("trial-0001")),
                                    self.BAD_LINES[kind],
                                    json.dumps(metric("trial-0001", 1, 2.5))])
        with pytest.raises(CorruptStoreError,
                           match="corrupt journal line 2 for job 'job-a'"):
            store.read_events("job-a")

    @pytest.mark.parametrize("kind", sorted(BAD_LINES))
    def test_bad_final_line_is_dropped_with_a_warning(self, store, kind,
                                                      caplog):
        good = [launched("trial-0001"), metric("trial-0001", 1, 2.5)]
        self._write_journal(store, [json.dumps(e) for e in good]
                            + [self.BAD_LINES[kind]])
        with caplog.at_level(logging.WARNING, logger="tunekit.jobstore"):
            assert store.read_events("job-a") == good
        assert [r.message.split(" (")[0] for r in caplog.records] == [
            "job job-a: discarding torn final journal line"]

    def _write_non_utf8_line(self, store, index):
        lines = [json.dumps(e).encode() for e in (
            launched("trial-0001"), metric("trial-0001", 1, 2.5),
            metric("trial-0001", 2, 2.0))]
        lines[index] = lines[index][:2] + b"\xff" + lines[index][2:]
        store.create_job(make_config(), EXECUTOR)
        (store.job_dir("job-a") / "events.log").write_bytes(
            b"\n".join(lines) + b"\n")

    def test_non_utf8_middle_line_names_its_number(self, store):
        self._write_non_utf8_line(store, 1)
        with pytest.raises(CorruptStoreError,
                           match="corrupt journal line 2 for job 'job-a'"):
            store.read_events("job-a")

    def test_non_utf8_final_line_names_its_number(self, store):
        # Its newline was written, so it is a line, and a corrupt one.
        self._write_non_utf8_line(store, 2)
        with pytest.raises(CorruptStoreError,
                           match="corrupt journal line 3 for job 'job-a'"):
            store.read_events("job-a")

    def test_empty_journal(self, store):
        store.create_job(make_config(), EXECUTOR)
        assert store.read_events("job-a") == []

    def test_append_after_torn_tail_drops_the_fragment(self, store, caplog):
        store.create_job(make_config(), EXECUTOR)
        store.append_event("job-a", launched("trial-0001"))
        store.close()
        with open(store.job_dir("job-a") / "events.log", "a") as fh:
            fh.write('{"type": "metric_rep')  # crash mid-append
        with caplog.at_level(logging.WARNING, logger="tunekit.jobstore"):
            store.append_event("job-a", metric("trial-0001", 1, 2.5))
        store.close()
        assert store.read_events("job-a") == [launched("trial-0001"),
                                              metric("trial-0001", 1, 2.5)]
        assert any("dropping a torn" in r.message for r in caplog.records)

    def test_append_after_unterminated_line_drops_it(self, store, caplog):
        # A crash between a line and its newline: the sync never returned,
        # so the line does not exist, even though it parses.
        store.create_job(make_config(), EXECUTOR)
        store.append_event("job-a", launched("trial-0001"))
        store.close()
        with open(store.job_dir("job-a") / "events.log", "a") as fh:
            fh.write(json.dumps(launched("trial-0002")))
        with caplog.at_level(logging.WARNING, logger="tunekit.jobstore"):
            assert store.read_events("job-a") == [launched("trial-0001")]
            store.append_event("job-a", launched("trial-0003"))
            store.close()
        read, append = [r.message for r in caplog.records]
        assert read.startswith("job job-a: discarding torn final journal line")
        assert append.startswith("job job-a: dropping a torn journal line")
        assert journal_lines(store) == [launched("trial-0001"),
                                        launched("trial-0003")]

    def test_every_cut_keeps_the_lines_whose_newline_precedes_it(
            self, store, caplog):
        # A crash can leave any prefix of the journal on disk.
        store.create_job(make_config(), EXECUTOR)
        events = [status_event("running"), launched("trial-0001"),
                  metric("trial-0001", 1, 2.5), completed("trial-0001", 2.5),
                  status_event("completed")]
        for event in events:
            store.append_event("job-a", event)
        store.close()
        path = store.job_dir("job-a") / "events.log"
        journal = path.read_bytes()
        ends = [i for i, byte in enumerate(journal) if byte == ord("\n")]
        extra = launched("trial-0002")
        caplog.set_level(logging.ERROR, logger="tunekit.jobstore")
        for cut in range(len(journal) + 1):
            kept = events[:sum(end < cut for end in ends)]
            path.write_bytes(journal[:cut])
            reader = JobStore(store.root)
            assert reader.read_events("job-a") == kept, cut
            assert reader.job_status("job-a") == (
                reader.load_job("job-a")[2].status), cut
            reader.append_event("job-a", extra)
            reader.sync("job-a")
            reader.close()
            assert journal_lines(store) == kept + [extra], cut


class TestSync:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    def test_append_flushes_and_sync_commits_the_batch(self, store, fsyncs):
        # Appends only buffer: another reader sees nothing and nothing is
        # fsync'd until sync writes the batch and commits it with one fsync.
        store.create_job(make_config(), EXECUTOR)
        fsyncs.clear()
        events = [launched("trial-0001"), metric("trial-0001", 1, 3.0),
                  completed("trial-0001", 3.0)]
        for event in events:
            store.append_event("job-a", event)
        reader = JobStore(store.root)
        assert reader.read_events("job-a") == []
        assert fsyncs == []
        # The writing store reads its own unsynced lines.
        assert store.read_events("job-a") == events
        store.sync("job-a")
        assert reader.read_events("job-a") == events
        assert len(fsyncs) == 1
        store.sync("job-a")
        assert len(fsyncs) == 1
        store.append_event("job-a", launched("trial-0002"))
        store.sync("job-a")
        assert len(fsyncs) == 2
        assert reader.read_events("job-a") == events + [launched("trial-0002")]
        reader.close()

    def test_sync_of_job_without_appends_is_free(self, store, fsyncs):
        store.create_job(make_config(), EXECUTOR)
        fsyncs.clear()
        store.sync("job-a")
        store.sync("never-created")
        assert fsyncs == []

    def test_close_syncs_pending_lines(self, store, fsyncs):
        store.create_job(make_config(), EXECUTOR)
        store.create_job(make_config(job_id="job-b"), EXECUTOR)
        store.append_event("job-a", launched("trial-0001"))
        store.append_event("job-b", launched("trial-0001"))
        store.append_event("job-b", metric("trial-0001", 1, 3.0))
        store.sync("job-b")
        store.append_event("job-b", metric("trial-0001", 2, 2.0))
        fsyncs.clear()
        store.close()
        assert len(fsyncs) == 2
        store.close()
        assert len(fsyncs) == 2

    def test_failed_sync_raises_store_error_and_stays_pending(
            self, store, monkeypatch):
        store.create_job(make_config(), EXECUTOR)
        store.append_event("job-a", launched("trial-0001"))
        real = os.fsync

        def failing(fd):
            raise OSError(5, "injected I/O error")

        monkeypatch.setattr(os, "fsync", failing)
        with pytest.raises(StoreError):
            store.sync("job-a")
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real(fd))
        store.sync("job-a")
        assert len(calls) == 1
        store.append_event("job-a", metric("trial-0001", 1, 3.0))
        store.sync("job-a")
        assert journal_lines(store) == [launched("trial-0001"),
                                        metric("trial-0001", 1, 3.0)]

    def test_failed_write_truncates_and_stays_pending(self, store):
        store.create_job(make_config(), EXECUTOR)
        store.append_event("job-a", launched("trial-0001"))
        store.sync("job-a")
        store.append_event("job-a", metric("trial-0001", 1, 3.0))
        store.append_event("job-a", metric("trial-0001", 2, 2.0))
        real = store._event_handles["job-a"]
        store._event_handles["job-a"] = ShortThenFailingHandle(real)
        with pytest.raises(StoreError, match="injected"):
            store.sync("job-a")
        # The part of the batch that reached the file is gone again.
        assert journal_lines(store) == [launched("trial-0001")]
        store._event_handles["job-a"] = real
        store.sync("job-a")
        assert journal_lines(store) == [launched("trial-0001"),
                                        metric("trial-0001", 1, 3.0),
                                        metric("trial-0001", 2, 2.0)]


class ShortThenFailingHandle:
    """A journal handle whose first write is short and whose next fails."""

    def __init__(self, real):
        self.real = real
        self.writes = 0

    def write(self, data) -> int:
        self.writes += 1
        if self.writes > 1:
            raise OSError(28, "injected: no space left on device")
        return self.real.write(data[:10])

    def __getattr__(self, name):
        return getattr(self.real, name)


def journal_lines(store: JobStore) -> list[dict]:
    """The journal as written to disk, one event per line."""
    text = (store.job_dir("job-a") / "events.log").read_text(encoding="utf-8")
    assert text == "" or text.endswith("\n")
    return [json.loads(line) for line in text.splitlines()]


class TestReplay:
    def test_completed_trial(self):
        events = [launched("trial-0001"),
                  metric("trial-0001", 1, 3.0), metric("trial-0001", 2, 2.0),
                  completed("trial-0001", 2.0)]
        state = replay_events(make_config(), events)
        trial = state.trials["trial-0001"]
        assert trial.status == "completed"
        assert trial.final_value == 2.0
        assert trial.curve.points == [(1, 3.0), (2, 2.0)]
        assert trial.attempts == 1
        assert trial.config == Configuration({"x1": 0.0, "x2": 1.0})
        np.testing.assert_allclose(trial.encoded, [0.333, 0.066])

    def test_stopped_trial(self):
        events = [launched("trial-0001"), metric("trial-0001", 1, 4.0),
                  {"type": "trial_stopped", "trial_id": "trial-0001",
                   "final_value": 4.0, "ts": 3.0}]
        state = replay_events(make_config(), events)
        trial = state.trials["trial-0001"]
        assert trial.status == "early_stopped"
        assert trial.final_value == 4.0
        assert trial.has_observation

    def test_retry_resets_curve(self):
        events = [
            launched("trial-0001", attempt=1),
            metric("trial-0001", 1, 9.0),
            {"type": "trial_failed", "trial_id": "trial-0001",
             "reason": "exit_code_1", "terminal": False},
            launched("trial-0001", attempt=2, ts=5.0),
            metric("trial-0001", 1, 3.0),
            completed("trial-0001", 3.0),
        ]
        state = replay_events(make_config(), events)
        trial = state.trials["trial-0001"]
        assert trial.status == "completed"
        assert trial.attempts == 2
        assert trial.curve.points == [(1, 3.0)]
        assert trial.final_value == 3.0

    def test_terminal_failure(self):
        events = [launched("trial-0001"),
                  {"type": "trial_failed", "trial_id": "trial-0001",
                   "reason": "timeout", "terminal": True, "ts": 9.0}]
        state = replay_events(make_config(), events)
        trial = state.trials["trial-0001"]
        assert trial.status == "failed"
        assert trial.failure_reason == "timeout"
        assert not trial.has_observation

    def test_job_status_event(self):
        state = replay_events(make_config(), [
            {"type": "job_status_changed", "status": "running"}])
        assert state.status == "running"

    def test_event_for_unknown_trial_raises(self):
        with pytest.raises(CorruptStoreError):
            replay_events(make_config(), [metric("trial-0009", 1, 1.0)])

    def test_unknown_type_raises(self):
        with pytest.raises(CorruptStoreError):
            replay_events(make_config(), [
                {"type": "alien", "trial_id": "trial-0001"}])

    @pytest.mark.parametrize("bad", [
        {"type": "trial_completed", "trial_id": "trial-0001", "ts": 2.0},
        {"type": "trial_stopped", "trial_id": "trial-0001",
         "final_value": "fast"},
        {"type": "metric_reported", "trial_id": "trial-0001", "value": 1.0},
        {"type": "metric_reported", "trial_id": "trial-0001",
         "iteration": None, "value": 1.0},
        {"type": "trial_launched", "trial_id": "trial-0002"},
        ["trial_completed", "trial-0001"],
        # int() of an infinity raises OverflowError
        launched("trial-0002", attempt=math.inf),
        launched("trial-0001", attempt=-math.inf),
        metric("trial-0001", math.inf, 1.0),
        # int() would truncate a float and read a bool as 1
        launched("trial-0002", attempt=2.5),
        launched("trial-0001", attempt=True),
        metric("trial-0001", 2.5, 1.0),
        # str(), float() and bool() would read these as the status "5" or
        # "None", ts 1.5 or 1.0, a completed observation and a terminal
        # failure
        {"type": "job_status_changed", "status": 5, "ts": 2.0},
        {"type": "job_status_changed", "status": None, "ts": 2.0},
        completed("trial-0001", 1.0, ts="1.5"),
        completed("trial-0001", 1.0, ts=True),
        completed("trial-0001", "2.5"),
        {"type": "trial_failed", "trial_id": "trial-0001",
         "reason": "timeout", "terminal": "no", "ts": 2.0},
    ])
    def test_malformed_event_names_its_index(self, bad):
        with pytest.raises(CorruptStoreError, match="journal event 2 "):
            replay_events(make_config(), [launched("trial-0001"), bad])

    def test_json_numbers_and_non_finite_finals_replay(self):
        state = replay_events(make_config(), [
            launched("trial-0001", ts=1), metric("trial-0001", 1, 3),
            completed("trial-0001", 3, ts=2),
            launched("trial-0002"), completed("trial-0002", math.nan)])
        first, second = state.trials.values()
        assert (first.final_value, first.started, first.finished) == (3.0, 1.0, 2.0)
        assert type(first.final_value) is float
        assert math.isnan(second.final_value) and not second.has_observation

    def test_model_launch_records_chain_state(self):
        log_theta = [0.125 * i for i in range(8)]
        state = replay_events(make_config(), [
            launched("trial-0001"),
            dict(launched("trial-0002"), proposal={"log_theta": log_theta}),
            completed("trial-0002", 1.0),
            launched("trial-0003")])
        np.testing.assert_array_equal(state.chain_log_theta, log_theta)
        assert replay_events(make_config(), [
            launched("trial-0001")]).chain_log_theta is None

    @pytest.mark.parametrize("proposal", [
        {"log_theta": [0.0] * 7},
        {"log_theta": [float("nan")] * 8},
        {"log_theta": ["x"] * 8},
        {"log_theta": [[0.0]] * 8},
        {},
        [0.0] * 8,
    ])
    def test_malformed_proposal_names_its_index(self, proposal):
        bad = dict(launched("trial-0002"), proposal=proposal)
        with pytest.raises(CorruptStoreError, match="journal event 2 "):
            replay_events(make_config(), [launched("trial-0001"), bad])

    def test_replay_equals_journal_roundtrip(self, store):
        # reading the journal back through the store must reproduce the
        # state that direct replay yields
        store.create_job(make_config(), EXECUTOR)
        events = [launched("trial-0001"), metric("trial-0001", 1, 1.5),
                  completed("trial-0001", 1.5), launched("trial-0002", ts=4.0)]
        for event in events:
            store.append_event("job-a", event)
        direct = replay_events(make_config(), events)
        _, _, loaded = store.load_job("job-a")
        assert set(loaded.trials) == set(direct.trials)
        done = loaded.trials["trial-0001"]
        assert done.status == "completed" and done.final_value == 1.5


# One valid event of each type, replayed after ``launched("trial-0001")``.
VALID_EVENTS = {
    "trial_launched": dict(launched("trial-0002"),
                           proposal={"log_theta": [0.0] * 8}),
    "metric_reported": {"type": "metric_reported", "trial_id": "trial-0001",
                        "iteration": 1, "value": 2.5, "ts": 1.5},
    "trial_completed": completed("trial-0001", 2.5),
    "trial_stopped": {"type": "trial_stopped", "trial_id": "trial-0001",
                      "final_value": 2.5, "ts": 2.0},
    "trial_failed": {"type": "trial_failed", "trial_id": "trial-0001",
                     "reason": "timeout", "terminal": False, "ts": 2.0},
    "job_status_changed": {"type": "job_status_changed", "status": "running",
                           "ts": 1.0},
}
EVENT_FIELDS = [(etype, key) for etype, event in VALID_EVENTS.items()
                for key in event]
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=4))
# One value of each JSON kind: null, bool, int, float, string, array, object.
EVERY_JSON_KIND = st.tuples(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.lists(JSON_SCALARS, max_size=8),
    st.dictionaries(st.text(max_size=8), JSON_SCALARS, max_size=3))


def replayed_fields(state):
    """The replayed state as comparable text; NaN equals NaN in a repr."""
    return repr((state.status, None if state.chain_log_theta is None
                 else state.chain_log_theta.tolist(),
                 [(t.trial_id, t.status, t.attempts, dict(t.config.values),
                   t.encoded.tolist(), t.curve.points, t.final_value,
                   t.started, t.finished, t.failure_reason)
                  for t in state.trials.values()]))


class TestJournalProperty:
    @pytest.mark.parametrize("etype, key", EVENT_FIELDS,
                             ids=[f"{etype}.{key}" for etype, key in EVENT_FIELDS])
    @settings(max_examples=5, deadline=None)
    @given(values=EVERY_JSON_KIND)
    def test_any_field_of_any_kind_replays_or_is_corrupt(self, etype, key,
                                                         values):
        config = make_config()
        with tempfile.TemporaryDirectory() as root:
            store = JobStore(root)
            for number, value in enumerate(values + (DELETE,)):
                event = dict(VALID_EVENTS[etype])
                if value is DELETE:
                    del event[key]
                else:
                    event[key] = value
                events = [launched("trial-0001"), event]
                try:
                    state = replay_events(config, events)
                except CorruptStoreError:
                    continue
                job_id = f"job-{number}"
                store.create_job(make_config(job_id), EXECUTOR)
                for line in events:
                    store.append_event(job_id, line)
                store.sync(job_id)
                reader = JobStore(root)
                back = reader.read_events(job_id)
                reader.close()
                assert json.dumps(back) == json.dumps(events)
                assert (replayed_fields(replay_events(config, back))
                        == replayed_fields(state))
            store.close()


class TestLoadJob:
    def test_round_trips_config_and_executor(self, store):
        config = make_config(seed=7, max_parallel=3, strategy="random")
        store.create_job(config, EXECUTOR)
        loaded_config, loaded_executor, state = store.load_job("job-a")
        assert loaded_config == config
        assert loaded_executor == EXECUTOR
        assert state.trials == {}

    def test_running_trial_is_not_rewritten(self, store):
        # Crash handling belongs to resume: loading is a pure replay, so a
        # trial with its retries used up keeps the journal's fields.
        store.create_job(make_config(retry_limit=1), EXECUTOR)
        store.append_event("job-a", launched("trial-0001", attempt=2))
        store.append_event("job-a", metric("trial-0001", 1, 2.0))
        loads = [store.load_job("job-a")[2].trials["trial-0001"]
                 for _ in range(2)]
        for trial in loads:
            assert trial.status == "running"
            assert trial.attempts == 2
            assert trial.finished is None and trial.failure_reason is None
        assert loads[0].curve.points == loads[1].curve.points == [(1, 2.0)]

    def test_stop_request_surfaces(self, store):
        store.create_job(make_config(), EXECUTOR)
        store.set_status("job-a", "stopping")
        _, _, state = store.load_job("job-a")
        assert state.status == "stopping"

    def test_completion_without_final_value(self, store):
        store.create_job(make_config(), EXECUTOR)
        store.append_event("job-a", launched("trial-0001"))
        store.append_event("job-a", {"type": "trial_completed",
                                     "trial_id": "trial-0001", "ts": 2.0})
        with pytest.raises(CorruptStoreError, match="journal event 2 "):
            store.load_job("job-a")

    def test_corrupt_job_json(self, store):
        store.create_job(make_config(), EXECUTOR)
        (store.job_dir("job-a") / "job.json").write_text('{"job_id": "job-a"}')
        with pytest.raises(CorruptStoreError):
            store.load_job("job-a")

    def test_non_utf8_job_json(self, store):
        store.create_job(make_config(), EXECUTOR)
        path = store.job_dir("job-a") / "job.json"
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(CorruptStoreError, match="cannot read job.json"):
            store.load_job("job-a")
        assert store.list_jobs() == [("job-a", "unreadable")]


def status_event(status):
    return {"type": "job_status_changed", "status": status}


def running_job(store):
    store.create_job(make_config(), EXECUTOR)
    for event in (status_event("running"), launched("trial-0001"),
                  metric("trial-0001", 1, 2.5)):
        store.append_event("job-a", event)
    store.sync("job-a")


def completed_job(store):
    running_job(store)
    store.append_event("job-a", completed("trial-0001", 2.5))
    store.append_event("job-a", status_event("completed"))
    store.sync("job-a")


def stop_requested(store):
    running_job(store)
    store.set_status("job-a", "stopping")


def late_stop(store):
    completed_job(store)
    store.set_status("job-a", "stopping")


def write_old_status(store, status):
    # Older versions also kept the job status in job.json.
    path = store.job_dir("job-a") / "job.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["status"] = status
    path.write_text(json.dumps(payload), encoding="utf-8")


def old_job_json_running(store):
    store.create_job(make_config(), EXECUTOR)
    write_old_status(store, "running")


def old_job_json_stopping(store):
    running_job(store)
    write_old_status(store, "stopping")


def torn_final_status_line(store):
    completed_job(store)
    store.close()
    path = store.job_dir("job-a") / "events.log"
    data = path.read_bytes()
    path.write_bytes(data[:data.rstrip(b"\n").rfind(b"\n") + 30])


def unsynced_lines(store):
    running_job(store)
    store.append_event("job-a", completed("trial-0001", 2.5))
    store.append_event("job-a", status_event("completed"))


def status_word_in_a_value(store):
    running_job(store)
    store.append_event("job-a", {
        "type": "trial_failed", "trial_id": "trial-0001",
        "reason": "job_status_changed", "terminal": False})
    store.sync("job-a")


class TestJobStatus:
    CASES = {
        "created": (lambda store: store.create_job(make_config(), EXECUTOR),
                    "created"),
        "running": (running_job, "running"),
        "stop_requested": (stop_requested, "stopping"),
        "completed_with_a_late_stop": (late_stop, "completed"),
        "old_job_json_running": (old_job_json_running, "created"),
        "old_job_json_stopping": (old_job_json_stopping, "stopping"),
        "torn_final_status_line": (torn_final_status_line, "running"),
        "unsynced_lines": (unsynced_lines, "completed"),
        "status_word_in_a_value": (status_word_in_a_value, "running"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_agrees_with_load_job(self, store, case):
        build, want = self.CASES[case]
        build(store)
        assert store.load_job("job-a")[2].status == want
        assert store.job_status("job-a") == want
        assert store.list_jobs() == [("job-a", want)]

    def test_unsynced_lines_are_this_stores_own(self, store):
        unsynced_lines(store)
        reader = JobStore(store.root)
        assert reader.job_status("job-a") == "running"
        reader.close()

    def test_corrupt_other_line_lists_the_scanned_status(self, store):
        # The status lines still say what it is; describe and run report
        # the corruption.
        completed_job(store)
        store.close()
        path = store.job_dir("job-a") / "events.log"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "garbage line\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(CorruptStoreError, match="corrupt journal line 3"):
            store.load_job("job-a")
        assert store.job_status("job-a") == "completed"
        assert store.list_jobs() == [("job-a", "completed")]

    @pytest.mark.parametrize("bad", [b'{"type":"job_status_changed","sta',
                                     b'{"type":"job_status_changed"}',
                                     b'{"type":"job_status_changed","status":5}',
                                     b'{"\xfftype":"job_status_changed"}'])
    def test_corrupt_status_line_is_unreadable(self, store, bad):
        completed_job(store)
        store.close()
        path = store.job_dir("job-a") / "events.log"
        lines = path.read_bytes().split(b"\n")
        lines[0] = bad
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorruptStoreError):
            store.load_job("job-a")
        with pytest.raises(CorruptStoreError, match="journal line 1 "):
            store.job_status("job-a")
        assert store.list_jobs() == [("job-a", "unreadable")]

    @pytest.mark.parametrize("bad", [b'{"type":"job_status_changed","sta',
                                     b'{"\xfftype":"job_status_changed"}'])
    def test_complete_final_status_line_that_does_not_parse_is_corrupt(
            self, store, bad):
        # Its newline was written: a corrupt line, not a torn one.
        completed_job(store)
        store.close()
        path = store.job_dir("job-a") / "events.log"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + bad + b"\n")
        match = f"corrupt journal line {len(lines)} for job 'job-a'"
        for read in (store.read_events, store.load_job, store.job_status):
            with pytest.raises(CorruptStoreError, match=match):
                read("job-a")
        assert store.list_jobs() == [("job-a", "unreadable")]


class TestTrialSnapshots:
    def test_write_trial_snapshot(self, store):
        store.create_job(make_config(), EXECUTOR)
        curve = MetricCurve("trial-0001")
        curve.append(1, 2.0)
        record = TrialRecord(
            trial_id="trial-0001",
            config=Configuration({"x1": 1.0, "x2": 2.0}),
            encoded=np.array([0.4, 0.13]),
            status="completed", curve=curve, final_value=2.0, attempts=1,
        )
        store.write_trial("job-a", record)
        path = store.job_dir("job-a") / "trials" / "trial-0001.json"
        payload = json.loads(path.read_text())
        assert payload["status"] == "completed"
        assert payload["curve"] == [[1, 2.0]]


class TestDescribe:
    def test_summary_fields(self, store):
        store.create_job(make_config(), EXECUTOR)
        for event in (launched("trial-0001"), metric("trial-0001", 1, 3.0),
                      completed("trial-0001", 3.0),
                      launched("trial-0002", ts=4.0),
                      metric("trial-0002", 1, 1.0),
                      completed("trial-0002", 1.0),
                      {"type": "job_status_changed", "status": "completed"}):
            store.append_event("job-a", event)
        summary = store.describe("job-a")
        assert summary["job_id"] == "job-a"
        assert summary["status"] == "completed"
        assert summary["counts"]["completed"] == 2
        assert summary["best_trial"] == "trial-0002"
        assert summary["best_value"] == 1.0
        assert summary["best_config"] == {"x1": 0.0, "x2": 1.0}

    def test_launched_trial_counts_as_running(self, store):
        store.create_job(make_config(), EXECUTOR)
        store.append_event("job-a", launched("trial-0001"))
        counts = store.describe("job-a")["counts"]
        assert counts["running"] == 1 and counts["pending"] == 0

    def test_event_types_constant_is_closed(self):
        assert EVENT_TYPES == {
            "trial_launched", "metric_reported", "trial_completed",
            "trial_failed", "trial_stopped", "job_status_changed",
        }
