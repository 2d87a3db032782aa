"""Command-line interface: run, list, describe, stop, and export."""
from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import tunekit
from tunekit import jobstore
from tunekit.cli import main
from tunekit.jobs import ObjectiveSpec, TuningJobConfig, job_config_to_dict
from tunekit.jobstore import JobStore, StoreError
from tunekit.runner import ExecutorSpec, make_executor
from tunekit.scheduler import run_job
from tunekit.space import SearchSpace, continuous

SPACE = SearchSpace([
    continuous("x1", -5.0, 10.0),
    continuous("x2", 0.0, 15.0),
])

EXECUTOR = ExecutorSpec(kind="builtin", benchmark="branin")


def make_config(**overrides) -> TuningJobConfig:
    defaults = dict(
        job_id="cli-job", space=SPACE, objective=ObjectiveSpec("loss"),
        strategy="random", max_trials=3, max_parallel=1, seed=11,
    )
    defaults.update(overrides)
    return TuningJobConfig(**defaults)


def write_config(tmp_path, config=None, executor=EXECUTOR, mutate=None):
    payload = job_config_to_dict(config or make_config(), executor)
    if mutate:
        mutate(payload)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture(autouse=True)
def isolated_store_env(monkeypatch):
    # Keep the TUNER_STORE variable from leaking between tests.
    monkeypatch.delenv("TUNER_STORE", raising=False)


class TestRun:
    def test_run_prints_best_and_persists(self, tmp_path, capsys):
        path = write_config(tmp_path)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert "job cli-job finished: best trial-" in out
        assert "value=" in out and "x1=" in out
        store = JobStore(store_root)
        _, _, state = store.load_job("cli-job")
        store.close()
        assert state.status == "completed"
        assert len(state.trials) == 3

    def test_rerun_resumes_completed_job(self, tmp_path, capsys):
        path = write_config(tmp_path)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 0
        first = capsys.readouterr().out
        assert main(["run", str(path), "--store", str(store_root)]) == 0
        second = capsys.readouterr().out
        assert first.strip() == second.strip()

    def test_rerun_replays_the_journal_once(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 0
        calls = []
        load_job = JobStore.load_job

        def counting(self, job_id):
            calls.append(job_id)
            return load_job(self, job_id)

        monkeypatch.setattr(JobStore, "load_job", counting)
        assert main(["run", str(path), "--store", str(store_root)]) == 0
        assert calls == ["cli-job"]

    @pytest.mark.parametrize("stored", [b'{"job_id": "cli-job"}',
                                        b'{"job_id": "cli-\xff"}'])
    def test_rerun_with_bad_stored_job_file_fails(self, tmp_path, capsys,
                                                  stored):
        path = write_config(tmp_path)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 0
        capsys.readouterr()
        (store_root / "cli-job" / "job.json").write_bytes(stored)
        assert main(["run", str(path), "--store", str(store_root)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"job_id": "x",\n  nope', encoding="utf-8")
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2:" in err
        assert not store_root.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["run", str(missing), "--store",
                     str(tmp_path / "store")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_missing_executor_block(self, tmp_path, capsys):
        path = write_config(tmp_path, mutate=lambda p: p.pop("executor"))
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 2
        err = capsys.readouterr().err
        assert "executor" in err
        assert not store_root.exists()

    def test_invalid_config_value(self, tmp_path, capsys):
        for key, value in (("max_trials", 0),
                           ("inference", "empirical_bayes")):
            path = write_config(
                tmp_path, mutate=lambda p: p.__setitem__(key, value))
            assert main(["run", str(path), "--store",
                         str(tmp_path / "store")]) == 2
            err = capsys.readouterr().err
            assert str(path) in err
        assert "was removed" in err
        assert not (tmp_path / "store").exists()

    def test_seed_flag_overrides_new_job(self, tmp_path, capsys):
        path = write_config(tmp_path)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root),
                     "--seed", "99"]) == 0
        capsys.readouterr()
        store = JobStore(store_root)
        assert store.read_job_file("cli-job")["seed"] == 99
        store.close()

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root),
                     "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (store_root / "cli-job").exists()

    @pytest.mark.parametrize("mutate", [
        lambda p: p.__setitem__("seed", -1),
        lambda p: p["space"].__setitem__(
            0, {"name": "x1", "type": "categorical", "values": [1, 2]}),
    ], ids=["negative-seed", "integer-categories"])
    def test_bad_input_is_rejected_before_the_job_exists(self, tmp_path,
                                                         capsys, mutate):
        path = write_config(tmp_path, mutate=mutate)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (store_root / "cli-job").exists()

    def test_infinite_max_trials_is_config_error(self, tmp_path, capsys):
        # Python's json reads Infinity; int() of it raised OverflowError.
        path = write_config(
            tmp_path, mutate=lambda p: p.__setitem__("max_trials", math.inf))
        assert "Infinity" in path.read_text(encoding="utf-8")
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 2
        assert "'max_trials' must be an integer" in capsys.readouterr().err
        assert not (store_root / "cli-job").exists()

    @pytest.mark.parametrize("key, mutate", [
        ("values", lambda p: p["space"].__setitem__(
            0, {"name": "x1", "type": "categorical", "values": "sgd"})),
        ("command", lambda p: p.__setitem__(
            "executor", {"kind": "external", "command": "python train.py"})),
        ("warm_start_parents",
         lambda p: p.__setitem__("warm_start_parents", "prev")),
    ], ids=["values", "command", "warm_start_parents"])
    def test_string_for_a_list_is_config_error(self, tmp_path, capsys, key,
                                               mutate):
        # Read as a sequence, the string would split into characters.
        path = write_config(tmp_path, mutate=mutate)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 2
        assert f"{key!r} must be a JSON array" in capsys.readouterr().err
        assert not (store_root / "cli-job").exists()

    @pytest.mark.parametrize("value", [None, [1], {"n": 1}],
                             ids=["null", "list", "object"])
    @pytest.mark.parametrize("kind, key", [
        ("builtin", "iterations"), ("builtin", "noise_std"),
        ("external", "timeout"),
    ])
    def test_executor_number_of_wrong_json_type_is_config_error(
            self, tmp_path, capsys, kind, key, value):
        block = ({"kind": "builtin", "benchmark": "branin"}
                 if kind == "builtin" else
                 {"kind": "external", "command": ["true"]})
        block[key] = value
        path = write_config(
            tmp_path, mutate=lambda p: p.__setitem__("executor", block))
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 2
        assert "invalid executor block" in capsys.readouterr().err
        assert not (store_root / "cli-job").exists()

    def test_unreportable_external_objective_is_config_error(self, tmp_path,
                                                              capsys):
        # No tuner-metric line can name "val loss", so every trial would
        # fail for want of an objective value.
        config = make_config(objective=ObjectiveSpec("val loss"))
        path = write_config(tmp_path, config=config, executor=ExecutorSpec(
            kind="external", command=(sys.executable, "-c", "pass")))
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 2
        assert "objective.name 'val loss'" in capsys.readouterr().err
        assert not (store_root / "cli-job").exists()
        # A builtin job reports its objective under any name.
        path = write_config(tmp_path, config=config)
        assert main(["run", str(path), "--store", str(store_root)]) == 0

    def test_stored_unreportable_external_objective_still_describes(
            self, tmp_path, capsys):
        store_root = tmp_path / "store"
        store = JobStore(store_root)
        store.create_job(make_config(), ExecutorSpec(
            kind="external", command=(sys.executable, "-c", "pass")))
        store.close()
        job_file = store_root / "cli-job" / "job.json"
        payload = json.loads(job_file.read_text(encoding="utf-8"))
        payload["objective"]["name"] = "val loss"
        job_file.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["describe", "cli-job", "--store", str(store_root)]) == 0
        assert "objective:  val loss (minimize)" in capsys.readouterr().out

    def test_rerun_of_stored_job_without_executor_fails(self, tmp_path,
                                                        capsys):
        path = write_config(tmp_path)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 0
        capsys.readouterr()
        job_file = store_root / "cli-job" / "job.json"
        payload = json.loads(job_file.read_text(encoding="utf-8"))
        del payload["executor"]
        job_file.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["run", str(path), "--store", str(store_root)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cli-job" in err

    def test_missing_parent_is_config_error(self, tmp_path, capsys):
        config = make_config(warm_start_parents=("ghost",))
        path = write_config(tmp_path, config=config)
        assert main(["run", str(path), "--store",
                     str(tmp_path / "store")]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_env_store_overrides_flag(self, tmp_path, capsys, monkeypatch):
        env_root = tmp_path / "env-store"
        flag_root = tmp_path / "flag-store"
        monkeypatch.setenv("TUNER_STORE", str(env_root))
        path = write_config(tmp_path)
        assert main(["run", str(path), "--store", str(flag_root)]) == 0
        capsys.readouterr()
        store = JobStore(env_root)
        assert store.job_exists("cli-job")
        store.close()
        assert not flag_root.exists()


class TestInspection:
    @pytest.fixture()
    def finished_store(self, tmp_path, capsys):
        path = write_config(tmp_path)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 0
        capsys.readouterr()
        return store_root

    def test_list_shows_job_and_status(self, finished_store, capsys):
        assert main(["list", "--store", str(finished_store)]) == 0
        assert "cli-job\tcompleted" in capsys.readouterr().out

    def test_describe_summarises_job(self, finished_store, capsys):
        assert main(["describe", "cli-job", "--store",
                     str(finished_store)]) == 0
        out = capsys.readouterr().out
        assert "status:     completed" in out
        assert "trials:     3 of 3" in out
        assert "best:       trial-" in out

    def test_describe_unknown_job_fails(self, finished_store, capsys):
        assert main(["describe", "nope", "--store",
                     str(finished_store)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["describe", "export"])
    def test_malformed_journal_fails_cleanly(self, finished_store, capsys,
                                             command):
        events = finished_store / "cli-job" / "events.log"
        lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines)
                     if json.loads(line)["type"] == "trial_completed")
        event = json.loads(lines[index])
        del event["final_value"]
        lines[index] = json.dumps(event) + "\n"
        events.write_text("".join(lines), encoding="utf-8")
        assert main([command, "cli-job", "--store",
                     str(finished_store)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"journal event {index + 1} " in err

    @pytest.mark.parametrize("etype,field", [
        ("trial_launched", "attempt"), ("metric_reported", "iteration")])
    def test_infinite_integer_field_fails_cleanly(self, finished_store,
                                                  capsys, etype, field):
        events = finished_store / "cli-job" / "events.log"
        lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines)
                     if json.loads(line)["type"] == etype)
        event = json.loads(lines[index])
        event[field] = float("inf")
        lines[index] = json.dumps(event) + "\n"
        assert "Infinity" in lines[index]
        events.write_text("".join(lines), encoding="utf-8")
        assert main(["describe", "cli-job", "--store",
                     str(finished_store)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"journal event {index + 1} " in err

    @pytest.mark.parametrize("name", ["events.log", "job.json"])
    def test_non_utf8_byte_fails_cleanly(self, finished_store, capsys, name):
        # A byte that is not UTF-8 inside the first key of the journal's
        # first line, or of job.json, corrupts the job.
        path = finished_store / "cli-job" / name
        data = path.read_bytes()
        path.write_bytes(data[:2] + b"\xff" + data[2:])
        assert main(["list", "--store", str(finished_store)]) == 0
        assert "cli-job\tunreadable" in capsys.readouterr().out
        for command in ("describe", "stop", "export"):
            assert main([command, "cli-job", "--store",
                         str(finished_store)]) == 1
            assert capsys.readouterr().err.startswith("error:")

    def test_stop_on_completed_is_noop(self, finished_store, capsys):
        assert main(["stop", "cli-job", "--store",
                     str(finished_store)]) == 0
        assert "already completed" in capsys.readouterr().out
        store = JobStore(finished_store)
        assert store.load_job("cli-job")[2].status == "completed"
        assert "status" not in store.read_job_file("cli-job")
        store.close()

    def test_stop_after_completion_changes_nothing(self, finished_store,
                                                   capsys):
        # A stop that lands just after the job completed, as when it
        # raced the job's last trial.
        store = JobStore(finished_store)
        store.set_status("cli-job", "stopping")
        events = finished_store / "cli-job" / "events.log"
        before = events.read_bytes()
        assert main(["describe", "cli-job", "--store",
                     str(finished_store)]) == 0
        assert "status:     completed" in capsys.readouterr().out
        assert main(["list", "--store", str(finished_store)]) == 0
        assert "cli-job\tcompleted" in capsys.readouterr().out
        path = write_config(finished_store.parent)
        assert main(["run", str(path), "--store", str(finished_store)]) == 0
        assert events.read_bytes() == before
        store.close()

    def test_concurrent_stops_stop_the_job(self, tmp_path, capsys):
        spec = ExecutorSpec(kind="builtin", benchmark="branin",
                            iterations=2, delay=0.05)
        config = make_config(max_trials=30, seed=2)
        store_root = tmp_path / "store"
        store = JobStore(store_root)
        executor = make_executor(spec, "loss", 1)
        outcome: dict = {}

        def job():
            try:
                outcome["state"] = run_job(config, store, executor)
            except Exception as exc:
                outcome["error"] = exc

        runner = threading.Thread(target=job)
        runner.start()
        control = JobStore(store_root)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                if control.load_job("cli-job")[2].trials:
                    break
            except StoreError:
                pass
            time.sleep(0.01)
        codes = []

        def stop():
            for _ in range(5):
                codes.append(main(["stop", "cli-job", "--store",
                                   str(store_root)]))

        stoppers = [threading.Thread(target=stop) for _ in range(4)]
        for thread in stoppers:
            thread.start()
        for thread in stoppers:
            thread.join(timeout=60.0)
        runner.join(timeout=60.0)
        executor.shutdown()
        store.close()
        assert not runner.is_alive()
        assert not any(thread.is_alive() for thread in stoppers)
        assert "error" not in outcome
        assert codes == [0] * 20
        state = outcome["state"]
        assert 1 <= len(state.trials) < 30
        assert state.terminal_count == len(state.trials)
        _, _, loaded = control.load_job("cli-job")
        assert sorted(loaded.trials) == sorted(state.trials)
        capsys.readouterr()
        assert main(["describe", "cli-job", "--store", str(store_root)]) == 0
        assert "status:     completed" in capsys.readouterr().out
        assert list((store_root / "cli-job").rglob("*.tmp")) == []
        control.close()

    def test_job_json_is_never_written_after_creation(self, tmp_path,
                                                       capsys):
        path = write_config(tmp_path)
        root = tmp_path / "store"
        job_json = root / "cli-job" / "job.json"
        assert main(["run", str(path), "--store", str(root)]) == 0
        created = job_json.read_bytes()
        # Drop the final status line, as a crash before it would.
        events = root / "cli-job" / "events.log"
        lines = events.read_bytes().splitlines(keepends=True)
        assert json.loads(lines[-1])["status"] == "completed"
        events.write_bytes(b"".join(lines[:-1]))
        for argv in (["stop", "cli-job"], ["run", str(path)], ["list"],
                     ["describe", "cli-job"], ["export", "cli-job"]):
            assert main(argv + ["--store", str(root)]) == 0
            assert job_json.read_bytes() == created, argv
        assert (root / "cli-job" / "stop").is_file()
        assert "status:     completed" in capsys.readouterr().out

    def test_simultaneous_stops_make_one_stop_file(self, tmp_path, capsys):
        root = tmp_path / "store"
        JobStore(root).create_job(make_config(), EXECUTOR)
        stoppers = 8
        barrier = threading.Barrier(stoppers)
        codes = []

        def stop():
            barrier.wait(timeout=60.0)
            codes.append(main(["stop", "cli-job", "--store", str(root)]))

        threads = [threading.Thread(target=stop) for _ in range(stoppers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert codes == [0] * stoppers
        assert sorted(p.name for p in (root / "cli-job").iterdir()) == [
            "events.log", "job.json", "stop"]

    def test_stop_and_list_replay_no_journal(self, tmp_path, capsys,
                                             monkeypatch):
        root = tmp_path / "store"
        store = JobStore(root)
        executor = make_executor(EXECUTOR, "loss", 1)
        try:
            state = run_job(make_config(max_trials=200), store, executor)
        finally:
            executor.shutdown()
            store.close()
        assert state.terminal_count == 200

        def replayed(*args, **kwargs):
            raise AssertionError("the journal was replayed")

        monkeypatch.setattr(JobStore, "read_events", replayed)
        monkeypatch.setattr(jobstore, "replay_events", replayed)
        assert main(["stop", "cli-job", "--store", str(root)]) == 0
        assert "already completed" in capsys.readouterr().out
        assert main(["list", "--store", str(root)]) == 0
        assert capsys.readouterr().out == "cli-job\tcompleted\n"

    def test_journal_corrupt_outside_status_lines(self, finished_store,
                                                  capsys):
        # list and stop read only the status lines; describe replays.
        events = finished_store / "cli-job" / "events.log"
        lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines)
                     if json.loads(line)["type"] == "metric_reported")
        lines[index] = "garbage line\n"
        events.write_text("".join(lines), encoding="utf-8")
        assert main(["list", "--store", str(finished_store)]) == 0
        assert capsys.readouterr().out == "cli-job\tcompleted\n"
        assert main(["stop", "cli-job", "--store", str(finished_store)]) == 0
        assert "already completed" in capsys.readouterr().out
        assert main(["describe", "cli-job", "--store",
                     str(finished_store)]) == 1
        assert "corrupt journal line" in capsys.readouterr().err

    def test_complete_corrupt_final_line_is_unreadable(self, finished_store,
                                                       capsys):
        # A final status line whose newline was written but that does not
        # parse is corruption, not a torn append to skip.
        events = finished_store / "cli-job" / "events.log"
        lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
        assert json.loads(lines[-1])["type"] == "job_status_changed"
        lines[-1] = '{"type":"job_status_changed","sta\n'
        events.write_text("".join(lines), encoding="utf-8")
        assert main(["list", "--store", str(finished_store)]) == 0
        assert capsys.readouterr().out == "cli-job\tunreadable\n"
        assert main(["describe", "cli-job", "--store",
                     str(finished_store)]) == 1
        assert (f"corrupt journal line {len(lines)}"
                in capsys.readouterr().err)

    def test_stop_marks_created_job_stopping(self, tmp_path, capsys):
        store = JobStore(tmp_path / "store")
        store.create_job(make_config(), EXECUTOR)
        assert main(["stop", "cli-job", "--store",
                     str(tmp_path / "store")]) == 0
        assert "marked stopping" in capsys.readouterr().out
        assert store.read_status("cli-job") == "stopping"
        store.close()

    def test_stop_unknown_job_fails(self, tmp_path, capsys):
        JobStore(tmp_path / "store").close()
        assert main(["stop", "nope", "--store",
                     str(tmp_path / "store")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stop_on_non_object_job_file_fails(self, tmp_path, capsys):
        store = JobStore(tmp_path / "store")
        store.create_job(make_config(), EXECUTOR)
        store.close()
        job_json = tmp_path / "store" / "cli-job" / "job.json"
        job_json.write_text("[]", encoding="utf-8")
        assert main(["stop", "cli-job", "--store",
                     str(tmp_path / "store")]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert job_json.read_text(encoding="utf-8") == "[]"


class TestExport:
    def test_export_round_trips_floats(self, tmp_path, capsys):
        path = write_config(tmp_path)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 0
        capsys.readouterr()
        out_path = tmp_path / "trials.csv"
        assert main(["export", "cli-job", "--store", str(store_root),
                     "--output", str(out_path)]) == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial_id", "status", "final_value",
                           "started", "finished", "x1", "x2"]
        assert len(rows) == 4

        store = JobStore(store_root)
        _, _, state = store.load_job("cli-job")
        store.close()
        for row in rows[1:]:
            trial = state.trials[row[0]]
            assert row[1] == "completed"
            assert float(row[2]) == trial.final_value
            assert float(row[5]) == trial.config["x1"]
            assert float(row[6]) == trial.config["x2"]

    def test_export_to_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 0
        capsys.readouterr()
        assert main(["export", "cli-job", "--store", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trial_id,")
        assert out.count("trial-") == 3

    @pytest.mark.parametrize("target", ["missing-dir", "full-device"])
    def test_export_to_unwritable_path_fails(self, tmp_path, capsys, target):
        out_path = {"missing-dir": tmp_path / "missing" / "trials.csv",
                    "full-device": Path("/dev/full")}[target]
        if target == "full-device" and not out_path.exists():
            pytest.skip("no /dev/full on this system")
        path = write_config(tmp_path)
        store_root = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store_root)]) == 0
        capsys.readouterr()
        assert main(["export", "cli-job", "--store", str(store_root),
                     "--output", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot write the export: ")

    def test_export_unknown_job_fails(self, tmp_path, capsys):
        JobStore(tmp_path / "store").close()
        assert main(["export", "nope", "--store",
                     str(tmp_path / "store")]) == 1
        assert "error:" in capsys.readouterr().err


class TestLogLevel:
    def _torn_store(self, tmp_path):
        store_root = tmp_path / "store"
        store = JobStore(store_root)
        store.create_job(make_config(), EXECUTOR)
        store.close()
        with open(store.job_dir("cli-job") / "events.log", "a") as fh:
            fh.write('{"type": "trial_la')  # crash mid-append
        return store_root

    def _describe(self, store_root, *flags):
        # A fresh interpreter: logging is configured once per process.
        src = Path(tunekit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("TUNER_STORE", None)
        return subprocess.run(
            [sys.executable, "-m", "tunekit.cli", *flags, "describe",
             "cli-job", "--store", str(store_root)],
            capture_output=True, text=True, env=env, timeout=60)

    def test_warning_reaches_stderr_by_default(self, tmp_path):
        done = self._describe(self._torn_store(tmp_path))
        assert done.returncode == 0
        assert "WARNING tunekit.jobstore: job cli-job: discarding torn" in done.stderr

    def test_higher_level_silences_warnings(self, tmp_path):
        done = self._describe(self._torn_store(tmp_path), "--log-level", "ERROR")
        assert done.returncode == 0
        assert done.stderr == ""

    def test_unknown_level_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--log-level", "LOUD", "list", "--store", str(tmp_path)])
        assert exc.value.code == 2
