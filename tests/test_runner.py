"""Executor tests: builtin thread-pool trials and external subprocesses."""
from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from tunekit.benchmarks import branin, curve_sim_value
from tunekit.runner import (
    ENV_HPARAMS_FILE,
    ENV_TRIAL_ID,
    HPARAMS_FILENAME,
    METRIC_LINE,
    BuiltinExecutor,
    ExecutorSpec,
    ExecutorSpecError,
    ExternalExecutor,
    TrialEvent,
    make_executor,
    validate_executor_spec,
)
from tunekit.space import Configuration


class Collector:
    """Thread-safe event sink with a terminal-event latch."""

    def __init__(self) -> None:
        self.events = []
        self.terminal = threading.Event()

    def __call__(self, event) -> None:
        self.events.append(event)
        if event.kind in ("completed", "failed"):
            self.terminal.set()

    def wait(self, timeout: float = 10.0) -> None:
        assert self.terminal.wait(timeout), f"no terminal event; got {self.events}"

    def metrics(self, name: str | None = None):
        return [e for e in self.events
                if e.kind == "metric" and (name is None or e.metric == name)]

    @property
    def last(self):
        return self.events[-1]


class TestMetricLine:
    @pytest.mark.parametrize("line,groups", [
        ("tuner-metric name=loss iteration=3 value=0.5", ("loss", "3", "0.5")),
        ("tuner-metric name=val_acc iteration=10 value=-1.25e-3",
         ("val_acc", "10", "-1.25e-3")),
        ("tuner-metric name=a.b-c iteration=1 value=.5", ("a.b-c", "1", ".5")),
        ("tuner-metric name=x iteration=0 value=+3.", ("x", "0", "+3.")),
        ("tuner-metric name=_m iteration=2 value=1E+8  ", ("_m", "2", "1E+8")),
        ("tuner-metric name=loss iteration=1 value=nan", ("loss", "1", "nan")),
        ("tuner-metric name=loss iteration=1 value=-NaN", ("loss", "1", "-NaN")),
        ("tuner-metric name=loss iteration=1 value=+inf", ("loss", "1", "+inf")),
        ("tuner-metric name=loss iteration=1 value=-Infinity",
         ("loss", "1", "-Infinity")),
    ])
    def test_valid_lines(self, line, groups):
        match = METRIC_LINE.match(line)
        assert match is not None
        assert match.groups() == groups

    @pytest.mark.parametrize("line", [
        "tuner-metric name=loss iteration=3",
        "tuner-metric name=9bad iteration=3 value=1",
        "tuner-metric name=loss iteration=-1 value=1",
        "tuner-metric name=loss iteration=1.5 value=1",
        "tuner-metric name=loss iteration=1 value=abc",
        "tuner-metric name=loss iteration=1 value=nanx",
        "tuner-metric name=loss iteration=1 value=infinit",
        "tuner-metric name=loss iteration=1 value=1 extra",
        "xtuner-metric name=loss iteration=1 value=1",
        "loss 1 0.5",
        "",
    ])
    def test_invalid_lines(self, line):
        assert METRIC_LINE.match(line) is None


class TestSpecValidation:
    def test_builtin_needs_known_benchmark(self):
        with pytest.raises(ExecutorSpecError):
            validate_executor_spec(ExecutorSpec(kind="builtin"))
        with pytest.raises(KeyError):
            validate_executor_spec(ExecutorSpec(kind="builtin", benchmark="nope"))

    def test_builtin_numeric_fields(self):
        for bad in (
            ExecutorSpec(kind="builtin", benchmark="branin", noise_std=-1.0),
            ExecutorSpec(kind="builtin", benchmark="branin", iterations=0),
            ExecutorSpec(kind="builtin", benchmark="branin", delay=-0.1),
            ExecutorSpec(kind="builtin", benchmark="branin", delay_spread=-0.1),
        ):
            with pytest.raises(ExecutorSpecError):
                validate_executor_spec(bad)

    def test_external_needs_command_and_timeout(self):
        with pytest.raises(ExecutorSpecError):
            validate_executor_spec(ExecutorSpec(kind="external"))
        with pytest.raises(ExecutorSpecError):
            validate_executor_spec(
                ExecutorSpec(kind="external", command=("true",), timeout=0.0)
            )
        validate_executor_spec(ExecutorSpec(kind="external", command=("true",)))

    def test_unknown_kind(self):
        with pytest.raises(ExecutorSpecError):
            validate_executor_spec(ExecutorSpec(kind="weird"))

    def test_factory_dispatch(self):
        builtin = make_executor(
            ExecutorSpec(kind="builtin", benchmark="branin"), "loss", 1)
        assert isinstance(builtin, BuiltinExecutor)
        builtin.shutdown()
        external = make_executor(
            ExecutorSpec(kind="external", command=("true",)), "loss", 1)
        assert isinstance(external, ExternalExecutor)
        external.shutdown()

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ExecutorSpecError):
            BuiltinExecutor(ExecutorSpec(kind="external", command=("true",)),
                            "loss", 1)
        with pytest.raises(ExecutorSpecError):
            ExternalExecutor(ExecutorSpec(kind="builtin", benchmark="branin"),
                             "loss", 1)


BRANIN_CONFIG = Configuration({"x1": 2.5, "x2": 7.5})


class TestBuiltinExecutor:
    def run_one(self, spec, config=BRANIN_CONFIG, seed=0, trial_id="trial-0001"):
        executor = BuiltinExecutor(spec, "loss", 1)
        sink = Collector()
        try:
            executor.launch(trial_id, config, seed, sink)
            sink.wait()
        finally:
            executor.shutdown()
        return sink

    def test_noiseless_event_stream(self):
        spec = ExecutorSpec(kind="builtin", benchmark="branin", iterations=3)
        sink = self.run_one(spec)
        metrics = sink.metrics("loss")
        assert [e.iteration for e in metrics] == [1, 2, 3]
        expected = branin(2.5, 7.5)
        assert all(e.value == pytest.approx(expected) for e in metrics)
        assert sink.last.kind == "completed"
        assert sink.last.trial_id == "trial-0001"

    def test_curve_benchmark_reports_curve(self):
        spec = ExecutorSpec(kind="builtin", benchmark="curve-sim", iterations=4)
        config = Configuration({"u1": 0.3, "u2": 0.9})
        sink = self.run_one(spec, config)
        for event in sink.metrics("loss"):
            assert event.value == pytest.approx(
                curve_sim_value(config, event.iteration))

    @pytest.mark.parametrize("name,config,truth", [
        ("curve-sim", Configuration({"u1": 0.3, "u2": 0.9}), curve_sim_value),
        ("branin", BRANIN_CONFIG, lambda config, r: branin(2.5, 7.5)),
    ], ids=["curve-sim", "branin"])
    def test_noisy_emissions_are_pinned_bit_for_bit(self, name, config,
                                                    truth):
        # Report r carries the benchmark's value plus noise_std times the
        # r-th standard-normal draw of the trial seed's generator.
        spec = ExecutorSpec(kind="builtin", benchmark=name,
                            iterations=6, noise_std=0.3)
        sink = self.run_one(spec, config, seed=42)
        rng = np.random.default_rng(42)
        expected = [
            TrialEvent("metric", "trial-0001", "loss", r,
                       truth(config, r) + 0.3 * rng.standard_normal())
            for r in range(1, 7)]
        expected.append(TrialEvent("completed", "trial-0001"))
        assert sink.events == expected

    def test_noise_is_seed_deterministic(self):
        spec = ExecutorSpec(kind="builtin", benchmark="branin",
                            iterations=5, noise_std=0.7)
        first = [e.value for e in self.run_one(spec, seed=42).metrics()]
        second = [e.value for e in self.run_one(spec, seed=42).metrics()]
        other = [e.value for e in self.run_one(spec, seed=43).metrics()]
        assert first == second
        assert first != other
        true_value = branin(2.5, 7.5)
        assert any(abs(v - true_value) > 1e-9 for v in first)

    def test_stop_goes_silent(self):
        spec = ExecutorSpec(kind="builtin", benchmark="branin",
                            iterations=200, delay=0.02)
        executor = BuiltinExecutor(spec, "loss", 1)
        sink = Collector()
        try:
            executor.launch("trial-0001", BRANIN_CONFIG, 0, sink)
            deadline = time.monotonic() + 5.0
            while not sink.metrics() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sink.metrics(), "no metric arrived before the stop"
            executor.request_stop("trial-0001")
        finally:
            executor.shutdown()
        assert not sink.terminal.is_set()
        assert all(e.kind == "metric" for e in sink.events)
        assert len(sink.events) < 200

    def test_stop_reaches_a_retry_launched_before_the_first_attempt_returned(
            self):
        spec = ExecutorSpec(kind="builtin", benchmark="branin",
                            iterations=200, delay=0.02)
        # One worker: the retry runs only once the first attempt returned.
        executor = BuiltinExecutor(spec, "loss", 1)
        failed, gate = threading.Event(), threading.Event()

        def first_sink(event) -> None:
            if event.kind == "failed":
                failed.set()
                gate.wait(5.0)

        retry = Collector()
        try:
            executor.launch("trial-0001", Configuration({}), 0, first_sink)
            assert failed.wait(5.0)
            executor.launch("trial-0001", BRANIN_CONFIG, 1, retry)
            gate.set()
            deadline = time.monotonic() + 5.0
            while not retry.metrics() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert retry.metrics(), "the retry never ran"
            executor.request_stop("trial-0001")
        finally:
            executor.shutdown()
        assert not retry.terminal.is_set()
        assert len(retry.events) < 200

    def test_flags_live_only_while_an_attempt_runs(self):
        spec = ExecutorSpec(kind="builtin", benchmark="branin", iterations=3)
        executor = BuiltinExecutor(spec, "loss", 2)
        sinks = [Collector(), Collector()]
        try:
            for i, sink in enumerate(sinks):
                executor.launch(f"trial-{i + 1:04d}", BRANIN_CONFIG, i, sink)
            for sink in sinks:
                sink.wait()
            deadline = time.monotonic() + 5.0
            while executor._stops and time.monotonic() < deadline:
                time.sleep(0.01)
            assert executor._stops == {}
            # A stop after the trial finished, or for a trial never
            # launched, creates no flag.
            executor.request_stop("trial-0001")
            executor.request_stop("trial-0099")
            assert executor._stops == {}
        finally:
            executor.shutdown()

    def test_evaluation_error_reports_failure(self):
        spec = ExecutorSpec(kind="builtin", benchmark="branin")
        sink = self.run_one(spec, config=Configuration({}))
        assert sink.last.kind == "failed"
        assert sink.last.reason == "executor_error"

    def test_delay_spread_scales_with_first_coordinate(self):
        spec = ExecutorSpec(kind="builtin", benchmark="branin",
                            delay=0.1, delay_spread=1.0)
        executor = BuiltinExecutor(spec, "loss", 1)
        try:
            # x1=10 encodes to 1.0, x1=-5 to 0.0
            slow = executor._trial_delay(Configuration({"x1": 10.0, "x2": 0.0}))
            fast = executor._trial_delay(Configuration({"x1": -5.0, "x2": 0.0}))
            assert slow == pytest.approx(0.2)
            assert fast == pytest.approx(0.1)
        finally:
            executor.shutdown()


CHILD_HAPPY = """\
import json, os, sys
with open(os.environ[{env_hparams!r}]) as fh:
    hparams = json.load(fh)
assert os.environ[{env_trial!r}]
for r in (1, 2, 3):
    print(f"tuner-metric name=loss iteration={{r}} value={{hparams['x']!r}}", flush=True)
print("chatter the tuner must ignore", flush=True)
print("diagnostics", file=sys.stderr)
"""

CHILD_ARGS = """\
import os, sys
assert sys.argv[1] == os.environ[{env_hparams!r}], sys.argv
assert sys.argv[2] == os.environ[{env_trial!r}], sys.argv
assert sys.argv[3] == os.path.dirname(sys.argv[1]), sys.argv
print("tuner-metric name=loss iteration=1 value=1.0", flush=True)
"""

CHILD_EXIT_3 = """\
print("tuner-metric name=loss iteration=1 value=0.5", flush=True)
raise SystemExit(3)
"""

CHILD_SILENT = """\
print("no metrics here", flush=True)
"""

CHILD_WRONG_METRIC = """\
print("tuner-metric name=aux iteration=1 value=0.5", flush=True)
"""

CHILD_SLEEPER = """\
import time
print("tuner-metric name=loss iteration=1 value=0.5", flush=True)
time.sleep(60)
"""

CHILD_NON_UTF8 = """\
import sys
out = sys.stdout.buffer
out.write(b"progress \\xff\\n")
out.write(b"x" * {padding} + b"\\n")
out.write(b"tuner-metric name=loss iteration=1 value=0.5\\n")
out.flush()
"""

CHILD_CHATTY_FOREVER = """\
import itertools, time
for r in itertools.count(1):
    print(f"tuner-metric name=loss iteration={r} value=0.5", flush=True)
    time.sleep(0.02)
"""


@pytest.fixture
def child_script(tmp_path):
    def write(source: str, **fmt) -> str:
        path = tmp_path / "child.py"
        path.write_text(source.format(**fmt) if fmt else source)
        return str(path)
    return write


def run_external(command, tmp_path, timeout=20.0, config=None,
                 trial_id="trial-0001"):
    spec = ExecutorSpec(kind="external", command=tuple(command),
                        workdir=str(tmp_path / "trials"), timeout=timeout)
    executor = ExternalExecutor(spec, "loss", 1)
    sink = Collector()
    try:
        executor.launch(trial_id, config or Configuration({"x": 0.1}), 0, sink)
        sink.wait(30.0)
    finally:
        executor.shutdown()
    return sink


class TestExternalExecutor:
    def test_happy_path_and_bit_exact_hparams(self, child_script, tmp_path):
        script = child_script(CHILD_HAPPY, env_hparams=ENV_HPARAMS_FILE,
                              env_trial=ENV_TRIAL_ID)
        config = Configuration({"x": 0.1 + 0.2})  # a value with no short decimal
        sink = run_external([sys.executable, script], tmp_path, config=config)
        assert sink.last.kind == "completed"
        values = [e.value for e in sink.metrics("loss")]
        assert values == [0.1 + 0.2] * 3  # exact float equality
        assert [e.iteration for e in sink.metrics("loss")] == [1, 2, 3]

    def test_hparams_file_written_in_workdir(self, child_script, tmp_path):
        script = child_script(CHILD_HAPPY, env_hparams=ENV_HPARAMS_FILE,
                              env_trial=ENV_TRIAL_ID)
        config = Configuration({"x": 3.5})
        run_external([sys.executable, script], tmp_path, config=config,
                     trial_id="trial-0007")
        hparams = tmp_path / "trials" / "trial-0007" / "hparams.json"
        assert json.loads(hparams.read_text()) == {"x": 3.5}

    def test_placeholder_substitution(self, child_script, tmp_path):
        script = child_script(CHILD_ARGS, env_hparams=ENV_HPARAMS_FILE,
                              env_trial=ENV_TRIAL_ID)
        sink = run_external(
            [sys.executable, script, "{hparams}", "{trial_id}", "{workdir}"],
            tmp_path)
        assert sink.last.kind == "completed"

    def test_nonzero_exit_code(self, child_script, tmp_path):
        script = child_script(CHILD_EXIT_3)
        sink = run_external([sys.executable, script], tmp_path)
        assert sink.last.kind == "failed"
        assert sink.last.reason == "exit_code_3"
        # metrics emitted before the failure are still delivered
        assert len(sink.metrics("loss")) == 1

    # A clean exit completes the attempt here; the coordinator fails it
    # as a protocol_violation when no objective reached its curve
    # (tests/test_scheduler.py::TestExternalJobs).
    def test_no_objective_metric_is_protocol_violation(self, child_script, tmp_path):
        script = child_script(CHILD_SILENT)
        sink = run_external([sys.executable, script], tmp_path)
        assert sink.last.kind == "completed"
        assert sink.metrics() == []

    def test_other_metrics_do_not_satisfy_protocol(self, child_script, tmp_path):
        script = child_script(CHILD_WRONG_METRIC)
        sink = run_external([sys.executable, script], tmp_path)
        assert sink.last.kind == "completed"
        assert sink.metrics("loss") == []
        # the non-objective metric is still forwarded
        assert len(sink.metrics("aux")) == 1

    @pytest.mark.parametrize("padding", [0, 200_000])
    def test_non_utf8_output_is_tolerated(self, child_script, tmp_path,
                                          padding):
        # a strict decoder would kill the reader thread: the trial then
        # misses its metric line, or, with the pipe left full, hangs
        # until the timeout
        script = child_script(CHILD_NON_UTF8, padding=padding)
        sink = run_external([sys.executable, script], tmp_path, timeout=10.0)
        assert sink.last.kind == "completed"
        assert [e.value for e in sink.metrics("loss")] == [0.5]

    def test_timeout_kills_child(self, child_script, tmp_path):
        script = child_script(CHILD_SLEEPER)
        start = time.monotonic()
        sink = run_external([sys.executable, script], tmp_path, timeout=0.6)
        elapsed = time.monotonic() - start
        assert sink.last.kind == "failed"
        assert sink.last.reason == "timeout"
        assert elapsed < 30.0

    def test_spawn_failure(self, tmp_path):
        sink = run_external(["/nonexistent-binary-tunekit-test"], tmp_path)
        assert sink.last.kind == "failed"
        assert sink.last.reason == "spawn_failure"

    def test_shutdown_removes_its_own_temp_dir(self, child_script, tmp_path,
                                               monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        script = child_script(CHILD_HAPPY, env_hparams=ENV_HPARAMS_FILE,
                              env_trial=ENV_TRIAL_ID)
        spec = ExecutorSpec(kind="external", command=(sys.executable, script))
        executor = ExternalExecutor(spec, "loss", 1)
        sink = Collector()
        try:
            executor.launch("trial-0001", Configuration({"x": 0.5}), 0, sink)
            sink.wait(30.0)
            made = list(tmp_path.glob("tunekit-trials-*"))
            assert len(made) == 1
            assert (made[0] / "trial-0001" / HPARAMS_FILENAME).is_file()
        finally:
            executor.shutdown()
        assert sink.last.kind == "completed"
        assert list(tmp_path.glob("tunekit-trials-*")) == []
        # An executor that ran no trial leaves nothing behind either.
        ExternalExecutor(spec, "loss", 1).shutdown()
        assert list(tmp_path.glob("tunekit-trials-*")) == []

    def test_shutdown_keeps_user_workdir(self, child_script, tmp_path):
        script = child_script(CHILD_HAPPY, env_hparams=ENV_HPARAMS_FILE,
                              env_trial=ENV_TRIAL_ID)
        run_external([sys.executable, script], tmp_path)
        assert (tmp_path / "trials" / "trial-0001" / HPARAMS_FILENAME).is_file()

    def test_stop_kills_child_silently(self, child_script, tmp_path):
        script = child_script(CHILD_CHATTY_FOREVER)
        spec = ExecutorSpec(kind="external",
                            command=(sys.executable, script),
                            workdir=str(tmp_path / "trials"), timeout=60.0)
        executor = ExternalExecutor(spec, "loss", 1)
        sink = Collector()
        try:
            executor.launch("trial-0001", Configuration({"x": 1.0}), 0, sink)
            deadline = time.monotonic() + 10.0
            while not sink.metrics() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sink.metrics(), "child produced no metrics"
            executor.request_stop("trial-0001")
            time.sleep(0.3)
        finally:
            executor.shutdown()
        assert not sink.terminal.is_set()
        assert all(e.kind == "metric" for e in sink.events)

    @pytest.mark.parametrize("script", [
        "echo 'tuner-metric name=loss iteration=1 value=0.5'; "
        "echo 'tuner-metric name=loss iteration=2 value=nan'; sleep 30",
        "echo 'tuner-metric name=loss iteration=1 value=1e999'; sleep 30",
    ])
    def test_non_finite_objective_fails_attempt(self, script, tmp_path):
        start = time.monotonic()
        sink = run_external(["sh", "-c", script], tmp_path, timeout=60.0)
        assert time.monotonic() - start < 10.0
        assert sink.last.kind == "failed"
        assert sink.last.reason == "non_finite_metric"
        values = [e.value for e in sink.metrics("loss")]
        assert values == ([0.5] if "0.5" in script else [])

    def test_timeout_kills_process_group(self, tmp_path):
        start = time.monotonic()
        sink = run_external(
            ["sh", "-c", "sleep 37 & echo $$ $! > pids; wait; echo done"],
            tmp_path, timeout=1.0)
        assert time.monotonic() - start < 3.0
        assert sink.last.kind == "failed" and sink.last.reason == "timeout"
        assert_group_gone(tmp_path / "trials" / "trial-0001" / "pids")

    def test_shutdown_kills_process_group(self, tmp_path):
        spec = ExecutorSpec(
            kind="external", workdir=str(tmp_path / "trials"), timeout=60.0,
            command=("sh", "-c", "sleep 37 & echo $$ $! > pids; echo "
                     "'tuner-metric name=loss iteration=1 value=0.5'; wait"))
        executor = ExternalExecutor(spec, "loss", 1)
        sink = Collector()
        try:
            executor.launch("trial-0001", Configuration({"x": 1.0}), 0, sink)
            deadline = time.monotonic() + 10.0
            while not sink.metrics() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sink.metrics(), "child produced no metrics"
        finally:
            executor.shutdown()
        assert not sink.terminal.is_set()
        assert_group_gone(tmp_path / "trials" / "trial-0001" / "pids")


def assert_group_gone(pids_file) -> None:
    """The shell's group and its backgrounded ``sleep`` are both gone.

    Killed members may linger briefly as zombies until they are reaped.
    """
    pgid, grandchild = map(int, pids_file.read_text().split())
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
            os.kill(grandchild, 0)
        except ProcessLookupError:
            with pytest.raises(ProcessLookupError):
                os.kill(grandchild, 0)
            with pytest.raises(ProcessLookupError):
                os.killpg(pgid, 0)
            return
        time.sleep(0.05)
    pytest.fail(f"process group {pgid} outlived its trial")
