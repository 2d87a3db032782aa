"""Scheduler: candidate selection, event handling, warm start, and full jobs."""
from __future__ import annotations

import json
import logging
import os
import queue
import shutil
import sys
import threading
import time
from collections import deque

import numpy as np
import pytest

from tunekit import cli, scheduler
from tunekit.benchmarks import get_benchmark
from tunekit.jobs import (
    JobConfigError,
    ObjectiveSpec,
    TrialRecord,
    TuningJobConfig,
    TuningJobState,
)
from tunekit.jobstore import JobStore, StoreError, replay_events
from tunekit.runner import ExecutorSpec, TrialEvent, make_executor
from tunekit.scheduler import (
    JobAborted,
    ParentNotFoundError,
    _derive_seed,
    _design_point,
    _trial_index,
    initial_design_size,
    merge_warm_start,
    next_candidate,
    run_job,
)
from tunekit.space import (
    Configuration,
    SearchSpace,
    categorical,
    continuous,
    decode,
    encode,
    integer,
    sample_random,
)
from tunekit.sobol import scrambled_sobol_points
from tunekit.stopping import QUORUM, MetricCurve
from tunekit.surrogate import CholeskyFailure

BRANIN_SPACE = SearchSpace([
    continuous("x1", -5.0, 10.0),
    continuous("x2", 0.0, 15.0),
])

FAST_BRANIN = ExecutorSpec(kind="builtin", benchmark="branin")

# 71 encoded coordinates: wider than the 64 the Sobol' tables cover.
WIDE_SPACE = SearchSpace([
    categorical("c", tuple(f"v{i}" for i in range(70))),
    continuous("x", 0.0, 1.0),
])


def make_config(**overrides) -> TuningJobConfig:
    defaults = dict(
        job_id="job-sched", space=BRANIN_SPACE,
        objective=ObjectiveSpec("loss"), strategy="random",
        max_trials=6, max_parallel=1, seed=7,
    )
    defaults.update(overrides)
    return TuningJobConfig(**defaults)


def make_trial(index: int, space: SearchSpace, values: dict, *,
               status: str = "completed", final: float | None = None,
               attempts: int = 1) -> TrialRecord:
    cfg = Configuration(dict(values))
    trial_id = f"trial-{index:04d}"
    return TrialRecord(
        trial_id=trial_id, config=cfg,
        encoded=encode(cfg, space), status=status,
        curve=MetricCurve(trial_id), final_value=final, attempts=attempts,
    )


def run_to_completion(root, config, spec=FAST_BRANIN, executor=None):
    store = JobStore(root)
    own = executor is None
    if own:
        executor = make_executor(spec, config.objective.name,
                                 config.max_parallel)
    try:
        return run_job(config, store, executor)
    finally:
        if own:
            executor.shutdown()
        store.close()


class FlakyExecutor:
    """Fails chosen attempts of chosen trials, then delegates."""

    def __init__(self, inner, fail_plan: dict[str, int]):
        self.inner = inner
        self.fail_plan = dict(fail_plan)
        self.seen: dict[str, int] = {}

    @property
    def spec(self) -> ExecutorSpec:
        return self.inner.spec

    def launch(self, trial_id, config, seed, emit) -> None:
        n = self.seen.get(trial_id, 0) + 1
        self.seen[trial_id] = n
        if n <= self.fail_plan.get(trial_id, 0):
            emit(TrialEvent("failed", trial_id, reason="synthetic-fault"))
            return
        self.inner.launch(trial_id, config, seed, emit)

    def request_stop(self, trial_id) -> None:
        self.inner.request_stop(trial_id)

    def shutdown(self) -> None:
        self.inner.shutdown()


class CountingExecutor:
    """Tracks how many trials run concurrently."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()
        self.active: set[str] = set()
        self.high_water = 0
        self.active_at_launch: list[int] = []

    @property
    def spec(self) -> ExecutorSpec:
        return self.inner.spec

    def launch(self, trial_id, config, seed, emit) -> None:
        with self.lock:
            self.active_at_launch.append(len(self.active))
            self.active.add(trial_id)
            self.high_water = max(self.high_water, len(self.active))

        def wrapped(event: TrialEvent) -> None:
            if event.kind in ("completed", "failed"):
                with self.lock:
                    self.active.discard(event.trial_id)
            emit(event)

        self.inner.launch(trial_id, config, seed, wrapped)

    def request_stop(self, trial_id) -> None:
        with self.lock:
            self.active.discard(trial_id)
        self.inner.request_stop(trial_id)

    def shutdown(self) -> None:
        self.inner.shutdown()


class ScriptedExecutor:
    """Emits one fixed curve and a completion inside each launch."""

    def __init__(self, values: list[float]):
        self.values = values
        self.launches: list[str] = []
        self.stops: list[str] = []

    @property
    def spec(self) -> ExecutorSpec:
        return FAST_BRANIN

    def curve(self, trial_id: str) -> list[float]:
        return self.values

    def launch(self, trial_id, config, seed, emit) -> None:
        self.launches.append(trial_id)
        for r, value in enumerate(self.curve(trial_id), start=1):
            emit(TrialEvent("metric", trial_id, "loss", r, value))
        emit(TrialEvent("completed", trial_id))

    def request_stop(self, trial_id) -> None:
        self.stops.append(trial_id)

    def shutdown(self) -> None:
        pass


def scripted_curve(trial_id: str, iterations: int = 10) -> list[float]:
    """A decreasing curve whose level depends on the trial, so that the
    median rule stops some trials and lets others complete."""
    level = 1 + (_trial_index(trial_id) * 7) % 5
    return [level / r for r in range(1, iterations + 1)]


class VaryingExecutor(ScriptedExecutor):
    """Emits :func:`scripted_curve` and a completion inside each launch."""

    def __init__(self):
        super().__init__([])

    def curve(self, trial_id: str) -> list[float]:
        return scripted_curve(trial_id)


class SyncCountingStore(JobStore):
    """Counts journal lines appended and synced, and checks them at the
    points where the journal must be durable."""

    def __init__(self, root):
        super().__init__(root)
        self.appended = 0
        self.synced = 0
        self.checks: list[tuple[str, bool]] = []

    def append_event(self, job_id, event) -> None:
        super().append_event(job_id, event)
        self.appended += 1

    def sync(self, job_id) -> None:
        super().sync(job_id)
        self.synced = self.appended

    def check(self, where: str) -> None:
        self.checks.append((where, self.synced == self.appended))


class WriteAheadExecutor:
    """Checks the journal at each launch and stop request, and emits the
    scripted events of its attempts one at a time, round robin, only when
    the coordinator waits on an empty queue (see :class:`WaitingQueue`)."""

    def __init__(self, store: SyncCountingStore, fail_plan: dict[str, int]):
        self.store = store
        self.fail_plan = dict(fail_plan)
        self.seen: dict[str, int] = {}
        self.scripts: deque[tuple[str, object, deque]] = deque()
        self.stops: list[str] = []

    @property
    def spec(self) -> ExecutorSpec:
        return FAST_BRANIN

    def launch(self, trial_id, config, seed, emit) -> None:
        self.store.check("launch")
        self.seen[trial_id] = n = self.seen.get(trial_id, 0) + 1
        if n <= self.fail_plan.get(trial_id, 0):
            events = [TrialEvent("failed", trial_id, reason="synthetic-fault")]
        else:
            events = [TrialEvent("metric", trial_id, "loss", r, value)
                      for r, value in enumerate(scripted_curve(trial_id), 1)]
            events.append(TrialEvent("completed", trial_id))
        self.scripts.append((trial_id, emit, deque(events)))

    def request_stop(self, trial_id) -> None:
        self.store.check("request_stop")
        self.stops.append(trial_id)
        self.scripts = deque(s for s in self.scripts if s[0] != trial_id)

    def release(self) -> None:
        assert self.scripts, "the coordinator waits with nothing in flight"
        script = self.scripts.popleft()
        _, emit, events = script
        emit(events.popleft())
        if events:
            self.scripts.append(script)

    def shutdown(self) -> None:
        pass


class WaitingQueue(queue.Queue):
    """An event queue that, when the coordinator blocks on it empty,
    checks the journal and then lets the executor emit one event."""

    def __init__(self, executor: WriteAheadExecutor):
        super().__init__()
        self.executor = executor

    def get(self, block=True, timeout=None):
        if block and self.empty():
            self.executor.store.check("wait")
            self.executor.release()
        return super().get(block, timeout)


class FaultyStore(JobStore):
    """Raises StoreError after a fixed number of journal appends."""

    def __init__(self, root, fail_after: int):
        super().__init__(root)
        self.remaining = fail_after

    def append_event(self, job_id, event) -> None:
        if self.remaining <= 0:
            raise StoreError("injected journal fault")
        self.remaining -= 1
        super().append_event(job_id, event)


class FailingSyncStore(JobStore):
    """Raises StoreError from the journal sync after a fixed number of syncs."""

    def __init__(self, root, fail_after: int):
        super().__init__(root)
        self.remaining = fail_after

    def sync(self, job_id) -> None:
        if self.remaining <= 0:
            raise StoreError("injected sync fault")
        self.remaining -= 1
        super().sync(job_id)


def journal_status(store: JobStore, config: TuningJobConfig) -> str:
    """The job status the journal holds, whatever job.json says."""
    return replay_events(config, store.read_events(config.job_id)).status


def open_journals(root) -> list[str]:
    """Paths of the journals under ``root`` that this process holds open."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("needs /proc/self/fd")
    paths = []
    for fd in os.listdir(fd_dir):
        try:
            paths.append(os.readlink(os.path.join(fd_dir, fd)))
        except OSError:
            continue
    return [p for p in paths
            if p.startswith(str(root)) and p.endswith("events.log")]


class StatusCountingStore(JobStore):
    """Counts the coordinator's reads of the job status."""

    def __init__(self, root):
        super().__init__(root)
        self.status_reads = 0

    def read_status(self, job_id) -> str:
        self.status_reads += 1
        return super().read_status(job_id)


class StopOnFirstLaunch:
    """Asks for a stop, as ``tunekit stop`` does, inside the first launch."""

    def __init__(self, inner, control: JobStore, job_id: str):
        self.inner = inner
        self.control = control
        self.job_id = job_id
        self.launched: list[str] = []

    @property
    def spec(self) -> ExecutorSpec:
        return self.inner.spec

    def launch(self, trial_id, config, seed, emit) -> None:
        if not self.launched:
            self.control.set_status(self.job_id, "stopping")
        self.launched.append(trial_id)
        self.inner.launch(trial_id, config, seed, emit)

    def request_stop(self, trial_id) -> None:
        self.inner.request_stop(trial_id)

    def shutdown(self) -> None:
        self.inner.shutdown()


class StopInsideRunningSync(JobStore):
    """Runs ``tunekit stop`` right after the sync that commits the
    ``running`` status, before the coordinator reads the stop request."""

    def __init__(self, root):
        super().__init__(root)
        self.last: dict = {}
        self.stopped = False

    def append_event(self, job_id, event) -> None:
        super().append_event(job_id, event)
        self.last = event

    def sync(self, job_id) -> None:
        super().sync(job_id)
        if not self.stopped and self.last.get("status") == "running":
            self.stopped = True
            assert cli.main(["stop", job_id, "--store", str(self.root)]) == 0


class UnreadableStopStore(JobStore):
    """job.json cannot be read back for a stop request."""

    def __init__(self, root):
        super().__init__(root)
        self.reads = 0

    def read_status(self, job_id) -> str:
        self.reads += 1
        raise StoreError("injected job.json fault")


class FailingFinalSyncStore(JobStore):
    """Fails the sync that would commit the ``completed`` status."""

    def __init__(self, root):
        super().__init__(root)
        self.last: dict = {}

    def append_event(self, job_id, event) -> None:
        super().append_event(job_id, event)
        self.last = event

    def sync(self, job_id) -> None:
        if self.last.get("status") == "completed":
            raise StoreError("injected final sync fault")
        super().sync(job_id)


# --- seeds, indices, and the initial design --------------------------------

class TestSeedsAndDesign:
    def test_derive_seed_deterministic(self):
        assert _derive_seed(1, 2, 3) == _derive_seed(1, 2, 3)

    def test_derive_seed_order_sensitive(self):
        assert _derive_seed(1, 2, 3) != _derive_seed(3, 2, 1)

    def test_trial_index_parses_id(self):
        assert _trial_index("trial-0007") == 7
        assert _trial_index("trial-0123") == 123

    @pytest.mark.parametrize("width,parallel,expected", [
        (2, 1, 4),    # 2*width below the cap of 10
        (2, 4, 5),    # parallel + 1 dominates
        (1, 1, 2),    # tiny space
        (6, 1, 10),   # 2*width capped at 10
        (6, 12, 13),  # heavy parallelism dominates the cap
    ])
    def test_initial_design_size(self, width, parallel, expected):
        space = SearchSpace([continuous(f"x{i}", 0.0, 1.0)
                             for i in range(width)])
        config = make_config(space=space, max_parallel=parallel,
                             max_trials=max(20, parallel))
        assert initial_design_size(config) == expected

    def test_design_points_follow_scrambled_sobol(self):
        config = make_config(strategy="bayesian")
        seed = _derive_seed(config.seed, 101)
        for index in range(4):
            points = scrambled_sobol_points(2, index + 1, seed)
            expected = decode(points[index], config.space)
            got = _design_point(config, index)
            assert got.values == expected.values

    def test_design_points_distinct(self):
        config = make_config(strategy="bayesian")
        encs = [encode(_design_point(config, i), config.space)
                for i in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.max(np.abs(encs[i] - encs[j])) > 1e-6

    def test_design_points_beyond_sobol_width_are_random(self):
        config = make_config(strategy="bayesian", space=WIDE_SPACE)
        seed = _derive_seed(config.seed, 101)
        points = np.random.default_rng(seed).random((4, 71))
        for index in range(4):
            expected = decode(points[index], config.space)
            assert _design_point(config, index).values == expected.values


# --- next_candidate --------------------------------------------------------

class TestNextCandidate:
    def test_random_matches_sampler(self):
        config = make_config(strategy="random")
        state = TuningJobState()
        got, _ = next_candidate(state, config, seed=42)
        expected = sample_random(config.space, 42, 1)[0]
        assert got.values == expected.values

    def test_random_seed_changes_candidate(self):
        config = make_config(strategy="random")
        state = TuningJobState()
        a, _ = next_candidate(state, config, seed=1)
        b, _ = next_candidate(state, config, seed=2)
        assert a.values != b.values

    def test_bayesian_walks_design_while_cold(self):
        config = make_config(strategy="bayesian")
        state = TuningJobState()
        first, _ = next_candidate(state, config, seed=9)
        assert first.values == _design_point(config, 0).values
        # One running trial advances the design index without observations.
        trial = make_trial(1, config.space, dict(first), status="running",
                           final=None)
        state.trials[trial.trial_id] = trial
        second, _ = next_candidate(state, config, seed=10)
        assert second.values == _design_point(config, 1).values

    def test_bayesian_stays_on_design_without_observations(self):
        # Enough in-flight trials to cover the design size, but zero
        # finished observations: the model cannot fit yet.
        config = make_config(strategy="bayesian", max_trials=20,
                             max_parallel=6)
        state = TuningJobState()
        for i in range(1, 8):
            point = _design_point(config, i - 1)
            trial = make_trial(i, config.space, dict(point),
                               status="running", final=None)
            state.trials[trial.trial_id] = trial
        got, _ = next_candidate(state, config, seed=3)
        assert got.values == _design_point(config, 7).values

    def _warm_state(self, config, n: int) -> TuningJobState:
        state = TuningJobState()
        branin = get_benchmark("branin")
        for i, cfg in enumerate(sample_random(config.space, 5, n), start=1):
            trial = make_trial(i, config.space, dict(cfg),
                               final=branin.evaluate(cfg))
            state.trials[trial.trial_id] = trial
        return state

    def test_bayesian_model_phase_proposes_valid_point(self):
        config = make_config(strategy="bayesian")
        state = self._warm_state(config, 6)
        got, _ = next_candidate(state, config, seed=11)
        enc = encode(got, config.space)
        assert enc.shape == (2,)
        assert np.all(enc >= 0.0) and np.all(enc <= 1.0)
        design, _ = state.observations("minimize")
        dists = np.max(np.abs(design - enc), axis=1)
        assert np.min(dists) >= 1e-6

    def test_bayesian_model_phase_deterministic(self):
        config = make_config(strategy="bayesian")
        state = self._warm_state(config, 6)
        a, _ = next_candidate(state, config, seed=11)
        b, _ = next_candidate(state, config, seed=11)
        assert a.values == b.values

    def test_bayesian_avoids_pending(self):
        config = make_config(strategy="bayesian")
        state = self._warm_state(config, 6)
        probe, _ = next_candidate(state, config, seed=13)
        pending = make_trial(7, config.space, dict(probe), status="running",
                             final=None)
        state.trials[pending.trial_id] = pending
        got, _ = next_candidate(state, config, seed=13)
        assert np.max(np.abs(encode(got, config.space)
                             - encode(probe, config.space))) >= 1e-6

    def test_only_model_proposals_return_chain_state(self):
        config = make_config(strategy="bayesian")
        assert next_candidate(TuningJobState(), config, seed=9)[1] is None
        random_config = make_config(strategy="random")
        assert next_candidate(TuningJobState(), random_config, seed=9)[1] is None
        _, log_theta = next_candidate(self._warm_state(config, 6), config,
                                      seed=11)
        assert log_theta.shape == (3 * 2 + 2,)
        assert np.isfinite(log_theta).all()

    def test_chain_continues_from_state(self, monkeypatch):
        calls = []
        sample = scheduler.slice_sample_thetas

        def recording(design, y, mcmc, seed, **kwargs):
            calls.append((mcmc, kwargs.get("start")))
            return sample(design, y, mcmc, seed, **kwargs)

        monkeypatch.setattr(scheduler, "slice_sample_thetas", recording)
        config = make_config(strategy="bayesian")
        state = self._warm_state(config, 6)
        _, log_theta = next_candidate(state, config, seed=11)
        state.chain_log_theta = log_theta
        next_candidate(state, config, seed=12)
        (cold, cold_start), (warm, warm_start) = calls
        assert cold == scheduler._MCMC_COLD and cold_start is None
        assert warm == scheduler._MCMC_WARM and warm_start is log_theta
        assert warm.effective_samples == cold.effective_samples == 10

    def test_unusable_chain_state_falls_back_to_cold(self, caplog):
        config = make_config(strategy="bayesian")
        state = self._warm_state(config, 6)
        cold, _ = next_candidate(state, config, seed=11)
        # Outside the hyperparameter box the posterior density is zero.
        state.chain_log_theta = np.full(3 * 2 + 2, 50.0)
        with caplog.at_level(logging.WARNING, logger="tunekit.scheduler"):
            got, _ = next_candidate(state, config, seed=11)
        assert got.values == cold.values
        assert "starting a cold chain" in caplog.text

    def test_dropped_ensemble_members_are_reported(self, monkeypatch, caplog):
        fit = scheduler.fit_posterior
        calls = []

        def first_fails(design, y, theta):
            calls.append(theta)
            if len(calls) == 1:
                raise CholeskyFailure("forced")
            return fit(design, y, theta)

        monkeypatch.setattr(scheduler, "fit_posterior", first_fails)
        config = make_config(strategy="bayesian")
        with caplog.at_level(logging.WARNING, logger="tunekit.scheduler"):
            next_candidate(self._warm_state(config, 6), config, seed=11)
        assert len(calls) == 10
        assert "kept 9 of 10 hyperparameter samples" in caplog.text


# --- warm-start merging ----------------------------------------------------

class TestMergeWarmStart:
    CHILD = SearchSpace([
        continuous("lr", 1e-4, 1e-1, scaling="log"),
        categorical("opt", ("adam", "sgd")),
    ])

    def _parent_trial(self, i, values, **kwargs):
        space = SearchSpace([
            continuous("lr", 0.0, 1.0),
            categorical("opt", ("adam", "sgd", "rmsprop")),
        ])
        return make_trial(i, space, values, **kwargs)

    def test_in_range_observation_survives_and_reencodes(self):
        trial = self._parent_trial(1, {"lr": 1e-2, "opt": "adam"}, final=0.5)
        merged = merge_warm_start([[trial]], self.CHILD)
        assert len(merged) == 1
        enc, value = merged[0]
        expected = encode(Configuration({"lr": 1e-2, "opt": "adam"}),
                          self.CHILD)
        assert np.allclose(enc, expected)
        assert value == 0.5

    def test_out_of_range_value_dropped(self):
        trial = self._parent_trial(1, {"lr": 0.9, "opt": "adam"}, final=0.5)
        assert merge_warm_start([[trial]], self.CHILD) == []

    def test_unknown_category_dropped(self):
        trial = self._parent_trial(1, {"lr": 1e-2, "opt": "rmsprop"},
                                   final=0.5)
        assert merge_warm_start([[trial]], self.CHILD) == []

    def test_missing_dimension_dropped(self):
        space = SearchSpace([continuous("lr", 0.0, 1.0)])
        trial = make_trial(1, space, {"lr": 1e-2}, final=0.5)
        assert merge_warm_start([[trial]], self.CHILD) == []

    def test_linear_zero_under_log_child_dropped(self):
        # A linear parent can legally observe 0.0; a log child cannot
        # encode it, so the row is dropped.
        trial = self._parent_trial(1, {"lr": 0.0, "opt": "sgd"}, final=0.1)
        assert merge_warm_start([[trial]], self.CHILD) == []

    def test_dropped_rows_are_counted(self, caplog):
        # Criterion 7's case: a linear parent over [0, 1] observed 0.0 and
        # 0.5; a log-scaled child cannot encode 0.0.
        parent_space = SearchSpace([continuous("c", 0.0, 1.0)])
        child_space = SearchSpace([continuous("c", 1e-9, 1.0, scaling="log")])
        trials = [make_trial(i, parent_space, {"c": c}, final=final)
                  for i, (c, final) in enumerate(((0.0, 0.9), (0.5, 0.2)),
                                                 start=1)]
        with caplog.at_level(logging.WARNING, logger="tunekit.scheduler"):
            merged = merge_warm_start([trials], child_space)
        assert [v for _, v in merged] == [0.2]
        assert "dropped 1 of 2 warm-start observations" in caplog.text

    def test_nothing_dropped_logs_nothing(self, caplog):
        trial = self._parent_trial(1, {"lr": 1e-2, "opt": "adam"}, final=0.5)
        with caplog.at_level(logging.WARNING, logger="tunekit.scheduler"):
            merge_warm_start([[trial]], self.CHILD)
        assert caplog.records == []

    def test_unobserved_trials_dropped(self):
        failed = self._parent_trial(1, {"lr": 1e-2, "opt": "adam"},
                                    status="failed", final=None)
        running = self._parent_trial(2, {"lr": 1e-2, "opt": "adam"},
                                     status="running", final=None)
        assert merge_warm_start([[failed, running]], self.CHILD) == []

    def test_early_stopped_trial_survives(self):
        trial = self._parent_trial(1, {"lr": 1e-2, "opt": "sgd"},
                                   status="early_stopped", final=0.7)
        merged = merge_warm_start([[trial]], self.CHILD)
        assert [v for _, v in merged] == [0.7]

    def test_two_parents_union_in_order(self):
        a = self._parent_trial(1, {"lr": 1e-2, "opt": "adam"}, final=0.5)
        b = self._parent_trial(1, {"lr": 1e-3, "opt": "sgd"}, final=0.3)
        merged = merge_warm_start([[a], [b]], self.CHILD)
        assert [v for _, v in merged] == [0.5, 0.3]


# --- end-to-end jobs -------------------------------------------------------

class TestRunJob:
    def test_smallest_job(self, tmp_path):
        config = make_config(max_trials=1)
        state = run_to_completion(tmp_path / "s", config)
        assert len(state.trials) == 1
        only = state.trials["trial-0001"]
        assert only.status == "completed"
        assert state.incumbent("minimize") is only
        store = JobStore(tmp_path / "s")
        assert journal_status(store, config) == "completed"
        store.close()

    def test_budget_exact_with_parallelism(self, tmp_path):
        config = make_config(max_trials=8, max_parallel=4)
        state = run_to_completion(tmp_path / "s", config)
        assert sorted(state.trials) == [f"trial-{i:04d}" for i in range(1, 9)]
        assert state.terminal_count == 8
        assert state.count("completed") == 8

    def test_cold_start_determinism(self, tmp_path):
        spec = ExecutorSpec(kind="builtin", benchmark="branin", noise_std=0.5)
        runs = []
        for sub in ("a", "b"):
            config = make_config(max_trials=6, max_parallel=2, seed=12)
            state = run_to_completion(tmp_path / sub, config, spec=spec)
            runs.append({tid: (dict(t.config), t.final_value)
                         for tid, t in state.trials.items()})
        assert runs[0] == runs[1]

    def test_bayesian_job_dedups_proposals(self, tmp_path):
        config = make_config(strategy="bayesian", max_trials=9,
                             max_parallel=2, seed=3)
        state = run_to_completion(tmp_path / "s", config)
        assert state.count("completed") == 9
        encs = [t.encoded for t in state.trials.values()]
        for i in range(len(encs)):
            for j in range(i + 1, len(encs)):
                assert np.max(np.abs(encs[i] - encs[j])) >= 1e-6

    def test_incumbent_is_min_over_observations(self, tmp_path):
        config = make_config(max_trials=8)
        state = run_to_completion(tmp_path / "s", config)
        best = state.incumbent("minimize")
        assert best.final_value == min(t.final_value
                                       for t in state.trials.values())

    def test_random_trials_use_distinct_seeds(self, tmp_path):
        config = make_config(max_trials=12, seed=21)
        state = run_to_completion(tmp_path / "s", config)
        xs = sorted(t.config["x1"] for t in state.trials.values())
        assert len(set(xs)) == 12

    def test_retry_then_success(self, tmp_path):
        config = make_config(max_trials=5, retry_limit=2)
        inner = make_executor(FAST_BRANIN, "loss", 1)
        executor = FlakyExecutor(inner, {"trial-0002": 1})
        state = run_to_completion(tmp_path / "s", config, executor=executor)
        inner.shutdown()
        trial = state.trials["trial-0002"]
        assert trial.status == "completed"
        assert trial.attempts == 2
        assert state.count("completed") == 5
        store = JobStore(tmp_path / "s")
        events = store.read_events(config.job_id)
        store.close()
        failures = [e for e in events if e["type"] == "trial_failed"
                    and e["trial_id"] == "trial-0002"]
        assert [e["terminal"] for e in failures] == [False]
        launches = [e for e in events if e["type"] == "trial_launched"
                    and e["trial_id"] == "trial-0002"]
        assert [e["attempt"] for e in launches] == [1, 2]
        assert launches[0]["config"] == launches[1]["config"]

    def test_retry_exhaustion_marks_failed(self, tmp_path):
        config = make_config(max_trials=5, retry_limit=1)
        inner = make_executor(FAST_BRANIN, "loss", 1)
        executor = FlakyExecutor(inner, {"trial-0002": 99})
        state = run_to_completion(tmp_path / "s", config, executor=executor)
        inner.shutdown()
        trial = state.trials["trial-0002"]
        assert trial.status == "failed"
        assert trial.attempts == 2
        assert trial.failure_reason == "synthetic-fault"
        assert state.count("completed") == 4
        assert state.terminal_count == 5

    def test_concurrency_respects_slot_limit(self, tmp_path):
        spec = ExecutorSpec(kind="builtin", benchmark="branin", delay=0.03)
        config = make_config(max_trials=9, max_parallel=3, seed=5)
        inner = make_executor(spec, "loss", 3)
        executor = CountingExecutor(inner)
        state = run_to_completion(tmp_path / "s", config, executor=executor)
        assert state.count("completed") == 9
        assert executor.high_water <= 3
        assert executor.high_water == 3

    def test_early_stopping_saves_iterations_and_keeps_incumbent(self, tmp_path):
        curve = get_benchmark("curve-sim")
        spec = ExecutorSpec(kind="builtin", benchmark="curve-sim",
                            iterations=30, delay=0.002)
        base = dict(space=curve.space, max_trials=12, seed=31,
                    objective=ObjectiveSpec("loss"))
        stopped_config = make_config(job_id="job-stop",
                                     early_stopping="median", **base)
        plain_config = make_config(job_id="job-plain",
                                   early_stopping="off", **base)
        stopped = run_to_completion(tmp_path / "a", stopped_config, spec=spec)
        plain = run_to_completion(tmp_path / "b", plain_config, spec=spec)

        assert stopped.count("early_stopped") >= 1
        assert stopped.terminal_count == 12 and plain.terminal_count == 12
        # Same seed and random strategy: identical candidate stream.
        for tid in plain.trials:
            assert dict(stopped.trials[tid].config) == dict(plain.trials[tid].config)
        # A stopped trial keeps the best value it reported.
        for t in stopped.trials.values():
            if t.status == "early_stopped":
                assert t.final_value == t.curve.best_value("minimize")
        # Monotone curves never cross, so the best trial is never stopped.
        assert abs(stopped.incumbent("minimize").final_value
                   - plain.incumbent("minimize").final_value) <= 1e-9

        def executed(root, job_id):
            store = JobStore(root)
            n = sum(1 for e in store.read_events(job_id)
                    if e["type"] == "metric_reported")
            store.close()
            return n

        assert (executed(tmp_path / "a", "job-stop")
                < executed(tmp_path / "b", "job-plain"))

    def test_stop_request_halts_gracefully(self, tmp_path):
        spec = ExecutorSpec(kind="builtin", benchmark="branin",
                            iterations=2, delay=0.05)
        config = make_config(max_trials=30, seed=2)
        store = JobStore(tmp_path / "s")
        executor = make_executor(spec, "loss", 1)
        result: dict = {}

        def target():
            result["state"] = run_job(config, store, executor)

        thread = threading.Thread(target=target)
        thread.start()
        control = JobStore(tmp_path / "s")
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                if journal_status(control, config) == "running":
                    break
            except StoreError:
                pass
            time.sleep(0.01)
        time.sleep(0.35)
        control.set_status(config.job_id, "stopping")
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        executor.shutdown()
        state = result["state"]
        assert 1 <= len(state.trials) < 30
        assert not state.running_ids
        assert state.terminal_count == len(state.trials)
        assert journal_status(control, config) == "completed"
        control.close()
        store.close()

    def test_stop_request_read_once_per_new_trial(self, tmp_path):
        curve = get_benchmark("curve-sim")
        spec = ExecutorSpec(kind="builtin", benchmark="curve-sim",
                            iterations=20)
        config = make_config(space=curve.space, max_trials=12, max_parallel=2,
                             early_stopping="median", seed=23)
        store = StatusCountingStore(tmp_path / "s")
        executor = make_executor(spec, "loss", 2)
        try:
            state = run_job(config, store, executor)
        finally:
            executor.shutdown()
            store.close()
        assert state.terminal_count == 12
        assert store.status_reads <= len(state.trials) + 1

    def test_slots_refilled_only_when_a_trial_leaves_running(
            self, tmp_path, monkeypatch):
        reads = []
        running_ids = TuningJobState.running_ids.fget

        def counted(state):
            reads.append(1)
            return running_ids(state)

        monkeypatch.setattr(TuningJobState, "running_ids", property(counted))
        curve = get_benchmark("curve-sim")
        spec = ExecutorSpec(kind="builtin", benchmark="curve-sim",
                            iterations=30)
        config = make_config(space=curve.space, max_trials=40, max_parallel=2,
                             early_stopping="median", seed=29)
        executor = FlakyExecutor(make_executor(spec, "loss", 2),
                                 {"trial-0003": 1, "trial-0010": 2})
        state = run_to_completion(tmp_path / "s", config, executor=executor)
        executor.shutdown()
        assert state.terminal_count == 40
        assert state.count("early_stopped") >= 1
        store = JobStore(tmp_path / "s")
        types = [e["type"] for e in store.read_events(config.job_id)]
        store.close()
        left_running = sum(types.count(t) for t in (
            "trial_completed", "trial_stopped", "trial_failed"))
        assert types.count("trial_failed") == 3
        assert len(reads) <= left_running + 2
        assert types.count("metric_reported") > 2 * left_running

    def test_executor_holds_no_stop_flags_after_the_job(self, tmp_path):
        curve = get_benchmark("curve-sim")
        spec = ExecutorSpec(kind="builtin", benchmark="curve-sim",
                            iterations=30)
        config = make_config(space=curve.space, max_trials=16, max_parallel=2,
                             early_stopping="median", seed=29)
        executor = make_executor(spec, "loss", 2)
        try:
            state = run_to_completion(tmp_path / "s", config,
                                      executor=executor)
            # A stopped attempt returns at its next check of the flag.
            deadline = time.monotonic() + 5.0
            while executor._stops._flags and time.monotonic() < deadline:
                time.sleep(0.01)
            assert executor._stops._flags == {}
        finally:
            executor.shutdown()
        assert state.count("early_stopped") >= 1

    def test_stop_inside_first_launch_fills_no_second_slot(self, tmp_path):
        spec = ExecutorSpec(kind="builtin", benchmark="branin",
                            iterations=3, delay=0.02)
        config = make_config(max_trials=10, max_parallel=2, seed=4)
        store = JobStore(tmp_path / "s")
        control = JobStore(tmp_path / "s")
        executor = StopOnFirstLaunch(make_executor(spec, "loss", 2),
                                     control, config.job_id)
        try:
            state = run_job(config, store, executor)
        finally:
            executor.shutdown()
            store.close()
        assert executor.launched == ["trial-0001"]
        assert list(state.trials) == ["trial-0001"]
        assert state.trials["trial-0001"].status == "completed"
        assert journal_status(control, config) == "completed"
        control.close()

    def test_stop_during_the_running_sync_is_kept(self, tmp_path):
        # The coordinator never writes job.json, so a stop that lands
        # between its status change and its first launch stands.
        config = make_config(max_trials=4)
        store = StopInsideRunningSync(tmp_path / "s")
        executor = ScriptedExecutor([1.0])
        try:
            state = run_job(config, store, executor)
        finally:
            store.close()
        assert store.stopped
        assert executor.launches == []
        assert state.trials == {}
        reader = JobStore(tmp_path / "s")
        assert journal_status(reader, config) == "completed"
        assert reader.read_status(config.job_id) == "stopping"
        reader.close()

    def test_unreadable_stop_request_warns_once(self, tmp_path, caplog):
        config = make_config(max_trials=4)
        store = UnreadableStopStore(tmp_path / "s")
        with caplog.at_level(logging.WARNING, logger="tunekit.scheduler"):
            try:
                state = run_job(config, store, ScriptedExecutor([1.0]))
            finally:
                store.close()
        assert state.terminal_count == 4
        assert store.reads == 4
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "tunekit.scheduler"]
        assert len(warnings) == 1
        assert "cannot read a stop request" in warnings[0]
        assert "injected job.json fault" in warnings[0]

    def test_failed_sync_of_completed_status_aborts(self, tmp_path):
        config = make_config(max_trials=2)
        store = FailingFinalSyncStore(tmp_path / "s")
        try:
            with pytest.raises(JobAborted, match="injected final sync fault"):
                run_job(config, store, ScriptedExecutor([1.0]))
        finally:
            store.close()
        reader = JobStore(tmp_path / "s")
        assert journal_status(reader, config) == "running"
        reader.close()

    def test_crash_recovery_resumes_to_full_budget(self, tmp_path):
        config = make_config(max_trials=6, max_parallel=2, seed=8)
        faulty = FaultyStore(tmp_path / "s", fail_after=9)
        executor = make_executor(FAST_BRANIN, "loss", 2)
        with pytest.raises(JobAborted):
            run_job(config, faulty, executor)
        executor.shutdown()
        faulty.close()
        # Stores written while inference was a setting carry the key.
        job_json = tmp_path / "s" / config.job_id / "job.json"
        payload = json.loads(job_json.read_text(encoding="utf-8"))
        payload["inference"] = "mcmc"
        job_json.write_text(json.dumps(payload), encoding="utf-8")

        state = run_to_completion(tmp_path / "s", config)
        assert len(state.trials) == 6
        assert state.terminal_count == 6
        assert len(set(state.trials)) == 6
        assert state.incumbent("minimize") is not None
        store = JobStore(tmp_path / "s")
        assert journal_status(store, config) == "completed"
        store.close()

    def test_journal_is_synced_before_anything_depends_on_it(
            self, tmp_path, monkeypatch):
        config = make_config(max_trials=16, max_parallel=2, retry_limit=2,
                             early_stopping="median", seed=37)
        store = SyncCountingStore(tmp_path / "s")
        executor = WriteAheadExecutor(store, {"trial-0003": 1,
                                              "trial-0009": 2})
        monkeypatch.setattr(queue, "Queue", lambda: WaitingQueue(executor))
        try:
            state = run_job(config, store, executor)
            # Nothing is left for close() to sync.
            assert store.synced == store.appended > 0
        finally:
            store.close()
        assert state.terminal_count == 16
        assert state.count("early_stopped") >= 1
        assert state.trials["trial-0009"].attempts == 3
        unsynced = [where for where, ok in store.checks if not ok]
        assert unsynced == []
        kinds = {where for where, _ in store.checks}
        assert kinds == {"launch", "request_stop", "wait"}

    def test_failed_sync_aborts_and_stops_running_trials(self, tmp_path,
                                                         caplog):
        config = make_config(max_trials=6, max_parallel=2)
        # Syncs: the running status, trial-0001's launch, trial-0002's.
        store = FailingSyncStore(tmp_path / "s", fail_after=2)
        executor = VaryingExecutor()
        with caplog.at_level(logging.WARNING, logger="tunekit.jobstore"):
            with pytest.raises(JobAborted, match="injected sync fault"):
                run_job(config, store, executor)
        # run_job logs the failed sync of the pending lines and still
        # closes the journal.
        assert any("injected sync fault" in r.message for r in caplog.records)
        assert store._event_handles == {}
        store.close()
        assert executor.launches == ["trial-0001"]
        assert executor.stops == ["trial-0001", "trial-0002"]
        state = run_to_completion(tmp_path / "s", config,
                                  executor=VaryingExecutor())
        assert state.terminal_count == 6

    def test_jobs_release_their_journal_when_run_job_returns(self, tmp_path):
        store = FaultyStore(tmp_path / "s", fail_after=10**6)
        try:
            for job_id in ("job-a", "job-b"):
                run_job(make_config(job_id=job_id), store, VaryingExecutor())
            assert open_journals(tmp_path) == []
            store.remaining = 5
            with pytest.raises(JobAborted):
                run_job(make_config(job_id="job-c"), store, VaryingExecutor())
            assert open_journals(tmp_path) == []
        finally:
            store.close()
        # The aborted job's lines were written when it ended.
        reader = JobStore(tmp_path / "s")
        assert len(reader.read_events("job-c")) == 5
        reader.close()

    def test_fsyncs_per_job_are_bounded_and_no_snapshots(
            self, tmp_path, monkeypatch):
        config = make_config(max_trials=40, max_parallel=2,
                             early_stopping="median", seed=41)
        journal = tmp_path / "s" / config.job_id / "events.log"
        fsyncs = {"journal": 0, "other": 0}
        real = os.fsync

        def counting(fd):
            is_journal = (journal.exists()
                          and os.path.samestat(os.fstat(fd), journal.stat()))
            fsyncs["journal" if is_journal else "other"] += 1
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        executor = VaryingExecutor()
        state = run_to_completion(tmp_path / "s", config, executor=executor)
        monkeypatch.undo()
        assert state.terminal_count == 40
        launches, stops = len(executor.launches), len(executor.stops)
        assert stops >= 1
        # One journal sync before each launch and each stop request, one
        # after each of the two status changes, and one to spare.
        assert fsyncs["journal"] <= launches + stops + 3
        # job.json is written atomically at creation only.
        assert fsyncs["other"] == 1
        assert not (tmp_path / "s" / config.job_id / "trials").exists()

    def test_live_state_equals_replayed_journal(self, tmp_path):
        curve = get_benchmark("curve-sim")
        spec = ExecutorSpec(kind="builtin", benchmark="curve-sim",
                            iterations=20, delay=0.001)
        config = make_config(space=curve.space, max_trials=10, max_parallel=2,
                             early_stopping="median", retry_limit=1, seed=17)
        inner = make_executor(spec, "loss", 2)
        executor = FlakyExecutor(inner, {"trial-0002": 1, "trial-0004": 99})
        state = run_to_completion(tmp_path / "s", config, executor=executor)
        inner.shutdown()
        assert state.count("early_stopped") >= 1
        assert state.trials["trial-0002"].attempts == 2
        assert state.trials["trial-0004"].status == "failed"

        store = JobStore(tmp_path / "s")
        replayed = replay_events(config, store.read_events(config.job_id))
        store.close()
        assert replayed.status == state.status == "completed"
        assert list(replayed.trials) == list(state.trials)
        for tid, live in state.trials.items():
            again = replayed.trials[tid]
            fields = ("status", "final_value", "attempts", "started",
                      "finished", "failure_reason", "config")
            assert ([getattr(again, f) for f in fields]
                    == [getattr(live, f) for f in fields]), tid
            assert again.curve.points == live.curve.points, tid
            assert np.array_equal(again.encoded, live.encoded), tid

    def test_resume_of_completed_job_is_noop(self, tmp_path):
        config = make_config(max_trials=4)
        run_to_completion(tmp_path / "s", config)
        store = JobStore(tmp_path / "s")
        before = len(store.read_events(config.job_id))
        # The caller may even pass a different budget: the stored
        # configuration is authoritative on resume.
        bigger = make_config(max_trials=20)
        executor = make_executor(FAST_BRANIN, "loss", 1)
        state = run_job(bigger, store, executor)
        executor.shutdown()
        after = len(store.read_events(config.job_id))
        store.close()
        assert len(state.trials) == 4
        assert after == before

    def test_creation_requires_executor_spec(self, tmp_path):
        config = make_config()
        store = JobStore(tmp_path / "s")

        class Bare:
            pass

        with pytest.raises(JobConfigError):
            run_job(config, store, Bare())
        assert not store.job_exists(config.job_id)
        store.close()

    def test_missing_parent_raises(self, tmp_path):
        config = make_config(warm_start_parents=("ghost",))
        store = JobStore(tmp_path / "s")
        executor = make_executor(FAST_BRANIN, "loss", 1)
        with pytest.raises(ParentNotFoundError):
            run_job(config, store, executor)
        executor.shutdown()
        store.close()

    def test_warm_start_feeds_child_model(self, tmp_path):
        parent = make_config(job_id="parent-a", max_trials=5, seed=4)
        run_to_completion(tmp_path / "s", parent)
        child = make_config(job_id="child-a", strategy="bayesian",
                            max_trials=3, seed=6,
                            warm_start_parents=("parent-a",))
        state = run_to_completion(tmp_path / "s", child)
        assert len(state.warm_obs) == 5
        assert len(state.trials) == 3
        design, y = state.observations("minimize")
        assert design.shape == (8, 2) and y.shape == (8,)
        # Warm observations cover the initial design, so the first child
        # trial is already model-based rather than a space-filling point.
        first = state.trials["trial-0001"]
        assert dict(first.config) != _design_point(child, 0).values

    def test_bayesian_job_wider_than_sobol_runs(self, tmp_path):
        config = make_config(strategy="bayesian", space=WIDE_SPACE,
                             max_trials=3)
        state = run_to_completion(tmp_path / "s", config,
                                  executor=VaryingExecutor())
        assert state.status == "completed"
        assert [t.status for t in state.trials.values()] == ["completed"] * 3

    def test_wide_warm_start_proposes_from_random_anchors(self, tmp_path):
        # The parent's observations cover the child's initial design, so
        # the child's first trial comes from propose on a 71-wide space.
        parent = make_config(job_id="wide-parent", space=WIDE_SPACE,
                             max_trials=10, seed=4)
        run_to_completion(tmp_path / "s", parent, executor=VaryingExecutor())
        child = make_config(job_id="wide-child", strategy="bayesian",
                            space=WIDE_SPACE, max_trials=1, seed=6,
                            warm_start_parents=("wide-parent",))
        assert initial_design_size(child) == 10
        state = run_to_completion(tmp_path / "s", child,
                                  executor=VaryingExecutor())
        assert len(state.warm_obs) == 10
        assert state.status == "completed"
        assert state.trials["trial-0001"].status == "completed"
        # Only a model proposal journals a hyperparameter chain state.
        store = JobStore(tmp_path / "s")
        try:
            loaded, _, reloaded = store.load_job("wide-child")
        finally:
            store.close()
        assert loaded == child and reloaded.status == "completed"
        assert reloaded.chain_log_theta is not None


# --- external trials through the whole loop --------------------------------

CHILD_REPORTS_FROM_ZERO = """\
print("tuner-metric name=loss iteration=0 value=9.0", flush=True)
print("tuner-metric name=loss iteration=1 value=0.25", flush=True)
"""


class TestExternalJobs:
    def test_metric_at_iteration_zero_is_ignored(self, tmp_path):
        script = tmp_path / "child.py"
        script.write_text(CHILD_REPORTS_FROM_ZERO)
        spec = ExecutorSpec(kind="external", command=(sys.executable,
                                                      str(script)),
                            workdir=str(tmp_path / "trials"))
        config = make_config(max_trials=1)
        state = run_to_completion(tmp_path / "s", config, spec=spec)
        trial = state.trials["trial-0001"]
        assert trial.status == "completed" and trial.final_value == 0.25
        assert trial.curve.points == [(1, 0.25)]
        store = JobStore(tmp_path / "s")
        _, _, replayed = store.load_job(config.job_id)
        store.close()
        assert replayed.trials["trial-0001"].curve.points == [(1, 0.25)]
        assert replayed.trials["trial-0001"].final_value == 0.25

    def test_unusable_trial_directory_fails_trials(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        spec = ExecutorSpec(kind="external", command=(sys.executable, "-c", ""),
                            workdir=str(blocker / "sub"))
        config = make_config(max_trials=2)
        result: dict = {}

        def target():
            result["state"] = run_to_completion(tmp_path / "s", config,
                                                spec=spec)

        # A lost terminal event would block run_job forever.
        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        state = result["state"]
        assert len(state.trials) == 2
        for trial in state.trials.values():
            assert trial.status == "failed"
            assert trial.failure_reason == "spawn_failure"


# --- resuming a crashed job ------------------------------------------------

def crashed_store(root, config, attempt):
    """A store whose journal ends with trial-0001 in flight."""
    store = JobStore(root)
    store.create_job(config, FAST_BRANIN)
    cfg = Configuration({"x1": 1.0, "x2": 2.0})
    store.append_event(config.job_id, {
        "type": "trial_launched", "trial_id": "trial-0001",
        "attempt": attempt, "config": dict(cfg.values),
        "encoded": [float(v) for v in encode(cfg, config.space)], "ts": 1.0})
    store.append_event(config.job_id, {
        "type": "metric_reported", "trial_id": "trial-0001",
        "iteration": 1, "value": 5.0, "ts": 2.0})
    store.close()


def trial_events(root, config, trial_id):
    store = JobStore(root)
    events = [e for e in store.read_events(config.job_id)
              if e.get("trial_id") == trial_id]
    store.close()
    return events


class TestResume:
    def test_running_at_crash_relaunches_as_next_attempt(self, tmp_path):
        config = make_config(max_trials=2, retry_limit=2)
        crashed_store(tmp_path / "s", config, attempt=1)
        state = run_to_completion(tmp_path / "s", config)
        trial = state.trials["trial-0001"]
        assert trial.status == "completed" and trial.attempts == 2
        events = trial_events(tmp_path / "s", config, "trial-0001")
        assert [e["type"] for e in events] == [
            "trial_launched", "metric_reported", "trial_failed",
            "trial_launched", "metric_reported", "trial_completed"]
        failed = events[2]
        assert (failed["reason"], failed["terminal"]) == ("interrupted", False)
        assert events[3]["attempt"] == 2
        assert events[3]["config"] == events[0]["config"]
        assert state.terminal_count == 2

    def test_exhausted_attempts_fail_as_interrupted(self, tmp_path):
        config = make_config(max_trials=2, retry_limit=1)
        crashed_store(tmp_path / "s", config, attempt=2)
        state = run_to_completion(tmp_path / "s", config)
        trial = state.trials["trial-0001"]
        assert trial.status == "failed"
        assert trial.failure_reason == "interrupted"
        assert trial.attempts == 2
        events = trial_events(tmp_path / "s", config, "trial-0001")
        assert [e["type"] for e in events] == [
            "trial_launched", "metric_reported", "trial_failed"]
        assert events[2]["terminal"] is True
        assert trial.finished == events[2]["ts"]
        assert state.count("completed") == 1 and state.terminal_count == 2

    def test_median_rule_sees_completed_curves_of_the_journal(self, tmp_path):
        # QUORUM trials completed before the crash, all at 0.1 over 8
        # iterations, so the rule is active from iteration 2 on.
        config = make_config(max_trials=QUORUM + 1, early_stopping="median")
        store = JobStore(tmp_path / "s")
        store.create_job(config, FAST_BRANIN)
        cfg = Configuration({"x1": 1.0, "x2": 2.0})
        for i in range(1, QUORUM + 1):
            tid = f"trial-{i:04d}"
            store.append_event(config.job_id, {
                "type": "trial_launched", "trial_id": tid, "attempt": 1,
                "config": dict(cfg.values),
                "encoded": [float(v) for v in encode(cfg, config.space)]})
            for r in range(1, 9):
                store.append_event(config.job_id, {
                    "type": "metric_reported", "trial_id": tid,
                    "iteration": r, "value": 0.1})
            store.append_event(config.job_id, {
                "type": "trial_completed", "trial_id": tid,
                "final_value": 0.1})
        store.close()
        executor = ScriptedExecutor([5.0] * 8)
        state = run_to_completion(tmp_path / "s", config, executor=executor)
        worse = state.trials[f"trial-{QUORUM + 1:04d}"]
        assert worse.status == "early_stopped"
        assert worse.curve.points == [(1, 5.0), (2, 5.0)]
        assert executor.stops == [worse.trial_id]

    @pytest.mark.parametrize("journal_end", ["running", "completed"])
    @pytest.mark.parametrize("file_status", ["running", "completed",
                                             "stopping"])
    def test_stores_with_a_status_in_job_json_still_work(
            self, tmp_path, journal_end, file_status):
        # Older versions also kept the job status in job.json, and made an
        # empty trials/ directory.
        config = make_config(max_trials=3)
        root = tmp_path / "s"
        if journal_end == "completed":
            run_to_completion(root, config, executor=ScriptedExecutor([2.0]))
        else:
            cfg = Configuration({"x1": 1.0, "x2": 2.0})
            store = JobStore(root)
            store.create_job(config, FAST_BRANIN)
            store.append_event(config.job_id, {"type": "job_status_changed",
                                               "status": "running"})
            store.append_event(config.job_id, {
                "type": "trial_launched", "trial_id": "trial-0001",
                "attempt": 1, "config": dict(cfg.values),
                "encoded": [float(v) for v in encode(cfg, config.space)]})
            store.close()
        store = JobStore(root)
        store.set_status(config.job_id, file_status)
        (root / config.job_id / "trials").mkdir(exist_ok=True)
        want = ("completed" if journal_end == "completed" else
                "stopping" if file_status == "stopping" else "running")
        assert store.load_job(config.job_id)[2].status == want
        assert store.list_jobs() == [(config.job_id, want)]
        before = store.read_events(config.job_id)

        executor = ScriptedExecutor([2.0])
        state = run_job(config, store, executor)
        store.close()
        reader = JobStore(root)
        after = reader.read_events(config.job_id)
        assert reader.list_jobs() == [(config.job_id, "completed")]
        reader.close()
        assert state.status == "completed"
        if journal_end == "completed":
            assert after == before and executor.launches == []
            assert state.terminal_count == 3
        elif file_status == "stopping":
            # Only the interrupted trial runs again.
            assert executor.launches == ["trial-0001"]
            assert list(state.trials) == ["trial-0001"]
            assert state.trials["trial-0001"].status == "completed"
        else:
            assert executor.launches == ["trial-0001", "trial-0002",
                                         "trial-0003"]
            assert state.terminal_count == 3

    def test_torn_journal_tail_resumes_and_reloads(self, tmp_path):
        curve = get_benchmark("curve-sim")
        spec = ExecutorSpec(kind="builtin", benchmark="curve-sim",
                            iterations=10)
        config = make_config(space=curve.space, max_trials=6,
                             early_stopping="median", seed=43)
        done = tmp_path / "done"
        reference = run_to_completion(done, config, spec=spec)
        journal = (done / config.job_id / "events.log").read_bytes()
        ends = [i for i, byte in enumerate(journal) if byte == ord("\n")]
        # Seeded cuts, one that keeps a whole line but not its newline,
        # and one 15 bytes into a line.
        rng = np.random.default_rng(5)
        cuts = sorted({*rng.integers(1, len(journal), size=6).tolist(),
                       ends[10], ends[20] + 16})
        want = {tid: dict(t.config.values)
                for tid, t in reference.trials.items()}
        for cut in cuts:
            root = tmp_path / f"cut-{cut}"
            shutil.copytree(done, root)
            with open(root / config.job_id / "events.log", "r+b") as fh:
                fh.truncate(cut)
            run_to_completion(root, config, spec=spec)
            store = JobStore(root)
            try:
                _, _, state = store.load_job(config.job_id)
            finally:
                store.close()
            assert state.status == "completed", cut
            assert state.terminal_count == 6, cut
            assert {tid: dict(t.config.values)
                    for tid, t in state.trials.items()} == want, cut


# --- the hyperparameter chain across a crash -------------------------------

def proposals_hex(state: TuningJobState) -> dict[str, dict[str, str]]:
    return {tid: {k: float(v).hex() for k, v in t.config.values.items()}
            for tid, t in state.trials.items()}


class TestChainResume:
    CONFIG = make_config(job_id="job-chain", strategy="bayesian",
                         max_trials=8, seed=19)

    def _reference(self, root):
        state = run_to_completion(root, self.CONFIG)
        store = JobStore(root)
        events = store.read_events(self.CONFIG.job_id)
        store.close()
        return state, events

    def test_crash_at_every_event_boundary_proposes_the_same(self, tmp_path):
        config = self.CONFIG
        reference, events = self._reference(tmp_path / "ref")
        model_launches = [e for e in events if "proposal" in e]
        assert len(model_launches) == (config.max_trials
                                       - initial_design_size(config))
        want = proposals_hex(reference)
        for boundary in range(len(events)):
            root = tmp_path / f"crash-{boundary:02d}"
            faulty = FaultyStore(root, fail_after=boundary)
            executor = make_executor(FAST_BRANIN, "loss", 1)
            try:
                with pytest.raises(JobAborted):
                    run_job(config, faulty, executor)
            finally:
                executor.shutdown()
                faulty.close()
            state = run_to_completion(root, config)
            assert state.count("completed") == config.max_trials, boundary
            assert proposals_hex(state) == want, boundary

    def test_journal_without_chain_state_resumes(self, tmp_path):
        # A journal written before launches carried a proposal: cut it
        # after a model launch and strip every proposal.
        config = self.CONFIG
        root = tmp_path / "s"
        _, events = self._reference(root)
        cut = next(i for i, e in enumerate(events)
                   if e.get("trial_id") == "trial-0006"
                   and e["type"] == "trial_launched")
        old = [{k: v for k, v in e.items() if k != "proposal"}
               for e in events[:cut + 1]]
        journal = root / config.job_id / "events.log"
        journal.write_text("".join(json.dumps(e, separators=(",", ":")) + "\n"
                                   for e in old), encoding="utf-8")
        state = run_to_completion(root, config)
        assert state.count("completed") == config.max_trials
        store = JobStore(root)
        resumed = store.read_events(config.job_id)[len(old):]
        store.close()
        assert [e["trial_id"] for e in resumed if "proposal" in e] == [
            "trial-0007", "trial-0008"]
