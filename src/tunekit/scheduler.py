"""The asynchronous tuning loop.

One coordinator (the thread calling :func:`run_job`) owns all mutable job
state.  Trials execute concurrently through an executor and talk back only
through one ``queue.SimpleQueue``: it is FIFO across all emitting threads,
and only the coordinator reads it, so the coordinator takes no lock of its
own.  Each launch hands the executor an ``emit`` bound to its attempt, and
a report of an attempt other than its trial's current one is dropped with
a warning before it reaches the journal.  The loop fills the free slots,
then, while any trial runs, handles one event, and fills again when that
event took its trial out of ``running``; the job is done when a fill
leaves nothing running.  Filling relaunches pending retries first, and only
then proposes new trials: the surrogate is refit on everything observed so
far, so slots never wait for each other.  A new trial is refused once the
budget is spent or a stop was requested; the stop request (the job's
``stop`` file, which the coordinator never writes) is checked only at that
decision, one ``stat`` per proposed launch, and in-flight trials run to
their end.  Handlers only decide what happens: each transition is journaled
first and then applied through :func:`~tunekit.jobstore.apply_event`, the
transition function replay uses, so a crash at any event boundary is
recoverable.  The median rule's completed curves are part of that state
(``TuningJobState.completed``), so a resumed job stops what an
uninterrupted one would.

Every event is written and fsync'd before anything outside the
coordinator depends on it, and before the coordinator waits: the journal
is synced before each launch and each stop request, after each job
status change, and before blocking on an empty event queue.  A sync
therefore writes and commits whatever piled up while the coordinator was
busy, and a failed sync aborts the job like a failed append.

Model proposals continue one slice-sampling chain over the GP
hyperparameters.  A job's first model proposal, and any whose state holds
no chain, runs a cold chain from the default hyperparameters: 296 steps,
250 burn-in, thinning 5.  Every later one starts from the log vector the
previous model launch journaled as ``proposal.log_theta`` and runs 37
steps with no burn-in, keeping every 4th.  Both keep 10 members, the last
of them the chain's final step.  The chain state thus lives in the
journal, so a resumed job proposes what an uninterrupted one would.
"""

from __future__ import annotations

import logging
import math
import queue
import time

import numpy as np

from collections.abc import Iterable

from .acquisition import AcquisitionContext, propose
from .inference import McmcConfig, StartPointError, slice_sample_thetas
from .jobs import (
    JobConfigError,
    TrialRecord,
    TuningJobConfig,
    TuningJobState,
    validate_job_config,
)
from .jobstore import JobStore, NotFoundError, StoreError, apply_event
from .runner import Executor, TrialEvent
from .space import (
    Configuration,
    SearchSpace,
    decode,
    encode,
    sample_random,
    validate_value,
)
from .sobol import MAX_DIMENSION, scrambled_sobol_points
from .stopping import median_rule
from .surrogate import GpHyperParams, fit_posterior

logger = logging.getLogger(__name__)

__all__ = [
    "JobAborted",
    "ParentNotFoundError",
    "initial_design_size",
    "next_candidate",
    "merge_warm_start",
    "run_job",
]

# Purpose tags keeping the per-job seed streams disjoint.
_SEED_INIT_DESIGN = 101
_SEED_CANDIDATE = 202
_SEED_EXECUTOR = 303

# Slice-sampling schedules: a cold chain starts from the default
# hyperparameters, a warm one continues the journaled chain.  Each keeps
# 10 members, and its last is the chain's final step, the state the
# launch journals.  The warm chain needs no burn-in: it starts at the
# previous proposal's last member, already a posterior draw on all but
# the newest observations; thinning by 4 leaves 4 slice steps between
# members.
_MCMC_COLD = McmcConfig(296, 250, 5)
_MCMC_WARM = McmcConfig(37, 0, 4)


class JobAborted(RuntimeError):
    """The job hit an unrecoverable store failure and gave up."""


class ParentNotFoundError(RuntimeError):
    """A warm-start parent job id does not exist in the store."""


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _trial_index(trial_id: str) -> int:
    return int(trial_id.rsplit("-", 1)[1])


def initial_design_size(config: TuningJobConfig) -> int:
    """Number of space-filling points before model-based proposals start."""
    width = config.space.encoded_width
    return max(config.max_parallel + 1, min(2 * width, 10))


def _design_point(config: TuningJobConfig, index: int) -> Configuration:
    seed = _derive_seed(config.seed, _SEED_INIT_DESIGN)
    width = config.space.encoded_width
    if width > MAX_DIMENSION:  # beyond the Sobol' tables, as in propose
        return sample_random(config.space, seed, index + 1)[index]
    points = scrambled_sobol_points(width, index + 1, seed)
    return decode(points[index], config.space)


def _sample_thetas(design: np.ndarray, y: np.ndarray,
                   start: np.ndarray | None, seed: int) -> list[GpHyperParams]:
    """Continue the chain from ``start``, or run a cold chain without one."""
    if start is not None:
        try:
            return slice_sample_thetas(design, y, _MCMC_WARM, seed,
                                       start=start)
        except StartPointError:
            logger.warning("stored hyperparameter chain state has no finite "
                           "density on %d observations; starting a cold chain",
                           y.shape[0])
    return slice_sample_thetas(design, y, _MCMC_COLD, seed)


def next_candidate(state: TuningJobState, config: TuningJobConfig,
                   seed: int) -> tuple[Configuration, np.ndarray | None]:
    """Pick the configuration for the next trial launch.

    Random strategy always samples uniformly.  The Bayesian strategy
    walks a scrambled-Sobol initial design until enough observations and
    in-flight trials exist, then slice-samples the hyperparameters on all
    observations (warm-start ones included), continuing the chain in
    ``state.chain_log_theta`` when there is one, and maximises the
    ensemble acquisition, excluding pending points.

    Returns the configuration and, for a model proposal, the log vector
    of the last ensemble member, which the next model proposal continues
    from; None otherwise.
    """
    if config.strategy == "random":
        return sample_random(config.space, seed, 1)[0], None

    design, y = state.observations(config.objective.goal)
    n_obs = y.shape[0]
    running = [state.trials[tid] for tid in state.running_ids]
    if n_obs + len(running) < initial_design_size(config) or n_obs == 0:
        return _design_point(config, len(state.trials)), None

    inference_seed = _derive_seed(seed, 1)
    propose_seed = _derive_seed(seed, 2)
    thetas = _sample_thetas(design, y, state.chain_log_theta, inference_seed)
    posterior = fit_posterior(design, y, thetas)
    kept = posterior.alpha.shape[0]
    if kept < len(thetas):
        logger.warning("kept %d of %d hyperparameter samples: the others "
                       "could not be factorised", kept, len(thetas))
    ctx = AcquisitionContext(
        posterior=posterior,
        incumbent=float(np.min(y)),
        pending=np.array([t.encoded for t in running]).reshape(
            -1, config.space.encoded_width),
        space=config.space,
    )
    return propose(ctx, propose_seed), thetas[-1].to_log_vector()


def merge_warm_start(parents: Iterable[Iterable[TrialRecord]],
                     child_space: SearchSpace) -> list[tuple[np.ndarray, float]]:
    """Parent observations usable by a child job, from each parent's trials.

    Every completed or early-stopped parent trial is re-validated against
    the child space: values out of range, categories unknown to the
    child, or values invalid under the child's scaling (a linear-parent
    0.0 under a log-scaled child dimension) drop the observation, and a
    warning counts the dropped ones.  Survivors are re-encoded with the
    child space.  The result feeds the GP but never counts toward the
    child's trial budget.
    """
    merged: list[tuple[np.ndarray, float]] = []
    dropped = 0
    for trials in parents:
        for trial in trials:
            if not trial.has_observation:
                continue
            if all(dim.name in trial.config
                   and validate_value(dim, trial.config[dim.name])
                   for dim in child_space):
                merged.append((encode(trial.config, child_space),
                               float(trial.final_value)))
            else:
                dropped += 1
    if dropped:
        logger.warning("dropped %d of %d warm-start observations: invalid "
                       "in the child space", dropped, dropped + len(merged))
    return merged


class _Coordinator:
    def __init__(self, config: TuningJobConfig, store: JobStore,
                 executor: Executor, state: TuningJobState) -> None:
        self.config = config
        self.store = store
        self.executor = executor
        self.state = state
        self.events = queue.SimpleQueue()  # (attempt, TrialEvent) pairs
        self.stop_requested = state.status == "stopping"
        self.stop_unreadable = False
        # (trial id, attempt) of each replaced attempt that was warned about.
        self.stale_attempts: set[tuple[str, int]] = set()

    # -- recording (store failures abort the job) ------------------------

    def _record(self, event: dict) -> None:
        """Journal ``event`` and apply it to the state."""
        event.setdefault("ts", time.time())
        if not math.isfinite(event.get("final_value", 0.0)):
            logger.warning("trial %s reported a non-finite final value; it "
                           "is journaled but never observed", event["trial_id"])
        self._write(self.store.append_event, self.config.job_id, event)
        apply_event(self.config, self.state, event)

    def _sync(self) -> None:
        """Make every journaled event durable; called before others see it."""
        self._write(self.store.sync, self.config.job_id)

    def _write(self, store_method, *args) -> None:
        try:
            store_method(*args)
        except (StoreError, OSError) as exc:
            self._abort(exc)

    def _abort(self, cause: Exception) -> None:
        for trial_id in self.state.running_ids:
            try:
                self.executor.request_stop(trial_id)
            except Exception:
                logger.exception("stop request failed during abort")
        raise JobAborted(f"store failure: {cause}") from cause

    def _set_job_status(self, status: str) -> None:
        self._record({"type": "job_status_changed", "status": status})
        self._sync()

    # -- launching ---------------------------------------------------------

    def _launch(self, trial_id: str, candidate: Configuration,
                encoded: np.ndarray, attempt: int, seed_index: int,
                log_theta: np.ndarray | None = None) -> None:
        event = {
            "type": "trial_launched", "trial_id": trial_id, "attempt": attempt,
            "config": dict(candidate.values),
            "encoded": [float(v) for v in encoded],
        }
        if log_theta is not None:
            event["proposal"] = {"log_theta": [float(v) for v in log_theta]}
        self._record(event)
        self._sync()
        executor_seed = _derive_seed(self.config.seed, _SEED_EXECUTOR,
                                     seed_index, attempt)
        put = self.events.put
        self.executor.launch(trial_id, candidate, executor_seed,
                             lambda event: put((attempt, event)))

    def _fill_slots(self) -> bool:
        """Launch retries, then new trials, while a slot is free.

        A stop request is checked only when the budget would allow a new
        trial: one stat of the job's ``stop`` file.
        Returns whether a trial is running afterwards.  The running trials
        are counted once; only this loop's launches change that count,
        since events are handled on this thread.
        """
        config, state = self.config, self.state
        running = len(state.running_ids)
        while running < config.max_parallel:
            retries = sorted(state.retry_ids)
            # A first attempt seeds its executor from the 0-based launch
            # index, a retry from the 1-based trial number.
            if retries:
                trial = state.trials[retries[0]]
                self._launch(trial.trial_id, trial.config, trial.encoded,
                             trial.attempts + 1, _trial_index(trial.trial_id))
                running += 1
                continue
            if len(state.trials) >= config.max_trials:
                break
            if not self.stop_requested:
                try:
                    self.stop_requested = (
                        self.store.read_status(config.job_id) == "stopping")
                except (StoreError, OSError) as exc:
                    if not self.stop_unreadable:
                        self.stop_unreadable = True
                        logger.warning("job %s: cannot read a stop "
                                       "request: %s", config.job_id, exc)
            if self.stop_requested:
                break
            index = len(state.trials)
            candidate, log_theta = next_candidate(
                state, config, _derive_seed(config.seed, _SEED_CANDIDATE, index))
            self._launch(f"trial-{index + 1:04d}", candidate,
                         encode(candidate, config.space), 1, index, log_theta)
            running += 1
        return running > 0

    # -- event handling ----------------------------------------------------

    def _handle_metric(self, trial: TrialRecord, event: TrialEvent) -> None:
        config = self.config
        if event.metric != config.objective.name:
            return
        # Iterations start at 1 and must advance; anything else is dropped
        # before it reaches the journal.
        if event.iteration <= (trial.curve.final_iteration or 0):
            return
        self._record({
            "type": "metric_reported", "trial_id": trial.trial_id,
            "iteration": int(event.iteration), "value": float(event.value),
        })
        if config.early_stopping != "median":
            return
        decision = median_rule(trial.curve, self.state.completed,
                               event.iteration, config.objective.goal)
        if not decision.should_stop:
            return
        self._record({
            "type": "trial_stopped", "trial_id": trial.trial_id,
            "final_value": float(trial.curve.best_value(config.objective.goal)),
        })
        self._sync()
        self.executor.request_stop(trial.trial_id)

    def _handle_completed(self, trial: TrialRecord) -> None:
        if trial.curve.final_value is None:
            self._handle_failed(trial, "protocol_violation")
            return
        self._record({
            "type": "trial_completed", "trial_id": trial.trial_id,
            "final_value": float(trial.curve.final_value),
        })

    def _handle_failed(self, trial: TrialRecord, reason: str) -> None:
        self._record({
            "type": "trial_failed", "trial_id": trial.trial_id,
            "reason": reason,
            "terminal": trial.attempts > self.config.retry_limit,
        })

    def _handle(self, attempt: int, event: TrialEvent) -> bool:
        """Handle one event of ``attempt``; return whether its trial left
        ``running``."""
        trial = self.state.trials.get(event.trial_id)
        if trial is None:
            return False
        if attempt != trial.attempts:  # a retry replaced this attempt
            if (trial.trial_id, attempt) not in self.stale_attempts:
                self.stale_attempts.add((trial.trial_id, attempt))
                logger.warning("trial %s: dropping the reports of attempt "
                               "%d, replaced by attempt %d", trial.trial_id,
                               attempt, trial.attempts)
            return False
        # Only running trials change; reports from an attempt already
        # stopped, failed or completed are dropped.
        if trial.status != "running":
            return False
        if event.kind == "metric":
            self._handle_metric(trial, event)
        elif event.kind == "completed":
            self._handle_completed(trial)
        elif event.kind == "failed":
            self._handle_failed(trial, str(event.reason or "unknown"))
        return trial.status != "running"

    # -- main loop ---------------------------------------------------------

    def _next_event(self) -> tuple[int, TrialEvent]:
        """The next (attempt, event); the journal is synced before waiting."""
        try:
            return self.events.get_nowait()
        except queue.Empty:
            self._sync()
            return self.events.get()

    def run(self) -> TuningJobState:
        if self.state.status == "completed":
            return self.state
        # A crash leaves the attempts it interrupted running in the journal.
        for trial_id in self.state.running_ids:
            self._handle_failed(self.state.trials[trial_id], "interrupted")
        if self.state.status != "stopping":
            self._set_job_status("running")
        # Retries launch first and a new trial is refused only when the
        # budget is spent or a stop was requested, so a fill that leaves
        # nothing running leaves nothing to do.  After a fill, every slot
        # is busy or nothing can launch; only a trial leaving ``running``
        # (which may queue a retry) changes that, so only then fill again.
        running = self._fill_slots()
        while running:
            if self._handle(*self._next_event()):
                running = self._fill_slots()
        self._set_job_status("completed")
        return self.state


def run_job(config: TuningJobConfig, store: JobStore,
            executor: Executor) -> TuningJobState:
    """Run (or resume) a tuning job to completion.

    A fresh job id creates the job in the store; an existing one resumes
    from its journal, using the persisted configuration.  Exactly
    ``max_trials`` trials reach a terminal status unless the job is
    stopped early.  Warm-start parents are loaded from the same store.
    When it returns or raises, the job's journal is synced and its handle
    closed.

    Raises
    ------
    JobAborted
        On unrecoverable store failure mid-run.
    ParentNotFoundError
        If a warm-start parent id is missing from the store.
    JobConfigError
        If the configuration is invalid.
    """
    validate_job_config(config)
    state = TuningJobState()
    if store.job_exists(config.job_id):
        stored_config, _, state = store.load_job(config.job_id)
        if stored_config != config:
            logger.info("job %s: resuming with the stored configuration",
                        config.job_id)
        config = stored_config
    else:
        spec = getattr(executor, "spec", None)
        if spec is None:
            raise JobConfigError(
                "executor must expose a .spec for job creation")
        store.create_job(config, spec)

    parents = []
    for parent_id in config.warm_start_parents:
        try:
            parents.append(store.load_job(parent_id)[2].trials.values())
        except NotFoundError as exc:
            raise ParentNotFoundError(
                f"warm-start parent {parent_id!r} not found") from exc

    coordinator = _Coordinator(config, store, executor, state)
    coordinator.state.warm_obs = merge_warm_start(parents, config.space)
    try:
        return coordinator.run()
    finally:
        store.close_job(config.job_id)
