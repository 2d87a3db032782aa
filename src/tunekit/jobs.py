"""Tuning-job domain types and their JSON schema.

These types are shared by the persistence layer and the scheduler: the
job configuration (including the executor block), the per-trial record,
and the aggregate job state that event replay reconstructs.  The dict
converters here define the on-disk ``job.json`` schema, which doubles as
the CLI's config-file format.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .benchmarks import UnknownBenchmarkError
from .runner import (EXECUTOR_FIELDS, ExecutorSpec, ExecutorSpecError,
                     validate_executor_spec)
from .space import (AT_LEAST_0, AT_LEAST_1, DIMENSION_FIELDS, NOT_EMPTY,
                    Configuration, Dimension, Field, SearchSpace, SpaceError,
                    check_fields, field_defaults, one_of, read_record,
                    validate_space, write_record)
from .stopping import MetricCurve

__all__ = [
    "JOB_ID_RE",
    "JobConfigError",
    "ObjectiveSpec",
    "TuningJobConfig",
    "TrialRecord",
    "TuningJobState",
    "validate_job_config",
    "job_config_to_dict",
    "job_config_from_dict",
    "trial_record_to_dict",
    "minimize_form",
    "TERMINAL_STATUSES",
]

JOB_ID_RE = re.compile(r"^[a-z0-9-]{1,64}$")

Goal = Literal["minimize", "maximize"]
Strategy = Literal["bayesian", "random"]
EarlyStopping = Literal["off", "median"]

TERMINAL_STATUSES = frozenset({"completed", "failed", "early_stopped"})

_LEGACY_MCMC = {"chain_length": 300, "burn_in": 250, "thinning": 5}


class JobConfigError(ValueError):
    """Job configuration fails parsing or validation."""


@dataclass(frozen=True)
class ObjectiveSpec:
    name: str
    goal: Goal = "minimize"


@dataclass(frozen=True)
class TuningJobConfig:
    """Everything needed to run (or resume) one tuning job."""

    job_id: str
    space: SearchSpace
    objective: ObjectiveSpec
    strategy: Strategy = "bayesian"
    max_trials: int = 10
    max_parallel: int = 1
    early_stopping: EarlyStopping = "off"
    warm_start_parents: tuple[str, ...] = ()
    seed: int = 0
    retry_limit: int = 2


def validate_job_config(config: TuningJobConfig) -> TuningJobConfig:
    """Check ``config`` by the rows of its fields, then its cross-field rules."""
    check_fields(config, _JOB_FIELDS, JobConfigError)
    check_fields(config.objective, _OBJECTIVE_FIELDS, JobConfigError,
                 "objective: ")
    try:
        validate_space(config.space)
    except SpaceError as exc:
        raise JobConfigError(f"invalid search space: {exc}") from exc
    if config.max_parallel > config.max_trials:
        raise JobConfigError("max_parallel must not exceed max_trials")
    # A parent listed twice, or the job itself on resume, would feed each
    # of its observations to the surrogate twice.
    parents = config.warm_start_parents
    if len({*parents, config.job_id}) <= len(parents):
        raise JobConfigError(f"'warm_start_parents' must hold distinct ids "
                             f"other than the job's own, not {list(parents)!r}")
    return config


def minimize_form(value: float, goal: Goal) -> float:
    """Convert a raw metric value so that smaller is always better."""
    return value if goal == "minimize" else -value


@dataclass
class TrialRecord:
    """Ledger entry for one trial across all of its attempts."""

    trial_id: str
    config: Configuration
    encoded: np.ndarray
    status: Literal["pending", "running", "completed", "failed", "early_stopped"]
    curve: MetricCurve
    final_value: float | None = None
    attempts: int = 0
    started: float | None = None
    finished: float | None = None
    failure_reason: str | None = None

    @property
    def is_terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def has_observation(self) -> bool:
        return (self.status in ("completed", "early_stopped")
                and self.final_value is not None
                and math.isfinite(self.final_value))


@dataclass
class TuningJobState:
    """Aggregate job state; reconstructible by replaying the event log.

    ``warm_obs`` holds (encoded, raw final value) pairs merged from
    warm-start parents; they feed the surrogate but are not trials and
    never count toward the budget.  ``chain_log_theta`` is the
    hyperparameter log vector the last model-phase launch journaled, where
    the next model proposal's chain starts; None before the first one.
    """

    trials: dict[str, TrialRecord] = field(default_factory=dict)
    status: str = "created"
    warm_obs: list[tuple[np.ndarray, float]] = field(default_factory=list)
    chain_log_theta: np.ndarray | None = None

    @property
    def running_ids(self) -> list[str]:
        return [t.trial_id for t in self.trials.values() if t.status == "running"]

    @property
    def retry_ids(self) -> list[str]:
        """Trials awaiting relaunch (failed attempt with retries left)."""
        return [t.trial_id for t in self.trials.values()
                if t.status == "pending" and t.attempts > 0]

    def count(self, status: str) -> int:
        return sum(1 for t in self.trials.values() if t.status == status)

    @property
    def terminal_count(self) -> int:
        return sum(1 for t in self.trials.values() if t.is_terminal)

    def observations(self, goal: Goal) -> tuple[np.ndarray, np.ndarray]:
        """Encoded design and minimize-form targets, warm-start rows included."""
        rows = [(t.encoded, t.final_value) for t in self.trials.values()
                if t.has_observation]
        rows.extend(self.warm_obs)
        if not rows:
            return np.zeros((0, 0)), np.zeros(0)
        design = np.stack([enc for enc, _ in rows])
        y = np.array([minimize_form(val, goal) for _, val in rows])
        return design, y

    def incumbent(self, goal: Goal) -> TrialRecord | None:
        """Observed trial with the best final value, or None."""
        best = None
        for t in self.trials.values():
            if not t.has_observation:
                continue
            if best is None or (minimize_form(t.final_value, goal)
                                < minimize_form(best.final_value, goal)):
                best = t
        return best


# --- JSON schema -----------------------------------------------------------

def _executor_from_record(record) -> ExecutorSpec:
    try:
        return validate_executor_spec(ExecutorSpec(**read_record(
            record, EXECUTOR_FIELDS, field_defaults(ExecutorSpec),
            ExecutorSpecError)))
    except (ExecutorSpecError, UnknownBenchmarkError) as exc:
        raise JobConfigError(f"invalid executor block: {exc}") from exc


def _space_from_records(records) -> SearchSpace:
    if type(records) is not list:
        raise JobConfigError(f"'space' must be a JSON array, not {records!r}")
    return SearchSpace(
        Dimension(**read_record(record, DIMENSION_FIELDS,
                                field_defaults(Dimension), JobConfigError,
                                f"space[{i}]: "))
        for i, record in enumerate(records))


def job_config_to_dict(config: TuningJobConfig, executor: ExecutorSpec) -> dict:
    return {
        **write_record(config, _JOB_FIELDS),
        "objective": write_record(config.objective, _OBJECTIVE_FIELDS),
        "space": [write_record(d, DIMENSION_FIELDS[d.kind])
                  for d in config.space],
        "executor": write_record(executor, EXECUTOR_FIELDS[executor.kind]),
    }


# Each record's keys, with their kinds and bounds; README's "Config schema"
# lists them.  Defaults are the dataclasses' own.
_JOB_ID = ("matching [a-z0-9-]{1,64}", JOB_ID_RE.fullmatch)
_JOB_FIELDS = (
    Field("job_id", "string", _JOB_ID),
    Field("strategy", "enum", one_of("bayesian", "random")),
    Field("max_trials", "integer", AT_LEAST_1),
    Field("max_parallel", "integer", AT_LEAST_1),
    Field("early_stopping", "enum", one_of("off", "median")),
    Field("warm_start_parents", "strings",
          (_JOB_ID[0], lambda parents: all(map(JOB_ID_RE.fullmatch, parents)))),
    Field("seed", "integer", AT_LEAST_0),
    Field("retry_limit", "integer", AT_LEAST_0),
)
_OBJECTIVE_FIELDS = (
    Field("name", "string", NOT_EMPTY),
    Field("goal", "enum", one_of("minimize", "maximize")),
)
_JOB_FILE_FIELDS = _JOB_FIELDS + (
    Field("objective", lambda record: ObjectiveSpec(**read_record(
        record, _OBJECTIVE_FIELDS, field_defaults(ObjectiveSpec),
        JobConfigError, "objective: "))),
    Field("space", _space_from_records),
    Field("executor", _executor_from_record),
    # Older stores: inference was a setting, the slice-sampling schedule
    # too, and job.json held the job's status.
    Field("inference", "enum", (
        "'mcmc' (the inference setting was removed: hyperparameters are "
        "always slice-sampled, so drop the key)", ("mcmc",).__contains__)),
    Field("mcmc", "enum", (
        f"{_LEGACY_MCMC!r} (mcmc settings were removed: the slice-sampling "
        "schedule is fixed, so drop the key)", (_LEGACY_MCMC,).__contains__)),
    Field("status", "string"),
)
_JOB_FILE_DEFAULTS = {**field_defaults(TuningJobConfig), "executor": None,
                      "inference": "mcmc", "mcmc": _LEGACY_MCMC,
                      "status": "created"}


def job_config_from_dict(data: dict) -> tuple[TuningJobConfig,
                                              ExecutorSpec | None, str]:
    """Parse a job.json payload; raises JobConfigError on any defect.

    The executor element is None when the payload has no executor block;
    callers that need to launch trials must treat that as an error.  The
    status element is job.json's raw ``status`` (default ``created``); only
    ``stopping`` has meaning, as a stop request an older version wrote.
    """
    values = read_record(data, _JOB_FILE_FIELDS, _JOB_FILE_DEFAULTS,
                         JobConfigError)
    executor, status = values.pop("executor"), values.pop("status")
    del values["inference"], values["mcmc"]
    return validate_job_config(TuningJobConfig(**values)), executor, status


def trial_record_to_dict(record: TrialRecord) -> dict:
    return {
        "trial_id": record.trial_id,
        "status": record.status,
        "config": dict(record.config.values),
        "encoded": [float(v) for v in record.encoded],
        "curve": [[r, v] for r, v in record.curve.points],
        "final_value": record.final_value,
        "attempts": record.attempts,
        "started": record.started,
        "finished": record.finished,
        "failure_reason": record.failure_reason,
    }
