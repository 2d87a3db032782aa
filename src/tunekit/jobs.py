"""Tuning-job domain types and their JSON schema.

These types are shared by the persistence layer and the scheduler: the
job configuration (including the executor block), the per-trial record,
and the aggregate job state that event replay reconstructs.  The dict
converters here define the on-disk ``job.json`` schema, which doubles as
the CLI's config-file format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .runner import ExecutorSpec, ExecutorSpecError, validate_executor_spec
from .space import (
    Configuration,
    Dimension,
    SearchSpace,
    SpaceError,
    validate_space,
)
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
    if not JOB_ID_RE.match(config.job_id):
        raise JobConfigError(
            f"job_id {config.job_id!r} must match [a-z0-9-]{{1,64}}"
        )
    try:
        validate_space(config.space)
    except SpaceError as exc:
        raise JobConfigError(f"invalid search space: {exc}") from exc
    if config.max_trials < 1:
        raise JobConfigError("max_trials must be >= 1")
    if config.max_parallel < 1:
        raise JobConfigError("max_parallel must be >= 1")
    if config.max_parallel > config.max_trials:
        raise JobConfigError("max_parallel must not exceed max_trials")
    if config.strategy not in ("bayesian", "random"):
        raise JobConfigError(f"unknown strategy {config.strategy!r}")
    if config.objective.goal not in ("minimize", "maximize"):
        raise JobConfigError(f"unknown goal {config.objective.goal!r}")
    if config.early_stopping not in ("off", "median"):
        raise JobConfigError(f"unknown early_stopping {config.early_stopping!r}")
    if not config.objective.name:
        raise JobConfigError("objective needs a metric name")
    if config.retry_limit < 0:
        raise JobConfigError("retry_limit must be >= 0")
    for parent in config.warm_start_parents:
        if not JOB_ID_RE.match(parent):
            raise JobConfigError(f"invalid parent job id {parent!r}")
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
        return self.final_value is not None and self.status in (
            "completed", "early_stopped")


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

def _dimension_to_record(dim: Dimension) -> dict:
    if dim.kind == "categorical":
        return {"name": dim.name, "type": "categorical",
                "values": list(dim.categories or ())}
    record = {"name": dim.name, "type": dim.kind,
              "min": dim.lower, "max": dim.upper}
    if dim.scaling != "linear":
        record["scaling"] = dim.scaling
    return record


def _dimension_from_record(record: dict) -> Dimension:
    if not isinstance(record, dict) or "name" not in record or "type" not in record:
        raise JobConfigError(f"malformed space record: {record!r}")
    kind = record["type"]
    if kind == "categorical":
        return Dimension(str(record["name"]), "categorical",
                         categories=tuple(record.get("values", ())))
    if kind not in ("continuous", "integer"):
        raise JobConfigError(f"unknown dimension type {kind!r}")
    if "min" not in record or "max" not in record:
        raise JobConfigError(f"dimension {record['name']!r} needs min and max")
    return Dimension(str(record["name"]), kind,
                     lower=float(record["min"]), upper=float(record["max"]),
                     scaling=record.get("scaling", "linear"))


def _executor_to_record(spec: ExecutorSpec) -> dict:
    if spec.kind == "builtin":
        record = {"kind": "builtin", "benchmark": spec.benchmark}
        if spec.noise_std:
            record["noise_std"] = spec.noise_std
        if spec.iterations != 1:
            record["iterations"] = spec.iterations
        if spec.delay:
            record["delay"] = spec.delay
        if spec.delay_spread:
            record["delay_spread"] = spec.delay_spread
        return record
    record = {"kind": "external", "command": list(spec.command),
              "timeout": spec.timeout}
    if spec.workdir:
        record["workdir"] = spec.workdir
    return record


def _executor_from_record(record: dict) -> ExecutorSpec:
    if not isinstance(record, dict) or "kind" not in record:
        raise JobConfigError("executor block needs a 'kind'")
    kind = record["kind"]
    try:
        if kind == "builtin":
            return validate_executor_spec(ExecutorSpec(
                kind="builtin",
                benchmark=record.get("benchmark"),
                noise_std=float(record.get("noise_std", 0.0)),
                iterations=int(record.get("iterations", 1)),
                delay=float(record.get("delay", 0.0)),
                delay_spread=float(record.get("delay_spread", 0.0)),
            ))
        if kind == "external":
            return validate_executor_spec(ExecutorSpec(
                kind="external",
                command=tuple(str(a) for a in record.get("command", ())),
                workdir=record.get("workdir"),
                timeout=float(record.get("timeout", 3600.0)),
            ))
    except (ExecutorSpecError, ValueError, KeyError) as exc:
        raise JobConfigError(f"invalid executor block: {exc}") from exc
    raise JobConfigError(f"unknown executor kind {kind!r}")


def job_config_to_dict(config: TuningJobConfig, executor: ExecutorSpec) -> dict:
    return {
        "job_id": config.job_id,
        "strategy": config.strategy,
        "objective": {"name": config.objective.name,
                      "goal": config.objective.goal},
        "space": [_dimension_to_record(d) for d in config.space],
        "max_trials": config.max_trials,
        "max_parallel": config.max_parallel,
        "early_stopping": config.early_stopping,
        "warm_start_parents": list(config.warm_start_parents),
        "seed": config.seed,
        "retry_limit": config.retry_limit,
        "executor": _executor_to_record(executor),
    }


def job_config_from_dict(data: dict) -> tuple[TuningJobConfig,
                                              ExecutorSpec | None, str]:
    """Parse a job.json payload; raises JobConfigError on any defect.

    The executor element is None when the payload has no executor block;
    callers that need to launch trials must treat that as an error.  The
    status element is job.json's raw ``status`` (default ``created``); only
    ``stopping`` has meaning, as a stop request (older stores hold others).
    """
    if not isinstance(data, dict):
        raise JobConfigError("job config must be a JSON object")
    for key in ("job_id", "objective", "space", "max_trials"):
        if key not in data:
            raise JobConfigError(f"job config is missing {key!r}")
    objective = data["objective"]
    if not isinstance(objective, dict) or "name" not in objective:
        raise JobConfigError("objective must be an object with a 'name'")
    space_records = data["space"]
    if not isinstance(space_records, list):
        raise JobConfigError("space must be a list of dimension records")
    # Stores written before slice sampling became the only inference
    # carry "inference": "mcmc"; any other mode is refused, not ignored.
    inference = data.get("inference", "mcmc")
    if inference != "mcmc":
        raise JobConfigError(
            f"inference mode {inference!r} was removed: hyperparameters are "
            "always slice-sampled; drop the key or set it to 'mcmc'")
    # Older stores also carry the fixed slice-sampling schedule.
    if data.get("mcmc", _LEGACY_MCMC) != _LEGACY_MCMC:
        raise JobConfigError(
            f"mcmc settings {data['mcmc']!r} were removed: the slice-"
            "sampling schedule is fixed; drop the key")
    try:
        config = TuningJobConfig(
            job_id=str(data["job_id"]),
            space=SearchSpace([_dimension_from_record(r) for r in space_records]),
            objective=ObjectiveSpec(name=str(objective["name"]),
                                    goal=objective.get("goal", "minimize")),
            strategy=data.get("strategy", "bayesian"),
            max_trials=int(data["max_trials"]),
            max_parallel=int(data.get("max_parallel", 1)),
            early_stopping=data.get("early_stopping", "off"),
            warm_start_parents=tuple(str(p) for p in
                                     data.get("warm_start_parents", ())),
            seed=int(data.get("seed", 0)),
            retry_limit=int(data.get("retry_limit", 2)),
        )
    except (TypeError, ValueError) as exc:
        raise JobConfigError(f"malformed job config: {exc}") from exc
    validate_job_config(config)
    executor = (_executor_from_record(data["executor"])
                if "executor" in data else None)
    status = str(data.get("status", "created"))
    return config, executor, status


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
