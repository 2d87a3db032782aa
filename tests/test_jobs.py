"""Job configuration, trial records, state aggregation, and the JSON schema."""
from __future__ import annotations

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunekit.jobs import (
    JobConfigError,
    ObjectiveSpec,
    TrialRecord,
    TuningJobConfig,
    TuningJobState,
    job_config_from_dict,
    job_config_to_dict,
    minimize_form,
    trial_record_to_dict,
    validate_job_config,
)
from tunekit.runner import EXECUTOR_FIELDS, ExecutorSpec
from tunekit.space import Configuration, SearchSpace, categorical, continuous, integer
from tunekit.stopping import MetricCurve

SPACE = SearchSpace([
    continuous("lr", 1e-4, 1e-1, scaling="log"),
    integer("depth", 1, 8),
    categorical("opt", ("adam", "sgd")),
])

EXECUTOR = ExecutorSpec(kind="builtin", benchmark="branin", noise_std=0.5,
                        iterations=3)


EXTERNAL = ExecutorSpec(kind="external", command=("python", "train.py"),
                        workdir="trials", timeout=60.0)

# Every key of every job.json record, as (path to the record, key).
FIELD_TARGETS = (
    [((), key) for key in (
        "job_id", "strategy", "objective", "space", "max_trials",
        "max_parallel", "early_stopping", "warm_start_parents", "seed",
        "retry_limit", "executor", "inference", "mcmc", "status")]
    + [(("objective",), key) for key in ("name", "goal")]
    + [(("space", i), key) for i in (0, 1)
       for key in ("name", "type", "min", "max", "scaling")]
    + [(("space", 2), key) for key in ("name", "type", "values")]
    + [(("executor",), key) for key in (
        "kind", "benchmark", "noise_std", "iterations", "delay",
        "delay_spread", "command", "workdir", "timeout")]
)
DELETE = object()
# One value of each JSON kind, a few of each at a bound, and a missing key.
JSON_KINDS = [
    None, True, False, 0, 1, 3, -1, 10**30, 2.7, 0.5, math.nan, math.inf,
    -math.inf, "", "x", "mcmc", "random", "median", "log", "categorical",
    "external", "branin", [], ["a", "b"], ["a", "a"], [1, None], {},
    {"chain_length": 300, "burn_in": 250, "thinning": 5}, DELETE,
]


def make_config(**overrides) -> TuningJobConfig:
    defaults = dict(
        job_id="job-1", space=SPACE, objective=ObjectiveSpec("loss"),
        strategy="bayesian", max_trials=10, max_parallel=2,
    )
    defaults.update(overrides)
    return TuningJobConfig(**defaults)


class TestValidation:
    def test_valid_config_passes(self):
        assert validate_job_config(make_config()) is not None

    @pytest.mark.parametrize("job_id", ["", "Has-Upper", "under_score",
                                         "space banned", "x" * 65])
    def test_bad_job_ids(self, job_id):
        with pytest.raises(JobConfigError):
            validate_job_config(make_config(job_id=job_id))

    def test_bad_space_wrapped(self):
        bad_space = SearchSpace([continuous("x", 1.0, 0.0)])
        with pytest.raises(JobConfigError):
            validate_job_config(make_config(space=bad_space))

    def test_budget_and_parallelism(self):
        with pytest.raises(JobConfigError):
            validate_job_config(make_config(max_trials=0))
        with pytest.raises(JobConfigError):
            validate_job_config(make_config(max_parallel=0))
        with pytest.raises(JobConfigError):
            validate_job_config(make_config(max_trials=2, max_parallel=3))

    @pytest.mark.parametrize("field,value", [
        ("strategy", "grid"),
        ("early_stopping", "asha"),
        ("retry_limit", -1),
    ])
    def test_bad_enums(self, field, value):
        with pytest.raises(JobConfigError):
            validate_job_config(make_config(**{field: value}))

    def test_negative_seed(self):
        with pytest.raises(JobConfigError, match="seed"):
            validate_job_config(make_config(seed=-1))
        validate_job_config(make_config(seed=0))

    def test_bayesian_width_is_not_bounded_by_sobol(self):
        # 71 encoded coordinates exceed the Sobol' tables; the Bayesian
        # strategy falls back to random points there, so the space is valid.
        wide = SearchSpace([categorical("c", tuple(f"v{i}" for i in range(70))),
                            continuous("x", 0.0, 1.0)])
        assert wide.encoded_width == 71
        validate_job_config(make_config(space=wide))

    def test_bad_goal_and_metric(self):
        with pytest.raises(JobConfigError):
            validate_job_config(make_config(objective=ObjectiveSpec("loss", "down")))
        with pytest.raises(JobConfigError):
            validate_job_config(make_config(objective=ObjectiveSpec("")))

    def test_bad_parent_id(self):
        with pytest.raises(JobConfigError):
            validate_job_config(make_config(warm_start_parents=("BAD_ID",)))

    @pytest.mark.parametrize("parents", [("prev", "prev"), ("prev", "job-1")],
                             ids=["repeated", "self"])
    def test_parent_listed_twice_is_refused(self, parents):
        # A parent listed twice, or the job itself on resume, would feed
        # each of its observations to the surrogate twice.
        with pytest.raises(JobConfigError, match="warm_start_parents"):
            validate_job_config(make_config(warm_start_parents=parents))


def test_minimize_form():
    assert minimize_form(3.0, "minimize") == 3.0
    assert minimize_form(3.0, "maximize") == -3.0


def make_trial(trial_id: str, status: str, final=None, encoded=(0.5, 0.5),
               attempts=1) -> TrialRecord:
    return TrialRecord(
        trial_id=trial_id,
        config=Configuration({"x1": 0.0, "x2": 0.0}),
        encoded=np.array(encoded, dtype=float),
        status=status,
        curve=MetricCurve(trial_id),
        final_value=final,
        attempts=attempts,
    )


class TestTrialRecord:
    def test_terminal_statuses(self):
        assert make_trial("t", "completed", 1.0).is_terminal
        assert make_trial("t", "failed").is_terminal
        assert make_trial("t", "early_stopped", 2.0).is_terminal
        assert not make_trial("t", "running").is_terminal
        assert not make_trial("t", "pending").is_terminal

    def test_has_observation(self):
        assert make_trial("t", "completed", 1.0).has_observation
        assert make_trial("t", "early_stopped", 1.0).has_observation
        assert not make_trial("t", "completed").has_observation
        assert not make_trial("t", "failed", 1.0).has_observation

    def test_round_trip_dict(self):
        record = make_trial("trial-0001", "completed", 1.5)
        record.curve.append(1, 2.0)
        record.curve.append(2, 1.5)
        payload = trial_record_to_dict(record)
        assert payload["trial_id"] == "trial-0001"
        assert payload["status"] == "completed"
        assert payload["final_value"] == 1.5
        assert payload["config"] == {"x1": 0.0, "x2": 0.0}
        assert payload["curve"] == [[1, 2.0], [2, 1.5]]


class TestTuningJobState:
    def make_state(self) -> TuningJobState:
        state = TuningJobState()
        state.trials["trial-0001"] = make_trial("trial-0001", "completed", 2.0,
                                                encoded=(0.1, 0.1))
        state.trials["trial-0002"] = make_trial("trial-0002", "running")
        state.trials["trial-0003"] = make_trial("trial-0003", "early_stopped", 5.0,
                                                encoded=(0.9, 0.9))
        state.trials["trial-0004"] = make_trial("trial-0004", "failed")
        state.trials["trial-0005"] = make_trial("trial-0005", "pending",
                                                attempts=1)
        return state

    def test_counts_and_views(self):
        state = self.make_state()
        assert state.running_ids == ["trial-0002"]
        assert state.retry_ids == ["trial-0005"]
        assert state.count("completed") == 1
        assert state.terminal_count == 3

    def test_observations_exclude_failures_and_running(self):
        state = self.make_state()
        design, y = state.observations("minimize")
        assert design.shape == (2, 2)
        assert sorted(y.tolist()) == [2.0, 5.0]

    def test_observations_include_warm_rows(self):
        state = self.make_state()
        state.warm_obs.append((np.array([0.5, 0.5]), 1.0))
        design, y = state.observations("minimize")
        assert design.shape == (3, 2)
        assert 1.0 in y.tolist()

    def test_observations_maximize_negates(self):
        state = self.make_state()
        _, y = state.observations("maximize")
        assert sorted(y.tolist()) == [-5.0, -2.0]

    def test_incumbent_per_goal(self):
        state = self.make_state()
        assert state.incumbent("minimize").trial_id == "trial-0001"
        assert state.incumbent("maximize").trial_id == "trial-0003"
        assert TuningJobState().incumbent("minimize") is None

    def test_empty_observations(self):
        design, y = TuningJobState().observations("minimize")
        assert design.shape == (0, 0) and y.shape == (0,)


class TestJsonSchema:
    def test_round_trip(self):
        config = make_config(
            warm_start_parents=("parent-a",), seed=99, retry_limit=1,
            early_stopping="median",
        )
        payload = job_config_to_dict(config, EXECUTOR)
        assert "inference" not in payload and "mcmc" not in payload
        assert "status" not in payload
        back, executor, status = job_config_from_dict(payload)
        assert status == "created"
        # Stores written by older versions keep the job status in job.json.
        payload["status"] = "running"
        back, executor, status = job_config_from_dict(payload)
        assert back == config
        assert executor == EXECUTOR
        assert status == "running"
        # Stores written while inference was a setting say "mcmc".
        payload["inference"] = "mcmc"
        # They also carry the one sampling schedule there ever was in use.
        payload["mcmc"] = {"chain_length": 300, "burn_in": 250, "thinning": 5}
        back, _, _ = job_config_from_dict(payload)
        assert back == config

    @pytest.mark.parametrize("mcmc", [
        {"chain_length": 100, "burn_in": 50, "thinning": 2},
        {"chain_length": 300},
        {},
        "default",
    ])
    def test_mcmc_settings_refused(self, mcmc):
        payload = job_config_to_dict(make_config(), EXECUTOR)
        payload["mcmc"] = mcmc
        with pytest.raises(JobConfigError, match="were removed"):
            job_config_from_dict(payload)

    def test_external_executor_round_trip(self):
        spec = ExecutorSpec(kind="external", command=("python", "train.py",
                                                      "{hparams}"),
                            workdir="/tmp/w", timeout=120.0)
        payload = job_config_to_dict(make_config(), spec)
        _, back, _ = job_config_from_dict(payload)
        assert back == spec

    def test_defaults_fill_in(self):
        minimal = {
            "job_id": "j",
            "objective": {"name": "loss"},
            "space": [{"name": "x", "type": "continuous", "min": 0.0, "max": 1.0}],
        }
        config, executor, status = job_config_from_dict(minimal)
        assert config.max_trials == 10
        assert config.strategy == "bayesian"
        assert config.max_parallel == 1
        assert config.seed == 0 and config.retry_limit == 2
        assert config.objective.goal == "minimize"
        assert status == "created"
        assert executor is None

    @pytest.mark.parametrize("mutation", [
        lambda p: p.pop("job_id"),
        lambda p: p.pop("objective"),
        lambda p: p.pop("space"),
        lambda p: p.__setitem__("max_trails", 5),
        lambda p: p.__setitem__("space", "not-a-list"),
        lambda p: p.__setitem__("objective", {"goal": "minimize"}),
        lambda p: p["space"].append({"name": "dup"}),
        lambda p: p.__setitem__("executor", {"kind": "mystery"}),
        lambda p: p.__setitem__("max_trials", 0),
        lambda p: p.__setitem__("strategy", "grid"),
        lambda p: p.__setitem__("inference", "empirical_bayes"),
        lambda p: p.__setitem__("inference", "vi"),
    ])
    def test_malformed_payloads_raise(self, mutation):
        payload = job_config_to_dict(make_config(), EXECUTOR)
        mutation(payload)
        with pytest.raises(JobConfigError):
            job_config_from_dict(payload)

    @pytest.mark.parametrize("executor", ["builtin", "external"])
    @pytest.mark.parametrize("path, key", FIELD_TARGETS,
                             ids=[f"{'.'.join(map(str, p))}.{k}".lstrip(".")
                                  for p, k in FIELD_TARGETS])
    @settings(max_examples=5, deadline=None)
    @given(drawn=st.one_of(st.integers(), st.floats(), st.text(max_size=6)))
    def test_every_field_takes_every_json_kind(self, executor, path, key,
                                               drawn):
        # Parsing only: a drawn max_parallel of 10**30 must never size a
        # thread pool.
        spec = EXECUTOR if executor == "builtin" else EXTERNAL
        for value in JSON_KINDS + [drawn]:
            payload = job_config_to_dict(make_config(), spec)
            record = payload
            for step in path:
                record = record[step]
            if value is DELETE:
                record.pop(key, None)
            else:
                record[key] = value
            try:
                config, back, _ = job_config_from_dict(payload)
            except JobConfigError:
                continue
            text = json.dumps(job_config_to_dict(config, back or spec),
                              allow_nan=False)
            again, back_again, _ = job_config_from_dict(json.loads(text))
            assert again == config
            assert back is None or back_again == back

    def test_readme_defaults_match_the_dataclasses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        schema = readme[readme.index("## Config schema"):]
        block = json.loads(re.search(r"```json\n(.*?)```", schema,
                                     re.S).group(1))
        objective = block.pop("objective")
        assert objective == {"goal": ObjectiveSpec("m").goal}
        defaults = {f.name: f.default for f in fields(TuningJobConfig)
                    if f.name not in ("job_id", "space", "objective")}
        assert block == {k: list(v) if isinstance(v, tuple) else v
                         for k, v in defaults.items()}
        # The executor table: kind, field, field kind, bound, default.
        rows = re.findall(r"^\| (builtin|external) \| `(\w+)` \|.*\| (.+) \|$",
                          schema, re.M)
        for kind, table in EXECUTOR_FIELDS.items():
            assert [key for k, key, _ in rows if k == kind] == [
                row.key for row in table if row.key != "kind"]
        spec = ExecutorSpec("builtin")
        for _, key, default in rows:
            if default != "required":
                assert json.loads(default.strip("`")) == getattr(spec, key)

    def test_log_scaling_survives(self):
        payload = job_config_to_dict(make_config(), EXECUTOR)
        config, _, _ = job_config_from_dict(payload)
        lr = config.space.dimensions[0]
        assert lr.scaling == "log"
        opt = config.space.dimensions[2]
        assert opt.categories == ("adam", "sgd")

    def test_not_a_dict(self):
        with pytest.raises(JobConfigError):
            job_config_from_dict(["nope"])
