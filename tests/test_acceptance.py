"""Top-level acceptance checks for the tuning engine.

One test per criterion; each carries a ``criterion`` marker so the
terminal summary prints a single PASS/FAIL line per criterion.  Stated
runtime budgets are asserted inside the tests themselves.
"""
from __future__ import annotations

import math
import threading
import time

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.special import logsumexp

from tunekit.acquisition import expected_improvement
from tunekit.benchmarks import get_benchmark
from tunekit.inference import McmcConfig, slice_sample, slice_sample_thetas
from tunekit.jobs import ObjectiveSpec, TuningJobConfig
from tunekit.jobstore import JobStore, StoreError
from tunekit.runner import ExecutorSpec, make_executor
from tunekit.scheduler import JobAborted, run_job
from tunekit.space import SearchSpace, continuous, encode, sample_random
from tunekit.surrogate import (
    GpHyperParams,
    fit_posterior,
    log_marginal_likelihood,
    predict,
    predict_batch,
)

from oracles import (
    oracle_expected_improvement,
    oracle_lml,
    oracle_predict,
)

BRANIN_SPACE = SearchSpace([
    continuous("x1", -5.0, 10.0),
    continuous("x2", 0.0, 15.0),
])
BRANIN_OPTIMUM = 0.397887

Z_99 = 2.5758293035489004  # two-sided critical value at alpha = 0.01


def run_tuning(root, config, spec=None, executor=None):
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


def branin_config(job_id, **overrides):
    defaults = dict(
        job_id=job_id, space=BRANIN_SPACE, objective=ObjectiveSpec("loss"),
        strategy="random", max_trials=10, max_parallel=1, seed=0,
    )
    defaults.update(overrides)
    return TuningJobConfig(**defaults)


def best_so_far_true(state, benchmark):
    finals = [benchmark.evaluate(state.trials[tid].config)
              for tid in sorted(state.trials)]
    return np.minimum.accumulate(finals)


@pytest.mark.criterion(
    1, "GP posterior and marginal likelihood match a dense-solve reference")
def test_gp_numerics_match_dense_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 31))
        design = rng.random((n, d))
        y = rng.normal(size=n) * 3.0 + 1.0
        theta = GpHyperParams(
            lengthscales=np.exp(rng.uniform(-1.5, 1.5, size=d)),
            amplitude=float(np.exp(rng.uniform(-1.0, 1.0))),
            noise_var=float(np.exp(rng.uniform(math.log(1e-4),
                                               math.log(1e-1)))),
            warp_a=np.exp(rng.uniform(-0.8, 0.8, size=d)),
            warp_b=np.exp(rng.uniform(-0.8, 0.8, size=d)),
        )
        post = fit_posterior(design, y, [theta])
        for _ in range(5):
            q = rng.random(d)
            mean, var = predict(post, q)
            mean_o, var_o = oracle_predict(design, y, theta, q)
            assert abs(mean - mean_o) <= 1e-8 * (1.0 + abs(mean_o))
            assert abs(var - var_o) <= 1e-8 * (1.0 + abs(var_o))
        lml = log_marginal_likelihood(design, y, theta)
        lml_o = oracle_lml(design, y, theta)
        assert abs(lml - lml_o) <= 1e-8 * (1.0 + abs(lml_o))
    assert time.monotonic() - start < 10.0


@pytest.mark.criterion(
    2, "closed-form expected improvement matches Monte-Carlo")
def test_expected_improvement_matches_monte_carlo():
    start = time.monotonic()
    rng = np.random.default_rng(2202)
    for _ in range(100):
        mu = float(rng.uniform(-3.0, 3.0))
        sigma = float(np.exp(rng.uniform(math.log(0.05), math.log(2.0))))
        gamma = float(rng.uniform(-3.0, 4.0))
        incumbent = mu + gamma * sigma
        ei = expected_improvement(mu, sigma**2, incumbent)
        mc, se = oracle_expected_improvement(mu, sigma**2, incumbent,
                                             10**6, rng)
        assert abs(ei - mc) <= 3.0 * se + 1e-12
    assert time.monotonic() - start < 30.0


def _batch_z(samples, transform, target, batches=50):
    vals = transform(np.asarray(samples, dtype=float))
    batch_means = vals.reshape(batches, -1).mean(axis=1)
    se = batch_means.std(ddof=1) / math.sqrt(batches)
    return float((batch_means.mean() - target) / se)


@pytest.mark.criterion(
    3, "slice sampler moments correct; thinning yields exactly 10 samples")
def test_slice_sampler_statistics_and_thinning():
    start = time.monotonic()
    burn = 300

    def std_normal(x):
        return -0.5 * float(x[0]) ** 2

    chain = slice_sample(std_normal, np.zeros(1), 5000 + burn,
                         np.random.default_rng(7))[burn:, 0]
    assert chain.shape == (5000,)
    assert abs(_batch_z(chain, lambda x: x, 0.0)) < Z_99
    assert abs(_batch_z(chain, lambda x: x**2, 1.0)) < Z_99

    def exponential(x):
        v = float(x[0])
        return -v if v >= 0.0 else -math.inf

    chain = slice_sample(exponential, np.ones(1), 5000 + burn,
                         np.random.default_rng(1008))[burn:, 0]
    assert np.all(chain >= 0.0)
    assert abs(_batch_z(chain, lambda x: x, 1.0)) < Z_99
    assert abs(_batch_z(chain, lambda x: x**2, 2.0)) < Z_99

    design = np.linspace(0.1, 0.9, 4).reshape(-1, 1)
    y = np.array([0.3, 0.1, 0.4, 0.2])
    thetas = slice_sample_thetas(design, y, McmcConfig(300, 250, 5), seed=5)
    assert len(thetas) == 10
    assert time.monotonic() - start < 20.0


@pytest.mark.criterion(
    4, "Bayesian optimisation beats random search on noisy Branin")
def test_bayesian_beats_random_on_noisy_branin(tmp_path):
    start = time.monotonic()
    benchmark = get_benchmark("branin")
    spec = ExecutorSpec(kind="builtin", benchmark="branin", noise_std=0.5)
    finals = {"bayesian": [], "random": []}
    for s in range(20):
        for strategy in ("bayesian", "random"):
            config = branin_config(
                f"acc4-{strategy[:2]}-{s:02d}", strategy=strategy,
                max_trials=50, seed=1000 + s)
            state = run_tuning(tmp_path / "store", config, spec=spec)
            assert state.terminal_count == 50
            finals[strategy].append(best_so_far_true(state, benchmark)[-1])
    med_bo = float(np.median(finals["bayesian"]))
    med_rand = float(np.median(finals["random"]))
    elapsed = time.monotonic() - start
    measured = (f"elapsed={elapsed:.1f} s, med_bo={med_bo:.4f}, "
                f"med_rand={med_rand:.4f}")
    assert med_bo <= med_rand, measured
    assert med_bo - BRANIN_OPTIMUM < 1.0, measured
    assert elapsed < 300.0, measured


@pytest.mark.criterion(
    5, "log scaling beats linear scaling on a wide-range benchmark")
def test_log_scaling_beats_linear_scaling(tmp_path):
    start = time.monotonic()
    spec = ExecutorSpec(kind="builtin", benchmark="log-valley")
    spaces = {
        "log": SearchSpace([continuous("c", 1e-9, 1e9, scaling="log")]),
        "lin": SearchSpace([continuous("c", 1e-9, 1e9, scaling="linear")]),
    }
    bests = {"log": [], "lin": []}
    for s in range(20):
        for arm, space in spaces.items():
            config = TuningJobConfig(
                job_id=f"acc5-{arm}-{s:02d}", space=space,
                objective=ObjectiveSpec("loss"), strategy="random",
                max_trials=30, max_parallel=1, seed=2000 + s)
            state = run_tuning(tmp_path / "store", config, spec=spec)
            bests[arm].append(state.incumbent("minimize").final_value)
    assert float(np.median(bests["log"])) < float(np.median(bests["lin"]))

    samples = sample_random(spaces["lin"], 17, 5000)
    frac = float(np.mean([cfg["c"] >= 1e7 for cfg in samples]))
    assert 0.98 <= frac <= 1.0
    assert time.monotonic() - start < 60.0


class _IterationCounter:
    """Counts metric emissions, i.e. iterations the executor really ran."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()
        self.iterations = 0

    @property
    def spec(self):
        return self.inner.spec

    def launch(self, trial_id, config, seed, emit):
        def wrapped(event):
            if event.kind == "metric":
                with self.lock:
                    self.iterations += 1
            emit(event)

        self.inner.launch(trial_id, config, seed, wrapped)

    def request_stop(self, trial_id):
        self.inner.request_stop(trial_id)

    def shutdown(self):
        self.inner.shutdown()


@pytest.mark.criterion(
    6, "median early stopping saves iterations without hurting the incumbent")
def test_early_stopping_saves_work_and_keeps_incumbent(tmp_path):
    start = time.monotonic()
    curve = get_benchmark("curve-sim")
    spec = ExecutorSpec(kind="builtin", benchmark="curve-sim",
                        iterations=100, delay=0.004)
    executed = {}
    states = {}
    for arm, stopping in (("stop", "median"), ("plain", "off")):
        config = TuningJobConfig(
            job_id=f"acc6-{arm}", space=curve.space,
            objective=ObjectiveSpec("loss"), strategy="random",
            max_trials=50, max_parallel=1, early_stopping=stopping, seed=60)
        counter = _IterationCounter(
            make_executor(spec, "loss", config.max_parallel))
        try:
            states[arm] = run_tuning(tmp_path / arm, config,
                                     executor=counter)
        finally:
            counter.shutdown()
        executed[arm] = counter.iterations

    assert executed["plain"] == 50 * 100
    assert states["stop"].count("early_stopped") >= 1
    assert executed["stop"] <= 0.70 * executed["plain"]
    best_stop = states["stop"].incumbent("minimize").final_value
    best_plain = states["plain"].incumbent("minimize").final_value
    assert abs(best_stop - best_plain) <= 1e-9
    assert time.monotonic() - start < 120.0


@pytest.mark.criterion(
    7, "warm start reaches the parent incumbent quickly; invalid rows dropped")
def test_warm_start_accelerates_and_drops_invalid_rows(tmp_path):
    start = time.monotonic()
    spec = ExecutorSpec(kind="builtin", benchmark="branin")
    reach = []
    for s in range(10):
        parent = branin_config(f"acc7-parent-{s}", max_trials=30,
                               seed=300 + s)
        parent_state = run_tuning(tmp_path / "store", parent, spec=spec)
        parent_best = parent_state.incumbent("minimize").final_value

        child = branin_config(f"acc7-child-{s}", strategy="bayesian",
                              max_trials=5, seed=400 + s,
                              warm_start_parents=(parent.job_id,))
        child_state = run_tuning(tmp_path / "store", child, spec=spec)
        assert len(child_state.warm_obs) == 30
        finals = [child_state.trials[tid].final_value
                  for tid in sorted(child_state.trials)]
        hit = next((i + 1 for i, v in enumerate(finals)
                    if v <= parent_best + 1e-9), 99)
        reach.append(hit)
    assert float(np.median(reach)) <= 5.0

    # A linear-scaled parent can hold a 0.0 observation that a log-scaled
    # child cannot encode; the row must drop, not raise.
    store = JobStore(tmp_path / "store")
    lin_parent = TuningJobConfig(
        job_id="acc7-lin", space=SearchSpace([continuous("c", 0.0, 1.0)]),
        objective=ObjectiveSpec("loss"), strategy="random",
        max_trials=2, max_parallel=1)
    store.create_job(lin_parent, ExecutorSpec(kind="builtin",
                                              benchmark="log-valley"))
    for i, (c, final) in enumerate(((0.0, 0.9), (0.5, 0.2)), start=1):
        tid = f"trial-{i:04d}"
        store.append_event("acc7-lin", {
            "type": "trial_launched", "trial_id": tid, "attempt": 1,
            "config": {"c": c}, "encoded": [c], "ts": float(i)})
        store.append_event("acc7-lin", {
            "type": "trial_completed", "trial_id": tid,
            "final_value": final, "ts": float(i) + 0.5})
    store.append_event("acc7-lin", {"type": "job_status_changed",
                                    "status": "completed"})
    store.close()

    log_child = TuningJobConfig(
        job_id="acc7-log",
        space=SearchSpace([continuous("c", 1e-9, 1.0, scaling="log")]),
        objective=ObjectiveSpec("loss"), strategy="bayesian",
        max_trials=2, max_parallel=1, seed=1,
        warm_start_parents=("acc7-lin",))
    child_state = run_tuning(
        tmp_path / "store", log_child,
        spec=ExecutorSpec(kind="builtin", benchmark="log-valley"))
    assert len(child_state.warm_obs) == 1
    assert child_state.warm_obs[0][1] == 0.2
    assert child_state.terminal_count == 2
    assert time.monotonic() - start < 120.0


class _FaultyStore(JobStore):
    """Raises StoreError after a fixed number of journal appends."""

    def __init__(self, root, fail_after):
        super().__init__(root)
        self.remaining = fail_after

    def append_event(self, job_id, event):
        if self.remaining <= 0:
            raise StoreError("injected crash at an event boundary")
        self.remaining -= 1
        super().append_event(job_id, event)


@pytest.mark.criterion(
    8, "crash at any event boundary recovers to a complete, consistent job")
def test_crash_recovery_at_random_event_boundaries(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(88)
    boundaries = rng.integers(1, 36, size=10)
    for round_no, fail_after in enumerate(boundaries):
        root = tmp_path / f"round-{round_no}"
        config = branin_config("acc8-job", max_trials=12, max_parallel=3,
                               seed=800 + round_no)
        faulty = _FaultyStore(root, int(fail_after))
        executor = make_executor(
            ExecutorSpec(kind="builtin", benchmark="branin"), "loss", 3)
        with pytest.raises(JobAborted):
            run_job(config, faulty, executor)
        executor.shutdown()
        faulty.close()

        state = run_tuning(
            root, config, spec=ExecutorSpec(kind="builtin",
                                            benchmark="branin"))
        assert sorted(state.trials) == [f"trial-{i:04d}"
                                        for i in range(1, 13)]
        assert state.terminal_count == 12
        assert state.count("completed") == 12
        best = state.incumbent("minimize")
        assert best is not None
        assert best.final_value == min(t.final_value
                                       for t in state.trials.values())
    assert time.monotonic() - start < 120.0


def _unwarped_predict(design, y, theta, queries):
    """Reference GP with no input warping, mirroring the fit pipeline."""
    y = np.asarray(y, dtype=float)
    mean_y = float(y.mean())
    std_y = float(y.std())
    scale = std_y if std_y >= 1e-12 else 1.0
    z = (y - mean_y) / scale

    def mat(a, b):
        diff = (a[:, None, :] - b[None, :, :]) / theta.lengthscales
        r2 = np.sum(diff * diff, axis=-1)
        r = np.sqrt(r2)
        return theta.amplitude * (1.0 + math.sqrt(5.0) * r
                                  + 5.0 * r2 / 3.0) * np.exp(-math.sqrt(5.0) * r)

    k = mat(design, design) + theta.noise_var * np.eye(design.shape[0])
    chol = cholesky(k, lower=True)
    alpha = cho_solve((chol, True), z)
    k_star = mat(queries, design)
    mu = k_star @ alpha
    v = solve_triangular(chol, k_star.T, lower=True)
    var = np.maximum(theta.amplitude - np.einsum("ij,ij->j", v, v), 0.0)
    return mean_y + scale * mu, scale**2 * var


def _ensemble_log_likelihood(design, y, thetas, x_test, y_test):
    member_logpdfs = []
    for theta in thetas:
        post = fit_posterior(design, y, [theta])
        mean, var = predict_batch(post, x_test)
        noisy = var + theta.noise_var * post.target_scale[0, 0]**2
        member_logpdfs.append(-0.5 * (np.log(2.0 * math.pi * noisy)
                                      + (y_test - mean) ** 2 / noisy))
    stacked = np.stack(member_logpdfs)
    return float(np.sum(logsumexp(stacked, axis=0) - math.log(len(thetas))))


@pytest.mark.criterion(
    9, "identity warp is exact; free warp helps on warped data")
def test_warp_identity_and_free_warp_benefit():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 13))
        design = rng.random((n, d))
        y = rng.normal(size=n) * 2.0 + 1.0
        theta = GpHyperParams(
            lengthscales=np.exp(rng.uniform(-1.0, 1.0, size=d)),
            amplitude=float(np.exp(rng.uniform(-0.5, 0.5))),
            noise_var=float(np.exp(rng.uniform(math.log(1e-2), 0.0))),
            warp_a=np.ones(d),
            warp_b=np.ones(d),
        )
        queries = rng.random((8, d))
        post = fit_posterior(design, y, [theta])
        mean, var = predict_batch(post, queries)
        mean_ref, var_ref = _unwarped_predict(design, y, theta, queries)
        assert np.all(np.abs(mean - mean_ref)
                      <= 1e-12 * (1.0 + np.abs(mean_ref)))
        assert np.all(np.abs(var - var_ref)
                      <= 1e-12 * (1.0 + np.abs(var_ref)))

    diffs = []
    for s in range(10):
        rng = np.random.default_rng(500 + s)
        u_train = rng.random(25)
        u_test = rng.random(25)

        def warped_objective(u):
            v = 1.0 - (1.0 - u**3.0) ** 0.5
            return np.sin(2.0 * math.pi * v)

        y_train = warped_objective(u_train) + 0.05 * rng.normal(size=25)
        y_test = warped_objective(u_test) + 0.05 * rng.normal(size=25)
        design = u_train.reshape(-1, 1)
        x_test = u_test.reshape(-1, 1)

        free = slice_sample_thetas(design, y_train, McmcConfig(), seed=s)
        pinned = slice_sample_thetas(design, y_train, McmcConfig(), seed=s,
                                     sample_warp=False)
        ll_free = _ensemble_log_likelihood(design, y_train, free,
                                           x_test, y_test)
        ll_pinned = _ensemble_log_likelihood(design, y_train, pinned,
                                             x_test, y_test)
        diffs.append(ll_free - ll_pinned)
    assert float(np.median(diffs)) >= 0.0


class _ConcurrencyProbe:
    """Records the set of in-flight trials at every launch and finish."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()
        self.active: set[str] = set()
        self.high_water = 0
        self.launches: list[tuple[float, int]] = []
        self.finishes: list[float] = []

    @property
    def spec(self):
        return self.inner.spec

    def launch(self, trial_id, config, seed, emit):
        with self.lock:
            self.launches.append((time.monotonic(), len(self.active)))
            self.active.add(trial_id)
            self.high_water = max(self.high_water, len(self.active))

        def wrapped(event):
            if event.kind in ("completed", "failed"):
                with self.lock:
                    self.active.discard(event.trial_id)
                    self.finishes.append(time.monotonic())
            emit(event)

        self.inner.launch(trial_id, config, seed, wrapped)

    def request_stop(self, trial_id):
        self.inner.request_stop(trial_id)

    def shutdown(self):
        self.inner.shutdown()


@pytest.mark.criterion(
    10, "scheduler honours the slot bound and refills slots asynchronously")
def test_concurrency_bound_and_asynchronous_refill(tmp_path):
    spec = ExecutorSpec(kind="builtin", benchmark="branin",
                        iterations=3, delay=0.05, delay_spread=2.0)
    config = branin_config("acc10-job", max_trials=8, max_parallel=4,
                           seed=193)
    probe = _ConcurrencyProbe(make_executor(spec, "loss", 4))
    try:
        state = run_tuning(tmp_path / "store", config, executor=probe)
    finally:
        probe.shutdown()

    assert state.count("completed") == 8
    assert probe.high_water == 4
    # The first four launches fill the empty slots; every later launch
    # must happen while exactly three other trials are still running.
    active_before = [a for _, a in probe.launches]
    assert active_before[:4] == [0, 1, 2, 3]
    assert active_before[4:] == [3, 3, 3, 3]
    # Each freed slot is refilled promptly, far sooner than the time any
    # of the other three needs to finish.
    refill_times = [t for t, _ in probe.launches[4:]]
    for finish, refill in zip(sorted(probe.finishes)[:4], refill_times):
        assert 0.0 <= refill - finish < 0.12
