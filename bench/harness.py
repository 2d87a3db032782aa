"""Workloads, the slot-timing executor wrapper and the output checks.

Everything here drives tunekit through its public API: jobs go through
``run_job`` with a :class:`ProbeExecutor` around the builtin executor,
reads go through ``JobStore`` and the in-process ``tunekit describe``.
Nothing in tunekit is modified; the traced run (see ``spans.py``) only
wraps module attributes for its duration.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tunekit
from tunekit import cli
from tunekit.benchmarks import curve_sim_value, get_benchmark
from tunekit.jobs import ObjectiveSpec, TuningJobConfig
from tunekit.jobstore import JobStore
from tunekit.runner import BuiltinExecutor, ExecutorSpec
from tunekit.scheduler import run_job

OBJECTIVE = "loss"
# Trials compared between an untraced reference job and the traced run.
REFERENCE_TRIALS = 8
# Seconds spent describing, and again resuming, finished jobs per run.
READ_PATH_S = 2.0
# Criterion 4's quality bar for 50-trial Bayesian Branin jobs, applied
# here to jobs of half that length.
REGRET_BAR = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    benchmark: str
    strategy: str
    max_trials: int
    max_parallel: int
    noise_std: float = 0.0
    iterations: int = 1
    early_stopping: str = "off"
    # Known minimum of the noise-free objective, for simple regret.
    optimum: float = 0.0
    regret_bar: float | None = None

    def job_config(self, job_id: str, seed: int,
                   max_trials: int | None = None) -> TuningJobConfig:
        return TuningJobConfig(
            job_id=job_id,
            space=get_benchmark(self.benchmark).space,
            objective=ObjectiveSpec(OBJECTIVE),
            strategy=self.strategy,
            max_trials=max_trials or self.max_trials,
            max_parallel=self.max_parallel,
            early_stopping=self.early_stopping,
            seed=seed,
        )

    def executor_spec(self) -> ExecutorSpec:
        return ExecutorSpec("builtin", benchmark=self.benchmark,
                            noise_std=self.noise_std,
                            iterations=self.iterations)


WORKLOADS = {
    w.name: w for w in (
        # Criterion 4's job has 50 trials.  Over six seeds, the median
        # launch cost of such a job varied about twice as much as that of
        # a 25-trial job (coefficient of variation 0.13 against 0.05-0.08
        # over ten or more seeds), and a run finishes only two or three of
        # them, so the run-to-run spread followed the seeds.
        Workload(
            name="bo-branin-serial",
            why="Bayesian Branin, one slot: slice sampling and the EI "
                "search block every launch (criterion 4's job at half length)",
            benchmark="branin", strategy="bayesian", max_trials=25,
            max_parallel=1, noise_std=0.5, optimum=0.397887,
            regret_bar=REGRET_BAR,
        ),
        # Run by hand only: each run finishes one or two of its jobs, and
        # their cost differs too much from job to job to gate on (see
        # README.md).
        Workload(
            name="bo-curve-stop-parallel",
            why="Bayesian search on 100-step learning curves with median "
                "stopping and two slots: pending points, stopping and the "
                "journal ride on the GP path",
            benchmark="curve-sim", strategy="bayesian", max_trials=40,
            max_parallel=2, iterations=100, early_stopping="median",
        ),
        Workload(
            name="curve-stop-journal",
            why="random search with median stopping on 100-step curves: "
                "the fsync'd journal and stopping rule, no GP work",
            benchmark="curve-sim", strategy="random", max_trials=200,
            max_parallel=2, iterations=100, early_stopping="median",
        ),
    )
}


class CheckFailed(AssertionError):
    """An output check failed; ``name`` identifies which."""

    def __init__(self, name: str, detail: str) -> None:
        super().__init__(f"{name}: {detail}")
        self.name = name


def no_span(_name: str):
    return contextlib.nullcontext()


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def check(ok: bool, name: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(name, detail)


def job_seeds(seed: int):
    """Endless stream of job seeds derived from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2 ** 31)


class ProbeExecutor:
    """Executor wrapper that timestamps each slot's life cycle.

    A slot is freed when its trial emits a terminal event or when the
    coordinator calls ``request_stop``; the next ``launch`` takes it.
    Launches that find no freed slot are the first wave and give no
    latency sample.  Each sample is taken twice: as wall time, and as the
    CPU time the coordinator thread spent meanwhile, which leaves out the
    time a shared host gives the CPU to other guests.  Build the wrapper
    in the thread that calls ``run_job``.  ``on_launch`` runs in the
    coordinator thread, just before the launch is forwarded.
    """

    def __init__(self, inner, on_launch=None, detail: bool = False) -> None:
        self._inner = inner
        self._on_launch = on_launch
        self._detail = detail
        self._lock = threading.Lock()
        self._running: set[str] = set()
        self._coordinator_clock = time.pthread_getcpuclockid(
            threading.get_ident())
        # (wall, coordinator CPU) when each freed slot was freed.
        self._freed: collections.deque[tuple[float, float]] = (
            collections.deque())
        self.latencies: list[float] = []
        self.cpu_latencies: list[float] = []
        self.launches: list[tuple[str, dict, float]] = []
        # Process CPU time at the first launch (the set-up probe's end).
        self.first_launch_cpu: float | None = None
        # Per launch: [trial_id, launched, first metric, last metric, terminal].
        self.lifecycles: list[list] = []
        self.metric_emits: dict[tuple[str, int], float] = {}

    @property
    def spec(self) -> ExecutorSpec:
        return self._inner.spec

    def launch(self, trial_id, config, seed, emit) -> None:
        now = time.perf_counter()
        cpu_now = time.thread_time()
        life = [trial_id, now, None, None, None]
        with self._lock:
            if self._freed:
                freed, cpu_freed = self._freed.popleft()
                self.latencies.append(now - freed)
                self.cpu_latencies.append(cpu_now - cpu_freed)
            self._running.add(trial_id)
        if self._detail:
            self.lifecycles.append(life)
        if self.first_launch_cpu is None:
            self.first_launch_cpu = time.process_time()
        self.launches.append((trial_id, dict(config.values), now))
        if self._on_launch is not None:
            self._on_launch(trial_id)

        def probe_emit(event) -> None:
            t = time.perf_counter()
            if event.kind != "metric":
                life[4] = t
                self._free(trial_id, t)
            elif self._detail:
                if life[2] is None:
                    life[2] = t
                life[3] = t
                self.metric_emits[(trial_id, event.iteration)] = t
            emit(event)

        self._inner.launch(trial_id, config, seed, probe_emit)

    def _free(self, trial_id: str, t: float) -> None:
        cpu = time.clock_gettime(self._coordinator_clock)
        with self._lock:
            if trial_id in self._running:
                self._running.discard(trial_id)
                self._freed.append((t, cpu))

    def request_stop(self, trial_id: str) -> None:
        self._free(trial_id, time.perf_counter())
        self._inner.request_stop(trial_id)

    def shutdown(self) -> None:
        self._inner.shutdown()


@dataclass
class JobRun:
    """One finished job, reduced to what the metrics and checks need."""

    job_id: str
    config: TuningJobConfig
    probe: ProbeExecutor
    started: float
    wall_s: float
    cpu_s: float
    cut: bool
    trials: int = 0
    terminal: int = 0
    attempted: int = 0
    failed: int = 0
    regret: float = math.nan

    @property
    def full(self) -> bool:
        return not self.cut and self.trials == self.config.max_trials


@dataclass
class RunResult:
    jobs: list[JobRun] = field(default_factory=list)
    describe_s: list[float] = field(default_factory=list)
    resume_s: list[float] = field(default_factory=list)

    @property
    def panel(self) -> list[JobRun]:
        """Jobs that ran to max_trials, or every job if none did."""
        full = [j for j in self.jobs if j.full]
        return full or self.jobs

    @property
    def terminal(self) -> int:
        return sum(j.terminal for j in self.jobs)

    # Launch latencies come from full jobs only: a proposal's cost grows
    # with the job's observations, so the cut job's early launches would
    # skew the percentiles by where the deadline fell.
    @property
    def latencies(self) -> list[float]:
        return [x for j in self.panel for x in j.probe.latencies]

    @property
    def cpu_latencies(self) -> list[float]:
        return [x for j in self.panel for x in j.probe.cpu_latencies]


def run_one(workload: Workload, store: JobStore, job_id: str, seed: int,
            deadline: float, max_trials: int | None, span=no_span,
            detail: bool = False) -> JobRun:
    """Run (or resume) and check one job; the first launch after ``deadline``
    stops it.

    The stop goes through ``JobStore.set_status`` like ``tunekit stop``,
    but from the coordinator thread, so it cannot race the coordinator's
    own ``job.json`` writes.  The job's state is checked against its
    journal, then dropped, so memory does not grow with the run's length.
    """
    config = workload.job_config(job_id, seed, max_trials)
    cut = []

    def stop_after_deadline(_trial_id: str) -> None:
        if not cut and time.perf_counter() >= deadline:
            cut.append(True)
            store.set_status(job_id, "stopping")

    inner = BuiltinExecutor(workload.executor_spec(), OBJECTIVE,
                            config.max_parallel)
    probe = ProbeExecutor(inner, stop_after_deadline, detail)
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with span("scheduler.run_job"):
            state = run_job(config, store, probe)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        probe.shutdown()
    job = JobRun(job_id, config, probe, t0, wall, cpu, bool(cut))
    check_job(workload, store, job, state)
    return job


def run_jobs(workload: Workload, store: JobStore, seed: int, seconds: float,
             max_trials: int | None, span=no_span,
             detail: bool = False) -> RunResult:
    """Closed loop: jobs back to back until ``seconds`` have passed."""
    result = RunResult()
    deadline = time.perf_counter() + seconds
    for k, job_seed in enumerate(job_seeds(seed)):
        job = run_one(workload, store, f"job-{k:03d}", job_seed, deadline,
                      max_trials, span, detail)
        result.jobs.append(job)
        if job.cut or time.perf_counter() >= deadline:
            break
    return result


# -- output checks -----------------------------------------------------------

def check_job(workload: Workload, store: JobStore, job: JobRun,
              state) -> None:
    """Check a finished job against its journal and fill in its summary."""
    if job.cut:
        check(state.terminal_count == len(state.trials), "max_trials_reached",
              f"{job.job_id}: stopped job left non-terminal trials")
    else:
        check(len(state.trials) == job.config.max_trials
              and state.terminal_count == job.config.max_trials,
              "max_trials_reached",
              f"{job.job_id}: {state.terminal_count} terminal of "
              f"{job.config.max_trials}")

    _, _, replayed = store.load_job(job.job_id)
    check(sorted(replayed.trials) == sorted(state.trials),
          "replay_matches_live", f"{job.job_id}: trial ids differ")
    for tid, live in state.trials.items():
        again = replayed.trials[tid]
        check((again.status, again.final_value, dict(again.config.values))
              == (live.status, live.final_value, dict(live.config.values)),
              "replay_matches_live", f"{job.job_id}/{tid} differs on replay")

    if workload.benchmark == "curve-sim":
        configs = {}
        for event in store.read_events(job.job_id):
            if event["type"] == "trial_launched":
                configs[event["trial_id"]] = event["config"]
            elif event["type"] == "metric_reported":
                want = curve_sim_value(configs[event["trial_id"]],
                                       event["iteration"])
                check(event["value"] == want, "curve_values_exact",
                      f"{job.job_id}/{event['trial_id']} iteration "
                      f"{event['iteration']}: {event['value']!r} != {want!r}")

    evaluate = get_benchmark(workload.benchmark).evaluate
    values = [evaluate(t.config.values) for t in state.trials.values()
              if t.has_observation]
    check(bool(values), "max_trials_reached",
          f"{job.job_id}: no trial produced an observation")
    job.regret = min(values) - workload.optimum
    job.trials = len(state.trials)
    job.terminal = state.terminal_count
    for trial in state.trials.values():
        job.attempted += trial.attempts
        job.failed += trial.attempts - 1 + (trial.status == "failed")


def reference_launches(workload: Workload, root: Path, seed: int,
                       max_trials: int | None) -> list[dict]:
    """Configurations of the first trials of an untraced run's first job."""
    store = JobStore(root / "reference")
    try:
        ref = run_one(workload, store, "job-000", next(job_seeds(seed)),
                      float("inf"), min(REFERENCE_TRIALS,
                                        max_trials or REFERENCE_TRIALS))
    finally:
        store.close()
    shutil.rmtree(root / "reference")
    return [config for _, config, _ in ref.probe.launches]


def check_same_launches(reference: list[dict], job: JobRun) -> None:
    got = [config for _, config, _ in job.probe.launches]
    count = min(len(reference), len(got))
    check(count > 0 and got[:count] == reference[:count],
          "trace_same_proposals",
          f"traced proposals differ from untraced ones in the first {count}")


# -- read path ---------------------------------------------------------------

def describe_once(store: JobStore, job: JobRun) -> float:
    """Time one in-process ``tunekit describe`` and check what it prints."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["describe", job.job_id, "--store", str(store.root)])
    elapsed = time.perf_counter() - t0
    text = out.getvalue()
    check(code == 0, "describe_matches", f"{job.job_id}: exit code {code}")
    want = f"trials:     {job.trials} of {job.config.max_trials}"
    check(want in text and "status:     completed" in text,
          "describe_matches", f"{job.job_id}: unexpected output {text!r}")
    return elapsed


def crash_point(lines: list[str]) -> int:
    """Number of journal lines kept by a crash halfway through the job.

    The crash falls just after the first launch in the second half, so
    the resumed job relaunches that trial without a new proposal.
    """
    for index in range(len(lines) // 2, len(lines)):
        if '"type":"trial_launched"' in lines[index]:
            return index + 1
    raise CheckFailed("resume_relaunches", "no launch in the journal's "
                      "second half")


def resume_once(workload: Workload, store: JobStore, job: JobRun,
                root: Path) -> float:
    """Time ``run_job`` on a crashed copy of ``job`` up to its first launch."""
    copy_root = root / "resume"
    shutil.rmtree(copy_root, ignore_errors=True)
    job_dir = copy_root / job.job_id
    shutil.copytree(store.job_dir(job.job_id), job_dir)
    events_path = job_dir / "events.log"
    lines = events_path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = crash_point(lines)
    events_path.write_text("".join(lines[:kept]), encoding="utf-8")
    in_flight = set()
    for line in lines[:kept]:
        event = json.loads(line)
        if event["type"] == "trial_launched":
            in_flight.add(event["trial_id"])
        elif event["type"] in ("trial_completed", "trial_stopped",
                               "trial_failed"):
            in_flight.discard(event["trial_id"])

    copy_store = JobStore(copy_root)
    try:
        resumed = run_one(workload, copy_store, job.job_id, job.config.seed,
                          -math.inf, job.config.max_trials)
    finally:
        copy_store.close()
    shutil.rmtree(copy_root)
    trial_id, _, launched = resumed.probe.launches[0]
    check(trial_id in in_flight, "resume_relaunches",
          f"{job.job_id}: resume did not relaunch the in-flight trial")
    return launched - resumed.started


def read_path(workload: Workload, store: JobStore, result: RunResult,
              root: Path, span=no_span) -> None:
    """Describe and resume the run's jobs, round robin, for a fixed time each."""
    os.environ.pop(cli.ENV_STORE, None)  # it would override --store
    jobs = result.panel
    for name, samples, once in (
            ("cli.describe", result.describe_s,
             lambda job: describe_once(store, job)),
            ("scheduler.resume", result.resume_s,
             lambda job: resume_once(workload, store, job, root))):
        deadline = time.perf_counter() + READ_PATH_S
        while len(samples) < len(jobs) or time.perf_counter() < deadline:
            with span(name):
                samples.append(once(jobs[len(samples) % len(jobs)]))


def check_run(workload: Workload, result: RunResult, full_size: bool) -> None:
    if not full_size:
        return
    check(any(job.full for job in result.jobs), "max_trials_reached",
          "no job ran to max_trials within the run")
    if workload.regret_bar is not None:
        median = float(np.median([job.regret for job in result.panel]))
        check(median < workload.regret_bar, "regret_bar",
              f"median regret {median:.4g} >= {workload.regret_bar}")


# -- run record ----------------------------------------------------------------

def _fs_type(path: Path) -> str:
    best, fstype = "", "unknown"
    target = os.path.realpath(path)
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if ((target == mount or target.startswith(mount.rstrip("/") + "/"))
                        and len(mount) >= len(best)):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def run_record(repo: Path, store_root: Path) -> dict:
    import platform

    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    src = repo / "src" / "tunekit"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(src.glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tunekit": tunekit.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "store_fs": _fs_type(store_root),
        "src_lines": lines,
    }
