"""SciPy loads at a job's first model proposal, not at ``import tunekit``.

Each test runs a fresh interpreter, so modules an earlier test imported
do not hide what tunekit itself loads.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import tunekit

SRC = Path(tunekit.__file__).resolve().parent.parent

PRELUDE = """
import json, sys, tempfile

import tunekit, tunekit.cli
from tunekit.jobs import ObjectiveSpec, TuningJobConfig
from tunekit.jobstore import JobStore
from tunekit.runner import ExecutorSpec, make_executor
from tunekit.scheduler import run_job
from tunekit.space import SearchSpace, continuous

SPACE = SearchSpace([continuous("x1", -5.0, 10.0), continuous("x2", 0.0, 15.0)])
SPEC = ExecutorSpec(kind="builtin", benchmark="branin", noise_std=0.5)
TMP = tempfile.TemporaryDirectory(prefix="tunekit-imports-")


def fresh_root():
    return tempfile.mkdtemp(dir=TMP.name)


def scipy_loaded():
    return [name in sys.modules for name in ("scipy.special", "scipy.linalg")]


def run(root, job_id, strategy, trials, seed=7):
    config = TuningJobConfig(
        job_id=job_id, space=SPACE, objective=ObjectiveSpec("loss"),
        strategy=strategy, max_trials=trials, max_parallel=1, seed=seed)
    store = JobStore(root)
    executor = make_executor(SPEC, "loss", 1)
    try:
        run_job(config, store, executor)
        events = store.read_events(job_id)
    finally:
        executor.shutdown()
        store.close()
    for event in events:
        event.pop("ts", None)
    return events
"""


def run_fresh(body: str):
    """Run ``body`` after ``PRELUDE`` in a new interpreter; its JSON output."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    env.pop("TUNER_STORE", None)
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy_submodule():
    assert run_fresh("print(json.dumps(scipy_loaded()))") == [False, False]


def test_random_search_and_cli_load_no_scipy_submodule():
    out = run_fresh("""
        root = fresh_root()
        run(root, "rand", "random", 8)
        codes = [tunekit.cli.main([cmd, *args, "--store", root])
                 for cmd, args in (("list", []), ("describe", ["rand"]),
                                   ("export", ["rand"]), ("stop", ["rand"]))]
        print(json.dumps([codes, scipy_loaded()]))
    """)
    assert out == [[0, 0, 0, 0], [False, False]]


def test_bayesian_job_loads_scipy_at_first_model_proposal():
    # Branin is two-dimensional: the first four trials are design points.
    out = run_fresh("""
        root = fresh_root()
        run(root, "design-only", "bayesian", 4)
        after_design = scipy_loaded()
        run(root, "modelled", "bayesian", 6)
        print(json.dumps([after_design, scipy_loaded()]))
    """)
    assert out == [[False, False], [True, True]]


def test_two_threads_reach_first_model_proposal_together():
    # Both jobs wait at a barrier on entering their first model proposal,
    # before either has loaded SciPy, so both resolve it concurrently.
    out = run_fresh("""
        import threading
        import tunekit.scheduler as scheduler

        barrier = threading.Barrier(2, timeout=60)
        sample_thetas = scheduler._sample_thetas
        at_barrier = {}

        def sample_together(*args):
            name = threading.current_thread().name
            if name not in at_barrier:
                at_barrier[name] = scipy_loaded()
                barrier.wait()
            return sample_thetas(*args)

        jobs = {"left": 1, "right": 2}
        together = {}

        def run_together(job_id):
            together[job_id] = run(fresh_root(), job_id, "bayesian", 7,
                                   jobs[job_id])

        scheduler._sample_thetas = sample_together
        threads = [threading.Thread(target=run_together, args=(job_id,),
                                    name=job_id) for job_id in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        scheduler._sample_thetas = sample_thetas
        alone = {job_id: run(fresh_root(), job_id, "bayesian", 7, seed)
                 for job_id, seed in jobs.items()}
        print(json.dumps([at_barrier, sorted(together),
                          together == alone, len(alone["left"])]))
    """)
    at_barrier, finished, same, events = out
    assert at_barrier == {"left": [False, False], "right": [False, False]}
    assert finished == ["left", "right"]
    assert same
    assert events > 7
