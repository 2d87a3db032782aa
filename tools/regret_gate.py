"""Compare two trees' final regret on seeded Bayesian jobs; pass or fail.

    python tools/regret_gate.py --src PARENT/src --src CHANGE/src \\
        --workload branin-50 --seeds 30 --first-seed 1000 \\
        --margin 0.02 --tail 0.1 --out gate.json

A change that alters proposals cannot be checked bit for bit with
``tools/proposal_hex.py``; this gate checks instead that it finds optima
no worse.  The first ``--src`` is the parent's directory holding the
``tunekit`` package, the second the change's.  Each tree runs the same
seeded jobs in its own subprocess, with OpenBLAS on one thread and every
trial run inline inside ``launch``, as ``tools/proposal_hex.py`` does, so
a tree's results do not depend on thread timing.  Workloads, one slot each:

- ``branin-50``: acceptance criterion 4's job, Branin with ``noise_std``
  0.5 and 50 trials;
- ``hartmann3-50``: Hartmann3 with ``noise_std`` 0.05 and 50 trials.

A job's regret is the noise-free objective at its best observed trial,
the lowest over the trials that reported a final value, minus the
benchmark's optimum, as acceptance criterion 4 scores a job.  The tool
computes it through ``Benchmark.evaluate``, so both trees are scored by
the same rule.

The verdict passes when the change's median regret is at most the
parent's plus ``--margin`` and no more of the change's seeds than the
parent's have a regret above ``--tail``.  ``--out`` gets per-seed regrets
and paired differences (change minus parent), both medians, a seeded
bootstrap 95% interval of the median difference, the tail counts, CPU
seconds per job, the number of warnings the ``tunekit.acquisition``
logger raised (proposal fallbacks), and each tree's host, versions and
BLAS settings.  Exits 0 when the verdict passes and 1 when it fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# workload: (benchmark, noise_std, trials)
WORKLOADS = {"branin-50": ("branin", 0.5, 50),
             "hartmann3-50": ("hartmann3", 0.05, 50)}
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def run_tree(src: str, workload: str, seeds: list[int],
             trials: int) -> dict:
    """Child process: run the workload's jobs with the tunekit under ``src``."""
    sys.path.insert(0, src)
    import logging
    import platform
    import tempfile
    import threading
    import time

    import numpy as np
    import scipy

    import tunekit
    from tunekit.benchmarks import get_benchmark
    from tunekit.jobs import ObjectiveSpec, TuningJobConfig
    from tunekit.jobstore import JobStore
    from tunekit.runner import BuiltinExecutor, ExecutorSpec
    from tunekit.scheduler import run_job

    class InlineExecutor(BuiltinExecutor):
        def launch(self, trial_id, config, seed, emit) -> None:
            self._run(trial_id, config, seed, emit, threading.Event())

    class Counter(logging.Handler):
        count = 0

        def emit(self, record) -> None:
            self.count += 1

    fallbacks = Counter(logging.WARNING)
    acquisition_log = logging.getLogger("tunekit.acquisition")
    acquisition_log.addHandler(fallbacks)
    acquisition_log.propagate = False

    name, noise_std, _ = WORKLOADS[workload]
    benchmark = get_benchmark(name)
    spec = ExecutorSpec(kind="builtin", benchmark=name, noise_std=noise_std)
    regrets, cpu_s = [], []
    for seed in seeds:
        config = TuningJobConfig(
            job_id=f"gate-{seed}", space=benchmark.space,
            objective=ObjectiveSpec("loss"), strategy="bayesian",
            max_trials=trials, max_parallel=1, seed=seed)
        with tempfile.TemporaryDirectory(prefix="regret-gate-") as root:
            store = JobStore(root)
            executor = InlineExecutor(spec, "loss", 1)
            try:
                cpu0 = time.process_time()
                state = run_job(config, store, executor)
                cpu_s.append(time.process_time() - cpu0)
            finally:
                executor.shutdown()
                store.close()
        regrets.append(min(benchmark.evaluate(trial.config.values)
                           for trial in state.trials.values()
                           if trial.has_observation) - benchmark.optimum)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "src": str(Path(tunekit.__file__).resolve().parent.parent),
        "regret": regrets,
        "cpu_s_per_job": cpu_s,
        "acquisition_warnings": fallbacks.count,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }


def spawn_tree(src: Path, args: argparse.Namespace) -> dict:
    """Run one tree in a fresh interpreter and return its results."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, "--tree", str(src.resolve()),
         "--workload", args.workload, "--seeds", str(args.seeds),
         "--first-seed", str(args.first_seed), "--trials", str(args.trials)],
        env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def bootstrap_median_ci(diffs: list[float]) -> list[float]:
    """Seeded percentile bootstrap 95% interval of the median of ``diffs``."""
    import numpy as np

    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(0, len(diffs), size=(BOOTSTRAP_RESAMPLES, len(diffs)))
    medians = np.median(np.asarray(diffs)[picks], axis=1)
    return [float(v) for v in np.percentile(medians, [2.5, 97.5])]


def verdict(parent: dict, change: dict, margin: float, tail: float) -> dict:
    """Summary statistics of both trees and the pass/fail verdict."""
    diffs = [c - p for p, c in zip(parent["regret"], change["regret"])]
    for tree in (parent, change):
        tree["median"] = statistics.median(tree["regret"])
        tree["above_tail"] = sum(r > tail for r in tree["regret"])
        tree["cpu_s_per_job_median"] = statistics.median(tree["cpu_s_per_job"])
    median_ok = change["median"] <= parent["median"] + margin
    tail_ok = change["above_tail"] <= parent["above_tail"]
    return {
        "paired_diff": diffs,
        "median_diff": statistics.median(diffs),
        "median_diff_ci95": bootstrap_median_ci(diffs),
        "bootstrap": {"resamples": BOOTSTRAP_RESAMPLES,
                      "seed": BOOTSTRAP_SEED},
        "verdict": {
            "pass": median_ok and tail_ok,
            "median_ok": median_ok,
            "tail_ok": tail_ok,
            "margin": margin,
            "tail": tail,
            "rule": "median(change) <= median(parent) + margin, and "
                    "count(change > tail) <= count(parent > tail)",
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", type=Path, default=[],
                        help="directory holding the tunekit package; give "
                             "it twice, the parent's first")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seeds", type=int, required=True,
                        help="number of seeded jobs per tree")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per job (default: the workload's 50; "
                             "fewer only to check the tool itself)")
    parser.add_argument("--margin", type=float, default=0.02,
                        help="regret the change's median may add")
    parser.add_argument("--tail", type=float, default=0.1,
                        help="regret above which a seed counts as stalled")
    parser.add_argument("--out", type=Path, help="file for the JSON report")
    parser.add_argument("--tree", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trials is None:
        args.trials = WORKLOADS[args.workload][2]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    if args.tree:
        json.dump(run_tree(args.tree, args.workload, seeds, args.trials),
                  sys.stdout)
        return 0
    if len(args.src) != 2 or args.out is None or args.seeds < 1:
        parser.error("give --src twice (parent, then change), --out and "
                     "--seeds of 1 or more")
    parent, change = (spawn_tree(src, args) for src in args.src)
    report = {"workload": args.workload, "trials": args.trials,
              "seeds": seeds, "parent": parent, "change": change,
              **verdict(parent, change, args.margin, args.tail)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{args.workload}: median regret {parent['median']:.4g} -> "
          f"{change['median']:.4g}, above {args.tail:g}: "
          f"{parent['above_tail']} -> {change['above_tail']}, "
          f"{'PASS' if report['verdict']['pass'] else 'FAIL'}")
    return 0 if report["verdict"]["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
