"""Compare how two tunekit trees propose: hex journals or final regret.

    python tools/compare.py hex --out proposals.hex
    python tools/compare.py hex --slots 4 --trials 30 --out slots4.hex
    python tools/compare.py hex --workload curve-stop --out curve-stop.hex
    python tools/compare.py hex --src PARENT/src --out parent.hex
    python tools/compare.py regret --src PARENT/src --src CHANGE/src \\
        --workload branin-50 --seeds 30 --first-seed 1000 --out gate.json

Both modes run seeded jobs of one workload, each in a fresh temporary
store, with the ``tunekit`` package under a ``--src`` directory (by
default the ``src/`` next to this one).  A tree runs in a fresh
interpreter with OpenBLAS on one thread, because a threaded BLAS may sum
in a different order and round differently.  Trials run inline: the
executor evaluates a trial inside ``launch`` and queues all its events
before the coordinator goes on.  The coordinator fills every slot before
it handles an event, so the journal does not depend on thread timing,
and with N slots each model proposal after the first fill sees N - 1
pending trials.  A stopped trial has already run to its end; the
coordinator drops the reports it queued after the stop.

``WORKLOADS`` holds one row per workload: criterion 4's Branin job
(``branin-50``), Hartmann3 with noise 0.05 (``hartmann3-50``), both at
40 trials on 4 slots (``-40-p4``), noise-free spheres 16 and 32 wide
(``sphere-16-50``, ``sphere-32-50``), and ``curve-stop``, random search
on 100-iteration ``curve-sim`` curves with median stopping and two
slots, as the ``curve-stop-journal`` bench workload.  ``curve-stop`` has
no known optimum, so it serves ``hex`` only.

``hex`` runs seeds 1000 and 1001 by default (criterion 4's) and writes
every job's journal to ``--out``: a ``# job <id>`` line, then one JSON
event per line with ``ts`` removed and every float written as
``float.hex``.  Two trees whose jobs behave the same bit for bit write
identical files, so ``diff`` of two outputs is the bit-identity check for
a change that must not alter proposals or stopping decisions.

``regret`` checks instead that a change which alters proposals finds
optima no worse.  The first ``--src`` is the parent's, the second the
change's.  A job's regret is the noise-free objective at its best
observed trial minus the benchmark's optimum, as criterion 4 scores a
job, computed by each tree's ``Benchmark.evaluate``.  The verdict passes
when the change's median regret is at most the parent's plus the margin
and no more of the change's seeds than the parent's have a regret above
the tail.  Each workload row carries its margin and tail; ``--margin``
and ``--tail`` override them.  ``--out`` gets per-seed regrets and
paired differences (change minus parent), both medians, a seeded
bootstrap 95% interval of the median difference, the tail counts, CPU
seconds per job, the WARNING records of each ``tunekit.*`` logger, the
model launches within 0.01 (encoded Euclidean distance) of a trial
still running at that launch, and each tree's host, versions and BLAS
settings.  Exits 0 when the verdict passes and 1 when it fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0
NEAR_PENDING = 0.01


class Workload(NamedTuple):
    job: str                      # job id prefix, named in the hex headers
    benchmark: str
    noise_std: float
    strategy: str
    trials: int
    slots: int
    early_stopping: str = "off"
    iterations: int = 1
    margin: float | None = None   # regret the change's median may add
    tail: float | None = None     # regret above which a seed counts stalled


# The new rows' margins and tails come from their self-baselines in
# BENCH_30.json: the margin is half the width of the bootstrap 95% interval
# of the median regret, and the tail sits in the widest gap between the
# seeds above the median, so that no seed lies close to it.
WORKLOADS = {
    "branin-50": Workload("acc4-bo", "branin", 0.5, "bayesian", 50, 1,
                          margin=0.02, tail=0.1),
    "hartmann3-50": Workload("hartmann3-50", "hartmann3", 0.05, "bayesian",
                             50, 1, margin=0.02, tail=0.1),
    "branin-40-p4": Workload("branin-40-p4", "branin", 0.5, "bayesian", 40, 4,
                             margin=0.05, tail=0.21),
    "hartmann3-40-p4": Workload("hartmann3-40-p4", "hartmann3", 0.05,
                                "bayesian", 40, 4, margin=0.005, tail=0.16),
    "sphere-16-50": Workload("sphere-16-50", "sphere-16", 0.0, "bayesian",
                             50, 1, margin=0.2, tail=2.5),
    "sphere-32-50": Workload("sphere-32-50", "sphere-32", 0.0, "bayesian",
                             50, 1, margin=0.6, tail=5.6),
    "curve-stop": Workload("curve-stop", "curve-sim", 0.0, "random", 60, 2,
                           early_stopping="median", iterations=100),
}


def run_tree(src: str, row: Workload, seeds: list[int]) -> dict:
    """Child process: run ``row``'s jobs with the tunekit under ``src``."""
    sys.path.insert(0, src)
    import logging
    import platform
    import tempfile
    import threading
    import time
    from collections import Counter

    import numpy as np
    import scipy

    import tunekit
    from tunekit.benchmarks import get_benchmark
    from tunekit.jobs import ObjectiveSpec, TuningJobConfig
    from tunekit.jobstore import JobStore
    from tunekit.runner import BuiltinExecutor, ExecutorSpec
    from tunekit.scheduler import run_job

    class InlineExecutor(BuiltinExecutor):
        """A builtin executor that runs each trial to its end in ``launch``."""

        def launch(self, trial_id, config, seed, emit) -> None:
            self._run(trial_id, config, seed, emit, threading.Event())

    warnings = Counter()

    class WarningCounter(logging.StreamHandler):
        """Counts the records of each logger and prints them to stderr."""

        def emit(self, record) -> None:
            warnings[record.name] += 1
            super().emit(record)

    counter = WarningCounter()
    counter.setLevel(logging.WARNING)
    logging.getLogger("tunekit").addHandler(counter)

    benchmark = get_benchmark(row.benchmark)
    spec = ExecutorSpec(kind="builtin", benchmark=row.benchmark,
                        noise_std=row.noise_std, iterations=row.iterations)
    jobs = []
    for seed in seeds:
        config = TuningJobConfig(
            job_id=f"{row.job}-{seed}", space=benchmark.space,
            objective=ObjectiveSpec("loss"), strategy=row.strategy,
            max_trials=row.trials, max_parallel=row.slots,
            early_stopping=row.early_stopping, seed=seed)
        with tempfile.TemporaryDirectory(prefix="compare-") as root:
            store = JobStore(root)
            executor = InlineExecutor(spec, "loss", 1)
            try:
                cpu0 = time.process_time()
                state = run_job(config, store, executor)
                cpu_s = time.process_time() - cpu0
                events = store.read_events(config.job_id)
            finally:
                executor.shutdown()
                store.close()
        best = min(benchmark.evaluate(trial.config.values)
                   for trial in state.trials.values() if trial.has_observation)
        jobs.append({"job_id": config.job_id, "events": events, "cpu_s": cpu_s,
                     "regret": None if benchmark.optimum is None
                     else best - benchmark.optimum})
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "src": str(Path(tunekit.__file__).resolve().parent.parent),
        "jobs": jobs,
        "warnings": dict(sorted(warnings.items())),
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
    """Run one tree in a fresh interpreter and return its jobs."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, args.mode, "--tree", str(src.resolve()),
         "--workload", args.workload, "--seeds", str(args.seeds),
         "--first-seed", str(args.first_seed), "--trials", str(args.trials),
         "--slots", str(args.slots)],
        env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def as_hex(value):
    """``value`` with every float, also inside lists and dicts, as hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: as_hex(item) for key, item in value.items()}
    if isinstance(value, list):
        return [as_hex(item) for item in value]
    return value


def hex_lines(tree: dict) -> list[str]:
    """Every job's journal, without timestamps and with floats as hex."""
    lines = []
    for job in tree["jobs"]:
        lines.append(f"# job {job['job_id']}")
        for event in job["events"]:
            event.pop("ts", None)
            lines.append(json.dumps(as_hex(event)))
    return lines


def near_pending(events: list[dict]) -> tuple[int, int]:
    """(model launches within ``NEAR_PENDING`` of a running trial, all)."""
    running: dict[str, list[float]] = {}
    near = launches = 0
    for event in events:
        if event["type"] == "trial_launched":
            if "proposal" in event:
                launches += 1
                near += any(math.dist(event["encoded"], other) <= NEAR_PENDING
                            for other in running.values())
            running[event["trial_id"]] = event["encoded"]
        elif event["type"] in ("trial_completed", "trial_failed",
                               "trial_stopped"):
            running.pop(event["trial_id"], None)
    return near, launches


def summary(tree: dict, tail: float) -> dict:
    """One tree's per-seed regrets, CPU seconds and counts."""
    regrets = [job["regret"] for job in tree["jobs"]]
    cpu_s = [job["cpu_s"] for job in tree["jobs"]]
    near, launches = map(sum, zip(*(near_pending(job["events"])
                                    for job in tree["jobs"])))
    return {
        "src": tree["src"],
        "regret": regrets,
        "cpu_s_per_job": cpu_s,
        "warnings": tree["warnings"],
        "near_pending": {"near": near, "model_launches": launches,
                         "share": near / launches if launches else None},
        "host": tree["host"],
        "median": statistics.median(regrets),
        "above_tail": sum(r > tail for r in regrets),
        "cpu_s_per_job_median": statistics.median(cpu_s),
    }


def bootstrap_median_ci(diffs: list[float]) -> list[float]:
    """Seeded percentile bootstrap 95% interval of the median of ``diffs``."""
    import numpy as np

    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(0, len(diffs), size=(BOOTSTRAP_RESAMPLES, len(diffs)))
    medians = np.median(np.asarray(diffs)[picks], axis=1)
    return [float(v) for v in np.percentile(medians, [2.5, 97.5])]


def verdict(parent: dict, change: dict, margin: float, tail: float) -> dict:
    """The paired differences and the pass/fail verdict."""
    diffs = [c - p for p, c in zip(parent["regret"], change["regret"])]
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


def regret_report(parent: dict, change: dict, args: argparse.Namespace,
                  seeds: list[int]) -> dict:
    """The JSON report of a regret comparison."""
    parent, change = (summary(tree, args.tail) for tree in (parent, change))
    return {"workload": args.workload, "trials": args.trials,
            "slots": args.slots, "seeds": seeds, "parent": parent,
            "change": change,
            **verdict(parent, change, args.margin, args.tail)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("hex", "regret"),
                        help="hex: write journals with floats as hex; "
                             "regret: compare two trees' final regret")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="branin-50",
                        help="jobs to run (default branin-50, criterion 4's)")
    parser.add_argument("--src", action="append", type=Path, default=[],
                        help="directory holding the tunekit package; hex "
                             "takes it once (default: this checkout's), "
                             "regret twice, the parent's first")
    parser.add_argument("--seeds", type=int, default=None,
                        help="number of seeded jobs per tree (default 2 for "
                             "hex; regret needs it)")
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per job (default: the workload's)")
    parser.add_argument("--slots", type=int, default=None,
                        help="max_parallel of each job (default: the "
                             "workload's)")
    parser.add_argument("--margin", type=float, default=None,
                        help="override the workload's margin")
    parser.add_argument("--tail", type=float, default=None,
                        help="override the workload's tail")
    parser.add_argument("--out", type=Path, help="file to write to")
    parser.add_argument("--tree", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    row = WORKLOADS[args.workload]
    args.trials = args.trials or row.trials
    args.slots = args.slots or row.slots
    if args.seeds is None and args.mode == "hex":
        args.seeds = 2
    seeds = list(range(args.first_seed, args.first_seed + (args.seeds or 0)))
    if args.tree:
        row = row._replace(trials=args.trials, slots=args.slots)
        json.dump(run_tree(args.tree, row, seeds), sys.stdout)
        return 0
    if args.out is None or not (
            len(args.src) <= 1 if args.mode == "hex" else
            len(args.src) == 2 and seeds and row.tail is not None):
        parser.error("give --out; hex takes --src at most once, and regret "
                     "--src twice (parent, then change), --seeds of 1 or "
                     "more and a workload with a known optimum")
    if args.mode == "hex":
        tree = spawn_tree(args.src[0] if args.src else SRC, args)
        args.out.write_text("\n".join(hex_lines(tree)) + "\n")
        return 0
    args.margin = row.margin if args.margin is None else args.margin
    args.tail = row.tail if args.tail is None else args.tail
    report = regret_report(*(spawn_tree(src, args) for src in args.src),
                           args, seeds)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    parent, change = report["parent"], report["change"]
    print(f"{args.workload}: median regret {parent['median']:.4g} -> "
          f"{change['median']:.4g}, above {args.tail:g}: "
          f"{parent['above_tail']} -> {change['above_tail']}, "
          f"{'PASS' if report['verdict']['pass'] else 'FAIL'}")
    return 0 if report["verdict"]["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
