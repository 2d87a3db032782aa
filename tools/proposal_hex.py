"""Write seeded tuning journals with every float as hex, to diff behaviour.

    python tools/proposal_hex.py --trials 50 --out proposals.hex
    python tools/proposal_hex.py --slots 4 --trials 30 --out slots4.hex
    python tools/proposal_hex.py --mode curve-stop --out curve-stop.hex

The default mode, ``bo``, runs the Bayesian Branin jobs of acceptance
criterion 4 (``noise_std`` 0.5, one slot by default, ``--slots`` for
more).  ``--mode curve-stop`` runs random search on the 100-iteration
``curve-sim`` learning curves with median early stopping and two slots,
the jobs of the ``curve-stop-journal`` bench workload at 60 trials, so
the journal records the stopping rule's decisions.  Either mode runs its
jobs for seeds 1000 and 1001 in process, each in a fresh temporary store,
and writes every job's journal to ``--out``: a ``# job <id>`` line, then
one JSON event per line with ``ts`` removed and every float written as
``float.hex``.  Two checkouts whose jobs behave the same bit for bit
write identical files, so ``diff`` of two outputs is the bit-identity
check for a change that must not alter proposals or stopping decisions.

Trials run inline: the executor evaluates a trial inside ``launch`` and
queues all its events before the coordinator goes on.  The coordinator
fills every slot before it handles an event, so the journal does not
depend on thread timing, and with N slots each model proposal after the
first fill sees N - 1 pending trials.  A stopped trial has already run to
its end; the coordinator drops the reports it queued after the stop.

tunekit is imported from the ``src/`` directory next to this one.
OpenBLAS runs on one thread, set before NumPy is imported, because a
threaded BLAS may sum in a different order and round differently.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import sys
import tempfile
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tunekit.benchmarks import get_benchmark
from tunekit.jobs import ObjectiveSpec, TuningJobConfig
from tunekit.jobstore import JobStore
from tunekit.runner import BuiltinExecutor, ExecutorSpec
from tunekit.scheduler import run_job
from tunekit.space import SearchSpace, continuous

SEEDS = (1000, 1001)
BRANIN_SPACE = SearchSpace([continuous("x1", -5.0, 10.0),
                            continuous("x2", 0.0, 15.0)])


def as_hex(value):
    """``value`` with every float, also inside lists and dicts, as hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: as_hex(item) for key, item in value.items()}
    if isinstance(value, list):
        return [as_hex(item) for item in value]
    return value


class InlineExecutor(BuiltinExecutor):
    """A builtin executor that runs each trial to its end inside ``launch``."""

    def launch(self, trial_id, config, seed, emit) -> None:
        self._run(trial_id, config, seed, emit, threading.Event())


def bo_job(seed: int, trials: int, slots: int) -> tuple[TuningJobConfig,
                                                       ExecutorSpec]:
    """One criterion-4 Bayesian Branin job."""
    config = TuningJobConfig(
        job_id=f"acc4-bo-{seed}", space=BRANIN_SPACE,
        objective=ObjectiveSpec("loss"), strategy="bayesian",
        max_trials=trials, max_parallel=slots, seed=seed)
    return config, ExecutorSpec(kind="builtin", benchmark="branin",
                                noise_std=0.5)


def curve_stop_job(seed: int, trials: int,
                   slots: int) -> tuple[TuningJobConfig, ExecutorSpec]:
    """One random ``curve-sim`` job with median stopping."""
    config = TuningJobConfig(
        job_id=f"curve-stop-{seed}", space=get_benchmark("curve-sim").space,
        objective=ObjectiveSpec("loss"), strategy="random",
        max_trials=trials, max_parallel=slots, early_stopping="median",
        seed=seed)
    return config, ExecutorSpec(kind="builtin", benchmark="curve-sim",
                                iterations=100)


# mode: (job builder, default trials, default slots)
MODES = {"bo": (bo_job, 50, 1), "curve-stop": (curve_stop_job, 60, 2)}


def journal_lines(config: TuningJobConfig, spec: ExecutorSpec) -> list[str]:
    """The hex journal of one job run inline."""
    with tempfile.TemporaryDirectory(prefix="proposal-hex-") as root:
        store = JobStore(root)
        executor = InlineExecutor(spec, config.objective.name, 1)
        try:
            run_job(config, store, executor)
            events = store.read_events(config.job_id)
        finally:
            executor.shutdown()
            store.close()
    lines = [f"# job {config.job_id}"]
    for event in events:
        event.pop("ts", None)
        lines.append(json.dumps(as_hex(event)))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="bo",
                        help="bo: criterion-4 Bayesian Branin jobs (default); "
                             "curve-stop: random curve-sim jobs with median "
                             "stopping")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per job (default 50 for bo, as "
                             "criterion 4, and 60 for curve-stop)")
    parser.add_argument("--slots", type=int, default=None,
                        help="max_parallel of each job (default 1 for bo, as "
                             "criterion 4, and 2 for curve-stop)")
    parser.add_argument("--out", required=True, type=Path,
                        help="file to write the hex journals to")
    args = parser.parse_args(argv)
    make_job, trials, slots = MODES[args.mode]
    jobs = [make_job(seed, args.trials or trials, args.slots or slots)
            for seed in SEEDS]
    lines = [line for config, spec in jobs
             for line in journal_lines(config, spec)]
    args.out.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
