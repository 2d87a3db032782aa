"""Command-line front end: run, list, describe, stop, and export jobs.

The run command takes a JSON config file in exactly the job.json schema
(see jobstore), so a stored job can be re-submitted verbatim.  Exit codes:
0 success, 1 job or store failure, 2 config error, 130 on interrupt.
An interrupted or crashed run resumes from its journal when re-invoked
with the same job id.  Log records at ``--log-level`` (default WARNING)
and above go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .jobs import JobConfigError, job_config_from_dict
from .jobstore import JobStore, StoreError
from .runner import make_executor
from .scheduler import JobAborted, ParentNotFoundError, run_job

DEFAULT_STORE = "tuner_jobs"
ENV_STORE = "TUNER_STORE"

EXIT_OK = 0
EXIT_JOB_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERRUPT = 130


def _store_from(args: argparse.Namespace) -> JobStore:
    # The environment variable wins over the flag so wrapper scripts can
    # pin a store location without rewriting command lines.
    root = os.environ.get(ENV_STORE) or args.store
    return JobStore(root)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return _fail(f"cannot read config file: {exc}", EXIT_CONFIG_ERROR)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return _fail(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}", EXIT_CONFIG_ERROR)
    try:
        config, executor_spec, _ = job_config_from_dict(payload)
    except JobConfigError as exc:
        return _fail(f"{path}: {exc}", EXIT_CONFIG_ERROR)
    if executor_spec is None:
        return _fail(f"{path}: job config is missing the 'executor' block",
                     EXIT_CONFIG_ERROR)
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    store = _store_from(args)
    if store.job_exists(config.job_id):
        # Resuming: the stored job, not the file, is authoritative.
        try:
            config, executor_spec, _ = store.load_job(config.job_id)
        except StoreError as exc:
            return _fail(str(exc), EXIT_JOB_FAILURE)

    executor = make_executor(executor_spec, config.objective.name,
                             config.max_parallel)
    try:
        state = run_job(config, store, executor)
    except KeyboardInterrupt:
        print(f"interrupted; rerun to resume job {config.job_id}",
              file=sys.stderr)
        return EXIT_INTERRUPT
    except ParentNotFoundError as exc:
        return _fail(str(exc), EXIT_CONFIG_ERROR)
    except (JobAborted, StoreError) as exc:
        return _fail(str(exc), EXIT_JOB_FAILURE)
    finally:
        executor.shutdown()
        store.close()

    best = state.incumbent(config.objective.goal)
    if best is None:
        print(f"job {config.job_id} finished without a successful trial")
        return EXIT_JOB_FAILURE
    pairs = ", ".join(f"{k}={v}" for k, v in best.config.values.items())
    print(f"job {config.job_id} finished: best {best.trial_id} "
          f"value={best.final_value:.6g} ({pairs})")
    return EXIT_OK


def cmd_list(args: argparse.Namespace) -> int:
    store = _store_from(args)
    for job_id, status in store.list_jobs():
        print(f"{job_id}\t{status}")
    return EXIT_OK


def cmd_describe(args: argparse.Namespace) -> int:
    store = _store_from(args)
    try:
        summary = store.describe(args.job_id)
    except StoreError as exc:
        return _fail(str(exc), EXIT_JOB_FAILURE)
    counts = summary["counts"]
    print(f"job:        {summary['job_id']}")
    print(f"status:     {summary['status']}")
    print(f"strategy:   {summary['strategy']}")
    print(f"objective:  {summary['objective']} ({summary['goal']})")
    print(f"trials:     {sum(counts.values())} of {summary['max_trials']} "
          f"(completed={counts['completed']}, early_stopped={counts['early_stopped']}, "
          f"failed={counts['failed']}, running={counts['running']}, "
          f"pending={counts['pending']})")
    if summary["best_trial"] is not None:
        pairs = ", ".join(f"{k}={v}" for k, v in summary["best_config"].items())
        print(f"best:       {summary['best_trial']} "
              f"value={summary['best_value']:.6g} ({pairs})")
    else:
        print("best:       none")
    return EXIT_OK


def cmd_stop(args: argparse.Namespace) -> int:
    store = _store_from(args)
    try:
        if store.load_job(args.job_id)[2].status == "completed":
            print(f"job {args.job_id} is already completed; nothing to stop")
            return EXIT_OK
        store.set_status(args.job_id, "stopping")
    except StoreError as exc:
        return _fail(str(exc), EXIT_JOB_FAILURE)
    print(f"job {args.job_id} marked stopping; running trials will finish")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    store = _store_from(args)
    try:
        config, _, state = store.load_job(args.job_id)
    except StoreError as exc:
        return _fail(str(exc), EXIT_JOB_FAILURE)
    names = config.space.names()
    header = ["trial_id", "status", "final_value", "started", "finished"] + names
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for trial_id in sorted(state.trials):
            trial = state.trials[trial_id]
            row = [
                trial.trial_id,
                trial.status,
                "" if trial.final_value is None else repr(trial.final_value),
                "" if trial.started is None else repr(trial.started),
                "" if trial.finished is None else repr(trial.finished),
            ]
            row.extend(repr(v) if isinstance(v, float) else str(v)
                       for v in (trial.config[name] for name in names))
            writer.writerow(row)
    finally:
        if args.output:
            out.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunekit",
        description="Local hyperparameter tuning jobs: Bayesian or random "
                    "search over external commands or builtin benchmarks.",
    )
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="lowest level of log record printed to stderr "
                             "(default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", default=DEFAULT_STORE,
                       help=f"job store directory (default {DEFAULT_STORE!r}; "
                            f"env {ENV_STORE} overrides)")

    p_run = sub.add_parser("run", help="run or resume a tuning job")
    p_run.add_argument("config", help="path to a job config JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed (new jobs only)")
    add_store(p_run)
    p_run.set_defaults(func=cmd_run)

    p_list = sub.add_parser("list", help="list jobs in the store")
    add_store(p_list)
    p_list.set_defaults(func=cmd_list)

    p_desc = sub.add_parser("describe", help="summarise one job")
    p_desc.add_argument("job_id")
    add_store(p_desc)
    p_desc.set_defaults(func=cmd_describe)

    p_stop = sub.add_parser("stop", help="ask a running job to stop")
    p_stop.add_argument("job_id")
    add_store(p_stop)
    p_stop.set_defaults(func=cmd_stop)

    p_exp = sub.add_parser("export", help="export a job's trials as CSV")
    p_exp.add_argument("job_id")
    p_exp.add_argument("--format", choices=["csv"], default="csv")
    p_exp.add_argument("--output", default=None,
                       help="write to a file instead of stdout")
    add_store(p_exp)
    p_exp.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level,
                        format="%(levelname)s %(name)s: %(message)s")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
