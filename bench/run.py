"""Run one tunekit benchmark workload and print its metrics.

    python3 bench/run.py --workload bo-branin-serial --seed 1 --seconds 50 --trace 0

Run from anywhere; tunekit is imported from the ``src/`` directory next to
this one, never from an installed copy.  With ``--trace 0`` the last line
of stdout is a JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
Earlier lines give the run record, every metric by name with its unit
and sample count, and the figures that are printed but not gated.  A
failed output check prints ``CHECK FAILED`` with the check's name and
exits 1.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
TMP_PARENT = REPO / ".bench_tmp"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30
# One BLAS thread unless the environment asks for more.  With the default
# pool, OpenBLAS threads spin beside the coordinator, and on a 2-core VM
# two 50-trial Branin jobs, each run twice, took 24-37 s of wall time and
# 20-27 s of coordinator-thread CPU, against 16-18 s and 15-18 s with one
# thread.  Measured that way a run mostly shows the host's load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-trials", type=int, default=None,
                        help="shrink every job (smoke tests only)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_tunekit() -> None:
    """Import tunekit from this checkout's src/; exit with an error if absent."""
    if not (SRC / "tunekit" / "__init__.py").is_file():
        sys.exit(f"error: no tunekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tunekit
    if Path(tunekit.__file__).resolve().parent != SRC / "tunekit":
        sys.exit(f"error: imported tunekit from {tunekit.__file__}, "
                 f"not from {SRC}")


def setup_probe(args: argparse.Namespace, tmp: Path) -> None:
    """Child process: wall and CPU time from importing tunekit to the first
    launch."""
    t0, cpu0 = time.perf_counter(), time.process_time()
    import_tunekit()
    import harness

    store = harness.JobStore(tmp / "store")
    try:
        job = harness.run_one(harness.WORKLOADS[args.workload], store,
                              "job-000", next(harness.job_seeds(args.seed)),
                              -math.inf, None)
    finally:
        store.close()
    _, _, launched = job.probe.launches[0]
    print(json.dumps({"wall_s": launched - t0,
                      "cpu_s": job.probe.first_launch_cpu - cpu0}))


def measure_setup(args: argparse.Namespace) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=REPO)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(args, workload, harness, store, tmp) -> tuple[dict, object]:
    setup = measure_setup(args)
    result = harness.run_jobs(workload, store, args.seed, args.seconds,
                              args.max_trials)
    harness.check_run(workload, result, args.max_trials is None)
    lat_ms = [x * 1e3 for x in result.latencies]
    cpu_lat_ms = [x * 1e3 for x in result.cpu_latencies]
    panel = result.panel
    trials = sum(j.terminal for j in panel)
    print(f"# samples: setup_s={len(setup)} launch={len(lat_ms)} "
          f"jobs={len(result.jobs)} full_jobs={len(panel)} "
          f"terminal_trials_in_full_jobs={trials}")
    if len(lat_ms) < 100:
        print(f"# warning: launch percentiles rest on {len(lat_ms)} "
              "samples (< 100)")
    # Printed for reading, not gated: wall-clock figures follow the host's
    # load (steal time), and the CPU p90 of curve-stop-journal falls
    # between two modes of its distribution and jumps from run to run.
    printed = {
        "launch_cpu_ms_p90": (harness.percentile(cpu_lat_ms, 90), "ms"),
        "launch_latency_ms_p50": (harness.percentile(lat_ms, 50), "ms"),
        "launch_latency_ms_p90": (harness.percentile(lat_ms, 90), "ms"),
        "trials_per_s": (trials / sum(j.wall_s for j in panel), "1/s"),
        "setup_wall_s": (statistics.median(p["wall_s"] for p in setup), "s"),
    }
    for name, (value, unit) in printed.items():
        print(f"# ungated: {name} = {value:.6g} {unit}")
    metrics = {
        "setup_s": (statistics.median(p["cpu_s"] for p in setup), "s"),
        "launch_cpu_ms_p50": (harness.percentile(cpu_lat_ms, 50), "ms"),
        "coordinator_cpu_ms_per_trial":
            (sum(j.cpu_s for j in panel) * 1e3 / trials, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return metrics, result


def traced(args, workload, harness, store, tmp) -> tuple[dict, object]:
    import spans

    reference = harness.reference_launches(workload, tmp, args.seed,
                                           args.max_trials)
    tracer = spans.Tracer()
    patches = spans.Patches(tracer)
    with patches:
        result = harness.run_jobs(workload, store, args.seed, args.seconds,
                                  args.max_trials, tracer.span, detail=True)
        harness.read_path(workload, store, result, tmp, tracer.span)
    harness.check(patches.restored(), "wrappers_restored",
                  "a traced attribute was not restored")
    harness.check_same_launches(reference, result.jobs[0])
    harness.check_run(workload, result, args.max_trials is None)
    print(f"# samples: describe={len(result.describe_s)} "
          f"resume={len(result.resume_s)} jobs={len(result.jobs)}")
    return spans.per_layer(tracer, result, store.root), result


def run(args: argparse.Namespace, tmp: Path) -> int:
    import_tunekit()
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(harness.WORKLOADS)}")
    store = harness.JobStore(tmp / "store")
    print("# run-record " + json.dumps(
        harness.run_record(REPO, store.root), sort_keys=True))
    print(f"# workload {workload.name}: {workload.why}")
    measure = traced if args.trace else end_to_end
    try:
        metrics, result = measure(args, workload, harness, store, tmp)
        correct = True
    except harness.CheckFailed as exc:
        print(f"CHECK FAILED [{exc.name}]: {exc}", file=sys.stderr)
        metrics, result, correct = {}, None, False
    finally:
        store.close()

    attempted = failed = 0
    if result is not None:
        attempted = sum(job.attempted for job in result.jobs)
        failed = sum(job.failed for job in result.jobs)
        print(f"# failed_frac = {failed / max(attempted, 1):.6g} ratio "
              f"({failed} of {attempted} attempts)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy loads; probes inherit it
        os.environ.setdefault(var, "1")
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        if args.setup_probe:
            setup_probe(args, tmp)
            return 0
        return run(args, tmp)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
