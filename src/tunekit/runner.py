"""Trial execution: subprocess children and built-in benchmark evaluation.

An executor owns a pool of worker slots.  ``launch`` starts one trial and
returns immediately; the trial then delivers :class:`TrialEvent` objects
through the ``emit`` callback it was given (metric reports followed by a
single completion or failure).  A trial that is stopped on request goes
silent instead of reporting a terminal event, because the coordinator has
already recorded its fate.

External children follow a small cross-language contract: the proposed
configuration is written to an ``hparams.json`` in the trial's working
directory, the environment carries ``TUNER_TRIAL_ID`` and
``TUNER_HPARAMS_FILE``, and the child reports metrics by printing lines of
the form ``tuner-metric name=<ident> iteration=<uint> value=<float>`` to
stdout.  Exit code 0 completes the attempt (the coordinator fails it if no
objective value arrived).  A non-finite objective value (``nan``, ``inf``,
or a literal that overflows) fails the attempt.  Each child leads its own
process group, and stopping it kills the whole group.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Literal, Protocol

import numpy as np

from .benchmarks import get_benchmark
from .space import (AT_LEAST_0, AT_LEAST_1, NOT_EMPTY, Configuration, Field,
                    check_field, check_fields, encode, one_of)

logger = logging.getLogger(__name__)

__all__ = [
    "ExecutorSpecError",
    "ExecutorSpec",
    "TrialEvent",
    "Executor",
    "BuiltinExecutor",
    "ExternalExecutor",
    "HPARAMS_FILENAME",
    "ENV_TRIAL_ID",
    "ENV_HPARAMS_FILE",
    "METRIC_LINE",
    "METRIC_NAME",
    "make_executor",
    "validate_executor_spec",
]

HPARAMS_FILENAME = "hparams.json"
ENV_TRIAL_ID = "TUNER_TRIAL_ID"
ENV_HPARAMS_FILE = "TUNER_HPARAMS_FILE"

# The metric names a child can report; an external job's objective must
# be one of them.
METRIC_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")
METRIC_LINE = re.compile(
    rf"^tuner-metric\s+name=({METRIC_NAME.pattern})\s+iteration=(\d+)\s+"
    r"value=([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
    r"|[-+]?(?i:nan|inf(?:inity)?))\s*$"
)

_POLL_INTERVAL = 0.05


class ExecutorSpecError(ValueError):
    """Executor specification fails validation."""


@dataclass(frozen=True)
class ExecutorSpec:
    """How trials are evaluated.

    ``kind="builtin"`` evaluates a registry benchmark in-process, with
    optional Gaussian noise, a simulated iteration count, and a
    per-iteration delay (``delay_spread`` scales the delay per trial by
    its first encoded coordinate, giving heterogeneous durations).
    ``kind="external"`` spawns ``command`` per trial; ``{hparams}``,
    ``{trial_id}``, and ``{workdir}`` placeholders in the command are
    substituted before spawning.
    """

    kind: Literal["builtin", "external"]
    benchmark: str | None = None
    noise_std: float = 0.0
    iterations: int = 1
    delay: float = 0.0
    delay_spread: float = 0.0
    command: tuple[str, ...] = ()
    workdir: str = ""
    timeout: float = 3600.0


_KIND = Field("kind", "enum", one_of("builtin", "external"))
# The executor block's keys by kind; README's "Config schema" lists them.
EXECUTOR_FIELDS = {
    "builtin": (
        _KIND,
        Field("benchmark", "string", NOT_EMPTY),
        Field("noise_std", "number", AT_LEAST_0),
        Field("iterations", "integer", AT_LEAST_1),
        Field("delay", "number", AT_LEAST_0),
        Field("delay_spread", "number", AT_LEAST_0),
    ),
    "external": (
        _KIND,
        Field("command", "strings", NOT_EMPTY),
        Field("workdir", "string"),
        Field("timeout", "number", ("> 0", lambda v: v > 0)),
    ),
}


def validate_executor_spec(spec: ExecutorSpec) -> ExecutorSpec:
    """Check ``spec`` by its kind's rows, then look its benchmark up."""
    rows = EXECUTOR_FIELDS[check_field(_KIND, spec.kind, ExecutorSpecError)]
    check_fields(spec, rows, ExecutorSpecError)
    if spec.kind == "builtin":
        get_benchmark(spec.benchmark)
    return spec


@dataclass(slots=True)
class TrialEvent:
    """One message from a running trial to the coordinator.

    Not frozen, since a frozen dataclass costs several times more to build
    and each trial emits one per report; an emitted event belongs to the
    coordinator and must not be changed.
    """

    kind: Literal["metric", "completed", "failed"]
    trial_id: str
    metric: str | None = None
    iteration: int | None = None
    value: float | None = None
    reason: str | None = None


EmitFn = Callable[[TrialEvent], None]


class Executor(Protocol):
    """Contract between the scheduler and any trial execution backend."""

    @property
    def spec(self) -> ExecutorSpec: ...

    def launch(self, trial_id: str, config: Configuration, seed: int,
               emit: EmitFn) -> None: ...

    def request_stop(self, trial_id: str) -> None: ...

    def shutdown(self) -> None: ...


class _PooledExecutor:
    """Runs each trial's ``_run`` on a thread pool with a per-trial stop flag.

    A flag lives from its attempt's launch to the return of its run, so an
    executor holds none for finished trials.  Subclasses set ``kind`` to
    the ``ExecutorSpec.kind`` they accept and implement
    ``_run(trial_id, config, seed, emit, stop)``.
    """

    kind: str

    def __init__(self, spec: ExecutorSpec, objective_metric: str,
                 max_workers: int) -> None:
        validate_executor_spec(spec)
        if spec.kind != self.kind:
            raise ExecutorSpecError(
                f"{type(self).__name__} requires kind={self.kind!r}")
        self._spec = spec
        self._metric = objective_metric
        self._pool = ThreadPoolExecutor(max_workers=max_workers,
                                        thread_name_prefix="trial")
        self._lock = threading.Lock()
        # The stop flag of each attempt that has not yet returned.
        self._stops: dict[str, threading.Event] = {}

    @property
    def spec(self) -> ExecutorSpec:
        return self._spec

    def launch(self, trial_id: str, config: Configuration, seed: int,
               emit: EmitFn) -> None:
        flag = threading.Event()
        with self._lock:
            self._stops[trial_id] = flag  # replaces an older attempt's
        self._pool.submit(self._attempt, trial_id, config, seed, emit, flag)

    def _attempt(self, trial_id: str, config: Configuration, seed: int,
                 emit: EmitFn, flag: threading.Event) -> None:
        try:
            self._run(trial_id, config, seed, emit, flag)
        finally:
            # Only this attempt's flag: a retry's newer one stays.
            with self._lock:
                if self._stops.get(trial_id) is flag:
                    del self._stops[trial_id]

    def request_stop(self, trial_id: str) -> None:
        """Stop the trial's current attempt; a no-op once it has returned."""
        with self._lock:
            flag = self._stops.get(trial_id)
        if flag is not None:
            flag.set()

    def shutdown(self) -> None:
        # Each trial sees its flag at its next check and returns (a child
        # process group is killed within one poll).
        with self._lock:
            flags = list(self._stops.values())
        for flag in flags:
            flag.set()
        self._pool.shutdown(wait=True)


class BuiltinExecutor(_PooledExecutor):
    """Evaluates registry benchmarks on a thread pool.

    Emissions are pure given (config, seed): the same trial seed yields
    the same noise draws regardless of scheduling.
    """

    kind = "builtin"

    def __init__(self, spec: ExecutorSpec, objective_metric: str,
                 max_workers: int) -> None:
        super().__init__(spec, objective_metric, max_workers)
        self._benchmark = get_benchmark(spec.benchmark)

    def _trial_delay(self, config: Configuration) -> float:
        spec = self._spec
        if spec.delay <= 0:
            return 0.0
        factor = 1.0
        if spec.delay_spread > 0:
            factor += spec.delay_spread * float(
                encode(config, self._benchmark.space)[0])
        return spec.delay * factor

    def _run(self, trial_id: str, config: Configuration, seed: int,
             emit: EmitFn, stop: threading.Event) -> None:
        spec = self._spec
        try:
            rng = np.random.default_rng(seed)
            delay = self._trial_delay(config)
            # Bound once per attempt: the loop body runs once per report.
            curve_value = self._benchmark.curve_value
            evaluate = self._benchmark.evaluate
            noise_std, metric, stopped = spec.noise_std, self._metric, stop.is_set
            for r in range(1, spec.iterations + 1):
                if stopped():
                    return
                if delay > 0:
                    time.sleep(delay)
                if curve_value is not None:
                    value = curve_value(config, r)
                else:
                    value = evaluate(config)
                if noise_std > 0:
                    value += noise_std * rng.standard_normal()
                emit(TrialEvent("metric", trial_id, metric, r, float(value)))
            if stopped():
                return
            emit(TrialEvent("completed", trial_id))
        except Exception:
            logger.exception("builtin trial %s raised", trial_id)
            emit(TrialEvent("failed", trial_id, reason="executor_error"))


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the child's process group; call only before reaping it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class ExternalExecutor(_PooledExecutor):
    """Runs each trial as a subprocess under the stdout metric protocol.

    Trial directories go under ``spec.workdir``, or without one under a
    fresh ``tunekit-trials-*`` temp directory that ``shutdown`` removes.
    """

    kind = "external"

    def __init__(self, spec: ExecutorSpec, objective_metric: str,
                 max_workers: int) -> None:
        super().__init__(spec, objective_metric, max_workers)
        self._own_dir = not spec.workdir
        self._base_dir = Path(spec.workdir) if spec.workdir else Path(
            tempfile.mkdtemp(prefix="tunekit-trials-"))

    def shutdown(self) -> None:
        """Drain the pool, then remove the trial directory if this made it."""
        super().shutdown()
        if self._own_dir:
            shutil.rmtree(self._base_dir, ignore_errors=True)

    def _command_for(self, trial_dir: Path, trial_id: str) -> list[str]:
        substitutions = {
            "{hparams}": str(trial_dir / HPARAMS_FILENAME),
            "{trial_id}": trial_id,
            "{workdir}": str(trial_dir),
        }
        out = []
        for arg in self._spec.command:
            for key, value in substitutions.items():
                arg = arg.replace(key, value)
            out.append(arg)
        return out

    def _run(self, trial_id: str, config: Configuration, seed: int,
             emit: EmitFn, stop: threading.Event) -> None:
        del seed  # children derive their own randomness from hparams
        trial_dir = self._base_dir / trial_id
        hparams_path = trial_dir / HPARAMS_FILENAME
        env = dict(os.environ)
        env[ENV_TRIAL_ID] = trial_id
        env[ENV_HPARAMS_FILE] = str(hparams_path)
        try:
            trial_dir.mkdir(parents=True, exist_ok=True)
            # json round-trips Python floats exactly (shortest-repr
            # encoding), so the child sees bit-identical numbers.
            hparams_path.write_text(
                json.dumps(dict(config.values), indent=2) + "\n")
            proc = subprocess.Popen(
                self._command_for(trial_dir, trial_id),
                cwd=trial_dir, env=env, text=True, encoding="utf-8",
                errors="replace", start_new_session=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            logger.warning("trial %s failed to spawn: %s", trial_id, exc)
            emit(TrialEvent("failed", trial_id, reason="spawn_failure"))
            return

        non_finite = threading.Event()

        def consume_stdout() -> None:
            for line in proc.stdout:
                match = METRIC_LINE.match(line.rstrip("\n"))
                if not match:
                    continue
                name, iteration, value = match.groups()
                if name == self._metric and not math.isfinite(float(value)):
                    non_finite.set()
                    break
                emit(TrialEvent("metric", trial_id, name, int(iteration),
                                float(value)))
            proc.stdout.close()

        reader = threading.Thread(target=consume_stdout, daemon=True)
        reader.start()
        deadline = time.monotonic() + self._spec.timeout
        while True:
            timed_out = time.monotonic() >= deadline
            if stop.is_set() or non_finite.is_set() or timed_out:
                _kill_group(proc)
                break
            try:
                proc.wait(timeout=_POLL_INTERVAL)
                break
            except subprocess.TimeoutExpired:
                continue
        proc.wait()
        reader.join(timeout=5.0)
        if stop.is_set():
            return
        if non_finite.is_set():
            emit(TrialEvent("failed", trial_id, reason="non_finite_metric"))
        elif timed_out:
            emit(TrialEvent("failed", trial_id, reason="timeout"))
        elif proc.returncode != 0:
            emit(TrialEvent("failed", trial_id,
                            reason=f"exit_code_{proc.returncode}"))
        else:
            emit(TrialEvent("completed", trial_id))


def make_executor(spec: ExecutorSpec, objective_metric: str,
                  max_workers: int) -> Executor:
    """Instantiate the executor matching ``spec.kind``."""
    if spec.kind == "builtin":
        return BuiltinExecutor(spec, objective_metric, max_workers)
    return ExternalExecutor(spec, objective_metric, max_workers)
