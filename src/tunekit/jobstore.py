"""Crash-recoverable filesystem persistence for tuning jobs.

Layout per job under the store root::

    <root>/<job_id>/job.json            config, written once at creation
    <root>/<job_id>/events.log          append-only JSON-lines event journal
    <root>/<job_id>/stop                empty; present once a stop was requested

The event journal is the source of truth, the job status included.
:func:`apply_event` is the only code that interprets an event: the
coordinator applies each event it journals through it, :func:`replay_events`
folds a whole journal with it, and :meth:`JobStore.job_status` applies the
journal's status lines with it, so live, replayed and listed state agree.
That includes the hyperparameter chain: a model-phase ``trial_launched``
carries ``"proposal": {"log_theta": [...]}``, where the next model
proposal's chain starts; and ``TuningJobState.completed``, the completed
curves the median rule reads, which each ``trial_completed`` extends.

job.json is never written after :meth:`JobStore.create_job`.  A stop
request is the file ``stop``: ``tunekit stop`` creates it with
``O_EXCL``, so no file in a job directory has two writers, and the
coordinator's stop check is one ``stat`` of it.  A store an older version
wrote may instead hold ``"status": "stopping"`` in job.json, which still
counts as a stop request.  ``list`` and ``stop`` parse only the journal's
``job_status_changed`` lines (:meth:`JobStore.job_status`).

Durability is group-committed.  :meth:`JobStore.append_event` encodes
each line into a per-job buffer, and :meth:`JobStore.sync` writes the
buffer with one write and fsyncs it.  The coordinator syncs before
anything outside it depends on the journal (a launch, a stop request, a
job status change) and before it waits for events, so after a crash of
the process or a power loss the journal is a prefix that still holds
every launch, stop and status change that took effect; the lines since
the last sync are lost, and resume handles that as it handles any
crash.  Another reader sees the journal as of the last sync; the
writing :class:`JobStore` also reads its own unsynced lines.

A line exists once its newline is written: :meth:`JobStore.sync`
acknowledges nothing before its whole write and fsync return, so bytes
after the journal's last newline are a torn append (a crash mid-write).
One cut, :func:`_torn_length`, finds them for reads and appends alike:
every read drops them with a warning, and the first append of a
:class:`JobStore` truncates them away first.  A complete line that does
not parse is corruption wherever it sits.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import uuid
from pathlib import Path

import numpy as np

from .jobs import (
    JobConfigError,
    TrialRecord,
    TuningJobConfig,
    TuningJobState,
    job_config_from_dict,
    job_config_to_dict,
    trial_record_to_dict,
)
from .runner import METRIC_NAME, ExecutorSpec
from .space import Configuration, encode
from .stopping import MetricCurve
from .surrogate import GpHyperParams

logger = logging.getLogger(__name__)

__all__ = [
    "StoreError",
    "AlreadyExistsError",
    "NotFoundError",
    "CorruptStoreError",
    "EVENT_TYPES",
    "JobStore",
]

EVENT_TYPES = frozenset({
    "trial_launched",
    "metric_reported",
    "trial_completed",
    "trial_failed",
    "trial_stopped",
    "job_status_changed",
})


# Compact lines; one encoder, since json.dumps with non-default
# separators builds a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
# The Python types of a JSON number; bool, a subclass of int, is not one.
_JSON_NUMBER = (float, int)
# What apply_event raises on a malformed event.
_MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


class StoreError(RuntimeError):
    pass


class AlreadyExistsError(StoreError):
    pass


class NotFoundError(StoreError):
    pass


class CorruptStoreError(StoreError):
    pass


def _atomic_write_json(path: Path, payload: dict) -> None:
    # A name of its own per write: concurrent writers never share a temp file.
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _torn_length(raw: bytes) -> int:
    """The length of the torn append after the journal's last newline."""
    return len(raw) - raw.rfind(b"\n") - 1


class JobStore:
    """Single-writer persistence rooted at a directory.

    The coordinator that runs a job is the only writer of its journal, and
    :meth:`set_status` of its ``stop`` file; list/describe may read
    concurrently and see the journal as of the writer's last :meth:`sync`.
    The writing store's own reads also see its lines not yet synced.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._event_handles: dict[str, io.FileIO] = {}
        # Encoded lines not yet written, per job.
        self._pending: dict[str, list[str]] = {}
        # Jobs with lines written since their last fsync.
        self._unsynced: set[str] = set()

    # -- paths -------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def _job_json(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def _events_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "events.log"

    # -- job lifecycle -----------------------------------------------------

    def job_exists(self, job_id: str) -> bool:
        return self._job_json(job_id).is_file()

    def create_job(self, config: TuningJobConfig, executor: ExecutorSpec) -> str:
        """Validate, then write the job directory; nothing touches disk on error.

        It fsyncs the job directory and the root, so a power loss cannot
        lose the new job.  An external job's objective must be a name its
        child can report; a stored job is not checked again on load.
        """
        payload = job_config_to_dict(config, executor)
        job_config_from_dict(payload)  # round-trip sanity before any write
        name = config.objective.name
        if executor.kind == "external" and not METRIC_NAME.fullmatch(name):
            raise JobConfigError(
                f"objective.name {name!r} can never be reported by an "
                f"external command: metric names match {METRIC_NAME.pattern}")
        if self._job_json(config.job_id).exists():
            raise AlreadyExistsError(f"job {config.job_id!r} already exists")
        try:
            self.job_dir(config.job_id).mkdir(parents=True, exist_ok=True)
            _atomic_write_json(self._job_json(config.job_id), payload)
            self._events_path(config.job_id).touch()
            _fsync_dir(self.job_dir(config.job_id))
            _fsync_dir(self.root)
        except OSError as exc:
            raise StoreError(f"cannot create job {config.job_id!r}: {exc}") from exc
        return config.job_id

    def read_job_file(self, job_id: str) -> dict:
        path = self._job_json(job_id)
        if not path.is_file():
            raise NotFoundError(f"job {job_id!r} not found under {self.root}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptStoreError(f"cannot read job.json for {job_id!r}: {exc}") from exc
        if not isinstance(payload, dict):
            raise CorruptStoreError(f"job.json for {job_id!r} is not an object")
        return payload

    def read_config(self, job_id: str) -> tuple[TuningJobConfig, ExecutorSpec,
                                               str]:
        """job.json parsed: the config, the executor and its raw status."""
        payload = self.read_job_file(job_id)
        try:
            return job_config_from_dict(payload)
        except JobConfigError as exc:
            raise CorruptStoreError(f"invalid job.json for {job_id!r}: {exc}") from exc

    def set_status(self, job_id: str, status: str) -> None:
        """Request a stop, the one status settable: create the job's ``stop``
        file with ``O_EXCL`` and fsync the job directory.  A request already
        made counts as done, so concurrent requests all succeed."""
        if status != "stopping":
            raise ValueError(f"only 'stopping' can be set, not {status!r}")
        if not self.job_exists(job_id):
            raise NotFoundError(f"job {job_id!r} not found under {self.root}")
        try:
            with contextlib.suppress(FileExistsError):
                open(self.job_dir(job_id) / "stop", "xb").close()  # O_EXCL
            _fsync_dir(self.job_dir(job_id))
        except OSError as exc:
            raise StoreError(f"cannot request a stop for {job_id!r}: {exc}") from exc

    def read_status(self, job_id: str) -> str:
        """``stopping`` once the job's ``stop`` file exists, else ``created``:
        one ``stat``.  A missing job reads as no request; the coordinator
        asks only about a job whose journal it holds open."""
        try:
            # Joining Paths would cost twice the stat; this runs per launch.
            os.stat(f"{self.root}/{job_id}/stop")
        except FileNotFoundError:
            return "created"
        except OSError as exc:
            raise StoreError(f"cannot stat the stop file of {job_id!r}: {exc}") from exc
        return "stopping"

    def job_status(self, job_id: str) -> str:
        """The status :meth:`load_job` reports, without a replay.

        Only the journal lines that contain ``job_status_changed`` are
        parsed: the status is the last status event among them, or
        ``created`` when there is none.  A status line that does not parse
        raises ``CorruptStoreError``; corruption in any other line is left
        to :meth:`load_job`.  A stop request overrides any status but
        ``completed``.
        """
        config, _, request = self.read_config(job_id)
        return self._with_stop_request(
            job_id, _last_status(config, self._journal_bytes(job_id)), request)

    def _with_stop_request(self, job_id: str, status: str, request: str) -> str:
        """``status`` with a stop request on top: ``stopping`` beats every
        status but ``completed``.  The request is the ``stop`` file or, in a
        store an older version wrote, job.json's status, ``request``."""
        if status != "completed" and "stopping" in (request,
                                                    self.read_status(job_id)):
            return "stopping"
        return status

    # -- events ------------------------------------------------------------

    def append_event(self, job_id: str, event: dict) -> None:
        """Encode one journal line into the job's buffer.

        :meth:`sync` writes and fsyncs the buffer.  Until then the line is
        visible only to this store's reads, and a crash of this process
        loses it.
        """
        if event.get("type") not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event.get('type')!r}")
        pending = self._pending.get(job_id)
        if pending is None:
            if job_id not in self._event_handles:
                self._open_journal(job_id)
            pending = self._pending[job_id] = []
        pending.append(_ENCODER.encode(event) + "\n")

    def _open_journal(self, job_id: str) -> None:
        """Open the journal for appends, cutting a torn tail first so the
        next line cannot join it; the handle is left at the cut, the length
        :meth:`sync` truncates back to after a failed write."""
        if not self.job_exists(job_id):
            raise NotFoundError(f"job {job_id!r} not found under {self.root}")
        handle = None
        try:
            handle = open(self._events_path(job_id), "ab+", buffering=0)
            handle.seek(0)
            raw = handle.readall()
            end = len(raw) - _torn_length(raw)
            if end < len(raw):
                logger.warning("job %s: dropping a torn journal line of %d "
                               "bytes before appending", job_id, len(raw) - end)
                handle.truncate(end)
            handle.seek(end)
        except OSError as exc:
            if handle is not None:
                handle.close()
            raise StoreError(f"cannot open events.log: {exc}") from exc
        self._event_handles[job_id] = handle

    def sync(self, job_id: str) -> None:
        """Write the job's buffered lines with one write and fsync them.

        A failed write truncates the journal back to its earlier length
        and keeps the lines buffered; a failed fsync keeps the written
        lines marked for the next sync.  Either way a retry journals
        every line once.
        """
        pending = self._pending.get(job_id)
        if pending:
            handle = self._event_handles[job_id]
            data = memoryview("".join(pending).encode("utf-8"))
            start = handle.tell()
            try:
                while data:
                    data = data[handle.write(data):]
            except OSError as exc:
                try:
                    handle.truncate(start)
                except OSError:
                    # Part of the batch stays on disk, so the batch is
                    # dropped; the next append reopens the journal and
                    # drops a torn tail.
                    self._drop_journal(job_id)
                raise StoreError(f"cannot write events.log: {exc}") from exc
            self._unsynced.add(job_id)
            pending.clear()
        if job_id not in self._unsynced:
            return
        try:
            os.fsync(self._event_handles[job_id].fileno())
        except OSError as exc:
            raise StoreError(f"cannot sync events.log: {exc}") from exc
        self._unsynced.discard(job_id)

    def close_job(self, job_id: str) -> None:
        """Sync the job's journal, then close its handle.

        A job run by the coordinator leaves lines pending only when it
        ended early, so a failed sync is logged rather than raised over
        the error being handled; the lines it could not write are lost.
        """
        if job_id not in self._event_handles:
            return
        try:
            self.sync(job_id)
        except StoreError as exc:
            logger.warning("job %s: %s", job_id, exc)
        if job_id in self._event_handles:
            self._drop_journal(job_id)

    def _drop_journal(self, job_id: str) -> None:
        handle = self._event_handles.pop(job_id)
        self._pending.pop(job_id, None)
        self._unsynced.discard(job_id)
        try:
            handle.close()
        except OSError:
            pass

    def close(self) -> None:
        """:meth:`close_job` every job with an open journal."""
        for job_id in list(self._event_handles):
            self.close_job(job_id)

    def _journal_bytes(self, job_id: str) -> bytes:
        """events.log's complete lines, then this store's unsynced lines.

        The result is empty or ends with a newline: bytes after the
        file's last newline are a torn append, left out with a warning.
        """
        path = self._events_path(job_id)
        if not path.is_file():
            if not self.job_exists(job_id):
                raise NotFoundError(f"job {job_id!r} not found under {self.root}")
            return b""
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise StoreError(f"cannot read events.log: {exc}") from exc
        torn = _torn_length(raw)
        if torn:
            logger.warning("job %s: discarding torn final journal line "
                           "(%d bytes)", job_id, torn)
            raw = raw[:-torn]
        return raw + "".join(self._pending.get(job_id, ())).encode("utf-8")

    def read_events(self, job_id: str) -> list[dict]:
        """The journal's entries, then this store's unsynced ones.

        A line that does not parse as UTF-8 JSON raises
        ``CorruptStoreError`` naming its number.
        """
        raw = self._journal_bytes(job_id)
        if not raw:
            return []
        raw = raw[:-1]
        # One parse of the whole journal as an array, accepted only when it
        # holds one object per line; otherwise the line-by-line loop finds
        # the corrupt line.
        try:
            events = json.loads(
                "[" + raw.decode("utf-8").replace("\n", ",\n") + "]")
        except ValueError:
            pass
        else:
            if (len(events) == raw.count(b"\n") + 1
                    and all(type(event) is dict for event in events)):
                return events
        lines = raw.split(b"\n")
        events = []
        for number, line in enumerate(lines, start=1):
            try:
                events.append(json.loads(line.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CorruptStoreError(
                    f"corrupt journal line {number} for job {job_id!r}"
                ) from exc
        return events

    # -- trial snapshots ---------------------------------------------------

    def write_trial(self, job_id: str, record: TrialRecord) -> None:
        """Write an atomic snapshot under ``trials/``.  Jobs no longer call
        this; it stays only because ``bench/spans.py`` wraps it."""
        path = self.job_dir(job_id) / "trials" / f"{record.trial_id}.json"
        try:
            path.parent.mkdir(exist_ok=True)
            _atomic_write_json(path, trial_record_to_dict(record))
        except OSError as exc:
            raise StoreError(f"cannot write trial {record.trial_id!r}: {exc}") from exc

    # -- state reconstruction ---------------------------------------------

    def load_job(self, job_id: str) -> tuple[TuningJobConfig, ExecutorSpec,
                                             TuningJobState]:
        """Rebuild job state by replaying the journal.

        A pure read: trials a crash left running stay ``running`` here, and
        the coordinator journals their interrupted attempts when it resumes
        the job.  The status is the journal's, or ``stopping`` when a stop
        was requested of a job that has not completed.
        """
        config, executor, request = self.read_config(job_id)
        state = replay_events(config, self.read_events(job_id))
        state.status = self._with_stop_request(job_id, state.status, request)
        return config, executor, state

    # -- read-only views ---------------------------------------------------

    def list_jobs(self) -> list[tuple[str, str]]:
        """(job_id, :meth:`job_status`) for every job under the root, or
        ``unreadable`` where that raises.  No journal is replayed."""
        out = []
        if not self.root.is_dir():
            return out
        for entry in sorted(self.root.iterdir()):
            if not self.job_exists(entry.name):
                continue
            try:
                out.append((entry.name, self.job_status(entry.name)))
            except StoreError:
                out.append((entry.name, "unreadable"))
        return out

    def describe(self, job_id: str) -> dict:
        """Summary of a job: counts, status, and the incumbent."""
        config, _, state = self.load_job(job_id)
        best = state.incumbent(config.objective.goal)
        return {
            "job_id": job_id,
            "status": state.status,
            "strategy": config.strategy,
            "objective": config.objective.name,
            "goal": config.objective.goal,
            "max_trials": config.max_trials,
            "counts": {
                status: state.count(status)
                for status in ("pending", "running", "completed", "failed",
                               "early_stopped")
            },
            "best_trial": best.trial_id if best else None,
            "best_value": best.final_value if best else None,
            "best_config": dict(best.config.values) if best else None,
        }


def _last_status(config: TuningJobConfig, raw: bytes) -> str:
    """The status the journal's ``job_status_changed`` events leave.

    ``raw`` holds complete lines, as :meth:`JobStore._journal_bytes`
    returns them.  Only the lines holding ``job_status_changed`` are
    parsed, and each status event among them is applied with
    :func:`apply_event`, so a status line a replay refuses is corrupt here.
    """
    state = TuningJobState()
    hit = raw.find(b"job_status_changed")
    while hit >= 0:
        start = raw.rfind(b"\n", 0, hit) + 1
        stop = raw.find(b"\n", hit)
        hit = raw.find(b"job_status_changed", stop)
        try:
            event = json.loads(raw[start:stop].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            number = raw.count(b"\n", 0, start) + 1
            raise CorruptStoreError(
                f"corrupt journal line {number} for job {config.job_id!r}"
            ) from exc
        if type(event) is dict and event.get("type") == "job_status_changed":
            try:
                apply_event(config, state, event)
            except _MALFORMED as exc:
                number = raw.count(b"\n", 0, start) + 1
                raise CorruptStoreError(
                    f"malformed journal line {number} for job "
                    f"{config.job_id!r}: {type(exc).__name__}: {exc}") from exc
    return state.status


def _chain_log_theta(config: TuningJobConfig, proposal: dict) -> np.ndarray:
    """The hyperparameter log vector a model launch journaled."""
    log_theta = np.array(proposal["log_theta"], dtype=float)
    if not np.isfinite(log_theta).all():
        raise ValueError("proposal log_theta must hold finite floats")
    GpHyperParams.from_log_vector(log_theta, config.space.encoded_width)
    return log_theta


def apply_event(config: TuningJobConfig, state: TuningJobState,
                event: dict) -> None:
    """Apply one journal entry to ``state``; raises on malformed entries.

    Each field must hold its JSON type, never coerced: ``status`` and
    ``reason`` strings; ``ts``, ``value`` and ``final_value`` numbers, not
    bools (a final value may be non-finite: such finals are journaled on
    purpose); ``terminal`` a bool; ``attempt`` and ``iteration`` integers.
    A ``trial_completed`` adds its trial's curve to ``state.completed``.
    """
    etype = event.get("type")
    ts = event.get("ts", 0.0)
    if type(ts) not in _JSON_NUMBER:
        raise TypeError(f"ts {ts!r} is not a number")
    if etype == "job_status_changed":
        status = event["status"]
        if type(status) is not str:
            raise TypeError(f"status {status!r} is not a string")
        state.status = status
        return
    trial_id = event.get("trial_id")
    if not trial_id:
        raise CorruptStoreError(f"event without trial_id: {event!r}")
    if etype == "trial_launched":
        seen = state.trials.get(trial_id)
        attempt = event.get("attempt", 1 if seen is None else seen.attempts + 1)
        if type(attempt) is not int:
            raise ValueError(f"attempt {attempt!r} is not an integer")
        cfg = Configuration(dict(event["config"]))
        encoded = (np.array(event["encoded"], dtype=float)
                   if "encoded" in event else encode(cfg, config.space))
        if "proposal" in event:
            state.chain_log_theta = _chain_log_theta(config, event["proposal"])
        if seen is None:
            state.trials[trial_id] = TrialRecord(
                trial_id=trial_id, config=cfg, encoded=encoded,
                status="running", curve=MetricCurve(trial_id),
                attempts=attempt, started=float(ts),
            )
        else:
            # Relaunch of the same trial (retry): fresh curve, same config.
            seen.status = "running"
            seen.attempts = attempt
            seen.curve = MetricCurve(trial_id)
            seen.final_value = None
            seen.started = (float(ts) if "ts" in event
                            else seen.started or 0.0)
            seen.finished = None
        return
    trial = state.trials.get(trial_id)
    if trial is None:
        raise CorruptStoreError(
            f"event for unknown trial {trial_id!r}: {event!r}")
    if etype == "metric_reported":
        value = event["value"]
        if type(value) not in _JSON_NUMBER:
            raise TypeError(f"value {value!r} is not a number")
        trial.curve.append(event["iteration"], float(value))
    elif etype == "trial_completed" or etype == "trial_stopped":
        final = event["final_value"]
        if type(final) not in _JSON_NUMBER:
            raise TypeError(f"final_value {final!r} is not a number")
        trial.final_value = float(final)
        trial.finished = float(ts)
        if etype == "trial_completed":
            trial.status = "completed"
            state.completed.add(trial.curve)
        else:
            trial.status = "early_stopped"
    elif etype == "trial_failed":
        reason = event.get("reason", "unknown")
        terminal = event.get("terminal", True)
        if type(reason) is not str:
            raise TypeError(f"reason {reason!r} is not a string")
        if type(terminal) is not bool:
            raise TypeError(f"terminal {terminal!r} is not a bool")
        trial.failure_reason = reason
        if terminal:
            trial.status = "failed"
            trial.finished = float(ts)
        else:
            trial.status = "pending"
            trial.final_value = None
    else:
        raise CorruptStoreError(f"unknown event type {etype!r}")


def replay_events(config: TuningJobConfig, events: list[dict]) -> TuningJobState:
    """Fold a journal into a TuningJobState. Pure; raises on malformed entries.

    A missing or ill-typed field raises ``CorruptStoreError`` naming the
    1-based index of the event, which is its line in events.log.
    """
    state = TuningJobState(status="created")
    for index, event in enumerate(events, start=1):
        try:
            apply_event(config, state, event)
        except _MALFORMED as exc:
            raise CorruptStoreError(
                f"malformed journal event {index} for job {config.job_id!r}: "
                f"{type(exc).__name__}: {exc}") from exc
    return state
