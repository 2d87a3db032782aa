"""Spans around tunekit's layers for the traced run, and the per-layer metrics.

tunekit's modules import names directly (``from .acquisition import
propose``), so each wrapper is installed at the attribute the caller looks
up, not where the function is defined.  :class:`Patches` installs them for
the duration of a ``with`` block and puts every original back on exit.
Spans live in flat arrays in memory until the run ends; a span's parent
is the innermost open span on the same thread.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from array import array
from pathlib import Path

import numpy as np

from harness import percentile
from tunekit import acquisition, inference, scheduler
from tunekit.jobstore import JobStore

class Tracer:
    """Collects (name, start, end, parent, size, ok) spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.size = array("q")
        self.ok = array("b")
        self._lock = threading.Lock()
        self._local = threading.local()
        # (store root, job id, trial id, iteration) -> time the coordinator
        # handed the metric to append_event.
        self.journaled: dict[tuple, float] = {}

    def begin(self, name: str, size: int = 0) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.size.append(size)
            self.ok.append(0)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def finish(self, idx: int, ok: bool = True) -> None:
        self.end[idx] = time.perf_counter()
        self.ok[idx] = ok
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self.finish(idx, ok)

    def wrap(self, name: str, fn, size_in=None, size_out=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, size_in(*args) if size_in else 0)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.finish(idx, ok)
            if size_out is not None:
                self.size[idx] = size_out(result)
            return result
        return traced


class Patches:
    """Installs the tracer's wrappers at every lookup site, then undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _plan(self) -> list[tuple[object, str, object]]:
        t = self._tracer
        lml_function = inference.lml_function

        def traced_lml_function(design, y):
            return t.wrap("inference.lml", lml_function(design, y))

        plan = [
            (scheduler, "next_candidate",
             t.wrap("scheduler.next_candidate", scheduler.next_candidate)),
            (scheduler, "slice_sample_thetas",
             t.wrap("inference.slice_sample", scheduler.slice_sample_thetas)),
            (scheduler, "fit_posterior",
             t.wrap("surrogate.fit_posterior", scheduler.fit_posterior)),
            (scheduler, "propose",
             t.wrap("acquisition.propose", scheduler.propose)),
            (scheduler, "median_rule",
             t.wrap("stopping.median_rule", scheduler.median_rule)),
            (acquisition, "acquisition_values",
             t.wrap("acquisition.acquisition_values",
                    acquisition.acquisition_values)),
            (acquisition, "predict_batch",
             t.wrap("surrogate.predict_batch", acquisition.predict_batch,
                    size_in=lambda post, x: np.atleast_2d(x).shape[0])),
            (acquisition, "sobol_points",
             t.wrap("sobol.points", acquisition.sobol_points)),
            (inference, "lml_function", traced_lml_function),
        ]
        traced_append = t.wrap("jobstore.append_event", JobStore.append_event)

        def append_event(store, job_id, event):
            if event.get("type") == "metric_reported":
                key = (str(store.root), job_id, event["trial_id"],
                       event["iteration"])
                t.journaled[key] = time.perf_counter()
            return traced_append(store, job_id, event)

        plan.append((JobStore, "append_event", append_event))
        for method in ("write_trial", "read_status", "set_status", "load_job"):
            plan.append((JobStore, method,
                         t.wrap(f"jobstore.{method}", getattr(JobStore, method))))
        plan.append((JobStore, "read_events",
                     t.wrap("jobstore.read_events", JobStore.read_events,
                            size_out=len)))
        return plan

    def __enter__(self) -> "Patches":
        for obj, attr, replacement in self._plan():
            self._saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)

    def restored(self) -> bool:
        return all(getattr(obj, attr) is original
                   for obj, attr, original in self._saved)


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def per_layer(tracer: Tracer, result, store_root: Path) -> dict:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    names = np.array(tracer.name, dtype=np.int64)
    start = np.array(tracer.start)
    dur = np.array(tracer.end) - start
    parent = np.array(tracer.parent, dtype=np.int64)
    size = np.array(tracer.size, dtype=np.int64)
    ok = np.array(tracer.ok, dtype=bool)
    n = len(names)
    has_parent = parent >= 0

    def parent_is(mask: np.ndarray) -> np.ndarray:
        return mask[np.maximum(parent, 0)] & has_parent

    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
    self_time = dur - child_sum
    root = np.arange(n)
    for i in np.nonzero(has_parent)[0]:
        root[i] = root[parent[i]]

    def is_(name: str) -> np.ndarray:
        if name not in tracer.names:
            return np.zeros(n, dtype=bool)
        return names == tracer.names.index(name)

    run_job = is_("scheduler.run_job")
    measured = run_job[root]

    def spans(name: str) -> np.ndarray:
        return is_(name) & measured

    trials = result.terminal
    nc = spans("scheduler.next_candidate")
    slice_ = spans("inference.slice_sample")
    model = np.zeros(n, dtype=bool)
    model[parent[slice_]] = True
    model &= nc
    proposals = int(model.sum())

    def per_prop(mask: np.ndarray) -> float:
        return _ratio(dur[mask].sum() * 1e3, proposals)

    propose = spans("acquisition.propose")
    acq = spans("acquisition.acquisition_values") & parent_is(propose)
    acq_idx = np.nonzero(acq)[0]
    _, first = np.unique(parent[acq_idx], return_index=True)
    anchor = np.zeros(n, dtype=bool)
    anchor[acq_idx[first]] = True
    refine = acq & ~anchor
    lml = spans("inference.lml")
    fit = spans("surrogate.fit_posterior")
    pb = spans("surrogate.predict_batch")
    median_rule = spans("stopping.median_rule")
    append = spans("jobstore.append_event")
    write_trial = spans("jobstore.write_trial")
    read_status = spans("jobstore.read_status")
    layer_ids = [i for i, name in enumerate(tracer.names)
                 if name.startswith(("jobstore.", "stopping."))]
    store_top = np.isin(names, layer_ids) & parent_is(run_job)
    load_job = is_("jobstore.load_job") & parent_is(is_("cli.describe"))
    replayed = is_("jobstore.read_events") & parent_is(load_job)

    root_key = str(store_root)
    waits, emitted = [], 0
    journal_bytes = 0
    lifecycles = []
    for job in result.jobs:
        emitted += len(job.probe.metric_emits)
        for (tid, it), t_emit in job.probe.metric_emits.items():
            t_journal = tracer.journaled.get((root_key, job.job_id, tid, it))
            if t_journal is not None:
                waits.append(t_journal - t_emit)
        journal_bytes += (store_root / job.job_id / "events.log").stat().st_size
        lifecycles.extend(job.probe.lifecycles)
    journaled = sum(1 for key in tracer.journaled if key[0] == root_key)
    first_metric = [(life[2] - life[1]) * 1e3 for life in lifecycles
                    if life[2] is not None]
    to_terminal = [(life[4] - life[3]) * 1e3 for life in lifecycles
                   if life[3] is not None and life[4] is not None]
    wall = sum(job.wall_s for job in result.jobs)
    latency_ms = np.array(result.latencies) * 1e3
    cpu_latency_ms = np.array(result.cpu_latencies) * 1e3

    return {
        "scheduler.launch_latency_ms_p50": (percentile(latency_ms, 50), "ms"),
        "scheduler.launch_latency_ms_p90": (percentile(latency_ms, 90), "ms"),
        "scheduler.launch_cpu_ms_p90": (percentile(cpu_latency_ms, 90), "ms"),
        "scheduler.next_candidate_ms_p50": (percentile(dur[nc] * 1e3, 50), "ms"),
        "scheduler.next_candidate_ms_p90": (percentile(dur[nc] * 1e3, 90), "ms"),
        "scheduler.next_candidate_self_ms_per_call":
            (_ratio(self_time[nc].sum() * 1e3, nc.sum()), "ms"),
        "scheduler.model_proposal_frac": (_ratio(proposals, nc.sum()), "ratio"),
        "scheduler.next_candidate_covered_frac":
            (_ratio(child_sum[model].sum(), dur[model].sum()), "ratio"),
        "scheduler.event_wait_ms_p50": (percentile(np.array(waits) * 1e3, 50), "ms"),
        "scheduler.event_wait_ms_p90": (percentile(np.array(waits) * 1e3, 90), "ms"),
        "scheduler.run_job_store_frac":
            (_ratio(dur[store_top].sum(), dur[run_job].sum()), "ratio"),
        "inference.slice_sample_ms_per_proposal": (per_prop(slice_), "ms"),
        "inference.lml_evals_per_proposal": (_ratio(lml.sum(), proposals), "count"),
        "inference.lml_us_per_eval": (_ratio(dur[lml].sum() * 1e6, lml.sum()), "us"),
        "surrogate.fit_posterior_ms_per_proposal": (per_prop(fit), "ms"),
        "surrogate.posteriors_kept_frac": (_ratio(ok[fit].sum(), fit.sum()), "ratio"),
        "surrogate.predict_batch_calls_per_proposal":
            (_ratio(pb.sum(), proposals), "count"),
        "surrogate.predict_batch_points_per_call":
            (_ratio(size[pb].sum(), pb.sum()), "count"),
        "surrogate.predict_batch_us_per_call":
            (_ratio(dur[pb].sum() * 1e6, pb.sum()), "us"),
        "acquisition.propose_ms_p50": (percentile(dur[propose] * 1e3, 50), "ms"),
        "acquisition.anchor_score_ms_per_proposal": (per_prop(anchor), "ms"),
        "acquisition.refine_ms_per_proposal": (per_prop(refine), "ms"),
        "acquisition.refine_probe_calls_per_proposal":
            (_ratio(refine.sum(), proposals), "count"),
        "acquisition.propose_self_ms_per_proposal":
            (_ratio(self_time[propose].sum() * 1e3, proposals), "ms"),
        "sobol.points_ms_per_proposal": (per_prop(spans("sobol.points")), "ms"),
        "stopping.median_rule_calls_per_trial":
            (_ratio(median_rule.sum(), trials), "count"),
        "stopping.median_rule_us_p50": (percentile(dur[median_rule] * 1e6, 50), "us"),
        "stopping.median_rule_ms_per_trial":
            (_ratio(dur[median_rule].sum() * 1e3, trials), "ms"),
        "stopping.wasted_iterations_frac":
            (1.0 - _ratio(journaled, emitted) if emitted else 0.0, "ratio"),
        "jobstore.append_event_calls_per_trial": (_ratio(append.sum(), trials), "count"),
        "jobstore.append_event_us_p50": (percentile(dur[append] * 1e6, 50), "us"),
        "jobstore.append_event_us_p90": (percentile(dur[append] * 1e6, 90), "us"),
        "jobstore.append_event_ms_per_trial":
            (_ratio(dur[append].sum() * 1e3, trials), "ms"),
        "jobstore.write_trial_calls_per_trial":
            (_ratio(write_trial.sum(), trials), "count"),
        "jobstore.write_trial_ms_per_trial":
            (_ratio(dur[write_trial].sum() * 1e3, trials), "ms"),
        "jobstore.read_status_calls_per_trial":
            (_ratio(read_status.sum(), trials), "count"),
        "jobstore.read_status_ms_per_trial":
            (_ratio(dur[read_status].sum() * 1e3, trials), "ms"),
        "jobstore.journal_bytes_per_trial": (_ratio(journal_bytes, trials), "B"),
        "cli.describe_ms": (percentile(result.describe_s, 50) * 1e3, "ms"),
        "scheduler.resume_ms": (percentile(result.resume_s, 50) * 1e3, "ms"),
        "jobstore.load_job_ms": (percentile(dur[load_job] * 1e3, 50), "ms"),
        "jobstore.events_replayed": (percentile(size[replayed], 50), "count"),
        "runner.launch_to_first_metric_ms_p50": (percentile(first_metric, 50), "ms"),
        "runner.last_metric_to_terminal_ms_p50": (percentile(to_terminal, 50), "ms"),
        "regret_median":
            (float(np.median([job.regret for job in result.panel])), "objective"),
        "trace.trials_per_s": (_ratio(trials, wall), "1/s"),
    }
