"""Median-rule early stopping over intermediate metric curves.

A running trial is compared, at its latest reported iteration, against
the median of the fully completed trials' values at that iteration.  The
rule stays inactive until enough trials have completed and until the
running trial has passed a dynamically chosen warm-up iteration.

The rule runs on every metric report, so :class:`CompletedCurves` keeps
what it reuses between reports: the activation threshold, recomputed only
after a completion, and the completed values per iteration already asked
about, kept sorted and extended by each new completion instead of gathered
again, so the median is an index.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Literal

__all__ = [
    "MissingPointError",
    "MetricCurve",
    "CompletedCurves",
    "StopDecision",
    "QUORUM",
    "activation_threshold",
    "median_rule",
]

# Completed-trial quorum before the rule may fire, and the fraction of the
# median completed duration used as the warm-up iteration.
QUORUM = 4
_ACTIVATION_FRACTION = 0.25

Verdict = Literal["continue", "stop"]
Reason = Literal["below_activation", "no_quorum", "worse_than_median", "not_worse"]
Goal = Literal["minimize", "maximize"]

_ITERATION = itemgetter(0)


class MissingPointError(ValueError):
    """The running curve has no value at the iteration under decision."""


@dataclass
class MetricCurve:
    """Per-trial objective readings indexed by training iteration."""

    trial_id: str
    points: list[tuple[int, float]] = field(default_factory=list)

    def append(self, iteration: int, value: float) -> None:
        """Add a reading; iterations must arrive strictly increasing."""
        if iteration < 1:
            raise ValueError(f"iterations start at 1, got {iteration}")
        if self.points and iteration <= self.points[-1][0]:
            raise ValueError(
                f"iteration {iteration} does not advance past {self.points[-1][0]}"
            )
        self.points.append((int(iteration), float(value)))

    def value_at(self, iteration: int) -> float | None:
        """Exact value at ``iteration``, or None if not reported."""
        i = bisect_left(self.points, iteration, key=_ITERATION)
        if i < len(self.points) and self.points[i][0] == iteration:
            return self.points[i][1]
        return None

    def value_at_or_before(self, iteration: int) -> float | None:
        """Latest value reported at or before ``iteration``, if any."""
        i = bisect_right(self.points, iteration, key=_ITERATION)
        return self.points[i - 1][1] if i else None

    @property
    def final_iteration(self) -> int | None:
        return self.points[-1][0] if self.points else None

    @property
    def final_value(self) -> float | None:
        return self.points[-1][1] if self.points else None

    def best_value(self, goal: Goal = "minimize") -> float | None:
        """Best value seen anywhere on the curve."""
        if not self.points:
            return None
        values = [v for _, v in self.points]
        return min(values) if goal == "minimize" else max(values)


@dataclass(frozen=True)
class StopDecision:
    verdict: Verdict
    reason: Reason

    @property
    def should_stop(self) -> bool:
        return self.verdict == "stop"


def _sorted_median(values: list[float]) -> float:
    """The median of a sorted, NaN-free, non-empty list, as ``np.median``
    computes it: the middle element, or the mean of the two middle ones."""
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2


def activation_threshold(completed: list[MetricCurve]) -> float:
    """First iteration at which the rule may fire.

    Returns ``+inf`` (rule inactive) until at least ``QUORUM`` completed
    curves exist; afterwards a quarter of the median completed duration,
    floored, but never below 1.
    """
    durations = [c.final_iteration for c in completed if c.final_iteration is not None]
    if len(durations) < QUORUM:
        return math.inf
    median_duration = _sorted_median(sorted(durations))
    return max(1, math.floor(_ACTIVATION_FRACTION * median_duration))


class CompletedCurves:
    """The curves of completed trials, as the median rule reads them.

    Curves must not change once added.  The activation threshold is
    recomputed only after a completion.  The contributions at an iteration
    are gathered once, at the first question about it, into a sorted list
    of the non-NaN values and a count of the NaN ones; each later
    :meth:`add` inserts its curve's value into every list kept.
    """

    def __init__(self, curves: Iterable[MetricCurve] = ()) -> None:
        self._curves = list(curves)
        self._threshold: float | None = None
        self._sorted: dict[int, list[float]] = {}
        self._nans: dict[int, int] = {}

    def add(self, curve: MetricCurve) -> None:
        """Take in the curve of a trial that has just completed."""
        self._curves.append(curve)
        self._threshold = None
        for r, values in self._sorted.items():
            v = curve.value_at_or_before(r)
            if v is None:
                continue
            if math.isnan(v):
                self._nans[r] += 1
            else:
                insort(values, v)

    def threshold(self) -> float:
        """:func:`activation_threshold` of the curves added so far."""
        if self._threshold is None:
            self._threshold = activation_threshold(self._curves)
        return self._threshold

    def contributions(self, r: int) -> tuple[list[float], int]:
        """Each curve's latest value at or before ``r``, where it has one:
        the non-NaN values sorted, and the number of NaN ones."""
        values = self._sorted.get(r)
        if values is None:
            found = [v for c in self._curves
                     if (v := c.value_at_or_before(r)) is not None]
            values = self._sorted[r] = sorted(
                v for v in found if not math.isnan(v))
            self._nans[r] = len(found) - len(values)
        return values, self._nans[r]


def median_rule(running: MetricCurve,
                completed: CompletedCurves | list[MetricCurve],
                r: int, goal: Goal = "minimize") -> StopDecision:
    """Decide whether a running trial should stop at iteration ``r``.

    Completed curves without a value exactly at ``r`` contribute their
    latest earlier value; curves with nothing at or before ``r`` are
    excluded.  The decision needs ``QUORUM`` contributing curves, stops
    only on a strictly worse-than-median value, and never fires below
    the activation threshold.  ``completed`` is a :class:`CompletedCurves`,
    which keeps its work for the next call, or a plain list of curves,
    which is wrapped in a fresh one.

    Raises
    ------
    MissingPointError
        If the running curve has no value at ``r``.
    """
    running_value = running.value_at(r)
    if running_value is None:
        raise MissingPointError(
            f"trial {running.trial_id!r} has no value at iteration {r}"
        )
    if not isinstance(completed, CompletedCurves):
        completed = CompletedCurves(completed)
    if r < completed.threshold():
        return StopDecision("continue", "below_activation")
    values, nans = completed.contributions(r)
    if len(values) + nans < QUORUM:
        return StopDecision("continue", "no_quorum")
    # A NaN contribution makes the median NaN, as in np.median, and no
    # value is worse than NaN.
    median = math.nan if nans else _sorted_median(values)
    worse = running_value > median if goal == "minimize" else running_value < median
    if worse:
        return StopDecision("stop", "worse_than_median")
    return StopDecision("continue", "not_worse")
