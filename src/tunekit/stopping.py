"""Median-rule early stopping over intermediate metric curves.

A running trial is compared, at its latest reported iteration, against
the median of the fully completed trials' values at that iteration.  The
rule stays inactive until enough trials have completed and until the
running trial has passed a dynamically chosen warm-up iteration.  A NaN
value is no reference: the curve it belongs to is left out at that
iteration, and the quorum counts the rest.  Infinities are references.

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
        """Best value seen anywhere on the curve, NaN values left out; NaN
        when every value is NaN."""
        if not self.points:
            return None
        values = [v for _, v in self.points if not math.isnan(v)]
        if not values:
            return math.nan
        return min(values) if goal == "minimize" else max(values)


@dataclass(frozen=True)
class StopDecision:
    verdict: Verdict
    reason: Reason

    @property
    def should_stop(self) -> bool:
        return self.verdict == "stop"


# The rule's four outcomes, shared by every call.
_BELOW_ACTIVATION = StopDecision("continue", "below_activation")
_NO_QUORUM = StopDecision("continue", "no_quorum")
_WORSE = StopDecision("stop", "worse_than_median")
_NOT_WORSE = StopDecision("continue", "not_worse")


def _sorted_median(values: list[float]) -> float:
    """The median of a sorted, NaN-free, non-empty list, as ``np.median``
    computes it: the middle element, or the mean of the two middle ones."""
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2


class CompletedCurves:
    """The curves of completed trials, as the median rule reads them.

    A curve's reference at iteration ``r`` is its latest value at or
    before ``r``; a curve with no value there, or whose value there is
    NaN, gives none, and an infinite value is a reference like any other.
    Curves must not change once added.  The activation
    threshold is recomputed only after a completion.  The references at an
    iteration are gathered once, at the first question about it, into a
    sorted list; each later :meth:`add` inserts its curve's reference into
    every list kept.
    """

    def __init__(self, curves: Iterable[MetricCurve] = ()) -> None:
        self._curves = list(curves)
        self._threshold: float | None = None
        self._sorted: dict[int, list[float]] = {}

    def add(self, curve: MetricCurve) -> None:
        """Take in the curve of a trial that has just completed."""
        self._curves.append(curve)
        self._threshold = None
        for r, values in self._sorted.items():
            v = curve.value_at_or_before(r)
            if v is not None and not math.isnan(v):
                insort(values, v)

    def threshold(self) -> float:
        """First iteration at which the rule may fire.

        ``+inf`` (rule inactive) until at least ``QUORUM`` curves have a
        value; afterwards a quarter of their median duration, floored, but
        never below 1.
        """
        if self._threshold is None:
            durations = sorted(c.final_iteration for c in self._curves
                               if c.final_iteration is not None)
            self._threshold = math.inf
            if len(durations) >= QUORUM:
                self._threshold = max(1, math.floor(
                    _ACTIVATION_FRACTION * _sorted_median(durations)))
        return self._threshold

    def contributions(self, r: int) -> list[float]:
        """The references at ``r``, sorted."""
        values = self._sorted.get(r)
        if values is None:
            values = self._sorted[r] = sorted(
                v for c in self._curves
                if (v := c.value_at_or_before(r)) is not None
                and not math.isnan(v))
        return values


def median_rule(running: MetricCurve, completed: CompletedCurves, r: int,
                goal: Goal = "minimize") -> StopDecision:
    """Decide whether a running trial should stop at iteration ``r``.

    The running value at ``r`` is compared with the median of the
    completed curves' references at ``r`` (see :class:`CompletedCurves`;
    a NaN value is no reference, an infinite one is).  The decision needs
    ``QUORUM`` references, stops only on a strictly worse-than-median
    value, and never fires below the activation threshold.

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
    if r < completed.threshold():
        return _BELOW_ACTIVATION
    values = completed.contributions(r)
    if len(values) < QUORUM:
        return _NO_QUORUM
    median = _sorted_median(values)
    worse = running_value > median if goal == "minimize" else running_value < median
    return _WORSE if worse else _NOT_WORSE
