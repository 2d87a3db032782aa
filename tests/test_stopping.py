"""Median-rule early stopping tests."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import oracle_median_rule, oracle_value_at_or_before
from tunekit.stopping import (
    QUORUM,
    CompletedCurves,
    MetricCurve,
    MissingPointError,
    _sorted_median,
    median_rule,
)


def curve(trial_id: str, values, start: int = 1) -> MetricCurve:
    c = MetricCurve(trial_id)
    for offset, v in enumerate(values):
        c.append(start + offset, v)
    return c


def flat(trial_id: str, value: float, length: int) -> MetricCurve:
    return curve(trial_id, [value] * length)


class TestMetricCurve:
    def test_append_and_lookup(self):
        c = curve("t", [3.0, 2.0, 1.5])
        assert c.value_at(2) == 2.0
        assert c.value_at(4) is None
        assert c.final_iteration == 3
        assert c.final_value == 1.5

    def test_iterations_start_at_one(self):
        c = MetricCurve("t")
        with pytest.raises(ValueError):
            c.append(0, 1.0)

    def test_iterations_strictly_increase(self):
        c = curve("t", [1.0, 2.0])
        with pytest.raises(ValueError):
            c.append(2, 3.0)
        with pytest.raises(ValueError):
            c.append(1, 3.0)
        c.append(10, 3.0)  # gaps are fine

    def test_value_at_or_before_carries_last_observation(self):
        c = MetricCurve("t")
        c.append(2, 5.0)
        c.append(6, 3.0)
        assert c.value_at_or_before(1) is None
        assert c.value_at_or_before(2) == 5.0
        assert c.value_at_or_before(5) == 5.0
        assert c.value_at_or_before(6) == 3.0
        assert c.value_at_or_before(100) == 3.0

    def test_best_value_per_goal(self):
        c = curve("t", [3.0, 1.0, 2.0])
        assert c.best_value("minimize") == 1.0
        assert c.best_value("maximize") == 3.0
        assert MetricCurve("t").best_value() is None

    @pytest.mark.parametrize("values", [[math.nan, 0.5, 2.0],
                                        [2.0, math.nan, 0.5],
                                        [0.5, 2.0, math.nan]])
    def test_best_value_skips_nan(self, values):
        c = curve("t", values)
        assert c.best_value("minimize") == 0.5
        assert c.best_value("maximize") == 2.0
        assert math.isnan(curve("t", [math.nan, math.nan]).best_value())


def threshold(curves) -> float:
    return CompletedCurves(curves).threshold()


class TestActivation:
    def test_quarter_of_median_duration(self):
        completed = [flat(f"t{i}", 1.0, n) for i, n in enumerate([100, 100, 80, 120])]
        assert threshold(completed) == 25

    def test_floor_and_minimum_one(self):
        completed = [flat(f"t{i}", 1.0, 4) for i in range(4)]
        assert threshold(completed) == 1
        completed = [flat(f"t{i}", 1.0, n) for i, n in enumerate([2, 2, 3, 3])]
        # median 2.5 -> floor(0.625) = 0 -> clamped to 1
        assert threshold(completed) == 1

    def test_inactive_below_quorum(self):
        completed = [flat(f"t{i}", 1.0, 100) for i in range(QUORUM - 1)]
        assert threshold(completed) == math.inf
        assert threshold([]) == math.inf


def standard_curves() -> list[MetricCurve]:
    # four completed 20-iteration curves whose values at iteration 10
    # are 0.2, 0.4, 0.8, 1.0 -> median 0.6
    levels = [0.2, 0.4, 0.8, 1.0]
    return [flat(f"done{i}", level, 20) for i, level in enumerate(levels)]


def standard_completed() -> CompletedCurves:
    return CompletedCurves(standard_curves())


class TestMedianRule:
    def test_strictly_worse_stops(self):
        decision = median_rule(flat("r", 0.8, 10), standard_completed(), 10)
        assert decision.should_stop
        assert decision.verdict == "stop"
        assert decision.reason == "worse_than_median"

    def test_tie_continues(self):
        decision = median_rule(flat("r", 0.6, 10), standard_completed(), 10)
        assert not decision.should_stop
        assert decision.reason == "not_worse"

    def test_better_continues(self):
        decision = median_rule(flat("r", 0.1, 10), standard_completed(), 10)
        assert decision.reason == "not_worse"

    def test_no_quorum_continues(self):
        completed = CompletedCurves(standard_curves()[:3])
        decision = median_rule(flat("r", 99.0, 10), completed, 10)
        assert not decision.should_stop
        # with fewer than QUORUM completed curves the rule never activates
        assert decision.reason == "below_activation"

    def test_below_activation_continues(self):
        # activation is floor(0.25 * 20) = 5
        decision = median_rule(flat("r", 99.0, 4), standard_completed(), 4)
        assert decision.reason == "below_activation"
        decision = median_rule(flat("r", 99.0, 5), standard_completed(), 5)
        assert decision.should_stop

    def test_quorum_counts_contributors_at_r(self):
        # four completed curves, but one starts after r and cannot contribute
        completed = CompletedCurves(
            standard_curves()[:3] + [curve("late", [0.5] * 5, start=15)])
        decision = median_rule(flat("r", 99.0, 10), completed, 10)
        assert not decision.should_stop
        assert decision.reason == "no_quorum"

    def test_carry_forward_for_short_completed_curves(self):
        # completed curves shorter than r contribute their last value
        completed = CompletedCurves(
            flat(f"d{i}", level, 6) for i, level in enumerate([0.2, 0.4, 0.8, 1.0]))
        decision = median_rule(flat("r", 0.7, 10), completed, 10)
        assert decision.should_stop

    def test_missing_running_value_raises(self):
        with pytest.raises(MissingPointError):
            median_rule(flat("r", 0.5, 5), standard_completed(), 10)

    def test_maximize_flips_direction(self):
        decision = median_rule(flat("r", 0.8, 10), standard_completed(), 10,
                               goal="maximize")
        assert not decision.should_stop
        decision = median_rule(flat("r", 0.4, 10), standard_completed(), 10,
                               goal="maximize")
        assert decision.should_stop

    @pytest.mark.parametrize("goal,worse,better", [
        ("minimize", 0.8, 0.4), ("maximize", 0.4, 0.8)])
    def test_four_outcomes_by_verdict_and_reason(self, goal, worse, better):
        # Activation is at 5 and the median at 10 is 0.6; the late curve
        # gives no reference at 10, which leaves three.
        late = CompletedCurves(
            standard_curves()[:3] + [curve("late", [0.5] * 5, start=15)])
        cases = [
            (flat("r", worse, 4), standard_completed(), 4,
             "continue", "below_activation"),
            (flat("r", worse, 10), late, 10, "continue", "no_quorum"),
            (flat("r", worse, 10), standard_completed(), 10,
             "stop", "worse_than_median"),
            (flat("r", better, 10), standard_completed(), 10,
             "continue", "not_worse"),
        ]
        for running, completed, r, verdict, reason in cases:
            decision = median_rule(running, completed, r, goal)
            assert (decision.verdict, decision.reason) == (verdict, reason)
            assert decision.should_stop == (verdict == "stop")

    @settings(max_examples=60, deadline=None)
    @given(
        running_value=st.floats(min_value=-10, max_value=10),
        levels=st.lists(st.floats(min_value=-10, max_value=10),
                        min_size=4, max_size=9),
    )
    def test_monotone_safety(self, running_value, levels):
        # making the running value better can never flip continue -> stop
        completed = CompletedCurves(
            flat(f"d{i}", lv, 20) for i, lv in enumerate(levels))
        base = median_rule(flat("r", running_value, 10), completed, 10)
        improved = median_rule(flat("r", running_value - 1.0, 10), completed, 10)
        if not base.should_stop:
            assert not improved.should_stop

    # Values are drawn on a coarse lattice so the affine map cannot round
    # away a strict ordering (a subnormal gap does not survive adding a
    # shift in doubles, which is a property of floats, not of the rule).
    _lattice = st.integers(min_value=-5000, max_value=5000).map(
        lambda k: k / 1000.0)

    @settings(max_examples=60, deadline=None)
    @given(
        running_value=_lattice,
        levels=st.lists(_lattice, min_size=4, max_size=8),
        scale=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_affine_equivariance(self, running_value, levels, scale, shift):
        # the verdict only depends on order, so positive affine maps of
        # all values leave it unchanged; exact ties at the median are a
        # separate unit test and are excluded here because mapping and
        # averaging do not commute at the last ulp
        assume(abs(running_value - float(np.median(levels))) > 1e-4)
        completed = CompletedCurves(
            flat(f"d{i}", lv, 20) for i, lv in enumerate(levels))
        mapped = CompletedCurves(
            flat(f"d{i}", lv * scale + shift, 20) for i, lv in enumerate(levels))
        a = median_rule(flat("r", running_value, 10), completed, 10)
        b = median_rule(flat("r", running_value * scale + shift, 10), mapped, 10)
        assert a.verdict == b.verdict


class TestNonFiniteReferences:
    def test_nan_curve_does_not_turn_the_rule_off(self):
        completed = CompletedCurves(standard_curves() + [flat("nan", math.nan, 20)])
        decision = median_rule(flat("r", 0.8, 10), completed, 10)
        assert decision.reason == "worse_than_median"

    def test_nan_references_do_not_count_toward_quorum(self):
        completed = CompletedCurves(
            standard_curves()[:3] + [flat("nan", math.nan, 20)])
        decision = median_rule(flat("r", 99.0, 10), completed, 10)
        assert decision.reason == "no_quorum"

    def test_latest_value_nan_is_no_reference(self):
        # an earlier finite value is not carried past a later NaN
        late_nan = curve("late-nan", [0.1] * 9 + [math.nan] * 11)
        completed = CompletedCurves(standard_curves()[:3] + [late_nan])
        assert completed.contributions(9) == [0.1, 0.2, 0.4, 0.8]
        assert completed.contributions(10) == [0.2, 0.4, 0.8]
        completed.add(flat("done4", 1.0, 20))
        assert completed.contributions(10) == [0.2, 0.4, 0.8, 1.0]

    def test_infinities_are_references(self):
        def decide(levels, running):
            completed = CompletedCurves(
                flat(f"d{i}", lv, 20) for i, lv in enumerate(levels))
            return median_rule(flat("r", running, 10), completed, 10).reason
        assert decide([-math.inf] * 3 + [1.0], 0.0) == "worse_than_median"
        assert decide([0.2, 0.4, math.inf, math.inf], 99.0) == "not_worse"
        # the two middle values -inf and +inf average to NaN, as in np.median
        assert decide([-math.inf] * 2 + [math.inf] * 2, 0.0) == "not_worse"


# --- the incremental rule against the linear-scan oracle -------------------

# A few repeated levels give ties and even-count medians between equal
# values; a NaN value must be no reference, as the oracle skips it, and
# infinities must be ordered as np.median orders them.
_values = st.one_of(st.floats(min_value=-3, max_value=3),
                    st.sampled_from([0.0, 0.5, 1.0, math.nan,
                                     math.inf, -math.inf]))


@st.composite
def curves(draw, min_size: int = 0) -> MetricCurve:
    """Curves of random length, dense (gap 1) or sparse (larger gaps)."""
    gaps = draw(st.lists(st.integers(min_value=1, max_value=4),
                         min_size=min_size, max_size=12))
    c = MetricCurve("c")
    iteration = 0
    for gap in gaps:
        iteration += gap
        c.append(iteration, draw(_values))
    return c


class TestAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(c=curves(), probe=st.integers(min_value=0, max_value=40))
    def test_lookups(self, c, probe):
        exact = dict(c.points).get(probe)
        got = c.value_at(probe)
        assert (got is None and exact is None) or got is exact
        got = c.value_at_or_before(probe)
        expected = oracle_value_at_or_before(c, probe)
        assert (got is None and expected is None) or got is expected

    @settings(max_examples=200, deadline=None)
    @given(
        initial=st.lists(curves(), max_size=8),
        steps=st.lists(st.one_of(
            st.tuples(st.just("complete"), curves()),
            st.tuples(st.just("query"), curves(min_size=1),
                      st.integers(min_value=0, max_value=100)),
        ), max_size=40),
        goal=st.sampled_from(["minimize", "maximize"]),
    )
    def test_completions_interleaved_with_queries(self, initial, steps, goal):
        # One object lives through the whole sequence, so a query after a
        # completion reads lists kept from before it.
        completed = CompletedCurves(initial)
        so_far = list(initial)
        for step in steps:
            if step[0] == "complete":
                completed.add(step[1])
                so_far.append(step[1])
                continue
            _, running, pick = step
            r = running.points[pick % len(running.points)][0]
            expected = oracle_median_rule(running, so_far, r, goal, QUORUM)
            assert median_rule(running, completed, r, goal) == expected

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 0.5, math.inf, -math.inf])),
        min_size=1, max_size=9))
    def test_median_by_index_equals_np_median(self, values):
        # The rule takes the median by index from the sorted contributions;
        # it must be np.median's value, infinities and overflow included.
        with np.errstate(all="ignore"):
            expected = float(np.median(values))
        got = _sorted_median(sorted(values))
        assert (math.isnan(got) and math.isnan(expected)) or got == expected
