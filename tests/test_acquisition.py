"""Expected-improvement and proposal-search tests.

Closed-form EI values are checked against hand-derived constants and a
Monte-Carlo oracle; the proposal search is held to its documented
contract: dominate the anchor set, avoid known points, snap onto
representable configurations, stay deterministic per seed.
"""
from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_expected_improvement
from tunekit import acquisition
from tunekit.acquisition import (
    AcquisitionContext,
    _refine,
    acquisition_values,
    expected_improvement,
    propose,
)
from tunekit.sobol import sobol_points
from tunekit.space import SearchSpace, categorical, continuous, decode, encode, integer, validate_value
from tunekit.surrogate import (GpHyperParams, GpPosterior, fit_posterior, kernel_matrix,
                               predict_batch)

PHI_0 = 1.0 / math.sqrt(2.0 * math.pi)  # standard normal density at 0


def no_pending(space: SearchSpace) -> np.ndarray:
    return np.zeros((0, space.encoded_width))


class TestExpectedImprovement:
    def test_at_incumbent_mean(self):
        # gamma = 0: EI = sigma * pdf(0)
        assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(PHI_0, abs=1e-12)
        assert expected_improvement(5.0, 4.0, 5.0) == pytest.approx(2 * PHI_0, abs=1e-12)

    def test_one_sigma_below(self):
        # gamma = 1: EI = 1 * cdf(1) + pdf(1) = 1.0833154705876864
        got = expected_improvement(-1.0, 1.0, 0.0)
        assert got == pytest.approx(1.0833154705876864, abs=1e-12)

    def test_degenerate_sigma(self):
        assert expected_improvement(0.3, 0.0, 1.0) == pytest.approx(0.7)
        assert expected_improvement(1.5, 0.0, 1.0) == 0.0
        assert expected_improvement(0.3, 1e-30, 1.0) == pytest.approx(0.7)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mean = float(rng.normal(0, 2))
            variance = float(rng.uniform(0.01, 4.0))
            incumbent = float(rng.normal(0, 2))
            mc, se = oracle_expected_improvement(mean, variance, incumbent,
                                                 200_000, rng)
            got = expected_improvement(mean, variance, incumbent)
            assert abs(got - mc) < 4.0 * se + 1e-12

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(1)
        means = rng.normal(size=30)
        variances = rng.uniform(0.0, 2.0, size=30)
        batch = expected_improvement(means, variances, 0.5)
        for i in range(30):
            assert batch[i] == expected_improvement(float(means[i]),
                                                    float(variances[i]), 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        mean=st.floats(min_value=-5, max_value=5),
        incumbent=st.floats(min_value=-5, max_value=5),
        sigma_lo=st.floats(min_value=0.01, max_value=2.0),
        bump=st.floats(min_value=0.01, max_value=2.0),
    )
    def test_monotone_in_sigma(self, mean, incumbent, sigma_lo, bump):
        lo = expected_improvement(mean, sigma_lo**2, incumbent)
        hi = expected_improvement(mean, (sigma_lo + bump) ** 2, incumbent)
        assert hi > lo - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        mean=st.floats(min_value=-5, max_value=5),
        incumbent=st.floats(min_value=-5, max_value=5),
        variance=st.floats(min_value=0.0, max_value=4.0),
        bump=st.floats(min_value=0.01, max_value=2.0),
    )
    def test_antitone_in_mean(self, mean, incumbent, variance, bump):
        better = expected_improvement(mean, variance, incumbent)
        worse = expected_improvement(mean + bump, variance, incumbent)
        assert worse <= better + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        mean=st.floats(min_value=-10, max_value=10),
        incumbent=st.floats(min_value=-10, max_value=10),
        variance=st.floats(min_value=0.0, max_value=9.0),
    )
    def test_bounded_below_by_plain_improvement(self, mean, incumbent, variance):
        got = expected_improvement(mean, variance, incumbent)
        assert got >= 0.0
        assert got >= max(0.0, incumbent - mean) - 1e-12


def make_context(seed: int = 0, n: int = 8, k_posteriors: int = 1,
                 space: SearchSpace | None = None) -> AcquisitionContext:
    space = space or SearchSpace([continuous("x", 0.0, 1.0),
                                  continuous("y", 0.0, 1.0)])
    rng = np.random.default_rng(seed)
    width = space.encoded_width
    design = rng.random((n, width))
    y = np.sin(design[:, 0] * 5) + design[:, 1 % width]
    thetas = [
        GpHyperParams(
            lengthscales=np.full(width, 0.4 + 0.2 * i),
            amplitude=1.0 + 0.5 * i,
            noise_var=1e-4,
            warp_a=np.ones(width),
            warp_b=np.ones(width),
        )
        for i in range(k_posteriors)
    ]
    return AcquisitionContext(
        posterior=fit_posterior(design, y, thetas),
        incumbent=float(np.min(y)),
        pending=no_pending(space),
        space=space,
    )


def members(post: GpPosterior, index: list[int]) -> GpPosterior:
    """The ensemble of ``post``'s members ``index``, in that order."""
    return GpPosterior(design=post.design, **{
        f.name: getattr(post, f.name)[index]
        for f in dataclasses.fields(post) if f.name != "design"})


class TestEnsemble:
    def test_duplicated_posterior_changes_nothing(self):
        one = make_context(0, k_posteriors=1)
        twice = AcquisitionContext(
            posterior=members(one.posterior, [0, 0]), incumbent=one.incumbent,
            pending=no_pending(one.space), space=one.space,
        )
        x = np.array([[0.3, 0.6]])
        assert acquisition_values(x, one)[0] == pytest.approx(
            acquisition_values(x, twice)[0], rel=1e-12
        )

    def test_mean_over_members(self):
        ctx = make_context(1, k_posteriors=3)
        x = np.array([[0.2, 0.8]])
        singles = [
            acquisition_values(
                x,
                AcquisitionContext(members(ctx.posterior, [s]), ctx.incumbent,
                                   ctx.pending, ctx.space),
            )[0]
            for s in range(3)
        ]
        assert acquisition_values(x, ctx)[0] == pytest.approx(np.mean(singles),
                                                              rel=1e-10)

    def test_batch_matches_scalar(self):
        ctx = make_context(2, k_posteriors=2)
        rng = np.random.default_rng(3)
        xs = rng.random((25, 2))
        batch = acquisition_values(xs, ctx)
        for i in range(25):
            single = acquisition_values(np.atleast_2d(xs[i]), ctx)[0]
            assert batch[i] == pytest.approx(single, rel=1e-12)

    def test_stacked_pass_matches_per_posterior_mean(self):
        # ten members; the last has no noise on a design with repeated
        # rows, so only jitter makes its kernel matrix factorisable
        rng = np.random.default_rng(4)
        space = SearchSpace([continuous("x", 0.0, 1.0),
                             continuous("y", 0.0, 1.0)])
        rows = rng.random((6, 2))
        design = np.vstack([rows, rows[:3]])
        y = np.sin(design[:, 0] * 5) + design[:, 1]
        thetas = [
            GpHyperParams(
                lengthscales=np.exp(rng.uniform(-1.5, 0.5, size=2)),
                amplitude=float(np.exp(rng.uniform(-1.0, 1.0))),
                noise_var=float(np.exp(rng.uniform(-12.0, -2.0))),
                warp_a=np.exp(rng.uniform(-0.5, 0.5, size=2)),
                warp_b=np.exp(rng.uniform(-0.5, 0.5, size=2)),
            )
            for _ in range(9)
        ]
        thetas.append(GpHyperParams(
            lengthscales=np.array([0.4, 0.6]), amplitude=1.5, noise_var=0.0,
            warp_a=np.ones(2), warp_b=np.ones(2)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(kernel_matrix(design, design, thetas[-1]))
        ctx = AcquisitionContext(fit_posterior(design, y, thetas),
                                 float(np.min(y)), no_pending(space), space)
        xs = rng.random((40, 2))
        per_member = [expected_improvement(
            *predict_batch(fit_posterior(design, y, [t]), xs), ctx.incumbent)
            for t in thetas]
        np.testing.assert_allclose(acquisition_values(xs, ctx),
                                   np.mean(per_member, axis=0), rtol=1e-10)


def _record_call_sizes(monkeypatch) -> list[int]:
    """Record the row count of every later ``acquisition_values`` call."""
    sizes: list[int] = []

    def counted(x, ctx):
        sizes.append(len(x))
        return acquisition_values(x, ctx)

    monkeypatch.setattr(acquisition, "acquisition_values", counted)
    return sizes


class TestPropose:
    def test_requires_posterior(self):
        space = SearchSpace([continuous("x", 0.0, 1.0)])
        with pytest.raises(TypeError):
            AcquisitionContext(incumbent=0.0, pending=no_pending(space),
                               space=space)

    def test_deterministic(self):
        ctx = make_context(4)
        assert propose(ctx, 11) == propose(ctx, 11)

    def test_returns_valid_configuration(self):
        space = SearchSpace([
            continuous("lr", 1e-4, 1e-1, scaling="log"),
            integer("depth", 1, 8),
            categorical("opt", ("adam", "sgd")),
        ])
        ctx = make_context(5, space=space)
        config = propose(ctx, 0)
        for dim in space:
            assert validate_value(dim, config[dim.name])

    def test_result_is_snapped(self):
        space = SearchSpace([integer("n", 0, 10), categorical("c", ("a", "b", "c"))])
        ctx = make_context(6, space=space)
        config = propose(ctx, 1)
        vec = encode(config, space)
        np.testing.assert_array_equal(vec, encode(decode(vec, space), space))

    def test_dominates_anchor_set(self):
        # the returned point must score at least as high as every anchor
        # whenever no dedup fallback is involved
        for seed in range(5):
            ctx = make_context(seed + 10, n=6)
            config = propose(ctx, seed)
            proposed_val = acquisition_values(
                np.atleast_2d(encode(config, ctx.space)), ctx)[0]
            width = ctx.space.encoded_width
            anchors = sobol_points(width, min(2048, 512 * width), skip=1)
            anchor_best = acquisition_values(anchors, ctx).max()
            assert proposed_val >= anchor_best - 1e-9

    def test_near_dense_grid_optimum_1d(self):
        # compass-search refinement is local, so exact grid optimality is
        # not guaranteed on a multimodal surface; the anchor set plus
        # refinement must still get within a few percent of the best
        space = SearchSpace([continuous("x", 0.0, 1.0)])
        ctx = make_context(20, n=5, space=space)
        config = propose(ctx, 0)
        proposed_val = acquisition_values(
            np.atleast_2d(encode(config, space)), ctx)[0]
        grid = np.linspace(0.0, 1.0, 4097).reshape(-1, 1)
        grid_best = acquisition_values(grid, ctx).max()
        assert proposed_val >= grid_best * 0.95 - 1e-12

    def test_near_dense_grid_optimum_2d(self):
        ctx = make_context(24, n=8)
        config = propose(ctx, 0)
        proposed_val = acquisition_values(
            np.atleast_2d(encode(config, ctx.space)), ctx)[0]
        axis = np.linspace(0.0, 1.0, 257)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        grid_best = acquisition_values(grid, ctx).max()
        assert proposed_val >= grid_best * 0.95 - 1e-12

    def test_anchor_call_first_and_survivors_in_one_call(self, monkeypatch):
        # the traced bench takes propose's first acquisition call as the
        # anchor scoring and every later one as refinement
        ctx = make_context(25)
        sizes = _record_call_sizes(monkeypatch)
        propose(ctx, 0)
        assert sizes[0] == 1024
        assert 1 <= sizes[-1] <= 5
        assert len(sizes) <= 32

    def test_anchor_set_is_shared_and_read_only(self):
        anchors = acquisition._sobol_anchors(3, 1536)
        assert acquisition._sobol_anchors(3, 1536) is anchors
        assert not anchors.flags.writeable
        np.testing.assert_array_equal(anchors, sobol_points(3, 1536, skip=1))

    def test_avoids_pending_point(self):
        space = SearchSpace([continuous("x", 0.0, 1.0)])
        base = make_context(21, n=5, space=space)
        grid = np.linspace(0.0, 1.0, 4097).reshape(-1, 1)
        argmax = grid[np.argmax(acquisition_values(grid, base))]
        refined = propose(base, 0)
        busy = encode(refined, space)
        ctx = AcquisitionContext(base.posterior, base.incumbent,
                                 busy[np.newaxis, :], space)
        alt = propose(ctx, 0)
        dist = abs(float(encode(alt, space)[0]) - float(busy[0]))
        assert dist >= 1e-6
        del argmax

    def test_avoids_evaluated_points(self):
        ctx = make_context(22, n=10)
        config = propose(ctx, 3)
        vec = encode(config, ctx.space)
        design = ctx.posterior.design
        dists = np.linalg.norm(design - vec, axis=1)
        assert dists.min() >= 1e-6

    def test_exhausted_discrete_space_still_returns(self):
        # every representable configuration is already evaluated; the
        # proposal is a duplicate, but it must still be decodable
        space = SearchSpace([integer("n", 0, 2)])
        design = np.array([[0.0], [0.5], [1.0]])
        y = np.array([1.0, 0.0, 2.0])
        post = fit_posterior(design, y, [GpHyperParams.default(1)])
        ctx = AcquisitionContext(post, 0.0, no_pending(space), space)
        config = propose(ctx, 0)
        assert config["n"] in (0, 1, 2)

    def test_anchor_fallback_warns(self, caplog):
        # EI ignores pending points, so pending each proposal in turn
        # uses up the five refined candidates and then falls back to the
        # best free anchor, which is still a fresh point.
        base = make_context(26)
        pending: list[tuple[float, ...]] = []
        with caplog.at_level(logging.WARNING, logger="tunekit.acquisition"):
            for _ in range(6):
                ctx = AcquisitionContext(
                    base.posterior, base.incumbent,
                    np.array(pending).reshape(-1, 2), base.space)
                config = propose(ctx, 0)
                if caplog.records:
                    break
                pending.append(tuple(encode(config, base.space)))
        assert [r.message for r in caplog.records] == [
            "every refined candidate collides with a pending or evaluated "
            "point; proposing the best free anchor"]
        assert tuple(encode(config, base.space)) not in pending

    def test_every_anchor_colliding_proposes_a_duplicate(self, caplog):
        # all three values are evaluated, so no anchor snaps to a free
        # configuration
        space = SearchSpace([integer("n", 0, 2)])
        design = np.array([[0.0], [0.5], [1.0]])
        post = fit_posterior(design, np.array([1.0, 0.0, 2.0]),
                             [GpHyperParams.default(1)])
        ctx = AcquisitionContext(post, 0.0, no_pending(space), space)
        with caplog.at_level(logging.WARNING, logger="tunekit.acquisition"):
            config = propose(ctx, 0)
        assert [r.message for r in caplog.records] == [
            "every anchor collides with a pending or evaluated point; "
            "proposing a duplicate"]
        assert encode(config, space).tolist() in design.tolist()

    def test_duplicate_proposal_warns(self, caplog):
        # both categories are evaluated, so every proposal is a duplicate
        space = SearchSpace([categorical("opt", ("a", "b"))])
        design = np.array([encode({"opt": "a"}, space),
                           encode({"opt": "b"}, space)])
        post = fit_posterior(design, np.array([1.0, 0.0]),
                             [GpHyperParams.default(design.shape[1])])
        ctx = AcquisitionContext(post, 0.0, no_pending(space), space)
        with caplog.at_level(logging.WARNING, logger="tunekit.acquisition"):
            config = propose(ctx, 0)
        assert config["opt"] in ("a", "b")
        assert "proposing a duplicate" in caplog.records[-1].message

    def test_pending_tuple_not_mutated(self):
        # a read-only array: any write to it inside propose raises
        pending = np.array([[0.5, 0.5]])
        pending.flags.writeable = False
        base = make_context(23)
        ctx = AcquisitionContext(base.posterior, base.incumbent, pending,
                                 base.space)
        propose(ctx, 0)
        np.testing.assert_array_equal(ctx.pending, [[0.5, 0.5]])


def _cube_space(width: int) -> SearchSpace:
    return SearchSpace([continuous(f"x{i}", 0.0, 1.0) for i in range(width)])


def _top_anchors(ctx: AcquisitionContext) -> tuple[np.ndarray, np.ndarray]:
    width = ctx.space.encoded_width
    anchors = sobol_points(width, min(2048, 512 * width), skip=1)
    values = acquisition_values(anchors, ctx)
    top = np.argsort(values)[::-1][:5]
    return anchors[top], values[top]


class TestRefine:
    @pytest.mark.parametrize("width, max_calls", [(2, 30), (8, 80)])
    def test_probe_calls_bounded(self, monkeypatch, width, max_calls):
        ctx = make_context(30, n=20, k_posteriors=3, space=_cube_space(width))
        starts, values = _top_anchors(ctx)
        sizes = _record_call_sizes(monkeypatch)
        _refine(starts, values, ctx)
        assert 0 < len(sizes) <= max_calls
        # every round scores 2 * width probes per live start in one call
        assert all(size % (2 * width) == 0 for size in sizes)
        assert sizes[0] == 5 * 2 * width

    @pytest.mark.parametrize("seed, width", [(31, 1), (32, 2), (33, 4)])
    def test_values_never_drop_and_points_stay_in_cube(self, seed, width):
        ctx = make_context(seed, n=10, k_posteriors=2, space=_cube_space(width))
        starts, values = _top_anchors(ctx)
        # corners as well: their probes leave the cube unless clipped
        corners = np.array([np.zeros(width), np.ones(width)])
        starts = np.vstack([starts, corners])
        values = np.concatenate([values, acquisition_values(corners, ctx)])
        refined, refined_values = _refine(starts, values, ctx)
        assert refined.shape == starts.shape
        assert np.all(refined_values >= values)
        assert np.all((refined >= 0.0) & (refined <= 1.0))
        np.testing.assert_allclose(refined_values,
                                   acquisition_values(refined, ctx), rtol=1e-9)

    def test_deterministic_and_inputs_untouched(self):
        ctx = make_context(34, n=12)
        starts, values = _top_anchors(ctx)
        starts_before, values_before = starts.copy(), values.copy()
        first = _refine(starts, values, ctx)
        second = _refine(starts, values, ctx)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        np.testing.assert_array_equal(starts, starts_before)
        np.testing.assert_array_equal(values, values_before)
