"""Slice sampling of the GP hyperparameter posterior."""
from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import random_theta
from tunekit import surrogate
from tunekit.inference import (
    McmcConfig,
    _posterior_log_density,
    StartPointError,
    StepOutFailure,
    log_prior,
    slice_sample,
    slice_sample_thetas,
)
from tunekit.surrogate import (
    AMPLITUDE_BOUNDS,
    GpHyperParams,
    LENGTHSCALE_BOUNDS,
    NOISE_BOUNDS,
    WARP_BOUNDS,
    log_marginal_likelihood,
)

Z_99 = 2.5758293035489004  # two-sided 1% normal quantile


def batch_z(samples: np.ndarray, expected: float, batches: int = 50) -> float:
    """Batch-means z score, robust to the chain's autocorrelation."""
    usable = len(samples) - len(samples) % batches
    means = samples[:usable].reshape(batches, -1).mean(axis=1)
    se = means.std(ddof=1) / math.sqrt(batches)
    return (means.mean() - expected) / se


class TestSliceSampler:
    def test_standard_normal_moments(self):
        rng = np.random.default_rng(0)
        chain = slice_sample(lambda x: -0.5 * float(x[0]) ** 2,
                             np.array([0.0]), 2400, rng)[400:, 0]
        assert abs(batch_z(chain, 0.0)) < Z_99
        assert abs(batch_z(chain**2, 1.0)) < Z_99

    def test_exponential_moments(self):
        def log_density(x):
            return -float(x[0]) if x[0] > 0 else -math.inf

        rng = np.random.default_rng(1)
        chain = slice_sample(log_density, np.array([1.0]), 2400, rng)[400:, 0]
        assert np.all(chain > 0)
        assert abs(batch_z(chain, 1.0)) < Z_99
        assert abs(batch_z(chain**2, 2.0)) < Z_99

    def test_respects_bounded_support(self):
        def log_density(x):
            return 0.0 if 0.0 <= x[0] <= 1.0 else -math.inf

        rng = np.random.default_rng(2)
        chain = slice_sample(log_density, np.array([0.5]), 500, rng)
        assert np.all((chain >= 0.0) & (chain <= 1.0))

    def test_multivariate_correlated_gaussian(self):
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        prec = np.linalg.inv(cov)

        def log_density(x):
            return float(-0.5 * x @ prec @ x)

        rng = np.random.default_rng(3)
        chain = slice_sample(log_density, np.zeros(2), 4400, rng)[400:]
        sample_corr = np.corrcoef(chain.T)[0, 1]
        assert abs(sample_corr - 0.8) < 0.1

    def test_deterministic_for_fixed_rng(self):
        density = lambda x: -0.5 * float(x @ x)
        a = slice_sample(density, np.zeros(3), 50, np.random.default_rng(7))
        b = slice_sample(density, np.zeros(3), 50, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_chain_shape(self):
        chain = slice_sample(lambda x: -float(x @ x), np.zeros(4), 13,
                             np.random.default_rng(0))
        assert chain.shape == (13, 4)

    def test_requires_finite_start(self):
        def log_density(x):
            return 0.0 if x[0] > 0 else -math.inf

        with pytest.raises(ValueError):
            slice_sample(log_density, np.array([-1.0]), 5, np.random.default_rng(0))

    def test_step_out_cap(self):
        # a flat improper density can never be bracketed
        with pytest.raises(StepOutFailure):
            slice_sample(lambda x: 0.0, np.zeros(1), 1,
                         np.random.default_rng(0))


class TestMcmcConfig:
    def test_defaults_give_ten_samples(self):
        config = McmcConfig()
        assert (config.chain_length, config.burn_in, config.thinning) == (300, 250, 5)
        assert config.effective_samples == 10

    def test_effective_samples_counts_kept_states(self):
        assert McmcConfig(10, 0, 3).effective_samples == 4
        assert McmcConfig(10, 9, 5).effective_samples == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(0, 0, 1).validate()
        with pytest.raises(ValueError):
            McmcConfig(10, 10, 1).validate()
        with pytest.raises(ValueError):
            McmcConfig(10, 2, 0).validate()
        with pytest.raises(ValueError):
            McmcConfig(10, -1, 1).validate()
        assert McmcConfig(10, 2, 3).validate() is not None


class TestLogPrior:
    def test_value_at_default(self):
        # only the lengthscale coordinate is nonzero at the default:
        # -0.5 * ln(0.5)^2
        vec = GpHyperParams.default(1).to_log_vector()
        assert log_prior(vec, 1) == pytest.approx(-0.5 * math.log(0.5) ** 2, abs=1e-12)

    def test_flat_in_noise(self):
        vec = GpHyperParams.default(2).to_log_vector()
        base = log_prior(vec, 2)
        vec2 = vec.copy()
        vec2[3] = math.log(1e-6)  # noise coordinate
        assert log_prior(vec2, 2) == pytest.approx(base, abs=1e-12)

    def test_warp_coordinates_weighted_tighter(self):
        width = 1
        vec = GpHyperParams.default(width).to_log_vector()
        on_scale = vec.copy()
        on_scale[1] = 1.0  # log amplitude
        on_warp = vec.copy()
        on_warp[2 + width] = 1.0  # log warp_a
        base = log_prior(vec, width)
        assert base - log_prior(on_scale, width) == pytest.approx(0.5, abs=1e-12)
        assert base - log_prior(on_warp, width) == pytest.approx(
            0.5 / 0.75**2, abs=1e-12
        )

    def test_outside_box_is_minus_inf(self):
        vec = GpHyperParams.default(1).to_log_vector()
        vec[0] = math.log(LENGTHSCALE_BOUNDS[1]) + 0.1
        assert log_prior(vec, 1) == -math.inf


class TestPosteriorLogDensity:
    def test_lml_plus_prior_inside_the_box(self):
        rng = np.random.default_rng(0)
        design = rng.random((6, 2))
        y = rng.normal(size=6)
        target = _posterior_log_density(design, y, 2)
        for _ in range(5):
            vec = random_theta(rng, 2).to_log_vector()
            theta = GpHyperParams.from_log_vector(vec, 2)
            assert target(vec) == pytest.approx(
                log_marginal_likelihood(design, y, theta) + log_prior(vec, 2),
                rel=1e-10, abs=1e-10)

    def test_minus_inf_outside_the_box(self):
        rng = np.random.default_rng(1)
        target = _posterior_log_density(rng.random((4, 1)), rng.normal(size=4), 1)
        vec = GpHyperParams.default(1).to_log_vector()
        vec[1] = math.log(AMPLITUDE_BOUNDS[1]) + 0.1
        assert target(vec) == -math.inf

    def test_minus_inf_where_factorisation_fails(self, monkeypatch):
        rng = np.random.default_rng(2)
        target = _posterior_log_density(rng.random((5, 2)), rng.normal(size=5), 2)
        vec = GpHyperParams.default(2).to_log_vector()
        assert math.isfinite(target(vec))

        def never_positive_definite(a, lower=0):
            return a, 1

        monkeypatch.setattr(surrogate, "_potrf", never_positive_definite)
        assert target(vec) == -math.inf


def small_dataset(seed: int = 0, n: int = 8, d: int = 2):
    rng = np.random.default_rng(seed)
    design = rng.random((n, d))
    y = np.sin(design[:, 0] * 4) + 0.5 * design[:, 1] + 0.05 * rng.normal(size=n)
    return design, y


class TestThetaSampling:
    def test_exactly_ten_samples(self):
        design, y = small_dataset()
        thetas = slice_sample_thetas(design, y, McmcConfig(), seed=0)
        assert len(thetas) == 10
        assert all(isinstance(t, GpHyperParams) for t in thetas)

    def test_samples_inside_box(self):
        design, y = small_dataset(1)
        for theta in slice_sample_thetas(design, y, McmcConfig(60, 20, 4), seed=1):
            assert np.all(theta.lengthscales >= LENGTHSCALE_BOUNDS[0])
            assert np.all(theta.lengthscales <= LENGTHSCALE_BOUNDS[1])
            assert AMPLITUDE_BOUNDS[0] <= theta.amplitude <= AMPLITUDE_BOUNDS[1]
            assert NOISE_BOUNDS[0] <= theta.noise_var <= NOISE_BOUNDS[1]
            assert np.all((theta.warp_a >= WARP_BOUNDS[0]) & (theta.warp_a <= WARP_BOUNDS[1]))
            assert np.all((theta.warp_b >= WARP_BOUNDS[0]) & (theta.warp_b <= WARP_BOUNDS[1]))

    def test_deterministic_per_seed(self):
        design, y = small_dataset(2)
        config = McmcConfig(40, 10, 3)
        a = slice_sample_thetas(design, y, config, seed=5)
        b = slice_sample_thetas(design, y, config, seed=5)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.lengthscales, tb.lengthscales)
            assert ta.amplitude == tb.amplitude
        c = slice_sample_thetas(design, y, config, seed=6)
        assert any(
            not np.array_equal(ta.lengthscales, tc.lengthscales) for ta, tc in zip(a, c)
        )

    def test_pinned_warp_stays_identity(self):
        design, y = small_dataset(3)
        thetas = slice_sample_thetas(design, y, McmcConfig(40, 10, 3), seed=2,
                                     sample_warp=False)
        moved = False
        for theta in thetas:
            np.testing.assert_array_equal(theta.warp_a, 1.0)
            np.testing.assert_array_equal(theta.warp_b, 1.0)
            moved = moved or not np.array_equal(theta.lengthscales, [0.5, 0.5])
        assert moved  # the unpinned coordinates do move

    def test_free_warp_moves(self):
        design, y = small_dataset(4)
        thetas = slice_sample_thetas(design, y, McmcConfig(40, 10, 3), seed=3)
        assert any(not np.array_equal(t.warp_a, [1.0, 1.0]) for t in thetas)

    def test_start_continues_a_chain(self):
        design, y = small_dataset(5)
        config = McmcConfig(40, 10, 3)
        default = GpHyperParams.default(2).to_log_vector()
        cold = slice_sample_thetas(design, y, config, seed=7)
        same = slice_sample_thetas(design, y, config, seed=7, start=default)
        assert [t.to_log_vector().tolist() for t in same] == [
            t.to_log_vector().tolist() for t in cold]
        start = cold[-1].to_log_vector()
        warm = slice_sample_thetas(design, y, config, seed=7, start=start)
        again = slice_sample_thetas(design, y, config, seed=7, start=start)
        assert [t.to_log_vector().tolist() for t in warm] == [
            t.to_log_vector().tolist() for t in again]
        assert not np.array_equal(warm[0].lengthscales, cold[0].lengthscales)

    def test_start_without_density_raises(self):
        design, y = small_dataset(6)
        with pytest.raises(StartPointError):
            slice_sample_thetas(design, y, McmcConfig(10, 0, 1), seed=0,
                                start=np.full(8, 50.0))
        with pytest.raises(ValueError):
            slice_sample_thetas(design, y, McmcConfig(10, 0, 1), seed=0,
                                start=np.zeros(7))

    def test_pinned_warp_ignores_start_warp(self):
        design, y = small_dataset(3)
        start = GpHyperParams.default(2).to_log_vector()
        start[4:] = 0.5
        thetas = slice_sample_thetas(design, y, McmcConfig(20, 5, 3), seed=2,
                                     sample_warp=False, start=start)
        for theta in thetas:
            np.testing.assert_array_equal(theta.warp_a, 1.0)
            np.testing.assert_array_equal(theta.warp_b, 1.0)

    def test_invalid_config_rejected(self):
        design, y = small_dataset()
        with pytest.raises(ValueError):
            slice_sample_thetas(design, y, McmcConfig(10, 10, 1), seed=0)
