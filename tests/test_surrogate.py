"""GP surrogate tests: warping, kernel, posterior, and marginal likelihood.

Reference values come from the loop-and-inverse oracles in oracles.py,
plus a couple of hand calculations noted inline.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_kernel, oracle_lml, oracle_predict, random_theta
from tunekit import surrogate
from tunekit.surrogate import (
    AMPLITUDE_BOUNDS,
    CholeskyFailure,
    GpHyperParams,
    LENGTHSCALE_BOUNDS,
    NOISE_BOUNDS,
    WARP_BOUNDS,
    fit_posterior,
    kernel_matrix,
    kumaraswamy_warp,
    lml_function,
    log_marginal_likelihood,
    predict,
    predict_batch,
    predict_stack,
)


class TestWarp:
    def test_frozen_example(self):
        # 1 - (1 - 0.5^2)^3 = 1 - 0.75^3 = 0.578125 exactly
        assert kumaraswamy_warp(0.5, 2.0, 3.0) == pytest.approx(0.578125, abs=1e-15)

    def test_identity_at_unit_shapes(self):
        u = np.linspace(0.0, 1.0, 17)
        np.testing.assert_allclose(kumaraswamy_warp(u, 1.0, 1.0), u, atol=1e-15)

    def test_endpoints_fixed(self):
        for a, b in [(0.3, 4.0), (2.5, 0.2), (1.0, 1.0)]:
            assert kumaraswamy_warp(0.0, a, b) == 0.0
            assert kumaraswamy_warp(1.0, a, b) == pytest.approx(1.0, abs=1e-15)

    def test_scalar_returns_float(self):
        out = kumaraswamy_warp(0.25, 3.0, 0.5)
        assert isinstance(out, float)

    def test_tiny_slack_is_tolerated(self):
        assert kumaraswamy_warp(-1e-13, 2.0, 2.0) == 0.0
        assert kumaraswamy_warp(1.0 + 1e-13, 2.0, 2.0) == pytest.approx(1.0)

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            kumaraswamy_warp(-0.01, 2.0, 2.0)
        with pytest.raises(ValueError):
            kumaraswamy_warp(1.01, 2.0, 2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(min_value=0.1, max_value=10.0),
        b=st.floats(min_value=0.1, max_value=10.0),
        u=st.floats(min_value=0.0, max_value=1.0),
        v=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone(self, a, b, u, v):
        lo, hi = sorted([u, v])
        assert kumaraswamy_warp(lo, a, b) <= kumaraswamy_warp(hi, a, b) + 1e-12


def default_theta(width: int) -> GpHyperParams:
    return GpHyperParams.default(width)


class TestHyperParams:
    def test_default_values(self):
        theta = default_theta(3)
        np.testing.assert_array_equal(theta.lengthscales, [0.5, 0.5, 0.5])
        assert theta.amplitude == 1.0
        assert theta.noise_var == pytest.approx(1e-3)
        np.testing.assert_array_equal(theta.warp_a, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(theta.warp_b, [1.0, 1.0, 1.0])

    def test_log_vector_round_trip(self):
        rng = np.random.default_rng(4)
        theta = random_theta(rng, 4)
        back = GpHyperParams.from_log_vector(theta.to_log_vector(), 4)
        np.testing.assert_allclose(back.lengthscales, theta.lengthscales, rtol=1e-12)
        assert back.amplitude == pytest.approx(theta.amplitude, rel=1e-12)
        assert back.noise_var == pytest.approx(theta.noise_var, rel=1e-12)
        np.testing.assert_allclose(back.warp_a, theta.warp_a, rtol=1e-12)
        np.testing.assert_allclose(back.warp_b, theta.warp_b, rtol=1e-12)

    def test_vector_layout(self):
        theta = default_theta(2)
        vec = theta.to_log_vector()
        assert vec.shape == (3 * 2 + 2,)
        np.testing.assert_allclose(
            vec,
            [math.log(0.5), math.log(0.5), 0.0, math.log(1e-3), 0.0, 0.0, 0.0, 0.0],
            atol=1e-12,
        )

    def test_log_bounds_shape_and_content(self):
        lo, hi = GpHyperParams.log_bounds(2)
        assert lo.shape == hi.shape == (8,)
        assert lo[0] == pytest.approx(math.log(LENGTHSCALE_BOUNDS[0]))
        assert hi[2] == pytest.approx(math.log(AMPLITUDE_BOUNDS[1]))
        assert lo[3] == pytest.approx(math.log(NOISE_BOUNDS[0]))
        assert hi[4] == pytest.approx(math.log(WARP_BOUNDS[1]))

class TestKernel:
    def test_diagonal_is_amplitude(self):
        rng = np.random.default_rng(0)
        x = rng.random((6, 3))
        theta = random_theta(rng, 3)
        gram = kernel_matrix(x, x, theta)
        np.testing.assert_allclose(np.diag(gram), theta.amplitude, rtol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.random((5, 2))
            x2 = rng.random((4, 2))
            theta = random_theta(rng, 2)
            np.testing.assert_allclose(
                kernel_matrix(x, x2, theta), oracle_kernel(x, x2, theta), rtol=1e-10
            )

    def test_single_pair_value(self):
        # with identity warp and lengthscale 0.5, points 0 and 0.5 sit at
        # scaled distance r=1: k = (1 + sqrt5 + 5/3) * exp(-sqrt5)
        theta = default_theta(1)
        expected = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))
        got = kernel_matrix(np.array([0.0]), np.array([0.5]), theta)[0, 0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(2)
        x = rng.random((20, 4))
        theta = random_theta(rng, 4)
        gram = kernel_matrix(x, x, theta)
        np.testing.assert_allclose(gram, gram.T, rtol=1e-12)
        eigvals = np.linalg.eigvalsh(gram)
        assert eigvals.min() > -1e-8

    def test_decay_with_distance(self):
        theta = default_theta(1)
        near = kernel_matrix(np.array([0.2]), np.array([0.25]), theta)[0, 0]
        far = kernel_matrix(np.array([0.2]), np.array([0.9]), theta)[0, 0]
        assert near > far > 0.0

    def test_warp_changes_metric(self):
        flat = default_theta(1)
        bent = GpHyperParams(
            lengthscales=np.array([0.5]), amplitude=1.0, noise_var=1e-3,
            warp_a=np.array([3.0]), warp_b=np.array([0.5]),
        )
        a = kernel_matrix(np.array([0.1]), np.array([0.2]), flat)[0, 0]
        b = kernel_matrix(np.array([0.1]), np.array([0.2]), bent)[0, 0]
        assert abs(a - b) > 1e-4


class TestPosterior:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, d = int(rng.integers(2, 15)), int(rng.integers(1, 4))
            design = rng.random((n, d))
            y = rng.normal(size=n)
            theta = random_theta(rng, d)
            post = fit_posterior(design, y, [theta])
            for _ in range(3):
                x = rng.random(d)
                mu, var = predict(post, x)
                mu_ref, var_ref = oracle_predict(design, y, theta, x)
                assert mu == pytest.approx(mu_ref, rel=1e-8, abs=1e-8)
                assert var == pytest.approx(var_ref, rel=1e-8, abs=1e-8)

    def test_empty_design_gives_prior(self):
        post = fit_posterior(np.empty((0, 2)), np.empty(0), [default_theta(2)])
        mu, var = predict(post, np.array([0.3, 0.7]))
        assert mu == 0.0
        assert var == pytest.approx(1.0)

    def test_single_observation_mean(self):
        # one observation: normalized target is 0, so the posterior mean
        # must equal the raw target at the training point
        design = np.array([[0.4]])
        post = fit_posterior(design, np.array([3.25]), [default_theta(1)])
        mu, var = predict(post, np.array([0.4]))
        assert mu == pytest.approx(3.25, abs=1e-9)
        assert var < 2e-3

    def test_interpolates_with_small_noise(self):
        rng = np.random.default_rng(5)
        design = rng.random((8, 2))
        y = np.sin(design[:, 0] * 3) + design[:, 1]
        theta = GpHyperParams(
            lengthscales=np.array([0.4, 0.4]), amplitude=1.5, noise_var=1e-8,
            warp_a=np.ones(2), warp_b=np.ones(2),
        )
        post = fit_posterior(design, y, [theta])
        mus, variances = predict_batch(post, design)
        np.testing.assert_allclose(mus, y, atol=1e-4)
        assert np.all(variances >= 0.0)

    def test_target_shift_equivariance(self):
        rng = np.random.default_rng(6)
        design = rng.random((10, 2))
        y = rng.normal(size=10)
        theta = random_theta(rng, 2)
        x = rng.random((5, 2))
        mu_a, var_a = predict_batch(fit_posterior(design, y, [theta]), x)
        mu_b, var_b = predict_batch(fit_posterior(design, y + 100.0, [theta]), x)
        np.testing.assert_allclose(mu_b, mu_a + 100.0, rtol=1e-9, atol=1e-7)
        np.testing.assert_allclose(var_b, var_a, rtol=1e-9, atol=1e-9)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(7)
        design = np.vstack([rng.random((5, 1))] * 4)  # heavy duplication
        y = np.tile(rng.normal(size=5), 4)
        post = fit_posterior(design, y, [default_theta(1)])
        _, variances = predict_batch(post, rng.random((50, 1)))
        assert np.all(variances >= 0.0)

    def test_duplicate_rows_survive_via_jitter(self):
        # Without noise the kernel matrix of five repeated rows is
        # singular, so only the jitter retries factorise it.
        design = np.full((5, 1), 0.5)
        y = np.zeros(5)
        theta = GpHyperParams(
            lengthscales=np.array([0.5]), amplitude=1.0, noise_var=0.0,
            warp_a=np.ones(1), warp_b=np.ones(1),
        )
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(kernel_matrix(design, design, theta))
        post = fit_posterior(design, y, [theta])
        mu, _ = predict(post, np.array([0.5]))
        assert math.isfinite(mu)

    def test_unfactorable_matrix_raises(self):
        # an indefinite matrix stays indefinite under the bounded jitter
        # escalation, so the factorization must give up explicitly
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(CholeskyFailure):
            surrogate._factor(indefinite, 1.0, 0.0)

    def test_jitter_rescues_rank_deficient_matrix(self):
        chol = surrogate._factor(np.ones((3, 3)), 1.0, 0.0)
        assert np.all(np.isfinite(chol))

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(8)
        design = rng.random((12, 3))
        y = rng.normal(size=12)
        theta = random_theta(rng, 3)
        post = fit_posterior(design, y, [theta])
        x = rng.random((6, 3))
        mus, variances = predict_batch(post, x)
        for i in range(6):
            mu, var = predict(post, x[i])
            assert mu == pytest.approx(mus[i], rel=1e-12, abs=1e-12)
            assert var == pytest.approx(variances[i], rel=1e-12, abs=1e-12)


class TestMarginalLikelihood:
    def test_hand_value_single_point(self):
        # n=1: the normalized target is 0 and the gram matrix is the
        # scalar amplitude + noise = 2, so lml = -0.5*ln 2 - 0.5*ln(2*pi)
        theta = GpHyperParams(
            lengthscales=np.array([0.5]), amplitude=1.0, noise_var=1.0,
            warp_a=np.ones(1), warp_b=np.ones(1),
        )
        got = log_marginal_likelihood(np.array([[0.3]]), np.array([7.0]), theta)
        assert got == pytest.approx(-0.5 * math.log(2.0) - 0.5 * math.log(2 * math.pi),
                                    abs=1e-12)

    def test_matches_slogdet_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            n, d = int(rng.integers(2, 20)), int(rng.integers(1, 5))
            design = rng.random((n, d))
            y = rng.normal(size=n)
            theta = random_theta(rng, d)
            got = log_marginal_likelihood(design, y, theta)
            assert got == pytest.approx(oracle_lml(design, y, theta), rel=1e-8, abs=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        design = rng.random((9, 2))
        y = rng.normal(size=9)
        theta = random_theta(rng, 2)
        perm = rng.permutation(9)
        a = log_marginal_likelihood(design, y, theta)
        b = log_marginal_likelihood(design[perm], y[perm], theta)
        assert a == pytest.approx(b, rel=1e-10)

    def test_closure_equals_public_function(self):
        rng = np.random.default_rng(11)
        design = rng.random((8, 3))
        y = rng.normal(size=8)
        fast = lml_function(design, y)
        for _ in range(20):
            theta = random_theta(rng, 3)
            assert fast(theta.to_log_vector()) == pytest.approx(
                log_marginal_likelihood(design, y, theta), rel=1e-10, abs=1e-10
            )

    @pytest.mark.parametrize("noise_var", [1e-8, 0.0])
    def test_closure_equals_public_function_on_duplicate_rows(self, noise_var):
        # Repeated rows make the noisy kernel matrix near-singular; with
        # no noise at all it is singular and only the jitter retries
        # factorise it.
        rng = np.random.default_rng(13)
        rows = rng.random((4, 2))
        design = np.vstack([rows, rows, rows[:2]])
        y = rng.normal(size=10)
        theta = GpHyperParams(
            lengthscales=np.array([0.3, 0.7]), amplitude=2.0,
            noise_var=noise_var, warp_a=np.array([1.5, 0.8]),
            warp_b=np.array([0.9, 1.2]),
        )
        if noise_var == 0.0:
            k = kernel_matrix(design, design, theta)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(k)
        with np.errstate(divide="ignore"):  # log(0) noise is -inf
            log_theta = theta.to_log_vector()
        assert lml_function(design, y)(log_theta) == pytest.approx(
            log_marginal_likelihood(design, y, theta), rel=1e-10, abs=1e-10)

    def test_closure_takes_the_log_vector(self):
        rng = np.random.default_rng(14)
        design = rng.random((7, 2))
        y = rng.normal(size=7)
        fast = lml_function(design, y)
        for _ in range(5):
            theta = random_theta(rng, 2)
            assert fast(theta.to_log_vector()) == pytest.approx(
                log_marginal_likelihood(design, y, theta), rel=1e-10, abs=1e-10)
        with pytest.raises(ValueError):
            fast(np.zeros(7))

    def test_continuity_under_small_perturbation(self):
        # a step of norm h changes the value by at most ~h times the local
        # gradient scale; bound that scale relative to |lml| so huge
        # quadratic terms (tiny noise, bad fit) do not trip the test
        rng = np.random.default_rng(12)
        design = rng.random((10, 2))
        y = rng.normal(size=10)
        fast = lml_function(design, y)
        h = 1e-6
        for _ in range(100):
            vec = random_theta(rng, 2).to_log_vector()
            step = rng.normal(size=8)
            step *= h / np.linalg.norm(step)
            base = fast(vec)
            bumped = fast(vec + step)
            assert abs(bumped - base) < 100.0 * h * (1.0 + abs(base))

    def test_empty_design_lml_zero(self):
        fast = lml_function(np.empty((0, 2)), np.empty(0))
        assert fast(default_theta(2).to_log_vector()) == 0.0


class TestPosteriorStack:
    def test_rows_match_predict_batch(self):
        rng = np.random.default_rng(15)
        design = rng.random((9, 3))
        y = rng.normal(size=9)
        thetas = [random_theta(rng, 3) for _ in range(4)]
        x = rng.random((30, 3))
        means, variances = predict_stack(fit_posterior(design, y, thetas), x)
        assert means.shape == variances.shape == (4, 30)
        for s, theta in enumerate(thetas):
            mu, var = predict_batch(fit_posterior(design, y, [theta]), x)
            np.testing.assert_allclose(means[s], mu, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(variances[s], var, rtol=1e-8, atol=1e-12)

    def test_blocks_give_the_same_answer(self, monkeypatch):
        # 500 points are more than one block of this stack holds; the
        # noise keeps the members well conditioned, so the two passes,
        # whose matrix products round differently, agree closely
        rng = np.random.default_rng(16)
        design = rng.random((40, 1))
        y = rng.normal(size=40)
        stack = fit_posterior(design, y, [
            dataclasses.replace(random_theta(rng, 1), noise_var=1e-2)
            for _ in range(10)])
        x = rng.random((500, 1))
        means, variances = predict_stack(stack, x)
        monkeypatch.setattr(surrogate, "_STACK_BLOCK_ELEMENTS", 10 * 40 * 500)
        one_mean, one_var = predict_stack(stack, x)
        np.testing.assert_allclose(means, one_mean, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(variances, one_var, rtol=1e-10, atol=1e-14)

    def test_empty_design_gives_prior(self, capfd):
        # LAPACK's solvers print to stderr when handed an empty system,
        # so the fit must not call them at n = 0
        theta = default_theta(2)
        post = fit_posterior(np.empty((0, 2)), np.empty(0), [theta, theta])
        means, variances = predict_stack(post, np.full((3, 2), 0.5))
        np.testing.assert_array_equal(means, 0.0)
        np.testing.assert_array_equal(variances, theta.amplitude)
        assert capfd.readouterr().err == ""

    def test_empty_or_mixed_width_samples_raise(self):
        rng = np.random.default_rng(17)
        design, y = rng.random((3, 1)), rng.normal(size=3)
        with pytest.raises(ValueError):
            fit_posterior(design, y, [])
        with pytest.raises(ValueError):
            fit_posterior(design, y, [default_theta(1), default_theta(2)])

    @pytest.mark.parametrize("n", [0, 6])
    def test_fit_returns_one_member(self, n):
        rng = np.random.default_rng(18)
        theta = dataclasses.replace(random_theta(rng, 3), noise_var=1e-2)
        design = rng.random((n, 3))
        y = rng.normal(size=n)
        post = fit_posterior(design, y, [theta])
        np.testing.assert_array_equal(post.design, design)
        for name in ("warp_a", "warp_b", "lengthscales"):
            np.testing.assert_array_equal(getattr(post, name),
                                          getattr(theta, name).reshape(1, 1, 3))
        np.testing.assert_array_equal(post.amplitude, [[theta.amplitude]])
        np.testing.assert_array_equal(post.target_mean,
                                      [[y.mean() if n else 0.0]])
        np.testing.assert_array_equal(post.target_scale,
                                      [[y.std() if n else 1.0]])
        assert post.scaled_design.shape == (1, n, 3)
        assert post.alpha.shape == (1, n, 1)
        assert post.chol_inv.shape == (1, n, n)
        if n:
            # chol_inv^T chol_inv inverts the noisy kernel matrix
            k_noisy = (oracle_kernel(design, design, theta)
                       + theta.noise_var * np.eye(n))
            np.testing.assert_allclose(
                post.chol_inv[0].T @ post.chol_inv[0] @ k_noisy, np.eye(n),
                atol=1e-6)

    @pytest.mark.parametrize("width,n", [(2, 10), (8, 50), (3, 1)])
    def test_ensemble_fit_equals_one_sample_fits(self, width, n):
        rng = np.random.default_rng(19)
        design = rng.random((n, width))
        y = rng.normal(size=n)
        thetas = [random_theta(rng, width) for _ in range(5)]
        post = fit_posterior(design, y, thetas)
        singles = [fit_posterior(design, y, [theta]) for theta in thetas]
        for field in dataclasses.fields(post):
            got = getattr(post, field.name)
            if field.name == "design":
                want = singles[0].design
            else:
                want = np.concatenate([getattr(one, field.name)
                                       for one in singles])
            assert np.array_equal(got, want), field.name

    def test_failed_member_is_dropped_in_order(self):
        # a negative amplitude makes the kernel matrix negative definite,
        # and its (negative) jitter cannot rescue it
        rng = np.random.default_rng(20)
        design = rng.random((6, 2))
        y = rng.normal(size=6)
        thetas = [random_theta(rng, 2) for _ in range(4)]
        broken = dataclasses.replace(thetas[1], amplitude=-1.0)
        post = fit_posterior(design, y, [thetas[0], broken, *thetas[2:]])
        kept = fit_posterior(design, y, [thetas[0], *thetas[2:]])
        assert post.alpha.shape[0] == 3
        for field in dataclasses.fields(post):
            assert np.array_equal(getattr(post, field.name),
                                  getattr(kept, field.name)), field.name

    def test_nan_member_is_dropped_in_order(self):
        # LAPACK's dpotrf can report success on a NaN kernel matrix, so
        # only the check on the factor's diagonal drops this member
        rng = np.random.default_rng(22)
        design = rng.random((6, 2))
        y = rng.normal(size=6)
        thetas = [random_theta(rng, 2) for _ in range(4)]
        broken = dataclasses.replace(thetas[2], amplitude=math.nan)
        post = fit_posterior(design, y, [*thetas[:2], broken, thetas[3]])
        kept = fit_posterior(design, y, [*thetas[:2], thetas[3]])
        assert post.alpha.shape[0] == 3
        for field in dataclasses.fields(post):
            assert np.array_equal(getattr(post, field.name),
                                  getattr(kept, field.name)), field.name

    def test_every_member_nan_raises(self):
        rng = np.random.default_rng(23)
        broken = dataclasses.replace(default_theta(2), amplitude=math.nan)
        with pytest.raises(CholeskyFailure):
            fit_posterior(rng.random((4, 2)), rng.normal(size=4),
                          [broken, broken])

    def test_every_member_failing_raises(self):
        rng = np.random.default_rng(21)
        broken = dataclasses.replace(default_theta(2), amplitude=-1.0)
        with pytest.raises(CholeskyFailure):
            fit_posterior(rng.random((4, 2)), rng.normal(size=4),
                          [broken, broken])
