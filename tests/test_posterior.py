"""Sampling, KL, and gradient contracts of the per-layer weight distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit as sigmoid

from infmix.gradcheck import check_kl_gradient, check_sampling_gradient, fd_check
from infmix.posterior import (MvnLayerPosterior, PriorSpec, kl_backward,
                              kl_to_prior, per_weight_variance, sample,
                              sample_backward, softplus, softplus_inv)
from infmix.tensor import Rng


def layer_from_stds(mean, row_std, col_std):
    return MvnLayerPosterior(
        mean=np.asarray(mean, dtype=np.float64),
        row_scale_raw=softplus_inv(np.asarray(row_std, dtype=np.float64)),
        col_scale_raw=softplus_inv(np.asarray(col_std, dtype=np.float64)))


def random_layer(seed, n_rows=4, n_cols=3):
    rng = Rng(seed)
    return MvnLayerPosterior(
        mean=rng.standard_normal(n_rows, n_cols),
        row_scale_raw=rng.uniform(-2.0, 1.0, n_rows),
        col_scale_raw=rng.uniform(-2.0, 1.0, n_cols))


def noise(seed, layer, n_samples=1):
    return Rng(seed).standard_normal(n_samples, layer.n_rows, layer.n_cols)


class TestSoftplus:
    def test_inverse_round_trip(self):
        y = np.array([1e-3, 0.05, 0.22360679, 1.0, 3.0, 20.0])
        np.testing.assert_allclose(softplus(softplus_inv(y)), y, rtol=1e-12)

    def test_positive_everywhere(self):
        x = np.linspace(-700, 50, 1000)
        assert np.all(softplus(x) > 0)


class TestSample:
    def test_degenerate_scales_collapse_to_mean(self):
        layer = MvnLayerPosterior(mean=np.array([[1.5, -2.0], [0.25, 3.0]]),
                                  row_scale_raw=np.full(2, -40.0),
                                  col_scale_raw=np.full(2, -40.0))
        sw = sample(layer, noise(0, layer))
        np.testing.assert_allclose(sw.weights[0], layer.mean, atol=1e-15)

    def test_unit_scales_empirical_variance(self):
        # 100 draws of a 1000x1 layer pool 1e5 iid standard-normal weights.
        layer = layer_from_stds(np.zeros((1000, 1)), np.ones(1000), np.ones(1))
        draws = sample(layer, noise(7, layer, 100)).weights.ravel()
        assert 0.97 < draws.var() < 1.03
        assert abs(draws.mean()) < 0.02

    def test_scalar_formula(self):
        layer = layer_from_stds([[2.0]], [3.0], [1.0])
        sw = sample(layer, np.array([[[0.5]]]))
        np.testing.assert_allclose(sw.weights[0, 0, 0], 3.5, rtol=1e-12)

    def test_noise_is_cached(self):
        layer = random_layer(1)
        sw = sample(layer, noise(3, layer, 2))
        rebuilt = sample(layer, sw.noise)
        assert np.array_equal(rebuilt.weights, sw.weights)

    @pytest.mark.parametrize("shape", [(4, 3), (1, 3, 4)])
    def test_noise_that_is_not_a_stack_is_rejected(self, shape):
        with pytest.raises(ValueError, match="not a stack"):
            sample(random_layer(1), np.zeros(shape))

    @given(st.integers(0, 500), st.floats(0.25, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_ambiguity_leaves_samples_invariant(self, seed, t):
        # (r -> t r, c -> c / t) with matched noise gives identical weights.
        layer = random_layer(seed)
        rescaled = MvnLayerPosterior(
            mean=layer.mean.copy(),
            row_scale_raw=softplus_inv(t * layer.row_std),
            col_scale_raw=softplus_inv(layer.col_std / t))
        e = Rng(seed).derive(1).standard_normal(1, layer.n_rows, layer.n_cols)
        w1 = sample(layer, e).weights
        w2 = sample(rescaled, e).weights
        np.testing.assert_allclose(w1, w2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(per_weight_variance(layer),
                                   per_weight_variance(rescaled),
                                   rtol=1e-9)


class TestSampleBackward:
    def test_zero_upstream(self):
        layer = random_layer(2)
        sw = sample(layer, noise(0, layer))
        gm, ga, gb = sample_backward(layer, sw, np.zeros_like(sw.weights))
        assert not gm.any() and not ga.any() and not gb.any()

    def test_scalar_chain_rule(self):
        layer = layer_from_stds([[0.0]], [1.0], [1.0])
        a = layer.row_scale_raw[0]
        sw = sample(layer, np.array([[[0.5]]]))
        _, ga, _ = sample_backward(layer, sw, np.array([[[1.0]]]))
        np.testing.assert_allclose(ga[0], 0.5 * 1.0 * sigmoid(a), rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        layer = random_layer(3)
        sw = sample(layer, noise(0, layer))
        with pytest.raises(ValueError):
            sample_backward(layer, sw, np.zeros((1, 1, 1)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_difference_oracle(self, seed):
        result = check_sampling_gradient(seed=seed, tolerance=1e-5)
        assert result.passed, result.line()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stack_of_three_against_central_differences(self, seed):
        layer = random_layer(seed)
        e, g = noise(seed, layer, 3), Rng(seed).derive(2).standard_normal(
            3, layer.n_rows, layer.n_cols)
        result = fd_check(
            "sampling_s3", sample_backward(layer, sample(layer, e), g),
            [layer.mean, layer.row_scale_raw, layer.col_scale_raw],
            lambda: float(np.sum(g * sample(layer, e).weights)), 1e-5)
        assert result.passed, result.line()

    def test_stack_of_three_sums_its_single_draws(self):
        layer = random_layer(4)
        e, g = noise(4, layer, 3), Rng(4).derive(2).standard_normal(
            3, layer.n_rows, layer.n_cols)
        stacked = sample_backward(layer, sample(layer, e), g)
        singles = [sample_backward(layer, sample(layer, e[s:s + 1]), g[s:s + 1])
                   for s in range(3)]
        for got, parts in zip(stacked, zip(*singles)):
            np.testing.assert_allclose(got, sum(parts), rtol=1e-12, atol=1e-14)


def univariate_gaussian_kl(m, s, prior_var=1.0):
    return 0.5 * (s * s / prior_var + m * m / prior_var - 1.0
                  + np.log(prior_var) - np.log(s * s))


class TestKl:
    def test_zero_at_prior(self):
        layer = layer_from_stds(np.zeros((3, 2)), np.ones(3), np.ones(2))
        assert abs(kl_to_prior(layer, PriorSpec(1.0))) < 1e-12

    @pytest.mark.parametrize("m,s", [(0.7, 0.5), (-1.2, 2.0), (0.0, 0.1)])
    def test_univariate_closed_form(self, m, s):
        layer = layer_from_stds([[m]], [s], [1.0])
        np.testing.assert_allclose(kl_to_prior(layer, PriorSpec(1.0)),
                                   univariate_gaussian_kl(m, s), rtol=1e-10)

    def test_matches_sum_of_univariate_kls(self):
        # The vec distribution factorizes per weight, so the closed form must
        # equal the sum of univariate Gaussian KLs with std r_i c_j.
        for seed in range(5):
            layer = random_layer(seed)
            prior = PriorSpec(0.5 + 0.5 * seed)
            per_weight_std = np.sqrt(per_weight_variance(layer))
            expected = sum(
                univariate_gaussian_kl(layer.mean[i, j], per_weight_std[i, j],
                                       prior.variance)
                for i in range(layer.n_rows) for j in range(layer.n_cols))
            np.testing.assert_allclose(kl_to_prior(layer, prior), expected,
                                       rtol=1e-10)

    def test_monte_carlo_oracle(self):
        # KL = E_q[log q - log p] estimated from 1e6 draws of the 2x2 vec
        # Gaussian; closed form must sit within 3 standard errors.
        layer = random_layer(11, n_rows=2, n_cols=2)
        prior = PriorSpec(1.3)
        var = per_weight_variance(layer).ravel()
        mean = layer.mean.ravel()
        n = 1_000_000
        draws = mean + np.sqrt(var) * Rng(5).standard_normal(n, var.size)
        log_q = (-0.5 * ((draws - mean) ** 2 / var + np.log(2 * np.pi * var))).sum(axis=1)
        log_p = (-0.5 * (draws ** 2 / prior.variance
                         + np.log(2 * np.pi * prior.variance))).sum(axis=1)
        estimates = log_q - log_p
        se = estimates.std(ddof=1) / np.sqrt(n)
        assert abs(kl_to_prior(layer, prior) - estimates.mean()) < 3 * se

    @given(st.integers(0, 10_000), st.floats(0.3, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, seed, prior_var):
        layer = random_layer(seed)
        assert kl_to_prior(layer, PriorSpec(prior_var)) >= -1e-12

    def test_total_is_sum_over_layers(self):
        layers = [random_layer(s) for s in range(3)]
        prior = PriorSpec(1.0)
        total = sum(kl_to_prior(l, prior) for l in layers)
        assert total > 0

    def test_invalid_prior(self):
        with pytest.raises(ValueError):
            PriorSpec(0.0)


class TestKlBackward:
    def test_zero_gradient_at_prior(self):
        layer = layer_from_stds(np.zeros((3, 2)), np.ones(3), np.ones(2))
        gm, ga, gb = kl_backward(layer, PriorSpec(1.0))
        np.testing.assert_allclose(gm, 0.0, atol=1e-12)
        np.testing.assert_allclose(ga, 0.0, atol=1e-12)
        np.testing.assert_allclose(gb, 0.0, atol=1e-12)

    def test_mean_gradient_is_mean_over_prior_variance(self):
        layer = random_layer(4)
        prior = PriorSpec(2.0)
        gm, _, _ = kl_backward(layer, prior)
        np.testing.assert_allclose(gm, layer.mean / prior.variance, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_difference_oracle(self, seed):
        result = check_kl_gradient(seed=seed, tolerance=1e-6)
        assert result.passed, result.line()


class TestInitialization:
    def test_initial_per_weight_std(self):
        layer = MvnLayerPosterior.initialize(8, 4, Rng(0))
        np.testing.assert_allclose(per_weight_variance(layer), 0.05 ** 2,
                                   rtol=1e-9)

    def test_bias_row_zero_mean(self):
        layer = MvnLayerPosterior.initialize(8, 4, Rng(0))
        assert not layer.mean[-1].any()
        assert layer.mean[:-1].any()
