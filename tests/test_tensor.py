"""Substrate contracts: the deterministic RNG and ADAM."""

import numpy as np
import pytest

from infmix.tensor import AdamState, Rng, adam_step


class TestRng:
    def test_same_seed_identical_stream(self):
        m1 = Rng(42).standard_normal(2, 2)
        m2 = Rng(42).standard_normal(2, 2)
        assert np.array_equal(m1, m2)

    def test_different_seeds_differ(self):
        a = Rng(0).standard_normal(16)
        b = Rng(1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic_and_distinct(self):
        base = Rng(5)
        assert np.array_equal(base.derive(3).standard_normal(8),
                              Rng(5).derive(3).standard_normal(8))
        assert not np.array_equal(base.derive(3).standard_normal(8),
                                  base.derive(4).standard_normal(8))

    def test_moments_over_a_million_draws(self):
        draws = Rng(123).standard_normal(1_000_000)
        assert -0.01 < draws.mean() < 0.01
        assert 0.98 < draws.var() < 1.02


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = np.array([1.0, -2.0, 0.5])
        state = AdamState.for_shape(params.shape)
        out = adam_step(state, params, np.zeros_like(params))
        assert np.array_equal(out, params)

    def test_first_step_is_bias_corrected_lr(self):
        # g = 1 at t = 1: m_hat = 1, v_hat = 1, step = lr / (1 + eps).
        params = np.array([0.0])
        state = AdamState.for_shape(params.shape, learning_rate=1e-3)
        out = adam_step(state, params, np.array([1.0]))
        expected = -1e-3 / (1.0 + state.eps)
        np.testing.assert_allclose(out[0], expected, rtol=1e-12)

    def test_descends_quadratic(self):
        # f(p) = p^2, grad = 2p: |p| decreases over every 10-step window.
        p = np.array([1.0])
        state = AdamState.for_shape(p.shape, learning_rate=0.01)
        checkpoints = [abs(p[0])]
        for step in range(1, 101):
            p = adam_step(state, p, 2.0 * p)
            if step % 10 == 0:
                checkpoints.append(abs(p[0]))
        assert all(b < a for a, b in zip(checkpoints, checkpoints[1:]))

    def test_block_order_invariance(self):
        rng = Rng(11)
        params = rng.standard_normal(10)
        grads = rng.standard_normal(10)
        whole_state = AdamState.for_shape((10,))
        whole = adam_step(whole_state, params, grads)
        split = np.empty(10)
        for sl in (slice(5, 10), slice(0, 5)):  # blocks in the other order
            st_block = AdamState.for_shape((5,))
            split[sl] = adam_step(st_block, params[sl], grads[sl])
        np.testing.assert_allclose(whole, split, rtol=0.0, atol=0.0)

    def test_nan_gradient_names_block(self):
        params = np.zeros(3)
        state = AdamState.for_shape(params.shape)
        with pytest.raises(FloatingPointError, match="layer2.mean"):
            adam_step(state, params, np.array([0.0, np.nan, 0.0]),
                      name="layer2.mean")

    def test_step_counter_increments_by_one(self):
        params = np.zeros(2)
        state = AdamState.for_shape(params.shape)
        for expected in range(1, 6):
            adam_step(state, params, np.ones(2))
            assert state.t == expected
