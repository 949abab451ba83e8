"""Point-estimate, dropout, and ensemble baselines."""

import numpy as np
import pytest

import infmix.baselines as baselines_mod
from infmix.baselines import (DeepEnsemble, DeterministicMlp, DropoutMlp,
                              FitConfig, train_deterministic, train_dropout,
                              train_ensemble)
from infmix.gradcheck import check_weight_decay_gradient
from infmix.network import forward, summarize_probs
from infmix.tensor import Rng

from test_objectives import toy_dataset

SMALL_TOPOLOGY = (784, 16, 16, 10)


@pytest.fixture(scope="module")
def toy():
    return toy_dataset(n=600, seed=0)


class TestDeterministic:
    def test_learns_separable_toy_data(self, toy):
        model = train_deterministic(
            toy, weight_decay=0.0,
            cfg=FitConfig(batch_size=100, iterations=400, seed=0),
            topology=SMALL_TOPOLOGY)
        summary = model.predict(toy.images)
        assert summary.accuracy(toy.labels) == 1.0

    def test_prediction_is_pure_function(self, toy):
        model = train_deterministic(
            toy, cfg=FitConfig(batch_size=100, iterations=50, seed=0),
            topology=SMALL_TOPOLOGY)
        a = model.predict(toy.images[:10])
        b = model.predict(toy.images[:10])
        assert np.array_equal(a.mean_probs, b.mean_probs)
        assert np.all(a.class_variance == 0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weight_decay_gradient_oracle(self, seed):
        result = check_weight_decay_gradient(seed=seed)
        assert result.passed, result.line()

    def test_negative_weight_decay_rejected(self, toy):
        with pytest.raises(ValueError):
            train_deterministic(toy, weight_decay=-1.0,
                                cfg=FitConfig(iterations=1))


    def test_divergence_aborts_with_iteration(self, toy, monkeypatch):
        calls = {"n": 0}
        real = baselines_mod.forward

        def poisoned(*args, **kwargs):
            calls["n"] += 1
            log_probs, trace = real(*args, **kwargs)
            if calls["n"] == 3:
                log_probs = np.full_like(log_probs, np.nan)
            return log_probs, trace

        monkeypatch.setattr(baselines_mod, "forward", poisoned)
        with pytest.raises(RuntimeError, match="iteration 2"):
            train_deterministic(toy, cfg=FitConfig(batch_size=100, iterations=10),
                                topology=SMALL_TOPOLOGY)


class TestDropout:
    def test_zero_dropout_matches_deterministic_bitwise(self, toy):
        cfg = FitConfig(batch_size=100, iterations=60, seed=3)
        det = train_deterministic(toy, 1e-4, cfg, topology=SMALL_TOPOLOGY)
        drop = train_dropout(toy, 0.0, 1e-4, cfg, topology=SMALL_TOPOLOGY)
        for wa, wb in zip(det.weights, drop.weights):
            assert np.array_equal(wa, wb)

    def test_mask_seed_reproducible(self, toy):
        model = DropoutMlp(weights=train_deterministic(
            toy, cfg=FitConfig(batch_size=100, iterations=40, seed=0),
            topology=SMALL_TOPOLOGY).weights, p_drop=0.5)
        a = model.predict(toy.images[:20], n_samples=16, rng=Rng(5))
        b = model.predict(toy.images[:20], n_samples=16, rng=Rng(5))
        assert np.array_equal(a.mean_probs, b.mean_probs)
        assert np.array_equal(a.max_variance, b.max_variance)

    def test_stochastic_evaluation_has_variance(self, toy):
        model = train_dropout(
            toy, 0.5, cfg=FitConfig(batch_size=100, iterations=150, seed=1),
            topology=SMALL_TOPOLOGY)
        summary = model.predict(toy.images[:30], n_samples=20, rng=Rng(0))
        assert summary.max_variance.max() > 0.0

    def test_blocked_mask_draws_match_one_mask_per_component(self, toy):
        model = DropoutMlp(weights=train_deterministic(
            toy, cfg=FitConfig(batch_size=100, iterations=40, seed=0),
            topology=SMALL_TOPOLOGY).weights, p_drop=0.5)
        x, y = toy.images[:10], toy.labels[:10]
        rng = Rng(5)
        masks = [model.sample_masks(rng) for _ in range(5)]
        stacked = np.stack([np.exp(forward(model.weights, x, hidden_masks=m)[0])
                            for m in masks])
        summary = model.predict(x, n_samples=5, rng=Rng(5))
        np.testing.assert_allclose(summary.mean_probs, stacked.mean(axis=0),
                                   rtol=1e-12, atol=1e-15)
        grad, _ = model.loss_input_grad(x, y, 5, Rng(5))

        class OneMaskPerComponent(DropoutMlp):
            def _components(self, n_samples, rng):
                return len(masks), [(self.weights, m) for m in masks]

        expected, _ = OneMaskPerComponent(model.weights, 0.5).loss_input_grad(x, y)
        np.testing.assert_allclose(grad, expected, rtol=1e-10, atol=1e-15)

    def test_inverted_dropout_scaling(self):
        # With p = 0.5 kept units are doubled: a surviving-mask forward of a
        # linear net doubles the logit contribution of kept units.
        model = DropoutMlp(weights=[np.ones((3, 2)), np.ones((3, 2))],
                           p_drop=0.5)
        masks = model.sample_masks(Rng(0))
        assert set(np.unique(masks[0])) <= {0.0, 2.0}

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            DropoutMlp(weights=[np.zeros((2, 2))], p_drop=1.0)


class TestEnsemble:
    def test_single_member_equals_deterministic(self, toy):
        cfg = FitConfig(batch_size=100, iterations=60, seed=7)
        det = train_deterministic(toy, cfg=cfg, topology=SMALL_TOPOLOGY)
        ens = train_ensemble(toy, k=1, cfg=cfg, topology=SMALL_TOPOLOGY)
        for wa, wb in zip(det.weights, ens.members[0].weights):
            assert np.array_equal(wa, wb)

    def test_members_differ(self, toy):
        ens = train_ensemble(toy, k=3,
                             cfg=FitConfig(batch_size=100, iterations=30, seed=0),
                             topology=SMALL_TOPOLOGY)
        assert not np.array_equal(ens.members[0].weights[0],
                                  ens.members[1].weights[0])

    def test_predictive_mean_is_member_average(self, toy):
        ens = train_ensemble(toy, k=3,
                             cfg=FitConfig(batch_size=100, iterations=30, seed=0),
                             topology=SMALL_TOPOLOGY)
        x = toy.images[:12]
        summary = ens.predict(x)
        stacked = np.stack([np.exp(forward(m.weights, x)[0])
                            for m in ens.members])
        np.testing.assert_allclose(summary.mean_probs, stacked.mean(axis=0),
                                   atol=1e-12)
        reference = summarize_probs(stacked)
        np.testing.assert_allclose(summary.class_variance,
                                   reference.class_variance, atol=1e-12)

    def test_invalid_size(self, toy):
        with pytest.raises(ValueError):
            train_ensemble(toy, k=0, cfg=FitConfig(iterations=1))
