"""Mixture-likelihood vs expected-log objectives and the training loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infmix.objectives as objectives_mod
from infmix import baselines
from infmix.data import BatchIterator, Dataset
from infmix.gradcheck import check_objective_gradient
from infmix.network import WEIGHT_GRADS, StochasticMlp, backward, forward
from infmix.objectives import (FitConfig, LossRecord, ObjectiveKind,
                               TrainConfig, logmeanexp, loss_history_csv,
                               ml_loss, objective_gradients,
                               per_example_loglik, train, vi_loss)
from infmix.posterior import PriorSpec, kl_to_prior
from infmix.tensor import AdamState, Rng, adam_step

from conftest import synthetic_arrays


def collapsed_net(seed, topology=(6, 4, 4, 3)):
    net = StochasticMlp.create(Rng(seed), topology=topology)
    for layer in net.layers:
        layer.row_scale_raw = np.full_like(layer.row_scale_raw, -40.0)
        layer.col_scale_raw = np.full_like(layer.col_scale_raw, -40.0)
    return net


def random_ll(seed, b=8, s=5):
    return Rng(seed).uniform(-8.0, 0.0, (b, s))


def toy_dataset(n=600, seed=0, side=12):
    """Small learnable dataset: patch position encodes the class."""
    images28, labels = synthetic_arrays(n, seed)
    return Dataset(images=images28.reshape(n, -1) / 255.0,
                   labels=labels.astype(np.int64), name="toy")


class TestPerExampleLoglik:
    def test_first_draw_is_the_per_layer_sampling_stream(self):
        # The batched draws keep the stream of one normal call per layer.
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        x = Rng(1).uniform(0, 1, (5, 6))
        y = Rng(2).integers(0, 3, size=5)
        _, trace, draws = per_example_loglik(net, x, y, n_samples=3, rng=Rng(3))
        layer = net.layers[0]
        e = Rng(3).standard_normal(layer.n_rows, layer.n_cols)
        expected = layer.row_std[:, None] * e * layer.col_std + layer.mean
        assert np.array_equal(draws[0].noise[0], e)
        assert np.array_equal(draws[0].weights[0], expected)
        assert np.array_equal(trace.weights[0][0], expected)

    def test_collapsed_posterior_columns_identical(self):
        net = collapsed_net(0)
        x = Rng(1).uniform(0, 1, (5, 6))
        y = Rng(2).integers(0, 3, size=5)
        ll, _, _ = per_example_loglik(net, x, y, n_samples=4, rng=Rng(3))
        for s in range(1, 4):
            np.testing.assert_allclose(ll[:, s], ll[:, 0], atol=1e-12)

    def test_values_are_log_probabilities(self):
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        x = Rng(1).uniform(0, 1, (7, 6))
        y = Rng(2).integers(0, 3, size=7)
        ll, _, _ = per_example_loglik(net, x, y, n_samples=3, rng=Rng(3))
        assert np.all(ll <= 0.0)

    def test_uniform_output_net(self):
        net = collapsed_net(0)
        for layer in net.layers:
            layer.mean = np.zeros_like(layer.mean)
        x = Rng(1).uniform(0, 1, (4, 6))
        y = np.array([0, 1, 2, 0])
        ll, _, _ = per_example_loglik(net, x, y, n_samples=2, rng=Rng(5))
        np.testing.assert_allclose(ll, -np.log(3.0), atol=1e-12)


class TestMlLoss:
    def test_constant_rows(self):
        ll = np.full((4, 5), -1.7)
        loss, weights = ml_loss(ll)
        np.testing.assert_allclose(loss, -1.7, atol=1e-12)
        np.testing.assert_allclose(weights, 0.2, atol=1e-12)

    def test_two_sample_row(self):
        ll = np.array([[0.0, -20.0]])
        loss, weights = ml_loss(ll)
        np.testing.assert_allclose(loss[0], np.log(0.5 * (1.0 + np.exp(-20.0))),
                                   rtol=1e-12)
        np.testing.assert_allclose(weights[0, 0], 1.0 / (1.0 + np.exp(-20.0)),
                                   rtol=1e-12)

    def test_weights_are_row_softmax(self):
        ll = random_ll(3)
        _, weights = ml_loss(ll)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(weights > 0)

    def test_extreme_values_stable(self):
        ll = np.array([[-1000.0, -1001.0], [-1e6, -1e6 + 1.0]])
        loss, weights = ml_loss(ll)
        assert np.all(np.isfinite(loss))
        assert np.all(np.isfinite(weights))

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            ml_loss(np.array([[0.0, np.nan]]))


class TestViLoss:
    def test_mean_of_row(self):
        loss, weights = vi_loss(np.array([[0.0, -20.0]]))
        assert loss[0] == -10.0
        np.testing.assert_allclose(weights, 0.5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_jensen_inequality(self, seed):
        ll = random_ll(seed)
        ml_val, _ = ml_loss(ll)
        vi_val, _ = vi_loss(ll)
        assert np.all(ml_val >= vi_val - 1e-12)
        # Strict whenever the row entries are not all equal.
        spread = ll.max(axis=1) - ll.min(axis=1)
        assert np.all(ml_val[spread > 1e-6] > vi_val[spread > 1e-6])

    def test_single_sample_equality_is_exact(self):
        ll = random_ll(0, s=1)
        ml_val, ml_w = ml_loss(ll)
        vi_val, vi_w = vi_loss(ll)
        assert np.array_equal(ml_val, vi_val)
        assert np.array_equal(ml_w, vi_w)


class TestLogmeanexp:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_formula_in_safe_range(self, seed):
        ll = random_ll(seed)
        direct = np.log(np.exp(ll).mean(axis=1))
        np.testing.assert_allclose(logmeanexp(ll, axis=1), direct, rtol=1e-10)


class TestObjectiveGradients:
    @pytest.mark.parametrize("kind", [ObjectiveKind.ML, ObjectiveKind.VI])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_finite_difference_oracle(self, kind, seed):
        result = check_objective_gradient(kind, seed=seed, tolerance=1e-4)
        assert result.passed, result.line()

    def test_perturbed_gradient_fails_check(self):
        result = check_objective_gradient(ObjectiveKind.ML, seed=0,
                                          perturb=1e-2)
        assert not result.passed


class TestTrain:
    def test_loss_decreases_on_toy_data(self):
        data = toy_dataset()
        net = StochasticMlp.create(Rng(0), topology=(784, 16, 16, 10))
        cfg = TrainConfig(objective=ObjectiveKind.ML, kl_weight=0.1,
                          n_train_samples=3, batch_size=100, iterations=120,
                          seed=0)
        records = train(net, data, cfg, record_every=1)
        first = np.mean([r.loss for r in records[:10]])
        last = np.mean([r.loss for r in records[-10:]])
        assert last < first

    def test_plain_mlp_limit_learns_toy_data(self):
        # kl_weight = 0, scales ~ 0, S = 1: reduces to deterministic
        # maximum-likelihood training.
        data = toy_dataset()
        net = collapsed_net(0, topology=(784, 16, 16, 10))
        cfg = TrainConfig(objective=ObjectiveKind.ML, kl_weight=0.0,
                          n_train_samples=1, batch_size=100, iterations=400,
                          seed=0)
        train(net, data, cfg, record_every=0)
        summary = net.predict(data.images, n_samples=1, rng=Rng(1))
        assert summary.accuracy(data.labels) >= 0.95
        # Scales stayed collapsed: the net is still effectively deterministic.
        assert max(layer.row_std.max() for layer in net.layers) < 1e-10

    def test_deterministic_per_seed(self):
        data = toy_dataset(n=200)
        cfg = TrainConfig(objective=ObjectiveKind.VI, kl_weight=1.0,
                          n_train_samples=2, batch_size=50, iterations=30,
                          seed=4)
        nets = []
        for _ in range(2):
            net = StochasticMlp.create(Rng(9), topology=(784, 8, 8, 10))
            train(net, data, cfg, record_every=0)
            nets.append(net)
        for la, lb in zip(nets[0].layers, nets[1].layers):
            assert np.array_equal(la.mean, lb.mean)
            assert np.array_equal(la.row_scale_raw, lb.row_scale_raw)

    def test_s1_objectives_train_identically(self):
        data = toy_dataset(n=200)
        finals = {}
        for kind in (ObjectiveKind.ML, ObjectiveKind.VI):
            net = StochasticMlp.create(Rng(3), topology=(784, 8, 8, 10))
            cfg = TrainConfig(objective=kind, kl_weight=0.5,
                              n_train_samples=1, batch_size=50, iterations=25,
                              seed=6)
            train(net, data, cfg, record_every=0)
            finals[kind] = net
        for la, lb in zip(finals[ObjectiveKind.ML].layers,
                          finals[ObjectiveKind.VI].layers):
            assert np.array_equal(la.mean, lb.mean)
            assert np.array_equal(la.row_scale_raw, lb.row_scale_raw)
            assert np.array_equal(la.col_scale_raw, lb.col_scale_raw)

    def test_stronger_regularization_widens_mixing_distribution(self):
        # The unit-variance prior is wider than the trained posterior wants
        # to be, so a larger kl_weight leaves larger per-weight variances
        # (middle layer; the quantity the mixing-variance reports export).
        from infmix.posterior import per_weight_variance
        data = toy_dataset(n=1000)
        for kind in (ObjectiveKind.ML, ObjectiveKind.VI):
            mixing = {}
            for kl_weight in (1.0, 0.1):
                net = StochasticMlp.create(Rng(0).derive(0),
                                           topology=(784, 32, 32, 10))
                cfg = TrainConfig(objective=kind, kl_weight=kl_weight,
                                  n_train_samples=3, batch_size=100,
                                  iterations=300, seed=0)
                train(net, data, cfg, record_every=0)
                mixing[kl_weight] = per_weight_variance(net.layers[1]).mean()
            assert mixing[1.0] > mixing[0.1]

    def test_final_kl_non_increasing_in_kl_weight(self):
        # Stronger regularization pulls the trained posterior toward the
        # prior: final KL is non-increasing along increasing kl_weight.
        data = toy_dataset(n=400)
        finals = []
        for kl_weight in (1e-4, 1e-2, 1.0):
            net = StochasticMlp.create(Rng(2), topology=(784, 8, 8, 10))
            cfg = TrainConfig(objective=ObjectiveKind.VI, kl_weight=kl_weight,
                              n_train_samples=2, batch_size=100,
                              iterations=20, seed=2)  # 5 epochs of 4 batches
            train(net, data, cfg, record_every=0)
            finals.append(sum(kl_to_prior(layer, cfg.prior)
                              for layer in net.layers))
        assert finals[0] >= finals[1] >= finals[2]

    def test_divergence_aborts_with_iteration(self, monkeypatch):
        data = toy_dataset(n=100)
        net = StochasticMlp.create(Rng(0), topology=(784, 8, 8, 10))
        cfg = TrainConfig(iterations=10, batch_size=50, seed=0)

        calls = {"n": 0}
        real = objectives_mod.objective_gradients

        def poisoned(*args, **kwargs):
            calls["n"] += 1
            nll, kl, grads = real(*args, **kwargs)
            if calls["n"] == 3:
                nll = float("nan")
            return nll, kl, grads

        monkeypatch.setattr(objectives_mod, "objective_gradients", poisoned)
        with pytest.raises(RuntimeError, match="iteration 2"):
            train(net, data, cfg)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(n_train_samples=0)
        with pytest.raises(ValueError):
            TrainConfig(kl_weight=-0.5)
        with pytest.raises(ValueError):
            TrainConfig(kl_weight=float("nan"))

    @pytest.mark.slow
    def test_plain_mlp_limit_on_real_data(self):
        # Same sanity oracle as the toy version, at real-data scale: the
        # collapsed single-sample unregularized model is an ordinary MLP and
        # fits a 5,000-sample training subset fast.
        from infmix.data import load_split, take_prefix
        from conftest import require_real_data
        data_dir = require_real_data("mnist")
        subset = take_prefix(load_split(data_dir, "train"), 5000)
        net = collapsed_net(0, topology=(784, 128, 128, 10))
        cfg = TrainConfig(objective=ObjectiveKind.ML, kl_weight=0.0,
                          n_train_samples=1, batch_size=200, iterations=2000,
                          seed=0)
        train(net, subset, cfg, record_every=0)
        summary = net.predict(subset.images, n_samples=1, rng=Rng(1))
        assert summary.accuracy(subset.labels) >= 0.95


class TestFit:
    """The one minibatch-ADAM loop, through both kinds of step closure."""

    TOPOLOGY = (784, 8, 8, 10)
    BLOCKS = ("mean", "row_scale_raw", "col_scale_raw")

    def test_ml_iteration_is_one_hand_assembled_step(self):
        data = toy_dataset(n=200)
        cfg = TrainConfig(objective=ObjectiveKind.ML, kl_weight=0.5,
                          n_train_samples=3, batch_size=50,
                          learning_rate=0.05, iterations=1, seed=4)
        net = StochasticMlp.create(Rng(1), topology=self.TOPOLOGY)
        initial = [getattr(layer, b).copy() for layer in net.layers
                   for b in self.BLOCKS]
        images, labels = BatchIterator(data, cfg.batch_size,
                                       seed=cfg.seed).next_batch()
        _, _, grads = objective_gradients(
            net, images, labels, cfg, n_total=data.n,
            rng=Rng(cfg.seed).derive(objectives_mod._WEIGHT_SAMPLE_STREAM))
        flat = [g for layer in grads for g in layer]
        expected = [adam_step(AdamState.for_shape(p.shape, learning_rate=0.05),
                              p, g) for p, g in zip(initial, flat)]
        train(net, data, cfg, record_every=0)
        trained = [getattr(layer, b) for layer in net.layers for b in self.BLOCKS]
        assert len(trained) == len(expected) == 9
        for p0, want, got in zip(initial, expected, trained):
            assert not np.array_equal(want, p0)
            assert np.array_equal(got, want)

    def test_dropout_iteration_is_one_hand_assembled_step(self):
        data = toy_dataset(n=200)
        cfg = FitConfig(batch_size=50, learning_rate=0.05, iterations=1, seed=4)
        p_drop, weight_decay = 0.5, 1e-3
        initial = baselines.glorot_weights(self.TOPOLOGY, Rng(cfg.seed).derive(0))
        images, labels = BatchIterator(data, cfg.batch_size,
                                       seed=cfg.seed).next_batch()
        masks = baselines._dropout_masks(
            Rng(cfg.seed).derive(baselines._MASK_STREAM), initial, p_drop,
            cfg.batch_size)
        log_probs, trace = forward(initial, images, hidden_masks=masks)
        grad_log_probs = np.zeros_like(log_probs)
        grad_log_probs[np.arange(cfg.batch_size), labels] = -1.0 / cfg.batch_size
        trace.needs = WEIGHT_GRADS
        grad_w, _ = backward(trace, grad_log_probs)
        decay = baselines._decay_gradient(initial, weight_decay)
        expected = [adam_step(AdamState.for_shape(w.shape, learning_rate=0.05),
                              w, g + dg)
                    for w, g, dg in zip(initial, grad_w, decay)]
        model = baselines.train_dropout(data, p_drop, weight_decay, cfg,
                                        topology=self.TOPOLOGY)
        assert len(model.weights) == len(expected) == 3
        for w0, want, got in zip(initial, expected, model.weights):
            assert not np.array_equal(want, w0)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["ml", "dropout"])
    def test_progress_sees_every_iteration(self, kind):
        data = toy_dataset(n=200)
        seen = []
        progress = lambda it, loss: seen.append((it, loss))  # noqa: E731
        if kind == "ml":
            net = StochasticMlp.create(Rng(0), topology=self.TOPOLOGY)
            cfg = TrainConfig(n_train_samples=2, batch_size=50, iterations=6)
            records = train(net, data, cfg, record_every=1, progress=progress)
            assert [r.loss for r in records] == [loss for _, loss in seen]
        else:
            baselines.train_dropout(
                data, cfg=FitConfig(batch_size=50, iterations=6),
                topology=self.TOPOLOGY, progress=progress)
        assert [it for it, _ in seen] == list(range(6))
        assert all(np.isfinite(loss) for _, loss in seen)


class TestLossHistory:
    def test_csv_format(self):
        records = [LossRecord(0, 1.5, 1.25, 0.25), LossRecord(1, 1.0, 0.75, 0.25)]
        text = loss_history_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == "iteration,loss,nll_term,kl_term"
        assert lines[1].startswith("0,1.5,1.25,0.25")
