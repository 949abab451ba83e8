"""Mixture-likelihood vs expected-log objectives and the training loop."""

import hashlib
import threading

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
                               SharedDraws, TrainConfig, logmeanexp,
                               loss_history_csv, ml_loss, objective_gradients,
                               train, vi_loss)
from infmix.posterior import kl_to_prior
from infmix.tensor import AdamState, Rng, adam_step, map_in_order

from conftest import one_worker_per_cpu, pool_at_rest, synthetic_arrays


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
                   labels=labels.astype(np.int64))


def shared_loglik(net, images, labels, n_samples, rng):
    """(ll, (trace, labels, draws)) of ``SharedDraws`` drawing from ``rng``."""
    sampler = SharedDraws(net, n_samples, rng)
    return sampler.loglik(images, labels, sampler.draw(len(labels)))


class TestPerExampleLoglik:
    def test_first_draw_is_the_per_layer_sampling_stream(self):
        # The batched draws keep the stream of one normal call per layer.
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        x = Rng(1).uniform(0, 1, (5, 6))
        y = Rng(2).integers(0, 3, size=5)
        _, (trace, _, draws) = shared_loglik(net, x, y, 3, Rng(3))
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
        ll, _ = shared_loglik(net, x, y, 4, Rng(3))
        for s in range(1, 4):
            np.testing.assert_allclose(ll[:, s], ll[:, 0], atol=1e-12)

    def test_values_are_log_probabilities(self):
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        x = Rng(1).uniform(0, 1, (7, 6))
        y = Rng(2).integers(0, 3, size=7)
        ll, _ = shared_loglik(net, x, y, 3, Rng(3))
        assert np.all(ll <= 0.0)

    def test_uniform_output_net(self):
        net = collapsed_net(0)
        for layer in net.layers:
            layer.mean = np.zeros_like(layer.mean)
        x = Rng(1).uniform(0, 1, (4, 6))
        y = np.array([0, 1, 2, 0])
        ll, _ = shared_loglik(net, x, y, 2, Rng(5))
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

    @pytest.mark.parametrize("kind, n_samples", [("ml", 1), ("ml", 5), ("vi", 3)])
    def test_normals_drawn_beforehand_give_the_bits_of_the_rng(self, kind,
                                                               n_samples):
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        x = Rng(1).uniform(0.0, 1.0, (5, 6))
        y = np.array([0, 1, 2, 0, 1])
        cfg = TrainConfig(objective=kind, kl_weight=0.3, n_train_samples=n_samples)
        from_rng = objective_gradients(net, x, y, cfg, n_total=50, rng=Rng(2))
        # The step that ``fit`` runs on normals it drew a step early.
        from_normals = objectives_mod.step_gradients(
            SharedDraws(net, n_samples, Rng(2)), cfg.objective,
            lambda: objectives_mod.kl_penalty(net, cfg, 50), x, y,
            net.draw_normals(n_samples, Rng(2)))
        assert from_rng[:2] == from_normals[:2]
        assert len(from_rng[2]) == len(net.named_params())
        for a, b in zip(from_rng[2], from_normals[2]):
            assert np.array_equal(a, b)


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
        real = objectives_mod.step_gradients

        def poisoned(*args, **kwargs):
            calls["n"] += 1
            nll, kl, grads = real(*args, **kwargs)
            if calls["n"] == 3:
                nll = float("nan")
            return nll, kl, grads

        monkeypatch.setattr(objectives_mod, "step_gradients", poisoned)
        with pytest.raises(RuntimeError, match="iteration 2"):
            train(net, data, cfg)
        assert calls["n"] == 3      # steps 0, 1 and 2, each through the patch

    def test_non_finite_log_likelihood_aborts_with_iteration(self,
                                                              monkeypatch):
        data = toy_dataset(n=100)
        net = StochasticMlp.create(Rng(0), topology=(784, 8, 8, 10))
        calls = {"n": 0}
        real = objectives_mod.forward

        def poisoned(*args, **kwargs):
            calls["n"] += 1
            log_probs, trace = real(*args, **kwargs)
            if calls["n"] == 3:
                log_probs = np.full_like(log_probs, np.nan)
            return log_probs, trace

        monkeypatch.setattr(objectives_mod, "forward", poisoned)
        with pytest.raises(objectives_mod.TrainingDiverged, match=(
                r"^training diverged \(non-finite log-likelihood matrix\) "
                r"at iteration 2$")):
            train(net, data, TrainConfig(iterations=10, batch_size=50, seed=0))

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


# SHA-256 of the trained parameters and the loss history of six steps, per
# (objective, draws per step), taken while every step still drew its own
# normals: the same on 1, 2 and 3 CPUs, and under OPENBLAS_NUM_THREADS=1, 2,
# 4 and unset.  Another numpy or BLAS build may need them taken again.
TRAIN_TOPOLOGY = (64, 32, 32, 10)
TRAIN_DIGESTS = {
    ("ml", 1): "e55bfe1526eaec5192dafab958b3cead14b2502b84edc9cf363179451d9a11be",
    ("ml", 5): "a8f6e26fa9308f87abadb89fdc673c12f75333e3b44d571b51eef8d4026ff90e",
    ("vi", 3): "244d05112af76be409448472e10a96c141a5af531ebd8bb9c239ba709d66b05c",
}


class TestDrawAhead:
    """Each training step but the last draws the next step's normals in its
    own pool, and training gives the bits it gave when every step drew its
    own."""

    data = Dataset(images=Rng(7).uniform(0.0, 1.0, (90, TRAIN_TOPOLOGY[0])),
                   labels=np.arange(90) % 10)

    def net(self):
        return StochasticMlp.create(Rng(0).derive(0), topology=TRAIN_TOPOLOGY)

    def cfg(self, objective="ml", n_train_samples=5, iterations=6):
        return TrainConfig(objective=objective, n_train_samples=n_train_samples,
                           iterations=iterations, batch_size=30, seed=11)

    def digest(self, objective_and_samples):
        """The SHA-256 of ``TRAIN_DIGESTS`` for one training."""
        net = self.net()
        records = train(net, self.data, self.cfg(*objective_and_samples))
        digest = hashlib.sha256()
        for _, p in net.named_params():
            digest.update(p.tobytes())
        digest.update(loss_history_csv(records).encode())
        return digest.hexdigest()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("objective, n_train_samples", sorted(TRAIN_DIGESTS))
    def test_pinned_bytes_on_every_cpu_count(self, objective, n_train_samples,
                                             cpus, monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        run = objective, n_train_samples
        assert self.digest(run) == TRAIN_DIGESTS[run]
        assert pool_at_rest()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_pinned_bytes_under_a_full_map(self, cpus, monkeypatch):
        # Two trainings fill two CPUs: a step's pool finds no idle CPU, or,
        # on three, one of them finds the third, and draws ahead there.
        one_worker_per_cpu(monkeypatch, cpus)
        runs = [("ml", 5), ("vi", 3)]
        assert map_in_order(self.digest, runs) == [TRAIN_DIGESTS[run]
                                                   for run in runs]
        assert pool_at_rest()

    def test_a_step_keeps_its_normals_while_the_next_are_drawn(
            self, monkeypatch):
        # On two CPUs each step but the last computes only once the next
        # step's normals are drawn on the other.
        one_worker_per_cpu(monkeypatch, 2)
        drawn = threading.Condition()
        count = {"draws": 0, "steps": 0}
        real_draw = StochasticMlp.draw_normals
        real_grads = objectives_mod.step_gradients

        def draw_normals(*args):
            out = real_draw(*args)
            with drawn:
                count["draws"] += 1
                drawn.notify_all()
            return out

        def step_gradients(*args, **kwargs):
            step = count["steps"]
            count["steps"] += 1
            if step < self.cfg().iterations - 1:
                with drawn:
                    assert drawn.wait_for(lambda: count["draws"] >= step + 2,
                                          timeout=60.0)
            return real_grads(*args, **kwargs)

        monkeypatch.setattr(StochasticMlp, "draw_normals", draw_normals)
        monkeypatch.setattr(objectives_mod, "step_gradients", step_gradients)
        assert self.digest(("ml", 5)) == TRAIN_DIGESTS["ml", 5]
        assert count["steps"] == self.cfg().iterations
        assert pool_at_rest()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n_train_samples", [1, 5])
    def test_each_step_draws_the_next_and_the_last_none(
            self, n_train_samples, cpus, monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        net = self.net()
        shapes = []
        real_normal = Rng.standard_normal

        def standard_normal(rng, *shape):
            shapes.append(shape)
            return real_normal(rng, *shape)

        monkeypatch.setattr(Rng, "standard_normal", standard_normal)
        drawn_by_step = []
        n_steps = 7
        train(net, self.data, self.cfg(n_train_samples=n_train_samples,
                                       iterations=n_steps),
              progress=lambda it, loss: drawn_by_step.append(len(shapes)))
        n_weights = sum(layer.mean.size for layer in net.layers)
        assert shapes == [(n_train_samples, n_weights)] * n_steps
        assert np.diff([0] + drawn_by_step).tolist() == \
            [2] + [1] * (n_steps - 2) + [0]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_error_of_the_drawn_ahead_item_comes_out_of_train(
            self, cpus, monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        net = self.net()
        calls = []
        real_draw = net.draw_normals

        def draw_normals(*args):
            calls.append(args)
            if len(calls) == 3:     # drawn ahead by the second step
                raise KeyError("draw 3 failed")
            return real_draw(*args)

        monkeypatch.setattr(net, "draw_normals", draw_normals)
        with pytest.raises(KeyError, match="draw 3 failed"):
            train(net, self.data, self.cfg(iterations=5))
        assert len(calls) == 3 and pool_at_rest()


class TestFit:
    """The one minibatch-ADAM loop and step, with either sampler."""

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
        expected = [adam_step(AdamState.for_shape(p.shape, learning_rate=0.05),
                              p, g) for p, g in zip(initial, grads)]
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
        _, decay = baselines.decay_penalty(initial, weight_decay)
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


class NoisyLinear:
    """A sampler of the tests' own, neither ``SharedDraws`` nor
    ``DropoutMasks``: S noisy copies of a linear fit to the labels,
    ll[b, s] = -(x_b . w - y_b + noise[s, b])^2 / 2, or one noiseless copy
    if it draws None (``n_samples`` None).  It logs each draw's size and
    each step's (batch size, noise, thread)."""

    def __init__(self, w, n_samples, rng):
        self.w, self.n_samples, self.rng = w, n_samples, rng
        self.drawn, self.met = [], []

    def draw(self, batch_size):
        self.drawn.append(batch_size)
        if self.n_samples is not None:
            return self.rng.standard_normal(self.n_samples, batch_size)

    def loglik(self, images, labels, noise):
        self.met.append((len(labels), noise, threading.get_ident()))
        r = (images @ self.w - labels)[:, None]
        r = r + (0.0 if noise is None else noise.T)
        return -0.5 * r ** 2, (images, r)

    def grads(self, ctx, grad_ll):
        images, r = ctx
        return [images.T @ -(grad_ll * r).sum(axis=1)]

    def penalty(self):
        return 0.05 * float(self.w @ self.w), [0.1 * self.w]


class TestFitSamplerContract:
    """What ``fit`` promises any sampler: one more sampler is one class."""

    data = Dataset(images=Rng(3).uniform(0.0, 1.0, (70, 4)),
                   labels=np.arange(70) % 3)
    cfg = FitConfig(batch_size=30, learning_rate=0.05, iterations=7, seed=2)
    SIZES = [30, 30, 10, 30, 30, 10, 30]    # the batches of 70 examples

    def fit(self, sampler, objective="vi", progress=None):
        return objectives_mod.fit(
            [("w", sampler.w)], sampler, objective, sampler.penalty,
            self.data, self.cfg, record_every=1, progress=progress)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_noise_of_none_steps_inline_with_no_map(self, cpus, monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)

        def no_map(*args):
            raise AssertionError("a step of no noise ran a map")

        monkeypatch.setattr(objectives_mod, "imap_in_order", no_map)
        sampler, drawn_by_step = NoisyLinear(np.zeros(4), None, Rng(5)), []
        self.fit(sampler, progress=lambda it, loss: drawn_by_step.append(
            len(sampler.drawn)))
        assert sampler.drawn == self.SIZES
        assert drawn_by_step == list(range(1, 8))   # each step its own draw
        assert sampler.met == [(b, None, threading.get_ident())
                               for b in self.SIZES]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_noise_is_drawn_a_step_early_for_the_batch_it_meets(
            self, cpus, monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        sampler, drawn_by_step = NoisyLinear(np.zeros(4), 3, Rng(5)), []
        self.fit(sampler, progress=lambda it, loss: drawn_by_step.append(
            len(sampler.drawn)))
        assert sampler.drawn == self.SIZES
        assert drawn_by_step == [2, 3, 4, 5, 6, 7, 7]
        assert [(b, noise.shape) for b, noise, _ in sampler.met] == [
            (b, (3, b)) for b in self.SIZES]
        assert pool_at_rest()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("objective, n_samples",
                             [("ml", 3), ("vi", 3), ("ml", None)])
    def test_parameters_are_a_hand_rolled_loop(self, objective, n_samples,
                                               cpus, monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        sampler = NoisyLinear(np.zeros(4), n_samples, Rng(5))
        batches = BatchIterator(self.data, self.cfg.batch_size, seed=self.cfg.seed)
        state = AdamState.for_shape((4,), learning_rate=self.cfg.learning_rate)
        losses = []
        for _ in range(self.cfg.iterations):
            noise = sampler.draw(batches.next_size())
            images, labels = batches.next_batch()
            nll, penalty, [g] = objectives_mod.step_gradients(
                sampler, objective, sampler.penalty, images, labels, noise)
            sampler.w[...] = adam_step(state, sampler.w, g)
            losses.append(nll + penalty)
        fitted = NoisyLinear(np.zeros(4), n_samples, Rng(5))
        records = self.fit(fitted, objective)
        assert not np.array_equal(sampler.w, np.zeros(4))
        assert np.array_equal(fitted.w, sampler.w)
        assert [r.loss for r in records] == losses


class TestDropoutObjective:
    @pytest.mark.parametrize("kind", list(ObjectiveKind))
    def test_nll_and_gradient_seed_are_either_objective_at_one_draw(self, kind):
        # Dropout's NLL and its -1/B gradient seed, as dropout's own step
        # computed them, from the masked sampler's log-likelihoods.
        for seed in range(50):
            b = 1 + seed
            rng = Rng(seed)
            weights = baselines.glorot_weights((6, 4, 4, 3), rng.derive(0))
            sampler = baselines.DropoutMasks(weights, 0.5, rng.derive(1))
            images, labels = rng.uniform(0.0, 1.0, (b, 6)), np.arange(b) % 3
            masks = sampler.draw(b)
            ll, _ = sampler.loglik(images, labels, masks)
            log_probs, _ = forward(weights, images, hidden_masks=masks)
            per_example, grad_weights = objectives_mod.objective_loss(kind, ll)
            assert -float(per_example.mean()) == \
                -float(log_probs[np.arange(b), labels].mean())
            assert np.array_equal(-grad_weights / b, np.full((b, 1), -1.0 / b))


class TestLossHistory:
    def test_csv_format(self):
        records = [LossRecord(0, 1.5, 1.25, 0.25), LossRecord(1, 1.0, 0.75, 0.25)]
        text = loss_history_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == "iteration,loss,nll_term,kl_term"
        assert lines[1].startswith("0,1.5,1.25,0.25")
