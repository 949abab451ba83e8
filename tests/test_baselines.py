"""Point-estimate, dropout, and ensemble baselines."""

import hashlib

import numpy as np
import pytest

import infmix.baselines as baselines_mod
import infmix.objectives as objectives_mod
from conftest import one_worker_per_cpu, pool_at_rest
from infmix.baselines import (DropoutMlp, FitConfig, glorot_weights,
                              train_dropout, train_ensemble)
from infmix.data import Dataset
from infmix.gradcheck import check_dropout_gradient, check_weight_decay_gradient
from infmix.network import (INPUT_GRAD, forward, label_backward,
                            summarize_prob_stream)
from infmix.tensor import Rng, map_in_order

from test_objectives import toy_dataset

SMALL_TOPOLOGY = (784, 16, 16, 10)


@pytest.fixture(scope="module")
def toy():
    return toy_dataset(n=600, seed=0)


class TestDeterministic:
    def test_learns_separable_toy_data(self, toy):
        model = train_dropout(
            toy, 0.0, weight_decay=0.0,
            cfg=FitConfig(batch_size=100, iterations=400, seed=0),
            topology=SMALL_TOPOLOGY)
        summary = model.predict(toy.images)
        assert summary.accuracy(toy.labels) == 1.0

    def test_prediction_is_pure_function(self, toy):
        model = train_dropout(
            toy, 0.0, cfg=FitConfig(batch_size=100, iterations=50, seed=0),
            topology=SMALL_TOPOLOGY)
        a = model.predict(toy.images[:10], 7, Rng(0))
        b = model.predict(toy.images[:10], 7, Rng(1))
        assert np.array_equal(a.mean_probs, b.mean_probs)
        assert np.all(a.class_variance == 0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weight_decay_gradient_oracle(self, seed):
        result = check_weight_decay_gradient(seed=seed)
        assert result.passed, result.line()

    def test_negative_weight_decay_rejected(self, toy):
        with pytest.raises(ValueError):
            train_dropout(toy, 0.0, weight_decay=-1.0,
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
            train_dropout(toy, 0.0, cfg=FitConfig(batch_size=100, iterations=10),
                          topology=SMALL_TOPOLOGY)


class TestDropout:
    def test_mask_seed_reproducible(self, toy):
        model = DropoutMlp(weights=train_dropout(
            toy, 0.0, cfg=FitConfig(batch_size=100, iterations=40, seed=0),
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
        model = DropoutMlp(weights=train_dropout(
            toy, 0.0, cfg=FitConfig(batch_size=100, iterations=40, seed=0),
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
        # -d log p_bar / dx = -sum_s dp_s/dx / (S p_bar), one mask at a time.
        grads, label_probs = [], []
        for m in masks:
            log_probs, trace = forward(model.weights, x, hidden_masks=m)
            p = np.exp(log_probs[np.arange(len(y)), y])
            grads.append(label_backward(trace, y, p, INPUT_GRAD)[1])
            label_probs.append(p)
        p_bar = np.mean(label_probs, axis=0)
        expected = -sum(grads) / (len(masks) * p_bar)[:, None]
        np.testing.assert_allclose(grad, expected, rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_step_gradient_oracle(self, seed):
        result = check_dropout_gradient(seed=seed)
        assert result.passed, result.line()

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


# SHA-256 of a dropout model's ``predict`` (mean probabilities, class
# variance, entropy) and ``loss_input_grad`` (gradient, label probabilities)
# at p_drop = 0 and one draw: the same on 1, 2 and 3 CPUs.  Another numpy or
# BLAS build may need them taken again.
NO_DROP_TOPOLOGY = (64, 32, 32, 10)
NO_DROP_DIGESTS = {
    1: ("e1a7bccda49e601fdcb1c6b803e3be32be9f7fa10661aaf213a7ad9649e217cc",
        "62b1406afbd5737436fec2e3c0e719a24d7d1d206ec00ac214434da7d7f597ea"),
}


def sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


class TestNoDrop:
    """At p_drop = 0 the model is its one unmasked component."""

    x = Rng(7).uniform(0.0, 1.0, (30, NO_DROP_TOPOLOGY[0]))
    y = np.arange(30) % 10

    def model(self):
        return DropoutMlp(glorot_weights(NO_DROP_TOPOLOGY, Rng(1)), p_drop=0.0)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_samples", [1, 3, 5, 100])
    def test_pinned_bytes_on_every_cpu_count(self, n_samples, cpus,
                                             monkeypatch):
        # Every draw count gives the bits of one draw, with no variance.
        one_worker_per_cpu(monkeypatch, cpus)
        model = self.model()
        summary = model.predict(self.x, n_samples, Rng(2))
        grad, label_prob = model.loss_input_grad(self.x, self.y, n_samples,
                                                 Rng(3))
        assert summary.n_samples == 1
        assert np.all(summary.class_variance == 0.0)
        assert (sha256(summary.mean_probs, summary.class_variance,
                       summary.entropy),
                sha256(grad, label_prob)) == NO_DROP_DIGESTS[1]
        assert pool_at_rest()

    def test_zero_samples_rejected(self):
        model = self.model()
        with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
            model.predict(self.x, 0, Rng(0))
        with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
            model.loss_input_grad(self.x, self.y, 0, Rng(0))


# SHA-256 of the weights and the per-iteration losses of ``train_dropout``
# over 90 images in batches of 40, so that two of its eight steps end an
# epoch on a batch of 10, per p_drop; taken while each step drew its own
# masks: the same on 1, 2 and 3 CPUs, and under OPENBLAS_NUM_THREADS=1, 2
# and unset.  Another numpy or BLAS build may need them taken again.
DROPOUT_TOPOLOGY = (64, 32, 32, 10)
DROPOUT_DIGESTS = {
    0.5: "211faa7f68c7e1a104c91922d981706cfe30afca5006b483acfa1e7fe7b1d908",
    0.0: "dcc9c23b1ed7b82139808d4b538059d519e69db8f6eca3e39e7b5ef34da0df85",
}


class TestDropoutDrawAhead:
    """Each dropout step but the last draws the next step's masks, sized to
    the batch they will meet, in its own pool; at p_drop = 0 no step runs a
    pool.  Training gives the bits it gave when every step drew its own."""

    data = Dataset(images=Rng(7).uniform(0.0, 1.0, (90, DROPOUT_TOPOLOGY[0])),
                   labels=np.arange(90) % 10)
    cfg = FitConfig(batch_size=40, iterations=8, seed=11)

    def train(self, p_drop, progress=None):
        return train_dropout(self.data, p_drop, 1e-3, self.cfg,
                             DROPOUT_TOPOLOGY, progress=progress)

    def digest(self, p_drop):
        """The SHA-256 of ``DROPOUT_DIGESTS`` for one training."""
        losses = []
        model = self.train(p_drop, lambda it, loss: losses.append(loss))
        return sha256(*model.weights, np.array(losses))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("p_drop", sorted(DROPOUT_DIGESTS))
    def test_pinned_bytes_on_every_cpu_count(self, p_drop, cpus, monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        assert self.digest(p_drop) == DROPOUT_DIGESTS[p_drop]
        # At p_drop = 0 training runs no pool, which stays as it was.
        assert p_drop == 0.0 or pool_at_rest()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_pinned_bytes_under_a_full_map(self, cpus, monkeypatch):
        # Two trainings fill two CPUs: a step's pool finds no idle CPU, or,
        # on three, one of them finds the third, and draws ahead there.
        one_worker_per_cpu(monkeypatch, cpus)
        runs = sorted(DROPOUT_DIGESTS)
        assert map_in_order(self.digest, runs) == [DROPOUT_DIGESTS[p]
                                                   for p in runs]
        assert pool_at_rest()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_step_draws_the_next_masks_for_its_batch(self, cpus,
                                                          monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        rows = []
        real_masks = baselines_mod._dropout_masks

        def dropout_masks(rng, weights, p_drop, n):
            rows.append(n)
            return real_masks(rng, weights, p_drop, n)

        monkeypatch.setattr(baselines_mod, "_dropout_masks", dropout_masks)
        drawn_by_step = []
        self.train(0.5, lambda it, loss: drawn_by_step.append(len(rows)))
        assert rows == [40, 40, 10, 40, 40, 10, 40, 40]
        assert np.diff([0] + drawn_by_step).tolist() == [2] + [1] * 6 + [0]

    @pytest.mark.parametrize("p_drop, maps", [(0.5, 8), (0.0, 0)])
    def test_only_a_step_with_masks_runs_a_pool(self, p_drop, maps,
                                                monkeypatch):
        one_worker_per_cpu(monkeypatch, 2)
        calls = []
        real_imap = objectives_mod.imap_in_order

        def imap_in_order(*args):
            calls.append(args)
            return real_imap(*args)

        monkeypatch.setattr(objectives_mod, "imap_in_order", imap_in_order)
        self.train(p_drop)
        assert len(calls) == maps

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_error_of_the_drawn_ahead_masks_comes_out_of_training(
            self, cpus, monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        calls = []
        real_masks = baselines_mod._dropout_masks

        def dropout_masks(*args):
            calls.append(args)
            if len(calls) == 3:     # drawn ahead by the second step
                raise KeyError("masks 3 failed")
            return real_masks(*args)

        monkeypatch.setattr(baselines_mod, "_dropout_masks", dropout_masks)
        with pytest.raises(KeyError, match="masks 3 failed"):
            self.train(0.5)
        assert len(calls) == 3 and pool_at_rest()


class TestEnsemble:
    def test_single_member_equals_deterministic(self, toy):
        cfg = FitConfig(batch_size=100, iterations=60, seed=7)
        det = train_dropout(toy, 0.0, cfg=cfg, topology=SMALL_TOPOLOGY)
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
        reference = summarize_prob_stream(stacked, len(stacked))
        np.testing.assert_allclose(summary.class_variance,
                                   reference.class_variance, atol=1e-12)

    def test_invalid_size(self, toy):
        with pytest.raises(ValueError):
            train_ensemble(toy, k=0, cfg=FitConfig(iterations=1))
