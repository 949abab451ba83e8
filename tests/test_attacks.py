"""PGD constraint invariants, oracles, and persistence."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infmix.attacks import (AttackConfig, attack_csv, pgd_attack, project,
                            robustness_curve, write_attack_artifacts)
from infmix.baselines import DeterministicMlp, train_deterministic, FitConfig
from infmix.data import load_idx
from infmix.network import StochasticMlp
from infmix import tensor
from infmix.tensor import Rng

from test_objectives import toy_dataset


@pytest.fixture(scope="module")
def toy():
    return toy_dataset(n=400, seed=3)


@pytest.fixture(scope="module")
def toy_model(toy):
    return train_deterministic(
        toy, weight_decay=0.0,
        cfg=FitConfig(batch_size=100, iterations=300, seed=0),
        topology=(784, 16, 16, 10))


def linear_two_class_model(w0=2.0, w1=-1.0):
    """One input, two classes, no hidden layer: logit gap = x (w0 - w1)."""
    weights = np.array([[w0, w1],
                        [0.0, 0.0]])
    return DeterministicMlp(weights=[weights])


class TestProjection:
    @given(st.integers(0, 10_000), st.floats(0.0, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_both_constraints_hold_exactly(self, seed, epsilon):
        rng = Rng(seed)
        x_clean = rng.uniform(0.0, 1.0, (4, 6))
        x = x_clean + rng.uniform(-1.0, 1.0, (4, 6))
        out = project(x, x_clean, epsilon)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(np.abs(out - x_clean) <= epsilon + 1e-12)


class TestPgd:
    def test_zero_gradient_samples_rejected(self):
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        cfg = AttackConfig(epsilon=0.1, n_iter=2, n_grad_samples=0,
                           n_eval_samples=1)
        with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
            pgd_attack(net, Rng(1).uniform(0.0, 1.0, (4, 6)), [0, 1, 2, 0], cfg)

    def test_epsilon_zero_returns_originals(self, toy, toy_model):
        images, labels = toy.images[:50], toy.labels[:50]
        result = pgd_attack(toy_model, images, labels,
                            AttackConfig(epsilon=0.0, n_iter=5, step=0.1,
                                         n_eval_samples=1))
        assert np.array_equal(result.adversarial, images)
        clean_acc = toy_model.predict(images).accuracy(labels)
        assert result.robust_accuracy == clean_acc
        assert np.array_equal(result.success,
                              toy_model.predict(images).predicted_class != labels)

    def test_linear_model_moves_by_step_sign_until_clipped(self):
        # Loss at label 0 decreases in x (w0 > w1), so the attack pushes x
        # down by exactly `step` per iteration until the eps boundary.
        model = linear_two_class_model()
        x0 = np.full((1, 1), 0.5)
        labels = np.array([0])
        seen = []
        cfg = AttackConfig(epsilon=0.08, n_iter=6, step=0.02,
                           random_init=False, n_eval_samples=1)
        pgd_attack(model, x0, labels, cfg,
                   step_callback=lambda it, x: seen.append(x[0, 0]))
        expected = [0.48, 0.46, 0.44, 0.42, 0.42, 0.42]  # clipped at 0.5 - 0.08
        np.testing.assert_allclose(seen, expected, atol=1e-12)

    def test_constraints_hold_after_every_iteration(self, toy):
        net = StochasticMlp.create(Rng(0), topology=(784, 16, 16, 10))
        images, labels = toy.images[:20], toy.labels[:20]
        for epsilon in (0.05, 0.25):
            cfg = AttackConfig(epsilon=epsilon, n_iter=8, n_grad_samples=2,
                               n_eval_samples=2, seed=1)

            def check(_, x, eps=epsilon):
                assert np.all(x >= 0.0) and np.all(x <= 1.0)
                assert np.max(np.abs(x - images)) <= eps + 1e-9

            result = pgd_attack(net, images, labels, cfg, step_callback=check)
            assert np.max(np.abs(result.adversarial - images)) <= epsilon + 1e-9

    def test_iterates_are_distinct_and_never_changed(self, toy):
        net = StochasticMlp.create(Rng(0), topology=(784, 16, 16, 10))
        images, labels = toy.images[:20], toy.labels[:20]
        kept = []
        cfg = AttackConfig(epsilon=0.1, n_iter=6, n_grad_samples=3,
                           n_eval_samples=2, seed=2)
        result = pgd_attack(net, images, labels, cfg, step_callback=lambda
                            it, x: kept.append((x, x.copy())))
        for i, (x, copy) in enumerate(kept):
            assert np.array_equal(x, copy)
            assert not np.shares_memory(x, images)
            assert not any(np.shares_memory(x, y) for y, _ in kept[i + 1:])
        assert result.adversarial is kept[-1][0]

    def test_two_workers_hold_about_six_batches(self, monkeypatch):
        """At B=1000 and 5 gradient draws: the iterate, the gradient sum and
        the pool's two blocks in flight, each at most its input gradient and
        about as much again of activations and weights.  One worker held
        six batches before the update and projection were made in place."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(tensor, "allowed_cpus", lambda: 2)
        net = StochasticMlp.create(Rng(0).derive(0))
        images = Rng(1).uniform(0.0, 1.0, (1000, 784))
        labels = np.arange(1000) % 10
        cfg = AttackConfig(epsilon=0.25, n_iter=2, n_grad_samples=5,
                           n_eval_samples=4, seed=3)
        tracemalloc.start()
        try:
            pgd_attack(net, images, labels, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * images.nbytes

    def test_deterministic_attack_reproducible(self, toy, toy_model):
        images, labels = toy.images[:30], toy.labels[:30]
        cfg = AttackConfig(epsilon=0.2, n_iter=10, random_init=False,
                           n_eval_samples=1, seed=0)
        a = pgd_attack(toy_model, images, labels, cfg)
        b = pgd_attack(toy_model, images, labels, cfg)
        assert np.array_equal(a.adversarial, b.adversarial)

    def test_success_flags_consistent_with_accuracy(self, toy, toy_model):
        images, labels = toy.images[:60], toy.labels[:60]
        result = pgd_attack(toy_model, images, labels,
                            AttackConfig(epsilon=0.3, n_iter=10,
                                         n_eval_samples=1, seed=2))
        assert result.robust_accuracy == pytest.approx(
            np.mean(result.pred_after == labels))
        assert np.array_equal(result.success, result.pred_after != labels)

    def test_attack_degrades_accuracy(self, toy, toy_model):
        images, labels = toy.images[:80], toy.labels[:80]
        curve = robustness_curve(toy_model, images, labels,
                                 eps_grid=(0.0, 0.3),
                                 cfg=AttackConfig(n_iter=15, n_eval_samples=1,
                                                  seed=0))
        assert curve[1][1].robust_accuracy < curve[0][1].robust_accuracy

    def test_predicts_only_the_adversarial_images(self, toy, toy_model):
        # Clean predictions are the caller's: PGD's one evaluation is of its
        # own result.
        predicted = []

        class Recorder:
            loss_input_grad = staticmethod(toy_model.loss_input_grad)

            def predict(self, x, *args):
                predicted.append(x)
                return toy_model.predict(x, *args)

        images, labels = toy.images[:20], toy.labels[:20]
        result = pgd_attack(Recorder(), images, labels,
                            AttackConfig(epsilon=0.2, n_iter=3,
                                         n_eval_samples=1))
        assert len(predicted) == 1
        assert predicted[0] is result.adversarial

    def test_default_step_rule(self):
        cfg = AttackConfig(epsilon=0.2, n_iter=40)
        assert cfg.resolved_step() == pytest.approx(2.5 * 0.2 / 40)

    def test_unsorted_grid_rejected(self, toy, toy_model):
        with pytest.raises(ValueError):
            robustness_curve(toy_model, toy.images[:5], toy.labels[:5],
                             eps_grid=(0.1, 0.0))

    def test_curve_at_zero_only_equals_clean_accuracy(self, toy, toy_model):
        images, labels = toy.images[:50], toy.labels[:50]
        curve = robustness_curve(toy_model, images, labels, eps_grid=(0.0,),
                                 cfg=AttackConfig(n_eval_samples=1))
        assert curve[0][1].robust_accuracy == toy_model.predict(images).accuracy(labels)


class TestArtifacts:
    def test_idx_and_csv_outputs(self, toy, toy_model, tmp_path):
        images, labels = toy.images[:25], toy.labels[:25]
        result = pgd_attack(toy_model, images, labels,
                            AttackConfig(epsilon=0.25, n_iter=5,
                                         n_eval_samples=1, seed=0))
        pred_before = toy_model.predict(images).predicted_class
        paths = write_attack_artifacts(result, pred_before, tmp_path, "adv_test")
        reloaded = load_idx(paths["images"], paths["labels"])
        assert np.array_equal(reloaded.images, result.adversarial)
        assert np.array_equal(reloaded.labels, labels)
        lines = open(paths["csv"]).read().strip().split("\n")
        assert lines[0] == "example_index,true_label,pred_before,pred_after,success"
        assert len(lines) == 26

    def test_csv_contents(self, toy, toy_model):
        images, labels = toy.images[:3], toy.labels[:3]
        result = pgd_attack(toy_model, images, labels,
                            AttackConfig(epsilon=0.0, n_eval_samples=1))
        pred_before = np.array([7, 8, 9])
        rows = attack_csv(result, pred_before).strip().split("\n")[1:]
        for i, row in enumerate(rows):
            fields = row.split(",")
            assert fields[0] == str(i)
            assert fields[1] == str(int(labels[i]))
            assert fields[2] == str(pred_before[i])
            assert fields[3] == str(int(result.pred_after[i]))
