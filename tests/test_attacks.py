"""PGD constraint invariants, oracles, and persistence."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_worker_per_cpu
from infmix.attacks import (AttackConfig, attack_csv, pgd_attack, project,
                            write_attack_artifacts)
from infmix.baselines import (DeepEnsemble, DropoutMlp, FitConfig,
                              glorot_weights, train_dropout)
from infmix.data import load_idx
from infmix.network import DRAW_BLOCK, StochasticMlp
from infmix.tensor import Rng

from test_objectives import toy_dataset


@pytest.fixture(scope="module")
def toy():
    return toy_dataset(n=400, seed=3)


@pytest.fixture(scope="module")
def toy_model(toy):
    return train_dropout(
        toy, 0.0, weight_decay=0.0,
        cfg=FitConfig(batch_size=100, iterations=300, seed=0),
        topology=(784, 16, 16, 10))


def linear_two_class_model(w0=2.0, w1=-1.0):
    """One input, two classes, no hidden layer: logit gap = x (w0 - w1)."""
    weights = np.array([[w0, w1],
                        [0.0, 0.0]])
    return DropoutMlp(weights=[weights], p_drop=0.0)


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
        one_worker_per_cpu(monkeypatch, 2)
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
        clean, attacked = (
            pgd_attack(toy_model, images, labels,
                       AttackConfig(epsilon=epsilon, n_iter=15,
                                    n_eval_samples=1, seed=0))
            for epsilon in (0.0, 0.3))
        assert attacked.robust_accuracy < clean.robust_accuracy

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

    def test_curve_at_zero_only_equals_clean_accuracy(self, toy, toy_model):
        images, labels = toy.images[:50], toy.labels[:50]
        result = pgd_attack(toy_model, images, labels,
                            AttackConfig(epsilon=0.0, n_eval_samples=1))
        assert result.robust_accuracy == toy_model.predict(images).accuracy(labels)


# SHA-256 of ``pgd_attack``'s adversarial images and of its evaluation's
# mean probabilities, per (model kind, gradient draws), taken while every
# step still drew its own components: the same on 1, 2 and 3 CPUs.  The
# GEMMs of PGD_TOPOLOGY at 30 images are small enough that they are also the
# same under OPENBLAS_NUM_THREADS=1, 2, 4 and unset (at 784 inputs the mean
# probabilities are not).  Another numpy or BLAS build may need them taken
# again.
PGD_TOPOLOGY = (64, 32, 32, 10)
PGD_DIGESTS = {
    ("dropout", 1): (
        "fdbe9ce9dae54766f42f1436ac8aea02c43d5a3d60a91c7b872fbe240fe0b8bc",
        "6727e78f34d63066c39caaf4cfb46d3fcbe1629b29103528a9f4c722c6cf200e"),
    ("dropout", 5): (
        "36da7ecf6879e062169a468d037e5cf676fd3e62491c425b3f2219953a996b20",
        "684178516d30fd3bac48f63b6750c4108d51c8521e5c5943c621e18ca36d7315"),
    ("ensemble", 1): (
        "8a579e646bd76c808c442a17905215136ff625d0484b9572b650f1a74e42de30",
        "1f4dfd7d9143e4cd3748b7da983e4b7aa45a106f1b62b9628b6e210cf03b28b0"),
    ("ensemble", 5): (
        "8a579e646bd76c808c442a17905215136ff625d0484b9572b650f1a74e42de30",
        "1f4dfd7d9143e4cd3748b7da983e4b7aa45a106f1b62b9628b6e210cf03b28b0"),
    ("ml", 1): (
        "c50f2d57f8ea29692a3f99f456f768dd614dec49d5d4f833c27f957e8e0625a3",
        "78654ab5a7e7bd9e44034fdb655d5d33d8f4ad51bd6fc2590483567a8edea651"),
    ("ml", 5): (
        "cd646f266a14e7e1831a66e08e2306eec1ced7ea8943fffffd180e550d022fbc",
        "3875de506a3c51bf05b5788d62134f9f6269c38948ba09ac14c65c14e9252cd0"),
}


def pgd_model(kind):
    if kind == "ml":
        return StochasticMlp.create(Rng(0).derive(0), topology=PGD_TOPOLOGY)
    weights = glorot_weights(PGD_TOPOLOGY, Rng(1))
    if kind == "dropout":
        return DropoutMlp(weights, p_drop=0.5)
    return DeepEnsemble([DropoutMlp(weights, 0.0),
                         DropoutMlp([0.5 * w for w in weights], 0.0),
                         DropoutMlp([-w for w in weights], 0.0)])


class TestDrawAhead:
    """Each PGD step draws the next step's components in its own pool, and
    the attack gives the bits it gave when every step drew its own."""

    x = Rng(7).uniform(0.0, 1.0, (30, PGD_TOPOLOGY[0]))
    y = np.arange(30) % 10

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("kind, n_grad_samples", sorted(PGD_DIGESTS))
    def test_pinned_bytes_on_every_cpu_count(self, kind, n_grad_samples,
                                             cpus, monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        result = pgd_attack(pgd_model(kind), self.x, self.y, AttackConfig(
            epsilon=0.25, n_iter=4, n_grad_samples=n_grad_samples,
            n_eval_samples=3, seed=11))
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in
                        (result.adversarial, result.summary_after.mean_probs))
        assert digests == PGD_DIGESTS[kind, n_grad_samples]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n_grad_samples", [1, 5])
    def test_each_step_draws_the_next_and_the_last_none(
            self, n_grad_samples, cpus, monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        draws = []          # weight draws: one row of normals each
        real_normal = Rng.standard_normal

        def standard_normal(rng, *shape):
            draws.extend([shape] * shape[0])
            return real_normal(rng, *shape)

        monkeypatch.setattr(Rng, "standard_normal", standard_normal)
        per_call = []
        real_grad = net.loss_input_grad

        def loss_input_grad(*args):
            before = len(draws)
            out = real_grad(*args)
            per_call.append(len(draws) - before)
            return out

        monkeypatch.setattr(net, "loss_input_grad", loss_input_grad)
        s, n_iter, n_eval = n_grad_samples, 6, 3
        pgd_attack(net, Rng(1).uniform(0.0, 1.0, (4, 6)), [0, 1, 2, 0],
                   AttackConfig(epsilon=0.1, n_iter=n_iter, n_grad_samples=s,
                                n_eval_samples=n_eval, seed=2))
        assert per_call == [2 * s] + [s] * (n_iter - 2) + [0]
        assert len(draws) == n_iter * s + n_eval
        # The attack draws in blocks of at most DRAW_BLOCK.
        blocks = [min(DRAW_BLOCK, s - start) for start in range(0, s, DRAW_BLOCK)]
        assert {shape[0] for shape in draws[:n_iter * s]} == set(blocks)


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
        lines = Path(paths["csv"]).read_text().strip().split("\n")
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
