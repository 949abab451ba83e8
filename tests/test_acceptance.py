"""Acceptance gate.

Criteria 1-6 form the fast property gate (pure math oracles, < 2 min).
Criteria 7-14 are desk-scale reproductions of the reported experiments:
they train full models (30,000 iterations each) on real MNIST/FMNIST IDX
data, take minutes-to-hours per criterion, and are marked ``slow``.  They
skip with a warning when the data is absent (INFMIX_DATA_DIR for MNIST,
INFMIX_FMNIST_DIR for Fashion-MNIST, notmnist-* files for the OOD set).

Run the fast gate:      pytest tests/test_acceptance.py -m "not slow" -s
Run the reproductions:  INFMIX_DATA_DIR=... pytest tests/test_acceptance.py -m slow -s
Trained models are cached under $INFMIX_ACCEPT_CACHE (or a session tmp dir)
so reruns and criteria that share models do not retrain.
"""

import os

import numpy as np
import pytest

from infmix.attacks import AttackConfig, pgd_attack
from infmix.baselines import FitConfig, train_dropout, train_ensemble
from infmix.checkpoint import load_model, save_model
from infmix.data import load_split, take_prefix
from infmix.gradcheck import (check_objective_gradient,
                              check_single_sample_equivalence)
from infmix.metrics import auroc_scores
from infmix.network import MAX_ENTROPY, StochasticMlp, summarize_prob_stream
from infmix.objectives import ObjectiveKind, TrainConfig, ml_loss, train, vi_loss
from infmix.posterior import PriorSpec, kl_to_prior, per_weight_variance
from infmix.tensor import Rng

from conftest import real_data_dir
from test_metrics import brute_force_auroc
from test_posterior import random_layer

S_EVAL = 100
FULL_ITERATIONS = 30_000
ACCEPT_SEEDS = (0, 1, 2)


def gate(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# Fast property gate (criteria 1-6)
# ----------------------------------------------------------------------

class TestPropertyGate:
    def test_criterion_1_gradient_oracle(self):
        worst = 0.0
        for kind in (ObjectiveKind.ML, ObjectiveKind.VI):
            for seed in (0, 1):
                res = check_objective_gradient(kind, seed=seed, tolerance=1e-4)
                worst = max(worst, res.max_rel_err)
                assert res.passed, res.line()
        gate("1 gradient oracle", worst < 1e-4, f"max_rel_err={worst:.2e} < 1e-4")

    def test_criterion_2_kl_oracle(self):
        # (a) closed form vs the vec-Gaussian KL formula on random layers.
        worst = 0.0
        for seed in range(10):
            layer = random_layer(seed, n_rows=3 + seed % 3, n_cols=2 + seed % 2)
            prior = PriorSpec(0.5 + 0.3 * seed)
            v = per_weight_variance(layer).ravel()
            m = layer.mean.ravel()
            k = v.size
            vec_formula = 0.5 * (v.sum() / prior.variance
                                 + (m * m).sum() / prior.variance
                                 - k + k * np.log(prior.variance)
                                 - np.log(v).sum())
            err = abs(kl_to_prior(layer, prior) - vec_formula) / max(
                abs(vec_formula), 1.0)
            worst = max(worst, err)
        # (b) Monte-Carlo estimate from 1e6 draws within 3 standard errors.
        layer = random_layer(11, n_rows=2, n_cols=2)
        prior = PriorSpec(1.3)
        var = per_weight_variance(layer).ravel()
        mean = layer.mean.ravel()
        n = 1_000_000
        draws = mean + np.sqrt(var) * Rng(5).standard_normal(n, var.size)
        log_q = (-0.5 * ((draws - mean) ** 2 / var
                         + np.log(2 * np.pi * var))).sum(axis=1)
        log_p = (-0.5 * (draws ** 2 / prior.variance
                         + np.log(2 * np.pi * prior.variance))).sum(axis=1)
        mc = log_q - log_p
        se = mc.std(ddof=1) / np.sqrt(n)
        gap = abs(kl_to_prior(layer, prior) - mc.mean())
        gate("2 KL oracle", worst < 1e-10 and gap < 3 * se,
             f"closed-form err={worst:.2e} < 1e-10, MC gap={gap:.4f} < 3se={3 * se:.4f}")

    def test_criterion_3_jensen_property(self):
        rng = Rng(0)
        strict_ok = True
        for _ in range(1000):
            ll = rng.uniform(-10.0, 0.0, (4, 5))
            ml_val, _ = ml_loss(ll)
            vi_val, _ = vi_loss(ll)
            if not np.all(ml_val >= vi_val - 1e-12):
                strict_ok = False
                break
            spread = ll.max(axis=1) - ll.min(axis=1)
            if not np.all(ml_val[spread > 1e-9] > vi_val[spread > 1e-9]):
                strict_ok = False
                break
        s1 = check_single_sample_equivalence(seed=0)
        gate("3 Jensen property", strict_ok and s1.passed and s1.max_rel_err <= 1e-15,
             "ml >= vi on 1000 matrices (strict off-diagonal), S=1 exact")

    def test_criterion_4_predictive_variance_identity(self):
        worst = 0.0
        for seed in range(20):
            raw = Rng(seed).uniform(0.01, 1.0, (7, 6, 10))
            stack = raw / raw.sum(axis=2, keepdims=True)
            summary = summarize_prob_stream(stack, len(stack))
            centered = ((stack - stack.mean(axis=0)) ** 2).mean(axis=0)
            worst = max(worst, float(np.max(np.abs(
                summary.class_variance - centered))))
            assert np.all(summary.entropy >= 0.0)
            assert np.all(summary.entropy <= MAX_ENTROPY + 1e-12)
        single = summarize_prob_stream(stack[:1], 1)
        s1_zero = bool(np.all(single.class_variance == 0.0))
        gate("4 predictive-variance identity", worst < 1e-12 and s1_zero,
             f"max identity gap={worst:.2e} < 1e-12, S=1 variance exactly 0")

    def test_criterion_5_auroc_oracle(self):
        worst = 0.0
        for seed in range(20):
            rng = Rng(seed)
            pos = rng.integers(0, 10, size=50).astype(float)
            neg = rng.integers(0, 10, size=50).astype(float)
            worst = max(worst, abs(auroc_scores(pos, neg)
                                   - brute_force_auroc(pos, neg)))
        gate("5 AUROC oracle", worst < 1e-12,
             f"max |rank - all-pairs|={worst:.2e} < 1e-12 incl. ties")

    def test_criterion_6_pgd_invariants(self):
        net = StochasticMlp.create(Rng(0), topology=(12, 6, 6, 4))
        rng = Rng(1)
        ok = True
        for trial in range(4):
            x = rng.uniform(0.0, 1.0, (9, 12))
            y = rng.integers(0, 4, size=9)
            epsilon = float(rng.uniform(0.02, 0.4, (1,))[0])
            violations = []

            def check(_, x_adv, eps=epsilon, x0=x):
                if not (np.all(x_adv >= 0.0) and np.all(x_adv <= 1.0)):
                    violations.append("box")
                if np.max(np.abs(x_adv - x0)) > eps + 1e-9:
                    violations.append("ball")

            pgd_attack(net, x, y,
                       AttackConfig(epsilon=epsilon, n_iter=12,
                                    n_grad_samples=2, n_eval_samples=2,
                                    seed=trial),
                       step_callback=check)
            ok = ok and not violations
        gate("6 PGD invariants", ok,
             "ball and box constraints hold after every iteration")


# ----------------------------------------------------------------------
# Desk-scale reproduction (criteria 7-14): full training runs, slow.
# ----------------------------------------------------------------------

def _cache_dir(tmp_path_factory):
    env = os.environ.get("INFMIX_ACCEPT_CACHE")
    if env:
        os.makedirs(env, exist_ok=True)
        return env
    return str(tmp_path_factory.mktemp("acceptance_cache"))


@pytest.fixture(scope="session")
def accept_cache(tmp_path_factory):
    return _cache_dir(tmp_path_factory)


class ModelBank:
    """Trains/caches full-protocol models keyed by their hyperparameters."""

    def __init__(self, cache_dir, dataset_tag, train_data, test_data):
        self.cache_dir = cache_dir
        self.tag = dataset_tag
        self.train_data = train_data
        self.test_data = test_data
        self._eval_cache = {}

    def stochastic(self, objective, kl_weight, prior_var, seed,
                   iterations=FULL_ITERATIONS) -> StochasticMlp:
        name = (f"{self.tag}_{objective}_kl{kl_weight:g}_pv{prior_var:g}"
                f"_it{iterations}_seed{seed}.ckpt")
        path = os.path.join(self.cache_dir, name)
        if os.path.exists(path):
            return load_model(path)
        net = StochasticMlp.create(Rng(seed).derive(0))
        cfg = TrainConfig(objective=ObjectiveKind(objective),
                          kl_weight=kl_weight, prior=PriorSpec(prior_var),
                          iterations=iterations, seed=seed)
        train(net, self.train_data, cfg, record_every=0)
        save_model(net, path)
        return net

    def baseline(self, kind, seed, iterations=FULL_ITERATIONS):
        name = f"{self.tag}_{kind}_it{iterations}_seed{seed}.ckpt"
        path = os.path.join(self.cache_dir, name)
        if os.path.exists(path):
            return load_model(path)
        fit = FitConfig(iterations=iterations, seed=seed)
        if kind == "deterministic":
            model = train_dropout(self.train_data, 0.0, cfg=fit)
        elif kind == "dropout":
            model = train_dropout(self.train_data, 0.5, cfg=fit)
        elif kind == "ensemble":
            model = train_ensemble(self.train_data, 5, cfg=fit)
        else:
            raise ValueError(kind)
        save_model(model, path)
        return model

    def test_summary(self, model, key, seed):
        if key not in self._eval_cache:
            self._eval_cache[key] = model.predict(
                self.test_data.images, S_EVAL, Rng(seed).derive(99))
        return self._eval_cache[key]

    def accuracy(self, model, key, seed) -> float:
        return self.test_summary(model, key, seed).accuracy(self.test_data.labels)


@pytest.fixture(scope="session")
def mnist_bank(accept_cache):
    data_dir = real_data_dir("mnist")
    if data_dir is None:
        pytest.skip("real MNIST IDX data not available (set INFMIX_DATA_DIR)")
    return ModelBank(accept_cache, "mnist",
                     load_split(data_dir, "train", "mnist"),
                     load_split(data_dir, "test", "mnist"))


@pytest.fixture(scope="session")
def fmnist_bank(accept_cache):
    data_dir = real_data_dir("fmnist")
    if data_dir is None:
        pytest.skip("real FMNIST IDX data not available (set INFMIX_FMNIST_DIR)")
    return ModelBank(accept_cache, "fmnist",
                     load_split(data_dir, "train", "fmnist"),
                     load_split(data_dir, "test", "fmnist"))


def _mean_accuracy(bank, objective, kl_weight, seeds=ACCEPT_SEEDS,
                   prior_var=1.0):
    accs = []
    for seed in seeds:
        key = (objective, kl_weight, prior_var, seed)
        model = bank.stochastic(objective, kl_weight, prior_var, seed)
        accs.append(bank.accuracy(model, key, seed))
    return float(np.mean(accs))


@pytest.mark.slow
class TestDeskScale:
    def test_criterion_7_accuracy_table(self, mnist_bank):
        targets = {("vi", 1.0): 0.974, ("vi", 0.1): 0.985,
                   ("ml", 1.0): 0.973, ("ml", 0.1): 0.983}
        details = []
        ok = True
        for (objective, kl_weight), target in targets.items():
            mean_acc = _mean_accuracy(mnist_bank, objective, kl_weight)
            details.append(f"{objective}@{kl_weight:g}: {mean_acc:.4f} "
                           f"(target {target} +- 0.005)")
            ok = ok and abs(mean_acc - target) <= 0.005
        gate("7 accuracy table", ok, "; ".join(details))

    def test_criterion_7_ci_variant(self, mnist_bank):
        # 20-epoch budget (6,000 iterations), kl_weight 0.1: accuracy >= 0.965.
        model = mnist_bank.stochastic("ml", 0.1, 1.0, seed=0, iterations=6000)
        acc = mnist_bank.accuracy(model, ("ml", 0.1, 1.0, 0, "ci"), 0)
        gate("7ci reduced-epoch accuracy", acc >= 0.965,
             f"accuracy={acc:.4f} >= 0.965 after 20 epochs")

    def test_criterion_8_prior_trend(self, mnist_bank):
        priors = (0.5, 1.0, 1.5, 3.0)
        ok = True
        details = []
        for objective in ("vi", "ml"):
            means = [_mean_accuracy(mnist_bank, objective, 1.0,
                                    prior_var=pv) for pv in priors]
            inversions = sum(b > a for a, b in zip(means, means[1:]))
            details.append(f"{objective}: " + "->".join(f"{m:.4f}" for m in means)
                           + f" ({inversions} inversions)")
            ok = ok and inversions <= 1
        gate("8 prior-variance trend", ok, "; ".join(details))

    def test_criterion_9_predictive_variance_ordering(self, mnist_bank):
        ok = True
        details = []
        for seed in ACCEPT_SEEDS:
            pair = {}
            for objective in ("ml", "vi"):
                key = (objective, 1.0, 1.0, seed)
                model = mnist_bank.stochastic(objective, 1.0, 1.0, seed)
                pair[objective] = float(
                    mnist_bank.test_summary(model, key, seed).max_variance.mean())
            details.append(f"seed {seed}: ml={pair['ml']:.5f} vi={pair['vi']:.5f}")
            ok = ok and pair["ml"] > pair["vi"]
        gate("9 predictive-variance ordering", ok, "; ".join(details))

    def test_criterion_10_mixing_variance_vs_kl_weight(self, mnist_bank):
        # Middle layer (between the two hidden layers), per-weight variance.
        ok = True
        details = []
        for objective in ("ml", "vi"):
            means = {}
            for kl_weight in (1.0, 0.1):
                vals = []
                for seed in ACCEPT_SEEDS:
                    model = mnist_bank.stochastic(objective, kl_weight, 1.0, seed)
                    vals.append(float(per_weight_variance(
                        model.layers[1]).mean()))
                means[kl_weight] = float(np.mean(vals))
            details.append(f"{objective}: kl1={means[1.0]:.3e} "
                           f"kl0.1={means[0.1]:.3e}")
            ok = ok and means[1.0] > means[0.1]
        gate("10 mixing-variance vs kl_weight", ok, "; ".join(details))

    def test_criterion_11_ood_auroc(self, mnist_bank):
        data_dir = real_data_dir("mnist")
        try:
            ood = load_split(data_dir, "ood", "notmnist")
        except FileNotFoundError:
            pytest.skip("notMNIST IDX files absent; criterion 11 skipped "
                        "(convert the OOD set externally)")
        ood = take_prefix(ood, min(10_000, ood.n))
        aurocs = {}
        for objective in ("ml", "vi"):
            vals = []
            for seed in ACCEPT_SEEDS:
                key = (objective, 1.0, 1.0, seed)
                model = mnist_bank.stochastic(objective, 1.0, 1.0, seed)
                test_summary = mnist_bank.test_summary(model, key, seed)
                ood_summary = model.predict(ood.images, S_EVAL,
                                            Rng(seed).derive(98))
                vals.append(auroc_scores(ood_summary.entropy,
                                         test_summary.entropy))
            aurocs[objective] = float(np.mean(vals))
        ok = (aurocs["ml"] - aurocs["vi"] >= 0.02
              and 0.94 <= aurocs["ml"] <= 1.0)
        gate("11 OOD entropy AUROC", ok,
             f"ml={aurocs['ml']:.4f} (in [0.94,1]), vi={aurocs['vi']:.4f}, "
             f"gap >= 0.02")

    def _robust_curve(self, bank, model, seed, eps_grid, n_grad_samples=1):
        prefix = take_prefix(bank.test_data, 1000)
        accs = []
        for epsilon in eps_grid:
            result = pgd_attack(model, prefix.images, prefix.labels,
                                AttackConfig(epsilon=epsilon,
                                             n_grad_samples=n_grad_samples,
                                             seed=seed,
                                             n_eval_samples=S_EVAL))
            accs.append(result.robust_accuracy)
        return np.array(accs)

    def test_criterion_12_robustness_orderings(self, mnist_bank):
        eps_grid = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25)
        curves = {}
        for objective in ("ml", "vi"):
            per_seed = [self._robust_curve(
                mnist_bank, mnist_bank.stochastic(objective, 1.0, 1.0, s),
                s, eps_grid) for s in ACCEPT_SEEDS]
            curves[objective] = np.mean(per_seed, axis=0)
        nn_curve = np.mean([self._robust_curve(
            mnist_bank, mnist_bank.baseline("deterministic", s), s, eps_grid)
            for s in ACCEPT_SEEDS], axis=0)

        # Monotone non-increasing up to evaluation noise (100-draw predictions
        # on 1,000 samples carry ~0.5% standard error).
        noise = 0.005
        monotone = all(
            np.all(np.diff(curves[o]) <= noise) for o in ("ml", "vi"))
        idx_02 = eps_grid.index(0.2)
        ml_ge_vi = curves["ml"][idx_02] >= curves["vi"][idx_02]
        # Multi-sample attacks are stronger at the 0.25 operating point.
        idx_025 = eps_grid.index(0.25)
        multi_ok = True
        for objective in ("ml", "vi"):
            model = mnist_bank.stochastic(objective, 1.0, 1.0, 0)
            strong = self._robust_curve(mnist_bank, model, 0, (0.25,),
                                        n_grad_samples=100)[0]
            multi_ok = multi_ok and strong <= curves[objective][idx_025]
        # Stochastic advantage over the deterministic net for positive
        # perturbations up to 0.2.
        positive = slice(1, idx_02 + 1)
        adv_ok = (np.all(curves["ml"][positive] >= nn_curve[positive])
                  and np.all(curves["vi"][positive] >= nn_curve[positive]))
        gate("12 robustness orderings",
             monotone and ml_ge_vi and multi_ok and adv_ok,
             f"monotone={monotone} ml>=vi@0.2={ml_ge_vi} "
             f"S100<=S1@0.25={multi_ok} stochastic>=NN(0<eps<=0.2)={adv_ok}")

    def _detection_aurocs(self, bank, model, seed):
        result = pgd_attack(model, bank.test_data.images, bank.test_data.labels,
                            AttackConfig(epsilon=0.25, seed=seed,
                                         n_eval_samples=S_EVAL))
        clean = model.predict(bank.test_data.images, S_EVAL,
                              Rng(seed).derive(97))
        return {
            "variance": auroc_scores(result.summary_after.max_variance,
                                     clean.max_variance),
            "entropy": auroc_scores(result.summary_after.entropy,
                                    clean.entropy),
        }

    def test_criterion_13_detection_orderings(self, mnist_bank):
        mnist = {}
        for objective in ("ml", "vi"):
            per_seed = [self._detection_aurocs(
                mnist_bank, mnist_bank.stochastic(objective, 1.0, 1.0, s), s)
                for s in ACCEPT_SEEDS]
            mnist[objective] = {k: float(np.mean([d[k] for d in per_seed]))
                                for k in ("variance", "entropy")}
        entropy_beats_variance = all(
            mnist[o]["entropy"] > mnist[o]["variance"] for o in ("ml", "vi"))
        ml_beats_vi_mnist = all(
            mnist["ml"][k] > mnist["vi"][k] for k in ("variance", "entropy"))
        detail = (f"mnist ml={mnist['ml']} vi={mnist['vi']}")

        fmnist_dir = real_data_dir("fmnist")
        if fmnist_dir is None:
            gate("13 detection orderings (MNIST only; FMNIST data absent)",
                 entropy_beats_variance and ml_beats_vi_mnist, detail)
            pytest.skip("FMNIST half of criterion 13 skipped: data absent")
        fbank = ModelBank(mnist_bank.cache_dir, "fmnist",
                          load_split(fmnist_dir, "train", "fmnist"),
                          load_split(fmnist_dir, "test", "fmnist"))
        fmnist = {}
        for objective in ("ml", "vi"):
            per_seed = [self._detection_aurocs(
                fbank, fbank.stochastic(objective, 1.0, 1.0, s), s)
                for s in ACCEPT_SEEDS]
            fmnist[objective] = {k: float(np.mean([d[k] for d in per_seed]))
                                 for k in ("variance", "entropy")}
        ml_beats_vi_fmnist = all(
            fmnist["ml"][k] > fmnist["vi"][k] for k in ("variance", "entropy"))
        vi_fmnist_below_half = fmnist["vi"]["variance"] < 0.5
        gate("13 detection orderings",
             entropy_beats_variance and ml_beats_vi_mnist
             and ml_beats_vi_fmnist and vi_fmnist_below_half,
             detail + f"; fmnist ml={fmnist['ml']} vi={fmnist['vi']}")

    def test_criterion_14_finite_mixture_baselines(self, mnist_bank):
        accs = {}
        for kind, target in (("dropout", 0.978), ("ensemble", 0.985)):
            vals = []
            for seed in ACCEPT_SEEDS:
                model = mnist_bank.baseline(kind, seed)
                vals.append(mnist_bank.accuracy(model, (kind, seed), seed))
            accs[kind] = float(np.mean(vals))
            assert abs(accs[kind] - target) <= 0.005, (
                f"{kind}: {accs[kind]:.4f} vs target {target} +- 0.005")
        mixture_acc = max(_mean_accuracy(mnist_bank, o, 1.0)
                          for o in ("ml", "vi"))
        ordering = accs["ensemble"] >= accs["dropout"] >= mixture_acc

        # Fig. 7 ordering: finite mixtures less robust at eps = 0.2.
        eps = (0.2,)
        finite = {kind: float(np.mean([self._robust_curve(
            mnist_bank, mnist_bank.baseline(kind, s), s, eps)[0]
            for s in ACCEPT_SEEDS])) for kind in ("dropout", "ensemble")}
        infinite = {o: float(np.mean([self._robust_curve(
            mnist_bank, mnist_bank.stochastic(o, 1.0, 1.0, s), s, eps)[0]
            for s in ACCEPT_SEEDS])) for o in ("ml", "vi")}
        robust_ordering = all(finite[f] < infinite[o]
                              for f in finite for o in infinite)
        gate("14 finite-mixture baselines", ordering and robust_ordering,
             f"dropout={accs['dropout']:.4f} ensemble={accs['ensemble']:.4f} "
             f"mixtures<= both; robustness@0.2 finite={finite} "
             f"infinite={infinite}")
