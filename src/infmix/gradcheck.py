"""Finite-difference verification of every analytic gradient path.

All checks run on tiny nets with frozen reparameterization noise (a fixed
``Rng`` key, replayed for every evaluation of the loss), so each loss is a
smooth deterministic function of the parameters and central differences
are a valid oracle.  Weight draws come from ``StochasticMlp.sample_draws``,
the sampler training runs, and every finite-difference check goes through
``fd_check``.  The ``perturb`` hook injects an error into
one analytic gradient, as a negative control that the checker can fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import DropoutMasks, decay_penalty, glorot_weights
from .network import StochasticMlp, backward, forward
from .objectives import (ObjectiveKind, SharedDraws, TrainConfig, ml_loss,
                         objective_gradients, objective_loss, step_gradients,
                         vi_loss)
from .posterior import PriorSpec, kl_backward, kl_to_prior, sample, sample_backward
from .tensor import Rng

TINY_TOPOLOGY = (5, 3, 3, 2)


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name:<24} max_rel_err={self.max_rel_err:.3e}  "
                f"tol={self.tolerance:.0e}")


def rel_err(analytic, numeric, floor: float = 1e-6) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    f = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
    return float(np.max(np.abs(a - f) / denom))


def flatten(arrays) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in arrays])


def unflatten_into(flat: np.ndarray, arrays) -> None:
    """Writes consecutive pieces of ``flat`` into ``arrays`` in place."""
    ends = np.cumsum([a.size for a in arrays])
    for a, part in zip(arrays, np.split(flat, ends[:-1])):
        a[...] = part.reshape(a.shape)


def central_differences(fn, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += h
        xm = x0.copy()
        xm[i] -= h
        grad[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return grad


def _tiny_net(seed: int, topology=TINY_TOPOLOGY) -> StochasticMlp:
    net = StochasticMlp.create(Rng(seed), topology=topology)
    # Nudge scales off their uniform initialization so both scale gradients
    # are exercised at generic values.
    jitter = Rng(seed).derive(9)
    for layer in net.layers:
        layer.row_scale_raw = layer.row_scale_raw + jitter.uniform(
            -0.5, 0.5, layer.row_scale_raw.shape)
        layer.col_scale_raw = layer.col_scale_raw + jitter.uniform(
            -0.5, 0.5, layer.col_scale_raw.shape)
    return net


def _tiny_batch(seed: int, n: int = 7, n_in: int = 5, n_classes: int = 2):
    rng = Rng(seed).derive(10)
    images = rng.uniform(0.0, 1.0, (n, n_in))
    labels = rng.integers(0, n_classes, size=n)
    return images, np.asarray(labels)


def _frozen_rng(seed: int) -> Rng:
    """The frozen noise: a fresh stream with the same key each call."""
    return Rng(seed).derive(11)


def frozen_loglik(net: StochasticMlp, images, labels, n_samples: int, seed: int):
    """(ll, ctx) of ``SharedDraws.loglik`` with frozen noise."""
    sampler = SharedDraws(net, n_samples, _frozen_rng(seed))
    return sampler.loglik(images, labels, sampler.draw(len(labels)))


def frozen_objective_value(net, images, labels, n_samples, seed, kind, kl_weight,
                           prior) -> float:
    """Batch objective -(1/B) sum_n loss_n + kl_weight * KL / B, treating the
    batch as the whole dataset (the quantity the gradient check targets)."""
    ll, _ = frozen_loglik(net, images, labels, n_samples, seed)
    per_example, _ = objective_loss(kind, ll)
    kl = sum(kl_to_prior(layer, prior) for layer in net.layers)
    return -float(per_example.mean()) + kl_weight * kl / images.shape[0]


def fd_check(name: str, analytic, arrays, loss, tolerance: float) -> CheckResult:
    """Analytic gradients, one per array in ``arrays``, against central
    differences of ``loss()`` as each entry is perturbed in place; the
    arrays are restored afterwards."""
    x0 = flatten(arrays)

    def loss_at(flat):
        unflatten_into(flat, arrays)
        return loss()

    numeric = central_differences(loss_at, x0)
    unflatten_into(x0, arrays)
    err = rel_err(flatten(analytic), numeric)
    return CheckResult(name, err, tolerance, err < tolerance)


def check_objective_gradient(kind: ObjectiveKind, seed: int = 0,
                             tolerance: float = 1e-4,
                             perturb: float = 0.0) -> CheckResult:
    """Acceptance oracle: full-objective analytic gradient vs central FD
    on a 5-3-3-2 net with S=3 frozen draws and a nonzero KL weight."""
    net = _tiny_net(seed)
    images, labels = _tiny_batch(seed)
    cfg = TrainConfig(objective=kind, kl_weight=0.3, prior=PriorSpec(1.2),
                      n_train_samples=3, seed=seed)

    _, _, analytic = objective_gradients(
        net, images, labels, cfg, n_total=images.shape[0], rng=_frozen_rng(seed))
    analytic[0].flat[0] += perturb
    return fd_check(
        f"objective_{ObjectiveKind(kind).value}", analytic,
        [p for _, p in net.named_params()],
        lambda: frozen_objective_value(net, images, labels, cfg.n_train_samples,
                                       seed, kind, cfg.kl_weight, cfg.prior),
        tolerance)


def check_kl_gradient(seed: int = 0, tolerance: float = 1e-6) -> CheckResult:
    net = _tiny_net(seed)
    prior = PriorSpec(0.7)
    analytic = [g for layer in net.layers for g in kl_backward(layer, prior)]
    return fd_check("kl_to_prior", analytic, [p for _, p in net.named_params()],
                    lambda: sum(kl_to_prior(layer, prior) for layer in net.layers),
                    tolerance)


def check_sampling_gradient(seed: int = 0, tolerance: float = 1e-5) -> CheckResult:
    """d/d(M, a, b) of sum(G * W) over one frozen draw, G random and fixed."""
    net = _tiny_net(seed)
    noises = [sw.noise for sw in net.sample_draws(
        net.draw_normals(1, _frozen_rng(seed)))]
    g_rng = Rng(seed).derive(12)
    gs = [g_rng.standard_normal(1, layer.n_rows, layer.n_cols)
          for layer in net.layers]
    analytic = [g_part for layer, e, g in zip(net.layers, noises, gs)
                for g_part in sample_backward(layer, sample(layer, e), g)]
    return fd_check("sampling", analytic, [p for _, p in net.named_params()],
                    lambda: sum(float(np.sum(g * sample(layer, e).weights))
                                for layer, e, g in zip(net.layers, noises, gs)),
                    tolerance)


def check_network_gradient(seed: int = 0, tolerance: float = 1e-5) -> CheckResult:
    """Weight and input gradients of sum(G * log_probs) on one fixed draw."""
    net = _tiny_net(seed)
    images, labels = _tiny_batch(seed)
    weights = [sw.weights for sw in net.sample_draws(
        net.draw_normals(1, _frozen_rng(seed)))]
    g = Rng(seed).derive(13).standard_normal(1, images.shape[0],
                                             net.layers[-1].n_cols)

    _, trace = forward(weights, images)
    grad_w, grad_x = backward(trace, g)
    return fd_check("network_backward", grad_w + [grad_x], weights + [images],
                    lambda: float(np.sum(g * forward(weights, images)[0])),
                    tolerance)


def check_weight_decay_gradient(seed: int = 0, tolerance: float = 1e-6) -> CheckResult:
    rng = Rng(seed).derive(14)
    weights = [rng.standard_normal(4, 3), rng.standard_normal(4, 2)]
    wd = 0.125
    return fd_check("weight_decay", decay_penalty(weights, wd)[1], weights,
                    lambda: sum(0.5 * wd * float(np.sum(w[:-1] ** 2))
                                for w in weights),
                    tolerance)


def check_dropout_gradient(seed: int = 0, tolerance: float = 1e-5) -> CheckResult:
    """Dropout training's ``step_gradients`` over frozen per-example masks,
    vs central FD of the NLL plus the weight decay."""
    weights = glorot_weights(TINY_TOPOLOGY, Rng(seed))
    # Nonzero biases: a unit whose inputs are all dropped is off its kink.
    jitter = Rng(seed).derive(16)
    for w in weights:
        w[-1] = jitter.uniform(-0.5, 0.5, w.shape[1])
    images, labels = _tiny_batch(seed)
    sampler = DropoutMasks(weights, 0.5, Rng(seed).derive(15))
    masks = sampler.draw(images.shape[0])
    wd = 0.125
    _, _, analytic = step_gradients(sampler, ObjectiveKind.VI,
                                    lambda: decay_penalty(weights, wd),
                                    images, labels, masks)
    rows = np.arange(images.shape[0])

    def loss():
        log_probs, _ = forward(weights, images, hidden_masks=masks)
        return (-float(np.mean(log_probs[rows, labels]))
                + sum(0.5 * wd * float(np.sum(w[:-1] ** 2)) for w in weights))

    return fd_check("dropout_step", analytic, weights, loss, tolerance)


def check_single_sample_equivalence(seed: int = 0) -> CheckResult:
    """With S=1 the two objectives must coincide exactly: same losses, same
    mixture weights, hence bit-identical gradients."""
    net = _tiny_net(seed)
    images, labels = _tiny_batch(seed)
    ll, _ = frozen_loglik(net, images, labels, 1, seed)
    ml_val, ml_w = ml_loss(ll)
    vi_val, vi_w = vi_loss(ll)
    grads = {}
    for kind in (ObjectiveKind.ML, ObjectiveKind.VI):
        cfg = TrainConfig(objective=kind, kl_weight=0.4, prior=PriorSpec(1.0),
                          n_train_samples=1, seed=seed)
        _, _, g = objective_gradients(
            net, images, labels, cfg, n_total=images.shape[0],
            rng=_frozen_rng(seed))
        grads[kind] = flatten(g)
    exact = (np.array_equal(ml_val, vi_val) and np.array_equal(ml_w, vi_w)
             and np.array_equal(grads[ObjectiveKind.ML], grads[ObjectiveKind.VI]))
    err = 0.0 if exact else max(
        float(np.max(np.abs(ml_val - vi_val))),
        float(np.max(np.abs(grads[ObjectiveKind.ML] - grads[ObjectiveKind.VI]))))
    return CheckResult("ml_vi_single_sample", err, 0.0, exact)


def check_mixture_input_gradient(seed: int = 0, tolerance: float = 1e-5,
                                 n_samples: int = 3) -> CheckResult:
    """Input gradient of -sum_n log p_bar(y_n|x_n) over S frozen draws (the
    quantity PGD ascends), from ``loss_input_grad``, vs central FD of the
    mixture probabilities ``predict`` reports."""
    net = _tiny_net(seed)
    images, labels = _tiny_batch(seed)
    analytic, _ = net.loss_input_grad(images, labels, n_samples, _frozen_rng(seed))
    rows = np.arange(images.shape[0])
    return fd_check(
        "mixture_input_grad", [analytic], [images],
        lambda: -float(np.sum(np.log(net.predict(
            images, n_samples, _frozen_rng(seed)).mean_probs[rows, labels]))),
        tolerance)


def run_all_checks(seed: int = 0, perturb: float = 0.0):
    """Every gradient oracle; ``perturb`` poisons the ML objective check."""
    return [
        check_objective_gradient(ObjectiveKind.ML, seed, perturb=perturb),
        check_objective_gradient(ObjectiveKind.VI, seed),
        check_kl_gradient(seed),
        check_sampling_gradient(seed),
        check_network_gradient(seed),
        check_weight_decay_gradient(seed),
        check_dropout_gradient(seed),
        check_single_sample_equivalence(seed),
        check_mixture_input_gradient(seed),
    ]
