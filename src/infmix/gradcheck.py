"""Finite-difference verification of every analytic gradient path.

All checks run on tiny nets with frozen reparameterization noise (a fixed
``Rng`` key, replayed for every evaluation of the loss), so each loss is a
smooth deterministic function of the parameters and central differences
are a valid oracle.  The ``perturb`` hook injects an error into
one analytic gradient, as a negative control that the checker can fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import _decay_gradient
from .network import StochasticMlp, backward, forward
from .objectives import (ObjectiveKind, TrainConfig, ml_loss, objective_gradients,
                         objective_loss, per_example_loglik, vi_loss)
from .posterior import PriorSpec, kl_backward, kl_to_prior, sample_backward, \
    sample_with_noise
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
    """(ll, trace, draws) of ``per_example_loglik`` with frozen noise."""
    return per_example_loglik(net, images, labels, n_samples, _frozen_rng(seed))


def frozen_objective_value(net, images, labels, n_samples, seed, kind, kl_weight,
                           prior) -> float:
    """Batch objective -(1/B) sum_n loss_n + kl_weight * KL / B, treating the
    batch as the whole dataset (the quantity the gradient check targets)."""
    ll, _, _ = frozen_loglik(net, images, labels, n_samples, seed)
    per_example, _ = objective_loss(kind, ll)
    kl = sum(kl_to_prior(layer, prior) for layer in net.layers)
    return -float(per_example.mean()) + kl_weight * kl / images.shape[0]


def check_objective_gradient(kind: ObjectiveKind, seed: int = 0,
                             tolerance: float = 1e-4,
                             perturb: float = 0.0) -> CheckResult:
    """Acceptance oracle: full-objective analytic gradient vs central FD
    on a 5-3-3-2 net with S=3 frozen draws and a nonzero KL weight."""
    net = _tiny_net(seed)
    images, labels = _tiny_batch(seed)
    cfg = TrainConfig(objective=kind, kl_weight=0.3, prior=PriorSpec(1.2),
                      n_train_samples=3, seed=seed)

    _, _, grads = objective_gradients(
        net, images, labels, cfg, n_total=images.shape[0], rng=_frozen_rng(seed))
    analytic = flatten([g for layer in grads for g in layer])
    if perturb:
        analytic[0] += perturb

    probe = net.copy()
    params = [p for _, p in probe.named_params()]
    x0 = flatten(params)

    def loss_at(flat):
        unflatten_into(flat, params)
        return frozen_objective_value(probe, images, labels, cfg.n_train_samples,
                                      seed, kind, cfg.kl_weight, cfg.prior)

    numeric = central_differences(loss_at, x0)
    err = rel_err(analytic, numeric)
    return CheckResult(f"objective_{ObjectiveKind(kind).value}", err, tolerance,
                       err < tolerance)


def check_kl_gradient(seed: int = 0, tolerance: float = 1e-6) -> CheckResult:
    net = _tiny_net(seed)
    prior = PriorSpec(0.7)
    analytic = flatten([g for layer in net.layers
                        for g in kl_backward(layer, prior)])
    probe = net.copy()
    params = [p for _, p in probe.named_params()]

    def kl_at(flat):
        unflatten_into(flat, params)
        return sum(kl_to_prior(layer, prior) for layer in probe.layers)

    numeric = central_differences(kl_at, flatten(params))
    err = rel_err(analytic, numeric)
    return CheckResult("kl_to_prior", err, tolerance, err < tolerance)


def check_sampling_gradient(seed: int = 0, tolerance: float = 1e-5) -> CheckResult:
    """d/d(M, a, b) of sum(G * W) with frozen noise, G random and fixed."""
    net = _tiny_net(seed)
    noises = [sw.noise for sw in net.sample_weights(_frozen_rng(seed))]
    g_rng = Rng(seed).derive(12)
    gs = [g_rng.standard_normal(layer.n_rows, layer.n_cols)
          for layer in net.layers]
    analytic = flatten([
        g_part for layer, e, g in zip(net.layers, noises, gs)
        for g_part in sample_backward(layer, sample_with_noise(layer, e), g)])
    probe = net.copy()
    params = [p for _, p in probe.named_params()]

    def loss_at(flat):
        unflatten_into(flat, params)
        return sum(float(np.sum(g * sample_with_noise(layer, e).weights))
                   for layer, e, g in zip(probe.layers, noises, gs))

    numeric = central_differences(loss_at, flatten(params))
    err = rel_err(analytic, numeric)
    return CheckResult("sampling", err, tolerance, err < tolerance)


def check_network_gradient(seed: int = 0, tolerance: float = 1e-5) -> CheckResult:
    """Weight and input gradients of sum(G * log_probs) on fixed weights."""
    net = _tiny_net(seed)
    images, labels = _tiny_batch(seed)
    weights = [sw.weights for sw in net.sample_weights(_frozen_rng(seed))]
    g = Rng(seed).derive(13).standard_normal(images.shape[0], net.layers[-1].n_cols)

    log_probs, trace = forward(weights, images)
    grad_w, grad_x = backward(trace, g)
    analytic = flatten(grad_w + [grad_x])
    inputs = weights + [images]

    def loss_at(flat):
        unflatten_into(flat, inputs)
        lp, _ = forward(inputs[:-1], inputs[-1])
        return float(np.sum(g * lp))

    numeric = central_differences(loss_at, flatten(inputs))
    err = rel_err(analytic, numeric)
    return CheckResult("network_backward", err, tolerance, err < tolerance)


def check_weight_decay_gradient(seed: int = 0, tolerance: float = 1e-6) -> CheckResult:
    rng = Rng(seed).derive(14)
    weights = [rng.standard_normal(4, 3), rng.standard_normal(4, 2)]
    wd = 0.125
    analytic = flatten(_decay_gradient(weights, wd))
    x0 = flatten(weights)

    def penalty_at(flat):
        unflatten_into(flat, weights)
        return sum(0.5 * wd * float(np.sum(w[:-1] ** 2)) for w in weights)

    numeric = central_differences(penalty_at, x0)
    err = rel_err(analytic, numeric)
    return CheckResult("weight_decay", err, tolerance, err < tolerance)


def check_single_sample_equivalence(seed: int = 0) -> CheckResult:
    """With S=1 the two objectives must coincide exactly: same losses, same
    mixture weights, hence bit-identical gradients."""
    net = _tiny_net(seed)
    images, labels = _tiny_batch(seed)
    ll, _, _ = frozen_loglik(net, images, labels, 1, seed)
    ml_val, ml_w = ml_loss(ll)
    vi_val, vi_w = vi_loss(ll)
    grads = {}
    for kind in (ObjectiveKind.ML, ObjectiveKind.VI):
        cfg = TrainConfig(objective=kind, kl_weight=0.4, prior=PriorSpec(1.0),
                          n_train_samples=1, seed=seed)
        _, _, g = objective_gradients(
            net, images, labels, cfg, n_total=images.shape[0],
            rng=_frozen_rng(seed))
        grads[kind] = flatten([part for layer in g for part in layer])
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

    def loss_at(flat):
        summary = net.predict(flat.reshape(images.shape), n_samples,
                              _frozen_rng(seed))
        return -float(np.sum(np.log(summary.mean_probs[rows, labels])))

    numeric = central_differences(loss_at, images.ravel())
    err = rel_err(analytic, numeric)
    return CheckResult("mixture_input_grad", err, tolerance, err < tolerance)


def run_all_checks(seed: int = 0, perturb: float = 0.0):
    """Every gradient oracle; ``perturb`` poisons the ML objective check."""
    return [
        check_objective_gradient(ObjectiveKind.ML, seed, perturb=perturb),
        check_objective_gradient(ObjectiveKind.VI, seed),
        check_kl_gradient(seed),
        check_sampling_gradient(seed),
        check_network_gradient(seed),
        check_weight_decay_gradient(seed),
        check_single_sample_equivalence(seed),
        check_mixture_input_gradient(seed),
    ]
