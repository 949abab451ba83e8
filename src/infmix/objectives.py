"""The two training objectives for the infinite mixture.

Per example n and weight draws s = 1..S with log-likelihoods l[n, s]:

  mixture-likelihood ("ml"):  loss_n = logmeanexp_s l[n, s]
  expected-log       ("vi"):  loss_n = mean_s l[n, s]

Both are regularized by a KL term to the weight prior, weighted by
``kl_weight`` and scaled by 1/N so a mini-batch gives an unbiased estimate
of the full-dataset objective divided by N.  By Jensen, ml >= vi always,
with equality at S = 1; the backward pass differs only in the per-(n, s)
mixture weights (softmax of l over s for ml, uniform 1/S for vi).

``fit`` is the one minibatch-ADAM loop; every model kind, these two and the
baselines, trains through it with its own step closure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .data import BatchIterator, Dataset
from .network import WEIGHT_GRADS, StochasticMlp, backward, forward
from .posterior import PriorSpec, kl_backward, kl_to_prior, sample_backward
from .tensor import (AdamState, Array, DrawAhead, Rng, adam_step,
                     imap_in_order)


class ObjectiveKind(str, enum.Enum):
    ML = "ml"   # log of the mixture likelihood (log-mean-exp over draws)
    VI = "vi"   # expected log-likelihood (mean over draws)


# Spawn tag separating the training-time weight-draw stream from the batch
# shuffling stream (which uses _SHUFFLE_STREAM in data.py).
_WEIGHT_SAMPLE_STREAM = 2


@dataclass
class FitConfig:
    """Minibatch-ADAM settings shared by every model kind."""

    batch_size: int = 200
    learning_rate: float = 1e-3
    iterations: int = 30_000
    seed: int = 0


@dataclass
class TrainConfig(FitConfig):
    objective: ObjectiveKind = ObjectiveKind.ML
    kl_weight: float = 1.0
    prior: PriorSpec = field(default_factory=PriorSpec)
    n_train_samples: int = 5

    def __post_init__(self):
        if self.n_train_samples < 1:
            raise ValueError(f"n_train_samples must be >= 1, got {self.n_train_samples}")
        if not self.kl_weight >= 0:
            raise ValueError(f"kl_weight must be >= 0, got {self.kl_weight}")
        self.objective = ObjectiveKind(self.objective)


class TrainingDiverged(RuntimeError):
    """A non-finite loss; the message names the iteration."""


def per_example_loglik(net: StochasticMlp, images: Array, labels, n_samples: int,
                       rng: Rng | None, normals: Array | None = None):
    """log p(y_n | x_n, theta_s) for S independent weight draws, made from
    ``normals`` (``StochasticMlp.draw_normals``), else drawn from ``rng``.

    Returns (ll, trace, draws) where ll is (B, S); each draw s is one
    mixture component evaluated on the full batch.  All S run as one stacked
    forward pass, whose trace and per-layer sampled stacks the backward pass
    reuses.
    """
    labels = np.asarray(labels)
    draws = net.sample_draws(n_samples, rng, normals)
    log_probs, trace = forward([sw.weights for sw in draws], images)
    ll = log_probs[:, np.arange(images.shape[0]), labels].T
    return ll, trace, draws


def logmeanexp(a: Array, axis: int = -1) -> Array:
    """log((1/S) sum exp(a)) with max-subtraction stabilization."""
    a_max = np.max(a, axis=axis, keepdims=True)
    out = a_max.squeeze(axis) + np.log(
        np.mean(np.exp(a - a_max), axis=axis))
    return out


def ml_loss(ll: Array):
    """Per-example logmeanexp over draws, and its gradient weights.

    d logmeanexp_s l[n, .] / d l[n, s] = softmax_s(l[n, .]) -- components
    that already explain the example dominate the gradient.
    """
    if not np.all(np.isfinite(ll)):
        raise FloatingPointError("non-finite log-likelihood matrix")
    per_example = logmeanexp(ll, axis=1)
    shifted = ll - ll.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=1, keepdims=True)
    return per_example, weights


def vi_loss(ll: Array):
    """Per-example mean over draws; uniform 1/S gradient weights."""
    if not np.all(np.isfinite(ll)):
        raise FloatingPointError("non-finite log-likelihood matrix")
    per_example = ll.mean(axis=1)
    weights = np.full_like(ll, 1.0 / ll.shape[1])
    return per_example, weights


_LOSS_BY_KIND = {ObjectiveKind.ML: ml_loss, ObjectiveKind.VI: vi_loss}


def objective_loss(kind: ObjectiveKind, ll: Array):
    return _LOSS_BY_KIND[ObjectiveKind(kind)](ll)


@dataclass
class LossRecord:
    iteration: int
    loss: float
    nll_term: float
    kl_term: float


def loss_history_csv(records) -> str:
    lines = ["iteration,loss,nll_term,kl_term"]
    lines += [f"{r.iteration},{r.loss:.10g},{r.nll_term:.10g},{r.kl_term:.10g}"
              for r in records]
    return "\n".join(lines) + "\n"


def objective_gradients(net: StochasticMlp, images: Array, labels,
                        cfg: TrainConfig, n_total: int, rng: Rng | None = None,
                        normals: Array | None = None):
    """Loss terms and parameter gradients for one batch, with the weight
    draws made from ``normals``, else drawn from ``rng``.

    Batch loss = -(1/B) sum_n loss_n + kl_weight * KL_total / n_total.
    Returns (nll_term, kl_term, grads) with grads[l] = [gM, ga, gb].
    """
    labels = np.asarray(labels)
    b = images.shape[0]
    ll, trace, draws = per_example_loglik(
        net, images, labels, cfg.n_train_samples, rng, normals)
    per_example, weights = objective_loss(cfg.objective, ll)
    nll_term = -float(per_example.mean())
    kl_total = sum(kl_to_prior(layer, cfg.prior) for layer in net.layers)
    kl_scale = cfg.kl_weight / n_total
    kl_term = kl_scale * kl_total

    grad_log_probs = np.zeros_like(trace.log_probs)
    grad_log_probs[:, np.arange(b), labels] = -weights.T / b
    trace.needs = WEIGHT_GRADS
    grad_w_layers, _ = backward(trace, grad_log_probs)
    grads = [list(sample_backward(layer, sw, gw))
             for layer, sw, gw in zip(net.layers, draws, grad_w_layers)]
    if cfg.kl_weight != 0.0:
        for l, layer in enumerate(net.layers):
            gm, ga, gb = kl_backward(layer, cfg.prior)
            grads[l][0] += kl_scale * gm
            grads[l][1] += kl_scale * ga
            grads[l][2] += kl_scale * gb
    return nll_term, kl_term, grads


def fit(named_params, step, data: Dataset, cfg: FitConfig,
        record_every: int = 0, progress=None):
    """The one minibatch-ADAM loop; updates the arrays in place.

    ``named_params`` is a model's ``named_params()``.  ``step(images,
    labels)`` returns (nll_term, penalty_term, grads) with one gradient per
    array, in that order; the names label the arrays in errors.  Aborts on
    a non-finite loss, naming the iteration.  The loss, the activations and
    the gradients are checked for non-finite values, so numpy's own
    overflow warnings on the way there are silenced.
    """
    batches = BatchIterator(data, cfg.batch_size, seed=cfg.seed)
    states = [AdamState.for_shape(p.shape, learning_rate=cfg.learning_rate)
              for _, p in named_params]
    records = []
    for it in range(cfg.iterations):
        with np.errstate(all="ignore"):
            nll_term, penalty_term, grads = step(*batches.next_batch())
        loss = nll_term + penalty_term
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"training diverged (non-finite loss) at iteration {it}")
        for (name, p), g, state in zip(named_params, grads, states):
            p[...] = adam_step(state, p, g, name=name)
        if record_every and (it % record_every == 0 or it == cfg.iterations - 1):
            records.append(LossRecord(it, loss, nll_term, penalty_term))
        if progress is not None:
            progress(it, loss)
    return records


def train(net: StochasticMlp, data: Dataset, cfg: TrainConfig,
          record_every: int = 1, progress=None):
    """Trains ``net`` in place with ``fit``; returns the loss records.

    Deterministic per (net initialization, cfg.seed): batch order and weight
    draws come from streams derived from cfg.seed.  Each step but the last
    draws the next step's normals (``DrawAhead``): on a CPU that the step
    leaves idle, or inline after it.  Only the normals are drawn ahead, as
    the weights read the parameters that the step updates.
    """
    sample_rng = Rng(cfg.seed).derive(_WEIGHT_SAMPLE_STREAM)
    ahead = DrawAhead(cfg.iterations)

    def step(images, labels):
        normals, then = ahead.take(
            lambda: net.draw_normals(cfg.n_train_samples, sample_rng))
        [(nll_term, kl_term, grads)] = imap_in_order(
            lambda _: objective_gradients(net, images, labels, cfg,
                                          n_total=data.n, normals=normals),
            [None], then)
        return nll_term, kl_term, [g for layer in grads for g in layer]

    return fit(net.named_params(), step, data, cfg, record_every, progress)
