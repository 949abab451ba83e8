"""The two training objectives for the infinite mixture.

Per example n and weight draws s = 1..S with log-likelihoods l[n, s]:

  mixture-likelihood ("ml"):  loss_n = logmeanexp_s l[n, s]
  expected-log       ("vi"):  loss_n = mean_s l[n, s]

Both are regularized by a KL term to the weight prior, weighted by
``kl_weight`` and scaled by 1/N so a mini-batch gives an unbiased estimate
of the full-dataset objective divided by N.  By Jensen, ml >= vi always,
with equality at S = 1; the backward pass differs only in the per-(n, s)
mixture weights (softmax of l over s for ml, uniform 1/S for vi).

Every model kind, these two and the baselines, trains through one step,
``step_gradients``: a sampler, which draws a step's noise and gives the
batch's log-likelihoods and their gradients; ``objective_loss``; and a
penalty.  ``fit`` is the one minibatch-ADAM loop around it.  The stochastic
net's sampler, ``LocalDraws``, samples layer 0's pre-activations per
example and shares weight draws above it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import BatchIterator, Dataset
from .network import (INPUT_GRAD, WEIGHT_GRADS, StochasticMlp, forward,
                      label_backward)
from .posterior import (PriorSpec, kl_backward, kl_to_prior,
                        preactivation_backward, sample_backward,
                        sample_preactivations)
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
    """A non-finite loss, log-likelihood or activation; the message names
    the iteration."""


class LocalDraws:
    """A training step's sampler for a ``StochasticMlp``.  A sampler has
    ``draw(batch_size)``, a step's noise, or None if it draws none;
    ``loglik(images, labels, noise) -> (ll, ctx)``, ll of shape (B, S); and
    ``grads(ctx, grad_ll)``, one gradient per trained array.

    Layer 0 is sampled locally: its pre-activations are drawn per example
    and draw (``posterior.sample_preactivations``), from S*B normals per
    unit and one mean GEMM for all S draws.  Layers 1 and up take S weight
    draws that the whole batch shares.  Layer 0's weights are independent
    of the other layers', and given x its pre-activation units are
    independent, so each example's S log-likelihoods have the joint law
    that shared draws of every layer give them; only the correlation across
    the batch's examples differs.  At 784-128-128-10, B=200 and S=5 a step
    draws 217,010 normals, against 591,410 for shared draws of every
    layer.  Prediction and attacks keep shared draws at every layer: the
    input gradient of a locally sampled layer is not that of a weight
    draw."""

    def __init__(self, net: StochasticMlp, n_samples: int, rng: Rng):
        self.net, self.n_samples, self.rng = net, n_samples, rng

    def draw(self, batch_size: int) -> Array:
        """One (S, B*n + W) call, n the width of layer 0 and W the weights
        above it: draw s's row holds its layer-0 noise, example after
        example, then the weight noise of layers 1 and up."""
        return self.rng.standard_normal(
            self.n_samples, batch_size * self.net.layers[0].n_cols
            + sum(layer.mean.size for layer in self.net.layers[1:]))

    def loglik(self, images: Array, labels, normals: Array):
        """log p(y_n | x_n, theta_s) of each draw s, made from ``normals``;
        the layers above 0 run as one stacked forward pass on layer 0's
        per-draw outputs, whose trace ``grads`` reuses."""
        layer = self.net.layers[0]
        split = images.shape[0] * layer.n_cols
        pre = sample_preactivations(
            layer, images,
            normals[:, :split].reshape(len(normals), -1, layer.n_cols))
        if not np.all(np.isfinite(pre.z)):
            raise FloatingPointError("non-finite activation in layer 0")
        draws = self.net.sample_draws(normals[:, split:], first=1)
        log_probs, trace = forward([sw.weights for sw in draws],
                                   np.maximum(pre.z, 0.0))
        ll = log_probs[:, np.arange(images.shape[0]), labels].T
        return ll, (trace, labels, pre, draws)

    def grads(self, ctx, grad_ll: Array) -> list:
        trace, labels, pre, draws = ctx
        grad_w, grad_h = label_backward(trace, labels, grad_ll.T,
                                        WEIGHT_GRADS | INPUT_GRAD)
        grad_h *= trace.inputs > 0.0
        return [*preactivation_backward(self.net.layers[0], pre, grad_h),
                *(g for layer, sw, gw in zip(self.net.layers[1:], draws, grad_w)
                  for g in sample_backward(layer, sw, gw))]


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


def kl_penalty(net: StochasticMlp, cfg: TrainConfig, n_total: int):
    """kl_weight * KL_total / n_total, and its gradients (None at weight 0)."""
    kl_scale = cfg.kl_weight / n_total
    kl_term = kl_scale * sum(kl_to_prior(layer, cfg.prior) for layer in net.layers)
    return kl_term, None if cfg.kl_weight == 0.0 else [
        kl_scale * g for layer in net.layers for g in kl_backward(layer, cfg.prior)]


def step_gradients(sampler, objective: ObjectiveKind, penalty, images: Array,
                   labels, noise):
    """The one training step of every model kind: batch loss = -(1/B)
    sum_n loss_n + penalty term, with loss_n the ``objective_loss`` of the
    sampler's log-likelihoods under ``noise``, and ``penalty()`` giving
    (the penalty term, its gradients or None).
    Returns (nll_term, penalty_term, grads), one gradient per trained array.
    """
    ll, ctx = sampler.loglik(images, labels, noise)
    per_example, weights = objective_loss(objective, ll)
    grads = sampler.grads(ctx, -weights / images.shape[0])
    penalty_term, penalty_grads = penalty()
    for g, pg in zip(grads, penalty_grads or ()):
        g += pg
    return -float(per_example.mean()), penalty_term, grads


def objective_gradients(net: StochasticMlp, images: Array, labels,
                        cfg: TrainConfig, n_total: int, rng: Rng):
    """``step_gradients`` of ml or vi with training's draws (``LocalDraws``)
    from ``rng`` and the KL penalty: (nll_term, kl_term, grads), one
    gradient per array of ``net.named_params()``."""
    sampler = LocalDraws(net, cfg.n_train_samples, rng)
    return step_gradients(sampler, cfg.objective,
                          partial(kl_penalty, net, cfg, n_total), images,
                          labels, sampler.draw(len(labels)))


def fit(named_params, sampler, objective: ObjectiveKind, penalty,
        data: Dataset, cfg: FitConfig, record_every: int = 0, progress=None):
    """The one minibatch-ADAM loop; updates the arrays in place.

    ``named_params`` is a model's ``named_params()``.  Each step is
    ``step_gradients(sampler, objective, penalty, ...)``, whose gradients
    come one per array, in that order; the names label the arrays in
    errors.  A step's noise is ``sampler.draw`` of its batch's size: each
    step but the last draws the next step's (``DrawAhead``) on a CPU that
    the step leaves idle, or inline after it, and noise of None runs no map.
    Aborts with ``TrainingDiverged``, naming the iteration, on a non-finite
    loss or a ``FloatingPointError`` of the step.  The loss, the
    activations and the gradients are checked for non-finite values, so
    numpy's own overflow warnings on the way there are silenced.
    """
    batches = BatchIterator(data, cfg.batch_size, seed=cfg.seed)
    states = [AdamState.for_shape(p.shape, learning_rate=cfg.learning_rate)
              for _, p in named_params]
    ahead = DrawAhead(cfg.iterations)
    records = []
    for it in range(cfg.iterations):
        # Taken before the batch: a draw is sized to the batch served next.
        noise, then = ahead.take(lambda: sampler.draw(batches.next_size()))
        images, labels = batches.next_batch()
        step = partial(step_gradients, sampler, objective, penalty, images,
                       labels, noise)
        try:
            with np.errstate(all="ignore"):
                if noise is None:
                    nll_term, penalty_term, grads = step()
                else:
                    [(nll_term, penalty_term, grads)] = imap_in_order(
                        lambda _: step(), [None], then)
        except FloatingPointError as exc:
            raise TrainingDiverged(
                f"training diverged ({exc}) at iteration {it}") from exc
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
    draws come from streams derived from cfg.seed.  Only the normals are
    drawn ahead, as the weights read the parameters that the step updates.
    """
    sampler = LocalDraws(net, cfg.n_train_samples,
                         Rng(cfg.seed).derive(_WEIGHT_SAMPLE_STREAM))
    return fit(net.named_params(), sampler, cfg.objective,
               partial(kl_penalty, net, cfg, data.n), data, cfg, record_every,
               progress)
