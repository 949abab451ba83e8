"""Finite-mixture baselines sharing the MLP substrate: MC dropout, whose
p_drop = 0 case is the deterministic network with weight decay, and a deep
ensemble of such point-estimate networks.

Each is a ``network.MixtureModel`` that lists its components, so it has
the stochastic model's ``predict`` / ``loss_input_grad`` and evaluation and
attack code is model-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .network import (DEFAULT_TOPOLOGY, Components, MixtureModel, forward,
                      label_backward)
from .objectives import FitConfig, ObjectiveKind, fit
from .posterior import glorot_uniform
from .tensor import Rng, map_in_order

DEFAULT_WEIGHT_DECAY = 1.0 / 60_000.0

_MASK_STREAM = 3
_MEMBER_SEED_STRIDE = 100_003  # keeps member seeds disjoint from trial seeds


def glorot_weights(topology, rng: Rng):
    """Glorot-uniform weight matrices with zeroed bias rows, one per layer."""
    return [glorot_uniform(n_in, n_out, rng.derive(l))
            for l, (n_in, n_out) in enumerate(zip(topology[:-1], topology[1:]))]


@dataclass
class DropoutMlp(MixtureModel):
    """Deterministic weights plus Bernoulli masks on hidden activations.

    Inverted dropout: kept units are scaled by 1/(1-p) whenever masks are
    sampled, so the no-mask forward pass needs no rescaling.  Evaluation
    draws one mask per component, shared across the batch, mirroring how
    weight draws are shared in the stochastic model.  At p_drop = 0 it is
    the point-estimate network: one component, whose prediction is a pure
    function of the input.
    """

    weights: list
    p_drop: float

    def __post_init__(self):
        if not 0.0 <= self.p_drop < 1.0:
            raise ValueError(f"p_drop must be in [0, 1), got {self.p_drop}")

    def named_params(self) -> list:
        """[(name, array)] of the model's own weights, as ``StochasticMlp``."""
        return [(f"layer{l}.weights", w) for l, w in enumerate(self.weights)]

    def sample_masks(self, rng: Rng):
        """One mask (1, n) per hidden layer, shared by the whole batch."""
        return _dropout_masks(rng, self.weights, self.p_drop, 1)

    def components(self, n_samples: int, rng: Rng | None) -> Components:
        if self.p_drop == 0.0:  # one component; n_samples < 1 still raises
            return Components(min(n_samples, 1), lambda start, stop: (
                self.weights, None))

        def block(start, stop):  # mask draws stacked per layer: (S, 1, n)
            masks = [self.sample_masks(rng) for _ in range(start, stop)]
            return self.weights, [np.stack(layer) for layer in zip(*masks)]

        return Components(n_samples, block)


@dataclass
class DeepEnsemble(MixtureModel):
    """Uniform mixture of independently trained point-estimate networks,
    each a ``DropoutMlp`` at p_drop = 0."""

    members: list

    @property
    def k(self) -> int:
        return len(self.members)

    def named_params(self) -> list:
        return [(f"member{k}.{name}", w) for k, m in enumerate(self.members)
                for name, w in m.named_params()]

    def components(self, n_samples: int, rng: Rng | None) -> Components:
        # Finite mixture: always all k members, stacked per layer in blocks
        # (S, n_in + 1, n_out), with uniform weights.
        def block(start, stop):
            layers = zip(*(m.weights for m in self.members[start:stop]))
            return [np.stack(layer) for layer in layers], None

        return Components(self.k, block)


def _dropout_masks(rng: Rng, weights, p_drop: float, rows: int):
    """Inverted-dropout masks (rows, n) for each hidden layer of ``weights``."""
    keep = 1.0 - p_drop
    return [(rng.uniform(0.0, 1.0, (rows, w.shape[1])) < keep).astype(np.float64) / keep
            for w in weights[:-1]]


class DropoutMasks:
    """Dropout training's sampler (see ``objectives.LocalDraws``): masks
    per example, drawn for the batch they meet; None at p_drop = 0."""

    def __init__(self, weights, p_drop: float, rng: Rng):
        self.weights, self.p_drop, self.rng = weights, p_drop, rng

    def draw(self, batch_size: int):
        return _dropout_masks(self.rng, self.weights, self.p_drop,
                              batch_size) if self.p_drop > 0.0 else None

    def loglik(self, images, labels, masks):
        log_probs, trace = forward(self.weights, images, hidden_masks=masks)
        return log_probs[np.arange(len(labels)), labels][:, None], (trace, labels)

    def grads(self, ctx, grad_ll) -> list:
        return label_backward(*ctx, grad_ll.T)[0]


def decay_penalty(weights, weight_decay: float):
    """Dropout training's penalty: (0.0, the gradient of weight_decay * 0.5
    * sum ||W||^2 with bias rows excluded); the term reads 0.0."""
    grads = [weight_decay * w for w in weights]
    for g in grads:
        g[-1] = 0.0
    return 0.0, grads


def train_dropout(data: Dataset, p_drop: float = 0.5,
                  weight_decay: float = DEFAULT_WEIGHT_DECAY,
                  cfg: FitConfig | None = None, topology=DEFAULT_TOPOLOGY,
                  progress=None) -> DropoutMlp:
    """Cross-entropy (vi at one draw) + L2 training by ``fit``; per-example
    masks if p_drop > 0."""
    cfg = cfg or FitConfig()
    if weight_decay < 0:
        raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
    model = DropoutMlp(weights=glorot_weights(topology, Rng(cfg.seed).derive(0)),
                       p_drop=p_drop)
    sampler = DropoutMasks(model.weights, p_drop,
                           Rng(cfg.seed).derive(_MASK_STREAM))
    fit(model.named_params(), sampler, ObjectiveKind.VI,
        lambda: decay_penalty(model.weights, weight_decay), data, cfg,
        progress=progress)
    return model


def train_ensemble(data: Dataset, k: int = 5,
                   weight_decay: float = DEFAULT_WEIGHT_DECAY,
                   cfg: FitConfig | None = None, topology=DEFAULT_TOPOLOGY,
                   progress=None) -> DeepEnsemble:
    """k members trained independently from distinct derived seeds, by
    ``map_in_order`` on the CPUs the budget leaves free; ``progress`` may be
    called from its worker threads."""
    cfg = cfg or FitConfig()
    if k < 1:
        raise ValueError(f"ensemble size must be >= 1, got {k}")
    members = map_in_order(
        lambda i: train_dropout(
            data, 0.0, weight_decay,
            replace(cfg, seed=cfg.seed + i * _MEMBER_SEED_STRIDE),
            topology=topology, progress=progress),
        range(k))
    return DeepEnsemble(members=members)
