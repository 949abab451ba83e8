"""The float64 array type, a deterministic counter-based RNG, and ADAM.

Everything downstream (sampling, training, attacks) sits on these
primitives.  All arrays are 64-bit floats in C (row-major) order; the RNG is
Philox, so a seed pins the whole bit stream independent of platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


class Rng:
    """Deterministic random stream keyed by (seed, spawn path).

    Same ``seed`` gives a bit-identical stream; ``derive`` produces an
    independent child stream addressed by integer tags, which is how trials,
    epochs, and evaluation draws get their own reproducible randomness.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(t) for t in _spawn_key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def derive(self, *tags: int) -> "Rng":
        """Independent child stream; deterministic in (seed, tags)."""
        return Rng(self.seed, self.spawn_key + tuple(tags))

    def standard_normal(self, *shape: int) -> Array:
        return self._gen.standard_normal(shape, dtype=np.float64)

    def uniform(self, low: float, high: float, shape) -> Array:
        return self._gen.uniform(low, high, shape)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> Array:
        return self._gen.choice(n, size=size, replace=replace)

    def __repr__(self):
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"


@dataclass
class AdamState:
    """Per-parameter-block ADAM accumulators (Kingma & Ba, bias-corrected)."""

    m: Array
    v: Array
    t: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_shape(cls, shape, learning_rate: float = 1e-3,
                  beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0,
                   learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, params: Array, grads: Array,
              name: str = "params") -> Array:
    """One ADAM update; returns the new parameter values.

    ``params`` and ``grads`` must have the same shape.  NaN/inf gradients
    abort with the offending block named, since silent propagation would
    poison the moment accumulators.
    """
    if params.shape != grads.shape:
        raise ValueError(
            f"param/grad shape mismatch in block '{name}': "
            f"{params.shape} vs {grads.shape}")
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError(f"non-finite gradient in block '{name}'")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    return params - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
