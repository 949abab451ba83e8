"""Component MLP: forward/backward through sampled weights, the predictive
summary over S draws (mean probabilities, per-class variance, entropy), and
``MixtureModel``, the prediction and attack surface of every model kind.

The forward pass is weight-list based, so the same code serves the
stochastic model (weights drawn per call), the deterministic baseline
(fixed weights), and dropout (optional per-hidden-layer masks).  Biases are
the last row of each weight matrix.  It is the one S-draw kernel: a weight
may be a stack (S, n_in+1, n_out) of draws that all see the same batch, so
layer 0 runs as the single GEMM x @ [W_1|...|W_S]; ``backward`` produces
only the gradients its trace ``needs``.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from .posterior import MvnLayerPosterior, sample
from .tensor import Array, DrawAhead, Rng, imap_in_order

DEFAULT_TOPOLOGY = (784, 128, 128, 10)
N_CLASSES = 10
MAX_ENTROPY = float(np.log(N_CLASSES))

# What ``backward`` produces; narrow ``ForwardTrace.needs`` to skip the rest.
WEIGHT_GRADS, INPUT_GRAD = frozenset({"weights"}), frozenset({"input"})

# Draws per stacked forward pass in prediction and attacks: at B=2000 a block
# of two holds less memory than one draw did with an augmented-input copy.
DRAW_BLOCK = 2


@dataclass
class ForwardTrace:
    """Everything needed to replay the forward pass exactly in reverse."""

    inputs: Array                   # (B, n_in) raw batch, shared by all draws
    hidden: list                    # input of layers 1.., after ReLU and mask
    weights: list                   # per-layer weight matrix or stack used
    hidden_masks: list | None       # dropout masks on hidden activations, or None
    log_probs: Array                # (B, K), or (S, B, K) for stacked draws
    needs: frozenset = WEIGHT_GRADS | INPUT_GRAD  # what ``backward`` produces


def log_softmax(z: Array) -> Array:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _wide(a: Array) -> Array:
    """Stack (S, r, n) as the (r, S*n) matrix [a_1|...|a_S], a free view in
    the draw-major layout ``sample_draws`` gives layer 0; a matrix as is."""
    return a if a.ndim == 2 else a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def forward(weights: list, x: Array, hidden_masks=None):
    """Run the MLP on a batch: ReLU hidden layers, log-softmax output.

    ``weights[l]`` has shape (n_in_l + 1, n_out_l), or (S, n_in_l + 1,
    n_out_l) for S draws.  ``hidden_masks``, if given, multiplies each hidden
    activation (inverted-dropout convention); a mask is (rows, n) or
    (S, rows, n).  With any stack the outputs gain a leading draw axis.
    Returns (log_probs, ForwardTrace).
    """
    if x.ndim != 2 or x.shape[1] != weights[0].shape[-2] - 1:
        raise ValueError(
            f"input shape {x.shape} incompatible with first layer "
            f"{weights[0].shape}")
    hidden = []
    h = x
    for l, w in enumerate(weights):
        if h.shape[-1] != w.shape[-2] - 1:
            raise ValueError(
                f"layer {l}: activation width {h.shape[-1] + 1} != weight rows "
                f"{w.shape[-2]}")
        if l == 0 and w.ndim == 3:
            wide = _wide(w)
            z = x @ wide[:-1]
            z += wide[-1]
            z = z.reshape(x.shape[0], *w.shape[::2]).transpose(1, 0, 2)
        else:
            z = h @ w[..., :-1, :]
            z += w[..., -1:, :]
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"non-finite activation in layer {l}")
        if l < len(weights) - 1:
            # In place: backward reads the ReLU's slope off h > 0, which
            # also holds after a mask, whose entries are 0 or positive.
            h = np.maximum(z, 0.0, out=z)
            if hidden_masks is not None:
                h = h * hidden_masks[l]
            hidden.append(h)
    log_probs = log_softmax(z)
    trace = ForwardTrace(inputs=x, hidden=hidden, weights=list(weights),
                         hidden_masks=hidden_masks, log_probs=log_probs)
    return log_probs, trace


def backward(trace: ForwardTrace, grad_log_probs: Array):
    """Exact reverse pass of ``forward``.

    Returns (per-layer weight gradients, gradient wrt the raw input batch),
    with None in place of whatever ``trace.needs`` leaves out.  A weight
    gradient has its weight's shape; a matrix shared by stacked draws gets
    the sum over draws, and so does the input.  The input gradient is what
    L-inf attacks consume.
    """
    if grad_log_probs.shape != trace.log_probs.shape:
        raise ValueError(
            f"upstream grad shape {grad_log_probs.shape} does not match trace "
            f"output {trace.log_probs.shape}")
    want_weights = "weights" in trace.needs
    probs = np.exp(trace.log_probs)
    # d/dz of sum(g * log_softmax(z)) = g - softmax(z) * sum(g)
    grad_z = grad_log_probs - probs * grad_log_probs.sum(axis=-1, keepdims=True)
    grad_weights = [None] * len(trace.weights)
    for l in range(len(trace.weights) - 1, 0, -1):
        w = trace.weights[l]
        if want_weights:
            h = trace.hidden[l - 1]
            g = np.concatenate([np.swapaxes(h, -1, -2) @ grad_z,
                                grad_z.sum(axis=-2, keepdims=True)], axis=-2)
            grad_weights[l] = g if g.ndim == w.ndim else g.sum(axis=0)
        # In place on the fresh output of the GEMM.
        grad_z = grad_z @ np.swapaxes(w[..., :-1, :], -1, -2)
        if trace.hidden_masks is not None:
            grad_z *= trace.hidden_masks[l - 1]
        grad_z *= trace.hidden[l - 1] > 0.0

    # Layer 0: one GEMM over all draws, [gz_1|...|gz_S], for each gradient.
    w = trace.weights[0]
    if w.ndim == 2 and grad_z.ndim == 3:
        grad_z = grad_z.sum(axis=0)
    grad_z, wide = _wide(grad_z), _wide(w)
    if want_weights:
        g = np.empty(wide.shape)
        np.matmul(trace.inputs.T, grad_z, out=g[:-1])
        g[-1] = grad_z.sum(axis=0)
        grad_weights[0] = g if w.ndim == 2 else \
            g.reshape(w.shape[1], w.shape[0], -1).transpose(1, 0, 2)
    grad_x = grad_z @ wide[:-1].T if "input" in trace.needs else None
    return grad_weights, grad_x


def label_backward(trace: ForwardTrace, labels, grad: Array, needs=WEIGHT_GRADS):
    """``backward`` of sum(grad * log_probs[..., n, labels[n]]) over
    ``trace``'s output, producing what ``needs`` names."""
    grad_log_probs = np.zeros_like(trace.log_probs)
    grad_log_probs[..., np.arange(len(labels)), labels] = grad
    trace.needs = needs
    return backward(trace, grad_log_probs)


@dataclass
class PredictiveSummary:
    """Per-example uncertainty summary over S weight draws."""

    mean_probs: Array       # (B, K) averaged class probabilities
    class_variance: Array   # (B, K) per-class variance across draws
    max_variance: Array     # (B,) max over classes
    entropy: Array          # (B,) entropy of mean_probs, nats
    predicted_class: np.ndarray  # (B,) argmax of mean_probs
    n_samples: int

    def correct_mask(self, labels) -> np.ndarray:
        return self.predicted_class == np.asarray(labels)

    def accuracy(self, labels) -> float:
        return float(np.mean(self.correct_mask(labels)))


def entropy_of(probs: Array) -> Array:
    """Shannon entropy in nats per row, with 0 log 0 := 0."""
    p = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -terms.sum(axis=1)


def summarize_probs(prob_draws: Array) -> PredictiveSummary:
    """Predictive summary from stacked component probabilities (S, B, K).

    class variance = (1/S) sum_s p_s^2 - p_bar^2, clamped at 0 against
    floating-point cancellation; entropy is computed on p_bar.
    """
    prob_draws = np.asarray(prob_draws, dtype=np.float64)
    if prob_draws.ndim != 3:
        raise ValueError(f"expected (S, B, K) probabilities, got {prob_draws.shape}")
    return summarize_prob_stream(iter(prob_draws), prob_draws.shape[0])


def summarize_prob_stream(draws, n_samples: int) -> PredictiveSummary:
    """Same summary as ``summarize_probs`` from an iterator of (B, K) draws,
    accumulating first and second moments so S draws never sit in memory."""
    prob_sum = None
    sq_sum = None
    count = 0
    for p in draws:
        p = np.asarray(p, dtype=np.float64)
        if prob_sum is None:
            prob_sum = np.zeros_like(p)
            sq_sum = np.zeros_like(p)
        prob_sum += p
        sq_sum += p * p
        count += 1
    if count != n_samples or count == 0:
        raise ValueError(f"expected {n_samples} draws, got {count}")
    mean_probs = prob_sum / count
    mean_sq = sq_sum / count
    class_variance = np.maximum(mean_sq - mean_probs * mean_probs, 0.0)
    return PredictiveSummary(
        mean_probs=mean_probs,
        class_variance=class_variance,
        max_variance=class_variance.max(axis=1),
        entropy=entropy_of(mean_probs),
        predicted_class=mean_probs.argmax(axis=1),
        n_samples=count,
    )


class Components:
    """The ``count`` components of one mixture call, in the blocks
    ``make(start, stop)`` over consecutive spans of at most ``DRAW_BLOCK``
    of them.  A block is made as it is iterated, so draws come from the rng
    in component order, unless ``made`` has made them all; iterating hands
    each block out once and keeps no reference to it, so a block is dropped
    once it has run.  Sized in blocks, so a pool starts no thread that
    would find no block."""

    def __init__(self, count: int, make):
        if count < 1:
            raise ValueError(f"n_samples must be >= 1, got {count}")
        self.count = count
        self._len = -(-count // DRAW_BLOCK)
        self._blocks = (make(start, min(start + DRAW_BLOCK, count))
                        for start in range(0, count, DRAW_BLOCK))
        self._made = collections.deque()

    def __len__(self):
        return self._len

    def made(self) -> "Components":
        """These components, with all their blocks made now."""
        self._made.extend(self._blocks)
        return self

    def __iter__(self):
        while self._made:
            yield self._made.popleft()
        yield from self._blocks


class MixtureModel:
    """A uniform mixture of MLP components: weight draws, dropout mask draws
    or ensemble members.  Each model kind only lists its components, in
    ``components(n_samples, rng) -> Components``; a block is a (weights,
    hidden_masks) pair of one component or a stack of them, run on the
    whole batch.  Kinds with a fixed count ignore ``n_samples``.

    ``predict`` and ``loss_input_grad`` run the blocks through
    ``imap_in_order`` on the CPUs the budget leaves free: each block is
    drawn under the map's lock (two maps that may run at once share no
    ``Rng``) in component order, unless drawn ahead (``DrawAhead``), any
    worker runs it, and its small result is added into the running sums in
    block order, so the sums hold the bits of a plain loop."""

    def predict(self, x: Array, n_samples: int = 1, rng: Rng | None = None
                ) -> PredictiveSummary:
        """Predictive summary of the mixture on the batch ``x``."""
        components = self.components(n_samples, rng)

        def probs(block):
            weights, masks = block
            log_probs, _ = forward(weights, x, hidden_masks=masks)
            return np.exp(log_probs.reshape(-1, *log_probs.shape[-2:]))

        return summarize_prob_stream(
            (p for block in imap_in_order(probs, components) for p in block),
            components.count)

    def loss_input_grad(self, x: Array, labels, n_samples: int = 1,
                        rng: Rng | None = None, ahead: DrawAhead | None = None):
        """Gradient wrt x of -log p_bar(y|x) where p_bar averages component
        probabilities (the mixture output itself, not the average of logs).

        The per-example 1/p_bar factor is applied after summing per-component
        gradients of p_s, so no trace outlives its block of components.
        ``ahead`` makes this one of its successive calls, each of which
        takes its components from it, all made.
        Returns (grad_x, mean label probability).
        """
        components, then = (ahead or DrawAhead(1)).take(
            lambda: self.components(n_samples, rng).made())
        total = components.count
        labels = np.asarray(labels)
        b = x.shape[0]
        rows = np.arange(b)

        def grad(block):
            weights, masks = block
            log_probs, trace = forward(weights, x, hidden_masks=masks)
            p_label = np.exp(log_probs[..., rows, labels])
            # d p / d log p = p
            _, gx = label_backward(trace, labels, p_label, INPUT_GRAD)
            return gx, p_label.reshape(-1, b).sum(axis=0), p_label.size // b

        label_prob_sum = np.zeros(b)
        grad_x = None
        count = 0
        for gx, label_probs, n in imap_in_order(grad, components, then):
            if grad_x is None:
                # The first block's array holds the sum: 0.0 + gx, the bits
                # that adding it to zeros gives (-0.0 becomes 0.0).
                grad_x = gx
                grad_x += 0.0
            else:
                grad_x += gx
            label_prob_sum += label_probs
            count += n
            del gx      # before the next block's result is taken
        if count != total:
            raise ValueError(f"expected {total} components, got {count}")
        mean_label_prob = np.maximum(label_prob_sum / total, 1e-300)
        grad_x /= (-total * mean_label_prob)[:, None]
        return grad_x, mean_label_prob


@dataclass
class StochasticMlp(MixtureModel):
    """Stack of matrix-variate normal layers with ReLU hidden activations."""

    layers: list

    @classmethod
    def create(cls, rng: Rng, topology=DEFAULT_TOPOLOGY) -> "StochasticMlp":
        layers = [
            MvnLayerPosterior.initialize(n_in, n_out, rng.derive(l))
            for l, (n_in, n_out) in enumerate(zip(topology[:-1], topology[1:]))
        ]
        return cls(layers=layers)

    def named_params(self) -> list:
        """[(name, array)] of the trained arrays, the model's own, in the one
        order that training, gradcheck and checkpoints all follow."""
        return [(f"layer{l}.{b}", getattr(layer, b))
                for l, layer in enumerate(self.layers)
                for b in ("mean", "row_scale_raw", "col_scale_raw")]

    def copy(self) -> "StochasticMlp":
        return StochasticMlp([layer.copy() for layer in self.layers])

    def draw_normals(self, n_samples: int, rng: Rng) -> Array:
        """The normals of ``n_samples`` weight draws, from one call: an
        (S, W) array, one row of W weights per draw."""
        return rng.standard_normal(
            n_samples, sum(layer.mean.size for layer in self.layers))

    def sample_draws(self, normals: Array) -> list:
        """The S draws of ``normals`` (``draw_normals``) as one stack
        (S, n_in+1, n_out) per layer.  Each row holds the stream of a
        (n_rows, n_cols) call per layer, draw after draw.  Layer 0 is
        written draw-major, for ``forward``'s wide GEMM."""
        sizes = [layer.mean.size for layer in self.layers]
        parts = np.split(normals, np.cumsum(sizes)[:-1], axis=1)
        draws = []
        for layer, noise in zip(self.layers, parts):
            out = None if draws else np.empty(
                (layer.n_rows, len(normals), layer.n_cols)).transpose(1, 0, 2)
            draws.append(sample(layer, noise.reshape(-1, *layer.mean.shape), out=out))
        return draws

    def components(self, n_samples: int, rng: Rng) -> Components:
        return Components(n_samples, lambda start, stop: (
            [sw.weights for sw in self.sample_draws(
                self.draw_normals(stop - start, rng))], None))
