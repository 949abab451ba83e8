"""Matrix-variate normal mixing distribution over one layer's weights.

Each layer holds a mean matrix M (bias row included) and raw row/column
scale vectors a, b.  Effective standard deviations are r = softplus(a),
c = softplus(b), giving per-weight variance r_i^2 c_j^2, i.e. a Gaussian
over the weight matrix with vec-covariance diag(c)^2 (x) diag(r)^2.
Sampling uses the reparameterization W = M + diag(r) E diag(c) with
E ~ N(0, I), so gradients flow to (M, a, b) through cached noise.

A layer that sees a batch x may instead be sampled locally, as its
pre-activations z = x~W with x~ = [x, 1] (Kingma, Salimans & Welling 2015):
given x, the columns of x~W are independent normals of mean (x~M)_bj and
variance c_j^2 sd_b^2, sd_b^2 = sum_i x~_bi^2 r_i^2, so z = x~M + c_j sd_b eps
with eps ~ N(0, I) drawn per example and draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit as sigmoid

from .tensor import Array, Rng

INIT_WEIGHT_STD = 0.05      # r_i c_j of every weight of a new layer


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    """Inverse of softplus for y > 0: log(exp(y) - 1)."""
    y = np.asarray(y, dtype=np.float64)
    return y + np.log1p(-np.exp(-y))


def glorot_uniform(n_in: int, n_out: int, rng: Rng) -> Array:
    """Glorot-uniform (n_in + 1, n_out) weights with a zero bias row."""
    limit = np.sqrt(6.0 / (n_in + n_out))
    w = np.zeros((n_in + 1, n_out))
    w[:n_in] = rng.uniform(-limit, limit, (n_in, n_out))
    return w


@dataclass
class PriorSpec:
    """Isotropic Gaussian prior over all weights: vec-covariance variance * I."""

    variance: float = 1.0

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError(f"prior variance must be positive, got {self.variance}")


@dataclass
class SampledWeights:
    """A stack of reparameterized draws W = M + diag(r) E diag(c), with E
    cached; both are (S, n_rows, n_cols)."""

    weights: Array
    noise: Array


@dataclass
class MvnLayerPosterior:
    mean: Array             # (n_in + 1, n_out), last row is the bias
    row_scale_raw: Array    # (n_in + 1,)
    col_scale_raw: Array    # (n_out,)

    @property
    def n_rows(self) -> int:
        return self.mean.shape[0]

    @property
    def n_cols(self) -> int:
        return self.mean.shape[1]

    @property
    def row_std(self) -> Array:
        return softplus(self.row_scale_raw)

    @property
    def col_std(self) -> Array:
        return softplus(self.col_scale_raw)

    @classmethod
    def initialize(cls, n_in: int, n_out: int, rng: Rng) -> "MvnLayerPosterior":
        """Glorot-uniform mean (zero bias row); scales set so that the
        initial per-weight standard deviation is ``INIT_WEIGHT_STD``."""
        raw = float(softplus_inv(np.sqrt(INIT_WEIGHT_STD)))
        return cls(mean=glorot_uniform(n_in, n_out, rng),
                   row_scale_raw=np.full(n_in + 1, raw),
                   col_scale_raw=np.full(n_out, raw))

    def copy(self) -> "MvnLayerPosterior":
        return MvnLayerPosterior(self.mean.copy(), self.row_scale_raw.copy(),
                                 self.col_scale_raw.copy())


def per_weight_variance(layer: MvnLayerPosterior) -> Array:
    """Identifiable per-weight variances r_i^2 c_j^2 (the quantity reported
    in mixing-distribution histograms; invariant to the r/c scale ambiguity)."""
    r = layer.row_std
    c = layer.col_std
    return np.outer(r * r, c * c)


def sample(layer: MvnLayerPosterior, noise: Array,
           out: Array | None = None) -> SampledWeights:
    """Draws W = M + diag(r) E diag(c) from a stack of noise (S, n_rows,
    n_cols), written into ``out`` when given (any layout)."""
    if noise.ndim != 3 or noise.shape[1:] != layer.mean.shape:
        raise ValueError(f"noise shape {noise.shape} is not a stack "
                         f"(S, {layer.n_rows}, {layer.n_cols})")
    weights = np.empty(noise.shape) if out is None else out
    r, c = layer.row_std[:, None], layer.col_std
    # One draw at a time, so that each pass stays in cache.
    for e, w in zip(noise, weights):
        np.multiply(r, e, out=w)
        w *= c
        w += layer.mean
    return SampledWeights(weights=weights, noise=noise)


def sample_backward(layer: MvnLayerPosterior, sw: SampledWeights,
                    grad_weights: Array):
    """Gradients of a scalar loss wrt (mean, row_scale_raw, col_scale_raw)
    given its gradient wrt the sampled stack W and the cached noise E,
    summed over the draws.

    dL/dM = dL/dW;  dL/dr_i = sum_j dL/dW_ij E_ij c_j;
    dL/dc_j = sum_i dL/dW_ij E_ij r_i;  chained through softplus'(x) = sigmoid(x).
    """
    if grad_weights.shape != sw.weights.shape:
        raise ValueError(
            f"grad shape {grad_weights.shape} != weight shape {sw.weights.shape}")
    ge = np.einsum("sij,sij->ij", grad_weights, sw.noise)
    grad_r = ge @ layer.col_std
    grad_c = ge.T @ layer.row_std
    grad_a = grad_r * sigmoid(layer.row_scale_raw)
    grad_b = grad_c * sigmoid(layer.col_scale_raw)
    return grad_weights.sum(axis=0), grad_a, grad_b


@dataclass
class LocalPreactivations:
    """S locally sampled pre-activation draws of one layer on a batch, with
    what their backward reads."""

    z: Array        # (S, B, n_cols) pre-activations x~M + c sd eps
    noise: Array    # (S, B, n_cols) eps
    inputs: Array   # (B, n_rows - 1) the batch x
    sd: Array       # (B,) sqrt(sum_i x~_bi^2 r_i^2)


def sample_preactivations(layer: MvnLayerPosterior, x: Array,
                          noise: Array) -> LocalPreactivations:
    """Draws the layer's pre-activations on the batch ``x`` (B, n_rows - 1)
    from a stack of noise (S, B, n_cols), one normal per example, draw and
    unit: one mean GEMM and one GEMV serve every draw."""
    if noise.ndim != 3 or noise.shape[1:] != (x.shape[0], layer.n_cols):
        raise ValueError(f"noise shape {noise.shape} is not a stack "
                         f"(S, {x.shape[0]}, {layer.n_cols})")
    r2 = layer.row_std ** 2
    sd = np.sqrt((x * x) @ r2[:-1] + r2[-1])
    mean = x @ layer.mean[:-1]
    mean += layer.mean[-1]
    z = noise * (sd[:, None] * layer.col_std)
    z += mean
    return LocalPreactivations(z=z, noise=noise, inputs=x, sd=sd)


def preactivation_backward(layer: MvnLayerPosterior, pre: LocalPreactivations,
                           grad_z: Array):
    """Gradients of a scalar loss wrt (mean, row_scale_raw, col_scale_raw)
    given its gradient wrt the drawn pre-activations, summed over the draws.

    With G = sum_s dL/dz_s and E = sum_s dL/dz_s eps_s (both (B, n_cols)):
    dL/dM = x~^T G;  dL/dc_j = sum_b sd_b E_bj;
    dL/dr_i = r_i sum_b x~_bi^2 (E c)_b / sd_b;  chained through softplus.
    """
    if grad_z.shape != pre.z.shape:
        raise ValueError(
            f"grad shape {grad_z.shape} != pre-activation shape {pre.z.shape}")
    x = pre.inputs
    g = grad_z.sum(axis=0)
    grad_mean = np.empty(layer.mean.shape)
    np.matmul(x.T, g, out=grad_mean[:-1])
    grad_mean[-1] = g.sum(axis=0)
    ge = np.einsum("sbj,sbj->bj", grad_z, pre.noise)
    grad_c = pre.sd @ ge
    t = (ge @ layer.col_std) / pre.sd
    grad_r = np.empty(layer.n_rows)
    grad_r[:-1] = t @ (x * x)
    grad_r[-1] = t.sum()
    grad_r *= layer.row_std
    grad_a = grad_r * sigmoid(layer.row_scale_raw)
    grad_b = grad_c * sigmoid(layer.col_scale_raw)
    return grad_mean, grad_a, grad_b


def kl_to_prior(layer: MvnLayerPosterior, prior: PriorSpec) -> float:
    """Closed-form KL from the layer's weight distribution to the isotropic
    Gaussian prior, over the vectorized weight matrix.

    With n rows, p cols, variances r_i^2 c_j^2 and prior variance v:
      KL = 1/2 [ (sum r^2)(sum c^2)/v + ||M||_F^2 / v - n p + n p log v
                 - 2 p sum log r - 2 n sum log c ]
    """
    r = layer.row_std
    c = layer.col_std
    n, p = layer.n_rows, layer.n_cols
    v = prior.variance
    trace_term = float(np.sum(r * r) * np.sum(c * c)) / v
    mean_term = float(np.sum(layer.mean * layer.mean)) / v
    log_det_q = 2.0 * p * float(np.sum(np.log(r))) + 2.0 * n * float(np.sum(np.log(c)))
    return 0.5 * (trace_term + mean_term - n * p + n * p * np.log(v) - log_det_q)


def kl_backward(layer: MvnLayerPosterior, prior: PriorSpec):
    """Analytic gradient of ``kl_to_prior`` wrt (mean, row_scale_raw, col_scale_raw)."""
    r = layer.row_std
    c = layer.col_std
    n, p = layer.n_rows, layer.n_cols
    v = prior.variance
    grad_mean = layer.mean / v
    grad_r = r * np.sum(c * c) / v - p / r
    grad_c = c * np.sum(r * r) / v - n / c
    grad_a = grad_r * sigmoid(layer.row_scale_raw)
    grad_b = grad_c * sigmoid(layer.col_scale_raw)
    return grad_mean, grad_a, grad_b
