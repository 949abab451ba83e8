"""L-inf projected gradient descent against any model exposing
``loss_input_grad`` and ``predict``.

Each step ascends the sign of the input gradient of -log p_bar(y|x) and
projects back onto the eps-ball around the clean input intersected with the
[0,1] pixel box.  For stochastic models the gradient is estimated from
``n_grad_samples`` fresh weight draws per step, so a one-sample attack sees
a different mixture component at every iteration.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from .data import Dataset, IDX_FLOAT64, atomic_open, save_idx
from .network import PredictiveSummary
from .tensor import Array, Rng

_INIT_STREAM = 4
_GRAD_STREAM = 5
_EVAL_STREAM = 6

DEFAULT_EPS_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)


@dataclass
class AttackConfig:
    epsilon: float = 0.25
    n_iter: int = 40
    step: float | None = None          # defaults to 2.5 * epsilon / n_iter
    n_grad_samples: int = 1
    random_init: bool = True
    seed: int = 0
    n_eval_samples: int = 100

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {self.n_iter}")

    def resolved_step(self) -> float:
        if self.step is not None:
            if self.step <= 0:
                raise ValueError(f"step must be positive, got {self.step}")
            return self.step
        return 2.5 * self.epsilon / self.n_iter


@dataclass
class AttackResult:
    adversarial: Array
    epsilon: float
    true_labels: np.ndarray
    pred_after: np.ndarray
    success: np.ndarray          # prediction != true label after the attack
    robust_accuracy: float
    summary_after: PredictiveSummary


def project(x: Array, x_clean: Array, epsilon: float, out=None) -> Array:
    """Exact projection onto the eps-ball around x_clean and the [0,1] box,
    into ``out`` if given (``x`` itself may be ``out``).  The ball's two
    bounds take turns in one temporary: max then min is the clip."""
    bound = np.subtract(x_clean, epsilon)
    out = np.maximum(x, bound, out=out)
    np.minimum(out, np.add(x_clean, epsilon, out=bound), out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def pgd_attack(model, images: Array, labels, cfg: AttackConfig,
               step_callback=None) -> AttackResult:
    """Untargeted L-inf PGD; evaluation of the result always uses
    ``cfg.n_eval_samples`` draws.  The clean images are not predicted: a
    caller that needs their classes has them from its own evaluation.

    ``step_callback(iteration, x_adv)``, when given, observes every iterate
    (used by the projection-invariant tests).
    """
    labels = np.asarray(labels)
    x_clean = np.asarray(images, dtype=np.float64)
    rng = Rng(cfg.seed)
    step = cfg.resolved_step()

    if cfg.random_init and cfg.epsilon > 0:
        x = x_clean + rng.derive(_INIT_STREAM).uniform(
            -cfg.epsilon, cfg.epsilon, x_clean.shape)
        project(x, x_clean, cfg.epsilon, out=x)
    else:
        x = x_clean.copy()

    grad_rng = rng.derive(_GRAD_STREAM)
    if cfg.epsilon > 0:
        for it in range(cfg.n_iter):
            grad_x, _ = model.loss_input_grad(
                x, labels, cfg.n_grad_samples, grad_rng)
            # A fresh iterate: the callback may keep the one before.
            x_next = np.sign(grad_x)
            x_next *= step
            x = project(np.add(x, x_next, out=x_next), x_clean, cfg.epsilon,
                        out=x_next)
            del grad_x      # before the next gradient is computed
            if step_callback is not None:
                step_callback(it, x)

    summary_after = model.predict(x, cfg.n_eval_samples,
                                  rng.derive(_EVAL_STREAM, 1))
    pred_after = summary_after.predicted_class
    success = pred_after != labels
    return AttackResult(
        adversarial=x,
        epsilon=cfg.epsilon,
        true_labels=labels,
        pred_after=pred_after,
        success=success,
        robust_accuracy=float(np.mean(~success)),
        summary_after=summary_after,
    )


def attack_csv(result: AttackResult, pred_before) -> str:
    """Per-example outcome table: index, labels, predictions, success flag.

    ``pred_before`` holds the classes predicted for the clean images.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["example_index", "true_label", "pred_before",
                     "pred_after", "success"])
    for i in range(len(result.true_labels)):
        writer.writerow([i, int(result.true_labels[i]),
                         int(pred_before[i]), int(result.pred_after[i]),
                         int(result.success[i])])
    return buf.getvalue()


def write_attack_artifacts(result: AttackResult, pred_before, out_dir,
                           stem: str) -> dict:
    """Persist adversarial images as float64 IDX (exact pixels) plus the
    per-example CSV; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    images_path = os.path.join(out_dir, f"{stem}-images-idx3-double")
    labels_path = os.path.join(out_dir, f"{stem}-labels-idx1-ubyte")
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    adv = Dataset(images=result.adversarial,
                  labels=np.asarray(result.true_labels), name=stem)
    save_idx(adv, images_path, labels_path, type_code=IDX_FLOAT64)
    with atomic_open(csv_path) as f:
        f.write(attack_csv(result, pred_before))
    return {"images": images_path, "labels": labels_path, "csv": csv_path}
