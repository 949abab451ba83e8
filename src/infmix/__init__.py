"""Infinite-mixture stochastic MLPs: mixture-likelihood vs variational
training of matrix-variate normal weight distributions, with predictive
uncertainty, OOD, and adversarial-robustness evaluation."""

from .attacks import AttackConfig, AttackResult, pgd_attack
from .baselines import (DeepEnsemble, DeterministicMlp, DropoutMlp, FitConfig,
                        train_deterministic, train_dropout, train_ensemble)
from .checkpoint import load_model, save_model
from .data import BatchIterator, Dataset, load_idx, save_idx, take_prefix
from .metrics import (auroc_balanced, auroc_scores, mean_std,
                      uncertainty_histograms)
from .network import PredictiveSummary, StochasticMlp, summarize_probs
from .objectives import (ObjectiveKind, TrainConfig, ml_loss, train, vi_loss)
from .posterior import (MvnLayerPosterior, PriorSpec, kl_to_prior,
                        per_weight_variance)
from .tensor import AdamState, Rng, adam_step

__all__ = [
    "AdamState", "AttackConfig", "AttackResult", "BatchIterator", "Dataset",
    "DeepEnsemble", "DeterministicMlp", "DropoutMlp", "FitConfig",
    "MvnLayerPosterior", "ObjectiveKind", "PredictiveSummary", "PriorSpec",
    "Rng", "StochasticMlp", "TrainConfig", "adam_step",
    "auroc_balanced", "auroc_scores", "kl_to_prior", "load_idx",
    "load_model", "mean_std", "ml_loss",
    "per_weight_variance", "pgd_attack", "save_idx",
    "save_model", "summarize_probs", "take_prefix", "train",
    "train_deterministic", "train_dropout", "train_ensemble",
    "uncertainty_histograms", "vi_loss",
]
