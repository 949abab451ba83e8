"""Experiment orchestration: flat-text configs, multi-trial runs, the
hyperparameter sweeps, OOD / attack / detection evaluation, and report
emission.

Every result file embeds its fully-resolved config and seed, and is written
through ``data.atomic_open``, so concurrent trials never interleave and any
result can be reproduced from its own metadata.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import attacks, baselines, metrics
from .checkpoint import load_model, save_model
from .data import Dataset, atomic_open, load_split, take_prefix
from .metrics import auroc_balanced, auroc_scores, mean_std
from .network import (DEFAULT_TOPOLOGY, N_CLASSES, PredictiveSummary,
                      StochasticMlp)
from .objectives import (ObjectiveKind, TrainConfig, loss_history_csv, train)
from .posterior import PriorSpec, kl_to_prior, per_weight_variance
from .tensor import Rng, blas_threads, map_in_order

SCHEMA_VERSION = 1

_EVAL_STREAM = 20
_EVAL_CHUNK = 2000

MODEL_KINDS = ("ml", "vi", "deterministic", "dropout", "ensemble")
# Each sweep axis: the config field it varies and the field holding its grid.
SWEEPS = {"kl_weight": ("kl_weight", "kl_weight_grid"),
          "prior": ("prior_variance", "prior_grid")}
SWEEP_AXES = ("none", *SWEEPS)

# Per-weight mixing-distribution variances span orders of magnitude, so the
# exported histograms use fixed log-spaced bins.
MIXING_VARIANCE_EDGES = np.logspace(-8.0, 1.0, 46)


class ConfigError(ValueError):
    """Bad config file, unknown key, or unusable field value."""


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_float_list(s: str):
    """Comma-separated floats; an empty value is the empty list, and an
    empty entry is an error."""
    return tuple(float(tok) for tok in s.split(",")) if s.strip() else ()


def _parse_optional_float(s: str):
    if s.strip().lower() in ("auto", "none"):
        return None
    return float(s)


@dataclass
class ExperimentConfig:
    """Fully-resolved experiment description (one flat key per field)."""

    schema_version: int = SCHEMA_VERSION
    model: str = "ml"
    dataset: str = "mnist"
    kl_weight: float = 1.0
    prior_variance: float = 1.0
    n_train_samples: int = 5
    n_eval_samples: int = 100
    batch_size: int = 200
    learning_rate: float = 1e-3
    iterations: int = 30_000
    n_trials: int = 10
    base_seed: int = 0
    sweep: str = "none"
    kl_weight_grid: tuple = (1.0, 0.1, 0.01, 1e-3, 1e-4)
    prior_grid: tuple = (0.5, 1.0, 1.5, 3.0)
    weight_decay: float = baselines.DEFAULT_WEIGHT_DECAY
    dropout_p: float = 0.5
    ensemble_size: int = 5
    eps_grid: tuple = attacks.DEFAULT_EPS_GRID
    attack_iterations: int = 40
    attack_step: float | None = None
    n_attack_samples: int = 1
    attack_random_init: bool = True
    attack_epsilon: float = 0.25
    attack_prefix: int = 1000
    detect_full_test: bool = True
    ood_prefix: int = 10_000
    loss_record_every: int = 10
    data_dir: str = "data"
    out_dir: str = "results"

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version {self.schema_version} unsupported "
                f"(expected {SCHEMA_VERSION})")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.sweep not in SWEEP_AXES:
            raise ConfigError(f"sweep must be one of {SWEEP_AXES}, got {self.sweep!r}")
        # The dataset name is part of every result file name.
        if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", self.dataset):
            raise ConfigError(f"dataset must be a plain file-name token "
                              f"(letters, digits, '_', '.', '-'), got {self.dataset!r}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if math.inf in entries or -math.inf in entries:
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("n_trials", "n_train_samples", "n_eval_samples", "batch_size",
                     "ensemble_size", "n_attack_samples", "attack_iterations",
                     "attack_prefix", "ood_prefix"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # Written as `not >=` and `not >` so that NaN is rejected too.
        for name in ("iterations", "loss_record_every", "attack_epsilon",
                     "kl_weight", "weight_decay", "base_seed"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("prior_variance", "learning_rate"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if not all(v >= 0 for v in self.kl_weight_grid):
            raise ConfigError(f"kl_weight_grid entries must be >= 0, "
                              f"got {list(self.kl_weight_grid)}")
        if not all(v > 0 for v in self.prior_grid):
            raise ConfigError(f"prior_grid entries must be > 0, "
                              f"got {list(self.prior_grid)}")
        if self.attack_step is not None and not self.attack_step > 0:
            raise ConfigError(f"attack_step must be > 0 or auto, got {self.attack_step}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if not (all(e >= 0 for e in self.eps_grid)
                and list(self.eps_grid) == sorted(self.eps_grid)):
            raise ConfigError(f"eps_grid must be ascending and >= 0, "
                              f"got {list(self.eps_grid)}")

    def trial_seeds(self):
        """Audit-friendly seed schedule: base_seed + trial index."""
        return [self.base_seed + t for t in range(self.n_trials)]

    def run_id(self) -> str:
        if self.model in ("ml", "vi"):
            return (f"{self.model}_{self.dataset}"
                    f"_kl{self.kl_weight:g}_pv{self.prior_variance:g}")
        return f"{self.model}_{self.dataset}"

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)


# The text parser of each field, from its annotation: the config is declared
# once, by ``ExperimentConfig``.
_PARSER_BY_TYPE = {"int": int, "float": float, "str": str, "bool": _parse_bool,
                   "tuple": _parse_float_list, "float | None": _parse_optional_float}
_FIELD_PARSERS = {f.name: _PARSER_BY_TYPE[f.type]
                  for f in dataclasses.fields(ExperimentConfig)}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines; '#' starts a comment; unknown keys are
    hard errors so a typo cannot silently change a sweep."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return ExperimentConfig(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def config_text(cfg: ExperimentConfig) -> str:
    """Render a config back to the flat text format (round-trips)."""
    lines = []
    for f_ in dataclasses.fields(cfg):
        v = getattr(cfg, f_.name)
        if isinstance(v, tuple):
            v = ",".join(str(float(x)) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif v is None:
            v = "auto"
        lines.append(f"{f_.name} = {v}")
    return "\n".join(lines) + "\n"


def write_text_atomic(path, text: str) -> None:
    with atomic_open(path) as f:
        f.write(text)


def write_json_atomic(path, payload: dict) -> None:
    with atomic_open(path) as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


# ----------------------------------------------------------------------
# Model construction / evaluation helpers
# ----------------------------------------------------------------------

def train_model_for_trial(cfg: ExperimentConfig, train_data: Dataset, seed: int):
    """Train one model of the configured kind; returns (model, loss records)."""
    fit = baselines.FitConfig(batch_size=cfg.batch_size, seed=seed,
                              learning_rate=cfg.learning_rate,
                              iterations=cfg.iterations)
    if cfg.model in ("ml", "vi"):
        net = StochasticMlp.create(Rng(seed).derive(0))
        tc = TrainConfig(objective=ObjectiveKind(cfg.model),
                         kl_weight=cfg.kl_weight,
                         prior=PriorSpec(cfg.prior_variance),
                         n_train_samples=cfg.n_train_samples,
                         **dataclasses.asdict(fit))
        return net, train(net, train_data, tc, record_every=cfg.loss_record_every)
    if cfg.model in ("deterministic", "dropout"):
        p_drop = cfg.dropout_p if cfg.model == "dropout" else 0.0
        return baselines.train_dropout(train_data, p_drop, cfg.weight_decay,
                                       fit), []
    if cfg.model == "ensemble":
        return baselines.train_ensemble(train_data, cfg.ensemble_size,
                                        cfg.weight_decay, fit), []
    raise ConfigError(f"unknown model kind {cfg.model!r}")


def concat_summaries(parts) -> PredictiveSummary:
    return PredictiveSummary(
        mean_probs=np.concatenate([p.mean_probs for p in parts]),
        class_variance=np.concatenate([p.class_variance for p in parts]),
        max_variance=np.concatenate([p.max_variance for p in parts]),
        entropy=np.concatenate([p.entropy for p in parts]),
        predicted_class=np.concatenate([p.predicted_class for p in parts]),
        n_samples=parts[0].n_samples,
    )


def predict_dataset(model, images, n_samples: int, rng: Rng) -> PredictiveSummary:
    """Chunked prediction over a whole dataset, deterministic in ``rng``."""
    parts = []
    for start in range(0, images.shape[0], _EVAL_CHUNK):
        parts.append(model.predict(images[start:start + _EVAL_CHUNK],
                                   n_samples, rng.derive(start)))
    return concat_summaries(parts)


def mixing_variance_report(net: StochasticMlp) -> list:
    """Per-layer summary of the identifiable per-weight variances."""
    out = []
    for l, layer in enumerate(net.layers):
        v = per_weight_variance(layer).ravel()
        counts, _ = np.histogram(
            np.clip(v, MIXING_VARIANCE_EDGES[0], MIXING_VARIANCE_EDGES[-1]),
            bins=MIXING_VARIANCE_EDGES)
        out.append({
            "layer": l,
            "mean": float(v.mean()),
            "min": float(v.min()),
            "max": float(v.max()),
            "histogram": {"bin_edges": MIXING_VARIANCE_EDGES.tolist(),
                          "counts": counts.tolist()},
        })
    return out


def _write_result(cfg: ExperimentConfig, kind: str, name: str, scores=(),
                  **fields) -> dict:
    """Write and return the result file ``name`` in ``cfg.out_dir``: the
    header, ``fields``, and ``mean_<score>``, ``std_<score>`` over the non-None
    values in ``fields["trials"]`` (the mean is None if there are none).  The
    header records the BLAS thread setting, on which trained bits depend."""
    payload = {"schema_version": SCHEMA_VERSION, "kind": kind,
               "run_id": cfg.run_id(), "model": cfg.model,
               "dataset": cfg.dataset, "config": dataclasses.asdict(cfg),
               "blas_threads": blas_threads(), **fields}
    for score in scores:
        vals = [t[score] for t in fields["trials"] if t[score] is not None]
        payload[f"mean_{score}"], payload[f"std_{score}"] = (
            mean_std(vals) if vals else (None, 0.0))
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_json_atomic(os.path.join(cfg.out_dir, name), payload)
    return payload


def _band_csv(header: str, xs, series, x_fmt: str = "", digits: int = 6) -> str:
    """An x column, then ``mean,3·std`` for each (mean, std) series."""
    lines = [header]
    for j, x in enumerate(xs):
        lines.append(f"{x:{x_fmt}}," + ",".join(
            f"{mean[j]:.{digits}f},{3.0 * std[j]:.{digits}f}"
            for mean, std in series))
    return "\n".join(lines) + "\n"


def _json_histograms(hists: dict) -> dict:
    return {
        metric: {
            "bin_edges": data["bin_edges"].tolist(),
            "counts": {name: counts.tolist()
                       for name, counts in data["counts"].items()},
        }
        for metric, data in hists.items()
    }


# ----------------------------------------------------------------------
# train / sweep
# ----------------------------------------------------------------------

def run_trial(cfg: ExperimentConfig, train_data: Dataset, test_data: Dataset,
              seed: int) -> dict:
    """Train, evaluate on the test set, and persist one trial."""
    model, records = train_model_for_trial(cfg, train_data, seed)
    eval_rng = Rng(seed).derive(_EVAL_STREAM)
    summary = predict_dataset(model, test_data.images, cfg.n_eval_samples,
                              eval_rng)
    groups = metrics.summary_groups(summary, test_data.labels)
    hists = metrics.uncertainty_histograms(groups)

    os.makedirs(cfg.out_dir, exist_ok=True)
    stem = f"{cfg.run_id()}_seed{seed}"
    result = {"seed": seed,
              "clean_accuracy": summary.accuracy(test_data.labels),
              "mean_max_variance": float(summary.max_variance.mean()),
              "mean_entropy": float(summary.entropy.mean()),
              "histograms": _json_histograms(hists),
              "checkpoint": stem + ".ckpt", "histogram_csv": stem + "_hist.csv"}
    save_model(model, os.path.join(cfg.out_dir, result["checkpoint"]))
    for group, scores in groups.items():
        for score, values in scores.items():
            result[f"mean_{score}_{group}"] = (float(values.mean())
                                               if values.size else None)
    if isinstance(model, StochasticMlp):
        result["mixing_variance"] = mixing_variance_report(model)
        result["final_kl"] = float(sum(
            kl_to_prior(layer, PriorSpec(cfg.prior_variance))
            for layer in model.layers))
    if records:
        result["loss_csv"] = stem + "_loss.csv"
        result["final_loss"] = records[-1].loss
        write_text_atomic(os.path.join(cfg.out_dir, result["loss_csv"]),
                          loss_history_csv(records))
    write_text_atomic(os.path.join(cfg.out_dir, result["histogram_csv"]),
                      metrics.histograms_csv(hists))
    return _write_result(cfg, "trial", stem + ".json", **result)


def run_points(cfg: ExperimentConfig, points) -> list:
    """Every trial of each of ``points``, on ``cfg``'s data, as one map of
    (point, seed) pairs; returns the per-trial result dicts of each point."""
    # Points of one run id would write the same files, at the same time.
    run_ids = [point.run_id() for point in points]
    if len(set(run_ids)) < len(run_ids):
        raise ConfigError(f"the grid gives one run id to two points: {run_ids}")
    train_data = load_split(cfg.data_dir, "train")
    test_data = load_split(cfg.data_dir, "test")
    for split, data in (("train", train_data), ("test", test_data)):
        if data.images.shape[1] != DEFAULT_TOPOLOGY[0]:
            raise ConfigError(
                f"the {split} split has {data.images.shape[1]} pixels, but "
                f"the network takes {DEFAULT_TOPOLOGY[0]} inputs")
    results = iter(map_in_order(
        lambda item: run_trial(item[0], train_data, test_data, item[1]),
        [(point, seed) for point in points for seed in point.trial_seeds()]))
    return [[next(results) for _ in point.trial_seeds()] for point in points]


def run_train(cfg: ExperimentConfig) -> list:
    """All trials of one configuration; returns the per-trial result dicts."""
    return run_points(cfg, [cfg])[0]


def sweep_points(cfg: ExperimentConfig) -> list:
    """``cfg`` at each value of its sweep axis's grid, in grid order; with
    no sweep, ``cfg`` alone."""
    if cfg.sweep == "none":
        return [cfg]
    field, grid = SWEEPS[cfg.sweep]
    if not getattr(cfg, grid):
        raise ConfigError(f"empty grid for sweep axis {cfg.sweep!r}")
    return [cfg.replace(**{field: value}) for value in getattr(cfg, grid)]


# ----------------------------------------------------------------------
# ood / attack / detect
# ----------------------------------------------------------------------

def _load_fitting(path, n_pixels: int):
    """The checkpoint at ``path``, if its model maps ``n_pixels`` inputs to
    N_CLASSES classes."""
    model = load_model(path)
    shapes = [a.shape for _, a in model.named_params() if a.ndim == 2]
    widths = (shapes[0][0] - 1, shapes[-1][1])
    if widths != (n_pixels, N_CLASSES):
        raise ConfigError(
            f"checkpoint {path} maps {widths[0]} inputs to {widths[1]} classes, "
            f"but the test split has {n_pixels} pixels and {N_CLASSES} classes")
    return model


def _trial_checkpoints(cfg: ExperimentConfig, n_pixels: int, checkpoint=None):
    """(seed, model) pairs for the configured run, from explicit checkpoint
    or from the out_dir files written by run_train; each model must fit
    images of ``n_pixels`` pixels."""
    if checkpoint is not None:
        return [(cfg.base_seed, _load_fitting(checkpoint, n_pixels))]
    pairs = []
    missing = []
    for seed in cfg.trial_seeds():
        path = os.path.join(cfg.out_dir, f"{cfg.run_id()}_seed{seed}.ckpt")
        if os.path.exists(path):
            pairs.append((seed, _load_fitting(path, n_pixels)))
        else:
            missing.append(path)
    if not pairs:
        raise ConfigError(
            f"no checkpoints for run {cfg.run_id()!r}; expected e.g. {missing[0]}")
    return pairs


def run_ood(cfg: ExperimentConfig, checkpoint=None) -> dict:
    """Test-vs-OOD AUROC for both uncertainty scores, per trial; each
    (trial, split) pair is one item of the worker pool."""
    test_data = load_split(cfg.data_dir, "test")
    try:
        ood_data = load_split(cfg.data_dir, "ood")
    except FileNotFoundError as exc:
        raise ConfigError(
            f"OOD data missing: {exc}; convert the OOD set to IDX and place "
            f"it in {cfg.data_dir}") from exc
    ood_data = take_prefix(ood_data, min(cfg.ood_prefix, ood_data.n))
    if ood_data.images.shape[1] != test_data.images.shape[1]:
        raise ConfigError(
            f"the ood split has {ood_data.images.shape[1]} pixels, but the "
            f"test split has {test_data.images.shape[1]}")

    splits = (test_data, ood_data)

    def scores(item):
        (seed, model), split = item
        summary = predict_dataset(model, splits[split].images,
                                  cfg.n_eval_samples,
                                  Rng(seed).derive(_EVAL_STREAM, split))
        return summary.max_variance, summary.entropy

    pairs = _trial_checkpoints(cfg, test_data.images.shape[1], checkpoint)
    by_split = map_in_order(
        scores, [(pair, split) for pair in pairs for split in (0, 1)])
    trials = []
    for (seed, _), (test_var, test_ent), (ood_var, ood_ent) in zip(
            pairs, by_split[::2], by_split[1::2]):
        trials.append({
            "seed": seed,
            "auroc_variance": auroc_scores(ood_var, test_var),
            "auroc_entropy": auroc_scores(ood_ent, test_ent),
            "n_test": test_data.n,
            "n_ood": ood_data.n,
        })

    return _write_result(cfg, "ood", f"ood_{cfg.run_id()}.json",
                         ("auroc_variance", "auroc_entropy"), trials=trials)


def _attack_config(cfg: ExperimentConfig, seed: int,
                   epsilon: float) -> attacks.AttackConfig:
    return attacks.AttackConfig(
        epsilon=epsilon, n_iter=cfg.attack_iterations,
        step=cfg.attack_step,
        n_grad_samples=cfg.n_attack_samples,
        random_init=cfg.attack_random_init, seed=seed,
        n_eval_samples=cfg.n_eval_samples)


def run_attack(cfg: ExperimentConfig, checkpoint=None) -> dict:
    """Robustness curves on the first ``attack_prefix`` test samples; each
    (trial, epsilon) attack is one item of the worker pool."""
    if not cfg.eps_grid:
        raise ConfigError("empty eps_grid: no attack to run")
    test_data = load_split(cfg.data_dir, "test")
    prefix = take_prefix(test_data, min(cfg.attack_prefix, test_data.n))

    def robust_accuracy(item):
        (seed, model), epsilon = item
        return attacks.pgd_attack(model, prefix.images, prefix.labels,
                                  _attack_config(cfg, seed, epsilon)
                                  ).robust_accuracy

    pairs = _trial_checkpoints(cfg, prefix.images.shape[1], checkpoint)
    accuracies = iter(map_in_order(
        robust_accuracy,
        [(pair, epsilon) for pair in pairs for epsilon in cfg.eps_grid]))
    trials = [{"seed": seed, "curve": [
        {"epsilon": epsilon, "robust_accuracy": next(accuracies)}
        for epsilon in cfg.eps_grid]} for seed, _ in pairs]

    mean, std = mean_std(
        [[pt["robust_accuracy"] for pt in t["curve"]] for t in trials], axis=0)
    stem = f"attack_{cfg.run_id()}_s{cfg.n_attack_samples}"
    payload = _write_result(cfg, "attack_curve", stem + ".json",
                            n_attack_samples=cfg.n_attack_samples,
                            n_attacked=prefix.n, trials=trials,
                            mean_curve=mean, std_curve=std)
    write_text_atomic(os.path.join(cfg.out_dir, stem + ".csv"), _band_csv(
        "epsilon,mean_robust_accuracy,std3", cfg.eps_grid, [(mean, std)]))
    return payload


def run_detect(cfg: ExperimentConfig, checkpoint=None) -> dict:
    """Adversarial-example detection at the configured operating point.

    Clean side: the test set (full by default).  Adversarial side: PGD at
    ``attack_epsilon`` on the same samples.  Reports plain AUROC over all
    samples and the class-balanced correct-vs-successful variant.  Each
    trial is one item of the worker pool.
    """
    test_data = load_split(cfg.data_dir, "test")
    if not cfg.detect_full_test:
        test_data = take_prefix(test_data, min(cfg.attack_prefix, test_data.n))

    def detect(pair):
        seed, model = pair
        result = attacks.pgd_attack(
            model, test_data.images, test_data.labels,
            _attack_config(cfg, seed, cfg.attack_epsilon))
        clean_summary = predict_dataset(model, test_data.images,
                                        cfg.n_eval_samples,
                                        Rng(seed).derive(_EVAL_STREAM, 2))
        adv_summary = result.summary_after
        correct = clean_summary.correct_mask(test_data.labels)

        artifacts = attacks.write_attack_artifacts(
            result, clean_summary.predicted_class, cfg.out_dir,
            f"adv_{cfg.run_id()}_eps{cfg.attack_epsilon:g}_seed{seed}")

        trial = {"seed": seed, "epsilon": cfg.attack_epsilon,
                 "n_samples": test_data.n,
                 "clean_accuracy": clean_summary.accuracy(test_data.labels),
                 "robust_accuracy": result.robust_accuracy,
                 "n_correct_clean": int(correct.sum()),
                 "n_successful_attacks": int(result.success.sum()),
                 "artifacts": {k: os.path.basename(v)
                               for k, v in artifacts.items()}}
        for metric_name, clean_vals, adv_vals in (
                ("variance", clean_summary.max_variance, adv_summary.max_variance),
                ("entropy", clean_summary.entropy, adv_summary.entropy)):
            trial[f"auroc_{metric_name}"] = auroc_scores(adv_vals, clean_vals)
            try:
                balanced = auroc_balanced(adv_vals[result.success],
                                          clean_vals[correct], seed=seed)
            except ValueError:
                # No successful attacks (or no correct cleans): balanced
                # variant undefined for this trial; counts still recorded.
                trial[f"auroc_{metric_name}_balanced"] = None
                trial[f"balanced_n_per_class_{metric_name}"] = 0
            else:
                trial[f"auroc_{metric_name}_balanced"] = balanced.value
                trial[f"balanced_n_per_class_{metric_name}"] = balanced.n_per_class
        return trial

    trials = map_in_order(
        detect, _trial_checkpoints(cfg, test_data.images.shape[1], checkpoint))
    return _write_result(
        cfg, "detection", f"detect_{cfg.run_id()}_eps{cfg.attack_epsilon:g}.json",
        ("auroc_variance", "auroc_entropy", "auroc_variance_balanced",
         "auroc_entropy_balanced"), epsilon=cfg.attack_epsilon, trials=trials)


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def _field(payload, path: str):
    """The value at the dotted ``path`` in ``payload``; None if missing."""
    for key in path.split("."):
        payload = payload.get(key) if isinstance(payload, dict) else None
    return payload


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _are_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


def _is_histogram(v, groups=None) -> bool:
    """Whether ``v`` holds numeric ``bin_edges`` and ``counts``, or with
    ``groups`` a dict of numeric counts per group."""
    if not isinstance(v, dict) or not _are_numbers(v.get("bin_edges")):
        return False
    counts = v.get("counts")
    if groups is None:
        return _are_numbers(counts)
    return isinstance(counts, dict) and all(_are_numbers(counts.get(g))
                                            for g in groups)


def _bin_counts(histogram, path: str, groups=None) -> list:
    """(path, entries, entries expected, why) of each count list of a
    histogram that passed ``_is_histogram``: one count per bin."""
    bins = len(histogram["bin_edges"]) - 1
    counts = histogram["counts"]
    lists = ({f"{path}.counts.{g}": counts[g] for g in groups} if groups
             else {f"{path}.counts": counts})
    return [(at, len(c), bins, "one per bin") for at, c in lists.items()]


# The types of the fields the report reads, as (description, check,
# lengths): ``lengths(value, path, payload)`` lists the (path, entries,
# entries expected, why) of the lists at or under ``path``, read once every
# type has passed.  An optional field may also be missing or null.
TEXT = ("a string", lambda v: isinstance(v, str), None)
NUMBER = ("a number", _is_number, None)
NUMBERS = ("a list of numbers", _are_numbers, None)
GROUP_HISTOGRAM = ("a histogram of correct and wrong counts",
                   lambda v: _is_histogram(v, ("correct", "wrong")),
                   lambda v, path, payload: _bin_counts(v, path,
                                                        ("correct", "wrong")))
LAYER_HISTOGRAMS = ("a list of layer histograms", lambda v: isinstance(v, list)
                    and all(isinstance(layer, dict)
                            and _is_histogram(layer.get("histogram"))
                            for layer in v),
                    lambda v, path, payload: [
                        entry for l, layer in enumerate(v) for entry in
                        _bin_counts(layer["histogram"], f"{path}.{l}.histogram")])


def _one_per(kind, other: str):
    """``kind``, a list with one entry per entry of the list at ``other``."""
    description, check, _ = kind
    return description, check, lambda v, path, payload: [
        (path, len(v), len(_field(payload, other)), f"one per {other} entry")]


def _optional(kind):
    description, check, lengths = kind
    return (description + " or null", lambda v: v is None or check(v),
            lengths and (lambda v, path, payload:
                         [] if v is None else lengths(v, path, payload)))


# The fields the report reads, as dotted paths with their types; it indexes
# the payloads that pass these checks unchecked.
REPORT_READS = {
    "trial": {"run_id": TEXT, "model": TEXT, "dataset": TEXT,
              "config.kl_weight": NUMBER, "config.prior_variance": NUMBER,
              "clean_accuracy": NUMBER, "mean_max_variance": NUMBER,
              "mean_entropy": NUMBER,
              "histograms.max_variance": GROUP_HISTOGRAM,
              "histograms.entropy": GROUP_HISTOGRAM,
              "mean_max_variance_correct": _optional(NUMBER),
              "mean_max_variance_wrong": _optional(NUMBER),
              "mixing_variance": _optional(LAYER_HISTOGRAMS)},
    "ood": {"run_id": TEXT, "mean_auroc_variance": NUMBER,
            "mean_auroc_entropy": NUMBER},
    "attack_curve": {"run_id": TEXT, "config.eps_grid": NUMBERS,
                     "n_attack_samples": NUMBER,
                     "mean_curve": _one_per(NUMBERS, "config.eps_grid"),
                     "std_curve": _one_per(NUMBERS, "config.eps_grid")},
    "detection": {"run_id": TEXT, "epsilon": NUMBER,
                  "mean_auroc_variance": NUMBER, "mean_auroc_entropy": NUMBER,
                  "mean_auroc_entropy_balanced": _optional(NUMBER)},
}


def _load_results(results_dir, warnings: list):
    """The result payloads the report reads, grouped by kind.  A JSON file
    that is unreadable, of another schema version, or lacking a field of
    ``REPORT_READS`` for its kind or with a value of another type or a
    list of another length there is named in ``warnings`` and skipped."""
    groups = {kind: [] for kind in REPORT_READS}
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(results_dir, name)) as f:
                payload = json.load(f)
        except (OSError, ValueError) as exc:
            warnings.append(f"skipped unreadable result file {name}: {exc}")
            continue
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if not isinstance(kind, str) or kind not in groups:
            continue
        types = REPORT_READS[kind]
        values = {path: _field(payload, path) for path in types}
        if payload.get("schema_version") != SCHEMA_VERSION:
            warnings.append(f"skipped result file {name}: schema_version "
                            f"{payload.get('schema_version')!r} "
                            f"(expected {SCHEMA_VERSION})")
        elif missing := [path for path, (_, check, _) in types.items()
                         if values[path] is None and not check(None)]:
            warnings.append(f"skipped result file {name}: {kind} result "
                            f"lacks {', '.join(missing)}")
        elif wrong := [f"a {type(values[path]).__name__} at {path} "
                       f"(expected {description})"
                       for path, (description, check, _) in types.items()
                       if not check(values[path])]:
            warnings.append(f"skipped result file {name}: {kind} result "
                            f"has {', '.join(wrong)}")
        elif wrong := [f"{n} entries at {at} (expected {want}, {why})"
                       for path, (_, _, lengths) in types.items() if lengths
                       for at, n, want, why in lengths(values[path], path,
                                                       payload)
                       if n != want]:
            warnings.append(f"skipped result file {name}: {kind} result "
                            f"has {', '.join(wrong)}")
        else:
            groups[kind].append(payload)
    return groups


def _accuracy_table(trials, axes=()) -> str:
    """CSV of mean/std accuracy per (dataset, model, *config axis values)."""
    keys = ("dataset", "model", *axes)
    cells = {}
    for t in trials:
        key = (t["dataset"], t["model"], *(t["config"][a] for a in axes))
        cells.setdefault(key, []).append(t["clean_accuracy"])
    rows = []
    for key, accs in sorted(cells.items()):
        mean, std = mean_std(accs)
        # Axis values in full: at 4 decimals kl 1e-5 and 2e-5 share a label.
        labels = (*key[:2], *map(repr, key[2:]))
        rows.append({**dict(zip(keys, labels)), "n_trials": len(accs),
                     "mean_accuracy": mean, "std_accuracy": std})
    return _csv_from_rows(
        rows, [*keys, "n_trials", "mean_accuracy", "std_accuracy"])


def _csv_from_rows(rows, columns) -> str:
    """Floats with 4 decimals; a missing or null value is an empty cell."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(
            f"{v:.4f}" if isinstance(v := row.get(c), float)
            else "" if v is None else str(v) for c in columns))
    return "\n".join(lines) + "\n"


def _ordering_summary(groups) -> list:
    """Qualitative claims checked against whatever results are present."""
    lines = []
    trials = groups["trial"]
    # The protocol's KL sweep runs at prior_variance=1, its prior sweep at
    # kl_weight=1; ml and vi are compared where the two meet.
    unit_prior = [t for t in trials if t["config"]["prior_variance"] == 1.0]
    unit = [t for t in unit_prior if t["config"]["kl_weight"] == 1.0]
    unit_vars = [[t["mean_max_variance"] for t in unit if t["model"] == model]
                 for model in ("ml", "vi")]
    if all(unit_vars):
        ml_var, vi_var = (float(np.mean(v)) for v in unit_vars)
        lines.append(
            f"predictive variance (kl_weight=1): ml={ml_var:.5f} vi={vi_var:.5f} "
            f"ml_higher={ml_var > vi_var}")

    for model in ("ml", "vi"):
        by_kl = {}
        for t in unit_prior:
            if t["model"] == model:
                by_kl.setdefault(t["config"]["kl_weight"], []).append(
                    t["clean_accuracy"])
        if len(by_kl) >= 2:
            best = max(by_kl, key=lambda k: np.mean(by_kl[k]))
            lines.append(f"best kl_weight by accuracy for {model}: {best:g}")

    for model in ("ml", "vi"):
        wrongs = [t for t in unit if t["model"] == model
                  and t.get("mean_max_variance_wrong") is not None
                  and t.get("mean_max_variance_correct") is not None]
        if wrongs:
            gap = float(np.mean([t["mean_max_variance_wrong"]
                                 - t["mean_max_variance_correct"]
                                 for t in wrongs]))
            lines.append(f"variance gap wrong-correct for {model}: {gap:.5f} "
                         f"(positive means wrong is higher)")

    for ood in groups["ood"]:
        lines.append(
            f"ood {ood['run_id']}: auroc_entropy={ood['mean_auroc_entropy']:.4f} "
            f"auroc_variance={ood['mean_auroc_variance']:.4f}")
    for det in groups["detection"]:
        balanced = det.get("mean_auroc_entropy_balanced")
        lines.append(
            f"detection {det['run_id']} eps={det['epsilon']}: "
            f"entropy={det['mean_auroc_entropy']:.4f} "
            f"variance={det['mean_auroc_variance']:.4f} "
            f"balanced_entropy="
            + (f"{balanced:.4f}" if balanced is not None else "undefined"))
    return lines


def run_report(results_dir, report_dir=None) -> dict:
    """Consolidate result JSONs into table CSVs, figure data, and a summary.

    Missing inputs are listed in the summary; a partial report is still
    emitted and the call succeeds.  A missing ``results_dir`` raises.
    """
    if not os.path.isdir(results_dir):
        raise ConfigError(f"no results directory {results_dir}")
    report_dir = report_dir or os.path.join(results_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    warnings = []
    groups = _load_results(results_dir, warnings)
    written = []

    def write(fname, text):
        write_text_atomic(os.path.join(report_dir, fname), text)
        written.append(fname)

    stochastic_trials = [t for t in groups["trial"] if t["model"] in ("ml", "vi")]
    baseline_trials = [t for t in groups["trial"] if t["model"] not in ("ml", "vi")]

    if stochastic_trials:
        # Each table holds the other axis at 1, as the protocol's sweeps do.
        for axis, held, fname in (
                ("prior_variance", "kl_weight", "table_accuracy_by_prior.csv"),
                ("kl_weight", "prior_variance", "table_accuracy_by_kl_weight.csv")):
            write(fname, _accuracy_table(
                [t for t in stochastic_trials if t["config"][held] == 1.0],
                (axis,)))
    else:
        warnings.append("no stochastic-model trials found")
    if baseline_trials:
        write("table_baseline_accuracy.csv", _accuracy_table(baseline_trials))

    for kind, fname, columns in (
            ("ood", "table_ood_auroc.csv",
             ["dataset", "model", "run_id", "mean_auroc_variance",
              "std_auroc_variance", "mean_auroc_entropy", "std_auroc_entropy"]),
            ("detection", "table_adv_detection_auroc.csv",
             ["dataset", "model", "epsilon", "mean_auroc_variance",
              "mean_auroc_entropy", "mean_auroc_variance_balanced",
              "mean_auroc_entropy_balanced"])):
        if groups[kind]:
            write(fname, _csv_from_rows(groups[kind], columns))
        else:
            warnings.append(f"no {kind} results found")

    for curve in groups["attack_curve"]:
        write(f"fig_robustness_{curve['run_id']}_s{curve['n_attack_samples']}.csv",
              _band_csv("x,y,err  # epsilon, mean robust accuracy, 3*std",
                        curve["config"]["eps_grid"],
                        [(curve["mean_curve"], curve["std_curve"])]))
    if not groups["attack_curve"]:
        warnings.append("no attack curves found")

    def histogram_figure(fname, run_id, path, header, hists, series):
        """Write ``fname``: per bin of ``hists``, the mean and 3·std over
        trials of each series of count lists.  Counts over other bins have
        no mean, so where the trials' bins differ, a warning instead."""
        edges = hists[0]["bin_edges"]
        if any(h["bin_edges"] != edges for h in hists):
            warnings.append(f"no figure for run {run_id} at {path}: its "
                            f"trials' histograms have different bins")
            return
        write(fname, _band_csv(header, edges[:-1],
                               [mean_std(counts, axis=0) for counts in series],
                               x_fmt=".6g", digits=3))

    # Figure data: per-run mean histograms over trials (uncertainty and
    # mixing-distribution variance).
    by_run = {}
    for t in groups["trial"]:
        by_run.setdefault(t["run_id"], []).append(t)
    for run_id, ts in sorted(by_run.items()):
        for metric in ("max_variance", "entropy"):
            hists = [t["histograms"][metric] for t in ts]
            histogram_figure(
                f"fig_{metric}_hist_{run_id}.csv", run_id, f"histograms.{metric}",
                f"x,y_correct,err_correct,y_wrong,err_wrong  # bin left edge,"
                f" mean count, 3*std over {len(ts)} trials", hists,
                [[h["counts"][g] for h in hists] for g in ("correct", "wrong")])
        mixes = [t["mixing_variance"] for t in ts if t.get("mixing_variance")]
        for layer in range(min(map(len, mixes), default=0)):
            hists = [mix[layer]["histogram"] for mix in mixes]
            histogram_figure(
                f"fig_mixing_variance_layer{layer}_{run_id}.csv", run_id,
                f"mixing_variance.{layer}.histogram",
                "x,y,err  # bin left edge, mean count, 3*std", hists,
                [[h["counts"] for h in hists]])

    # Per-run aggregate metrics in the metric,mean,std,n_trials format, for
    # runs with at least two trials.
    for run_id, ts in sorted(by_run.items()):
        if len(ts) < 2:
            continue
        lines = ["metric,mean,std,n_trials"]
        for field_name in ("clean_accuracy", "mean_max_variance", "mean_entropy"):
            mean, std = mean_std([t[field_name] for t in ts])
            lines.append(f"{field_name},{mean:.6g},{std:.6g},{len(ts)}")
        write(f"aggregate_{run_id}.csv", "\n".join(lines) + "\n")

    summary_lines = ["result files consolidated from: " + str(results_dir), ""]
    if warnings:
        summary_lines += [f"warning: {w}" for w in warnings] + [""]
    summary_lines += _ordering_summary(groups)
    write("summary.txt", "\n".join(summary_lines) + "\n")
    return {"report_dir": report_dir, "written": written, "warnings": warnings}
