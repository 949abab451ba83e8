#!/usr/bin/env python3
"""Protocol-shape benchmark for infmix on synthetic IDX data.

Usage (from the repository root):

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Each run makes its inputs from ``--seed`` with the repository's synthetic IDX
generator, reads them back through ``infmix.data``, and then drives one
workload as a closed loop from this single process for ``--seconds``:

- ``train``: ``objectives.train``, ml objective, 784-128-128-10, B=200, S=5,
  kl_weight 1, prior variance 1.  About 80% of protocol CPU time; the only
  workload that runs ``sample_backward``, the KL and ADAM on the stochastic
  net.  An operation is one iteration, timed by the ``progress`` callback.
- ``baseline``: ``baselines.train_dropout`` (p=0.5, default weight decay),
  same topology and batch.  It runs at S=1 and never touches ``posterior``,
  so changes to weight sampling or S-draw batching should leave it alone.
- ``evaluate``: ``harness.run_ood`` with 100 draws over the 2000-image test
  and OOD splits, on a checkpoint trained during set-up.  Forward-only with
  a large batch: the forward GEMMs dominate.  An operation is one call.
- ``attack``: ``attacks.pgd_attack``, eps 0.25, 40 steps, automatic step,
  random init, 5 gradient draws and 100 evaluation draws, on a 1000-image
  test prefix.  Only the input gradient of ``network.backward`` is read.
  An operation is one PGD step, timed by ``step_callback``.

Set-up (data generation and loading, plus the checkpoint training, saving
and loading where a workload needs a model) is repeated and ``setup_s`` is
the median round: ``setup_rounds`` times where set-up trains a checkpoint,
``data_setup_rounds`` times where it only makes data (a round of 0.2 s is
too short for a median of a few to hold still).  BLAS runs on one thread,
pinned through this process's environment before numpy is imported.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
named the same for every workload: ``ops_per_s`` (iterations, image-draws
or PGD steps per second of the measured loop's wall time, less the time of
the benchmark's own callbacks and checks), ``op_ms_p50`` and
``op_ms_p90`` (per iteration, ``run_ood`` call or PGD step), ``setup_s`` and
``peak_rss_mb``.  The line before it is the full result: the environment
block, the correctness checks, and the same figures under workload-specific
names (for example ``train_iters_per_s``, ``eval_image_draws_per_s``,
``attack_eval_s`` and ``ops_failed_ratio``).

With ``--trace 1`` the loop runs untraced for half the time and traced for
the other half, and the last line carries the per-layer metrics: per
operation for the measured loop, per set-up round for ``setup.*`` and
``checkpoint.save_model.ms``, and whole-run counts for ``*.failed``.
``trace.overhead_ms`` is the traced minus the untraced median operation
time; ``trace.unattributed_ms`` is the part of an operation that no traced
span covers.  The benchmark's own checks inside a traced call run in a
``bench.check`` span, so they count in no layer's self time.  The spans are
written to ``.bench_build/perfbench``; the full result also holds the traced
normals and forward FLOPs next to their shape formulas (``shape_counts``).
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import importlib.util
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

from infmix import (attacks, baselines, checkpoint, data, harness, metrics,
                    network, objectives, posterior, tensor)
from infmix.network import MAX_ENTROPY, StochasticMlp
from infmix.posterior import PriorSpec
from infmix.tensor import Rng

from spans import Layer, Tracer

WORKLOADS = ("train", "baseline", "evaluate", "attack")
EPSILON = 0.25
DROPOUT_P = 0.5
# Stream tag for the S=1 ml == vi gradient check's weight draws.
_CHECK_STREAM = 9


@dataclass(frozen=True)
class Shape:
    topology: tuple = (784, 128, 128, 10)
    batch_size: int = 200
    n_train_samples: int = 5
    n_train: int = 6000
    n_test: int = 2000
    n_ood: int = 2000
    n_eval_samples: int = 100
    attack_prefix: int = 1000
    attack_steps: int = 40
    attack_grad_samples: int = 5
    checkpoint_iterations: int = 40
    setup_rounds: int = 3
    data_setup_rounds: int = 30
    warmup_ops: int = 3
    rerun_ops: int = 3


PROTOCOL = Shape()


def weights_per_draw(topology) -> int:
    """Weights (bias rows included) in one draw: 118,282 at 784-128-128-10."""
    return sum((n_in + 1) * n_out for n_in, n_out in zip(topology[:-1], topology[1:]))


def _forward_flops(result, weights, x, hidden_masks=None):
    return 2 * x.shape[0] * sum(w.size for w in weights)


def _backward_flops(result, trace, grad_log_probs):
    """GEMM flops ``backward`` spent, from the gradients it returned, as
    (weight gradients, input gradients of layers above 0, layer-0 input
    gradient).  Each GEMM is as large as its layer's forward GEMM.  An input
    gradient above layer 0 is computed when anything below it is returned."""
    grad_weights, grad_input = result
    batch = trace.inputs.shape[0]
    weight = upper = 0
    needed_below = grad_input is not None
    for l, w in enumerate(trace.weights):
        layer = 2 * batch * w.size
        if l > 0 and needed_below:
            upper += layer
        if grad_weights[l] is not None:
            weight += layer
            needed_below = True
    first = 2 * batch * trace.weights[0].size if grad_input is not None else 0
    return weight, upper, first


# Callers of ``network.backward`` that read only its input gradient; every
# other caller reads only the weight gradients.
READS_INPUT_GRAD = ("model.loss_input_grad",)

# ``tensor.rng`` is the Philox normals only: uniform draws (dropout masks,
# the PGD start) count in their caller's self time.
LAYERS = (
    Layer("tensor.rng", tensor.Rng, "standard_normal",
          lambda result, rng, *shape: result.size),
    Layer("tensor.adam_step", tensor, "adam_step"),
    Layer("data.next_batch", data.BatchIterator, "next_batch"),
    Layer("data.load_split", data, "load_split"),
    Layer("posterior.sample", posterior, "sample"),
    Layer("posterior.sample_backward", posterior, "sample_backward"),
    Layer("posterior.kl", posterior, "kl_to_prior"),
    Layer("posterior.kl", posterior, "kl_backward"),
    Layer("network.forward", network, "forward", _forward_flops),
    Layer("network.backward", network, "backward", _backward_flops),
    Layer("network.summarize", network, "summarize_prob_stream"),
    Layer("objectives.objective_gradients", objectives, "objective_gradients"),
    Layer("baselines.train_dropout", baselines, "train_dropout"),
    Layer("model.loss_input_grad", StochasticMlp, "loss_input_grad"),
    Layer("model.predict", StochasticMlp, "predict"),
    Layer("attacks.pgd_attack", attacks, "pgd_attack"),
    Layer("metrics.auroc_scores", metrics, "auroc_scores"),
    Layer("harness.predict_dataset", harness, "predict_dataset"),
    Layer("harness.run_ood", harness, "run_ood"),
    Layer("checkpoint.load_model", checkpoint, "load_model"),
    Layer("checkpoint.save_model", checkpoint, "save_model"),
)

# (metric, span, quantity, parent): per operation of the traced loop.
# ``parent`` restricts the sum to spans called directly from that span.
LOOP_METRICS = (
    ("tensor.rng.normals", "tensor.rng", "work", None),
    ("tensor.rng.self_ms", "tensor.rng", "self_ms", None),
    ("tensor.adam_step.self_ms", "tensor.adam_step", "self_ms", None),
    ("data.next_batch.self_ms", "data.next_batch", "self_ms", None),
    ("data.load_split.ms", "data.load_split", "ms", None),
    ("posterior.sample.self_ms", "posterior.sample", "self_ms", None),
    ("posterior.sample.calls", "posterior.sample", "calls", None),
    ("posterior.sample_backward.self_ms", "posterior.sample_backward", "self_ms", None),
    ("posterior.kl.self_ms", "posterior.kl", "self_ms", None),
    ("network.forward.self_ms", "network.forward", "self_ms", None),
    ("network.forward.calls", "network.forward", "calls", None),
    ("network.forward.gemm_mflop", "network.forward", "mflop", None),
    ("network.backward.self_ms", "network.backward", "self_ms", None),
    ("network.backward.gemm_mflop", "network.backward", "mflop", None),
    ("network.summarize.self_ms", "network.summarize", "self_ms", None),
    ("objectives.objective_gradients.self_ms", "objectives.objective_gradients",
     "self_ms", None),
    ("baselines.train_dropout.self_ms", "baselines.train_dropout", "self_ms", None),
    ("attacks.loss_input_grad.ms", "model.loss_input_grad", "ms",
     "attacks.pgd_attack"),
    ("attacks.pgd_attack.self_ms", "attacks.pgd_attack", "self_ms", None),
    ("attacks.predict.ms", "model.predict", "ms", "attacks.pgd_attack"),
    ("metrics.auroc_scores.ms", "metrics.auroc_scores", "ms", None),
    ("harness.predict_dataset.self_ms", "harness.predict_dataset", "self_ms", None),
    ("harness.run_ood.self_ms", "harness.run_ood", "self_ms", None),
    ("checkpoint.load_model.ms", "checkpoint.load_model", "ms", None),
)
# (metric, span): inclusive ms per set-up round.
SETUP_METRICS = (
    ("setup.data.load_split.ms", "data.load_split"),
    ("checkpoint.save_model.ms", "checkpoint.save_model"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))
_UNITS = {"work": "count", "calls": "count", "mflop": "MFLOP",
          "ms": "ms", "self_ms": "ms"}


class StopLoop(BaseException):
    """Ends a timed training loop from its progress callback.  It derives
    from BaseException so that no ``except Exception`` counts it a failure."""


class Checks:
    """Correctness checks; every failed check counts as a failed operation."""

    def __init__(self):
        self.passed = {}
        self.failed = {}

    def record(self, name: str, ok: bool) -> None:
        book = self.passed if ok else self.failed
        book[name] = book.get(name, 0) + 1

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    def as_dict(self) -> dict:
        return {name: {"passed": self.passed.get(name, 0),
                       "failed": self.failed.get(name, 0)}
                for name in sorted(set(self.passed) | set(self.failed))}


@dataclass
class Loop:
    op_s: list                  # per-operation seconds, warm-up excluded
    ops: int                    # operations the per-layer metrics divide by
    attempted: int              # iterations, run_ood calls or pgd_attack calls
    wall_s: float
    outputs: list               # losses, run_ood payloads or AttackResults
    eval_s: list = field(default_factory=list)   # attack: last step to return


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def write_synthetic(data_dir: Path, seed: int, shape: Shape) -> None:
    """The three IDX splits of ``scripts/make_synthetic_data.py`` from ``seed``."""
    spec = importlib.util.spec_from_file_location(
        "make_synthetic_data", ROOT / "scripts" / "make_synthetic_data.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    splits = (("train", shape.n_train, seed, 0),
              ("t10k", shape.n_test, seed + 1, 0),
              ("notmnist", shape.n_ood, seed + 2, 2))
    for stem, n, split_seed, style in splits:
        images, labels = generator.synthetic_arrays(n, split_seed, style=style)
        data.write_idx(data_dir / f"{stem}-images-idx3-ubyte", images)
        data.write_idx(data_dir / f"{stem}-labels-idx1-ubyte", labels)


def train_config(seed: int, shape: Shape, iterations: int, objective="ml",
                 n_train_samples=None) -> objectives.TrainConfig:
    return objectives.TrainConfig(
        objective=objective, kl_weight=1.0, prior=PriorSpec(1.0),
        n_train_samples=n_train_samples or shape.n_train_samples,
        batch_size=shape.batch_size, iterations=iterations, seed=seed)


def setup(workload: str, seed: int, shape: Shape, work_dir: Path):
    write_synthetic(work_dir, seed, shape)
    state = SimpleNamespace(data_dir=work_dir,
                            train=data.load_split(work_dir, "train"))
    if workload in ("train", "evaluate", "attack"):
        state.net = StochasticMlp.create(Rng(seed).derive(0), shape.topology)
    if workload in ("evaluate", "attack"):
        net = state.net.copy()
        objectives.train(net, state.train,
                         train_config(seed, shape, shape.checkpoint_iterations),
                         record_every=0)
        state.checkpoint = work_dir / "model.ckpt"
        checkpoint.save_model(net, state.checkpoint)
    if workload == "attack":
        state.model = checkpoint.load_model(state.checkpoint)
        test = data.load_split(work_dir, "test")
        state.prefix = data.take_prefix(test, min(shape.attack_prefix, test.n))
    return state


# ----------------------------------------------------------------------
# Timed loops, and the checks that run after them
# ----------------------------------------------------------------------

def _identity(fn):
    return fn


def _training_loop(call, seconds: float, warmup: int) -> Loop:
    """Runs ``call(progress)`` until ``seconds`` have passed.  An iteration
    is timed from the end of the previous callback's bookkeeping."""
    op_s, losses = [], []
    start = time.perf_counter()
    deadline = start + seconds
    last = start

    def progress(iteration, loss):
        nonlocal last
        now = time.perf_counter()
        op_s.append(now - last)
        losses.append(loss)
        if now >= deadline:
            raise StopLoop
        last = time.perf_counter()

    try:
        call(progress)
    except StopLoop:
        pass
    return Loop(op_s=op_s[warmup:], ops=len(losses), attempted=len(losses),
                wall_s=time.perf_counter() - start, outputs=losses)


def _train_call(state, seed, shape, iterations):
    cfg = train_config(seed, shape, iterations)
    return lambda progress: objectives.train(
        state.net.copy(), state.train, cfg, record_every=0, progress=progress)


def _baseline_call(state, seed, shape, iterations):
    cfg = baselines.FitConfig(batch_size=shape.batch_size, iterations=iterations,
                              seed=seed)
    return lambda progress: baselines.train_dropout(
        state.train, DROPOUT_P, cfg=cfg, topology=shape.topology,
        progress=progress)


def _check_losses(checks: Checks, loop: Loop, call, k: int) -> None:
    """Finite, falling, and the same again from the same seed."""
    losses = loop.outputs
    checks.record("losses_finite", bool(np.all(np.isfinite(losses))))
    quarter = max(1, len(losses) // 4)
    checks.record("loss_falls",
                  float(np.mean(losses[-quarter:])) < float(np.mean(losses[:quarter])))
    k = min(len(losses), k)
    again = []
    call(k)(lambda iteration, loss: again.append(loss))
    checks.record("same_seed_same_losses", again == losses[:k])


def _check_ml_equals_vi_at_s1(state, seed, shape, checks) -> None:
    images = state.train.images[:shape.batch_size]
    labels = state.train.labels[:shape.batch_size]
    results = [objectives.objective_gradients(
        state.net, images, labels,
        train_config(seed, shape, 1, objective=kind, n_train_samples=1),
        n_total=state.train.n, rng=Rng(seed).derive(_CHECK_STREAM))
        for kind in ("ml", "vi")]
    (nll_ml, kl_ml, grads_ml), (nll_vi, kl_vi, grads_vi) = results
    same = nll_ml == nll_vi and kl_ml == kl_vi and all(
        np.array_equal(a, b)
        for layer_ml, layer_vi in zip(grads_ml, grads_vi)
        for a, b in zip(layer_ml, layer_vi))
    checks.record("s1_ml_equals_vi", same)


def train_loop(state, seed, shape, seconds, checks, wrap_check=_identity):
    return _training_loop(_train_call(state, seed, shape, 10 ** 9), seconds,
                          shape.warmup_ops)


def train_verify(state, seed, shape, loop, checks):
    _check_losses(checks, loop, lambda k: _train_call(state, seed, shape, k),
                  shape.rerun_ops)
    _check_ml_equals_vi_at_s1(state, seed, shape, checks)


def baseline_loop(state, seed, shape, seconds, checks, wrap_check=_identity):
    return _training_loop(_baseline_call(state, seed, shape, 10 ** 9), seconds,
                          shape.warmup_ops)


def baseline_verify(state, seed, shape, loop, checks):
    _check_losses(checks, loop, lambda k: _baseline_call(state, seed, shape, k),
                  shape.rerun_ops)


def _check_summary(checks: Checks, summary) -> None:
    checks.record("mean_probs_rows_sum_to_1", bool(np.allclose(
        summary.mean_probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)))
    # A probability's variance across draws is at most 1/4.
    variance = summary.class_variance
    checks.record("variance_in_range",
                  bool(np.all((variance >= 0.0) & (variance <= 0.25))))
    entropy = summary.entropy
    checks.record("entropy_in_range", bool(np.all(
        (entropy >= -1e-12) & (entropy <= MAX_ENTROPY + 1e-12))))


def _room_for_another(start: float, seconds: float, call_s: list) -> bool:
    """Whether another call of the mean length so far ends within ``seconds``:
    calls of several seconds would otherwise overrun the run by up to one."""
    return time.perf_counter() - start + statistics.mean(call_s) <= seconds


def evaluate_loop(state, seed, shape, seconds, checks, wrap_check=_identity):
    cfg = harness.ExperimentConfig(
        model="ml", dataset="synthetic", n_eval_samples=shape.n_eval_samples,
        n_trials=1, base_seed=seed, data_dir=str(state.data_dir),
        out_dir=str(state.data_dir / "results"))
    predict_dataset = harness.predict_dataset
    summaries = []

    def kept(*args, **kwargs):
        summaries.append(predict_dataset(*args, **kwargs))
        return summaries[-1]

    op_s, payloads = [], []
    start = time.perf_counter()
    with mock.patch.object(harness, "predict_dataset", kept):
        while not payloads or _room_for_another(start, seconds, op_s):
            t0 = time.perf_counter()
            payloads.append(harness.run_ood(cfg, checkpoint=str(state.checkpoint)))
            op_s.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - start
    for summary in summaries:
        _check_summary(checks, summary)
    return Loop(op_s=op_s, ops=len(payloads), attempted=len(payloads),
                wall_s=wall_s, outputs=payloads)


def evaluate_verify(state, seed, shape, loop, checks):
    for payload in loop.outputs:
        trial = payload["trials"][0]
        checks.record("ood_auroc_above_half",
                      min(trial["auroc_variance"], trial["auroc_entropy"]) > 0.5)
        checks.record("same_seed_same_auroc",
                      payload["trials"] == loop.outputs[0]["trials"])


def attack_loop(state, seed, shape, seconds, checks, wrap_check=_identity):
    cfg = attacks.AttackConfig(
        epsilon=EPSILON, n_iter=shape.attack_steps,
        n_grad_samples=shape.attack_grad_samples, random_init=True, seed=seed,
        n_eval_samples=shape.n_eval_samples)
    x_clean, labels = state.prefix.images, state.prefix.labels
    op_s, eval_s, results = [], [], []
    last = None

    @wrap_check
    def check_iterate(x):
        inside = (np.all(np.abs(x - x_clean) <= EPSILON + 1e-12)
                  and np.all((x >= 0.0) & (x <= 1.0)))
        checks.record("pgd_iterate_in_ball_and_box", bool(inside))

    def on_step(iteration, x):
        nonlocal last
        now = time.perf_counter()
        if iteration > 0:   # step 0 also pays the random initialisation
            op_s.append(now - last)
        check_iterate(x)
        last = time.perf_counter()

    start = time.perf_counter()
    call_s = []
    while not results or _room_for_another(start, seconds, call_s):
        t0 = time.perf_counter()
        results.append(attacks.pgd_attack(state.model, x_clean, labels, cfg,
                                          step_callback=on_step))
        eval_s.append(time.perf_counter() - last)
        call_s.append(time.perf_counter() - t0)
    return Loop(op_s=op_s, ops=len(results) * cfg.n_iter, attempted=len(results),
                wall_s=time.perf_counter() - start, outputs=results, eval_s=eval_s)


def attack_verify(state, seed, shape, loop, checks):
    for result in loop.outputs[1:]:
        checks.record("same_seed_same_attack",
                      np.array_equal(result.adversarial, loop.outputs[0].adversarial))


# workload -> (timed loop, checks on its outputs run after it)
LOOPS = {"train": (train_loop, train_verify),
         "baseline": (baseline_loop, baseline_verify),
         "evaluate": (evaluate_loop, evaluate_verify),
         "attack": (attack_loop, attack_verify)}


def expected_counts(workload: str, shape: Shape, loop: Loop):
    """(normals, forward GEMM flops) the traced loop must have counted,
    from the shapes alone."""
    w = weights_per_draw(shape.topology)
    if workload == "train":
        s, b = shape.n_train_samples, shape.batch_size
        return loop.ops * s * w, loop.ops * s * 2 * b * w
    if workload == "baseline":
        return 0, loop.ops * 2 * shape.batch_size * w
    e = shape.n_eval_samples
    if workload == "evaluate":
        chunks = sum(math.ceil(n / harness._EVAL_CHUNK)
                     for n in (shape.n_test, shape.n_ood))
        images = shape.n_test + shape.n_ood
        return loop.attempted * e * chunks * w, loop.attempted * e * 2 * images * w
    draws = shape.attack_steps * shape.attack_grad_samples + 2 * e
    return (loop.attempted * draws * w,
            loop.attempted * draws * 2 * min(shape.attack_prefix, shape.n_test) * w)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

# The workload's own names for ops_per_s, op_ms_p50 and op_ms_p90.
NAMED = {
    "train": ("train_iters_per_s", "train_step_ms_p50", "train_step_ms_p90"),
    "baseline": ("train_iters_per_s", "train_step_ms_p50", "train_step_ms_p90"),
    "evaluate": ("eval_image_draws_per_s", None, None),
    "attack": ("attack_steps_per_s", "attack_step_ms_p50", "attack_step_ms_p90"),
}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(workload: str, shape: Shape, loop: Loop, setup_s: list,
               checks: Checks):
    """Returns (generic metrics for the last line, workload-named metrics)."""
    op_ms = np.asarray(loop.op_s) * 1e3
    p50, p90 = np.percentile(op_ms, 50), np.percentile(op_ms, 90)
    # Operations over the loop's wall time.  An operation is timed from the
    # end of the benchmark's callback after the one before, so only the
    # benchmark's own callbacks and checks are left out.
    rate = len(loop.op_s) / math.fsum(loop.op_s)
    if workload == "evaluate":
        rate *= (shape.n_test + shape.n_ood) * shape.n_eval_samples
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    generic = {"ops_per_s": _metric(rate, "1/s"),
               "op_ms_p50": _metric(p50, "ms"),
               "op_ms_p90": _metric(p90, "ms"),
               "setup_s": _metric(statistics.median(setup_s), "s"),
               "peak_rss_mb": _metric(peak_rss_mb, "MB")}
    named = {alias: generic[name] for name, alias
             in zip(("ops_per_s", "op_ms_p50", "op_ms_p90"), NAMED[workload])
             if alias}
    if workload == "attack":
        named["attack_eval_s"] = _metric(statistics.median(loop.eval_s), "s")
    named.update(setup_s=generic["setup_s"], peak_rss_mb=generic["peak_rss_mb"],
                 ops_attempted=_metric(loop.attempted, "count"),
                 ops_failed_ratio=_metric(checks.n_failed / loop.attempted, "ratio"))
    return generic, named


def per_layer(loop: Loop, untraced: Loop, tracer: Tracer, setup_spans: int,
              setup_rounds: int):
    """Per-layer metrics from the traced loop's spans (``tracer.spans`` after
    index ``setup_spans``) and the set-up spans before it."""
    loop_summary = tracer.summarize(first=setup_spans)
    layers = loop_summary["layers"]
    out = {}
    for name, span, quantity, parent in LOOP_METRICS:
        entry = layers[span]
        if parent is not None:
            value = entry["ns_by_parent"].get(parent, 0) / 1e6
        elif quantity in ("ms", "self_ms"):
            value = entry["ns" if quantity == "ms" else "self_ns"] / 1e6
        elif quantity == "mflop":
            value = entry["work"] / 1e6
        else:
            value = entry[quantity]
        out[name] = _metric(value / loop.ops, _UNITS[quantity])

    # The share of the flops backward spent on gradients its caller never
    # reads: weight gradients under PGD, the layer-0 input gradient under
    # training.
    backward = layers["network.backward"]
    unused = sum(weight if parent in READS_INPUT_GRAD else first
                 for parent, (weight, upper, first)
                 in backward["work_by_parent"].items())
    out["network.backward.unused_flop_share"] = _metric(
        unused / backward["work"] if backward["work"] else 0.0, "ratio")

    setup_layers = tracer.summarize(last=setup_spans)["layers"]
    for name, span in SETUP_METRICS:
        out[name] = _metric(setup_layers[span]["ns"] / 1e6 / setup_rounds, "ms")

    out["trace.overhead_ms"] = _metric(
        (statistics.median(loop.op_s) - statistics.median(untraced.op_s)) * 1e3, "ms")
    out["trace.unattributed_ms"] = _metric(
        (loop.wall_s * 1e9 - loop_summary["root_ns"]) / 1e6 / loop.ops, "ms")
    for span in LAYER_NAMES:
        failed = layers[span]["failed"] + setup_layers[span]["failed"]
        out[f"{span}.failed"] = _metric(failed, "count")
    return out


def shape_counts(workload: str, shape: Shape, loop: Loop, tracer: Tracer,
                 setup_spans: int) -> dict:
    """The traced loop's normals and forward flops next to the counts the
    shapes give at this code's algorithm: reported, not checked, since a
    faster algorithm may legitimately draw or multiply differently."""
    layers = tracer.summarize(first=setup_spans)["layers"]
    normals, flops = expected_counts(workload, shape, loop)
    return {"normals": {"traced": layers["tensor.rng"]["work"], "formula": normals},
            "forward_flops": {"traced": layers["network.forward"]["work"],
                              "formula": flops}}


# ----------------------------------------------------------------------
# Environment and entry point
# ----------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": BLAS_THREADS},
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "commit": _git_commit(), "seed": seed}


def _release_freed_memory() -> None:
    """Hands freed heap pages back to the OS (glibc), so that each set-up
    round starts as the first did and peak RSS counts no leftovers of the
    round before."""
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 shape: Shape = PROTOCOL, out_dir: Path | None = None):
    """Runs one workload; returns (full result, last-line result)."""
    out_dir = Path(out_dir or ROOT / ".bench_build" / "perfbench")
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    checks = Checks()
    tracer = Tracer(LAYERS)
    loop_fn, verify = LOOPS[workload]
    rounds = (shape.data_setup_rounds if workload in ("train", "baseline")
              else shape.setup_rounds)
    try:
        setup_s, state = [], None
        with tracer if traced else nullcontext():
            for _ in range(rounds):
                # Free the last round's data first, or peak RSS would count
                # two rounds at once, by an amount that varies run to run.
                state = None
                _release_freed_memory()
                t0 = time.perf_counter()
                state = setup(workload, seed, shape, work_dir)
                setup_s.append(time.perf_counter() - t0)
        setup_spans = len(tracer.spans)
        if traced:
            untraced = loop_fn(state, seed, shape, seconds / 2, checks)
            with tracer:
                loop = loop_fn(state, seed, shape, seconds / 2, checks,
                               wrap_check=lambda fn: tracer.wrap("bench.check", fn))
            verify(state, seed, shape, untraced, checks)
        else:
            loop = loop_fn(state, seed, shape, seconds, checks)
        verify(state, seed, shape, loop, checks)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if traced:
        metrics_out = per_layer(loop, untraced, tracer, setup_spans, rounds)
        named = {}
    else:
        metrics_out, named = end_to_end(workload, shape, loop, setup_s, checks)

    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    if traced:
        tracer.write(out_dir / f"{stem}.spans.json")
    attempted = loop.attempted + (untraced.attempted if traced else 0)
    last_line = {"correct": checks.n_failed == 0, "attempted": attempted,
                 "failed": checks.n_failed, "metrics": metrics_out}
    result = {"workload": workload, "seed": seed, "trace": int(traced),
              "seconds": seconds, "env": environment(seed),
              "checks": checks.as_dict(), "samples": len(loop.op_s),
              "metrics": named or metrics_out}
    if traced:
        result["shape_counts"] = shape_counts(workload, shape, loop, tracer,
                                              setup_spans)
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump({"result": result, "last_line": last_line}, f, indent=1)
    return result, last_line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    result, last_line = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    print(json.dumps(result))
    print(json.dumps(last_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
