"""Smoke test of the benchmark's own code at tiny shapes: every workload
through the timed and the traced path, every metric BENCHMARK.json names
emitted with its unit, every correctness check passing, and the traced
counts equal to the shape formulas at this code's algorithm.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = run.Shape(topology=(784, 16, 12, 10), batch_size=20, n_train_samples=2,
                 n_train=200, n_test=60, n_ood=60, n_eval_samples=4,
                 attack_prefix=30, attack_steps=3, attack_grad_samples=2,
                 checkpoint_iterations=200, setup_rounds=2, data_setup_rounds=2,
                 warmup_ops=1, rerun_ops=2)

_TRAIN_NAMED = {"train_iters_per_s": "1/s", "train_step_ms_p50": "ms",
                "train_step_ms_p90": "ms"}
_COMMON_NAMED = {"setup_s": "s", "peak_rss_mb": "MB", "ops_attempted": "count",
                 "ops_failed_ratio": "ratio"}
NAMED = {
    "train": {**_TRAIN_NAMED, **_COMMON_NAMED},
    "baseline": {**_TRAIN_NAMED, **_COMMON_NAMED},
    "evaluate": {"eval_image_draws_per_s": "1/s", **_COMMON_NAMED},
    "attack": {"attack_steps_per_s": "1/s", "attack_step_ms_p50": "ms",
               "attack_step_ms_p90": "ms", "attack_eval_s": "s", **_COMMON_NAMED},
}


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("traced", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric(workload, traced, tmp_path):
    result, last = run.run_workload(workload, seed=3, seconds=0.3, traced=traced,
                                    shape=TINY, out_dir=tmp_path)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], result["checks"]
    assert last["failed"] == 0 and last["attempted"] >= 1
    spec = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert _units(last["metrics"]) == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(m["value"]) for m in last["metrics"].values())
    if traced:
        assert (tmp_path / f"{workload}-seed3-trace1.spans.json").exists()
        for count in result["shape_counts"].values():
            assert count["traced"] == count["formula"]
        sizes = [(n_in + 1) * n_out
                 for n_in, n_out in zip(TINY.topology[:-1], TINY.topology[1:])]
        unused = {"train": sizes[0] / (2 * sum(sizes)),
                  "baseline": sizes[0] / (2 * sum(sizes)),
                  "evaluate": 0.0, "attack": 0.5}[workload]
        assert last["metrics"]["network.backward.unused_flop_share"]["value"] == (
            pytest.approx(unused))
    else:
        assert _units(result["metrics"]) == NAMED[workload]
        assert result["metrics"]["ops_failed_ratio"]["value"] == 0.0
    assert {"python", "numpy", "scipy", "blas", "nproc", "cpu_model", "commit",
            "seed"} <= set(result["env"])


def test_protocol_shape_counts():
    w = run.weights_per_draw(run.PROTOCOL.topology)
    assert w == 118_282
    loop = run.Loop(op_s=[], ops=1, attempted=1, wall_s=0.0, outputs=[])
    normals, flops = run.expected_counts("train", run.PROTOCOL, loop)
    assert normals == 5 * 118_282
    assert flops == 5 * 2 * 200 * 118_282


def test_backward_flops_follow_returned_gradients():
    weights = [np.zeros((4, 5)), np.zeros((5, 3))]   # sizes 20, 15
    trace = SimpleNamespace(weights=weights, inputs=np.zeros((2, 4)))
    both = run._backward_flops(([w for w in weights], np.zeros((2, 4))),
                               trace, None)
    assert both == (2 * 2 * 35, 2 * 2 * 15, 2 * 2 * 20)   # batch 2
    # Without the layer-0 input gradient, or without weight gradients, the
    # skipped GEMMs are no longer counted.
    assert run._backward_flops((weights, None), trace, None) == (140, 60, 0)
    assert run._backward_flops(([None, None], np.zeros((2, 4))),
                               trace, None) == (0, 60, 80)
