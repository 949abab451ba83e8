"""Forward/backward exactness and the multi-sample predictive summary."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_worker_per_cpu
from infmix.baselines import DeepEnsemble, DropoutMlp
from infmix.gradcheck import check_mixture_input_gradient, check_network_gradient
from infmix import network
from infmix.network import (DRAW_BLOCK, INPUT_GRAD, MAX_ENTROPY, WEIGHT_GRADS,
                            StochasticMlp, backward, entropy_of, forward,
                            summarize_prob_stream, summarize_probs)
from infmix.tensor import Rng


def one_draw(net, seed):
    """One weight matrix per layer, the first draw of ``sample_draws``."""
    return [sw.weights[0] for sw in net.sample_draws(net.draw_normals(1, Rng(seed)))]


def zero_weights(topology):
    return [np.zeros((n_in + 1, n_out))
            for n_in, n_out in zip(topology[:-1], topology[1:])]


def random_prob_stack(seed, s=6, b=5, k=10):
    raw = Rng(seed).uniform(0.01, 1.0, (s, b, k))
    return raw / raw.sum(axis=2, keepdims=True)


class TestForward:
    def test_zero_weights_give_uniform_log_probs(self):
        weights = zero_weights((784, 128, 128, 10))
        x = Rng(0).uniform(0, 1, (4, 784))
        log_probs, _ = forward(weights, x)
        np.testing.assert_allclose(log_probs, -np.log(10.0), atol=1e-12)

    def test_two_class_hand_computation(self):
        # One layer, 1 input, 2 classes: logits = x * w + b.
        w = np.array([[1.5, -0.5],    # weight row
                      [0.2, -0.1]])   # bias row
        x = np.array([[0.8]])
        log_probs, _ = forward([w], x)
        logits = np.array([0.8 * 1.5 + 0.2, 0.8 * -0.5 - 0.1])
        expected = logits - np.log(np.exp(logits).sum())
        np.testing.assert_allclose(log_probs[0], expected, atol=1e-12)

    def test_batch_equals_concatenated_singles(self):
        # BLAS may pick different kernels per batch shape, so agreement is
        # to rounding noise rather than bitwise.
        net = StochasticMlp.create(Rng(3), topology=(6, 4, 4, 3))
        weights = one_draw(net, 5)
        x = Rng(1).uniform(0, 1, (3, 6))
        batch_lp, _ = forward(weights, x)
        for i in range(3):
            single_lp, _ = forward(weights, x[i:i + 1])
            np.testing.assert_allclose(batch_lp[i], single_lp[0],
                                       rtol=1e-13, atol=1e-14)

    def test_probabilities_sum_to_one(self):
        net = StochasticMlp.create(Rng(2), topology=(6, 4, 4, 3))
        weights = one_draw(net, 0)
        log_probs, _ = forward(weights, Rng(9).uniform(0, 1, (8, 6)))
        np.testing.assert_allclose(np.exp(log_probs).sum(axis=1), 1.0,
                                   atol=1e-12)

    def test_non_finite_activation_names_layer(self):
        weights = zero_weights((4, 3, 2))
        weights[1][0, 0] = np.inf
        x = np.ones((1, 4))
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="layer 1"):
                forward(weights, x)

    def test_wrong_input_width_rejected(self):
        with pytest.raises(ValueError):
            forward(zero_weights((4, 3)), np.ones((2, 5)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        net = StochasticMlp.create(Rng(1), topology=(5, 3, 3, 2))
        weights = one_draw(net, 2)
        x = Rng(3).uniform(0, 1, (4, 5))
        log_probs, trace = forward(weights, x)
        grad_w, grad_x = backward(trace, np.zeros_like(log_probs))
        assert all(not g.any() for g in grad_w)
        assert not grad_x.any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_difference_oracle(self, seed):
        result = check_network_gradient(seed=seed, tolerance=1e-5)
        assert result.passed, result.line()

    def test_mismatched_upstream_shape_rejected(self):
        weights = zero_weights((4, 3, 2))
        _, trace = forward(weights, np.ones((2, 4)))
        with pytest.raises(ValueError):
            backward(trace, np.zeros((3, 2)))


TINY = (6, 4, 4, 3)


def stacked_masks(seed, s, rows, sizes=(4, 4), keep=0.5):
    rng = Rng(seed)
    return [(rng.uniform(0, 1, (s, rows, n)) < keep) / keep for n in sizes]


def per_draw(stack, s):
    """Draw ``s`` of a list of per-layer arrays; 2-D ones are shared."""
    if stack is None:
        return None
    return [a[s] if a.ndim == 3 else a for a in stack]


def kernel_cases():
    """(weights, masks, S): stacked draws with and without per-draw and
    per-example masks, one shared matrix under stacked masks (the dropout
    mixture), and an ensemble stack in the plain (S, n_in + 1, n_out) layout."""
    net = StochasticMlp.create(Rng(3), topology=TINY)
    cases = []
    for s in (1, 3):
        weights = [sw.weights for sw in net.sample_draws(net.draw_normals(s, Rng(5)))]
        cases += [(weights, None, s),
                  (weights, stacked_masks(6, s, 1), s),
                  (weights, stacked_masks(7, s, 5), s)]
    shared = one_draw(net, 8)
    cases.append((shared, stacked_masks(9, 3, 1), 3))
    members = [one_draw(net, 10 + k) for k in range(3)]
    cases.append(([np.stack(layer) for layer in zip(*members)], None, 3))
    return cases


class TestStackedKernel:
    """The S-draw forward/backward against the same draws one at a time."""

    @pytest.mark.parametrize("case", range(len(kernel_cases())))
    def test_stack_equals_per_draw_path(self, case):
        weights, masks, s = kernel_cases()[case]
        x = Rng(1).uniform(0, 1, (5, 6))
        g = Rng(2).standard_normal(s, 5, 3)
        log_probs, trace = forward(weights, x, hidden_masks=masks)
        grad_w, grad_x = backward(trace, g)
        assert log_probs.shape == (s, 5, 3)
        draw_grads, draw_gx = [], np.zeros_like(x)
        for d in range(s):
            lp, tr = forward(per_draw(weights, d), x,
                             hidden_masks=per_draw(masks, d))
            np.testing.assert_allclose(log_probs[d], lp, rtol=1e-12, atol=1e-15)
            gw, gx = backward(tr, g[d])
            draw_grads.append(gw)
            draw_gx += gx
        np.testing.assert_allclose(grad_x, draw_gx, rtol=1e-12, atol=1e-15)
        for l, w in enumerate(weights):
            assert grad_w[l].shape == w.shape
            per = np.stack([gw[l] for gw in draw_grads])
            expected = per if w.ndim == 3 else per.sum(axis=0)
            np.testing.assert_allclose(grad_w[l], expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("stacked_weights", [True, False])
    def test_stack_of_inputs_equals_per_draw_path(self, stacked_weights):
        # Layers 1 and up of training: each draw runs on its own input.
        net = StochasticMlp.create(Rng(3), topology=TINY)
        weights = [sw.weights for sw in net.sample_draws(
            net.draw_normals(3, Rng(5))[:, net.layers[0].mean.size:], first=1)]
        if not stacked_weights:
            weights = [w[0] for w in weights]
        h = Rng(1).uniform(0, 1, (3, 5, 4))
        g = Rng(2).standard_normal(3, 5, 3)
        log_probs, trace = forward(weights, h)
        grad_w, grad_h = backward(trace, g)
        assert log_probs.shape == (3, 5, 3) and grad_h.shape == h.shape
        draw_grads = []
        for d in range(3):
            lp, tr = forward(per_draw(weights, d), h[d])
            np.testing.assert_allclose(log_probs[d], lp, rtol=1e-12, atol=1e-15)
            gw, gx = backward(tr, g[d])
            draw_grads.append(gw)
            np.testing.assert_allclose(grad_h[d], gx, rtol=1e-12, atol=1e-15)
        for l, w in enumerate(weights):
            per = np.stack([gw[l] for gw in draw_grads])
            expected = per if w.ndim == 3 else per.sum(axis=0)
            np.testing.assert_allclose(grad_w[l], expected, rtol=1e-12, atol=1e-15)
        trace.needs = WEIGHT_GRADS
        assert backward(trace, g)[1] is None

    def test_stack_of_inputs_numbers_layers_from_1(self):
        weights = zero_weights((4, 3, 2))
        weights[0][0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="layer 1$"):
                forward(weights, np.ones((2, 1, 4)))

    def test_unrequested_gradients_are_none(self):
        weights, _, s = kernel_cases()[3]
        x = Rng(1).uniform(0, 1, (5, 6))
        _, trace = forward(weights, x)
        g = Rng(2).standard_normal(s, 5, 3)
        trace.needs = WEIGHT_GRADS
        grad_w, grad_x = backward(trace, g)
        assert grad_x is None and all(gw is not None for gw in grad_w)
        trace.needs = INPUT_GRAD
        grad_w, grad_x = backward(trace, g)
        assert grad_x is not None and grad_w == [None] * len(weights)

    @pytest.mark.parametrize("case", [0, 3, 4, 6, 7])
    def test_requested_gradient_bitwise_equals_full_request(self, case):
        weights, masks, s = kernel_cases()[case]
        x = Rng(1).uniform(0, 1, (5, 6))
        g = Rng(2).standard_normal(s, 5, 3)
        _, trace = forward(weights, x, hidden_masks=masks)
        full_w, full_x = backward(trace, g)
        trace.needs = WEIGHT_GRADS
        only_w, _ = backward(trace, g)
        trace.needs = INPUT_GRAD
        _, only_x = backward(trace, g)
        assert np.array_equal(only_x, full_x)
        assert all(np.array_equal(a, b) for a, b in zip(only_w, full_w))

    def test_draws_follow_per_layer_sampling_stream(self):
        # One normal call for S draws gives the stream of S x L calls in
        # (draw, layer) order, so draws do not depend on how they are batched.
        net = StochasticMlp.create(Rng(0), topology=TINY)
        draws = net.sample_draws(net.draw_normals(3, Rng(4)))
        rng = Rng(4)
        for s in range(3):
            for l, layer in enumerate(net.layers):
                e = rng.standard_normal(layer.n_rows, layer.n_cols)
                w = layer.row_std[:, None] * e * layer.col_std + layer.mean
                assert np.array_equal(draws[l].noise[s], e)
                assert np.array_equal(draws[l].weights[s], w)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixture_input_gradient_oracle(self, seed):
        result = check_mixture_input_gradient(seed=seed)
        assert result.passed, result.line()


class TestSummaries:
    def test_two_point_formula(self):
        p1 = np.zeros((1, 10))
        p1[0, 0] = 1.0
        p2 = np.zeros((1, 10))
        p2[0, 1] = 1.0
        summary = summarize_probs(np.stack([p1, p2]))
        np.testing.assert_allclose(summary.mean_probs[0, :2], [0.5, 0.5])
        np.testing.assert_allclose(summary.class_variance[0, :2], [0.25, 0.25])
        assert summary.class_variance[0, 2:].max() == 0.0
        assert summary.max_variance[0] == 0.25

    def test_single_sample_variance_exactly_zero(self):
        stack = random_prob_stack(0, s=1)
        summary = summarize_probs(stack)
        assert np.all(summary.class_variance == 0.0)
        assert np.all(summary.max_variance == 0.0)

    def test_uniform_mean_gives_max_entropy(self):
        stack = np.full((3, 2, 10), 0.1)
        summary = summarize_probs(stack)
        np.testing.assert_allclose(summary.entropy, np.log(10.0), atol=1e-12)

    def test_one_hot_entropy_zero(self):
        p = np.zeros((1, 10))
        p[0, 4] = 1.0
        assert entropy_of(p)[0] == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_variance_identity_and_entropy_bounds(self, seed):
        stack = random_prob_stack(seed)
        summary = summarize_probs(stack)
        centered = ((stack - stack.mean(axis=0)) ** 2).mean(axis=0)
        np.testing.assert_allclose(summary.class_variance, centered, atol=1e-12)
        assert np.all(summary.entropy >= 0.0)
        assert np.all(summary.entropy <= MAX_ENTROPY + 1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_prediction_invariant_to_draw_order(self, seed):
        stack = random_prob_stack(seed)
        perm = Rng(seed).permutation(stack.shape[0])
        a = summarize_probs(stack)
        b = summarize_probs(stack[perm])
        assert np.array_equal(a.predicted_class, b.predicted_class)

    def test_stream_matches_stack(self):
        stack = random_prob_stack(42)
        a = summarize_probs(stack)
        b = summarize_prob_stream(iter(stack), stack.shape[0])
        assert np.array_equal(a.mean_probs, b.mean_probs)
        assert np.array_equal(a.class_variance, b.class_variance)

    def test_variance_clamped_nonnegative(self):
        stack = np.full((4, 2, 10), 0.1)  # exact cancellation case
        summary = summarize_probs(stack)
        assert np.all(summary.class_variance >= 0.0)


class TestPredict:
    def test_collapsed_posterior_has_zero_variance(self):
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        for layer in net.layers:
            layer.row_scale_raw = np.full_like(layer.row_scale_raw, -40.0)
            layer.col_scale_raw = np.full_like(layer.col_scale_raw, -40.0)
        x = Rng(1).uniform(0, 1, (5, 6))
        summary = net.predict(x, n_samples=8, rng=Rng(2))
        np.testing.assert_allclose(summary.max_variance, 0.0, atol=1e-12)
        # Entropy equals the deterministic net's entropy.
        log_probs, _ = forward([layer.mean for layer in net.layers], x)
        np.testing.assert_allclose(summary.entropy, entropy_of(np.exp(log_probs)),
                                   atol=1e-9)

    def test_predict_deterministic_in_rng(self):
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        x = Rng(1).uniform(0, 1, (5, 6))
        a = net.predict(x, n_samples=10, rng=Rng(7))
        b = net.predict(x, n_samples=10, rng=Rng(7))
        assert np.array_equal(a.mean_probs, b.mean_probs)

    def test_invalid_sample_count(self):
        net = StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
        with pytest.raises(ValueError):
            net.predict(np.ones((1, 6)), 0, Rng(0))

    def test_each_block_is_freed_before_the_next_is_drawn(self, monkeypatch):
        assert predict_peak(monkeypatch, cpus=1) < 3.5

    def test_two_workers_hold_a_block_each(self, monkeypatch):
        # A finished block waits for its turn only as its probabilities.
        assert predict_peak(monkeypatch, cpus=2) < 6.0


def predict_peak(monkeypatch, cpus):
    """The traced peak of a protocol-shape ``predict`` of four blocks at
    B=2000 on ``cpus`` workers, in blocks: a block's two hidden activations
    take 2 blocks and its weights half of one, so one block alive at a time
    takes about 3 and two about 5."""
    one_worker_per_cpu(monkeypatch, cpus)
    net = StochasticMlp.create(Rng(0).derive(0))
    x = Rng(1).uniform(0, 1, (2000, 784))
    block = x.shape[0] * DRAW_BLOCK * net.layers[0].n_cols * x.itemsize
    tracemalloc.start()
    try:
        net.predict(x, 4 * DRAW_BLOCK, Rng(2))
        return tracemalloc.get_traced_memory()[1] / block
    finally:
        tracemalloc.stop()


def mixture_model(kind):
    """A small 6-4-4-3 model of one of the four model classes."""
    weights = [Rng(l).uniform(-1.0, 1.0, shape)
               for l, shape in enumerate([(7, 4), (5, 4), (5, 3)])]
    if kind == "stochastic":
        return StochasticMlp.create(Rng(0), topology=(6, 4, 4, 3))
    if kind == "dropout":
        return DropoutMlp(weights, p_drop=0.5)
    if kind == "ensemble":
        return DeepEnsemble([DropoutMlp(weights, 0.0),
                             DropoutMlp([0.5 * w for w in weights], 0.0),
                             DropoutMlp([-w for w in weights], 0.0)])
    return DropoutMlp(weights, p_drop=0.0)


class TestMixtureContract:
    x = Rng(1).uniform(0.0, 1.0, (5, 6))
    y = np.array([0, 1, 2, 0, 1])

    @pytest.mark.parametrize("kind", ["stochastic", "dropout"])
    def test_zero_samples_rejected(self, kind):
        model = mixture_model(kind)
        with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
            model.predict(self.x, 0, Rng(0))
        with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
            model.loss_input_grad(self.x, self.y, 0, Rng(0))

    @pytest.mark.parametrize("kind", ["deterministic", "ensemble"])
    def test_fixed_count_ignores_n_samples(self, kind):
        model = mixture_model(kind)
        a = model.predict(self.x, 1, Rng(0))
        b = model.predict(self.x, 7, Rng(0))
        assert a.n_samples == b.n_samples == (3 if kind == "ensemble" else 1)
        assert np.array_equal(a.mean_probs, b.mean_probs)
        assert np.array_equal(a.class_variance, b.class_variance)
        grad_a, prob_a = model.loss_input_grad(self.x, self.y, 1, Rng(0))
        grad_b, prob_b = model.loss_input_grad(self.x, self.y, 7, Rng(0))
        assert np.array_equal(grad_a, grad_b)
        assert np.array_equal(prob_a, prob_b)


class TestWorkers:
    """``predict`` and ``loss_input_grad`` give the same bytes on one, two
    or three CPUs; on more than one, the first blocks run at once."""

    x = Rng(1).uniform(0.0, 1.0, (40, 6))
    y = np.arange(40) % 3

    @pytest.mark.parametrize("kind", ["stochastic", "dropout", "ensemble"])
    def test_same_bytes_on_every_cpu_count(self, kind, monkeypatch):
        model = mixture_model(kind)

        def blocks(n_samples):
            return -(-(3 if kind == "ensemble" else n_samples) // DRAW_BLOCK)

        outputs = {}
        for cpus in (1, 2, 3):
            one_worker_per_cpu(monkeypatch, cpus)
            together = all_at_once(monkeypatch, min(cpus, blocks(7)))
            summary = model.predict(self.x, 7, Rng(2))
            assert together.broken is False
            together = all_at_once(monkeypatch, min(cpus, blocks(5)))
            grad, label_prob = model.loss_input_grad(self.x, self.y, 5, Rng(3))
            assert together.broken is False
            outputs[cpus] = [a.tobytes() for a in (
                summary.mean_probs, summary.class_variance, summary.max_variance,
                summary.entropy, summary.predicted_class, grad, label_prob)]
        assert outputs[1] == outputs[2] == outputs[3]


def all_at_once(monkeypatch, n):
    """Make the first ``n`` calls of ``forward`` wait until all of them run,
    and return the barrier: it breaks, after a timeout, unless a pool runs
    that many blocks at once."""
    barrier = threading.Barrier(n, timeout=10.0)
    calls = iter(range(n))
    lock = threading.Lock()
    real = network.forward

    def forward_together(*args, **kwargs):
        with lock:
            waits = next(calls, None) is not None
        if waits:
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
        return real(*args, **kwargs)

    monkeypatch.setattr(network, "forward", forward_together)
    return barrier


class TestTopology:
    def test_default_dims_chain(self):
        net = StochasticMlp.create(Rng(0))
        assert [layer.mean.shape for layer in net.layers] == [
            (785, 128), (129, 128), (129, 10)]
