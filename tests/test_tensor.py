"""Substrate contracts: the deterministic RNG, the worker pool and ADAM."""

import os
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_worker_per_cpu
from infmix import tensor
from infmix.network import StochasticMlp
from infmix.tensor import (MAX_PROBE_EVERY, PAYOFF_WINDOW, PROBE_EVERY,
                           READ_AHEAD_WIDTH, AdamState, Rng, adam_step,
                           allowed_cpus, imap_in_order, map_in_order)

W = READ_AHEAD_WIDTH
JOIN_TIMEOUT_S = 60.0


def reference(seed, *tags):
    """A plain Philox generator keyed like ``Rng(seed).derive(*tags)``."""
    ss = np.random.SeedSequence(seed, spawn_key=tags)
    return np.random.Generator(np.random.Philox(ss))


def apply(op, rng, ref):
    """Make the call ``op`` on an ``Rng`` and on its reference generator;
    returns both results."""
    kind, arg = op
    if kind == "normal":
        return rng.standard_normal(*arg), ref.standard_normal(arg)
    if kind == "uniform":
        return rng.uniform(-1.0, 2.0, arg), ref.uniform(-1.0, 2.0, arg)
    if kind == "integers":
        return rng.integers(0, 100, size=arg), ref.integers(0, 100, size=arg)
    if kind == "permutation":
        return rng.permutation(arg), ref.permutation(arg)
    if kind == "choice":
        return (rng.choice(arg, 3, replace=False),
                ref.choice(arg, size=3, replace=False))
    assert kind == "derive"
    child = rng.derive(arg)
    return child.standard_normal(2, W), \
        reference(rng.seed, *rng.spawn_key, arg).standard_normal((2, W))


def check_stream(seed, ops):
    rng, ref = Rng(seed), reference(seed)
    for op in ops:
        got, want = apply(op, rng, ref)
        assert np.array_equal(got, want), op
    # The stream goes on from where the reference is.
    assert np.array_equal(rng.standard_normal(3, W), ref.standard_normal((3, W)))


@pytest.fixture(params=[True, False], ids=["read-ahead", "in-place"])
def pays(request, monkeypatch):
    monkeypatch.setattr(tensor._PAYOFF, "pays", lambda: request.param)
    return request.param


class TestRng:
    def test_same_seed_identical_stream(self):
        m1 = Rng(42).standard_normal(2, 2)
        m2 = Rng(42).standard_normal(2, 2)
        assert np.array_equal(m1, m2)

    def test_different_seeds_differ(self):
        a = Rng(0).standard_normal(16)
        b = Rng(1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic_and_distinct(self):
        base = Rng(5)
        assert np.array_equal(base.derive(3).standard_normal(8),
                              Rng(5).derive(3).standard_normal(8))
        assert not np.array_equal(base.derive(3).standard_normal(8),
                                  base.derive(4).standard_normal(8))

    def test_moments_over_a_million_draws(self):
        draws = Rng(123).standard_normal(1_000_000)
        assert -0.01 < draws.mean() < 0.01
        assert 0.98 < draws.var() < 1.02


class TestReadAhead:
    """Wide rows of normals are drawn ahead from a copy of the Philox state;
    every request still equals a plain generator making the same calls."""

    def test_block_row_pattern(self, pays):
        check_stream(0, [("normal", (n, W)) for n in (2, 2, 1) * 3])

    def test_read_ahead_starts_only_for_wide_rows_while_it_pays(self, pays):
        rng = Rng(1)
        rng.standard_normal(3, 50)
        rng.standard_normal(4 * W)
        rng.standard_normal(0, W)
        assert rng._ahead is None
        rng.standard_normal(2, W)
        assert (rng._ahead is not None) == pays

    def test_zero_rows_and_flat_requests(self, pays):
        check_stream(1, [("normal", (0, W)), ("normal", (2, W)),
                         ("normal", (0, W)), ("normal", (2, W)),
                         ("normal", (5,)), ("normal", (2, W)),
                         ("normal", (2 * W,)), ("normal", (3, 4)),
                         ("normal", ()), ("normal", (1, W))])

    def test_width_changes(self, pays):
        check_stream(2, [("normal", (2, W)), ("normal", (2, W + 5)),
                         ("normal", (3, W + 5)), ("normal", (1, W)),
                         ("normal", (2, 7)), ("normal", (4, W))])

    def test_other_calls_in_between(self, pays):
        check_stream(3, [("normal", (2, W)), ("uniform", (3, 2)),
                         ("normal", (2, W)), ("integers", 5),
                         ("normal", (2, W)), ("permutation", 9),
                         ("normal", (2, W)), ("choice", 10),
                         ("normal", (2, W)), ("derive", 4),
                         ("normal", (2, W))])

    @given(st.integers(0, 2**32 - 1), st.lists(st.one_of(
        st.tuples(st.just("normal"), st.one_of(
            st.tuples(st.integers(0, 3), st.sampled_from([W, W + 3, 40])),
            st.tuples(st.integers(0, 2 * W)))),
        st.tuples(st.sampled_from(["uniform", "integers", "permutation"]),
                  st.integers(0, 6)),
        st.tuples(st.sampled_from(["choice", "derive"]), st.integers(3, 6))),
        max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_any_call_sequence_matches_reference(self, seed, ops):
        for on in (True, False):
            tensor._PAYOFF.pays = lambda: on
            try:
                check_stream(seed, ops)
            finally:
                del tensor._PAYOFF.pays

    def test_draw_blocks_equal_single_draws_at_protocol_shape(self, pays):
        net = StochasticMlp.create(Rng(0).derive(0))
        rng, ref = Rng(7), reference(7)
        blocks = [net.sample_draws(n, rng) for n in (5, 2, 2, 1)]
        for draws in blocks:
            for s in range(len(draws[0].noise)):
                for l, layer in enumerate(net.layers):
                    e = ref.standard_normal((layer.n_rows, layer.n_cols))
                    assert np.array_equal(draws[l].noise[s], e)

    def test_worker_exception_reraises_in_next_request(self, monkeypatch):
        monkeypatch.setattr(tensor._PAYOFF, "pays", lambda: True)

        class FailingFill:
            bit_generator = types.SimpleNamespace(state=None)

            def standard_normal(self, out):
                raise RuntimeError("read-ahead fill failed")

        rng, ref = Rng(4), reference(4)
        rng._clone = FailingFill()
        assert np.array_equal(rng.standard_normal(2, W), ref.standard_normal((2, W)))
        worker = rng._ahead._thread
        worker.join(timeout=JOIN_TIMEOUT_S)
        assert not worker.is_alive()
        with pytest.raises(RuntimeError, match="read-ahead fill failed"):
            rng.standard_normal(2, W)
        # Nothing was taken from the stream, which goes on unchanged.
        rng._clone = None
        assert np.array_equal(rng.standard_normal(2, W), ref.standard_normal((2, W)))

    def test_more_streams_than_cpus_under_fast_switching(self, monkeypatch):
        monkeypatch.setattr(tensor._PAYOFF, "pays", lambda: True)
        n_threads = (os.cpu_count() or 1) + 3
        ops = [("normal", (n, W)) for n in (2, 2, 1, 3)] + [
            ("uniform", 4), ("normal", (2, W)), ("normal", (2, W + 1))]
        failures = []

        def run(seed):
            try:
                check_stream(seed, ops * 3)
            except BaseException as exc:
                failures.append((seed, exc))

        workers = [threading.Thread(target=run, args=(seed,))
                   for seed in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + JOIN_TIMEOUT_S
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=max(deadline - time.monotonic(), 0.0))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert failures == []


class TestPayoff:
    """Reading ahead stops while read-aheads get less than ``MIN_CPU_SHARE``
    of a CPU, still probes at doubling intervals from ``PROBE_EVERY`` up to
    ``MAX_PROBE_EVERY`` requests, and resumes after one that got a CPU."""

    @pytest.fixture(autouse=True)
    def payoff(self, monkeypatch):
        monkeypatch.setattr(tensor, "allowed_cpus", lambda: 2)
        payoff = tensor._Payoff()
        monkeypatch.setattr(tensor, "_PAYOFF", payoff)
        return payoff

    def test_pays_until_measured(self, payoff):
        assert payoff.pays()

    def test_one_cpu_never_pays(self, payoff, monkeypatch):
        monkeypatch.setattr(tensor, "allowed_cpus", lambda: 1)
        assert not payoff.pays()

    def test_shared_cpu_stops_it_but_for_probes_at_doubling_intervals(self, payoff):
        for _ in range(PAYOFF_WINDOW):
            payoff.record(0.5)
        gaps, waited = [], 0
        for _ in range(6 * MAX_PROBE_EVERY):
            waited += 1
            if payoff.pays():
                gaps.append(waited)
                waited = 0
        want = [PROBE_EVERY]
        while len(want) < len(gaps):
            want.append(min(2 * want[-1], MAX_PROBE_EVERY))
        assert gaps == want and gaps[-1] == MAX_PROBE_EVERY

    def test_one_good_probe_resumes_it_and_resets_the_interval(self, payoff):
        for _ in range(PAYOFF_WINDOW):
            payoff.record(0.5)
        while not payoff.pays():
            pass
        payoff.record(0.95)
        assert payoff.pays()
        payoff.record(0.4)
        payoff.record(0.4)
        assert [payoff.pays() for _ in range(PROBE_EVERY)] == [False] * (
            PROBE_EVERY - 1) + [True]

    def test_one_slow_read_ahead_does_not_stop_it(self, payoff):
        for share in (0.98, 0.97, 0.3):
            payoff.record(share)
        assert payoff.pays()

    def test_workers_record_their_share(self, payoff):
        rng, ref = Rng(5), reference(5)
        for _ in range(2):
            assert np.array_equal(rng.standard_normal(2, W), ref.standard_normal((2, W)))
        assert np.array_equal(rng.uniform(0, 1, 3), ref.uniform(0, 1, 3))
        assert len(payoff.shares) == 2 and all(s > 0 for s in payoff.shares)

    @pytest.mark.parametrize("worker, served", [(0.9, 0.3), (0.3, 0.9)])
    def test_records_the_lesser_of_worker_and_served_share(
            self, payoff, monkeypatch, worker, served):
        caller = threading.current_thread()
        monkeypatch.setattr(tensor, "_cpu_share", lambda start: (
            served if threading.current_thread() is caller else worker))
        rng = Rng(7)
        rng.standard_normal(2, W)
        rng.uniform(0, 1, 1)
        assert payoff.shares == (0.3,)

    def test_read_ahead_of_another_thread_records_no_share(self, payoff):
        rng, ref = Rng(8), reference(8)
        # Started in one thread, taken in this one, which starts the next;
        # that one is dropped in a third thread.
        first = in_thread(lambda: rng.standard_normal(2, W))
        assert rng._ahead is not None
        second = rng.standard_normal(2, W)
        assert rng._ahead is not None
        third = in_thread(lambda: rng.uniform(0, 1, 3))
        assert np.array_equal(first, ref.standard_normal((2, W)))
        assert np.array_equal(second, ref.standard_normal((2, W)))
        assert np.array_equal(third, ref.uniform(0, 1, 3))
        assert payoff.shares == ()
        # The stream goes on from where the reference is.
        assert np.array_equal(rng.standard_normal(3, W), ref.standard_normal((3, W)))

    def test_no_worker_while_it_does_not_pay(self, payoff):
        for _ in range(PAYOFF_WINDOW):
            payoff.record(0.4)
        rng = Rng(6)
        rng.standard_normal(2, W)
        assert rng._ahead is None


def pool_threads():
    return [t for t in threading.enumerate() if t.name == "infmix-worker"]


class TestMapInOrder:
    """``map_in_order`` returns results in input order from the calling
    thread plus one started thread per other CPU of the budget, and counts
    its running workers in ``_PAYOFF.workers``, which read-aheads leave a
    CPU to."""

    def test_caller_is_one_of_the_workers(self, monkeypatch):
        one_worker_per_cpu(monkeypatch, 3)
        barrier = threading.Barrier(3, timeout=JOIN_TIMEOUT_S)

        def item(i):
            barrier.wait()      # all three items run at once
            started = len(pool_threads())
            barrier.wait()      # and none has ended yet
            return i, threading.get_ident(), started

        out = map_in_order(item, range(3))
        assert [i for i, _, _ in out] == [0, 1, 2]
        idents = {ident for _, ident, _ in out}
        assert len(idents) == 3 and threading.get_ident() in idents
        assert {started for _, _, started in out} == {2}
        assert pool_threads() == []

    def test_one_worker_starts_no_thread(self, monkeypatch):
        one_worker_per_cpu(monkeypatch, 1)
        assert map_in_order(lambda i: (i, len(pool_threads())), range(4)) \
            == [(i, 0) for i in range(4)]

    @pytest.mark.parametrize("fail_at", [None, 37])
    def test_worker_count_with_more_workers_than_cpus(self, fail_at,
                                                      monkeypatch):
        n_workers = allowed_cpus() + 3
        one_worker_per_cpu(monkeypatch, n_workers)
        seen = []

        def item(i):
            seen.append(tensor._PAYOFF.workers)
            np.linalg.norm(np.arange(200.0))    # drops and takes the GIL
            if i == fail_at:
                raise ValueError(f"item {i} failed")
            return -i

        outcome = []

        def run():
            try:
                outcome.append(map_in_order(item, range(200)))
            except ValueError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=run)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            caller.start()
            caller.join(timeout=JOIN_TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive() and len(outcome) == 1
        assert 1 <= min(seen) and max(seen) <= n_workers
        assert tensor._PAYOFF.workers == 0 and pool_threads() == []
        if fail_at is None:
            assert outcome == [[-i for i in range(200)]]
        else:
            assert str(outcome[0]) == f"item {fail_at} failed"
            assert len(seen) < 200

    def test_reads_ahead_only_while_a_cpu_is_idle(self, monkeypatch):
        one_worker_per_cpu(monkeypatch, 2)
        monkeypatch.setattr(tensor, "_PAYOFF", tensor._Payoff())

        def read_aheads(n_workers):
            barrier = threading.Barrier(n_workers, timeout=JOIN_TIMEOUT_S)

            def item(seed):
                barrier.wait()      # every worker is running
                rng, ref = Rng(seed), reference(seed)
                got = rng.standard_normal(2, W)
                started = rng._ahead is not None
                assert np.array_equal(rng.standard_normal(2, W),
                                      ref.standard_normal((4, W))[2:])
                assert np.array_equal(
                    got, reference(seed).standard_normal((2, W)))
                barrier.wait()      # no worker stops before all have looked
                return started

            return map_in_order(item, range(n_workers))

        assert read_aheads(2) == [False, False]
        assert read_aheads(1) == [True]


class TestPool:
    """``imap_in_order`` takes items lazily, in order, one at a time; at
    most one item per CPU of the budget computes at once; and a nested pool
    gets only the CPUs of the budget that the enclosing pool leaves idle."""

    def test_items_taken_in_order_one_at_a_time(self, monkeypatch):
        one_worker_per_cpu(monkeypatch, 3)
        lock = threading.Lock()
        seen = {"taking": 0, "most_taking": 0, "computing": 0,
                "most_computing": 0, "order": []}

        def count(key, step):
            with lock:
                seen[key] += step
                most = "most_" + key
                seen[most] = max(seen[most], seen[key])

        def items():
            for i in range(120):
                count("taking", 1)
                seen["order"].append(i)
                time.sleep(0)       # another worker may try to take now
                count("taking", -1)
                yield i

        def item(i):
            count("computing", 1)
            np.linalg.norm(np.arange(200.0))    # drops and takes the GIL
            count("computing", -1)
            return -i

        out = []
        caller = threading.Thread(
            target=lambda: out.extend(imap_in_order(item, items())))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            caller.start()
            caller.join(timeout=JOIN_TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert out == [-i for i in range(120)]
        assert seen["order"] == list(range(120))
        assert seen["most_taking"] == 1
        assert 1 <= seen["most_computing"] <= 3
        assert tensor._PAYOFF.workers == 0 and pool_threads() == []

    def nested(self, monkeypatch, outer_items, inner_items):
        """Per outer item, on two CPUs: the threads that ran the items of a
        pool nested in it, and the pool threads alive while they ran."""
        one_worker_per_cpu(monkeypatch, 2)
        barrier = threading.Barrier(len(outer_items), timeout=JOIN_TIMEOUT_S)
        inner = threading.Barrier(inner_items, timeout=JOIN_TIMEOUT_S)

        def inner_item(i):
            if inner_items > 1 and i < inner_items:
                inner.wait()    # the nested items run at once
            return threading.get_ident(), len(pool_threads())

        def outer_item(_):
            barrier.wait()      # every outer worker holds its CPU
            runs = map_in_order(inner_item, range(2 * inner_items))
            barrier.wait()
            return ({ident for ident, _ in runs},
                    max(alive for _, alive in runs))

        return map_in_order(outer_item, outer_items)

    def test_nested_pool_under_a_full_one_starts_no_thread(self, monkeypatch):
        for idents, alive in self.nested(monkeypatch, range(2), 1):
            assert len(idents) == 1 and alive == 1

    def test_nested_pool_fills_the_idle_cpu_with_one_thread(self, monkeypatch):
        [(idents, alive)] = self.nested(monkeypatch, range(1), 2)
        assert len(idents) == 2 and alive == 1
        assert tensor._PAYOFF.workers == 0 and pool_threads() == []

    @pytest.mark.parametrize("where", ["item", "iterator", "nested"])
    def test_first_exception_reraised_with_no_thread_left(self, where,
                                                          monkeypatch):
        one_worker_per_cpu(monkeypatch, 2)
        def items():
            for i in range(50):
                if where == "iterator" and i == 17:
                    raise KeyError("take 17 failed")
                yield i

        def inner(i):
            if i == 3:
                raise ValueError("inner 3 failed")
            time.sleep(0.001)
            return i

        def item(i):
            if where == "item" and i == 17:
                raise KeyError("item 17 failed")
            if where == "nested" and i == 1:
                return map_in_order(inner, range(8))
            time.sleep(0.001)
            return i

        with pytest.raises((KeyError, ValueError), match="17 failed|3 failed"):
            list(imap_in_order(item, items()))
        assert tensor._PAYOFF.workers == 0 and pool_threads() == []

    def test_consumer_stopping_early_leaves_no_thread(self, monkeypatch):
        one_worker_per_cpu(monkeypatch, 2)
        results = imap_in_order(lambda i: i, range(100))
        assert next(results) == 0
        results.close()
        assert tensor._PAYOFF.workers == 0 and pool_threads() == []


def in_thread(fn):
    """``fn()`` run on a new thread, so that affinity changes stay there."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=JOIN_TIMEOUT_S)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no per-thread CPU affinity on this platform")
class TestKeepOff:
    """A read-ahead worker keeps off the CPU of the thread it serves."""

    def test_current_cpu_is_one_the_thread_may_use(self):
        cpu = tensor._current_cpu()
        if cpu is None:
            pytest.skip("/proc does not give the current CPU here")
        assert cpu in os.sched_getaffinity(0)

    def test_worker_leaves_out_the_consumer_cpu_only(self):
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            pytest.skip("needs two CPUs")
        cpu = min(allowed)

        def keep_off():
            tensor._keep_off(cpu)
            return os.sched_getaffinity(0)

        assert in_thread(keep_off) == allowed - {cpu}
        assert os.sched_getaffinity(0) == allowed

    def test_unknown_or_only_cpu_changes_nothing(self):
        allowed = os.sched_getaffinity(0)
        cpu = min(allowed)

        def keep_off_only_cpu():
            os.sched_setaffinity(0, {cpu})
            tensor._keep_off(cpu)
            return os.sched_getaffinity(0)

        def keep_off_unknown():
            tensor._keep_off(None)
            return os.sched_getaffinity(0)

        assert in_thread(keep_off_only_cpu) == {cpu}
        assert in_thread(keep_off_unknown) == allowed


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = np.array([1.0, -2.0, 0.5])
        state = AdamState.for_shape(params.shape)
        out = adam_step(state, params, np.zeros_like(params))
        assert np.array_equal(out, params)

    def test_first_step_is_bias_corrected_lr(self):
        # g = 1 at t = 1: m_hat = 1, v_hat = 1, step = lr / (1 + eps).
        params = np.array([0.0])
        state = AdamState.for_shape(params.shape, learning_rate=1e-3)
        out = adam_step(state, params, np.array([1.0]))
        expected = -1e-3 / (1.0 + state.eps)
        np.testing.assert_allclose(out[0], expected, rtol=1e-12)

    def test_descends_quadratic(self):
        # f(p) = p^2, grad = 2p: |p| decreases over every 10-step window.
        p = np.array([1.0])
        state = AdamState.for_shape(p.shape, learning_rate=0.01)
        checkpoints = [abs(p[0])]
        for step in range(1, 101):
            p = adam_step(state, p, 2.0 * p)
            if step % 10 == 0:
                checkpoints.append(abs(p[0]))
        assert all(b < a for a, b in zip(checkpoints, checkpoints[1:]))

    def test_block_order_invariance(self):
        rng = Rng(11)
        params = rng.standard_normal(10)
        grads = rng.standard_normal(10)
        whole_state = AdamState.for_shape((10,))
        whole = adam_step(whole_state, params, grads)
        split = np.empty(10)
        for sl in (slice(5, 10), slice(0, 5)):  # blocks in the other order
            st_block = AdamState.for_shape((5,))
            split[sl] = adam_step(st_block, params[sl], grads[sl])
        np.testing.assert_allclose(whole, split, rtol=0.0, atol=0.0)

    def test_nan_gradient_names_block(self):
        params = np.zeros(3)
        state = AdamState.for_shape(params.shape)
        with pytest.raises(FloatingPointError, match="layer2.mean"):
            adam_step(state, params, np.array([0.0, np.nan, 0.0]),
                      name="layer2.mean")

    def test_step_counter_increments_by_one(self):
        params = np.zeros(2)
        state = AdamState.for_shape(params.shape)
        for expected in range(1, 6):
            adam_step(state, params, np.ones(2))
            assert state.t == expected
