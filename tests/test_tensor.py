"""Substrate contracts: the deterministic RNG, the worker pool and ADAM."""

import itertools
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_worker_per_cpu, pool_at_rest, pool_threads
from infmix import tensor
from infmix.network import StochasticMlp
from infmix.tensor import (AdamState, DrawAhead, Rng, adam_step,
                           allowed_cpus, imap_in_order, map_in_order)

W = 1000     # the width of a row of normals
JOIN_TIMEOUT_S = 60.0


def reference(seed, *tags):
    """A plain Philox generator keyed like ``Rng(seed).derive(*tags)``."""
    ss = np.random.SeedSequence(seed, spawn_key=tags)
    return np.random.Generator(np.random.Philox(ss))


def in_place(fn):
    return fn()


def apply(op, rng, ref, draw=in_place):
    """Make the call ``op`` on an ``Rng`` and on its reference generator;
    returns both results.  ``draw`` makes the ``Rng``'s requests for normals."""
    kind, arg = op
    if kind == "normal":
        return draw(lambda: rng.standard_normal(*arg)), ref.standard_normal(arg)
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


def check_stream(seed, ops, draw=in_place):
    rng, ref = Rng(seed), reference(seed)
    for op in ops:
        got, want = apply(op, rng, ref, draw)
        assert np.array_equal(got, want), op
    # The stream goes on from where the reference is.
    assert np.array_equal(rng.standard_normal(3, W), ref.standard_normal((3, W)))


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

    # Every call equals a plain Philox generator making the same calls.

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
        check_stream(seed, ops)

    def test_stream_handed_between_threads_goes_on(self):
        # Training draws a step's normals on whichever pool thread is idle.
        rng, ref = Rng(9), reference(9)
        for n in (5, 5, 1, 5):
            assert np.array_equal(in_thread(lambda: rng.standard_normal(n, W)),
                                  ref.standard_normal((n, W)))
            assert np.array_equal(rng.standard_normal(2, W),
                                  ref.standard_normal((2, W)))


@pytest.fixture(params=["read-ahead", "in-place"])
def draw(request, monkeypatch):
    """How a request for normals is made: in place, or drawn ahead as
    training draws the next step's normals, as the ``then`` item of a pool
    map (on a CPU that the map leaves idle, or inline after it)."""
    if request.param == "in-place":
        return in_place
    one_worker_per_cpu(monkeypatch, 2)

    def ahead(fn):
        out = []
        for _ in imap_in_order(lambda _: None, [None], lambda: out.append(fn())):
            pass
        assert len(out) == 1
        return out[0]
    return ahead


class TestReadAhead:
    """Normals drawn ahead on a pool thread equal normals drawn in place:
    every request still equals a plain generator making the same calls."""

    def test_block_row_pattern(self, draw):
        check_stream(0, [("normal", (n, W)) for n in (2, 2, 1) * 3], draw)

    def test_zero_rows_and_flat_requests(self, draw):
        check_stream(1, [("normal", (0, W)), ("normal", (2, W)),
                         ("normal", (0, W)), ("normal", (2, W)),
                         ("normal", (5,)), ("normal", (2, W)),
                         ("normal", (2 * W,)), ("normal", (3, 4)),
                         ("normal", ()), ("normal", (1, W))], draw)

    def test_width_changes(self, draw):
        check_stream(2, [("normal", (2, W)), ("normal", (2, W + 5)),
                         ("normal", (3, W + 5)), ("normal", (1, W)),
                         ("normal", (2, 7)), ("normal", (4, W))], draw)

    def test_other_calls_in_between(self, draw):
        check_stream(3, [("normal", (2, W)), ("uniform", (3, 2)),
                         ("normal", (2, W)), ("integers", 5),
                         ("normal", (2, W)), ("permutation", 9),
                         ("normal", (2, W)), ("choice", 10),
                         ("normal", (2, W)), ("derive", 4),
                         ("normal", (2, W))], draw)

    def test_draw_blocks_equal_single_draws_at_protocol_shape(self, draw):
        net = StochasticMlp.create(Rng(0).derive(0))
        rng, ref = Rng(7), reference(7)
        blocks = [draw(lambda: net.sample_draws(net.draw_normals(n, rng)))
                  for n in (5, 2, 2, 1)]
        for draws in blocks:
            for s in range(len(draws[0].noise)):
                for l, layer in enumerate(net.layers):
                    e = ref.standard_normal((layer.n_rows, layer.n_cols))
                    assert np.array_equal(draws[l].noise[s], e)


class TestMapInOrder:
    """``map_in_order`` returns results in input order from the calling
    thread plus one parked thread per other CPU of the budget, and counts
    the CPUs its running workers hold in ``_POOL.held``."""

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
        assert pool_at_rest()

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
        raised = threading.Event()
        failing = []    # the thread of item ``fail_at``

        def in_finish(ident):
            """Whether thread ``ident`` is inside the map's ``finish``."""
            frame = sys._current_frames().get(ident)
            while frame is not None and not (
                    frame.f_code.co_name == "finish"
                    and frame.f_code.co_filename == tensor.__file__):
                frame = frame.f_back
            return frame is not None

        def item(i):
            seen.append(tensor._POOL.held)
            if fail_at is not None and i > fail_at:
                # A thread stalled inside item ``fail_at``, before or after
                # it raises, would otherwise let the others start every
                # later item before the map records its error.
                assert raised.wait(timeout=JOIN_TIMEOUT_S)
                deadline = time.monotonic() + JOIN_TIMEOUT_S
                while in_finish(failing[0]):
                    assert time.monotonic() < deadline
                    time.sleep(1e-4)
            np.linalg.norm(np.arange(200.0))    # drops and takes the GIL
            if i == fail_at:
                failing.append(threading.get_ident())
                raised.set()
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
        assert pool_at_rest()
        if fail_at is None:
            assert outcome == [[-i for i in range(200)]]
        else:
            assert str(outcome[0]) == f"item {fail_at} failed"
            assert len(seen) < 200


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
        assert pool_at_rest()

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
        assert pool_at_rest()

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
        assert pool_at_rest()

    def test_consumer_stopping_early_leaves_no_thread(self, monkeypatch):
        one_worker_per_cpu(monkeypatch, 2)
        results = imap_in_order(lambda i: i, range(100))
        assert next(results) == 0
        results.close()
        assert pool_at_rest()

    def test_parked_threads_serve_consecutive_maps(self, monkeypatch):
        def helpers(cpus):
            """The threads other than the caller's that ran the items of
            a map whose ``cpus`` items all run at once."""
            one_worker_per_cpu(monkeypatch, cpus)
            barrier = threading.Barrier(cpus, timeout=JOIN_TIMEOUT_S)

            def item(_):
                if cpus > 1:
                    barrier.wait()
                return threading.get_ident()

            idents = set(map_in_order(item, range(cpus)))
            assert pool_at_rest()
            return idents - {threading.get_ident()}

        first = helpers(3)
        assert len(first) == 2 and helpers(3) == first
        assert {t.ident for t in pool_threads()} == first
        assert helpers(2) < first and len(pool_threads()) == 1
        assert helpers(1) == set() and pool_threads() == []

    def test_many_short_maps_under_fast_switching(self, monkeypatch):
        # Threads parked by one map and woken by the next, with more
        # workers than CPUs: a lost update of the parked list, the CPU
        # count or the finished helpers would hang, leak or add threads.
        n_workers = allowed_cpus() + 3
        one_worker_per_cpu(monkeypatch, n_workers)
        outcome = []
        alive = []      # the pool threads alive as each item computes

        def item(i, m):
            alive.append(len(pool_threads()))
            return i * m

        def run():
            for m in range(150):
                ran = []
                got = list(imap_in_order(
                    lambda i: item(i, m), range(n_workers),
                    (lambda: ran.append(m)) if m % 2 else None))
                outcome.append(got == [i * m for i in range(n_workers)]
                               and ran == [m] * (m % 2))

        caller = threading.Thread(target=run)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            caller.start()
            caller.join(timeout=JOIN_TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive() and outcome == [True] * 150
        assert len(alive) == 150 * n_workers and max(alive) <= n_workers - 1
        assert pool_at_rest() and len(pool_threads()) <= n_workers - 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_child_forked_inside_an_item_starts_with_an_empty_pool(
            self, monkeypatch):
        one_worker_per_cpu(monkeypatch, 2)

        def item(i):
            if i:
                return None
            pid = os.fork()
            if pid == 0:    # the child: no CPU held, no thread, a whole map
                pool = tensor._POOL
                ok = (pool.held == 0 and not pool.threads
                      and map_in_order(lambda j: -j, range(3)) == [0, -1, -2]
                      and pool.held == 0)
                os._exit(0 if ok else 1)
            return os.waitpid(pid, 0)[1]

        assert map_in_order(item, range(2))[0] == 0
        assert pool_at_rest()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_then_runs_as_one_more_item_not_yielded(self, cpus, monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        events = []
        drawn = threading.Event()

        def item(i):
            if cpus > 1 and i == 1:
                # The last item ends only once ``then`` has run on the
                # thread that the items leave idle.
                assert drawn.wait(timeout=JOIN_TIMEOUT_S)
            events.append(i)
            return -i

        def then():
            events.append("then")
            drawn.set()

        assert list(imap_in_order(item, range(2), then)) == [0, -1]
        assert events == ([0, 1, "then"] if cpus == 1 else [0, "then", 1])
        assert pool_at_rest()

    def test_exception_of_then_reraised(self, monkeypatch):
        one_worker_per_cpu(monkeypatch, 2)

        def then():
            raise KeyError("then failed")

        with pytest.raises(KeyError, match="then failed"):
            list(imap_in_order(lambda i: i, range(3), then))
        assert pool_at_rest()


class TestDrawAhead:
    """Successive calls take their draws in call order, each made once:
    the first inline, every later one by the ``then`` of the call before."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("calls", [1, 2, 5])
    def test_k_calls_make_k_draws_in_call_order(self, calls, cpus,
                                                monkeypatch):
        one_worker_per_cpu(monkeypatch, cpus)
        made = itertools.count()
        ahead = DrawAhead(calls)
        taken = []
        for _ in range(calls):
            this, then = ahead.take(lambda: next(made))
            taken.append(this)
            list(imap_in_order(lambda _: None, [None], then))
        assert taken == list(range(calls))
        assert next(made) == calls
        assert pool_at_rest()

    def test_first_draw_is_made_inline(self):
        made = []

        def draw():
            made.append(threading.get_ident())
            return len(made)

        this, _ = DrawAhead(3).take(draw)
        assert this == 1 and made == [threading.get_ident()]

    @pytest.mark.parametrize("calls", [1, 3])
    def test_only_the_last_call_gets_no_then(self, calls):
        ahead = DrawAhead(calls)
        thens = []
        for _ in range(calls):
            _, then = ahead.take(object)
            thens.append(then)
            if then is not None:
                then()
        assert [then is None for then in thens] == \
            [False] * (calls - 1) + [True]

    def test_keeps_no_reference_to_a_handed_out_draw(self):
        class Draw:
            pass

        ahead = DrawAhead(3)
        for _ in range(3):
            this, then = ahead.take(Draw)
            handed_out = weakref.ref(this)
            if then is not None:
                then()          # the next call's draw, held until taken
            del this
            assert handed_out() is None


def in_thread(fn):
    """``fn()`` run on a new thread."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=JOIN_TIMEOUT_S)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


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
