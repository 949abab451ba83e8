"""The float64 array type, a deterministic counter-based RNG, ADAM, and the
worker pool.

Everything downstream (sampling, training, attacks) sits on these
primitives.  All arrays are 64-bit floats in C (row-major) order; the RNG is
Philox, so a seed pins the whole bit stream independent of platform.  The
pool (``imap_in_order``) runs items on the caller and on threads parked
between maps, within one CPU budget per process; ``_Pool`` owns both.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def allowed_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads() -> str | None:
    """The BLAS thread setting as OpenBLAS reads it: ``OPENBLAS_NUM_THREADS``,
    else ``OMP_NUM_THREADS``, else None."""
    return (os.environ.get("OPENBLAS_NUM_THREADS")
            or os.environ.get("OMP_NUM_THREADS"))


def default_threads() -> int:
    """The allowed CPUs while BLAS runs on one thread, else 1: workers that
    each run a multi-threaded BLAS would oversubscribe the CPUs."""
    blas = blas_threads()
    return allowed_cpus() if blas is not None and blas.strip() == "1" else 1


# glibc's mallopt parameter for the most malloc arenas of the process.
_M_ARENA_MAX = -8


@functools.cache
def _one_malloc_arena():
    """Let threads allocate from the main thread's glibc malloc arena, not
    from arenas of their own.  An arena keeps the peak of what its threads
    allocated, and another thread cannot reuse it: a pool thread running
    PGD blocks at B=1000 kept 24 MB.  Run before the first thread that this
    module starts, as arenas that exist stay in use; nothing without glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


class Rng:
    """Deterministic random stream keyed by (seed, spawn path).

    Same ``seed`` gives a bit-identical stream; ``derive`` produces an
    independent child stream addressed by integer tags, which is how trials,
    epochs, and evaluation draws get their own reproducible randomness.

    An ``Rng`` is used by one thread at a time, whichever thread it is:
    ``imap_in_order`` hands one from worker to worker under its lock.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(t) for t in _spawn_key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def derive(self, *tags: int) -> "Rng":
        """Independent child stream; deterministic in (seed, tags)."""
        return Rng(self.seed, self.spawn_key + tuple(tags))

    def standard_normal(self, *shape: int) -> Array:
        return self._gen.standard_normal(shape, dtype=np.float64)

    def uniform(self, low: float, high: float, shape) -> Array:
        return self._gen.uniform(low, high, shape)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> Array:
        return self._gen.choice(n, size=size, replace=replace)

    def __repr__(self):
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"


class _Pool:
    """The worker pool of ``imap_in_order``: the process's CPU budget and
    the threads that help its maps, all under one lock.

    ``held`` counts the CPUs of the budget held by callers of a map and by
    the threads that compute its items.  Each thread is started once and
    then parked between the maps it helps, with no CPU, so that a map
    wakes a thread where it would start one.  On a 2-vCPU VM a map of two
    7 ms GEMM items took 9.1-9.7 ms with a parked thread, 9.9-10.7 ms with
    a thread started per map and 15.5-16.3 ms as a plain loop (medians of
    200 maps, 3 processes each).  A woken thread runs where the scheduler
    puts it: moving it off the caller's CPU gained nothing measurable.  A
    map wakes threads only for CPUs of the budget, so no more of them exist
    than ``size - 1`` once ``reserve`` has ended those that a smaller budget
    leaves over."""

    def __init__(self):
        self._lock = threading.Lock()
        self.size = 0           # the budget, in CPUs
        self.held = 0           # CPUs of the budget held
        self.threads = {}       # job queue -> thread, for each not ended
        self.parked = []        # the job queues of the parked ones
        self._local = threading.local()     # .cpu: this thread holds one

    @contextmanager
    def reserve(self, n_items):
        """CPUs for a map over ``n_items`` items (None: not known); yields
        how many threads the map may wake, each of which holds one of them
        until it parks.  A caller outside every map sets the budget to
        ``default_threads()`` while none runs, and holds a CPU itself until
        the map ends; a pool thread already holds one.  The threads get
        only CPUs the budget leaves free, so a map nested in a full one
        wakes none."""
        ended = []
        with self._lock:
            outside = not getattr(self._local, "cpu", False)
            if outside:
                if self.held == 0:
                    self.size = default_threads()
                self.held += 1
            extra = self.size - self.held
            if n_items is not None:
                extra = min(extra, n_items - 1)
            extra = max(0, extra)
            self.held += extra
            while len(self.threads) >= self.size and self.parked:
                jobs = self.parked.pop(0)
                jobs.put(None)
                ended.append(self.threads.pop(jobs))
        self._local.cpu = True
        try:
            for thread in ended:
                thread.join()
            yield extra
        finally:
            if outside:
                self._local.cpu = False
                self.add(-1)

    def add(self, n: int):
        """Count ``n`` more CPUs (or give back ``-n``) as held."""
        with self._lock:
            self.held += n

    def wake(self, helper, done):
        """Run ``helper()`` on a parked thread, or on a new one if none is
        parked, with a CPU its map reserved; then park the thread, give the
        CPU back and call ``done()``."""
        with self._lock:
            if self.parked:
                jobs = self.parked.pop()
            else:
                jobs = queue.SimpleQueue()
                _one_malloc_arena()
                self.threads[jobs] = threading.Thread(
                    target=self._serve, name="infmix-worker", args=(jobs,),
                    daemon=True)
                self.threads[jobs].start()
        jobs.put((helper, done))

    def _serve(self, jobs):
        self._local.cpu = True      # whenever it computes, it holds one
        while (job := jobs.get()) is not None:
            helper, done = job
            job = None
            try:
                helper()
            finally:
                with self._lock:
                    self.parked.append(jobs)
                    self.held -= 1
            done()
            # Parked with nothing of the map: its items' arrays would
            # otherwise stay alive until the next job.
            helper = done = None


_POOL = _Pool()
# A forked child has none of the threads and holds none of the CPUs.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOL.__init__)

# The item that runs ``imap_in_order``'s ``then``.
_THEN = object()


def imap_in_order(fn, items, then=None):
    """Yield ``fn(item)`` for each of ``items``, in their order, computed by
    the calling thread and as many parked threads as the CPU budget leaves
    CPUs free (``_Pool``).

    Items are taken one at a time, in order, under the map's own lock, so
    an iterator that draws from an ``Rng`` draws what a plain loop would
    draw; two maps that may run at once must not share one, and none does.
    Each thread computes one item at a time, so at most as many items as
    the pool has threads are computing, and a finished item waits for its
    turn only as its result.  While the calling thread waits for another
    thread's item with none left to take, its CPU is free for pools nested
    in the others.  ``then()``, if given, runs as one more item after the
    last, whose result is not yielded: work for a CPU that the last items
    leave idle.
    After an item raises, no item starts, and the first exception is
    re-raised once every thread of the pool has parked.
    """
    n_items = len(items) if hasattr(items, "__len__") else None
    items = iter(items)
    if then is not None:
        items = itertools.chain(items, [_THEN])
        n_items = None if n_items is None else n_items + 1
    cond = threading.Condition()
    done = {}           # index -> result of a finished item not yet yielded
    errors = []
    taken = 0
    exhausted = False
    finished = 0        # helpers whose threads have parked

    def take():
        """Under ``cond``: the next (index, item), or None if none may start."""
        nonlocal taken, exhausted
        if exhausted or errors:
            return None
        try:
            item = next(items)
        except StopIteration:
            exhausted = True
            return None
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)
            cond.notify_all()
            return None
        taken += 1
        return taken - 1, item

    def finish(index, item):
        try:
            if item is _THEN:
                then()
                result = _THEN
            else:
                result = fn(item)
        except BaseException as exc:  # re-raised in the caller
            with cond:
                errors.append(exc)
                cond.notify_all()
            return
        with cond:
            done[index] = result
            cond.notify_all()

    def helper():
        while True:
            with cond:
                job = take()
            if job is None:
                return
            finish(*job)
            job = None      # drop the item before the next is taken

    def parked():
        nonlocal finished
        with cond:
            finished += 1
            cond.notify_all()

    with _POOL.reserve(n_items) as extra:
        started = 0
        try:
            for _ in range(extra):
                _POOL.wake(helper, parked)
                started += 1
            index = 0
            while True:
                with cond:
                    job = None
                    while index not in done and not errors:
                        job = take()
                        if job is not None or index == taken or errors:
                            break
                        _POOL.add(-1)   # lent while another computes it
                        try:
                            cond.wait()
                        finally:
                            _POOL.add(1)
                    if errors:
                        raise errors[0]
                    if job is None:
                        if index not in done:
                            return
                        result = done.pop(index)
                if job is not None:
                    finish(*job)
                    continue
                if result is not _THEN:
                    yield result
                result = None
                index += 1
        finally:
            with cond:
                exhausted = True    # the consumer may stop early
                while finished < started:
                    cond.wait()
            _POOL.add(started - extra)  # helpers that never started


class DrawAhead:
    """``calls`` successive calls that each take a fresh draw.  The first
    call makes its draw inline; each call but the last makes the next
    call's as one more item of its pool (``imap_in_order``'s ``then``): on
    a CPU that its last items leave idle, or, under a full pool, inline
    after them.  These draws alone call ``draw``, in call order, so every
    bit is what drawing in each call gives."""

    def __init__(self, calls: int):
        self.calls = calls
        self._next = []         # the next call's draw, once made

    def take(self, draw):
        """(this call's draw, the ``then`` that makes the next call's with
        ``draw()``, or None for the last call).  Keeps no reference to the
        draw it hands out."""
        this = self._next.pop() if self._next else draw()
        self.calls -= 1
        if self.calls < 1:
            return this, None
        return this, lambda: self._next.append(draw())


def map_in_order(fn, items) -> list:
    """``[fn(item) for item in items]``, computed by ``imap_in_order``."""
    return list(imap_in_order(fn, items))


@dataclass
class AdamState:
    """Per-parameter-block ADAM accumulators (Kingma & Ba, bias-corrected)."""

    m: Array
    v: Array
    t: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_shape(cls, shape, learning_rate: float = 1e-3) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape),
                   learning_rate=learning_rate)


def adam_step(state: AdamState, params: Array, grads: Array,
              name: str = "params") -> Array:
    """One ADAM update; returns the new parameter values.

    ``params`` and ``grads`` must have the same shape.  NaN/inf gradients
    abort with the offending block named, since silent propagation would
    poison the moment accumulators.
    """
    if params.shape != grads.shape:
        raise ValueError(
            f"param/grad shape mismatch in block '{name}': "
            f"{params.shape} vs {grads.shape}")
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError(f"non-finite gradient in block '{name}'")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    return params - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
