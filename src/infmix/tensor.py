"""The float64 array type, a deterministic counter-based RNG, ADAM, and the
worker pool.

Everything downstream (sampling, training, attacks) sits on these
primitives.  All arrays are 64-bit floats in C (row-major) order; the RNG is
Philox, so a seed pins the whole bit stream independent of platform.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Rows at least this wide are drawn ahead.  A thread start and join take
# about 87 us and a Philox state copy about 4 us, while 2^14 normals take
# about 0.35 ms, so narrower rows are not worth a worker.
READ_AHEAD_WIDTH = 1 << 14
# A read-ahead whose worker, or the thread it serves, gets less than this
# share of a CPU (thread CPU time over wall time) takes turns on a CPU with
# other busy threads, or on a VM shares a host CPU, and so takes the time it
# saves from the thread it serves.  Workers with a CPU of their own measured
# shares around 0.95-1.0, and those queued behind the thread they serve 0.5.
MIN_CPU_SHARE = 0.75
# Reading ahead stops when the last share and most of this many recent
# ones fall short, and resumes after one that does not.
PAYOFF_WINDOW = 3
# While reading ahead does not pay, a wide request still reads ahead after
# PROBE_EVERY others, so that a CPU that comes free again is noticed; each
# probe that falls short doubles the wait, up to MAX_PROBE_EVERY.  Probes
# cost a little: with a busy loop on the second of two CPUs, probing every
# 16th or 32nd request made `train` 1-5% slower than never reading ahead.
PROBE_EVERY = 16
MAX_PROBE_EVERY = 128


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


def _start_thread(target, name: str, args=()) -> threading.Thread:
    _one_malloc_arena()
    thread = threading.Thread(target=target, name=name, args=args)
    thread.start()
    return thread


def _current_cpu():
    """The CPU the calling thread runs on, or None where ``/proc`` does not
    say (field 39 of ``/proc/thread-self/stat`` on Linux)."""
    try:
        with open("/proc/thread-self/stat", "rb") as f:
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _keep_off(cpu):
    """Let the calling thread run anywhere it may except on ``cpu``.  A new
    thread is otherwise often started on the CPU of the thread that started
    it and waits there while another CPU idles."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    others = os.sched_getaffinity(0) - {cpu}
    if others:
        os.sched_setaffinity(0, others)


def _cpu_share(start) -> float:
    """The calling thread's CPU time over the wall time since ``start``, a
    ``(time.thread_time(), time.perf_counter())`` pair it took."""
    cpu, wall = time.thread_time() - start[0], time.perf_counter() - start[1]
    return cpu / wall if wall > 0 else 1.0


class _Payoff:
    """Whether reading ahead pays now, and the process's CPU budget for the
    worker pools of ``imap_in_order``.

    Reading ahead needs an allowed CPU that the CPUs held by running pool
    workers, or else the one served thread, leave idle.  Then it is judged
    by the CPU shares (thread CPU time over wall time) of recent
    read-aheads: each the lesser of the read-ahead thread's during its fill
    and the served thread's while it ran.  A CPU listed in the affinity mask
    may be busy with other threads of this or another process (BLAS
    threads) or, on a VM, share its host CPU with another vCPU; the shares
    measure all of these.  Shared by every ``Rng`` and pool of the process;
    the budget is kept under a lock, and a lost update of the shares from a
    racing thread only shifts the timing."""

    def __init__(self):
        self.shares = ()
        self.skipped = 0
        self.probe_every = PROBE_EVERY
        self.workers = 0        # CPUs held by running pool workers
        self.size = 0           # the budget they are held from
        self._lock = threading.Lock()
        self._held = threading.local()  # whether this thread holds a CPU

    @contextmanager
    def reserve(self, n_items):
        """CPUs for a pool over ``n_items`` items (None: not known); yields
        how many threads the pool may start, each of which holds one of
        them (``holding``) until it ends.  A caller outside every pool sets
        the budget to ``default_threads()`` while none runs, and holds a CPU
        itself until the pool ends; a pool worker already holds one.  The
        threads get only CPUs the budget leaves free, so a pool nested in a
        full one starts none."""
        with self._lock:
            outside = not getattr(self._held, "cpu", False)
            if outside:
                if self.workers == 0:
                    self.size = default_threads()
                self.workers += 1
            extra = self.size - self.workers
            if n_items is not None:
                extra = min(extra, n_items - 1)
            extra = max(0, extra)
            self.workers += extra
        self._held.cpu = True
        try:
            yield extra
        finally:
            if outside:
                self._held.cpu = False
                self.add(-1)

    @contextmanager
    def holding(self):
        """The calling pool thread holds one of its pool's reserved CPUs
        until the block ends."""
        self._held.cpu = True
        try:
            yield
        finally:
            self.add(-1)

    def add(self, n: int):
        """Count ``n`` more CPUs (or give back ``-n``) as held."""
        with self._lock:
            self.workers += n

    def record(self, share: float):
        self.shares = (self.shares + (share,))[-PAYOFF_WINDOW:]

    def pays(self) -> bool:
        if max(self.workers, 1) >= allowed_cpus():
            return False
        good = [share >= MIN_CPU_SHARE for share in self.shares]
        if len(good) < PAYOFF_WINDOW or good[-1] or 2 * sum(good) > len(good):
            self.probe_every = PROBE_EVERY
            return True
        self.skipped += 1
        if self.skipped < self.probe_every:
            return False
        self.skipped = 0
        self.probe_every = min(2 * self.probe_every, MAX_PROBE_EVERY)
        return True


_PAYOFF = _Payoff()


class _ReadAhead:
    """The rows a Philox stream draws next, filled on a worker thread from a
    copy of its state into ``rows``; ``state`` is the state after them.
    ``join`` re-raises whatever the worker raised and otherwise, when called
    by the thread that made it, records the read-ahead's CPU share: another
    thread's CPU time says nothing about the served thread's."""

    def __init__(self, clone, state: dict, rows: Array):
        self.rows = rows
        self.state = None
        self.error = None
        self.share = None       # the worker's, during its fill
        self._served = threading.get_ident()
        self._start = time.thread_time(), time.perf_counter()
        self._thread = _start_thread(self._fill, "infmix-rng-read-ahead",
                                     (clone, state, _current_cpu()))

    def _fill(self, clone, state, consumer_cpu):
        try:
            _keep_off(consumer_cpu)
            clone.bit_generator.state = state
            start = time.thread_time(), time.perf_counter()
            clone.standard_normal(out=self.rows)
            self.share = _cpu_share(start)
            self.state = clone.bit_generator.state
        except BaseException as exc:  # re-raised by join, in the consumer
            self.error = exc

    def join(self):
        served = (_cpu_share(self._start)
                  if threading.get_ident() == self._served else None)
        self._thread.join()
        if self.error is not None:
            raise self.error
        if served is not None:
            _PAYOFF.record(min(self.share, served))


class Rng:
    """Deterministic random stream keyed by (seed, spawn path).

    Same ``seed`` gives a bit-identical stream; ``derive`` produces an
    independent child stream addressed by integer tags, which is how trials,
    epochs, and evaluation draws get their own reproducible randomness.

    Philox is counter-based, so a copy of its state draws exactly what the
    stream draws next.  After serving an (n, w) request with w at least
    ``READ_AHEAD_WIDTH``, while reading ahead pays (``_Payoff``), the stream
    draws the next (n, w) normals from such a copy on a worker thread.  A
    later request of the same shape takes them; any other call drops them,
    so no call pattern changes a single bit.  An ``Rng`` is used by one
    thread at a time; ``imap_in_order`` hands one from worker to worker
    under its lock.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(t) for t in _spawn_key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.Philox(ss))
        self._clone = None      # the read-ahead's generator, made on first use
        self._ahead = None      # the pending _ReadAhead

    def derive(self, *tags: int) -> "Rng":
        """Independent child stream; deterministic in (seed, tags)."""
        return Rng(self.seed, self.spawn_key + tuple(tags))

    def _drop_ahead(self):
        """The pending read-ahead, finished, or None; the stream no longer
        holds it.  Re-raises an exception of its worker."""
        ahead, self._ahead = self._ahead, None
        if ahead is not None:
            ahead.join()
        return ahead

    def standard_normal(self, *shape: int) -> Array:
        wide = len(shape) == 2 and shape[0] > 0 and shape[1] >= READ_AHEAD_WIDTH
        if self._ahead is None and not wide:
            return self._gen.standard_normal(shape, dtype=np.float64)
        ahead = self._drop_ahead()
        if ahead is not None and ahead.rows.shape == shape:
            out = ahead.rows
            self._gen.bit_generator.state = ahead.state
        else:
            out = self._gen.standard_normal(shape, dtype=np.float64)
        if wide and _PAYOFF.pays():
            if self._clone is None:
                self._clone = np.random.Generator(np.random.Philox())
            self._ahead = _ReadAhead(self._clone, self._gen.bit_generator.state,
                                     np.empty(shape))
        return out

    def uniform(self, low: float, high: float, shape) -> Array:
        self._drop_ahead()
        return self._gen.uniform(low, high, shape)

    def permutation(self, n: int) -> Array:
        self._drop_ahead()
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, size=None):
        self._drop_ahead()
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> Array:
        self._drop_ahead()
        return self._gen.choice(n, size=size, replace=replace)

    def __repr__(self):
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"


def imap_in_order(fn, items):
    """Yield ``fn(item)`` for each of ``items``, in their order, computed by
    the calling thread and as many threads as the CPU budget leaves free
    (``_Payoff.reserve``).

    Items are taken one at a time, in order, under the pool's lock, so an
    iterator that draws from an ``Rng`` draws what a plain loop would draw.
    Each thread computes one item at a time, so at most as many items as
    the pool has threads are computing, and a finished item waits for its
    turn only as its result.  While the calling thread waits for another
    thread's item with none left to take, its CPU is free for pools nested
    in the others.
    After an item raises, no item starts, and the first exception is
    re-raised once every thread has stopped.
    """
    n_items = len(items) if hasattr(items, "__len__") else None
    items = iter(items)
    cond = threading.Condition()
    done = {}           # index -> result of a finished item not yet yielded
    errors = []
    taken = 0
    exhausted = False

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
        with _PAYOFF.holding():
            while True:
                with cond:
                    job = take()
                if job is None:
                    return
                finish(*job)
                job = None      # drop the item before the next is taken

    with _PAYOFF.reserve(n_items) as extra:
        helpers = []
        try:
            for _ in range(extra):
                helpers.append(_start_thread(helper, "infmix-worker"))
            index = 0
            while True:
                with cond:
                    job = None
                    while index not in done and not errors:
                        job = take()
                        if job is not None or index == taken or errors:
                            break
                        _PAYOFF.add(-1)     # lent while another computes it
                        try:
                            cond.wait()
                        finally:
                            _PAYOFF.add(1)
                    if errors:
                        raise errors[0]
                    if job is None:
                        if index not in done:
                            return
                        result = done.pop(index)
                if job is not None:
                    finish(*job)
                    continue
                yield result
                result = None
                index += 1
        finally:
            with cond:
                exhausted = True    # the consumer may stop early
            _PAYOFF.add(len(helpers) - extra)   # threads that never started
            for thread in helpers:
                thread.join()


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
    def for_shape(cls, shape, learning_rate: float = 1e-3,
                  beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0,
                   learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps)


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
