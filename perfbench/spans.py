"""In-memory span tracer for the benchmark's traced mode.

The ``infmix`` modules import names from each other directly (``objectives``
calls its own ``backward``, bound from ``network`` at import time), so a
function is traced by replacing it under every name a caller looks it up by:
each ``infmix`` module attribute bound to the original function, or the class
attribute for a method.  The program's source is not edited; ``uninstall``
puts every original back.

A span is ``[name_index, start_ns, end_ns, parent_index, work, failed]``.
``work`` is a count (normals drawn, GEMM flops) that the layer's optional
``work(result, *args, **kwargs)`` function computes from what the call
returned and the shapes it was given: a number, or a tuple of parts that are
also summed per parent span.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One traced boundary: ``owner.attr`` recorded as span ``name``."""

    name: str
    owner: object           # a module (function) or a class (method)
    attr: str
    work: Callable | None = None


class Tracer:
    def __init__(self, layers):
        self.layers = list(layers)
        self.names = list(dict.fromkeys(layer.name for layer in self.layers))
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name_index, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name_index, 0, 0, stack[-1] if stack else -1, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                # BaseException (the benchmark's own loop stop) is no failure.
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if work:
                span[4] = work(result, *args, **kwargs)
            return result

        return traced

    def wrap(self, name: str, fn):
        """``fn`` traced as span ``name``, for the benchmark's own code called
        from inside a traced function, so that its time is not counted in
        that function's self time."""
        if name not in self.names:
            self.names.append(name)
        return self._wrap(self.names.index(name), fn, None)

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "infmix" or key.startswith("infmix."))]
        for layer in self.layers:
            original = getattr(layer.owner, layer.attr)
            wrapper = self._wrap(self.names.index(layer.name), original, layer.work)
            if isinstance(layer.owner, type):
                targets = [(layer.owner, layer.attr)]
            else:
                targets = [(m, key) for m in modules
                           for key, value in vars(m).items() if value is original]
            for obj, key in targets:
                self._undo.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self):
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summarize(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name over ``spans[first:last]``: calls, inclusive and self
        nanoseconds, work, failures, and inclusive ns and work parts keyed by
        parent name.

        Self time is a span's duration minus the durations of its children.
        """
        last = len(self.spans) if last is None else last
        child_ns = {}
        for span in self.spans[first:last]:
            if span[3] >= 0:
                child_ns[span[3]] = child_ns.get(span[3], 0) + span[2] - span[1]
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0, "work": 0, "failed": 0,
                      "ns_by_parent": {}, "work_by_parent": {}}
               for name in self.names}
        root_ns = 0
        for index in range(first, last):
            name_index, start, end, parent, work, failed = self.spans[index]
            entry = out[self.names[name_index]]
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += end - start - child_ns.get(index, 0)
            parts = work if isinstance(work, tuple) else (work,)
            entry["work"] += sum(parts)
            entry["failed"] += failed
            parent_name = self.names[self.spans[parent][0]] if parent >= 0 else None
            by_parent = entry["ns_by_parent"]
            by_parent[parent_name] = by_parent.get(parent_name, 0) + end - start
            sums = entry["work_by_parent"].setdefault(parent_name, [0] * len(parts))
            for i, part in enumerate(parts):
                sums[i] += part
            if parent < 0:
                root_ns += end - start
        return {"layers": out, "root_ns": root_ns}

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent",
                                  "work", "failed"],
                       "spans": self.spans}, f)
