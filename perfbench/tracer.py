"""In-memory span tracer installed around bclab's public functions.

bclab imports names with ``from .x import y``, which copies each binding into
the importing module, so a wrapper placed only on the defining module would be
bypassed. ``Tracer.install`` therefore rebinds every module attribute (and the
package namespace) that refers to a wrapped function.

Each call of a timed function records one span: name, parent span, wall start
and end (``perf_counter``) and the calling thread's CPU time at both ends.
Functions of the ``model`` layer are called 10^5-10^6 times per workload and
only count their calls; their time stays in the caller's self time. Spans
opened in a thread with no open span of its own (the ``harness`` row pool) are
parented to the innermost open span of the thread that created the tracer.
Spans stay in memory; ``spans`` is read after the traced region ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("model", "minimize", "phase", "finite_size", "quadrature", "sequences",
          "harness", "cli")
COUNT_ONLY_LAYERS = frozenset({"model"})


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    cpu: float           # CPU time of the calling thread over the span
    thread: int
    args: tuple
    kwargs: dict
    result: object = None


class Tracer:
    def __init__(self, capture=()):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.capture = frozenset(capture)   # span names that keep args and result
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._root = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        root = self._stacks.get(self._root)
        return root[-1] if root else None

    def wrap(self, name: str, fn):
        counts = self.counts
        if name.split(".", 1)[0] in COUNT_ONLY_LAYERS:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        keep = name in self.capture

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            sid = next(self._ids)
            parent = self._parent(stack)
            stack.append(sid)
            counts[name] += 1
            c0 = time.thread_time()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                self.spans.append(Span(sid, parent, name, t0, t1, c1 - c0, tid,
                                       args if keep else (), kwargs if keep else {},
                                       result if keep else None))
        return timed

    def install(self) -> dict[str, object]:
        """Wrap every public function of every layer at each of its bindings.

        Returns the map from span name to wrapper; ``uninstall`` undoes it.
        """
        import bclab
        modules = {layer: importlib.import_module(f"bclab.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        names: dict[str, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = names[name] = self.wrap(name, obj)
        for mod in (*modules.values(), bclab):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return names

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall self time of each span: its duration minus the union of the
    intervals its child spans cover (children may overlap when they run in
    different threads)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def self_cpu(spans: list[Span]) -> dict[int, float]:
    """CPU self time of each span: its thread's CPU time minus that of its
    children in the same thread (a child in another thread is charged to
    that thread only)."""
    thread_of = {s.sid: s.thread for s in spans}
    out = {s.sid: s.cpu for s in spans}
    for s in spans:
        if s.parent in out and thread_of[s.parent] == s.thread:
            out[s.parent] -= s.cpu
    return out
