"""In-memory span tracer that wraps library functions from outside.

The tracer replaces module attributes (the names a calling module holds,
such as ``harness.step``) with timing wrappers while it is installed, and
puts the originals back when it is removed.  Every call adds to a per-name
aggregate of calls, total time and self time (total minus the time of the
traced calls made inside it).  Calls of names marked ``keep_spans`` are also
kept as individual spans with their parent, so that they can be written out
when the run ends; per-step names keep only their aggregate, because a run
makes millions of those calls.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Aggregate:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class _Frame:
    name: str
    start_ns: int
    child_ns: int = 0


@dataclass
class Tracer:
    aggregates: dict = field(default_factory=dict)
    by_parent: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _targets: list = field(default_factory=list)
    _installed: list = field(default_factory=list)

    def add(self, module, attr: str, name: str, *, keep_spans=False, on_return=None):
        """Register a wrapper for ``module.attr`` recorded under ``name``.

        on_return(result, args, kwargs) runs after the call, inside a span of
        its own named ``trace.analysis`` so its cost is not charged to the
        traced function or its caller's self time.
        """
        if not callable(getattr(module, attr, None)):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        self._targets.append((module, attr, name, keep_spans, on_return))

    def install(self) -> None:
        for module, attr, name, keep_spans, on_return in self._targets:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, keep_spans, on_return))
            self._installed.append((module, attr, original))

    def remove(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    @contextlib.contextmanager
    def paused(self):
        """Run a block with the originals back in place, e.g. around a fork."""
        self.remove()
        try:
            yield
        finally:
            self.install()

    @contextlib.contextmanager
    def span(self, name: str, keep=True):
        """Time a block of the benchmark's own code as a span."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit(keep)

    def _enter(self, name: str) -> None:
        self._stack.append(_Frame(name, time.perf_counter_ns()))

    def _exit(self, keep: bool) -> None:
        end = time.perf_counter_ns()
        frame = self._stack.pop()
        total = end - frame.start_ns
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += total
        agg = self.aggregates.setdefault(frame.name, Aggregate())
        agg.calls += 1
        agg.total_ns += total
        agg.self_ns += total - frame.child_ns
        key = (parent.name if parent else "", frame.name)
        self.by_parent[key] = self.by_parent.get(key, 0) + total
        if keep:
            self.spans.append(
                (frame.name, frame.start_ns, end, parent.name if parent else None)
            )

    def _wrap(self, fn, name, keep_spans, on_return):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(keep_spans)
            if on_return is not None:
                enter("trace.analysis")
                try:
                    on_return(result, args, kwargs)
                finally:
                    exit_(False)
            return result

        traced.__wrapped__ = fn
        return traced

    def total_s(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg.total_ns / 1e9 if agg else 0.0

    def self_s(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg.self_ns / 1e9 if agg else 0.0

    def calls(self, name: str) -> int:
        agg = self.aggregates.get(name)
        return agg.calls if agg else 0

    def child_s(self, parent: str, child: str) -> float:
        return self.by_parent.get((parent, child), 0) / 1e9

    def dump(self) -> dict:
        """Aggregates and kept spans as plain JSON-ready data."""
        origin = min((s[1] for s in self.spans), default=0)
        return {
            "aggregates": {
                name: {
                    "calls": a.calls,
                    "total_s": a.total_ns / 1e9,
                    "self_s": a.self_ns / 1e9,
                }
                for name, a in sorted(self.aggregates.items())
            },
            "absent": sorted(self.absent),
            "spans": [
                {
                    "name": name,
                    "start_s": (start - origin) / 1e9,
                    "end_s": (end - origin) / 1e9,
                    "parent": parent,
                }
                for name, start, end, parent in self.spans
            ],
        }
