"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: for the length of the traced
run, each traced public function is replaced by a wrapper that records
(name, start, end, parent).  The spans of one op are kept until the op ends
and are then folded into per-name totals: calls, inclusive time and self
time.  A span's self time is its duration minus the durations of its direct
children; the benchmark runs one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import time


class SpanRecorder:
    def __init__(self):
        # one entry per span of the current op; wrappers append to these
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.bytes: dict[str, int] = {}
        self.first_op: list[tuple[str, int, int, int]] | None = None

    def wrap(self, name, fn, size=None):
        """Traced stand-in for fn.  size(args, result), if given, returns the
        bytes the call produced and is evaluated after the span ends."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if size is not None:
                self.bytes[name] = self.bytes.get(name, 0) + size(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def fold(self) -> list[tuple[str, int, int, int]]:
        """Add the finished op's spans to the totals, clear the buffer, and
        return the spans as (name, start_ns, end_ns, parent_index)."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        covered = [0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        for i, name in enumerate(names):
            dur = ends[i] - starts[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + dur
            self.self_ns[name] = self.self_ns.get(name, 0) + dur - covered[i]
        spans = list(zip(names, starts, ends, parents))
        if self.first_op is None:
            self.first_op = spans
        for buf in (names, starts, ends, parents):
            buf.clear()
        return spans

    @contextlib.contextmanager
    def installed(self, targets):
        """Replace each (owner, attribute, span name, size) target by its
        traced wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, size in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, size))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
