"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its calls into each eqsim
layer; nothing inside the library is instrumented.  A disabled recorder
hands out one shared no-op context, so untraced ops pay a single
attribute test per span.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("_rec", "_index")

    def __init__(self, rec: "SpanRecorder", name: str):
        self._rec = rec
        stack = rec._stack
        parent = stack[-1] if stack else -1
        self._index = len(rec.spans)
        rec.spans.append([name, 0.0, 0.0, parent, rec.op])

    def __enter__(self):
        self._rec._stack.append(self._index)
        self._rec.spans[self._index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._rec.spans[self._index][2] = time.perf_counter()
        self._rec._stack.pop()
        return False


class SpanRecorder:
    """Records (name, start, end, parent index, op id) while `enabled`."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.op: object = None
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self) -> dict:
        """op id -> span name -> summed self time in ms.

        A span's self time is its duration minus the durations of its
        direct children, which the single-threaded driver nests strictly.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[op][name] += (end - start - child_time[i]) * 1e3
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
