"""In-memory spans around the benchmark's calls into the library.

A span records its name, start and end (perf_counter_ns), the index of its
parent span and the op id it belongs to, plus whether the call raised.
Spans stay in a list until the run ends and are then written out whole.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

NAME, START, END, PARENT, OP, RAISED = range(6)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, perf_counter_ns(), 0, parent, tr.op, False])
        tr.stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        record = tr.spans[self.index]
        record[END] = perf_counter_ns()
        record[RAISED] = exc_type is not None
        tr.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times_ns(self) -> dict[str, list[int]]:
        """Self time of every span, grouped by name.

        One thread records all spans, so the children of a span run one
        after another inside it and never overlap: the part of its interval
        they cover is the sum of their durations.
        """
        covered = [0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                covered[record[PARENT]] += record[END] - record[START]
        out: dict[str, list[int]] = {}
        for record, child_ns in zip(self.spans, covered):
            out.setdefault(record[NAME], []).append(record[END] - record[START] - child_ns)
        return out

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op", "raised"]) + "\n")
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    _SPAN = _NullSpan()
    op = -1

    def span(self, name: str) -> _NullSpan:
        return self._SPAN
