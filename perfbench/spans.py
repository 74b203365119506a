"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``{name, start, end, parent, op_id}``; ``parent`` is the index of
the enclosing span in the same tracer (``None`` for an op's root span) and
all spans of one benchmark op share its ``op_id``. A layer's *self time* is
its spans' duration minus the part their direct children cover. One tracer
serves one driver thread; tracers are merged when the trace is written.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op_id": self.op_id,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def child(self, name: str, seconds: float) -> None:
        """Attach a child of the open span whose duration the program itself
        measured (``maintainer.last_report``, a served query's summary)
        rather than the benchmark's clock; it is laid at the parent's start."""
        parent = self._stack[-1]
        start = self.spans[parent]["start"]
        self.spans.append(
            {"name": name, "start": start, "end": start + seconds,
             "parent": parent, "op_id": self.op_id}
        )


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self seconds per span name within one tracer's span list."""
    covered: dict[int, float] = defaultdict(float)
    for record in spans:
        if record["parent"] is not None:
            covered[record["parent"]] += record["end"] - record["start"]
    totals: dict[str, float] = defaultdict(float)
    for index, record in enumerate(spans):
        duration = record["end"] - record["start"]
        totals[record["name"]] += max(0.0, duration - covered[index])
    return dict(totals)


def merged_self_times(tracers: Iterable[Tracer]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for tracer in tracers:
        for name, seconds in self_times(tracer.spans).items():
            totals[name] += seconds
    return dict(totals)


def span_counts(tracers: Iterable[Tracer]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for tracer in tracers:
        for record in tracer.spans:
            counts[record["name"]] += 1
    return dict(counts)


def write_trace(path: str, tracers: list[Tracer], extra: Optional[dict] = None) -> None:
    """One JSON document: per-driver span lists (``parent`` indexes are
    local to each list) plus the counters the run read at the boundaries."""
    with open(path, "w") as handle:
        json.dump(
            {"drivers": [tracer.spans for tracer in tracers], **(extra or {})},
            handle,
        )
