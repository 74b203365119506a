"""Path index initialization — Algorithm 2 of the paper.

The new index's pattern is queried on the existing data graph and the result
set is added entry by entry ("our more naive approach", §4.1.2 — the paper
notes bulk-loading a B+-tree from sorted results was not practical in their
code base either). Other, already-initialized indexes may be used by the
planner while answering the initialization query; the index being built is
forbidden.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.db.patternquery import PatternQueries
from repro.pathindex.index import PathIndex
from repro.planner import PlannerHints
from repro.resources import KEY_BYTES, NULL_TRACKER


@dataclass(frozen=True)
class InitializationStats:
    """What Table 2/6/9/12 report per index."""

    index_name: str
    cardinality: int
    size_on_disk: int
    total_data_size: int
    seconds: float


def initialize_index(
    queries: PatternQueries,
    index: PathIndex,
    hints: Optional[PlannerHints] = None,
    tracker=None,
) -> InitializationStats:
    """Populate ``index`` by querying its pattern (Algorithm 2) through the
    database's prepared pattern queries.

    ``tracker`` (a :class:`repro.resources.MemoryTracker`) accounts the
    transient build cost against the memory pool: one :data:`KEY_BYTES`
    charge per entry. Entries land in the index itself, so the build cannot
    spill — exhausting the pool fails the build fast with
    ``MemoryLimitExceeded``, and the caller rolls the half-built index
    back. The caller owns (and closes) the tracker.
    """
    tracker = tracker if tracker is not None else NULL_TRACKER
    hints = (hints or PlannerHints()).forbidding(index.name)
    started = time.perf_counter()
    entries = queries.run(index.pattern, hints=hints)
    label = f"index build: {index.name}"
    for entry in entries:
        tracker.charge(label, KEY_BYTES)
        index.add(entry)
    elapsed = time.perf_counter() - started
    return InitializationStats(
        index_name=index.name,
        cardinality=index.cardinality,
        size_on_disk=index.size_on_disk(),
        total_data_size=index.total_data_size(),
        seconds=elapsed,
    )
