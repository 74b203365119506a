"""Query results: a timed iterator over projected rows.

The benchmark methodology of the paper reports "the time between submitting
the query and the first or last result to be received from the result
iterator" (§7.1.1). :class:`Result` records exactly those two timestamps as
the caller pulls rows.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Iterator, Optional, Sequence

from repro.planner.plans import LogicalPlan
from repro.runtime.executor import ExecutionProfile


class Result:
    """Iterator over result rows with first/last-result timing."""

    def __init__(
        self,
        rows: Iterator[tuple],
        columns: Sequence[str],
        profile: ExecutionProfile,
        submitted_at: float,
        extra_seconds: float = 0.0,
    ) -> None:
        self._rows = rows
        self.columns = list(columns)
        self.profile = profile
        # Generated with the plan's code: one dict per column tuple, keyed
        # by the plan's columns in order.
        self._dicts = profile.dicts
        self._submitted_at = submitted_at
        self._extra_seconds = extra_seconds
        self._first_at: Optional[float] = None
        self._last_at: Optional[float] = None
        self._count = 0
        self._exhausted = False
        #: Log sequence number of the commit this (write) query produced, a
        #: read-your-writes token for replication catch-up. ``None`` for
        #: reads, non-durable databases, and writes that changed nothing.
        self.commit_lsn: Optional[int] = None

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def __iter__(self) -> "Result":
        return self

    def __next__(self) -> dict[str, object]:
        try:
            row = next(self._rows)
        except StopIteration:
            self._exhaust()
            raise
        now = time.perf_counter()
        if self._first_at is None:
            self._first_at = now
        self._last_at = now
        self._count += 1
        return self._dicts((row,))[0]

    def close(self) -> None:
        """Stop reading: the rows still to come are dropped, which releases
        the query's memory grant and spill files (as draining does)."""
        self._rows = iter(())
        self._exhaust()

    def _exhaust(self) -> None:
        if not self._exhausted:
            self._last_at = time.perf_counter()
            self._exhausted = True

    def consume(self) -> int:
        """Drain the iterator; returns the number of rows."""
        self._first()
        self._count += sum(1 for _ in self._rows)
        self._exhaust()
        return self._count

    def to_list(self) -> list[dict[str, object]]:
        """The rows still to come, drained in bulk: no per-row clock read."""
        out = self._first()
        rest = self._dicts(self._rows)
        self._count += len(rest)
        self._exhaust()
        return out + rest

    def _first(self) -> list[dict[str, object]]:
        """The first row of the result, pulled through ``__next__`` so it
        is timed, when it is still to come."""
        if self._first_at is not None:
            return []
        return list(islice(self, 1))

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def time_to_first_result(self) -> float:
        """Seconds from submission to the first row (query time for empty
        results)."""
        anchor = self._first_at if self._first_at is not None else self._last_at
        if anchor is None:
            return 0.0
        return anchor - self._submitted_at + self._extra_seconds

    @property
    def time_to_last_result(self) -> float:
        """Seconds from submission until the iterator was exhausted."""
        if self._last_at is None:
            return 0.0
        return self._last_at - self._submitted_at + self._extra_seconds

    @property
    def max_intermediate_cardinality(self) -> int:
        return self.profile.max_intermediate_cardinality

    @property
    def plans(self) -> list[LogicalPlan]:
        return self.profile.plans

    def plan_description(self) -> str:
        return "\n".join(plan.render() for plan in self.profile.plans)
