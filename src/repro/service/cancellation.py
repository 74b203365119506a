"""Cooperative cancellation tokens for query execution.

A :class:`CancellationToken` carries an optional absolute deadline and an
explicit cancel flag. The row engine checks the token at iterator row
boundaries (every row that crosses an operator, see
``repro.runtime.operators.compile_plan``); generated code checks it every
``CHECK_STRIDE`` source-loop iterations (``repro.runtime.compiled``). Either
way a timed-out or cancelled query stops mid-scan instead of running to
completion.

Checking the cancel flag is a single attribute read per row; the deadline
(a ``time.monotonic`` call) is only consulted every ``DEADLINE_STRIDE``
row checks to keep the per-row overhead negligible on million-row scans.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import QueryCancelledError, QueryTimeoutError

DEADLINE_STRIDE = 32
"""Rows between deadline clock reads (the cancel flag is read every row)."""


class CancellationToken:
    """Deadline + explicit-cancel signal shared between a query's submitter
    and the worker thread executing it."""

    __slots__ = ("deadline", "_cancelled", "_expired", "_ticks")

    def __init__(self, deadline: Optional[float] = None) -> None:
        #: Absolute ``time.monotonic()`` deadline, or None for no deadline.
        self.deadline = deadline
        self._cancelled = False
        self._expired = False
        self._ticks = 0

    @classmethod
    def with_timeout(cls, seconds: Optional[float]) -> "CancellationToken":
        """A token whose deadline is ``seconds`` from now (None = no limit)."""
        if seconds is None:
            return cls()
        return cls(deadline=time.monotonic() + seconds)

    # ------------------------------------------------------------------

    def cancel(self) -> None:
        """Request cancellation; the running query raises at its next check."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def expired(self) -> bool:
        """Whether the deadline has passed (checks the clock each call)."""
        if self._expired:
            return True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self._expired = True
            return True
        return False

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (may be negative), or None."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    # ------------------------------------------------------------------

    def check(self, rows_produced: int = 0) -> None:
        """Raise if cancelled or past deadline; called at row boundaries.

        ``rows_produced`` is attached to the raised error so callers can
        report how far the query got before being stopped.
        """
        if self._cancelled:
            raise QueryCancelledError(rows_produced=rows_produced)
        if self.deadline is None:
            return
        self._ticks += 1
        if self._expired or self._ticks % DEADLINE_STRIDE == 0:
            if self.expired:
                raise QueryTimeoutError(rows_produced=rows_produced)

    def check_batch(self, rows_produced: int = 0) -> None:
        """Like :meth:`check`, but always consults the deadline clock.

        Generated code checks once per ``CHECK_STRIDE`` (1024) loop
        iterations, so the stride amortization of :meth:`check` would
        stretch deadline detection to tens of thousands of rows; one clock
        read per stride is already amortized.
        """
        if self._cancelled:
            raise QueryCancelledError(rows_produced=rows_produced)
        if self.deadline is not None and self.expired:
            raise QueryTimeoutError(rows_produced=rows_produced)
