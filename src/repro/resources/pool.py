"""Process-wide memory pool and per-query memory trackers.

Production engines bound query memory with a two-level scheme (Neo4j's
per-transaction memory tracker, Umbra-style morsel engines): a process-wide
*pool* holds the budget; each query receives a *grant* that doubles as its
spill threshold. This module reproduces that scheme for the two execution
engines of this repo:

* :class:`MemoryPool` — the budget. ``None`` means unbounded: charges are
  tracked (so ``ExecutionProfile`` still reports per-operator peak bytes)
  but nothing is ever denied and nothing ever spills.
* :class:`MemoryTracker` — one per query. Blocking operators charge it as
  their buffers grow. Once a query's charges exceed its grant, *spillable*
  operators (sort, aggregation, distinct, hash join, cartesian product, the
  update-buffer) move their buffers to disk; *non-spillable* charges
  (prefix-seek groups, index initialization) draw *overage* from the pool's
  free headroom instead, and only when the pool itself is exhausted does the
  query fail with :class:`~repro.errors.MemoryLimitExceeded`.

Byte costs are deliberately *deterministic estimates* (a flat cost per
buffered row / key / group), not ``sys.getsizeof`` measurements: the three
engines buffer the same logical rows in different physical shapes, and
resource governance requires them to make **identical spill decisions** so
differential tests stay exact under any budget. Real engines estimate too;
we just make the estimate engine-independent.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import MemoryLimitExceeded

ROW_BYTES = 256
"""Deterministic estimate for one buffered row (any engine)."""

KEY_BYTES = 128
"""Deterministic estimate for one distinct-key / hash-table entry."""

GROUP_BYTES = 512
"""Deterministic estimate for one aggregation group (key + accumulators)."""

DEFAULT_GRANT_FRACTION = 4
"""Default per-query grant: ``budget // DEFAULT_GRANT_FRACTION``."""

MIN_GRANT_BYTES = 4 * 1024
"""Floor for the derived default grant."""

OP_SHARE_FRACTION = 4
"""An operator's share of its query grant: ``grant // OP_SHARE_FRACTION``
(floored at :data:`MIN_OP_SHARE_BYTES`) — the minimum it must itself hold
before it may spill. Without this, one oversized buffer upstream would keep
query usage above the grant forever and make every *downstream* buffer
flush degenerate one-row runs."""

MIN_OP_SHARE_BYTES = 512
"""Floor for the per-operator spill share (two buffered rows)."""


class MemoryPool:
    """The process-wide memory budget shared by every query of a database.

    ``budget_bytes=None`` (the default) disables governance: trackers still
    account, but nothing spills and nothing is denied. With a budget, each
    query reserves a *grant* (``grant_bytes``, default ``budget // 4``) that
    admission control holds for it and that its spillable operators treat as
    the spill threshold; charges beyond the grant draw overage from the
    pool's free space under the lock, and exhaustion raises
    :class:`MemoryLimitExceeded`.
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        grant_bytes: Optional[int] = None,
    ) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("memory budget must be positive (or None)")
        if grant_bytes is not None and grant_bytes <= 0:
            raise ValueError("memory grant must be positive (or None)")
        self.budget_bytes = budget_bytes
        if grant_bytes is None and budget_bytes is not None:
            grant_bytes = max(
                budget_bytes // DEFAULT_GRANT_FRACTION, MIN_GRANT_BYTES
            )
        if budget_bytes is not None and grant_bytes is not None:
            grant_bytes = min(grant_bytes, budget_bytes)
        self.grant_bytes = grant_bytes
        self._cond = threading.Condition(threading.Lock())
        self._granted = 0
        self._overage = 0
        self._peak = 0
        # Plain-int counters so the pool is observable (`:memory`) even
        # without a service-owned MetricsRegistry bound to it.
        self.queries_tracked = 0
        self.grants_denied = 0
        self.grant_waits = 0
        self.limit_exceeded = 0
        self.spill_runs = 0
        self.spill_bytes = 0
        self._metrics = None
        self._gauges: dict[str, Callable[[], int]] = {}

    # ------------------------------------------------------------------

    @property
    def bounded(self) -> bool:
        return self.budget_bytes is not None

    @property
    def in_use_bytes(self) -> int:
        return self._granted + self._overage

    @property
    def free_bytes(self) -> Optional[int]:
        if self.budget_bytes is None:
            return None
        return max(self.budget_bytes - self._granted - self._overage, 0)

    def bind_metrics(self, registry) -> None:
        """Mirror pool/spill counters into a service metrics registry."""
        self._metrics = registry

    def unbind_metrics(self, registry) -> None:
        """Detach ``registry`` if it is the bound one (so a replaced
        service never steals a successor's traffic)."""
        if self._metrics is registry:
            self._metrics = None

    def register_gauge(self, name: str, fn: Callable[[], int]) -> None:
        """Expose a cache's current byte usage in :meth:`snapshot`.

        The plan and page caches are long-lived shared state, so they are
        *accounted* (visible, never denied) rather than charged to any one
        query — mirroring the page cache being "deliberately an accounting
        layer".
        """
        self._gauges[name] = fn

    def _inc(self, name: str, amount: int = 1) -> None:
        registry = self._metrics
        if registry is not None:
            registry.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Admission grants

    def reserve_grant(
        self,
        nbytes: Optional[int] = None,
        timeout_s: Optional[float] = None,
        token=None,
    ) -> int:
        """Reserve an admission grant; returns the bytes actually reserved.

        Unbounded pools reserve nothing and return 0. Bounded pools wait up
        to ``timeout_s`` (None = don't wait) for free space, waking early if
        ``token`` is cancelled, and raise :class:`MemoryLimitExceeded` when
        the grant cannot be satisfied — the service maps that to
        backpressure at admission.
        """
        if self.budget_bytes is None:
            return 0
        if nbytes is None:
            nbytes = self.grant_bytes or 0
        nbytes = min(nbytes, self.budget_bytes)
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        waited = False
        with self._cond:
            while self._granted + self._overage + nbytes > self.budget_bytes:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                if token is not None and token.cancelled:
                    remaining = 0.0
                if remaining is None or remaining <= 0:
                    self.grants_denied += 1
                    self._inc("memory.grants_denied")
                    raise MemoryLimitExceeded(
                        "memory pool cannot grant "
                        f"{nbytes} bytes ({self.in_use_bytes} of "
                        f"{self.budget_bytes} in use)",
                        requested_bytes=nbytes,
                        budget_bytes=self.budget_bytes,
                    )
                if not waited:
                    waited = True
                    self.grant_waits += 1
                    self._inc("memory.grant_waits")
                self._cond.wait(min(remaining, 0.05))
            self._granted += nbytes
            if self._granted + self._overage > self._peak:
                self._peak = self._granted + self._overage
        return nbytes

    def release_grant(self, nbytes: int) -> None:
        if not nbytes:
            return
        with self._cond:
            self._granted = max(self._granted - nbytes, 0)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Overage (charges beyond a query's grant)

    def acquire_overage(self, nbytes: int) -> bool:
        """Try to draw ``nbytes`` beyond outstanding grants; False = full."""
        with self._cond:
            if (
                self.budget_bytes is not None
                and self._granted + self._overage + nbytes > self.budget_bytes
            ):
                return False
            self._overage += nbytes
            if self._granted + self._overage > self._peak:
                self._peak = self._granted + self._overage
        return True

    def release_overage(self, nbytes: int) -> None:
        if not nbytes:
            return
        with self._cond:
            self._overage = max(self._overage - nbytes, 0)
            self._cond.notify_all()

    # ------------------------------------------------------------------

    def tracker(
        self,
        label: str = "query",
        grant_bytes: Optional[int] = None,
        spill_manager=None,
        reserved_bytes: Optional[int] = None,
    ) -> "MemoryTracker":
        """A per-query tracker. ``reserved_bytes`` hands over a grant the
        caller already reserved (the service reserves before dispatch);
        otherwise the tracker reserves its own grant now."""
        if grant_bytes is None:
            grant_bytes = self.grant_bytes
        if reserved_bytes is None:
            reserved_bytes = self.reserve_grant(grant_bytes)
        with self._cond:
            self.queries_tracked += 1
        return MemoryTracker(
            self,
            label=label,
            grant_bytes=grant_bytes,
            reserved_bytes=reserved_bytes,
            spill_manager=spill_manager,
        )

    def note_spill(self, nbytes: int, runs: int = 1) -> None:
        with self._cond:
            self.spill_runs += runs
            self.spill_bytes += nbytes
        self._inc("spill.runs", runs)
        if nbytes:
            self._inc("spill.bytes_written", nbytes)

    def note_limit_exceeded(self) -> None:
        with self._cond:
            self.limit_exceeded += 1
        self._inc("memory.limit_exceeded")

    def snapshot(self) -> dict:
        """Pool usage + counters + cache gauges (``:memory``, metrics)."""
        with self._cond:
            base = {
                "budget_bytes": self.budget_bytes,
                "default_grant_bytes": self.grant_bytes,
                "granted_bytes": self._granted,
                "overage_bytes": self._overage,
                "in_use_bytes": self._granted + self._overage,
                "free_bytes": self.free_bytes,
                "peak_bytes": self._peak,
                "queries_tracked": self.queries_tracked,
                "grants_denied": self.grants_denied,
                "grant_waits": self.grant_waits,
                "limit_exceeded": self.limit_exceeded,
                "spill_runs": self.spill_runs,
                "spill_bytes": self.spill_bytes,
            }
        base["caches"] = {name: fn() for name, fn in self._gauges.items()}
        return base


class MemoryTracker:
    """Per-query memory accounting: grant, per-operator peaks, spill stats.

    Trackers are single-threaded (one query, one worker); only the
    grant/overage interactions with the pool take the pool lock. Operators
    charge with an opaque key — a plan node (``id(plan)`` keys the entry,
    matching ``OperatorProfile.rows``) or a string label for non-plan
    buffers (index initialization, the update buffer).
    """

    def __init__(
        self,
        pool: MemoryPool,
        label: str = "query",
        grant_bytes: Optional[int] = None,
        reserved_bytes: int = 0,
        spill_manager=None,
    ) -> None:
        self.pool = pool
        self.label = label
        #: Spill threshold; None means "never spill" (unbounded pool).
        self.grant_bytes = grant_bytes if pool.bounded else None
        self.reserved_bytes = reserved_bytes
        self.spill_manager = spill_manager
        self.used_bytes = 0
        self.peak_bytes = 0
        self.spill_runs = 0
        self.spill_bytes = 0
        self._overage = 0
        # key -> [current, peak, spills, description]
        self._per_op: dict = {}
        self._session = None
        self.closed = False

    # ------------------------------------------------------------------

    @staticmethod
    def _entry_key(op):
        return id(op) if not isinstance(op, str) else op

    @staticmethod
    def _describe(op) -> str:
        return op if isinstance(op, str) else op.description

    def charge(self, op, nbytes: int) -> None:
        """Account ``nbytes`` against ``op``; may raise
        :class:`MemoryLimitExceeded` when the pool is exhausted."""
        key = self._entry_key(op)
        slot = self._per_op.get(key)
        if slot is None:
            slot = self._per_op[key] = [0, 0, 0, self._describe(op)]
        slot[0] += nbytes
        if slot[0] > slot[1]:
            slot[1] = slot[0]
        used = self.used_bytes + nbytes
        self.used_bytes = used
        if used > self.peak_bytes:
            self.peak_bytes = used
        if not self.pool.bounded:
            return
        budgeted = self.reserved_bytes + self._overage
        if used > budgeted:
            delta = used - budgeted
            if not self.pool.acquire_overage(delta):
                self.pool.note_limit_exceeded()
                raise MemoryLimitExceeded(
                    f"query {self.label!r} needs {delta} bytes beyond its "
                    f"{self.reserved_bytes}-byte grant but the pool "
                    f"({self.pool.budget_bytes} bytes) is exhausted",
                    requested_bytes=delta,
                    budget_bytes=self.pool.budget_bytes or 0,
                )
            self._overage += delta

    def release(self, op, nbytes: int) -> None:
        key = self._entry_key(op)
        slot = self._per_op.get(key)
        if slot is not None:
            slot[0] = max(slot[0] - nbytes, 0)
        self.used_bytes = max(self.used_bytes - nbytes, 0)
        if self._overage:
            spare = self.reserved_bytes + self._overage - self.used_bytes
            give_back = min(self._overage, max(spare, 0))
            if give_back:
                self._overage -= give_back
                self.pool.release_overage(give_back)

    def should_spill(self, op) -> bool:
        """True once the query exceeds its grant AND ``op`` itself holds a
        meaningful share of it.

        Both conditions depend only on the charge sequence, which the
        flat per-row cost model makes independent of the output chunk
        size, so spill decisions are too. The per-operator share stops a resident upstream buffer
        (e.g. aggregation states that live until the query ends) from
        forcing a downstream sort to flush a run per row.
        """
        if self.grant_bytes is None or self.used_bytes < self.grant_bytes:
            return False
        slot = self._per_op.get(self._entry_key(op))
        if slot is None:
            return False
        share = max(
            self.grant_bytes // OP_SHARE_FRACTION, MIN_OP_SHARE_BYTES
        )
        return slot[0] >= share

    def note_spill(self, op, nbytes: int, runs: int = 1) -> None:
        key = self._entry_key(op)
        slot = self._per_op.get(key)
        if slot is None:
            slot = self._per_op[key] = [0, 0, 0, self._describe(op)]
        slot[2] += runs
        self.spill_runs += runs
        self.spill_bytes += nbytes
        self.pool.note_spill(nbytes, runs)

    def session(self):
        """The lazily created spill-file session for this query."""
        if self._session is None:
            if self.spill_manager is None:
                raise RuntimeError(
                    "operator tried to spill but the tracker has no spill "
                    "manager (Executor used without a GraphDatabase?)"
                )
            self._session = self.spill_manager.session(self.label)
        return self._session

    # ------------------------------------------------------------------

    def merge_into_profile(self, operators) -> None:
        """Copy per-operator peaks/spills into an ``OperatorProfile``."""
        for key, (current, peak, spills, desc) in self._per_op.items():
            del current
            operators.record_memory(key, peak, spills, desc)

    def per_operator(self) -> dict:
        """``description -> (peak_bytes, spill_runs)`` for displays."""
        out: dict = {}
        for _key, (_cur, peak, spills, desc) in self._per_op.items():
            prev = out.get(desc)
            if prev is not None:
                peak = max(peak, prev[0])
                spills += prev[1]
            out[desc] = (peak, spills)
        return out

    def close(self) -> None:
        """Release every charge, the grant, and the spill files (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self._session is not None:
            self._session.close()
            self._session = None
        self.used_bytes = 0
        for slot in self._per_op.values():
            slot[0] = 0
        if self._overage:
            self.pool.release_overage(self._overage)
            self._overage = 0
        if self.reserved_bytes:
            self.pool.release_grant(self.reserved_bytes)
            self.reserved_bytes = 0


class NullTracker:
    """No-op tracker for direct ``Executor`` use outside a database."""

    pool = None
    grant_bytes = None
    used_bytes = 0
    peak_bytes = 0
    spill_runs = 0
    spill_bytes = 0
    closed = False

    def charge(self, op, nbytes: int) -> None:
        pass

    def release(self, op, nbytes: int) -> None:
        pass

    def should_spill(self, op) -> bool:
        return False

    def note_spill(self, op, nbytes: int, runs: int = 1) -> None:
        pass

    def session(self):
        raise RuntimeError("NullTracker cannot spill")

    def merge_into_profile(self, operators) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACKER = NullTracker()
