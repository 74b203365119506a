"""Deterministic fault injection for the durability engine.

Every durability I/O point (record write, fsync, snapshot write, rename,
``CURRENT`` switch, cleanup) calls :meth:`FaultInjector.reach` with a named
kill-point. Arming a point makes that call raise
:class:`SimulatedCrashError` — and once fired, the injector stays *crashed*:
every later I/O attempt raises too, so the in-memory engine behaves like a
dead process (nothing further reaches disk). Tests then discard the crashed
database object and re-open the directory to exercise recovery.

``power_loss`` additionally models the OS page cache being lost: after the
crash, :meth:`DurabilityEngine.simulate_power_loss` truncates the log to the
last fsynced length, so records that were written but never fsynced
disappear — the strictest durability test.
"""

from __future__ import annotations

import threading

WAL_KILL_POINTS = (
    "wal.append.before_write",
    "wal.append.torn_write",
    "wal.append.after_write",
    "wal.fsync.before",
    "wal.fsync.after",
)
"""Kill-points on the commit path (record append + group-commit fsync)."""

CHECKPOINT_KILL_POINTS = (
    "checkpoint.before",
    "checkpoint.mid_snapshot",
    "checkpoint.before_rename",
    "checkpoint.before_current",
    "checkpoint.after_current",
    "checkpoint.after",
)
"""Kill-points across the checkpoint procedure (snapshot, rename, pointer
switch, cleanup)."""

SPILL_KILL_POINTS = (
    "spill.open",
    "spill.write",
    "spill.merge",
)
"""Kill-points on the resource-governance spill path (run-file creation,
run-file write, k-way merge). A crash here leaves orphaned ``*.spill``
files that recovery must sweep."""

REPLICATION_KILL_POINTS = (
    "ship.before_segment",
    "ship.torn_segment",
    "replica.apply.mid_batch",
)
"""Kill-points on the replication path. ``ship.before_segment`` kills the
leader just before it ships the next WAL_SEGMENT (leader crash mid-ship);
``ship.torn_segment`` makes the leader write *half* of the encoded segment
frame and then die, so the replica sees a torn stream mid-frame;
``replica.apply.mid_batch`` kills the replica between two records of one
shipped batch (crash mid-apply)."""

PROMOTION_KILL_POINTS = (
    "promote.before_epoch_bump",
    "promote.mid_tail_replay",
    "promote.before_resubscribe",
    "promote.old_leader_revival",
)
"""Kill-points across controlled failover. ``promote.mid_tail_replay``
kills the candidate while it verifies its WAL tail against the applied
state; ``promote.before_epoch_bump`` kills it after the tail is durable
but before the new epoch reaches disk (the promotion never happened);
``promote.before_resubscribe`` kills a surviving replica just before it
subscribes to the new leader; ``promote.old_leader_revival`` kills a
revived old leader while it re-opens its directory."""

KILL_POINTS = (
    WAL_KILL_POINTS
    + CHECKPOINT_KILL_POINTS
    + SPILL_KILL_POINTS
    + REPLICATION_KILL_POINTS
    + PROMOTION_KILL_POINTS
)
"""Every named kill-point, in commit-then-checkpoint order."""


class SimulatedCrashError(RuntimeError):
    """The fault injector killed the engine at a named kill-point.

    Deliberately *not* a :class:`~repro.errors.ReproError`: generic error
    handling must not swallow a simulated process death.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at kill-point {point!r}")
        self.point = point


class FaultInjector:
    """Named kill-points with deterministic, countdown-armed crashes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed: dict[str, int] = {}
        self.crashed = False
        self.crash_point: str | None = None
        self.reached: list[str] = []
        """Every kill-point reached, in order (for coverage assertions)."""

    def arm(self, point: str, hits: int = 1) -> None:
        """Crash on the ``hits``-th time ``point`` is reached from now on."""
        if point not in KILL_POINTS:
            raise ValueError(f"unknown kill-point {point!r}")
        if hits < 1:
            raise ValueError("hits must be >= 1")
        with self._lock:
            self._armed[point] = hits

    def will_fire(self, point: str) -> bool:
        """True when the next :meth:`reach` of ``point`` would crash."""
        with self._lock:
            return self.crashed or self._armed.get(point) == 1

    def reach(self, point: str) -> None:
        """Record that ``point`` was reached; crash if armed (or already
        crashed — a dead process performs no further I/O)."""
        with self._lock:
            self.reached.append(point)
            if self.crashed:
                raise SimulatedCrashError(self.crash_point or point)
            remaining = self._armed.get(point)
            if remaining is None:
                return
            if remaining > 1:
                self._armed[point] = remaining - 1
                return
            del self._armed[point]
            self.crashed = True
            self.crash_point = point
        raise SimulatedCrashError(point)

    def check(self) -> None:
        """Raise if the engine already crashed (entry guard for I/O paths)."""
        if self.crashed:
            raise SimulatedCrashError(self.crash_point or "<crashed>")
