"""The follower: tails the leader's WAL over the wire and applies it.

One :class:`Replica` owns a durable database directory and a daemon tailer
thread. The thread's life is a reconnect loop around one subscription:

1. connect, HELLO, then ``SUBSCRIBE {"from_lsn": <applied LSN>, "epoch":
   <persisted leader epoch>}`` — the leader answers with *its* epoch: a
   lower one means the replica is talking to a fenced old leader (raise
   and reconnect); a higher one is adopted and persisted before anything
   is applied;
2. if the leader answers ``mode="snapshot"`` (our LSN was folded into a
   checkpoint), receive the checkpoint files, install them as this
   directory's live pair (same atomic ``CURRENT`` dance as a local
   checkpoint), re-open the database and swap it into the serving layer
   via ``on_swap`` (the query service's :meth:`swap_database`);
3. stream ``WAL_SEGMENT`` frames: each record is applied through
   :meth:`DurabilityEngine.apply_replicated` — the recovery replay path,
   run under the store's exclusive writer lock, publishing via
   ``publish_commit(lsn)`` so concurrent snapshot reads stay lock-free and
   consistent mid-apply — appended verbatim to the replica's own WAL, then
   the batch is **fsynced before the WAL_ACK** (an acknowledged LSN can
   never regress across a replica crash);
4. on any error, reconnect with backoff and resubscribe from the applied
   LSN. Records the leader re-ships across a reconnect are skipped by
   ``apply_replicated``'s monotonic sequence check (idempotence).

``pause_apply``/``resume_apply`` freeze the loop between records — the
router tests use this to manufacture an arbitrarily lagged replica; the
leader's unacked-bytes window then exerts real backpressure.

Failover hooks: :meth:`stop_tailing` kills the tailer thread but leaves
the database open (promotion flips it writable in place); :meth:`repoint`
re-aims the reconnect loop at a new leader, severing the current stream —
the resubscribe lands on the new leader's epoch handshake, and a replica
whose history diverged above the new leader's promote LSN is re-seeded
from a shipped checkpoint (the divergent tail is discarded wholesale).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Optional, Union

from repro import wire
from repro.db.database import GraphDatabase
from repro.durability.engine import DurabilityEngine
from repro.durability.faults import FaultInjector, SimulatedCrashError
from repro.errors import ProtocolError, ReplicationError, ReproError


CLIENT_NAME = "repro-replica"
"""The name the tailer gives in its HELLO."""

RECONNECT_BACKOFF_S = 0.05
"""First reconnect delay; doubles per failure up to the max."""

RECONNECT_BACKOFF_MAX_S = 2.0

IO_TIMEOUT_S = 30.0
"""Socket timeout while connecting and waiting for leader frames. The
leader heartbeats every ``HEARTBEAT_S`` (1 s, :mod:`repro.server.server`),
so a healthy link never gets near this."""


def _epoch_field(fields: dict, key: str) -> int:
    """A non-negative int epoch/LSN field, or 0 when absent/malformed
    (pre-epoch peers simply don't send one)."""
    value = fields.get(key)
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    return 0


def parse_address(address: Union[str, tuple[str, int]]) -> tuple[str, int]:
    """``"host:port"`` (or a ready tuple) → ``(host, port)``."""
    if isinstance(address, tuple):
        return address[0], int(address[1])
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port, got {address!r}")
    return host, int(port)


class Replica:
    """A read-only follower of one leader, applying its shipped WAL."""

    def __init__(
        self,
        data_dir: Union[str, Path],
        leader: Union[str, tuple[str, int]],
        auth_token: Optional[str] = None,
        injector: Optional[FaultInjector] = None,
        **open_kwargs,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.leader = parse_address(leader)
        self.leader_name = f"{self.leader[0]}:{self.leader[1]}"
        self.auth_token = auth_token  # the leader's, when it requires one
        self.injector = injector if injector is not None else FaultInjector()
        self._on_swap = None
        self._metrics = None
        self._open_kwargs = dict(open_kwargs)
        self.db = GraphDatabase.open(
            self.data_dir, fault_injector=self.injector, **self._open_kwargs
        )
        self._cond = threading.Condition()
        self._applied = self.db.durability.applied_lsn()
        self._leader_durable = 0
        self._connected = False
        self._reconnects = 0
        self._snapshots_installed = 0
        self._last_error: Optional[str] = None
        self.crashed = False
        self._stop = threading.Event()
        self._resume = threading.Event()
        self._resume.set()
        self._conn: Optional[wire.Connection] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self, on_swap=None, metrics=None) -> "Replica":
        """Late-bind the swap callback and metrics registry. The serving
        stack is built around ``replica.db``, so the query service (whose
        ``swap_database`` we call after a snapshot install) only exists
        after the replica does."""
        if on_swap is not None:
            self._on_swap = on_swap
        if metrics is not None:
            self._metrics = metrics
        return self

    def start(self) -> "Replica":
        if self._thread is not None:
            raise RuntimeError("replica already started")
        self._thread = threading.Thread(
            target=self._tail_loop, name="repro-replica-tailer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop tailing and close the database (idempotent)."""
        self.stop_tailing()
        if not self.crashed:
            self.db.close()

    def stop_tailing(self) -> None:
        """Stop the tailer thread but keep the database open.

        The promotion path: the server flips the still-open database to
        writable, so only the subscription must die. Idempotent; safe to
        call from any thread except the tailer itself."""
        self._stop.set()
        self._resume.set()
        self._sever()
        thread = self._thread
        if (
            thread is not None
            and thread.is_alive()
            and thread is not threading.current_thread()
        ):
            thread.join(timeout=30)

    def repoint(self, leader: Union[str, tuple[str, int]]) -> None:
        """Re-aim the tailer at a new leader (surviving-replica path).

        Severs the current stream; the reconnect loop resubscribes to the
        new address from the applied LSN. If this replica's history runs
        past the new leader's divergence point, the subscribe handshake
        re-seeds it from a shipped checkpoint."""
        self.leader = parse_address(leader)
        self.leader_name = f"{self.leader[0]}:{self.leader[1]}"
        self._count("replication.repoints")
        self._sever()

    def _sever(self) -> None:
        """Close the live subscription, waking a tailer blocked on it."""
        conn = self._conn
        if conn is not None:
            conn.close()

    def __enter__(self) -> "Replica":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Introspection / test hooks
    # ------------------------------------------------------------------

    @property
    def applied_lsn(self) -> int:
        with self._cond:
            return self._applied

    @property
    def connected(self) -> bool:
        return self._connected

    def status_fields(self) -> dict:
        with self._cond:
            applied = self._applied
            durable = self._leader_durable
        return {
            "replica_connected": self._connected,
            "replica_applied_lsn": applied,
            "replica_lag_lsn": max(0, durable - applied),
            "replica_reconnects": self._reconnects,
            "replica_snapshots_installed": self._snapshots_installed,
            "replica_epoch": self.db.durability.epoch,
            "leader_durable_lsn": durable,
            "leader": self.leader_name,
        }

    def wait_for_lsn(self, lsn: int, timeout_s: float = 30.0) -> bool:
        """Block until this replica has applied/published ``lsn``.

        Returns True on success; raises :class:`ReplicationError` naming
        the last connection failure on timeout, crash, or stop — a bare
        False was too easy for callers to ignore."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while self._applied < lsn:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.crashed or self._stop.is_set():
                    break
                self._cond.wait(remaining)
            if self._applied >= lsn:
                return True
            applied = self._applied
        raise ReplicationError(
            f"replica did not apply LSN {lsn} ({self._gave_up(timeout_s)}; "
            f"applied {applied}, connected={self._connected}"
            f"{self._last_error_suffix()})"
        )

    def wait_connected(self, timeout_s: float = 30.0) -> bool:
        """Block until the subscription stream is up.

        Returns True on success; raises :class:`ReplicationError` naming
        the last connection failure on timeout, crash, or stop."""
        deadline = time.monotonic() + timeout_s
        while not self._connected:
            if time.monotonic() >= deadline or self._stop.is_set() or self.crashed:
                raise ReplicationError(
                    f"replica failed to connect to leader {self.leader_name} "
                    f"({self._gave_up(timeout_s)}{self._last_error_suffix()})"
                )
            time.sleep(0.005)
        return True

    def _gave_up(self, timeout_s: float) -> str:
        """Why a wait ended unsatisfied."""
        if self.crashed:
            return "replica crashed"
        if self._stop.is_set():
            return "replica stopped"
        return f"timed out after {timeout_s:.1f}s"

    def _last_error_suffix(self) -> str:
        return f"; last error: {self._last_error}" if self._last_error else ""

    def pause_apply(self) -> None:
        """Test hook: freeze the apply loop before its next record. The
        leader keeps shipping until its unacked window fills — this is how
        the router tests manufacture a lagged replica."""
        self._resume.clear()

    def resume_apply(self) -> None:
        self._resume.set()

    # ------------------------------------------------------------------
    # Tailer
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(amount)

    def _tail_loop(self) -> None:
        backoff = RECONNECT_BACKOFF_S
        first_attempt = True
        while not self._stop.is_set():
            if not first_attempt:
                self._reconnects += 1
                self._count("replication.reconnects")
                if self._stop.wait(backoff):
                    return
                backoff = min(backoff * 2, RECONNECT_BACKOFF_MAX_S)
            first_attempt = False
            try:
                self._tail_once()
                backoff = RECONNECT_BACKOFF_S
            except SimulatedCrashError:
                # The fault injector killed this replica "process": stop
                # doing I/O entirely; the test re-opens the directory.
                self.crashed = True
                self._connected = False
                with self._cond:
                    self._cond.notify_all()
                return
            except (ReproError, OSError, ValueError) as exc:
                self._last_error = f"{type(exc).__name__}: {exc}"
                self._connected = False

    def _tail_once(self) -> None:
        conn = wire.Connection.open(self.leader, IO_TIMEOUT_S)
        # Published before the HELLO so a stop or repoint can still
        # interrupt a stuck handshake.
        self._conn = conn
        try:
            conn.hello(CLIENT_NAME, self.auth_token)
            # Kill-point for the failover matrix: a surviving replica
            # dying just before it resubscribes to the (new) leader.
            self.injector.reach("promote.before_resubscribe")
            conn.send(
                (
                    wire.MSG_SUBSCRIBE,
                    {"from_lsn": self.applied_lsn, "epoch": self.db.durability.epoch},
                )
            )
            fields = conn.expect_success()
            leader_epoch = _epoch_field(fields, "epoch")
            if leader_epoch and leader_epoch < self.db.durability.epoch:
                # Fenced old leader: refuse its history and reconnect
                # (the operator re-points us at the promoted node).
                self._count("replication.stale_leaders")
                raise ReplicationError(
                    f"leader {self.leader_name} is at stale epoch "
                    f"{leader_epoch}; this replica has seen epoch "
                    f"{self.db.durability.epoch}"
                )
            if fields.get("mode") == "snapshot":
                self._receive_snapshot(conn)
            if leader_epoch:
                self.db.durability.adopt_epoch(
                    leader_epoch, _epoch_field(fields, "promote_lsn")
                )
            self._connected = True
            while not self._stop.is_set():
                tag, fields = conn.recv()
                if tag == wire.MSG_WAL_SEGMENT:
                    self._apply_segment(conn, fields)
                elif tag == wire.MSG_FAILURE:
                    wire.raise_failure(fields)
                else:
                    raise ProtocolError(
                        f"unexpected {wire.MESSAGE_NAMES[tag]} frame on the "
                        "subscription stream"
                    )
        finally:
            self._connected = False
            self._conn = None
            conn.close()

    # -- snapshot catch-up ---------------------------------------------

    def _receive_snapshot(self, conn: wire.Connection) -> None:
        """Receive checkpoint files, install them, swap the database."""
        files: dict[str, bytearray] = {}
        while True:
            tag, fields = conn.recv()
            if tag == wire.MSG_SNAPSHOT_FILE:
                name = fields.get("name")
                data = fields.get("data")
                if not isinstance(name, str) or not isinstance(data, bytes):
                    raise ProtocolError("malformed SNAPSHOT_FILE frame")
                files.setdefault(name, bytearray()).extend(data)
            elif tag == wire.MSG_SUCCESS and fields.get("snapshot_complete"):
                break
            elif tag == wire.MSG_FAILURE:
                wire.raise_failure(fields)
            else:
                raise ProtocolError(
                    f"unexpected {wire.MESSAGE_NAMES[tag]} during snapshot "
                    "catch-up"
                )
        if "metadata.json" not in files:
            raise ReplicationError("shipped checkpoint is missing metadata.json")
        old_db = self.db
        old_db.durability.close()
        DurabilityEngine.install_checkpoint(
            self.data_dir, {name: bytes(data) for name, data in files.items()}
        )
        new_db = GraphDatabase.open(
            self.data_dir, fault_injector=self.injector, **self._open_kwargs
        )
        with self._cond:
            self.db = new_db
            self._applied = new_db.durability.applied_lsn()
            self._snapshots_installed += 1
            self._cond.notify_all()
        if self._on_swap is not None:
            self._on_swap(new_db)
        old_db.close()
        self._count("replication.snapshots_installed")

    # -- record application --------------------------------------------

    def _apply_segment(self, conn: wire.Connection, fields: dict) -> None:
        records = fields.get("records")
        if records is None:
            records = []
        if not isinstance(records, list):
            raise ProtocolError("WAL_SEGMENT records must be a list")
        durable = fields.get("durable_lsn")
        if isinstance(durable, int) and not isinstance(durable, bool):
            with self._cond:
                self._leader_durable = max(self._leader_durable, durable)
        engine = self.db.durability
        segment_epoch = _epoch_field(fields, "epoch")
        if segment_epoch and segment_epoch < engine.epoch:
            # Lower-epoch traffic is fenced out: a revived old leader
            # must never make this replica diverge.
            self._count("replication.segments_fenced")
            raise ReplicationError(
                f"rejecting WAL segment stamped with stale epoch "
                f"{segment_epoch} (fence is at epoch {engine.epoch})"
            )
        applied_any = False
        for index, payload in enumerate(records):
            if not isinstance(payload, bytes):
                raise ProtocolError("WAL_SEGMENT records must be bytes")
            while not self._resume.is_set():
                if self._stop.is_set():
                    return
                self._resume.wait(0.05)
            if self._stop.is_set():
                return
            if index:
                # Crash-between-records kill-point (the batch's first
                # record is already applied and logged when this fires).
                engine.injector.reach("replica.apply.mid_batch")
            if engine.apply_replicated(payload) is not None:
                applied_any = True
                self._count("replication.records_applied")
        if applied_any:
            # Fsync before acknowledging: the ACKed LSN must survive a
            # replica crash, or the leader could trim/forget records this
            # replica still needs.
            engine.sync(engine.applied_lsn())
        with self._cond:
            self._applied = max(self._applied, engine.applied_lsn())
            applied = self._applied
            self._cond.notify_all()
        conn.send((wire.MSG_WAL_ACK, {"applied_lsn": applied}))
        if applied_any:
            engine.maybe_checkpoint()
