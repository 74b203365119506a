"""The durability engine: group-committed WAL + atomic checkpoints + recovery.

Directory layout::

    <dir>/CURRENT                   text pointer: id of the live checkpoint
    <dir>/checkpoint-NNNNNN/        snapshot directory (repro.db.snapshot format)
    <dir>/wal-NNNNNN.log            the log segment paired with that checkpoint
    <dir>/EPOCH                     text: "<epoch> <promote_lsn>" — the leader
                                    epoch this directory last served under and
                                    the LSN at which that epoch began (absent
                                    means epoch 1, LSN 0). The fencing token
                                    for controlled failover.

Commit path — the engine is a transaction applier (registered *after* the
path-index maintainer, so index deltas are already known): each committed
transaction is serialized into one log record and appended; the fsync uses
**group commit** — the first waiter becomes the leader and fsyncs everything
appended so far, concurrent committers piggyback on that single fsync. The
query service defers the fsync until after it drops its exclusive write
lock (:meth:`DurabilityEngine.deferred_sync` / :meth:`sync_pending`), which
is what lets independent writers actually share an fsync.

Checkpoint — write a full snapshot into ``checkpoint-N.tmp``, fsync, rename
to ``checkpoint-N`` (atomic), start ``wal-N.log``, then atomically switch
``CURRENT`` and delete the old pair. A crash at any point leaves either the
old pair or the new pair fully intact; orphans are swept on the next open.

Recovery (:meth:`DurabilityEngine.open_database`, surfaced as
``GraphDatabase.open``) — load the checkpoint ``CURRENT`` points at, scan
the paired log's longest valid prefix (truncating any torn/corrupt tail),
and replay each record through the live mutation API. The invariant: the
recovered store is always the state after some *prefix* of the committed
transactions — every transaction whose fsync returned is in that prefix.

Every I/O point calls a named :class:`FaultInjector` kill-point, so tests
can deterministically kill the engine anywhere and assert that invariant.
"""

from __future__ import annotations

import os
import shutil
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.durability.faults import FaultInjector
from repro.durability.operations import (
    REC_COMMIT,
    apply_commit_record,
    apply_ddl_record,
    collect_operations,
    decode_record,
    encode_commit_record,
    encode_ddl_record,
    record_seq,
)
from repro.durability.wal import WAL_HEADER, WriteAheadLog, scan_records
from repro.errors import DurabilityError
from repro.tx.appliers import TransactionApplier

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import GraphDatabase
    from repro.tx.state import TransactionState


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning knobs for the durability engine."""

    checkpoint_interval_records: int = 1024
    """Auto-checkpoint after this many log records (non-service usage)."""

    checkpoint_interval_bytes: int = 4 << 20
    """Auto-checkpoint after this many log bytes (non-service usage)."""

    auto_checkpoint: bool = True
    """Checkpoint from the commit path when an interval is exceeded. The
    query service disables the commit-path trigger implicitly (its commits
    run with a deferred fsync) and checkpoints from a background thread
    under its write lock instead."""


class _WalApplier(TransactionApplier):
    """Bridges transaction commit into the engine's log.

    Runs after the :class:`PathIndexMaintainer`, so by the time
    :meth:`after_apply` fires the store holds the transaction's final state
    and ``maintainer.last_changes`` lists the index deltas to log."""

    def __init__(self, engine: "DurabilityEngine") -> None:
        self._engine = engine

    def after_apply(self, state: "TransactionState", store) -> None:
        self._engine.log_commit(state)


class DurabilityEngine:
    """Owns one durability directory for one live :class:`GraphDatabase`."""

    def __init__(
        self,
        directory: Path,
        db: "GraphDatabase",
        config: DurabilityConfig,
        injector: FaultInjector,
        checkpoint_id: int,
        wal: WriteAheadLog,
        last_seq: int,
        replayed_records: int,
        replayed_bytes: int,
        segment_floor: int = 0,
        epoch: int = 1,
        promote_lsn: int = 0,
    ) -> None:
        self.directory = Path(directory)
        self.db = db
        self.config = config
        self.injector = injector
        self._checkpoint_id = checkpoint_id
        self._wal = wal
        self._seq = last_seq
        self._appended_seq = last_seq
        self._durable_seq = last_seq
        # Highest WAL sequence folded into the live checkpoint: every
        # record in the current segment has seq > _segment_floor, and a
        # replication subscriber whose start LSN is below it must catch up
        # from the checkpoint instead (those records are gone).
        self._segment_floor = segment_floor
        # Leader-epoch fence: the epoch this directory last served under
        # and the LSN at which that epoch began (its divergence floor).
        # Bumped only by promote(); adopted forward from a leader's stream
        # by adopt_epoch(). Never moves backwards.
        self._epoch = epoch
        self._promote_lsn = promote_lsn
        # True while apply_replicated replays a shipped record: the replay
        # path runs through the live mutation/DDL API, which must not log
        # fresh records for changes that came *from* the log.
        self._replicating = False
        self._records_since_checkpoint = replayed_records
        self._bytes_since_checkpoint = replayed_bytes
        store = db.store
        self._logged_labels = len(store.labels.all_tokens())
        self._logged_types = len(store.types.all_tokens())
        self._logged_keys = len(store.property_keys.all_tokens())
        # Appends serialize under _lock; the fsync deliberately does not,
        # so new appends can proceed while the group-commit leader syncs.
        self._lock = threading.RLock()
        self._sync_cond = threading.Condition()
        self._sync_leader = False
        self._deferred = threading.local()
        # Per-thread capture of the last commit's log sequence number, so
        # the database facade can return a read-your-writes LSN token with
        # each write query's result (see begin_lsn_capture/captured_lsn).
        self._lsn_capture = threading.local()
        # Separate capture for the version-publish protocol: consumed
        # (take-and-clear) exactly once per commit by publish_commit, so a
        # stale sequence from an earlier commit on this thread can never
        # stamp a later transaction's versions at an old LSN.
        self._publish_capture = threading.local()
        self.commits_logged = 0
        self.fsync_count = 0
        self.synced_commits = 0
        self.last_group_size = 0
        self.checkpoints_completed = 0
        self.recovered_records = replayed_records

    # ------------------------------------------------------------------
    # Open / recovery
    # ------------------------------------------------------------------

    @classmethod
    def open_database(
        cls,
        directory: Union[str, Path],
        config: Optional[DurabilityConfig] = None,
        injector: Optional[FaultInjector] = None,
        page_cache_pages: int = 1 << 20,
        page_size: Optional[int] = None,
        miss_latency_s: Optional[float] = None,
        dense_node_threshold: Optional[int] = None,
        maintenance_strategy: Optional[str] = None,
        memory_budget: Optional[int] = None,
        memory_grant: Optional[int] = None,
    ) -> "GraphDatabase":
        """Open (creating or recovering) a durable database directory."""
        from repro.db.database import GraphDatabase
        from repro.db.snapshot import read_snapshot_metadata, read_snapshot_state

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        config = config if config is not None else DurabilityConfig()
        injector = injector if injector is not None else FaultInjector()
        db_kwargs = {
            "page_cache_pages": page_cache_pages,
            "memory_budget": memory_budget,
            "memory_grant": memory_grant,
        }
        if miss_latency_s is not None:
            db_kwargs["miss_latency_s"] = miss_latency_s
        if maintenance_strategy is not None:
            db_kwargs["maintenance_strategy"] = maintenance_strategy

        epoch, promote_lsn = _read_epoch_file(directory)
        # A revived old leader re-reads its (stale) epoch here; the kill
        # point models it dying mid-revival, before serving anything.
        injector.reach("promote.old_leader_revival")

        base_lsn = 0
        segment_floor = 0
        current = directory / "CURRENT"
        if current.exists():
            # Existing database: configuration that shapes the stored
            # records comes from the checkpoint, not the caller.
            checkpoint_id = int(current.read_text().strip())
            checkpoint_dir = directory / _checkpoint_name(checkpoint_id)
            metadata = read_snapshot_metadata(checkpoint_dir)
            # LSN continuity across restarts: the checkpoint records the
            # publish watermark it folded (base_lsn) and the highest WAL
            # sequence it absorbed (base_wal_seq), so sequences — and the
            # read-your-writes tokens minted from them — never restart.
            base_lsn = int(metadata.get("base_lsn", 0))
            segment_floor = int(metadata.get("base_wal_seq", base_lsn))
            db = GraphDatabase(
                page_size=metadata.get("page_size", 8192),
                dense_node_threshold=metadata.get("dense_node_threshold", 50),
                **db_kwargs,
            )
            read_snapshot_state(db, checkpoint_dir)
        else:
            checkpoint_id = 1
            if page_size is not None:
                db_kwargs["page_size"] = page_size
            if dense_node_threshold is not None:
                db_kwargs["dense_node_threshold"] = dense_node_threshold
            db = GraphDatabase(**db_kwargs)
            cls._bootstrap(db, directory, checkpoint_id)
        _clean_orphans(directory, checkpoint_id)
        # Spill files live beside the WAL so a crash mid-spill is healed by
        # the same open-time sweep; the injector's spill.* kill-points fire
        # through the manager.
        db.spill_manager.attach(directory, injector)

        wal_path = directory / _wal_name(checkpoint_id)
        payloads, valid_length = scan_records(wal_path)
        if wal_path.exists() and wal_path.stat().st_size > valid_length:
            # Torn/corrupt tail: physically discard it before appending.
            with open(wal_path, "r+b") as handle:
                handle.truncate(valid_length)
        last_seq = base_lsn
        for payload in payloads:
            record_type, body = decode_record(payload)
            seq = record_seq(body)
            if seq <= last_seq:
                raise DurabilityError(
                    f"log sequence went backwards ({seq} after {last_seq})"
                )
            if record_type == REC_COMMIT:
                apply_commit_record(db, body)
            else:
                apply_ddl_record(db, body)
            # Stamp the replayed versions at the WAL sequence they were
            # originally committed under, so snapshot LSNs mean the same
            # thing across restarts (read-your-writes tokens survive).
            db.store.publish_commit(seq)
            last_seq = seq

        wal = WriteAheadLog(wal_path, injector)
        engine = cls(
            directory,
            db,
            config,
            injector,
            checkpoint_id,
            wal,
            last_seq,
            replayed_records=len(payloads),
            replayed_bytes=max(0, valid_length - len(WAL_HEADER)),
            segment_floor=segment_floor,
            epoch=epoch,
            promote_lsn=promote_lsn,
        )
        db.durability = engine
        db.tx_manager.register_applier(_WalApplier(engine))
        # Version-publish protocol: commits stamp their MVCC versions with
        # the exact WAL sequence log_commit assigned, and the clock's
        # watermark starts at the replayed prefix's last sequence (DDL
        # records publish nothing, so catch the watermark up here).
        db.tx_manager.lsn_provider = engine.take_publish_lsn
        db.store.mvcc.publish(last_seq)
        return db

    @staticmethod
    def _bootstrap(db: "GraphDatabase", directory: Path, checkpoint_id: int) -> None:
        """First open of a fresh directory: write the initial (empty)
        checkpoint and point ``CURRENT`` at it. No kill-points fire here —
        until ``CURRENT`` exists there is nothing to lose, and a crash
        mid-bootstrap is swept as orphans on the next open."""
        from repro.db.snapshot import write_snapshot_state

        tmp = directory / (_checkpoint_name(checkpoint_id) + ".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        write_snapshot_state(db, tmp)
        _fsync_tree(tmp)
        os.replace(tmp, directory / _checkpoint_name(checkpoint_id))
        _switch_current(directory, checkpoint_id)

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------

    def log_commit(self, state: "TransactionState") -> None:
        """Serialize one committed transaction into the log.

        Called from the applier with the store fully updated. Read-only and
        token-only transactions write nothing (token registrations become
        durable as the prefix of the next real commit record)."""
        if self._replicating:
            return
        self.injector.check()
        ops = collect_operations(state)
        index_changes = list(self.db.maintainer.last_changes)
        if not ops and not index_changes:
            return
        store = self.db.store
        with self._lock:
            labels = store.labels.all_tokens()
            types = store.types.all_tokens()
            keys = store.property_keys.all_tokens()
            # Rollbacks and bulk-import adoption mint LSNs straight from
            # the version clock; keep WAL sequences strictly above them so
            # no two distinct publishes ever share a commit LSN.
            seq = max(self._seq, store.mvcc.published) + 1
            payload = encode_commit_record(
                seq,
                labels[self._logged_labels :],
                types[self._logged_types :],
                keys[self._logged_keys :],
                ops,
                index_changes,
            )
            self._append(payload, seq)
            self._logged_labels = len(labels)
            self._logged_types = len(types)
            self._logged_keys = len(keys)
            self.commits_logged += 1
        self._lsn_capture.seq = seq
        self._publish_capture.seq = seq
        if self._defer(seq):
            return
        self.sync(seq)
        if self.config.auto_checkpoint and self._should_checkpoint():
            self.checkpoint()

    def log_ddl(
        self,
        kind: str,
        name: str,
        pattern: str,
        populate: bool = True,
    ) -> None:
        """Log a path-index create/drop (replayed by re-running the DDL)."""
        if self._replicating:
            return
        self.injector.check()
        with self._lock:
            seq = max(self._seq, self.db.store.mvcc.published) + 1
            self._append(
                encode_ddl_record(seq, kind, name, pattern, populate), seq
            )
        if not self._defer(seq):
            self.sync(seq)

    def _append(self, payload: bytes, seq: int) -> None:
        """Append one record; caller holds ``_lock``."""
        self._wal.append(payload)
        self._seq = seq
        self._appended_seq = seq
        self._records_since_checkpoint += 1
        self._bytes_since_checkpoint += len(payload) + 8

    def _defer(self, seq: int) -> bool:
        if getattr(self._deferred, "active", False):
            self._deferred.pending = seq
            return True
        return False

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------

    def sync(self, seq: int) -> None:
        """Block until record ``seq`` is durable — sharing fsyncs.

        The first waiter becomes the leader and fsyncs everything appended
        so far; waiters whose records that fsync covered return without
        ever touching the file."""
        while True:
            with self._sync_cond:
                while True:
                    if self._durable_seq >= seq:
                        return
                    if not self._sync_leader:
                        self._sync_leader = True
                        target = self._appended_seq
                        base = self._durable_seq
                        wal = self._wal
                        break
                    self._sync_cond.wait()
            try:
                wal.fsync()
            except BaseException:
                with self._sync_cond:
                    self._sync_leader = False
                    self._sync_cond.notify_all()
                raise
            with self._sync_cond:
                if target > self._durable_seq:
                    self.last_group_size = target - base
                    self.synced_commits += target - base
                    self._durable_seq = target
                self.fsync_count += 1
                self._sync_leader = False
                self._sync_cond.notify_all()

    def begin_lsn_capture(self) -> None:
        """Reset this thread's captured commit LSN; pair with
        :meth:`captured_lsn` around a write to learn its log sequence
        number (the read-your-writes token returned to clients)."""
        self._lsn_capture.seq = None

    def take_publish_lsn(self) -> Optional[int]:
        """The WAL sequence of the commit currently closing on this thread,
        cleared on read. Installed as ``TransactionManager.lsn_provider``:
        version publish stamps the commit's MVCC versions with it. None for
        transactions that logged nothing (token-only commits)."""
        seq = getattr(self._publish_capture, "seq", None)
        self._publish_capture.seq = None
        return seq

    def captured_lsn(self) -> Optional[int]:
        """The LSN of the last commit this thread logged since
        :meth:`begin_lsn_capture` (None if it logged nothing)."""
        return getattr(self._lsn_capture, "seq", None)

    @contextmanager
    def deferred_sync(self):
        """Within this context the calling thread's commits append to the
        log but do not fsync; call :meth:`sync_pending` afterwards. The
        query service brackets its lock-held write execution with this, so
        the fsync happens outside the exclusive lock and concurrent writers
        can share one group commit."""
        previous = getattr(self._deferred, "active", False)
        self._deferred.active = True
        try:
            yield
        finally:
            self._deferred.active = previous

    def sync_pending(self) -> None:
        """Make the calling thread's deferred commits durable."""
        seq = getattr(self._deferred, "pending", None)
        self._deferred.pending = None
        if seq is not None:
            self.sync(seq)

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def _should_checkpoint(self) -> bool:
        return (
            self._records_since_checkpoint >= self.config.checkpoint_interval_records
            or self._bytes_since_checkpoint >= self.config.checkpoint_interval_bytes
        )

    def checkpoint(self) -> None:
        """Write an atomic snapshot and truncate the log.

        Takes the store's MVCC write lock itself (reentrant, so the
        commit-path auto-checkpoint nests under the committing writer):
        writers are excluded for the duration, while snapshot readers
        continue unimpeded — they resolve against version chains the
        checkpoint only reads. Afterwards, with the store quiescent,
        version chains are vacuumed and index deltas folded.
        """
        from repro.db.snapshot import write_snapshot_state

        injector = self.injector
        injector.check()
        with self.db.store.mvcc.exclusive_writer(), self._lock:
            injector.reach("checkpoint.before")
            next_id = self._checkpoint_id + 1
            tmp = self.directory / (_checkpoint_name(next_id) + ".tmp")
            if tmp.exists():
                shutil.rmtree(tmp)
            tmp.mkdir()
            # The snapshot absorbs every appended record and the publish
            # watermark (rollbacks mint LSNs above the last append); both
            # are recorded so reopen resumes the sequence and replication
            # knows which start LSNs this segment can still serve.
            floor = self._appended_seq
            watermark = max(self._appended_seq, self.db.store.mvcc.published)
            write_snapshot_state(
                self.db,
                tmp,
                on_progress=lambda _name: injector.reach("checkpoint.mid_snapshot"),
                extra_metadata={"base_lsn": watermark, "base_wal_seq": floor},
            )
            _fsync_tree(tmp)
            injector.reach("checkpoint.before_rename")
            os.replace(tmp, self.directory / _checkpoint_name(next_id))
            _fsync_dir(self.directory)
            new_wal = WriteAheadLog(self.directory / _wal_name(next_id), injector)
            injector.reach("checkpoint.before_current")
            _switch_current(self.directory, next_id)
            injector.reach("checkpoint.after_current")
            # The new pair is live. Swap the writer (waiting out any
            # in-flight group-commit leader: records appended but not yet
            # fsynced are covered by the snapshot, so they are durable now)
            # and then sweep the old pair.
            old_checkpoint = self.directory / _checkpoint_name(self._checkpoint_id)
            with self._sync_cond:
                while self._sync_leader:
                    self._sync_cond.wait()
                old_wal = self._wal
                self._wal = new_wal
                self._durable_seq = self._appended_seq
                self._sync_cond.notify_all()
            old_wal.close()
            try:
                os.remove(old_wal.path)
            except FileNotFoundError:
                pass
            shutil.rmtree(old_checkpoint, ignore_errors=True)
            injector.reach("checkpoint.after")
            self._checkpoint_id = next_id
            self._segment_floor = floor
            self._records_since_checkpoint = 0
            self._bytes_since_checkpoint = 0
            self.checkpoints_completed += 1
            # Reclaim version chains behind the oldest live snapshot and
            # fold stamped index deltas (skipped automatically while any
            # snapshot is live). Already under the write lock here.
            self.db.store.collect_versions()

    # ------------------------------------------------------------------
    # Replication (leader side: segment iteration + checkpoint shipping;
    # replica side: idempotent record application + snapshot install)
    # ------------------------------------------------------------------

    def maybe_checkpoint(self) -> bool:
        """Checkpoint now if the configured interval is exceeded (the
        replica apply loop calls this — its records bypass the commit
        path's auto-checkpoint trigger)."""
        if self.config.auto_checkpoint and self._should_checkpoint():
            self.checkpoint()
            return True
        return False

    def replication_position(self) -> dict:
        """Where the live segment is, for the leader-side shipper.

        The shipper compares ``checkpoint_id`` across polls to notice the
        segment being swapped out underneath it, and ``segment_floor`` to
        decide whether a subscriber's start LSN can still be served from
        the log (``from_lsn >= segment_floor``) or requires checkpoint
        catch-up. Only records with ``seq <= durable_seq`` may ship: a
        replica must never apply a record the leader could lose.
        """
        with self._lock:
            return {
                "checkpoint_id": self._checkpoint_id,
                "wal_path": self._wal.path,
                "segment_floor": self._segment_floor,
                "durable_seq": self._durable_seq,
                "epoch": self._epoch,
                "promote_lsn": self._promote_lsn,
            }

    def applied_lsn(self) -> int:
        """The highest LSN this database has applied/published."""
        return max(self._seq, self.db.store.mvcc.published)

    # ------------------------------------------------------------------
    # Leader epochs (controlled failover)
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The leader epoch this directory last served under (>= 1)."""
        return self._epoch

    @property
    def promote_lsn(self) -> int:
        """The LSN at which the current epoch began — the divergence
        floor: records at or below it are shared history with every lower
        epoch; records above it exist only on this epoch's timeline."""
        return self._promote_lsn

    def adopt_epoch(self, epoch: int, promote_lsn: int = 0) -> None:
        """Persist a higher epoch learned from a leader's stream (replica
        side). Lower or equal epochs are no-ops — epochs never regress."""
        self.injector.check()
        with self._lock:
            if epoch <= self._epoch:
                return
            _write_epoch_file(self.directory, epoch, promote_lsn)
            self._epoch = epoch
            self._promote_lsn = promote_lsn

    def promote(self) -> int:
        """Claim leadership: verify the WAL tail, fence the old epoch,
        and return the new one.

        The promotion recipe for a (stopped-tailing) replica: make every
        appended record durable, re-scan the on-disk tail and check that
        recovery would land exactly on the applied state, then atomically
        persist ``epoch + 1`` with this node's applied LSN as the new
        divergence floor. A crash before the EPOCH write means the
        promotion never happened (the node re-opens as a replica of the
        old epoch); a crash after it means the node re-opens already
        promoted. Both kill-points on that path are armed by the failover
        test matrix.
        """
        injector = self.injector
        injector.check()
        with self.db.store.mvcc.exclusive_writer(), self._lock:
            # Nothing the new leader could still lose may remain
            # unsynced: its state becomes the authoritative timeline.
            if self._appended_seq > self._durable_seq:
                self.sync(self._appended_seq)
            # Tail replay verification: scan the live segment the way
            # recovery would (the WAL file is unbuffered, so the scan
            # sees every appended byte) and require it to end exactly at
            # the applied sequence — a torn or lagging tail must surface
            # here, not after the epoch is claimed.
            injector.reach("promote.mid_tail_replay")
            payloads, _valid_length = scan_records(self._wal.path)
            tail_seq = self._segment_floor
            for payload in payloads:
                tail_seq = record_seq(decode_record(payload)[1])
            if payloads and tail_seq != self._appended_seq:
                raise DurabilityError(
                    f"promotion tail mismatch: log ends at sequence "
                    f"{tail_seq}, applied state at {self._appended_seq}"
                )
            injector.reach("promote.before_epoch_bump")
            new_epoch = self._epoch + 1
            divergence = self.applied_lsn()
            _write_epoch_file(self.directory, new_epoch, divergence)
            self._epoch = new_epoch
            self._promote_lsn = divergence
        return new_epoch

    def read_checkpoint(self) -> tuple[int, dict[str, bytes]]:
        """The live checkpoint's files, for shipping to a lagging replica.

        Returns ``(resume_lsn, files)``: after installing ``files`` the
        replica holds every change up to ``resume_lsn`` (the segment
        floor) and resubscribes from there. Read under the engine lock so
        a concurrent checkpoint cannot delete the directory mid-read.
        """
        self.injector.check()
        with self._lock:
            checkpoint_dir = self.directory / _checkpoint_name(self._checkpoint_id)
            files = {
                entry.name: entry.read_bytes()
                for entry in sorted(checkpoint_dir.iterdir())
                if entry.is_file()
            }
            return self._segment_floor, files

    def apply_replicated(self, payload: bytes) -> Optional[int]:
        """Apply one shipped log record; returns its LSN, or None if it
        was already applied (re-delivery after a reconnect is a no-op —
        idempotence comes from the monotonic sequence check, same as
        recovery's backwards-sequence guard).

        Runs under the store's exclusive writer lock so snapshot readers
        stay lock-free and consistent: the record's versions are pending
        (invisible) until ``publish_commit`` stamps them, and the lock
        keeps ``db.snapshot()``'s orphan-adoption path from publishing
        them early. The original payload bytes are appended verbatim to
        the replica's own WAL, so its directory recovers exactly like a
        leader's.
        """
        self.injector.check()
        record_type, body = decode_record(payload)
        seq = record_seq(body)
        store = self.db.store
        with store.mvcc.exclusive_writer(), self._lock:
            if seq <= max(self._seq, store.mvcc.published):
                return None
            self._replicating = True
            try:
                if record_type == REC_COMMIT:
                    apply_commit_record(self.db, body)
                else:
                    apply_ddl_record(self.db, body)
            finally:
                self._replicating = False
            self._append(payload, seq)
            store.publish_commit(seq)
            # Token registries advanced via the record's token suffix;
            # keep the logged-token cursors in step in case this database
            # is ever promoted to accept writes of its own.
            self._logged_labels = len(store.labels.all_tokens())
            self._logged_types = len(store.types.all_tokens())
            self._logged_keys = len(store.property_keys.all_tokens())
        return seq

    @staticmethod
    def install_checkpoint(directory: Union[str, Path], files: dict) -> None:
        """Install shipped checkpoint files as ``directory``'s live pair.

        The replica's catch-up path: writes the files into a fresh
        checkpoint directory (same tmp → fsync → rename → ``CURRENT``
        dance as a local checkpoint, so a crash mid-install leaves the old
        pair intact), then sweeps the obsolete pair. The caller re-opens
        the directory afterwards; the paired WAL segment starts empty.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        current = directory / "CURRENT"
        next_id = 1
        if current.exists():
            next_id = int(current.read_text().strip()) + 1
        tmp = directory / (_checkpoint_name(next_id) + ".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        for name, data in files.items():
            if "/" in name or name.startswith("."):
                raise DurabilityError(f"unsafe checkpoint file name {name!r}")
            (tmp / name).write_bytes(data)
        _fsync_tree(tmp)
        os.replace(tmp, directory / _checkpoint_name(next_id))
        _fsync_dir(directory)
        _switch_current(directory, next_id)
        _clean_orphans(directory, next_id)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Fsync anything pending and release the log file."""
        if self.injector.crashed:
            self._wal.close()
            return
        with self._lock:
            if self._appended_seq > self._durable_seq:
                self.sync(self._appended_seq)
            self._wal.close()

    def simulate_power_loss(self) -> None:
        """After a simulated crash: drop log bytes the OS never fsynced,
        modelling power loss rather than a mere process kill."""
        self._wal.truncate_to_synced()

    def status(self) -> dict:
        """Counters for the service metrics section and the shell."""
        return {
            "directory": str(self.directory),
            "checkpoint_id": self._checkpoint_id,
            "appended_seq": self._appended_seq,
            "durable_seq": self._durable_seq,
            "commits_logged": self.commits_logged,
            "fsyncs": self.fsync_count,
            "synced_commits": self.synced_commits,
            "last_group_size": self.last_group_size,
            "checkpoints": self.checkpoints_completed,
            "segment_floor": self._segment_floor,
            "epoch": self._epoch,
            "promote_lsn": self._promote_lsn,
            "recovered_records": self.recovered_records,
            "records_since_checkpoint": self._records_since_checkpoint,
            "bytes_since_checkpoint": self._bytes_since_checkpoint,
            "crashed": self.injector.crashed,
        }


# ---------------------------------------------------------------------------
# Directory helpers
# ---------------------------------------------------------------------------


def _checkpoint_name(checkpoint_id: int) -> str:
    return f"checkpoint-{checkpoint_id:06d}"


def _wal_name(checkpoint_id: int) -> str:
    return f"wal-{checkpoint_id:06d}.log"


def _read_epoch_file(directory: Path) -> tuple[int, int]:
    """``(epoch, promote_lsn)`` from ``EPOCH``; ``(1, 0)`` when absent."""
    try:
        parts = (directory / "EPOCH").read_text().split()
    except FileNotFoundError:
        return 1, 0
    try:
        epoch = int(parts[0])
        promote_lsn = int(parts[1]) if len(parts) > 1 else 0
    except (IndexError, ValueError) as exc:
        raise DurabilityError(f"malformed EPOCH file in {directory}") from exc
    if epoch < 1 or promote_lsn < 0:
        raise DurabilityError(f"malformed EPOCH file in {directory}")
    return epoch, promote_lsn


def _write_epoch_file(directory: Path, epoch: int, promote_lsn: int) -> None:
    """Atomically persist the epoch fence (write temp, fsync, rename,
    fsync dir — same dance as ``CURRENT``, so a crash leaves either the
    old fence or the new one, never a torn file)."""
    tmp = directory / "EPOCH.tmp"
    tmp.write_text(f"{epoch} {promote_lsn}\n")
    _fsync_file(tmp)
    os.replace(tmp, directory / "EPOCH")
    _fsync_dir(directory)


def _switch_current(directory: Path, checkpoint_id: int) -> None:
    """Atomically repoint ``CURRENT`` (write temp, fsync, rename, fsync dir)."""
    tmp = directory / "CURRENT.tmp"
    tmp.write_text(f"{checkpoint_id:06d}\n")
    _fsync_file(tmp)
    os.replace(tmp, directory / "CURRENT")
    _fsync_dir(directory)


def _clean_orphans(directory: Path, keep_id: int) -> None:
    """Sweep artifacts of an interrupted checkpoint or bootstrap: anything
    not referenced by ``CURRENT`` is garbage by construction. Spill files
    are always transient (a query that crashed mid-spill never commits
    anything that references them), so every ``*.spill`` goes too."""
    keep = {_checkpoint_name(keep_id), _wal_name(keep_id), "CURRENT", "EPOCH"}
    for entry in directory.iterdir():
        if entry.name in keep:
            continue
        if entry.name.startswith("checkpoint-"):
            shutil.rmtree(entry, ignore_errors=True)
        elif (
            entry.name.startswith("wal-")
            or entry.name == "CURRENT.tmp"
            or entry.name == "EPOCH.tmp"
            or entry.name.endswith(".spill")
        ):
            try:
                os.remove(entry)
            except OSError:
                pass


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    _fsync_file(path)


def _fsync_tree(path: Path) -> None:
    for child in path.iterdir():
        _fsync_file(child)
    _fsync_dir(path)
