"""The asyncio binary-protocol server fronting one :class:`QueryService`.

One :class:`_Session` per TCP connection. Each session runs two coroutines:

* a **read loop** that parses frames off the socket as fast as they arrive
  and queues them (bounded), so requests *pipeline* — a client may write
  HELLO RUN PULL RUN PULL back-to-back and the responses come back in
  order — and so a client disconnect is noticed immediately, even while a
  query of that session is still executing (its cancellation token is
  triggered: disconnect → cooperative cancel at the next row boundary);
* a **dispatch loop** that handles the queued requests strictly in order.

Queries run through the shared :class:`~repro.service.QueryService`, so
admission control, deadlines, write-conflict retry, memory grants and the
slow-query watchdog all apply per remote session; service errors travel
back as structured FAILURE frames (:func:`repro.wire.failure_fields`).

Result rows stream in bounded chunks under **credit-based backpressure**:
a PULL grants credit for ``n`` rows, the server sends at most that many
(in ``chunk_rows``-sized RECORD frames, each followed by a socket drain
bounded by ``WRITE_BUFFER_HIGH_BYTES``), then parks the rest of the
materialized, memory-governed result until the client asks again. A
credit-exhausted pause is counted in ``server.backpressure_stalls``; a
socket-buffer-full pause in ``server.drain_stalls``. A slow client
therefore costs the server nothing beyond its own (already admitted and
memory-accounted) result — other sessions stream unhindered.

Metrics go to the service's :class:`~repro.service.MetricsRegistry` under
the ``server.*`` prefix: sessions opened/closed, frames and bytes in/out,
rows/bytes streamed, stalls, disconnect cancels, protocol errors.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from repro import wire
from repro.durability.faults import SimulatedCrashError
from repro.durability.operations import decode_record, record_seq
from repro.durability.wal import iter_tail_frames
from repro.errors import (
    AuthenticationError,
    ProtocolError,
    QueryCancelledError,
    ReadOnlyReplicaError,
    ReplicationError,
    ReproError,
    ServiceShutdownError,
    StaleEpochError,
    StalenessError,
)
from repro.service import QueryOutcome, QueryService

_EOF = object()

SNAPSHOT_CHUNK_BYTES = 4 << 20
"""Checkpoint files ship in chunks of at most this many bytes per
SNAPSHOT_FILE frame (well under the wire's MAX_FRAME_BYTES)."""

HANDSHAKE_TIMEOUT_S = 10.0
"""How long a fresh connection may take to send HELLO."""

REQUEST_QUEUE_FRAMES = 64
"""Pipelined requests buffered per session before the read loop stops
reading (TCP backpressure onto the client)."""

WRITE_BUFFER_HIGH_BYTES = 1 << 16
"""Transport write-buffer high-water mark; streaming pauses (and counts a
``server.drain_stalls``) whenever the socket buffer exceeds it."""

SHIP_POLL_S = 0.02
"""Leader-side shipping: how often an idle subscriber session polls the
log for newly durable records."""

SHIP_BATCH_RECORDS = 256
"""At most this many records per WAL_SEGMENT frame."""

SHIP_BATCH_BYTES = 1 << 20
"""Flush a WAL_SEGMENT frame once its records reach this many bytes."""

SHIP_UNACKED_HIGH_BYTES = 4 << 20
"""Backpressure high-water mark: a subscriber with more than this many
shipped-but-unacknowledged bytes in flight is not sent more segments until
WAL_ACKs drain the window (a stalled replica cannot make the leader buffer
unboundedly)."""

HEARTBEAT_S = 1.0
"""Ship an empty WAL_SEGMENT (heartbeat, carrying ``durable_lsn``) when
nothing was sent for this long; replicas answer with a WAL_ACK carrying
their applied LSN, which feeds the leader's lag accounting."""


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for a :class:`Server`."""

    host: str = "127.0.0.1"
    """Interface to bind (loopback by default; this is a reproduction, not
    a hardened daemon)."""

    port: int = 7687
    """TCP port; ``0`` binds an ephemeral port (see :attr:`Server.address`)."""

    auth_token: Optional[str] = None
    """When set, HELLO must carry ``auth.token`` equal to this value or the
    session is rejected with :class:`AuthenticationError`."""

    chunk_rows: int = 64
    """Rows per RECORD frame while streaming a result."""

    drain_timeout_s: float = 10.0
    """Graceful-drain budget: on :meth:`Server.drain`, busy sessions get
    this long to finish their current request/stream before their queries
    are cancelled and their connections closed."""

    wait_threads: int = 64
    """Threads used to await blocking service tickets (each busy session
    parks one; they spend their life blocked on an event, so this merely
    caps concurrently *awaited* queries, not executed ones)."""

    replica_of: Optional[str] = None
    """When set (``host:port`` of the leader), this server *starts as* a
    read-only replica: write statements are rejected with a structured
    :class:`~repro.errors.ReadOnlyReplicaError` naming the leader, and
    SUBSCRIBE is refused (no chaining). The role is dynamic state on
    :class:`Server` — a ``PROMOTE`` flips it to leader in place."""

    require_lsn_wait_s: float = 5.0
    """How long a RUN carrying ``require_lsn`` may wait for this server to
    apply/publish that LSN before failing with
    :class:`~repro.errors.StalenessError` (read-your-writes bound)."""

    def __post_init__(self) -> None:
        if self.chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        if self.wait_threads < 1:
            raise ValueError("wait_threads must be positive")


class Server:
    """Asyncio TCP front door over one :class:`QueryService`."""

    def __init__(
        self, service: QueryService, config: Optional[ServerConfig] = None
    ) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.metrics = service.metrics
        self._sessions: set["_Session"] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._draining = False
        self._next_session = 0
        self.address: Optional[tuple[str, int]] = None
        # Leader-side subscriber registry: session id -> shipping state
        # (shipped/applied LSNs, bytes). Mutated only from the event loop;
        # read by STATUS and the service metrics.
        self.subscribers: dict[int, dict] = {}
        # Set by the --replica-of entrypoint (and replica tests) so STATUS
        # can report the tailer's connection state and lag.
        self.replica = None
        # Failover state: unlike the frozen config it starts from, the
        # role is dynamic — a PROMOTE flips a replica to leader in place.
        self.role = "replica" if self.config.replica_of else "leader"
        self.leader_name: Optional[str] = self.config.replica_of
        # Highest epoch this (leader) server has been fenced by: gossip —
        # a STATUS or SUBSCRIBE carrying a higher epoch than ours means a
        # promotion superseded us. A fenced leader never acknowledges
        # another write and refuses subscriptions.
        self.fenced_by: Optional[int] = None

    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.wait_threads,
            thread_name_prefix="repro-server-wait",
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    @property
    def sessions_open(self) -> int:
        return len(self._sessions)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def epoch(self) -> int:
        """The leader epoch this server serves under (1 when non-durable)."""
        engine = self.service.db.durability
        return engine.epoch if engine is not None else 1

    def fence(self, epoch: int) -> None:
        """Record that a higher epoch superseded this leader: from now on
        it rejects writes and subscriptions with a retryable
        :class:`StaleEpochError` until it rejoins as a replica."""
        if self.fenced_by is None or epoch > self.fenced_by:
            if self.fenced_by is None:
                self.metrics.counter("server.fenced").inc()
            self.fenced_by = epoch

    def superseded(self, advice: str = "") -> StaleEpochError:
        """The refusal a fenced leader answers with."""
        return StaleEpochError(
            f"this leader (epoch {self.epoch}) has been superseded by epoch "
            f"{self.fenced_by}{advice}",
            epoch=self.epoch,
            current_epoch=self.fenced_by,
        )

    def promote(self) -> int:
        """Flip this replica into the new leader (blocking; runs in a
        wait thread). Stops the tailer (keeping the database open),
        verifies the WAL tail and bumps the persisted epoch through
        :meth:`DurabilityEngine.promote`, then makes the service writable
        by flipping the role — SUBSCRIBE works immediately after (shipping
        is per-session), so survivors can re-point here."""
        engine = self.service.db.durability
        if engine is None:
            raise ReplicationError("cannot promote a non-durable server")
        if self.role != "replica":
            raise ReplicationError(
                f"only a replica can be promoted (this server is a "
                f"{self.role} at epoch {engine.epoch})"
            )
        replica = self.replica
        if replica is not None:
            replica.stop_tailing()
        new_epoch = engine.promote()
        self.role = "leader"
        self.leader_name = None
        self.fenced_by = None
        self.metrics.counter("server.promotions").inc()
        return new_epoch

    def status_fields(self) -> dict:
        """The STATUS response: role, epoch, LSN watermarks, subscriber lag."""
        db = self.service.db
        engine = db.durability
        fields: dict = {
            "role": self.role,
            "epoch": self.epoch,
            "fenced": self.fenced_by is not None,
            "published_lsn": db.store.mvcc.published,
            "sessions": self.sessions_open,
            "draining": self._draining,
            # misses count plannings; a text answered by its shape is a hit
            "plan_cache": db.plan_cache.counters(),
            "maintenance_plan_cache": db.maintenance_plan_cache.counters(),
        }
        if self.fenced_by is not None:
            fields["fenced_by"] = self.fenced_by
        if self.leader_name:
            fields["leader"] = self.leader_name
        if engine is not None:
            position = engine.replication_position()
            fields["applied_lsn"] = engine.applied_lsn()
            fields["durable_lsn"] = position["durable_seq"]
            fields["segment_floor"] = position["segment_floor"]
            fields["promote_lsn"] = position["promote_lsn"]
        else:
            fields["applied_lsn"] = db.store.mvcc.published
        replica = self.replica
        if replica is not None:
            fields.update(replica.status_fields())
        fields["subscribers"] = [
            {
                "session": session_id,
                "shipped_lsn": sub["shipped_lsn"],
                "applied_lsn": sub["applied_lsn"],
                "bytes_shipped": sub["bytes_shipped"],
                "unacked_bytes": sum(size for _seq, size in sub["in_flight"]),
            }
            for session_id, sub in sorted(self.subscribers.items())
        ]
        return fields

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, let busy sessions finish
        their current request (up to ``drain_timeout_s``), then cancel
        stragglers' queries and close every connection."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        for session in list(self._sessions):
            session.poke_drain()
        deadline = loop.time() + self.config.drain_timeout_s
        while self._sessions and loop.time() < deadline:
            await asyncio.sleep(0.02)
        for session in list(self._sessions):
            self.metrics.counter("server.drain_aborts").inc()
            session.abort()
        # Aborted transports unwind promptly; bound the wait regardless.
        deadline = loop.time() + 5.0
        while self._sessions and loop.time() < deadline:
            await asyncio.sleep(0.01)
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_session += 1
        session = _Session(self, self._next_session, reader, writer)
        self._sessions.add(session)
        self.metrics.counter("server.sessions_opened").inc()
        try:
            await session.run()
        finally:
            self._sessions.discard(session)
            self.metrics.counter("server.sessions_closed").inc()


class _OpenResult:
    """A completed query's rows, parked server-side awaiting PULL credit."""

    def __init__(self, outcome: QueryOutcome) -> None:
        self.outcome = outcome
        self.columns = outcome.columns
        self._cursor = 0

    @property
    def remaining(self) -> int:
        return len(self.outcome.rows) - self._cursor

    def next_chunk(self, limit: int) -> list[list]:
        rows = self.outcome.rows[self._cursor : self._cursor + limit]
        self._cursor += len(rows)
        return [
            [wire.wire_value(row.get(column)) for column in self.columns]
            for row in rows
        ]

    def summary(self) -> dict:
        outcome = self.outcome
        summary = {name: getattr(outcome, name) for name in wire.SUMMARY_FIELDS}
        summary.update(has_more=False, rows_total=outcome.row_count)
        return summary


class _Session:
    """One connection: handshake, pipelined dispatch, streamed results."""

    def __init__(
        self,
        server: Server,
        session_id: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.session_id = session_id
        self.config = server.config
        self.metrics = server.metrics
        self._reader = reader
        self._writer = writer
        self._requests: asyncio.Queue = asyncio.Queue(maxsize=REQUEST_QUEUE_FRAMES)
        self._statements: dict[int, str] = {}
        self._next_statement = 1
        self._result: Optional[_OpenResult] = None
        self._ticket = None
        self._busy = False
        self._disconnected = False
        transport = writer.transport
        if transport is not None:
            transport.set_write_buffer_limits(high=WRITE_BUFFER_HIGH_BYTES)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(self) -> None:
        read_task: Optional[asyncio.Task] = None
        try:
            if not await self._handshake():
                return
            read_task = asyncio.get_running_loop().create_task(self._read_loop())
            while True:
                item = await self._requests.get()
                if item is _EOF:
                    break
                if isinstance(item, ProtocolError):
                    await self._send_failure(item)
                    break
                tag, fields = item
                if tag == wire.MSG_GOODBYE:
                    break
                self._busy = True
                try:
                    await self._dispatch(tag, fields)
                finally:
                    self._busy = False
                if self.server.draining and self._result is None:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if read_task is not None:
                read_task.cancel()
            self._cancel_inflight()
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def poke_drain(self) -> None:
        """Drain notification: close now if idle, else let the dispatch
        loop finish the current request/stream first."""
        if not self._busy and self._result is None:
            self._writer.close()

    def abort(self) -> None:
        """Hard close: cancel the in-flight query and drop the transport."""
        self._cancel_inflight()
        self._writer.close()

    def _cancel_inflight(self) -> None:
        ticket = self._ticket
        if ticket is not None and not ticket.done:
            self.metrics.counter("server.disconnect_cancels").inc()
            ticket.cancel()

    # ------------------------------------------------------------------
    # Frame I/O
    # ------------------------------------------------------------------

    async def _read_frame(self) -> Optional[tuple[int, dict]]:
        """One decoded frame, or None on clean EOF."""
        frame = await read_frame(self._reader)
        if frame is None:
            return None
        tag, fields, size = frame
        self.metrics.counter("server.frames_in").inc()
        self.metrics.counter("server.bytes_in").inc(size)
        return tag, fields

    async def _read_loop(self) -> None:
        """Parse frames as they arrive; notices disconnects immediately and
        cancels the in-flight query (client gone → token cancel)."""
        try:
            while True:
                frame = await self._read_frame()
                if frame is None:
                    break
                await self._requests.put(frame)
        except ProtocolError as exc:
            self.metrics.counter("server.protocol_errors").inc()
            self._disconnected = True
            self._cancel_inflight()
            await self._requests.put(exc)
            return
        except (ConnectionError, OSError):
            pass
        self._disconnected = True
        self._cancel_inflight()
        await self._requests.put(_EOF)

    async def _send(self, tag: int, fields: dict) -> int:
        """Write one frame and drain; its size in bytes."""
        # Control frames are small; drain-stall accounting only matters on
        # the credit-based PULL stream (see _on_pull), which is where the
        # write buffer can actually fill.
        data = wire.encode_frame(tag, fields)
        self._writer.write(data)
        self.metrics.counter("server.frames_out").inc()
        self.metrics.counter("server.bytes_out").inc(len(data))
        await self._writer.drain()
        return len(data)

    async def _send_failure(self, exc: BaseException) -> None:
        self.metrics.counter("server.failures_sent").inc()
        try:
            await self._send(wire.MSG_FAILURE, wire.failure_fields(exc))
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------

    async def _handshake(self) -> bool:
        try:
            frame = await asyncio.wait_for(
                self._read_frame(), timeout=HANDSHAKE_TIMEOUT_S
            )
        except (asyncio.TimeoutError, ProtocolError, ConnectionError):
            self.metrics.counter("server.handshakes_failed").inc()
            return False
        if frame is None or frame[0] != wire.MSG_HELLO:
            self.metrics.counter("server.handshakes_failed").inc()
            if frame is not None:
                await self._send_failure(
                    ProtocolError("first message must be HELLO")
                )
            return False
        try:
            version = wire.check_hello(frame[1], self.config.auth_token)
        except (ProtocolError, AuthenticationError) as exc:
            rejected = isinstance(exc, AuthenticationError)
            self.metrics.counter(
                "server.auth_rejections" if rejected else "server.handshakes_failed"
            ).inc()
            await self._send_failure(exc)
            return False
        await self._send(
            wire.MSG_SUCCESS,
            {
                "version": version,
                "server": _server_banner(),
                "session": self.session_id,
                "role": self.server.role,
                "epoch": self.server.epoch,
            },
        )
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self, tag: int, fields: dict) -> None:
        if tag == wire.MSG_RUN:
            await self._on_run(fields)
        elif tag == wire.MSG_PULL:
            await self._on_pull(fields)
        elif tag == wire.MSG_DISCARD:
            await self._on_discard()
        elif tag == wire.MSG_PREPARE:
            await self._on_prepare(fields)
        elif tag == wire.MSG_RESET:
            await self._on_reset()
        elif tag == wire.MSG_STATUS:
            await self._on_status(fields)
        elif tag == wire.MSG_SUBSCRIBE:
            await self._on_subscribe(fields)
        elif tag == wire.MSG_PROMOTE:
            await self._on_promote(fields)
        elif tag == wire.MSG_REPOINT:
            await self._on_repoint(fields)
        elif tag == wire.MSG_WAL_ACK:
            await self._send_failure(
                ProtocolError("WAL_ACK outside an active subscription")
            )
        elif tag == wire.MSG_HELLO:
            await self._send_failure(ProtocolError("session already started"))
        else:
            await self._send_failure(
                ProtocolError(
                    f"unexpected {wire.MESSAGE_NAMES[tag]} message from client"
                )
            )

    def _resolve_query(self, fields: dict) -> str:
        statement = fields.get("stmt")
        if statement is not None:
            query = self._statements.get(statement)
            if query is None:
                raise ProtocolError(f"unknown prepared statement id {statement}")
            return query
        query = fields.get("query")
        if not isinstance(query, str) or not query:
            raise ProtocolError("RUN needs a 'query' string or a 'stmt' id")
        return query

    async def _on_run(self, fields: dict) -> None:
        if self._result is not None:
            await self._send_failure(
                ProtocolError(
                    "previous result still open — PULL or DISCARD it first"
                )
            )
            return
        if self.server.draining:
            await self._send_failure(
                ServiceShutdownError("server is draining")
            )
            return
        try:
            query = self._resolve_query(fields)
        except ProtocolError as exc:
            await self._send_failure(exc)
            return
        deadline = fields.get("deadline_s")
        if deadline is not None and not isinstance(deadline, (int, float)):
            await self._send_failure(ProtocolError("deadline_s must be a number"))
            return
        require_lsn = fields.get("require_lsn")
        if require_lsn is not None and (
            isinstance(require_lsn, bool) or not isinstance(require_lsn, int)
        ):
            await self._send_failure(
                ProtocolError("require_lsn must be an integer LSN")
            )
            return
        loop = asyncio.get_running_loop()
        server = self.server
        fenced_by = server.fenced_by
        if server.role == "replica" or fenced_by is not None:
            # Classify before submitting: a replica serves reads only,
            # and a fenced old leader must never acknowledge another
            # write. The prepare goes through the plan cache, so the
            # classification costs a lookup on the steady state.
            try:
                cached = await self._prepare(query)
            except ReproError as exc:
                await self._send_failure(exc)
                return
            if cached.analyzed.is_write and server.role == "replica":
                leader = server.leader_name or "<unknown>"
                self.metrics.counter("server.replica_write_rejections").inc()
                await self._send_failure(
                    ReadOnlyReplicaError(
                        "this server is a read-only replica — "
                        f"send writes to the leader at {leader}",
                        leader=leader,
                    )
                )
                return
            if cached.analyzed.is_write and fenced_by is not None:
                self.metrics.counter("server.fenced_write_rejections").inc()
                await self._send_failure(
                    server.superseded(" — writes belong to the promoted leader")
                )
                return
        if require_lsn:
            # Read-your-writes: hold the read until this server has
            # published the token's LSN (immediate on the leader; a
            # bounded wait on a catching-up replica).
            if not await loop.run_in_executor(
                self.server._executor, self._await_published, require_lsn
            ):
                applied = self.server.service.db.store.mvcc.published
                self.metrics.counter("server.staleness_rejections").inc()
                await self._send_failure(
                    StalenessError(
                        f"required LSN {require_lsn} not applied within "
                        f"{self.config.require_lsn_wait_s:.1f}s "
                        f"(applied {applied})",
                        require_lsn=require_lsn,
                        applied_lsn=applied,
                    )
                )
                return
        try:
            ticket = self.server.service.submit(query, deadline_s=deadline)
        except ReproError as exc:
            await self._send_failure(exc)
            return
        self._ticket = ticket
        try:
            outcome = await loop.run_in_executor(
                self.server._executor, ticket.result
            )
        except QueryCancelledError as exc:
            self._ticket = None
            if self._disconnected:
                return  # nobody is listening
            await self._send_failure(exc)
            return
        except BaseException as exc:  # noqa: BLE001 - report to the client
            self._ticket = None
            await self._send_failure(exc)
            return
        self._ticket = None
        self._result = _OpenResult(outcome)
        self.metrics.counter("server.queries").inc()
        await self._send(wire.MSG_SUCCESS, {"columns": outcome.columns})

    async def _on_prepare(self, fields: dict) -> None:
        query = fields.get("query")
        if not isinstance(query, str) or not query:
            await self._send_failure(ProtocolError("PREPARE needs a 'query'"))
            return
        try:
            cached = await self._prepare(query)
        except ReproError as exc:
            await self._send_failure(exc)
            return
        statement = self._next_statement
        self._next_statement += 1
        self._statements[statement] = query
        self.metrics.counter("server.prepares").inc()
        await self._send(
            wire.MSG_SUCCESS,
            {
                "stmt": statement,
                "columns": cached.columns,
                "is_write": cached.analyzed.is_write,
            },
        )

    async def _prepare(self, query: str):
        """``db.prepare(query)`` in a wait thread; the plan cache answers
        a text it has seen."""
        return await asyncio.get_running_loop().run_in_executor(
            self.server._executor, self.server.service.db.prepare, query
        )

    async def _on_pull(self, fields: dict) -> None:
        result = self._result
        if result is None:
            await self._send_failure(ProtocolError("no open result to PULL"))
            return
        credit = fields.get("n", -1)
        if not isinstance(credit, int) or (credit < 1 and credit != -1):
            await self._send_failure(
                ProtocolError("PULL credit 'n' must be a positive int or -1")
            )
            return
        remaining = None if credit == -1 else credit
        while result.remaining and (remaining is None or remaining > 0):
            take = self.config.chunk_rows
            if remaining is not None:
                take = min(take, remaining)
            chunk = result.next_chunk(take)
            frame = wire.encode_frame(wire.MSG_RECORD, {"rows": chunk})
            self.metrics.counter("server.stream_chunks").inc()
            self.metrics.counter("server.records_streamed").inc(len(chunk))
            self.metrics.counter("server.bytes_streamed").inc(len(frame))
            self.metrics.counter("server.frames_out").inc()
            self.metrics.counter("server.bytes_out").inc(len(frame))
            self._writer.write(frame)
            transport = self._writer.transport
            if (
                transport is not None
                and transport.get_write_buffer_size() > WRITE_BUFFER_HIGH_BYTES
            ):
                self.metrics.counter("server.drain_stalls").inc()
            await self._writer.drain()
            if remaining is not None:
                remaining -= len(chunk)
        if result.remaining:
            # Credit exhausted with rows still parked: the client paces us.
            self.metrics.counter("server.backpressure_stalls").inc()
            await self._send(wire.MSG_SUCCESS, {"has_more": True})
        else:
            self._result = None
            await self._send(wire.MSG_SUCCESS, result.summary())

    async def _on_discard(self) -> None:
        result = self._result
        if result is None:
            await self._send_failure(ProtocolError("no open result to DISCARD"))
            return
        self._result = None
        self.metrics.counter("server.discards").inc()
        summary = result.summary()
        summary["discarded"] = result.remaining
        await self._send(wire.MSG_SUCCESS, summary)

    async def _on_reset(self) -> None:
        self._result = None
        self.metrics.counter("server.resets").inc()
        await self._send(wire.MSG_SUCCESS, {})

    async def _on_status(self, fields: dict) -> None:
        self.metrics.counter("server.status_requests").inc()
        peer_epoch = fields.get("epoch")
        if (
            isinstance(peer_epoch, int)
            and not isinstance(peer_epoch, bool)
            and self.server.role == "leader"
            and peer_epoch > self.server.epoch
        ):
            # Gossip fencing: the poller (the router's health loop) has
            # observed a higher epoch — a promotion happened without us.
            self.server.fence(peer_epoch)
        await self._send(wire.MSG_SUCCESS, self.server.status_fields())

    async def _on_promote(self, fields: dict) -> None:
        server = self.server
        self.metrics.counter("server.promote_requests").inc()
        loop = asyncio.get_running_loop()
        try:
            new_epoch = await loop.run_in_executor(
                server._executor, server.promote
            )
        except SimulatedCrashError:
            # The injector killed the candidate mid-promotion: the
            # session dies like a crashed process (no FAILURE frame).
            self._writer.close()
            return
        except ReproError as exc:
            await self._send_failure(exc)
            return
        engine = server.service.db.durability
        await self._send(
            wire.MSG_SUCCESS,
            {
                "role": server.role,
                "epoch": new_epoch,
                "promote_lsn": engine.promote_lsn,
                "applied_lsn": engine.applied_lsn(),
            },
        )

    async def _on_repoint(self, fields: dict) -> None:
        server = self.server
        leader = fields.get("leader")
        if not isinstance(leader, str) or not leader:
            await self._send_failure(
                ProtocolError("REPOINT needs a 'leader' host:port string")
            )
            return
        if server.role != "replica" or server.replica is None:
            await self._send_failure(
                ReplicationError(
                    "REPOINT only applies to a running replica"
                )
            )
            return
        try:
            server.replica.repoint(leader)
        except ValueError as exc:
            await self._send_failure(ProtocolError(str(exc)))
            return
        server.leader_name = server.replica.leader_name
        self.metrics.counter("server.repoints").inc()
        await self._send(wire.MSG_SUCCESS, {"leader": server.leader_name})

    def _await_published(self, require_lsn: int) -> bool:
        """Block (in a wait thread) until this server's published LSN
        reaches ``require_lsn``; False on timeout/drain."""
        deadline = time.monotonic() + self.config.require_lsn_wait_s
        while True:
            # Read through the service each poll: a replica resync swaps
            # the database object underneath us.
            if self.server.service.db.store.mvcc.published >= require_lsn:
                return True
            if time.monotonic() >= deadline or self.server.draining:
                return False
            time.sleep(0.002)

    # ------------------------------------------------------------------
    # Replication: leader-side shipping
    # ------------------------------------------------------------------

    async def _on_subscribe(self, fields: dict) -> None:
        server = self.server
        engine = server.service.db.durability
        if engine is None:
            await self._send_failure(
                ReplicationError(
                    "server is not durable — there is no log to ship"
                )
            )
            return
        if server.role != "leader":
            await self._send_failure(
                ReplicationError(
                    "cannot subscribe to a replica — subscribe to the "
                    f"leader at {server.leader_name or '<unknown>'}"
                )
            )
            return
        from_lsn = fields.get("from_lsn", 0)
        if isinstance(from_lsn, bool) or not isinstance(from_lsn, int) or from_lsn < 0:
            await self._send_failure(
                ProtocolError("SUBSCRIBE needs a non-negative integer 'from_lsn'")
            )
            return
        sub_epoch = fields.get("epoch", 0)
        if isinstance(sub_epoch, bool) or not isinstance(sub_epoch, int) or sub_epoch < 0:
            await self._send_failure(
                ProtocolError("SUBSCRIBE 'epoch' must be a non-negative integer")
            )
            return
        if sub_epoch > engine.epoch:
            # The subscriber has seen a newer epoch than ours: *we* are
            # the stale leader. Fence ourselves and refuse the stream.
            server.fence(sub_epoch)
        if server.fenced_by is not None:
            await self._send_failure(
                server.superseded(" — subscribe to the promoted leader")
            )
            return
        sub = {
            "shipped_lsn": from_lsn,
            "applied_lsn": from_lsn,
            "bytes_shipped": 0,
            "in_flight": [],  # (seq, frame bytes) shipped but unacked
        }
        server.subscribers[self.session_id] = sub
        self.metrics.counter("server.subscriptions").inc()
        try:
            await self._ship_loop(engine, from_lsn, sub, sub_epoch)
        except SimulatedCrashError:
            # The fault injector killed the leader mid-ship: the session
            # dies like a crashed process would (no FAILURE frame, the
            # replica just sees the connection drop).
            self._writer.close()
        except (ConnectionError, OSError):
            pass
        finally:
            server.subscribers.pop(self.session_id, None)

    async def _ship_loop(
        self, engine, from_lsn: int, sub: dict, sub_epoch: int = 0
    ) -> None:
        loop = asyncio.get_running_loop()
        executor = self.server._executor
        position = engine.replication_position()
        needs_snapshot = from_lsn < position["segment_floor"]
        if (
            not needs_snapshot
            and sub_epoch
            and sub_epoch < engine.epoch
            and from_lsn > position["promote_lsn"]
        ):
            # Divergence discard: the subscriber's history extends past
            # the point where this leader's epoch began, on an older
            # timeline — those records were never acknowledged by this
            # epoch and must go. Re-seed it from the checkpoint (the
            # install replaces its live pair wholesale).
            self.metrics.counter("replication.reseeds").inc()
            needs_snapshot = True
        if not needs_snapshot and from_lsn > position["durable_seq"]:
            # Ahead of us even without an epoch gap (should not happen on
            # a shared timeline); reseeding is the safe convergence path.
            self.metrics.counter("replication.reseeds").inc()
            needs_snapshot = True
        epoch_fields = {
            "epoch": engine.epoch,
            "promote_lsn": position["promote_lsn"],
        }
        if needs_snapshot:
            # The requested start pre-dates the live segment (folded into
            # the checkpoint) or diverges from it: ship the checkpoint
            # itself and resume the log from its floor.
            await self._send(wire.MSG_SUCCESS, {"mode": "snapshot", **epoch_fields})
            resume_lsn, files = await loop.run_in_executor(
                executor, engine.read_checkpoint
            )
            for name in sorted(files):
                await self._send_snapshot_file(name, files[name], sub)
            await self._send(
                wire.MSG_SUCCESS,
                {"snapshot_complete": True, "base_lsn": resume_lsn},
            )
            self.metrics.counter("server.snapshots_shipped").inc()
            from_lsn = resume_lsn
            sub["shipped_lsn"] = resume_lsn
            sub["applied_lsn"] = resume_lsn
        else:
            await self._send(
                wire.MSG_SUCCESS,
                {
                    "mode": "wal",
                    "from_lsn": from_lsn,
                    "durable_lsn": position["durable_seq"],
                    **epoch_fields,
                },
            )

        checkpoint_id = None
        offset = 0
        last_sent = from_lsn
        last_activity = loop.time()
        while True:
            if self.server.draining or self._disconnected:
                return
            if self.server.fenced_by is not None:
                # Fenced mid-stream: stop feeding subscribers our stale
                # timeline; they resubscribe to the promoted leader.
                await self._send_failure(self.server.superseded())
                return
            # A crashed (fault-injected) leader is a dead process: it must
            # not keep heartbeating subscribers that reconnect to it.
            engine.injector.check()
            if not self._drain_acks(sub):
                return
            position = engine.replication_position()
            if position["checkpoint_id"] != checkpoint_id:
                if last_sent < position["segment_floor"]:
                    # A checkpoint folded records this subscriber never
                    # received. Fail the subscription; the replica
                    # resubscribes and lands on the snapshot path.
                    await self._send_failure(
                        ReplicationError(
                            f"records after LSN {last_sent} were folded "
                            "into a checkpoint — resubscribe for snapshot "
                            "catch-up"
                        )
                    )
                    return
                checkpoint_id = position["checkpoint_id"]
                offset = 0
            if sum(size for _seq, size in sub["in_flight"]) >= (
                SHIP_UNACKED_HIGH_BYTES
            ):
                # Backpressure: wait for WAL_ACKs before shipping more.
                self.metrics.counter("replication.backpressure_stalls").inc()
                await asyncio.sleep(SHIP_POLL_S)
                continue
            frames, offset = await loop.run_in_executor(
                executor, iter_tail_frames, position["wal_path"], offset
            )
            batch: list[bytes] = []
            batch_first = batch_last = 0
            batch_bytes = 0
            sent_any = False
            for payload, end in frames:
                _record_type, body = decode_record(payload)
                seq = record_seq(body)
                if seq > position["durable_seq"]:
                    # Not fsynced yet: never ship a record the leader
                    # could still lose. Re-read it next poll.
                    offset = end - len(payload) - 8
                    break
                if seq <= last_sent:
                    continue
                if not batch:
                    batch_first = seq
                batch.append(payload)
                batch_last = seq
                batch_bytes += len(payload)
                if len(batch) >= SHIP_BATCH_RECORDS or batch_bytes >= SHIP_BATCH_BYTES:
                    await self._send_segment(
                        engine, sub, batch, batch_first, batch_last, position
                    )
                    last_sent = batch_last
                    sent_any = True
                    batch, batch_bytes = [], 0
            if batch:
                await self._send_segment(
                    engine, sub, batch, batch_first, batch_last, position
                )
                last_sent = batch_last
                sent_any = True
            if sent_any:
                last_activity = loop.time()
                continue
            if loop.time() - last_activity >= HEARTBEAT_S:
                # Idle heartbeat: carries the durable watermark so the
                # replica can report its lag even with no traffic.
                await self._send(
                    wire.MSG_WAL_SEGMENT,
                    {
                        "first": 0,
                        "last": 0,
                        "records": [],
                        "durable_lsn": position["durable_seq"],
                        "epoch": engine.epoch,
                    },
                )
                last_activity = loop.time()
            await asyncio.sleep(SHIP_POLL_S)

    async def _send_segment(
        self,
        engine,
        sub: dict,
        records: list[bytes],
        first: int,
        last: int,
        position: dict,
    ) -> None:
        injector = engine.injector
        injector.reach("ship.before_segment")
        frame = wire.encode_frame(
            wire.MSG_WAL_SEGMENT,
            {
                "first": first,
                "last": last,
                "records": records,
                "durable_lsn": position["durable_seq"],
                "epoch": engine.epoch,
            },
        )
        if injector.will_fire("ship.torn_segment"):
            # Write half the frame, then die: the replica's FrameReader
            # must detect the torn stream and resubscribe from its applied
            # LSN with no duplicate application.
            self._writer.write(frame[: max(1, len(frame) // 2)])
            try:
                await self._writer.drain()
            except (ConnectionError, OSError):
                pass
            injector.reach("ship.torn_segment")
        self._writer.write(frame)
        self.metrics.counter("server.frames_out").inc()
        self.metrics.counter("server.bytes_out").inc(len(frame))
        self.metrics.counter("replication.segments_shipped").inc()
        self.metrics.counter("replication.records_shipped").inc(len(records))
        self.metrics.counter("replication.bytes_shipped").inc(len(frame))
        sub["shipped_lsn"] = last
        sub["bytes_shipped"] += len(frame)
        sub["in_flight"].append((last, len(frame)))
        await self._writer.drain()

    async def _send_snapshot_file(self, name: str, data: bytes, sub: dict) -> None:
        offset = 0
        while True:
            chunk = data[offset : offset + SNAPSHOT_CHUNK_BYTES]
            offset += len(chunk)
            eof = offset >= len(data)
            size = await self._send(
                wire.MSG_SNAPSHOT_FILE, {"name": name, "data": chunk, "eof": eof}
            )
            self.metrics.counter("replication.bytes_shipped").inc(size)
            sub["bytes_shipped"] += size
            if eof:
                return

    def _drain_acks(self, sub: dict) -> bool:
        """Consume pipelined WAL_ACK frames during a subscription; False
        ends it. Terminal items (EOF, GOODBYE, protocol errors) are pushed
        back so the outer dispatch loop sees them and closes the session
        normally."""
        while True:
            try:
                item = self._requests.get_nowait()
            except asyncio.QueueEmpty:
                return True
            if item is _EOF or isinstance(item, ProtocolError):
                self._requeue(item)
                return False
            tag, fields = item
            if tag == wire.MSG_GOODBYE:
                self._requeue(item)
                return False
            if tag != wire.MSG_WAL_ACK:
                self._requeue(
                    ProtocolError(
                        f"unexpected {wire.MESSAGE_NAMES[tag]} during an "
                        "active subscription"
                    )
                )
                return False
            applied = fields.get("applied_lsn")
            if isinstance(applied, bool) or not isinstance(applied, int):
                self._requeue(ProtocolError("WAL_ACK applied_lsn must be an int"))
                return False
            sub["applied_lsn"] = max(sub["applied_lsn"], applied)
            sub["in_flight"] = [
                (seq, size) for seq, size in sub["in_flight"] if seq > applied
            ]
            engine = self.server.service.db.durability
            if engine is not None:
                lag = max(0, engine.replication_position()["durable_seq"] - applied)
                self.metrics.histogram(
                    "replication.lag_lsn",
                    buckets=(0, 1, 4, 16, 64, 256, 1024, 4096, 16384),
                ).observe(lag)

    def _requeue(self, item) -> None:
        try:
            self._requests.put_nowait(item)
        except asyncio.QueueFull:
            # Pathological pipelining; drop the connection instead.
            self._writer.close()


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[tuple[int, dict, int]]:
    """The next frame off ``reader`` as ``(tag, fields, frame bytes)``, or
    None on a clean EOF between frames; the header and payload checks are
    :mod:`repro.wire`'s own."""
    try:
        header = await reader.readexactly(wire.FRAME_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ProtocolError("connection closed mid-frame header") from exc
        return None
    length, crc = wire.parse_header(header)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    tag, fields = wire.decode_checked(payload, crc)
    return tag, fields, wire.FRAME_HEADER.size + length


def _server_banner() -> str:
    from repro import __version__

    return f"pathindex-repro/{__version__}"


class BackgroundServer:
    """A :class:`Server` whose event loop runs in a daemon thread.

    The blocking-world adapter used by tests, the ``--network`` benchmark
    and embedders: ``start()`` returns the bound address, ``stop()`` drains
    gracefully and joins the thread. The caller still owns the service and
    database lifecycle.
    """

    def __init__(
        self, service: QueryService, config: Optional[ServerConfig] = None
    ) -> None:
        self.server = Server(service, config)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> tuple[str, int]:
        assert self.server.address is not None, "server not started"
        return self.server.address

    @property
    def metrics(self):
        return self.server.metrics

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-server-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self.address

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - surface to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.drain()

    def stop(self) -> None:
        """Drain the server and join its loop thread (idempotent)."""
        thread = self._thread
        if thread is None or not thread.is_alive():
            return
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
