"""The blocking client: connect/execute/prepare/stream over the wire protocol.

A :class:`Client` owns one TCP connection = one server session. Requests on
a session are processed in order, so the client is free to *pipeline*:
:meth:`Client.execute` writes RUN and PULL back-to-back in a single send
and then reads both responses, halving round-trips. :meth:`Client.stream`
returns a :class:`StreamingResult` that pulls rows in bounded credit cycles
— the server parks the rest, which is exactly the credit-based backpressure
the protocol is built around.

Server-side errors arrive as structured FAILURE frames and are re-raised
as their original :mod:`repro.errors` classes (``CypherSyntaxError``,
``ServiceOverloadedError``, ``QueryTimeoutError``, …) with a ``retryable``
attribute attached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro import wire
from repro.errors import ProtocolError, ReproError


@dataclass(frozen=True)
class PreparedStatement:
    """A server-side prepared statement handle."""

    stmt: int
    query: str
    columns: tuple[str, ...]
    is_write: bool


@dataclass
class RemoteOutcome:
    """A completed remote query: rows plus the server's summary statistics
    (mirrors :class:`repro.service.QueryOutcome`)."""

    rows: list[dict] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    planning_seconds: float = 0.0
    execution_seconds: float = 0.0
    queue_seconds: float = 0.0
    total_seconds: float = 0.0
    attempts: int = 1
    max_intermediate_cardinality: int = 0
    page_cache_hits: int = 0
    page_cache_misses: int = 0
    peak_memory_bytes: int = 0
    spill_runs: int = 0
    commit_lsn: Optional[int] = None
    """The write's WAL sequence number — the read-your-writes token."""

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @classmethod
    def from_summary(
        cls, rows: list[dict], columns: list[str], summary: dict
    ) -> "RemoteOutcome":
        outcome = cls(rows=rows, columns=columns)
        for name in wire.SUMMARY_FIELDS:
            if summary.get(name) is not None:
                setattr(outcome, name, summary[name])
        return outcome


CONNECT_TIMEOUT_S = 10.0
"""How long a :class:`Client` waits for the TCP connection."""

CLIENT_NAME = "repro.client"
"""The name a :class:`Client` gives in its HELLO."""


class Client:
    """One blocking connection to a :mod:`repro.server` instance."""

    def __init__(
        self,
        host: str,
        port: int,
        auth_token: Optional[str] = None,
        io_timeout_s: Optional[float] = 120.0,
    ) -> None:
        self._conn = wire.Connection.open(
            (host, port), io_timeout_s, CONNECT_TIMEOUT_S
        )
        self._stream: Optional["StreamingResult"] = None
        fields = self._conn.hello(CLIENT_NAME, auth_token)
        #: Negotiated protocol version and the server's banner string.
        self.protocol_version: int = fields.get("version", 0)
        self.server_info: str = fields.get("server", "")
        self.session_id = fields.get("session")

    def _check_no_stream(self) -> None:
        if self._stream is not None and not self._stream.closed:
            raise ProtocolError(
                "a streamed result is still open — exhaust or close() it first"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def execute(
        self,
        query: Optional[str] = None,
        stmt: Optional[PreparedStatement | int] = None,
        deadline_s: Optional[float] = None,
        require_lsn: Optional[int] = None,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
    ) -> RemoteOutcome:
        """Run a query (text or prepared statement) and fetch every row.

        RUN and PULL(-1) are pipelined in one socket write; the rows come
        back as RECORD chunks followed by the summary SUCCESS.

        ``require_lsn`` is the read-your-writes token: pass a previous
        write's ``commit_lsn`` and the server (typically a replica, or the
        router on your behalf) will wait until it has applied at least that
        LSN before executing — or fail retryably with ``StalenessError``.

        ``retries`` re-runs the request after a *structured, retryable*
        failure (``exc.retryable`` — staleness, overload, a failover in
        progress surfacing as ``LeaderUnavailableError``) with doubling
        backoff starting at ``retry_backoff_s``. Only clean FAILURE frames
        qualify: the session survived them, so re-running is a fresh
        request. A lost connection is never retried here — for a write it
        is ambiguous whether it applied, so reconnect and verify instead.
        """
        self._check_no_stream()
        run_fields = self._run_fields(query, stmt, deadline_s, require_lsn)
        delay = retry_backoff_s
        attempts = max(0, retries)
        for attempt in range(attempts + 1):
            if attempt:
                time.sleep(delay)
                delay = min(delay * 2, 1.0)
            try:
                return self._execute_once(run_fields)
            except ReproError as exc:
                if attempt >= attempts or not getattr(exc, "retryable", False):
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _execute_once(self, run_fields: dict) -> RemoteOutcome:
        conn = self._conn
        conn.send((wire.MSG_RUN, run_fields), (wire.MSG_PULL, {"n": -1}))
        tag, run_reply = conn.recv()
        if tag == wire.MSG_FAILURE:
            # RUN failed; the pipelined PULL then fails against no open
            # result — consume that response so the session stays in sync.
            exc = wire.failure_exception(run_reply)
            conn.recv()
            raise exc
        if tag != wire.MSG_SUCCESS:
            raise ProtocolError(
                f"expected SUCCESS, got {wire.MESSAGE_NAMES.get(tag, tag)}"
            )
        columns = list(run_reply.get("columns") or [])
        rows: list[dict] = []
        summary = _read_rows(conn, columns, rows)
        return RemoteOutcome.from_summary(rows, columns, summary)

    def prepare(self, query: str) -> PreparedStatement:
        """Plan a query server-side; returns a reusable statement handle."""
        self._check_no_stream()
        self._conn.send((wire.MSG_PREPARE, {"query": query}))
        fields = self._conn.expect_success()
        return PreparedStatement(
            stmt=fields["stmt"],
            query=query,
            columns=tuple(fields.get("columns") or ()),
            is_write=bool(fields.get("is_write")),
        )

    def stream(
        self,
        query: Optional[str] = None,
        stmt: Optional[PreparedStatement | int] = None,
        deadline_s: Optional[float] = None,
        credit: int = 256,
        require_lsn: Optional[int] = None,
    ) -> "StreamingResult":
        """Run a query and iterate rows in bounded credit cycles.

        Unpulled rows stay parked on the server (credit-based
        backpressure). Exhaust the iterator or ``close()`` it before
        issuing the next request on this client.
        """
        if credit < 1:
            raise ValueError("credit must be positive")
        self._check_no_stream()
        self._conn.send(
            (wire.MSG_RUN, self._run_fields(query, stmt, deadline_s, require_lsn))
        )
        run_reply = self._conn.expect_success()
        columns = list(run_reply.get("columns") or [])
        self._stream = StreamingResult(self, columns, credit)
        return self._stream

    def status(self, announce_epoch: Optional[int] = None) -> dict:
        """The server's STATUS fields: role, epoch, LSN watermarks,
        replication lag, subscriber/session counts.

        ``announce_epoch`` gossips a leader epoch you have observed
        elsewhere — a leader hearing a higher one fences itself (stops
        acknowledging writes) before replying."""
        self._check_no_stream()
        fields: dict = {}
        if announce_epoch is not None:
            fields["epoch"] = announce_epoch
        self._conn.send((wire.MSG_STATUS, fields))
        return self._conn.expect_success()

    def promote(self) -> dict:
        """Promote the connected replica to leader (PROMOTE admin frame).

        The server drains its apply loop, verifies its WAL tail, bumps
        the persisted epoch, and flips writable. Returns the new
        ``role``/``epoch``/``promote_lsn``/``applied_lsn`` fields."""
        self._check_no_stream()
        self._conn.send((wire.MSG_PROMOTE, {}))
        return self._conn.expect_success()

    def repoint(self, leader: str) -> dict:
        """Re-point the connected replica's tailer at ``leader``
        (``host:port``); it resubscribes from its applied LSN."""
        self._check_no_stream()
        self._conn.send((wire.MSG_REPOINT, {"leader": leader}))
        return self._conn.expect_success()

    @staticmethod
    def _run_fields(
        query: Optional[str],
        stmt: Optional[PreparedStatement | int],
        deadline_s: Optional[float],
        require_lsn: Optional[int] = None,
    ) -> dict:
        if (query is None) == (stmt is None):
            raise ValueError("pass exactly one of query or stmt")
        fields: dict = {}
        if query is not None:
            fields["query"] = query
        else:
            fields["stmt"] = stmt.stmt if isinstance(stmt, PreparedStatement) else stmt
        if deadline_s is not None:
            fields["deadline_s"] = deadline_s
        if require_lsn is not None:
            fields["require_lsn"] = require_lsn
        return fields

    # ------------------------------------------------------------------
    # Session control
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Clear server-side session state (drops any open result)."""
        if self._stream is not None:
            self._stream._abandon()
        self._conn.send((wire.MSG_RESET, {}))
        self._conn.expect_success()

    def close(self) -> None:
        """Say GOODBYE and close the connection (idempotent)."""
        if self._conn.closed:
            return
        try:
            self._conn.send((wire.MSG_GOODBYE, {}))
        except OSError:
            pass
        self._conn.close()

    @property
    def closed(self) -> bool:
        return self._conn.closed

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _read_rows(conn: wire.Connection, columns: list[str], rows: list[dict]) -> dict:
    """Append the rows of the RECORD frames answering a PULL to ``rows``
    and return the closing SUCCESS fields; a FAILURE re-raises."""
    while True:
        tag, fields = conn.recv()
        if tag == wire.MSG_RECORD:
            for values in fields.get("rows", ()):
                rows.append(dict(zip(columns, values)))
        elif tag == wire.MSG_SUCCESS:
            return fields
        elif tag == wire.MSG_FAILURE:
            wire.raise_failure(fields)
        else:
            raise ProtocolError(
                f"unexpected {wire.MESSAGE_NAMES[tag]} while streaming"
            )


class StreamingResult:
    """Iterator over a streamed result, pulling one credit cycle at a time.

    Between ``__next__`` calls the wire is always at a request boundary, so
    :meth:`close` can cleanly DISCARD the remainder server-side.
    """

    def __init__(self, client: Client, columns: list[str], credit: int) -> None:
        self._client = client
        self.columns = columns
        self._credit = credit
        self._buffer: list[dict] = []
        self._exhausted = False
        self._closed = False
        #: The server's summary fields, available once the stream ends.
        self.summary: Optional[dict] = None

    @property
    def closed(self) -> bool:
        return self._closed

    def __iter__(self) -> Iterator[dict]:
        return self

    def __next__(self) -> dict:
        while not self._buffer:
            if self._exhausted:
                self._finish()
                raise StopIteration
            self._pull_cycle()
        return self._buffer.pop(0)

    def _pull_cycle(self) -> None:
        conn = self._client._conn
        conn.send((wire.MSG_PULL, {"n": self._credit}))
        try:
            fields = _read_rows(conn, self.columns, self._buffer)
        except ReproError:
            self._exhausted = True
            self._finish()
            raise
        if not fields.get("has_more"):
            self.summary = fields
            self._exhausted = True

    def close(self) -> None:
        """Discard the un-pulled remainder server-side (idempotent)."""
        if self._closed:
            return
        if not self._exhausted and not self._client.closed:
            conn = self._client._conn
            conn.send((wire.MSG_DISCARD, {}))
            self.summary = conn.expect_success()
            self._exhausted = True
        self._finish()

    def _finish(self) -> None:
        self._closed = True
        if self._client._stream is self:
            self._client._stream = None

    def _abandon(self) -> None:
        """Mark closed without wire traffic (the client is RESETting)."""
        self._exhausted = True
        self._finish()

    def __enter__(self) -> "StreamingResult":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
