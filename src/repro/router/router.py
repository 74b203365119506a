"""Protocol-transparent read router over one leader and N replicas.

The router accepts ordinary client sessions and proxies each request to a
backend, frame for frame. Writes go to the leader; reads round-robin over
replicas that are healthy *and* current enough for the session:

* every write's ``commit_lsn`` (sniffed from the relayed summary) becomes
  the session's read-your-writes token;
* a read is only sent to a replica whose last-polled applied LSN has
  reached the token, and the token rides along as ``require_lsn`` so the
  replica re-checks server-side (the poll is only eventually consistent);
* a replica that still answers with ``StalenessError`` — or drops the
  connection — costs a ``router.reroutes`` and the read moves on: next
  replica, ultimately the leader, which is always current.

Classification uses the same pure ``analyze(parse(query))`` pass the
servers run, memoised per query text; queries that do not parse are
forwarded to the leader so the client sees the backend's own error,
byte-identical to a single-server deployment.

Health: a poller thread issues STATUS to every backend. Lag above
``max_lag_lsn`` or repeated failures evict a replica from rotation
(``router.evictions``); a healthy poll within the bound re-admits it
(``router.readmissions``). Eviction only stops *new* reads — it never
interrupts a result mid-stream.

Failover: every poll gossips the highest leader epoch the router has
observed (fencing a stale leader server-side) and reads back each
backend's current role and epoch. Writes go to the live, unfenced
backend reporting role ``leader`` with the highest epoch — when a replica
is promoted, the health loop re-points writes at it (``router.repoints``)
and the old leader is re-admitted as a replica once it rejoins at the new
epoch. A write relay that cannot reach a writable leader retries with
bounded backoff and ultimately surfaces a structured, retryable
:class:`~repro.errors.LeaderUnavailableError` instead of hanging or
leaking a raw disconnect; a connection lost *after* a write was fully
sent is ambiguous (it may have applied) and surfaces immediately so the
client can read-back before retrying. Replicas still on a lower epoch
than the highest observed are evicted from read rotation until they
rejoin — their divergent tail must not serve reads on the new timeline.

A backend refusing the router's ``backend_auth_token`` fails the request
with a structured :class:`~repro.errors.AuthenticationError` naming it
(``router.backend_refusals``); the client's session stays open.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from typing import Optional, Union

from repro import wire
from repro.cypher import analyze, parse
from repro.errors import (
    AuthenticationError,
    LeaderUnavailableError,
    ProtocolError,
    ReadOnlyReplicaError,
    ReproError,
    ServiceShutdownError,
    StaleEpochError,
    StalenessError,
)
from repro.replication.replica import parse_address
from repro.service.metrics import MetricsRegistry

_BANNER = "pathindex-repro-router/1"

CLIENT_NAME = "repro.router"
"""The name the router gives in its HELLO to a backend."""

EVICTION_FAILURES = 3
"""Consecutive failed health polls before a replica is evicted."""

CONNECT_TIMEOUT_S = 5.0
"""How long the router waits for a backend's TCP connection."""

IO_TIMEOUT_S = 120.0
"""Socket timeout on client sessions and their backend connections."""

HEALTH_IO_TIMEOUT_S = 5.0
"""Socket timeout on the health poller's STATUS connections."""

HANDSHAKE_TIMEOUT_S = 5.0
"""How long a fresh client connection may take to send HELLO."""


@dataclass(frozen=True)
class RouterConfig:
    """Router endpoint, backend addresses, and staleness policy."""

    leader: Union[str, tuple[str, int]] = "127.0.0.1:7687"
    replicas: tuple = ()
    host: str = "127.0.0.1"
    port: int = 0
    auth_token: Optional[str] = None
    """Token our own clients must present (router-facing)."""

    backend_auth_token: Optional[str] = None
    """Token the router presents to the leader and replicas."""

    max_lag_lsn: int = 512
    """Bounded-staleness default: replicas lagging more than this many LSNs
    behind the leader's durable watermark are evicted from read rotation
    until they catch back up."""

    write_retries: int = 4
    """Extra attempts for a write relay after an unambiguous failure
    (connect refused, send failed, or a structured rejection from a
    demoted/fenced node) before surfacing a retryable
    :class:`~repro.errors.LeaderUnavailableError`."""

    write_retry_backoff_s: float = 0.05
    """First write-relay retry delay; doubles per attempt up to 1s."""

    health_interval_s: float = 0.2


class _BackendState:
    """What the health poller knows about one backend (leader or replica).

    ``role`` and ``epoch`` are whatever the backend last reported — a
    PROMOTE flips a replica's role to ``leader`` under us, and a rejoined
    old leader reports ``replica``; the router follows the reports."""

    def __init__(self, address: tuple[str, int], role: str) -> None:
        self.address = address
        self.name = f"{address[0]}:{address[1]}"
        self.role = role  # configured role until the first healthy poll
        self.epoch = 0
        self.fenced = False
        self.alive = False
        self.applied_lsn = 0
        self.lag_lsn = 0
        self.failures = 0
        self.evicted = True  # joins rotation on its first healthy poll
        self.polled = False

    def fields(self) -> dict:
        return {
            "address": self.name,
            "role": self.role,
            "epoch": self.epoch,
            "fenced": self.fenced,
            "alive": self.alive,
            "applied_lsn": self.applied_lsn,
            "lag_lsn": self.lag_lsn,
            "evicted": self.evicted,
            "failures": self.failures,
        }


def _connect(
    address: tuple[str, int], auth_token: Optional[str], io_timeout_s: float
) -> wire.Connection:
    """A backend connection past its HELLO."""
    conn = wire.Connection.open(address, io_timeout_s, CONNECT_TIMEOUT_S)
    conn.hello(CLIENT_NAME, auth_token)
    return conn


class Router:
    """Accept loop + health poller; one :class:`_Session` per connection."""

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.leader = parse_address(config.leader)
        leader_state = _BackendState(self.leader, "leader")
        self.backends = [leader_state] + [
            _BackendState(parse_address(address), "replica")
            for address in config.replicas
        ]
        self.metrics = MetricsRegistry()
        self.leader_applied = 0
        self.highest_epoch = 0
        self._write_target = leader_state
        self._lock = threading.Lock()
        self._rr = 0
        self._classify_cache: dict[str, Optional[bool]] = {}
        self._sessions: dict[int, "_Session"] = {}
        self._next_session = 1
        self._health_backends: dict[tuple[str, int], wire.Connection] = {}
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self.address: Optional[tuple[str, int]] = None

    @property
    def replicas(self) -> list:
        """Backends currently acting as replicas — the read rotation pool.
        Membership is dynamic: a promoted replica leaves, a rejoined old
        leader enters."""
        return [state for state in self.backends if state.role == "replica"]

    @property
    def write_target(self) -> _BackendState:
        """The backend writes are currently pointed at."""
        return self._write_target

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        if self._listener is not None:
            raise RuntimeError("router already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(128)
        listener.settimeout(0.2)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        for target, name in (
            (self._accept_loop, "repro-router-accept"),
            (self._health_loop, "repro-router-health"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.address

    def stop(self) -> None:
        """Stop accepting, close every session and backend (idempotent)."""
        self._stop.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.conn.close()
        for thread in self._threads:
            thread.join(timeout=10)
        self._threads.clear()
        for backend in self._health_backends.values():
            backend.close()
        self._health_backends.clear()

    def __enter__(self) -> "Router":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accept / health threads
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                session_id = self._next_session
                self._next_session += 1
            session = _Session(self, wire.Connection(sock), session_id)
            with self._lock:
                self._sessions[session_id] = session
            self.metrics.counter("router.sessions").inc()
            threading.Thread(
                target=session.run,
                name=f"repro-router-session-{session_id}",
                daemon=True,
            ).start()

    def _drop_session(self, session_id: int) -> None:
        with self._lock:
            self._sessions.pop(session_id, None)

    def _health_loop(self) -> None:
        while not self._stop.is_set():
            for state in self.backends:
                self._poll_backend(state)
            self._update_write_target()
            self._stop.wait(self.config.health_interval_s)

    def _poll_backend(self, state: _BackendState) -> None:
        config = self.config
        backend = self._health_backends.get(state.address)
        try:
            if backend is None:
                backend = _connect(
                    state.address, config.backend_auth_token, HEALTH_IO_TIMEOUT_S
                )
                self._health_backends[state.address] = backend
            # Gossip the highest epoch we have observed: a stale leader
            # hearing of a newer one fences itself server-side, so it
            # rejects writes even from clients that bypass the router.
            backend.send((wire.MSG_STATUS, {"epoch": self.highest_epoch}))
            fields = backend.expect_success()
        except (ReproError, OSError, ValueError):
            self._health_backends.pop(state.address, None)
            if backend is not None:
                backend.close()
            state.failures += 1
            state.alive = False
            state.polled = True
            if not state.evicted and state.failures >= EVICTION_FAILURES:
                state.evicted = True
                self.metrics.counter("router.evictions").inc()
            return
        state.failures = 0
        state.polled = True
        state.alive = True
        role = fields.get("role")
        if role in ("leader", "replica"):
            state.role = role
        epoch = fields.get("epoch")
        if isinstance(epoch, int) and not isinstance(epoch, bool) and epoch > 0:
            state.epoch = epoch
            if epoch > self.highest_epoch:
                self.highest_epoch = epoch
        state.fenced = bool(fields.get("fenced"))
        state.applied_lsn = int(fields.get("applied_lsn") or 0)
        if state.role == "leader":
            # Leaders never serve routed reads; the current write target's
            # applied LSN is the watermark replicas lag against.
            state.evicted = True
            if state is self._write_target and not state.fenced:
                self.leader_applied = state.applied_lsn
            return
        # Lag as the replica sees it, or against the leader's applied LSN —
        # whichever is larger. A stalled replica stops learning the
        # leader's watermark, so its self-reported lag alone can flatline.
        state.lag_lsn = max(
            int(fields.get("replica_lag_lsn") or 0),
            self.leader_applied - state.applied_lsn,
        )
        # A replica still on an older epoch carries a possibly-divergent
        # tail; its LSNs are not comparable to the new timeline's, so it
        # must not serve reads until it rejoins at the current epoch.
        stale_epoch = bool(
            self.highest_epoch
            and state.epoch
            and state.epoch < self.highest_epoch
        )
        if state.lag_lsn > config.max_lag_lsn or stale_epoch:
            if not state.evicted:
                state.evicted = True
                self.metrics.counter("router.evictions").inc()
        elif state.evicted:
            state.evicted = False
            self.metrics.counter("router.readmissions").inc()

    def _update_write_target(self) -> None:
        """Point writes at the live, unfenced leader with the highest
        epoch. The epoch can only move up — a revived old leader on a
        stale epoch is never re-adopted, even if the promoted node is
        down (writes fail retryably until an operator promotes again)."""
        candidates = [
            state
            for state in self.backends
            if state.role == "leader" and state.alive and not state.fenced
        ]
        if not candidates:
            return
        best = max(candidates, key=lambda state: state.epoch)
        current = self._write_target
        if best is not current and best.epoch >= current.epoch:
            self._write_target = best
            self.leader_applied = best.applied_lsn
            self.metrics.counter("router.repoints").inc()

    # ------------------------------------------------------------------
    # Routing decisions
    # ------------------------------------------------------------------

    def classify(self, query: str) -> Optional[bool]:
        """True for a write, False for a read, None when the query does not
        parse (routed to the leader so its error is authoritative)."""
        with self._lock:
            if query in self._classify_cache:
                return self._classify_cache[query]
        try:
            is_write: Optional[bool] = analyze(parse(query)).is_write
        except ReproError:
            is_write = None
        with self._lock:
            if len(self._classify_cache) >= 4096:
                self._classify_cache.clear()
            self._classify_cache[query] = is_write
        return is_write

    def read_candidates(self, require_lsn: int) -> tuple[list, int]:
        """Replicas eligible for a read needing ``require_lsn``, in
        round-robin order, plus how many in-rotation replicas were skipped
        for lagging behind the token (each is a re-route)."""
        with self._lock:
            start = self._rr
            self._rr += 1
        rotation = [state for state in self.replicas if not state.evicted]
        if not rotation:
            return [], 0
        ordered = [
            rotation[(start + index) % len(rotation)]
            for index in range(len(rotation))
        ]
        eligible = [
            state for state in ordered if state.applied_lsn >= require_lsn
        ]
        return eligible, len(ordered) - len(eligible)

    def status_fields(self) -> dict:
        with self._lock:
            sessions = len(self._sessions)
        return {
            "role": "router",
            "leader": self._write_target.name,
            "configured_leader": f"{self.leader[0]}:{self.leader[1]}",
            "highest_epoch": self.highest_epoch,
            "backends": [state.fields() for state in self.backends],
            "replicas": [state.fields() for state in self.replicas],
            "sessions": sessions,
            "reroutes": self.metrics.counter("router.reroutes").value,
            "repoints": self.metrics.counter("router.repoints").value,
        }


class _Session:
    """One client connection: handshake, then proxy request by request."""

    def __init__(
        self, router: Router, conn: wire.Connection, session_id: int
    ) -> None:
        self.router = router
        self.config = router.config
        self.metrics = router.metrics
        self.session_id = session_id
        self.conn = conn
        # Per-session state
        self.token = 0  # read-your-writes: highest commit_lsn seen
        self._backends: dict[tuple[str, int], wire.Connection] = {}
        self._open: Optional[tuple[str, int]] = None  # backend holding a result
        self._open_is_write = False
        self._statements: dict[int, tuple[str, Optional[bool]]] = {}
        self._next_statement = 1

    # -- plumbing -------------------------------------------------------

    def _send(self, tag: int, fields: dict) -> None:
        self.conn.send((tag, fields))

    def _send_failure(self, exc: BaseException) -> None:
        self._send(wire.MSG_FAILURE, wire.failure_fields(exc))

    def _backend(self, address: tuple[str, int]) -> wire.Connection:
        """The session's connection to ``address``, opened on first use.

        A backend refusing the router's ``backend_auth_token`` raises
        :class:`AuthenticationError` naming it (counted as
        ``router.backend_refusals``): a configuration fault, not a lost
        connection, so no caller retries it; :meth:`run` answers the
        request with it and the session goes on."""
        backend = self._backends.get(address)
        if backend is None:
            try:
                backend = _connect(
                    address, self.config.backend_auth_token, IO_TIMEOUT_S
                )
            except AuthenticationError as exc:
                self.metrics.counter("router.backend_refusals").inc()
                raise AuthenticationError(
                    f"backend {address[0]}:{address[1]} refused the router's "
                    f"credentials: {exc}"
                ) from exc
            self._backends[address] = backend
        return backend

    def _drop_backend(self, address: tuple[str, int]) -> None:
        backend = self._backends.pop(address, None)
        if backend is not None:
            backend.close()
        if self._open == address:
            self._open = None

    # -- main loop ------------------------------------------------------

    def run(self) -> None:
        try:
            if not self._handshake():
                return
            while not self.conn.closed:
                tag, fields = self.conn.recv()
                if tag == wire.MSG_GOODBYE:
                    return
                try:
                    self._dispatch(tag, fields)
                except AuthenticationError as exc:
                    # Only a backend refusing the router raises it past the
                    # handshake (see _backend): the request fails, not the
                    # session.
                    self._send_failure(exc)
        except (OSError, ProtocolError):
            pass
        finally:
            for backend in self._backends.values():
                backend.close()
            self._backends.clear()
            self.conn.close()
            self.router._drop_session(self.session_id)

    def _handshake(self) -> bool:
        try:
            self.conn.settimeout(HANDSHAKE_TIMEOUT_S)
            tag, fields = self.conn.recv()
        except (OSError, ProtocolError):
            return False
        self.conn.settimeout(IO_TIMEOUT_S)
        if tag != wire.MSG_HELLO:
            return False
        try:
            version = wire.check_hello(fields, self.config.auth_token)
        except (ProtocolError, AuthenticationError) as exc:
            self._send_failure(exc)
            return False
        self._send(
            wire.MSG_SUCCESS,
            {"version": version, "server": _BANNER, "session": self.session_id},
        )
        return True

    def _dispatch(self, tag: int, fields: dict) -> None:
        if tag == wire.MSG_RUN:
            self._on_run(fields)
        elif tag in (wire.MSG_PULL, wire.MSG_DISCARD):
            self._relay_result(tag, fields)
        elif tag == wire.MSG_PREPARE:
            self._on_prepare(fields)
        elif tag == wire.MSG_RESET:
            self._on_reset()
        elif tag == wire.MSG_STATUS:
            self._send(wire.MSG_SUCCESS, self.router.status_fields())
        elif tag == wire.MSG_HELLO:
            self._send_failure(ProtocolError("session already started"))
        else:
            self._send_failure(
                ProtocolError(
                    f"unexpected {wire.MESSAGE_NAMES.get(tag, tag)} message "
                    "from client"
                )
            )

    # -- request handlers ----------------------------------------------

    def _on_run(self, fields: dict) -> None:
        if self._open is not None:
            self._send_failure(
                ProtocolError(
                    "previous result still open — PULL or DISCARD it first"
                )
            )
            return
        if self.router._stop.is_set():
            self._send_failure(ServiceShutdownError("router is draining"))
            return
        statement = fields.get("stmt")
        if statement is not None:
            known = self._statements.get(statement)
            if known is None:
                self._send_failure(
                    ProtocolError(f"unknown prepared statement id {statement}")
                )
                return
            query, is_write = known
        else:
            query = fields.get("query")
            if not isinstance(query, str) or not query:
                self._send_failure(
                    ProtocolError("RUN needs a 'query' string or a 'stmt' id")
                )
                return
            is_write = self.router.classify(query)
        require_lsn = fields.get("require_lsn")
        if require_lsn is not None and (
            isinstance(require_lsn, bool) or not isinstance(require_lsn, int)
        ):
            self._send_failure(ProtocolError("require_lsn must be an integer LSN"))
            return
        run_fields: dict = {"query": query}
        deadline = fields.get("deadline_s")
        if deadline is not None:
            run_fields["deadline_s"] = deadline
        if is_write is False:
            self._run_read(run_fields, require_lsn, bool(is_write))
        else:
            # A write — or unparseable text, which the leader rejects with
            # the same error a single server would.
            self.metrics.counter("router.writes").inc()
            self._run_on_leader(run_fields, is_write=True)

    def _run_read(
        self, run_fields: dict, require_lsn: Optional[int], is_write: bool
    ) -> None:
        # Read-your-writes by default; an explicit require_lsn (0 opts out)
        # overrides the session token.
        token = self.token if require_lsn is None else require_lsn
        self.metrics.counter("router.reads").inc()
        candidates, skipped = self.router.read_candidates(token)
        if skipped:
            self.metrics.counter("router.reroutes").inc(skipped)
        for state in candidates:
            backend_fields = dict(run_fields)
            if token:
                # Belt and braces: the poll that admitted this replica is
                # eventually consistent, so the replica re-checks.
                backend_fields["require_lsn"] = token
            try:
                backend = self._backend(state.address)
                backend.send((wire.MSG_RUN, backend_fields))
                tag, reply = backend.recv()
            except (OSError, ProtocolError):
                self._drop_backend(state.address)
                state.failures += 1
                self.metrics.counter("router.reroutes").inc()
                continue
            if tag == wire.MSG_FAILURE:
                exc = wire.failure_exception(reply)
                if isinstance(exc, (StalenessError, ReadOnlyReplicaError)):
                    # Not current enough (or we misrouted a write-shaped
                    # query): try the next backend.
                    self.metrics.counter("router.reroutes").inc()
                    continue
                self._send(tag, reply)
                return
            if tag != wire.MSG_SUCCESS:
                self._drop_backend(state.address)
                self.metrics.counter("router.reroutes").inc()
                continue
            self._open = state.address
            self._open_is_write = False
            self._send(tag, reply)
            return
        # No replica could serve it: the leader always can.
        self._run_on_leader(run_fields, is_write=is_write)

    def _run_on_leader(self, run_fields: dict, is_write: bool) -> None:
        """Relay to the current write target with bounded retry-backoff.

        Only *unambiguous* failures are retried: a connect/send failure
        (nothing reached the backend) or a structured rejection from a
        node that turned out to be a replica or a fenced old leader (the
        write was refused, so retrying cannot double-apply). A connection
        lost after a write was fully sent is ambiguous — it may have
        executed — so it surfaces immediately as a retryable
        LeaderUnavailableError and the client decides (read-back, then
        retry). Reads carry no such risk and always retry."""
        attempts = max(1, self.config.write_retries + 1)
        delay = self.config.write_retry_backoff_s
        last_error: Optional[str] = None
        for attempt in range(attempts):
            if attempt:
                self.metrics.counter("router.write_retries").inc()
                # Back off so the health loop can observe a promotion and
                # re-point the target between attempts.
                if self.router._stop.wait(delay):
                    break
                delay = min(delay * 2, 1.0)
            address = self.router.write_target.address
            sent = False
            try:
                backend = self._backend(address)
                backend.send((wire.MSG_RUN, run_fields))
                sent = True
                tag, reply = backend.recv()
            except (OSError, ProtocolError) as exc:
                self._drop_backend(address)
                last_error = f"{type(exc).__name__}: {exc}"
                if sent and is_write:
                    self._send_failure(
                        LeaderUnavailableError(
                            "leader connection lost mid-request — the "
                            "write may or may not have applied "
                            f"({last_error}); verify before retrying"
                        )
                    )
                    return
                continue
            if tag == wire.MSG_FAILURE:
                exc = wire.failure_exception(reply)
                if (
                    isinstance(exc, (ReadOnlyReplicaError, StaleEpochError))
                    and attempt < attempts - 1
                ):
                    # The target was demoted or fenced under us; the write
                    # was rejected outright, so re-resolving and retrying
                    # is safe.
                    last_error = f"{type(exc).__name__}: {exc}"
                    self.metrics.counter("router.reroutes").inc()
                    continue
            if tag == wire.MSG_SUCCESS:
                self._open = address
                self._open_is_write = is_write
            self._send(tag, reply)
            return
        self._send_failure(
            LeaderUnavailableError(
                f"no writable leader after {attempts} attempts"
                + (f" (last error: {last_error})" if last_error else "")
            )
        )

    def _relay_result(self, tag: int, fields: dict) -> None:
        address = self._open
        if address is None:
            self._send_failure(
                ProtocolError(f"no open result to {wire.MESSAGE_NAMES[tag]}")
            )
            return
        backend = self._backends[address]
        try:
            backend.send((tag, fields))
            while True:
                btag, bfields = backend.recv()
                if btag == wire.MSG_RECORD:
                    self._send(btag, bfields)
                    continue
                if btag == wire.MSG_SUCCESS:
                    if not bfields.get("has_more"):
                        self._open = None
                        commit_lsn = bfields.get("commit_lsn")
                        if (
                            self._open_is_write
                            and isinstance(commit_lsn, int)
                            and not isinstance(commit_lsn, bool)
                        ):
                            self.token = max(self.token, commit_lsn)
                elif btag == wire.MSG_FAILURE:
                    self._open = None
                self._send(btag, bfields)
                return
        except (OSError, ProtocolError):
            # The backend died mid-stream; the rows it already sent cannot
            # be unsent, so the session fails loudly rather than silently
            # truncating a result.
            self._drop_backend(address)
            self._send_failure(
                ServiceShutdownError("backend connection lost mid-result")
            )

    def _on_prepare(self, fields: dict) -> None:
        query = fields.get("query")
        if not isinstance(query, str) or not query:
            self._send_failure(ProtocolError("PREPARE needs a 'query'"))
            return
        # The leader validates and plans; the router keeps only the text
        # (re-sent verbatim on RUN) so statements outlive any one backend
        # connection and work on replicas that never saw the PREPARE.
        # PREPARE is side-effect free, so unlike a write it retries even
        # after a mid-request disconnect.
        attempts = max(1, self.config.write_retries + 1)
        delay = self.config.write_retry_backoff_s
        last_error: Optional[str] = None
        tag = reply = None
        for attempt in range(attempts):
            if attempt:
                if self.router._stop.wait(delay):
                    break
                delay = min(delay * 2, 1.0)
            address = self.router.write_target.address
            try:
                backend = self._backend(address)
                backend.send((wire.MSG_PREPARE, {"query": query}))
                tag, reply = backend.recv()
            except (OSError, ProtocolError) as exc:
                self._drop_backend(address)
                last_error = f"{type(exc).__name__}: {exc}"
                tag = None
                continue
            break
        if tag is None:
            self._send_failure(
                LeaderUnavailableError(
                    "no leader reachable for PREPARE"
                    + (f" (last error: {last_error})" if last_error else "")
                )
            )
            return
        if tag != wire.MSG_SUCCESS:
            self._send(tag, reply)
            return
        statement = self._next_statement
        self._next_statement += 1
        self._statements[statement] = (query, bool(reply.get("is_write")))
        out = dict(reply)
        out["stmt"] = statement
        self.metrics.counter("router.prepares").inc()
        self._send(wire.MSG_SUCCESS, out)

    def _on_reset(self) -> None:
        address = self._open
        self._open = None
        if address is not None:
            try:
                backend = self._backends[address]
                backend.send((wire.MSG_RESET, {}))
                backend.expect_success()
            except (ReproError, OSError):
                self._drop_backend(address)
        self._send(wire.MSG_SUCCESS, {})
