"""The binary wire protocol shared by :mod:`repro.server` and :mod:`repro.client`.

A Bolt-flavoured, length-framed message protocol whose payloads reuse the
tagged value codec of :mod:`repro.durability.encoding` (one tag byte per
value, LEB128 varints, zigzag ints) — the same bytes a transaction writes to
the WAL travel the network unchanged. Every frame is::

    <u32 little-endian payload length> <u32 crc32(payload)> <payload>

    payload = <message tag byte> <fields as one codec-encoded dict>

The CRC makes corruption detection deterministic: flipping any byte of a
frame (header or payload) yields a clean :class:`~repro.errors.ProtocolError`
instead of a silently mis-decoded message, mirroring the WAL's framing
guarantees (``tests/test_durability_log.py``).

Message flow (client → server requests, server → client responses):

=============  ==========================================================
``HELLO``      first frame of a session: ``{"versions": [1], "auth":
               {"token": ...}, "client": name}`` → ``SUCCESS {"version",
               "server"}`` or ``FAILURE`` (version/auth rejection)
``PREPARE``    ``{"query"}`` → ``SUCCESS {"stmt", "columns", "is_write"}``
``RUN``        ``{"query"}`` or ``{"stmt"}``, optional ``deadline_s`` →
               ``SUCCESS {"columns"}`` opens the session's result
``PULL``       ``{"n": credit}`` (−1 = all): up to ``n`` rows stream as
               ``RECORD {"rows": [[...], ...]}`` chunks, then ``SUCCESS
               {"has_more": bool, …summary}`` — credit-based backpressure
``DISCARD``    drop the open result → ``SUCCESS {summary}``
``RESET``      clear session state (open result) → ``SUCCESS {}``
``STATUS``     server role / epoch / LSN watermarks / subscriber lag →
               ``SUCCESS`` (an ``{"epoch": N}`` field in the request
               gossips the highest epoch the sender has observed; a leader
               hearing a higher epoch fences itself)
``PROMOTE``    admin: flip a replica into the new leader — drains its
               apply loop, verifies the WAL tail, bumps the persisted
               epoch → ``SUCCESS {"epoch", "role", "promote_lsn"}``
``REPOINT``    admin: ``{"leader": "host:port"}`` re-points a replica's
               tailer at a new leader → ``SUCCESS {"leader"}``
``GOODBYE``    close the session (no response)
=============  ==========================================================

Replication reuses the same framing. A replica sends ``SUBSCRIBE
{"from_lsn"}`` after HELLO; the leader answers ``SUCCESS {"mode": "wal"}``
and turns the session into a server-push stream of ``WAL_SEGMENT
{"first", "last", "records": [payload bytes, ...], "durable_lsn"}``
frames (empty ``records`` = heartbeat), against which the replica sends
``WAL_ACK {"applied_lsn"}`` frames. When ``from_lsn`` pre-dates the
current WAL segment (folded into a checkpoint), the leader answers
``SUCCESS {"mode": "snapshot", ...}`` and first ships the checkpoint as
chunked ``SNAPSHOT_FILE {"name", "data", "eof"}`` frames, then a
``SUCCESS {"snapshot_complete": True, "base_lsn"}`` marker, then the
live WAL_SEGMENT stream.

Requests may be pipelined: a client can write many frames back-to-back; the
server processes them strictly in order and answers in order. ``FAILURE``
frames are structured errors: ``{"code": exception class name, "message",
"retryable"}``; :func:`raise_failure` re-raises the matching
:mod:`repro.errors` class on the client.

Every blocking peer — :class:`repro.client.Client`, the router towards its
clients and its backends, the replica's tailer — talks through one
:class:`Connection`; :func:`check_hello` is the one version and token check
of the accepting side (the asyncio server and the router).
"""

from __future__ import annotations

import hmac
import socket
import struct
import zlib
from typing import Any, Optional

from repro import errors
from repro.durability.encoding import read_value, write_value
from repro.errors import (
    AuthenticationError,
    DurabilityError,
    LeaderUnavailableError,
    MemoryLimitExceeded,
    ProtocolError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    StaleEpochError,
    StalenessError,
    TransactionError,
)

SUPPORTED_VERSIONS = (1,)
"""The protocol revisions this build speaks (HELLO negotiates the highest
version common to both ends)."""

MAX_FRAME_BYTES = 16 << 20
"""Upper bound on one frame's payload; larger lengths are rejected before
any allocation so a corrupt or hostile header cannot balloon memory."""

FRAME_HEADER = struct.Struct("<II")
"""Payload length + CRC32 of the payload, matching the WAL's record framing."""

SUMMARY_FIELDS = (
    "planning_seconds",
    "execution_seconds",
    "queue_seconds",
    "total_seconds",
    "attempts",
    "max_intermediate_cardinality",
    "page_cache_hits",
    "page_cache_misses",
    "peak_memory_bytes",
    "spill_runs",
    "commit_lsn",
)
"""The query statistics a result's closing SUCCESS carries, named as on
:class:`repro.service.QueryOutcome` and :class:`repro.client.RemoteOutcome`."""

# Client → server ----------------------------------------------------------
MSG_HELLO = 0x01
MSG_GOODBYE = 0x02
MSG_RESET = 0x03
MSG_STATUS = 0x05
MSG_PREPARE = 0x10
MSG_RUN = 0x11
MSG_PULL = 0x12
MSG_DISCARD = 0x13
# Replication (replica → leader requests) ----------------------------------
MSG_SUBSCRIBE = 0x20
MSG_WAL_ACK = 0x21
# Admin (operator → server requests) ----------------------------------------
MSG_PROMOTE = 0x30
MSG_REPOINT = 0x31
# Server → client ----------------------------------------------------------
MSG_SUCCESS = 0x70
MSG_RECORD = 0x71
MSG_WAL_SEGMENT = 0x72
MSG_SNAPSHOT_FILE = 0x73
MSG_FAILURE = 0x7F

MESSAGE_NAMES = {
    MSG_HELLO: "HELLO",
    MSG_GOODBYE: "GOODBYE",
    MSG_RESET: "RESET",
    MSG_STATUS: "STATUS",
    MSG_PREPARE: "PREPARE",
    MSG_RUN: "RUN",
    MSG_PULL: "PULL",
    MSG_DISCARD: "DISCARD",
    MSG_SUBSCRIBE: "SUBSCRIBE",
    MSG_WAL_ACK: "WAL_ACK",
    MSG_PROMOTE: "PROMOTE",
    MSG_REPOINT: "REPOINT",
    MSG_SUCCESS: "SUCCESS",
    MSG_RECORD: "RECORD",
    MSG_WAL_SEGMENT: "WAL_SEGMENT",
    MSG_SNAPSHOT_FILE: "SNAPSHOT_FILE",
    MSG_FAILURE: "FAILURE",
}

# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_frame(tag: int, fields: Optional[dict] = None) -> bytes:
    """One complete frame (header + payload) for ``tag`` and ``fields``."""
    if tag not in MESSAGE_NAMES:
        raise ProtocolError(f"unknown message tag {tag:#x}")
    payload = bytearray([tag])
    try:
        write_value(payload, fields if fields is not None else {})
    except DurabilityError as exc:
        raise ProtocolError(f"unencodable message field: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + bytes(payload)


def decode_payload(payload: bytes) -> tuple[int, dict]:
    """Decode one verified payload into ``(tag, fields)``."""
    if not payload:
        raise ProtocolError("empty frame payload")
    tag = payload[0]
    if tag not in MESSAGE_NAMES:
        raise ProtocolError(f"unknown message tag {tag:#x}")
    try:
        fields, end = read_value(payload, 1)
    except DurabilityError as exc:
        raise ProtocolError(f"malformed {MESSAGE_NAMES[tag]} fields: {exc}") from exc
    if end != len(payload):
        raise ProtocolError(
            f"{len(payload) - end} trailing bytes after {MESSAGE_NAMES[tag]} fields"
        )
    if not isinstance(fields, dict):
        raise ProtocolError(
            f"{MESSAGE_NAMES[tag]} fields must be a map, got "
            f"{type(fields).__name__}"
        )
    return tag, fields


def wire_value(value: Any) -> Any:
    """``value`` converted to something the codec can carry.

    Row values are entity ids (ints) or plain property values, which the
    codec covers directly; anything exotic degrades to its ``str`` form
    rather than poisoning the whole result frame.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (list, tuple)):
        return [wire_value(item) for item in value]
    if isinstance(value, dict):
        return {wire_value(key): wire_value(item) for key, item in value.items()}
    return str(value)


def parse_header(header: bytes) -> tuple[int, int]:
    """A frame header's ``(payload length, crc)``; an implausible length is
    rejected before any allocation."""
    length, crc = FRAME_HEADER.unpack_from(header, 0)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"implausible frame length {length}")
    return length, crc


def decode_checked(payload: bytes, crc: int) -> tuple[int, dict]:
    """Decode one payload into ``(tag, fields)`` after checking its CRC."""
    if zlib.crc32(payload) != crc:
        raise ProtocolError("frame CRC mismatch")
    return decode_payload(payload)


# ---------------------------------------------------------------------------
# Incremental decoding
# ---------------------------------------------------------------------------


class FrameReader:
    """Incremental frame parser: :meth:`feed` bytes, :meth:`pop` messages.

    Raises :class:`ProtocolError` on any framing violation — implausible
    length, CRC mismatch, malformed payload — and on :meth:`close` (EOF)
    with a partial frame still buffered.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def pop(self) -> Optional[tuple[int, dict]]:
        """The next complete ``(tag, fields)`` message, or None if more
        bytes are needed."""
        header_size = FRAME_HEADER.size
        if len(self._buffer) < header_size:
            return None
        length, crc = parse_header(self._buffer)
        if len(self._buffer) < header_size + length:
            return None
        payload = bytes(self._buffer[header_size : header_size + length])
        del self._buffer[: header_size + length]
        return decode_checked(payload, crc)

    def close(self) -> None:
        """Signal EOF; a partially buffered frame means a torn stream."""
        if self._buffer:
            raise ProtocolError(
                f"connection closed mid-frame ({len(self._buffer)} bytes buffered)"
            )


# ---------------------------------------------------------------------------
# The blocking endpoint
# ---------------------------------------------------------------------------


def check_hello(fields: dict, auth_token: Optional[str]) -> int:
    """The protocol version a HELLO's ``fields`` negotiate: the highest of
    :data:`SUPPORTED_VERSIONS` the peer offers.

    Raises :class:`ProtocolError` when there is no common version and, when
    ``auth_token`` is set, :class:`AuthenticationError` unless the HELLO
    carries that token (compared in constant time)."""
    versions = fields.get("versions")
    if not isinstance(versions, list):
        versions = []
    common = [version for version in SUPPORTED_VERSIONS if version in versions]
    if not common:
        raise ProtocolError(
            f"no common protocol version (this end speaks "
            f"{list(SUPPORTED_VERSIONS)}, the peer offered {versions})"
        )
    if auth_token is not None:
        auth = fields.get("auth")
        token = auth.get("token") if isinstance(auth, dict) else None
        if not isinstance(token, str) or not hmac.compare_digest(token, auth_token):
            raise AuthenticationError("invalid or missing auth token")
    return max(common)


class Connection:
    """One blocking protocol endpoint over a connected TCP socket.

    Every blocking peer talks through one: the client, the router (towards
    its clients and its backends), the replica's tailer. :meth:`close` is
    idempotent and may be called from another thread to wake a blocked
    :meth:`recv`, which then fails.
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock: Optional[socket.socket] = sock
        self._frames = FrameReader()

    @classmethod
    def open(
        cls,
        address: tuple[str, int],
        io_timeout_s: Optional[float],
        connect_timeout_s: Optional[float] = None,
    ) -> "Connection":
        """Connect to ``address`` (within ``connect_timeout_s``, by default
        the I/O timeout); every later send and recv times out after
        ``io_timeout_s`` (None blocks)."""
        sock = socket.create_connection(
            address,
            timeout=io_timeout_s if connect_timeout_s is None else connect_timeout_s,
        )
        sock.settimeout(io_timeout_s)
        return cls(sock)

    @property
    def closed(self) -> bool:
        return self._sock is None

    def _live(self) -> socket.socket:
        sock = self._sock
        if sock is None:
            raise ProtocolError("connection is closed")
        return sock

    def settimeout(self, seconds: Optional[float]) -> None:
        self._live().settimeout(seconds)

    def send(self, *frames: tuple[int, dict]) -> None:
        """Write ``(tag, fields)`` frames in one ``sendall`` (pipelining)."""
        self._live().sendall(
            b"".join([encode_frame(tag, fields) for tag, fields in frames])
        )

    def recv(self) -> tuple[int, dict]:
        """The next ``(tag, fields)`` message; EOF raises :class:`ProtocolError`."""
        sock = self._live()
        frames = self._frames
        while True:
            frame = frames.pop()
            if frame is not None:
                return frame
            data = sock.recv(1 << 16)
            if not data:
                frames.close()  # raises if a frame is torn
                raise ProtocolError("connection closed by peer")
            frames.feed(data)

    def expect_success(self) -> dict:
        """The next message's fields when it is SUCCESS; a FAILURE re-raises
        as its :mod:`repro.errors` class."""
        tag, fields = self.recv()
        if tag == MSG_FAILURE:
            raise_failure(fields)
        if tag != MSG_SUCCESS:
            raise ProtocolError(f"expected SUCCESS, got {MESSAGE_NAMES[tag]}")
        return fields

    def hello(self, client: str, auth_token: Optional[str] = None) -> dict:
        """Start the session: offer :data:`SUPPORTED_VERSIONS` (and the
        token) and return the SUCCESS fields. The connection is closed when
        the HELLO fails, so a refused peer leaks no socket."""
        fields: dict = {"versions": list(SUPPORTED_VERSIONS), "client": client}
        if auth_token is not None:
            fields["auth"] = {"token": auth_token}
        try:
            self.send((MSG_HELLO, fields))
            return self.expect_success()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Shut the socket down and close it (idempotent)."""
        sock, self._sock = self._sock, None
        if sock is None:
            return
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or the peer is already gone
        sock.close()


# ---------------------------------------------------------------------------
# Structured errors
# ---------------------------------------------------------------------------

_RETRYABLE = (
    ServiceOverloadedError,
    MemoryLimitExceeded,
    TransactionError,
    StalenessError,
    StaleEpochError,
    LeaderUnavailableError,
)


def failure_fields(exc: BaseException) -> dict:
    """The FAILURE frame fields describing ``exc``."""
    return {
        "code": type(exc).__name__,
        "message": str(exc) or type(exc).__name__,
        "retryable": isinstance(exc, _RETRYABLE),
    }


def _error_registry() -> dict[str, type]:
    registry = {}
    for name in dir(errors):
        candidate = getattr(errors, name)
        if isinstance(candidate, type) and issubclass(candidate, ReproError):
            registry[name] = candidate
    return registry


_ERROR_CLASSES = _error_registry()


def failure_exception(fields: dict) -> ReproError:
    """The exception a FAILURE frame describes, mapped back to the matching
    :mod:`repro.errors` class (``ServiceError`` for unknown codes)."""
    code = fields.get("code")
    message = fields.get("message") or str(code)
    cls = _ERROR_CLASSES.get(code) if isinstance(code, str) else None
    if cls is None:
        exc: ReproError = ServiceError(f"{code}: {message}")
    else:
        try:
            exc = cls(message)
        except TypeError:
            exc = ServiceError(f"{code}: {message}")
    exc.retryable = bool(fields.get("retryable"))  # type: ignore[attr-defined]
    return exc


def raise_failure(fields: dict) -> None:
    raise failure_exception(fields)
