"""Wire codec tests: frame round-trips for every message type, property-based
value round-trips, and a corruption matrix — flipping any single byte of a
frame must surface as a clean ``ProtocolError``, never a mis-decoded message
(mirrors the WAL framing tests in ``tests/test_durability_log.py``)."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors, wire
from repro.errors import (
    AuthenticationError,
    CypherSyntaxError,
    MemoryLimitExceeded,
    ProtocolError,
    QueryTimeoutError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.server.server import read_frame

# Representative fields for every message type the protocol defines.
ALL_FRAMES = [
    (wire.MSG_HELLO, {"versions": [1], "auth": {"token": "s3cret"}, "client": "t"}),
    (wire.MSG_GOODBYE, {}),
    (wire.MSG_RESET, {}),
    (wire.MSG_PREPARE, {"query": "MATCH (n:P) RETURN n"}),
    (wire.MSG_RUN, {"query": "MATCH (n) RETURN n.k AS k", "deadline_s": 1.5}),
    (wire.MSG_RUN, {"stmt": 7}),
    (wire.MSG_PULL, {"n": -1}),
    (wire.MSG_DISCARD, {}),
    (wire.MSG_SUCCESS, {"columns": ["a", "b"], "has_more": False, "commit_lsn": 12}),
    (wire.MSG_RECORD, {"rows": [[1, "x", None], [2.5, b"\x00\xff", True]]}),
    (wire.MSG_FAILURE, {"code": "CypherSyntaxError", "message": "m", "retryable": False}),
]


def frame_reader_frames(data: bytes, out: list) -> None:
    """Decode ``data`` then EOF through the blocking peers' FrameReader,
    appending each message to ``out``."""
    reader = wire.FrameReader()
    reader.feed(data)
    while (frame := reader.pop()) is not None:
        out.append(frame)
    reader.close()


def server_frames(data: bytes, out: list) -> None:
    """The same through the asyncio server's frame reader."""

    async def read_all():
        stream = asyncio.StreamReader()
        stream.feed_data(data)
        stream.feed_eof()
        while (frame := await read_frame(stream)) is not None:
            tag, fields, _size = frame
            out.append((tag, fields))

    asyncio.run(read_all())


FRAME_READERS = [frame_reader_frames, server_frames]


def decode_stream(data: bytes) -> list:
    messages: list = []
    frame_reader_frames(data, messages)
    return messages


@pytest.mark.parametrize("tag,fields", ALL_FRAMES)
def test_round_trip_every_message_type(tag, fields):
    [(got_tag, got_fields)] = decode_stream(wire.encode_frame(tag, fields))
    assert got_tag == tag
    assert got_fields == fields


@pytest.mark.parametrize("read", FRAME_READERS)
def test_many_frames_one_stream(read):
    blob = b"".join(wire.encode_frame(tag, fields) for tag, fields in ALL_FRAMES)
    got: list = []
    read(blob, got)
    assert got == ALL_FRAMES


def test_byte_at_a_time_feeding():
    blob = b"".join(wire.encode_frame(tag, fields) for tag, fields in ALL_FRAMES)
    reader = wire.FrameReader()
    messages = []
    for index in range(len(blob)):
        reader.feed(blob[index : index + 1])
        frame = reader.pop()
        if frame is not None:
            messages.append(frame)
    reader.close()
    assert messages == ALL_FRAMES


wire_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
    st.binary(max_size=40),
)

wire_values = st.recursive(
    wire_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=25,
)


@settings(max_examples=60, deadline=None)
@given(fields=st.dictionaries(st.text(max_size=12), wire_values, max_size=8))
def test_property_fields_round_trip(fields):
    [(tag, got)] = decode_stream(wire.encode_frame(wire.MSG_SUCCESS, fields))
    assert tag == wire.MSG_SUCCESS
    assert got == fields


# ---------------------------------------------------------------------------
# Corruption
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("read", FRAME_READERS)
def test_every_single_byte_corruption_is_detected(read):
    """Flip each byte of the second frame: the first frame must still decode
    and the corruption must surface as ProtocolError — on the frame itself
    or, when the flip inflates the declared length, at EOF (torn stream)."""
    first = wire.encode_frame(wire.MSG_RUN, {"query": "MATCH (n) RETURN n"})
    second = wire.encode_frame(
        wire.MSG_SUCCESS, {"columns": ["n"], "has_more": True, "x": [1, 2, 3]}
    )
    for index in range(len(second)):
        corrupted = bytearray(first + second)
        corrupted[len(first) + index] ^= 0xFF
        got: list = []
        with pytest.raises(ProtocolError):
            read(bytes(corrupted), got)
        assert got == [(wire.MSG_RUN, {"query": "MATCH (n) RETURN n"})]


@pytest.mark.parametrize("read", FRAME_READERS)
def test_truncation_at_every_cut_is_detected(read):
    frame = wire.encode_frame(wire.MSG_RECORD, {"rows": [[1, 2], ["a", "b"]]})
    for cut in range(1, len(frame)):
        with pytest.raises(ProtocolError):
            read(frame[:cut], [])


def test_oversize_length_rejected_before_allocation():
    header = wire.FRAME_HEADER.pack(wire.MAX_FRAME_BYTES + 1, 0)
    reader = wire.FrameReader()
    reader.feed(header)
    with pytest.raises(ProtocolError, match="implausible"):
        reader.pop()


def test_zero_length_rejected():
    reader = wire.FrameReader()
    reader.feed(wire.FRAME_HEADER.pack(0, 0))
    with pytest.raises(ProtocolError, match="implausible"):
        reader.pop()


def test_crc_guards_the_whole_payload():
    frame = bytearray(wire.encode_frame(wire.MSG_PULL, {"n": 10}))
    frame[-1] ^= 0x01  # single-bit flip in the payload tail
    reader = wire.FrameReader()
    reader.feed(bytes(frame))
    with pytest.raises(ProtocolError, match="CRC"):
        reader.pop()


def test_unknown_tag_rejected_both_directions():
    with pytest.raises(ProtocolError, match="unknown message tag"):
        wire.encode_frame(0x55, {})
    payload = bytes([0x55]) + wire.encode_frame(wire.MSG_RESET, {})[8:9]
    with pytest.raises(ProtocolError, match="unknown message tag"):
        wire.decode_payload(payload)


def test_trailing_bytes_rejected():
    good = wire.encode_frame(wire.MSG_RESET, {})
    payload = good[wire.FRAME_HEADER.size :] + b"\x00"
    with pytest.raises(ProtocolError, match="trailing"):
        wire.decode_payload(payload)


def test_non_dict_fields_rejected():
    payload = bytearray([wire.MSG_RESET])
    from repro.durability.encoding import write_value

    write_value(payload, [1, 2, 3])
    with pytest.raises(ProtocolError, match="must be a map"):
        wire.decode_payload(bytes(payload))


def test_unencodable_field_rejected_at_send_time():
    with pytest.raises(ProtocolError, match="unencodable"):
        wire.encode_frame(wire.MSG_SUCCESS, {"bad": object()})


def test_wire_value_degrades_exotic_types_to_str():
    class Exotic:
        def __str__(self):
            return "exotic!"

    assert wire.wire_value(Exotic()) == "exotic!"
    assert wire.wire_value([1, Exotic(), {"k": Exotic()}]) == [
        1,
        "exotic!",
        {"k": "exotic!"},
    ]
    assert wire.wire_value(b"\x01") == b"\x01"


# ---------------------------------------------------------------------------
# HELLO
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fields,auth_token,outcome",
    [
        ({"versions": [1]}, None, 1),
        ({"versions": [7, 1, 3]}, None, 1),
        ({"versions": [1], "auth": {"token": "t"}}, "t", 1),
        ({"versions": [1], "auth": {"token": "t"}}, None, 1),
        ({"versions": [99]}, None, ProtocolError),
        ({"versions": []}, None, ProtocolError),
        ({"versions": "1"}, None, ProtocolError),
        ({}, None, ProtocolError),
        ({"versions": [99], "auth": {"token": "t"}}, "t", ProtocolError),
        ({"versions": [1]}, "t", AuthenticationError),
        ({"versions": [1], "auth": {}}, "t", AuthenticationError),
        ({"versions": [1], "auth": "t"}, "t", AuthenticationError),
        ({"versions": [1], "auth": {"token": 7}}, "t", AuthenticationError),
        ({"versions": [1], "auth": {"token": b"t"}}, "t", AuthenticationError),
        ({"versions": [1], "auth": {"token": "wrong"}}, "t", AuthenticationError),
        ({"versions": [1], "auth": {"token": "t "}}, "t", AuthenticationError),
        ({"versions": [1], "auth": {"token": ""}}, "t", AuthenticationError),
    ],
)
def test_check_hello(fields, auth_token, outcome):
    """No common version is a ProtocolError; a missing, non-string or wrong
    token an AuthenticationError; otherwise the highest common version."""
    if isinstance(outcome, int):
        assert wire.check_hello(fields, auth_token) == outcome
    else:
        with pytest.raises(outcome):
            wire.check_hello(fields, auth_token)


def test_check_hello_picks_the_highest_common_version(monkeypatch):
    monkeypatch.setattr(wire, "SUPPORTED_VERSIONS", (1, 2, 3))
    assert wire.check_hello({"versions": [2, 1, 5]}, None) == 2
    assert wire.check_hello({"versions": [3, 2]}, None) == 3


# ---------------------------------------------------------------------------
# Structured errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "exc,retryable",
    [
        (CypherSyntaxError("bad query"), False),
        (QueryTimeoutError("too slow"), False),
        (ServiceOverloadedError("queue full"), True),
        (MemoryLimitExceeded("over budget"), True),
    ],
)
def test_failure_round_trip(exc, retryable):
    fields = wire.failure_fields(exc)
    assert fields["retryable"] is retryable
    revived = wire.failure_exception(fields)
    assert type(revived) is type(exc)
    assert str(revived) == str(exc)
    assert revived.retryable is retryable


def test_unknown_failure_code_maps_to_service_error():
    revived = wire.failure_exception({"code": "NoSuchError", "message": "m"})
    assert isinstance(revived, ServiceError)
    assert "NoSuchError" in str(revived)


def test_every_repro_error_class_survives_the_wire():
    for name in dir(errors):
        cls = getattr(errors, name)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            revived = wire.failure_exception(wire.failure_fields(cls("boom")))
            assert type(revived) is cls
