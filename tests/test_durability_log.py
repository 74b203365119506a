"""Log-format tests: codec round-trips, CRC rejection, torn tails, and the
empty-log / empty-checkpoint / no-suffix recovery matrix."""

import struct
import zlib

import pytest

from repro import GraphDatabase
from repro.durability import WriteAheadLog, scan_records
from repro.durability.encoding import decode_value, encode_value
from repro.durability.operations import (
    REC_COMMIT,
    decode_record,
    encode_commit_record,
    encode_ddl_record,
)
from repro.durability.wal import WAL_HEADER
from repro.errors import DurabilityError

# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------

ROUND_TRIP_VALUES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    63,
    64,
    -64,
    -65,
    2**40,
    -(2**40),
    0.0,
    -1.5,
    3.141592653589793,
    "",
    "hello",
    "ünïcodé ✓",
    b"",
    b"\x00\xff\x80",
    [],
    [1, "two", None, [3.0, False]],
    {},
    {"k": 1, "nested": {"a": [1, 2]}, "n": None},
]


@pytest.mark.parametrize("value", ROUND_TRIP_VALUES, ids=repr)
def test_value_round_trip(value):
    assert decode_value(encode_value(value)) == value


def test_tuples_encode_as_lists():
    assert decode_value(encode_value((1, 2, (3, 4)))) == [1, 2, [3, 4]]


def test_unsupported_type_rejected():
    with pytest.raises(DurabilityError):
        encode_value(object())


def test_trailing_bytes_rejected():
    with pytest.raises(DurabilityError):
        decode_value(encode_value(1) + b"\x00")


def test_truncated_value_rejected():
    data = encode_value({"key": "a long enough string value"})
    for cut in range(len(data)):
        with pytest.raises(DurabilityError):
            decode_value(data[:cut])


# ---------------------------------------------------------------------------
# Record payloads
# ---------------------------------------------------------------------------


def sample_commit_payload(seq=7):
    return encode_commit_record(
        seq,
        new_labels=["P", "Q"],
        new_types=["K"],
        new_keys=["name"],
        ops=[
            ("create_node", 3, [0, 1]),
            ("create_rel", 2, 3, 0, 0),
            ("set_node_prop", 3, 0, "x"),
            ("delete_rel", 1),
            ("remove_label", 0, 1),
            ("delete_node", 5),
            ("add_label", 3, 1),
            ("set_rel_prop", 2, 0, 1.5),
        ],
        index_changes=[("add", "k", (3, 2, 0)), ("remove", "k", (0, 1, 2))],
    )


def test_commit_record_round_trip():
    record_type, body = decode_record(sample_commit_payload())
    assert record_type == REC_COMMIT
    seq, labels, types, keys, ops, changes = body
    assert (seq, labels, types, keys) == (7, ["P", "Q"], ["K"], ["name"])
    assert len(ops) == 8 and len(changes) == 2


def test_ddl_record_round_trip():
    payload = encode_ddl_record(3, "create_index", "k", "(:P)-[:K]->(:P)", True)
    record_type, body = decode_record(payload)
    assert record_type != REC_COMMIT
    assert body == [3, "create_index", "k", "(:P)-[:K]->(:P)", False, True]


def test_unknown_record_type_rejected():
    with pytest.raises(DurabilityError):
        decode_record(b"\xee" + encode_value([1]))
    with pytest.raises(DurabilityError):
        decode_record(b"")


# ---------------------------------------------------------------------------
# WAL framing: every single-byte corruption is detected
# ---------------------------------------------------------------------------


def test_corrupt_one_byte_truncates_to_prefix(tmp_path):
    """Flip any single byte of the second record: scan must still return
    the first record intact and never a corrupted second record."""
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    first, second = sample_commit_payload(1), sample_commit_payload(2)
    wal.append(first)
    first_end = wal.size
    wal.append(second)
    wal.fsync()
    wal.close()
    pristine = path.read_bytes()

    for position in range(first_end, len(pristine)):
        corrupted = bytearray(pristine)
        corrupted[position] ^= 0x5A
        path.write_bytes(bytes(corrupted))
        payloads, valid_length = scan_records(path)
        # Corrupting the length prefix can only ever *shorten* what parses;
        # whatever survives must be a strict prefix of the true records.
        assert payloads in ([first], [first, second]) or payloads == [first]
        assert payloads[0] == first
        assert valid_length >= first_end or payloads == []


def test_corrupt_header_yields_empty_log(tmp_path):
    path = tmp_path / "wal.log"
    WriteAheadLog(path).close()
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    assert scan_records(path) == ([], 0)


def test_torn_tail_detected_and_skipped(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    payload = sample_commit_payload(1)
    wal.append(payload)
    good_length = wal.size
    wal.close()
    # Simulate a torn append: half a frame of a second record.
    frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    with open(path, "ab") as handle:
        handle.write(frame[: len(frame) // 2])
    payloads, valid_length = scan_records(path)
    assert payloads == [payload]
    assert valid_length == good_length


def test_implausible_length_treated_as_torn(tmp_path):
    path = tmp_path / "wal.log"
    WriteAheadLog(path).close()
    with open(path, "ab") as handle:
        handle.write(struct.pack("<II", 0x7FFFFFFF, 0) + b"junk")
    payloads, valid_length = scan_records(path)
    assert payloads == []
    assert valid_length == len(WAL_HEADER)


def test_missing_file_scans_empty(tmp_path):
    assert scan_records(tmp_path / "nope.log") == ([], 0)


def test_append_resumes_after_truncation(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append(b"one")
    wal.fsync()
    wal.close()
    with open(path, "ab") as handle:  # torn garbage after the good record
        handle.write(b"\x01")
    payloads, valid_length = scan_records(path)
    with open(path, "r+b") as handle:
        handle.truncate(valid_length)
    wal = WriteAheadLog(path)
    wal.append(b"two")
    wal.fsync()
    wal.close()
    assert scan_records(path)[0] == [b"one", b"two"]


# ---------------------------------------------------------------------------
# Recovery matrix: empty/missing pieces
# ---------------------------------------------------------------------------


def test_open_fresh_directory_is_empty(tmp_path):
    db = GraphDatabase.open(tmp_path / "data")
    assert db.store.statistics.node_count == 0
    assert len(db.indexes) == 0
    db.close()


def test_reopen_empty_checkpoint_no_suffix(tmp_path):
    """Checkpoint exists, log has no records at all."""
    directory = tmp_path / "data"
    GraphDatabase.open(directory).close()
    db = GraphDatabase.open(directory)
    assert db.store.statistics.node_count == 0
    db.close()


def test_reopen_checkpoint_with_no_log_suffix(tmp_path):
    """All state in the checkpoint, nothing to replay."""
    directory = tmp_path / "data"
    db = GraphDatabase.open(directory)
    db.create_node(["P"])
    db.checkpoint()
    db.close()
    status_wal = [p for p in directory.iterdir() if p.name.startswith("wal-")]
    assert len(status_wal) == 1
    assert scan_records(status_wal[0]) == ([], len(WAL_HEADER))
    recovered = GraphDatabase.open(directory)
    assert recovered.store.statistics.node_count == 1
    assert recovered.durability.recovered_records == 0
    recovered.close()


def test_reopen_with_deleted_wal_falls_back_to_checkpoint(tmp_path):
    """A missing log file recovers the checkpoint state (and recreates the
    log for new writes)."""
    directory = tmp_path / "data"
    db = GraphDatabase.open(directory)
    db.create_node(["P"])
    db.checkpoint()
    db.create_node(["P"])  # in the log only
    db.close()
    for path in directory.iterdir():
        if path.name.startswith("wal-"):
            path.unlink()
    recovered = GraphDatabase.open(directory)
    assert recovered.store.statistics.node_count == 1  # checkpoint state
    recovered.create_node(["P"])
    recovered.close()
    again = GraphDatabase.open(directory)
    assert again.store.statistics.node_count == 2
    again.close()


def test_checkpoint_resets_log_and_counts(tmp_path):
    directory = tmp_path / "data"
    db = GraphDatabase.open(directory)
    for _ in range(5):
        db.create_node(["P"])
    before = db.durability.status()
    assert before["records_since_checkpoint"] == 5
    db.checkpoint()
    after = db.durability.status()
    assert after["records_since_checkpoint"] == 0
    assert after["checkpoint_id"] == before["checkpoint_id"] + 1
    # Exactly one checkpoint dir and one log remain.
    names = sorted(p.name for p in directory.iterdir())
    assert names == [
        "CURRENT",
        f"checkpoint-{after['checkpoint_id']:06d}",
        f"wal-{after['checkpoint_id']:06d}.log",
    ]
    db.close()


def test_auto_checkpoint_by_record_count(tmp_path):
    from repro import DurabilityConfig

    directory = tmp_path / "data"
    db = GraphDatabase.open(
        directory,
        durability_config=DurabilityConfig(checkpoint_interval_records=10),
    )
    for _ in range(25):
        db.create_node(["P"])
    assert db.durability.status()["checkpoints"] >= 2
    db.close()
    recovered = GraphDatabase.open(directory)
    assert recovered.store.statistics.node_count == 25
    recovered.close()
