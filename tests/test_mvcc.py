"""MVCC snapshot isolation: differential and garbage-collection tests.

The contract under test: a snapshot pinned at commit LSN *t* observes
exactly the state a fresh database would hold after replaying the first
*t*-worth of commits — byte-identical rows at every chunk size — no
matter how many commits land after the pin. Version GC must then reclaim
every chain the oldest live snapshot can no longer reach, and recovery
from a checkpoint must reproduce identical query fingerprints.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphDatabase, QueryService

from tests.engines import CHUNK_SIZES, execute

QUERIES = [
    "MATCH (n:A) RETURN n.v AS v",
    "MATCH (n:B) RETURN n.v AS v",
    "MATCH (a:A)-[r:R]->(b:B) RETURN a.v AS x, b.v AS y",
]


# ----------------------------------------------------------------------
# Op language: small deterministic write commits
# ----------------------------------------------------------------------

def apply_op(db, op):
    kind, v = op
    if kind == "create":
        db.execute("CREATE (:A {v: %d})" % v)
    elif kind == "link":
        db.execute("MATCH (a:A {v: %d}) CREATE (a)-[:R]->(:B {v: %d})" % (v, v))
    elif kind == "delete":
        db.execute("MATCH (n:B {v: %d}) DETACH DELETE n" % v)
    else:  # pragma: no cover - strategy is closed over these kinds
        raise AssertionError(kind)


def rows_at(db, chunk, run=execute):
    """Sorted row reprs for every probe query, at one chunk size."""
    out = []
    for query in QUERIES:
        result = run(db, query, chunk=chunk)
        out.append(sorted(map(repr, result.to_list())))
    return out


def tiered(db, query, chunk):
    """Plain ``db.execute``, at the default chunk size: used from threads,
    where pinning a chunk size would patch ``Executor`` for every thread."""
    return db.execute(query)


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["create", "link", "delete"]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=6,
)


# ----------------------------------------------------------------------
# Differential: pinned snapshots vs serial replay, every chunk size
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(ops=ops_strategy)
def test_pinned_snapshots_match_serial_replay(ops):
    """After every commit, pin a snapshot; at the end — with every later
    commit already published — each pinned snapshot must read exactly the
    rows a fresh database replaying that prefix produces."""
    db = GraphDatabase()
    clock = db.store.mvcc
    pinned = []  # (snapshot, prefix length)
    try:
        for i, op in enumerate(ops):
            apply_op(db, op)
            pinned.append((clock.acquire(), i + 1))
        for snapshot, prefix in pinned:
            reference = GraphDatabase()
            for op in ops[:prefix]:
                apply_op(reference, op)
            expected = {chunk: rows_at(reference, chunk) for chunk in CHUNK_SIZES}
            with clock.reading(snapshot):
                for chunk in CHUNK_SIZES:
                    assert rows_at(db, chunk) == expected[chunk], (
                        f"snapshot at prefix {prefix} drifted from serial "
                        f"replay at chunk size {chunk}"
                    )
    finally:
        for snapshot, _ in pinned:
            clock.release(snapshot)
    assert clock.live_count() == 0


def test_snapshot_differential_under_memory_budget():
    """The same prefix-equivalence holds when spill-to-disk operators are
    in play (8 MiB budget), at every chunk size."""
    ops = [
        ("create", 0), ("create", 1), ("link", 0),
        ("create", 2), ("link", 1), ("delete", 0), ("link", 2),
    ]
    db = GraphDatabase(memory_budget=8 << 20, memory_grant=4096)
    clock = db.store.mvcc
    pinned = []
    try:
        for i, op in enumerate(ops):
            apply_op(db, op)
            pinned.append((clock.acquire(), i + 1))
        for snapshot, prefix in pinned:
            reference = GraphDatabase(memory_budget=8 << 20, memory_grant=4096)
            for op in ops[:prefix]:
                apply_op(reference, op)
            for chunk in CHUNK_SIZES:
                expected = rows_at(reference, chunk)
                with clock.reading(snapshot):
                    assert rows_at(db, chunk) == expected
    finally:
        for snapshot, _ in pinned:
            clock.release(snapshot)


def test_concurrent_readers_pinned_while_writers_commit():
    """N reader threads pin snapshots and repeatedly re-read while writer
    threads commit; every reader must see a frozen row set the whole time."""
    db = GraphDatabase()
    for i in range(10):
        db.execute("CREATE (:A {v: %d})" % i)
    clock = db.store.mvcc
    stop = threading.Event()
    failures = []

    def reader():
        snapshot = clock.acquire()
        try:
            with clock.reading(snapshot):
                baseline = rows_at(db, None, tiered)
                while not stop.is_set():
                    for chunk in CHUNK_SIZES:
                        got = rows_at(db, chunk, tiered)
                        if got != baseline:
                            failures.append((snapshot.lsn, chunk, got))
                            return
        finally:
            clock.release(snapshot)

    def writer(seed):
        n = 100 + seed
        while not stop.is_set():
            db.execute("CREATE (:A {v: %d})" % n)
            db.execute("MATCH (a:A {v: %d}) CREATE (a)-[:R]->(:B {v: %d})" % (n, n))
            n += 10

    readers = [threading.Thread(target=reader) for _ in range(4)]
    writers = [threading.Thread(target=writer, args=(s,)) for s in range(2)]
    for thread in readers + writers:
        thread.start()
    import time

    time.sleep(1.0)
    stop.set()
    for thread in readers + writers:
        thread.join()
    assert not failures, f"pinned snapshot saw writer activity: {failures[:3]}"
    assert clock.live_count() == 0


# ----------------------------------------------------------------------
# Version GC
# ----------------------------------------------------------------------

def test_version_gc_collapses_chains_after_checkpoint(tmp_path):
    """With no live snapshots, a checkpoint folds every version chain down
    to the current slot and absorbs all path-index deltas."""
    db = GraphDatabase.open(tmp_path / "data")
    a = db.create_node(["P"], {"v": 0})
    db.create_path_index("k", "(:P)-[:K]->(:P)")
    for i in range(8):
        b = db.create_node(["P"], {"v": i + 1})
        db.create_relationship(a, b, "K")
    stats = db.store.version_stats()
    assert stats["record_versions"] > 0
    assert stats["index_deltas"] > 0
    db.durability.checkpoint()
    stats = db.store.version_stats()
    assert stats["record_versions"] == 0
    assert stats["chain_versions"] == 0
    assert stats["index_deltas"] == 0
    assert stats["stats_versions"] == 0
    # The collapsed state still answers correctly at every chunk size.
    for chunk in CHUNK_SIZES:
        result = execute(db, "MATCH (a:P)-[r:K]->(b:P) RETURN b.v AS v", chunk=chunk)
        assert sorted(row["v"] for row in result.to_list()) == list(range(1, 9))
    db.close()


def test_live_snapshot_blocks_gc_then_release_unblocks(tmp_path):
    db = GraphDatabase.open(tmp_path / "data")
    db.create_node(["P"], {"v": 0})
    db.create_node(["P"], {"v": 1})
    db.execute("MATCH (n:P {v: 1}) DETACH DELETE n")
    clock = db.store.mvcc
    snapshot = clock.acquire()
    try:
        db.create_node(["P"], {"v": 2})
        counters = db.vacuum_versions()
        # The pinned snapshot still needs the pre-pin chains; the cutoff
        # must not reach past it.
        assert counters["cutoff"] <= snapshot.lsn
        with clock.reading(snapshot):
            rows = db.execute("MATCH (n:P) RETURN n.v AS v").to_list()
        assert sorted(row["v"] for row in rows) == [0]
    finally:
        clock.release(snapshot)
    db.vacuum_versions()
    assert db.store.version_stats()["record_versions"] == 0
    db.close()


def test_recovery_from_checkpoint_reproduces_fingerprints(tmp_path):
    """Checkpoint under MVCC must capture a consistent image: reopening
    from it yields identical rows for every probe query at every chunk size."""
    directory = tmp_path / "data"
    db = GraphDatabase.open(directory)
    for i in range(6):
        db.execute("CREATE (:A {v: %d})" % i)
        db.execute("MATCH (a:A {v: %d}) CREATE (a)-[:R]->(:B {v: %d})" % (i, i))
    db.execute("MATCH (n:B {v: 2}) DETACH DELETE n")
    db.durability.checkpoint()
    db.execute("CREATE (:A {v: 99})")  # post-checkpoint tail, WAL only
    expected = {chunk: rows_at(db, chunk) for chunk in CHUNK_SIZES}
    db.close()

    recovered = GraphDatabase.open(directory)
    for chunk in CHUNK_SIZES:
        assert rows_at(recovered, chunk) == expected[chunk], (
            f"recovery drifted from pre-close state at chunk size {chunk}"
        )
    recovered.close()


# ----------------------------------------------------------------------
# Read-your-writes and rollback
# ----------------------------------------------------------------------

def test_read_your_writes_snapshot_lsn_covers_commit_token(tmp_path):
    """A write outcome's commit_lsn is the read-your-writes token: any
    snapshot pinned after the outcome returns has lsn >= token."""
    db = GraphDatabase.open(tmp_path / "data")
    with QueryService(db) as service:
        outcome = service.execute("CREATE (:A {v: 1})")
        token = outcome.commit_lsn
        assert token is not None
        assert db.store.mvcc.published >= token
        with db.snapshot() as snapshot:
            assert snapshot.lsn >= token
            rows = db.execute("MATCH (n:A) RETURN n.v AS v").to_list()
        assert rows == [{"v": 1}]
    db.close()


def test_rollback_discards_pending_versions():
    db = GraphDatabase()
    db.create_node(["P"], {"v": 0})
    with pytest.raises(RuntimeError, match="boom"):
        with db.begin() as tx:
            tx.create_node([db.label("P")])
            raise RuntimeError("boom")
    # The undo published a net-zero commit; nothing stays pending and no
    # reader — latest or pinned — can see the rolled-back node.
    assert not db.store.has_pending_versions()
    rows = db.execute("MATCH (n:P) RETURN n.v AS v").to_list()
    assert rows == [{"v": 0}]
