"""Fault-injection recovery tests: crash at every kill-point, reopen, compare.

The invariant under test: after a crash at *any* durability I/O point, the
recovered database equals the state after some prefix of the committed
transactions — for a crash during one commit that means exactly the
pre-commit or the post-commit state, never anything torn. The comparison is
differential: full store fingerprint (nodes, labels, properties,
relationships), planner statistics, path-index contents, and the results of
paper-shaped pattern queries.
"""

import json

import pytest

from repro import FaultInjector, GraphDatabase, SimulatedCrashError
from repro.durability import (
    CHECKPOINT_KILL_POINTS,
    KILL_POINTS,
    PROMOTION_KILL_POINTS,
    REPLICATION_KILL_POINTS,
    SPILL_KILL_POINTS,
    WAL_KILL_POINTS,
    WriteAheadLog,
    scan_records,
)
from repro.durability.encoding import encode_value
from repro.durability.operations import REC_DDL, decode_record, record_seq
from repro.errors import DurabilityError


# ---------------------------------------------------------------------------
# Differential fingerprinting
# ---------------------------------------------------------------------------


def fingerprint(db):
    """Everything observable about a database, in token *names* so the
    comparison is independent of internal id assignment."""
    store = db.store
    labels, types, keys = store.labels, store.types, store.property_keys
    nodes = {}
    for node_id in store.all_nodes():
        nodes[node_id] = (
            tuple(sorted(labels.name_of(l) for l in store.node_labels(node_id))),
            tuple(
                sorted(
                    (keys.name_of(k), v)
                    for k, v in store.node_properties(node_id).items()
                )
            ),
        )
    rels = {}
    for rel_id in store.all_relationships():
        record = store.relationship(rel_id)
        rels[rel_id] = (
            types.name_of(record.type_id),
            record.start_node,
            record.end_node,
            tuple(
                sorted(
                    (keys.name_of(k), v)
                    for k, v in store.relationship_properties(rel_id).items()
                )
            ),
        )
    stats = store.statistics
    statistics = (
        stats.node_count,
        stats.relationship_count,
        tuple(sorted(stats.nodes_by_label.items())),
        tuple(sorted(stats.rels_by_type.items())),
        tuple(sorted(stats.rels_by_start_label_type.items())),
        tuple(sorted(stats.rels_by_type_end_label.items())),
    )
    indexes = {index.name: tuple(sorted(index.scan())) for index in db.indexes}
    queries = tuple(
        tuple(
            sorted(
                tuple(sorted(row.items()))
                for row in db.execute(q).to_list()
            )
        )
        for q in (
            "MATCH (a:P)-[k:K]->(b:P) RETURN a, b, a.name AS n",
            "MATCH (a:P)-[k:K]->(b:P)-[k2:K]->(c:P) RETURN a, c",
        )
    )
    return (nodes, rels, statistics, indexes, queries)


def build_base(db):
    """Committed baseline: a small graph plus two path indexes."""
    a = db.create_node(["P"], {"name": "a"})
    b = db.create_node(["P"], {"name": "b"})
    c = db.create_node(["P", "Q"], {"name": "c"})
    d = db.create_node(["Q"], {"name": "d"})
    db.create_relationship(a, b, "K", {"w": 1})
    db.create_relationship(b, c, "K")
    db.create_relationship(c, d, "L")
    db.create_path_index("k", "(:P)-[:K]->(:P)")
    db.create_path_index("kk", "(:P)-[:K]->(:P)-[:K]->(:P)")
    return [a, b, c, d]


def crashing_write(db, nodes, kind):
    """One write transaction that touches path-indexed state."""
    a, b, c, d = nodes
    if kind == "create":
        with db.begin() as tx:
            e = tx.create_node([db.label("P")])
            tx.set_node_property(e, db.property_key("name"), "e")
            tx.create_relationship(c, e, db.relationship_type("K"))
            tx.success()
    elif kind == "delete":
        rel = next(
            rid
            for rid in db.store.all_relationships()
            if db.store.relationship(rid).start_node == a
        )
        with db.begin() as tx:
            tx.delete_relationship(rel)
            tx.success()
    elif kind == "mixed":
        with db.begin() as tx:
            e = tx.create_node([db.label("P")])
            tx.create_relationship(e, a, db.relationship_type("K"))
            tx.remove_label(c, db.label("P"))
            tx.set_node_property(b, db.property_key("name"), "b2")
            tx.success()
    else:  # pragma: no cover
        raise AssertionError(kind)


# ---------------------------------------------------------------------------
# The kill-point matrix
# ---------------------------------------------------------------------------

# Process crash (the log file keeps written-but-unfsynced bytes): exactly
# which state each kill-point must recover to.
WAL_PROCESS_CRASH_EXPECTATION = {
    "wal.append.before_write": "before",
    "wal.append.torn_write": "before",
    "wal.append.after_write": "after",
    "wal.fsync.before": "after",
    "wal.fsync.after": "after",
}

# Power loss (bytes after the last fsync vanish): only a completed fsync
# keeps the transaction.
WAL_POWER_LOSS_EXPECTATION = {
    "wal.append.before_write": "before",
    "wal.append.torn_write": "before",
    "wal.append.after_write": "before",
    "wal.fsync.before": "before",
    "wal.fsync.after": "after",
}


def _run_crash(tmp_path, point, kind, power_loss):
    directory = tmp_path / "data"
    injector = FaultInjector()
    db = GraphDatabase.open(directory, fault_injector=injector)
    nodes = build_base(db)
    fp_before = fingerprint(db)

    injector.arm(point)
    with pytest.raises(SimulatedCrashError):
        crashing_write(db, nodes, kind)
    # The in-memory store completed the commit before the log I/O failed,
    # so the crashed object shows exactly the would-be post-commit state.
    fp_after = fingerprint(db)
    assert fp_after != fp_before
    if power_loss:
        db.durability.simulate_power_loss()

    recovered = GraphDatabase.open(directory)
    fp_recovered = fingerprint(recovered)
    recovered.close()
    return fp_before, fp_after, fp_recovered


@pytest.mark.parametrize("kind", ["create", "delete", "mixed"])
@pytest.mark.parametrize("point", WAL_KILL_POINTS)
def test_wal_kill_points_recover_atomically(tmp_path, point, kind):
    fp_before, fp_after, fp_recovered = _run_crash(
        tmp_path, point, kind, power_loss=False
    )
    expected = WAL_PROCESS_CRASH_EXPECTATION[point]
    assert fp_recovered == (fp_before if expected == "before" else fp_after)


@pytest.mark.parametrize("kind", ["create", "delete"])
@pytest.mark.parametrize("point", WAL_KILL_POINTS)
def test_wal_kill_points_under_power_loss(tmp_path, point, kind):
    fp_before, fp_after, fp_recovered = _run_crash(
        tmp_path, point, kind, power_loss=True
    )
    expected = WAL_POWER_LOSS_EXPECTATION[point]
    assert fp_recovered == (fp_before if expected == "before" else fp_after)


@pytest.mark.parametrize("point", CHECKPOINT_KILL_POINTS)
def test_checkpoint_kill_points_preserve_committed_state(tmp_path, point):
    directory = tmp_path / "data"
    injector = FaultInjector()
    db = GraphDatabase.open(directory, fault_injector=injector)
    nodes = build_base(db)
    crashing_write(db, nodes, "create")  # one more committed transaction
    fp_committed = fingerprint(db)

    injector.arm(point)
    with pytest.raises(SimulatedCrashError):
        db.checkpoint()

    recovered = GraphDatabase.open(directory)
    assert fingerprint(recovered) == fp_committed
    # The recovered database is fully operational: more writes, another
    # checkpoint, another recovery.
    recovered.create_node(["P"], {"name": "post"})
    recovered.checkpoint()
    recovered.close()
    again = GraphDatabase.open(directory)
    assert (
        len(again.execute("MATCH (n:P) RETURN n.name AS n").to_list())
        == len(db.execute("MATCH (n:P) RETURN n.name AS n").to_list()) + 1
    )
    again.close()


def test_every_kill_point_is_exercised(tmp_path):
    """Meta-test: the matrices above cover every named kill-point, and each
    armed point actually fires (the injector records the crash point).

    Replication kill-points fire on the shipping/apply path, which needs a
    leader/replica topology — their matrix lives in
    ``tests/test_replication.py``; promotion kill-points fire during
    controlled failover and their matrix lives in
    ``tests/test_failover.py`` (same arm → crash → recover → assert
    discipline); here they only count toward coverage."""
    covered = (
        set(WAL_PROCESS_CRASH_EXPECTATION)
        | set(CHECKPOINT_KILL_POINTS)
        | set(SPILL_KILL_POINTS)
        | set(REPLICATION_KILL_POINTS)
        | set(PROMOTION_KILL_POINTS)
    )
    assert covered == set(KILL_POINTS)
    for point in set(KILL_POINTS) - set(REPLICATION_KILL_POINTS) - set(
        PROMOTION_KILL_POINTS
    ):
        directory = tmp_path / f"fire-{point.replace('.', '-')}"
        injector = FaultInjector()
        kwargs = {}
        if point in SPILL_KILL_POINTS:
            # A grant of one row makes the first ORDER BY buffer spill.
            kwargs = {"memory_budget": 1 << 20, "memory_grant": 256}
        db = GraphDatabase.open(directory, fault_injector=injector, **kwargs)
        nodes = build_base(db)
        injector.arm(point)
        with pytest.raises(SimulatedCrashError):
            if point in CHECKPOINT_KILL_POINTS:
                db.checkpoint()
            elif point in SPILL_KILL_POINTS:
                db.execute(
                    "MATCH (n:P) RETURN n.name AS name ORDER BY name"
                ).to_list()
            else:
                crashing_write(db, nodes, "create")
        assert injector.crashed and injector.crash_point == point


# ---------------------------------------------------------------------------
# Replay fidelity beyond the crash matrix
# ---------------------------------------------------------------------------


def test_replay_statistics_match_live_execution(tmp_path):
    """Satellite: WAL replay maintains GraphStatistics identically to live
    execution — both against the pre-close database and against a fresh
    in-memory database running the same workload."""
    directory = tmp_path / "data"
    db = GraphDatabase.open(directory)
    reference = GraphDatabase()
    for target in (db, reference):
        nodes = build_base(target)
        crashing_write(target, nodes, "mixed")
        crashing_write(target, nodes, "delete")
    live = db.store.statistics
    db.close()

    recovered = GraphDatabase.open(directory)
    for other in (live, reference.store.statistics):
        got = recovered.store.statistics
        assert got.node_count == other.node_count
        assert got.relationship_count == other.relationship_count
        assert got.nodes_by_label == other.nodes_by_label
        assert got.rels_by_type == other.rels_by_type
        assert got.rels_by_start_label_type == other.rels_by_start_label_type
        assert got.rels_by_type_end_label == other.rels_by_type_end_label
    recovered.close()


def test_recovered_indexes_match_algorithm_one_output(tmp_path):
    """Replaying logged index deltas must land on the same contents that
    re-running maintenance (Algorithm 1) would produce — verify_index
    cross-checks against a fresh traversal of the pattern."""
    directory = tmp_path / "data"
    db = GraphDatabase.open(directory)
    nodes = build_base(db)
    crashing_write(db, nodes, "create")
    crashing_write(db, nodes, "delete")
    db.close()
    recovered = GraphDatabase.open(directory)
    assert recovered.verify_index("k")
    assert recovered.verify_index("kk")
    # And maintenance keeps working on the recovered store.
    a = recovered.create_node(["P"], {"name": "new"})
    recovered.create_relationship(a, nodes[1], "K")
    assert recovered.verify_index("k")
    recovered.close()


def test_recovery_replays_index_deltas_after_checkpoint(tmp_path):
    """An index created and checkpointed before two committed writes (one
    adding, one removing entries) recovers the checkpointed tree plus the
    logged deltas of the log suffix."""
    directory = tmp_path / "data"
    db = GraphDatabase.open(directory)
    nodes = build_base(db)
    db.create_path_index("pk", "(:P)-[:K]->()")
    db.checkpoint()
    crashing_write(db, nodes, "create")
    crashing_write(db, nodes, "delete")
    live = sorted(db.path_index("pk").scan())
    db.close()
    recovered = GraphDatabase.open(directory)
    assert sorted(recovered.path_index("pk").scan()) == live
    assert recovered.verify_index("pk")
    recovered.close()


def test_wal_ddl_record_of_a_partial_index_is_refused(tmp_path):
    """A DDL record whose fifth field marks the index partially
    materialized names an index kind that no longer exists: recovery
    refuses it instead of building something else under its name."""
    directory = tmp_path / "data"
    db = GraphDatabase.open(directory)
    build_base(db)
    db.close()
    (wal_path,) = directory.glob("wal-*.log")
    payloads, _ = scan_records(wal_path)
    seq = record_seq(decode_record(payloads[-1])[1]) + 1
    payload = bytes([REC_DDL]) + encode_value(
        [seq, "create_index", "pk", "(:P)-[:K]->()", True, True]
    )
    wal = WriteAheadLog(wal_path)
    wal.append(payload)
    wal.fsync()
    wal.close()
    with pytest.raises(DurabilityError, match="'pk'.*partial path indexes"):
        GraphDatabase.open(directory)


def test_checkpoint_spec_of_a_partial_index_is_refused(tmp_path):
    """Likewise for a checkpoint whose ``indexes.json`` marks an index
    partial: opening the directory raises instead of restoring it."""
    directory = tmp_path / "data"
    db = GraphDatabase.open(directory)
    build_base(db)
    db.checkpoint()
    db.close()
    (specs_path,) = directory.glob("checkpoint-*/indexes.json")
    specs = json.loads(specs_path.read_text())
    specs[0]["partial"] = True
    specs_path.write_text(json.dumps(specs))
    with pytest.raises(DurabilityError, match="'k'.*partial path indexes"):
        GraphDatabase.open(directory)


def test_crashed_engine_refuses_further_io(tmp_path):
    """Once the injector fires, the engine behaves like a dead process:
    every later durability operation raises instead of touching disk."""
    directory = tmp_path / "data"
    injector = FaultInjector()
    db = GraphDatabase.open(directory, fault_injector=injector)
    nodes = build_base(db)
    injector.arm("wal.append.before_write")
    with pytest.raises(SimulatedCrashError):
        crashing_write(db, nodes, "create")
    with pytest.raises(SimulatedCrashError):
        crashing_write(db, nodes, "delete")
    with pytest.raises(SimulatedCrashError):
        db.checkpoint()
