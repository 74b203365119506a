"""Replication suite: leader/replica equality, fault matrix, router RYW.

Three layers of guarantees under test:

* **Differential** — after draining, every paper-shaped query returns rows
  over the wire from a replica byte-identical to the leader, on both
  execution engines; a hypothesis test interleaves random writes,
  checkpoints and replica bounces and requires the replica to converge to
  the leader's exact fingerprint (replay is id-identical, so the
  fingerprints include raw ids).
* **Fault matrix** — the replication kill-points (leader crash mid-ship,
  torn WAL_SEGMENT mid-frame, replica crash mid-apply) each recover to
  fingerprint-identical state with no duplicate application; re-applying
  an already-applied batch is a no-op.
* **Router** — write-then-read through the router is never stale even
  against an artificially lagged (pause-apply) replica; token-free reads
  accept bounded staleness; laggards are evicted from rotation and
  re-admitted once caught up.
"""

import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FaultInjector,
    GraphDatabase,
    QueryService,
    ReadOnlyReplicaError,
    ServiceConfig,
    StalenessError,
    wire,
)
from repro.client import Client
from repro.durability import iter_tail_frames
from repro.replication import Replica
from repro.router import Router, RouterConfig
from repro.server import BackgroundServer, ServerConfig

from tests.engines import CHUNK_SIZES, pin_chunk

PAPER_QUERIES = (
    "MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B) RETURN a",
    "MATCH (a:A)-[y:Y]->(b:B) RETURN a, b",
    "MATCH (a:A)-[x:X]->(b:A) RETURN a",
    "MATCH (a:A)-[y:Y]->(b:B)-[x:X]->(c:A) RETURN a, c",
)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def fingerprint(db):
    """Full store state *including raw ids*: WAL replay and replicated
    apply are id-identical, so a replica must match the leader exactly."""
    store = db.store
    nodes = {
        node_id: (
            tuple(sorted(store.node_labels(node_id))),
            tuple(sorted(store.node_properties(node_id).items())),
        )
        for node_id in store.all_nodes()
    }
    rels = {}
    for rel_id in store.all_relationships():
        record = store.relationship(rel_id)
        rels[rel_id] = (
            record.type_id,
            record.start_node,
            record.end_node,
            tuple(sorted(store.relationship_properties(rel_id).items())),
        )
    stats = store.statistics
    return (
        nodes,
        rels,
        (stats.node_count, stats.relationship_count),
        {
            index.name: tuple(sorted(index.scan()))
            for index in db.indexes
            if index.supports_full_scan
        },
    )


def wait_until(predicate, timeout_s=30.0, message="condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.01)


@contextmanager
def leader_stack(directory, injector=None, **server_kw):
    """A durable leader database behind a background server."""
    db = GraphDatabase.open(directory, fault_injector=injector)
    service = QueryService(db, ServiceConfig(max_concurrency=4))
    server = BackgroundServer(service, ServerConfig(port=0, **server_kw))
    host, port = server.start()
    try:
        yield SimpleNamespace(
            db=db,
            service=service,
            server=server,
            addr=(host, port),
            name=f"{host}:{port}",
        )
    finally:
        server.stop()
        service.shutdown(cancel_pending=True)
        db.close()


class ReplicaNode:
    """A replica plus (optionally) its own serving server."""

    def __init__(self, directory, leader_name, injector=None, serve=True):
        self.rep = Replica(directory, leader_name, injector=injector)
        self.service = self.server = self.addr = self.name = None
        if serve:
            self.service = QueryService(
                self.rep.db,
                ServiceConfig(max_concurrency=2),
            )
            self.rep.attach(
                on_swap=self.service.swap_database, metrics=self.service.metrics
            )
            self.server = BackgroundServer(
                self.service,
                ServerConfig(
                    port=0, replica_of=leader_name, require_lsn_wait_s=0.3
                ),
            )
            self.server.server.replica = self.rep
            host, port = self.server.start()
            self.addr = (host, port)
            self.name = f"{host}:{port}"
        self.rep.start()

    def drain_from(self, lead):
        target = lead.db.durability.applied_lsn()
        assert self.rep.wait_for_lsn(target, 30), (
            f"replica stuck at {self.rep.applied_lsn}, leader at {target}"
        )

    def stop(self):
        self.rep.stop()
        if self.server is not None:
            self.server.stop()
            self.service.shutdown(cancel_pending=True)


@contextmanager
def router_stack(lead, replica_nodes, **config_kw):
    config_kw.setdefault("health_interval_s", 0.02)
    router = Router(
        RouterConfig(
            leader=lead.name,
            replicas=tuple(node.name for node in replica_nodes),
            **config_kw,
        )
    )
    host, port = router.start()
    try:
        yield SimpleNamespace(router=router, addr=(host, port))
    finally:
        router.stop()


def rows_bytes(rows):
    """Canonical byte encoding of a result set, for byte-identity checks."""
    return wire.encode_frame(
        wire.MSG_RECORD,
        {"rows": sorted([sorted(row.items()) for row in rows])},
    )


# ---------------------------------------------------------------------------
# Differential: leader vs replicas, at every chunk size
# ---------------------------------------------------------------------------


def populate_paper_graph(db, paths=25):
    """The correlated A-X->A-X->A-Y->B shape, written through the logged
    transactional API so every record ships to the replicas — including
    the path-index DDL."""
    for i in range(paths):
        a = db.create_node(["A"], {"i": i})
        b = db.create_node(["A"])
        c = db.create_node(["A"])
        d = db.create_node(["B"])
        e = db.create_node(["A"])
        db.create_relationship(a, b, "X")
        db.create_relationship(b, c, "X")
        db.create_relationship(c, d, "Y")
        db.create_relationship(d, e, "X")
    db.create_path_index("y", "(:A)-[:Y]->(:B)")


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_replica_rows_byte_identical_at_every_chunk_size(tmp_path, chunk, monkeypatch):
    pin_chunk(monkeypatch, chunk)
    with leader_stack(tmp_path / "leader") as lead:
        populate_paper_graph(lead.db)
        nodes = [
            ReplicaNode(tmp_path / f"rep{i}", lead.name)
            for i in range(2)
        ]
        try:
            for node in nodes:
                node.drain_from(lead)
            with Client(*lead.addr) as leader_client:
                # Twice: the second run reuses the generated code.
                for query in PAPER_QUERIES * 2:
                    expected = leader_client.execute(query).rows
                    for node in nodes:
                        with Client(*node.addr) as replica_client:
                            got = replica_client.execute(query).rows
                        assert rows_bytes(got) == rows_bytes(expected), (
                            f"replica row drift for {query!r} at chunk size {chunk}"
                        )
        finally:
            for node in nodes:
                node.stop()


@settings(max_examples=6, deadline=None)
@given(
    ops=st.lists(
        st.sampled_from(["write", "write", "write", "checkpoint", "bounce"]),
        min_size=1,
        max_size=12,
    )
)
def test_replica_converges_under_random_interleaving(ops):
    """Random writes, checkpoints and replica bounces — the replica must
    always converge to the leader's exact fingerprint."""
    with tempfile.TemporaryDirectory() as raw:
        tmp = Path(raw)
        with leader_stack(tmp / "leader") as lead:
            node = ReplicaNode(tmp / "rep", lead.name, serve=False)
            try:
                with Client(*lead.addr) as client:
                    counter = 0
                    for op in ops:
                        if op == "write":
                            client.execute(
                                f"CREATE (:P {{i: {counter}}})"
                                f"-[:K {{w: {counter}}}]->"
                                f"(:P {{i: {counter + 1}}})"
                            )
                            counter += 2
                        elif op == "checkpoint":
                            lead.db.durability.checkpoint()
                        else:  # bounce: disconnect, recover, resubscribe
                            node.stop()
                            node = ReplicaNode(
                                tmp / "rep", lead.name, serve=False
                            )
                node.drain_from(lead)
                assert fingerprint(node.rep.db) == fingerprint(lead.db)
            finally:
                node.stop()


# ---------------------------------------------------------------------------
# Replica semantics: write rejection, require_lsn, status
# ---------------------------------------------------------------------------


def test_replica_rejects_writes_naming_the_leader(tmp_path):
    with leader_stack(tmp_path / "leader") as lead:
        node = ReplicaNode(tmp_path / "rep", lead.name)
        try:
            with Client(*node.addr) as client:
                with pytest.raises(ReadOnlyReplicaError) as excinfo:
                    client.execute("CREATE (:P {i: 1})")
                assert lead.name in str(excinfo.value)
                # Reads are fine on the same session afterwards.
                assert client.execute("MATCH (n:P) RETURN n").rows == []
            counters = node.service.metrics.snapshot()["counters"]
            assert counters["server.replica_write_rejections"] == 1
        finally:
            node.stop()


def test_require_lsn_read_your_writes_on_replica(tmp_path):
    with leader_stack(tmp_path / "leader") as lead:
        node = ReplicaNode(tmp_path / "rep", lead.name)
        try:
            wait_until(lambda: node.rep.connected, message="replica connect")
            node.rep.pause_apply()
            with Client(*lead.addr) as leader_client:
                token = leader_client.execute("CREATE (:P {i: 1})").commit_lsn
            assert token
            with Client(*node.addr) as replica_client:
                # Stale replica + token → retryable StalenessError after the
                # bounded wait.
                with pytest.raises(StalenessError) as excinfo:
                    replica_client.execute(
                        "MATCH (n:P) RETURN count(n) AS c", require_lsn=token
                    )
                assert excinfo.value.retryable
                # Token-free read serves the stale (empty) snapshot.
                stale = replica_client.execute(
                    "MATCH (n:P) RETURN count(n) AS c"
                )
                assert stale.rows == [{"c": 0}]
                node.rep.resume_apply()
                fresh = replica_client.execute(
                    "MATCH (n:P) RETURN count(n) AS c", require_lsn=token
                )
                assert fresh.rows == [{"c": 1}]
        finally:
            node.stop()


def test_leader_status_tracks_subscriber_lag(tmp_path):
    with leader_stack(tmp_path / "leader") as lead:
        node = ReplicaNode(tmp_path / "rep", lead.name)
        try:
            with Client(*lead.addr) as client:
                for i in range(5):
                    client.execute(f"CREATE (:P {{i: {i}}})")
                node.drain_from(lead)
                applied = lead.db.durability.applied_lsn()
                wait_until(
                    lambda: [
                        sub
                        for sub in client.status()["subscribers"]
                        if sub["applied_lsn"] >= applied
                    ],
                    message="subscriber ACKs to reach the leader",
                )
                status = client.status()
                assert status["role"] == "leader"
                (sub,) = status["subscribers"]
                assert sub["applied_lsn"] == applied
                assert sub["unacked_bytes"] == 0
            with Client(*node.addr) as client:
                status = client.status()
                assert status["role"] == "replica"
                assert status["leader"] == lead.name
                assert status["replica_applied_lsn"] == applied
                assert status["replica_lag_lsn"] == 0
        finally:
            node.stop()


# ---------------------------------------------------------------------------
# Fault matrix: every replication kill-point recovers, no duplicates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("point", ["ship.before_segment", "ship.torn_segment"])
def test_leader_crash_mid_ship_recovers(tmp_path, point):
    """Leader dies while shipping (before a segment, or mid-frame so the
    replica sees a torn stream). After the leader recovers, the replica
    resubscribes from its applied LSN and converges with no duplicates."""
    injector = FaultInjector()
    with leader_stack(tmp_path / "leader", injector=injector) as lead:
        node = ReplicaNode(tmp_path / "rep", lead.name, serve=False)
        with Client(*lead.addr) as client:
            for i in range(5):
                client.execute(f"CREATE (:P {{i: {i}}})")
        node.drain_from(lead)
        # Commit the next five writes with no subscriber attached, so none
        # of them can be shipped (and crash the leader) before the last
        # one commits; the resubscribing replica then receives them all.
        node.stop()
        with Client(*lead.addr) as client:
            wait_until(
                lambda: not client.status()["subscribers"],
                message="the leader to drop the stopped replica",
            )
            for i in range(5, 10):
                client.execute(f"CREATE (:P {{i: {i}}})")
        injector.arm(point)
        node = ReplicaNode(tmp_path / "rep", lead.name, serve=False)
        wait_until(lambda: injector.crashed, message="leader ship crash")
        applied_at_crash = node.rep.applied_lsn
        node.stop()
    # The leader process is dead; re-open the directory (recovery replays
    # the durable log — all ten writes were fsynced before shipping).
    with leader_stack(tmp_path / "leader") as lead:
        node = ReplicaNode(tmp_path / "rep", lead.name, serve=False)
        try:
            # The replica recovered to a CRC-valid prefix at least as far
            # as it had acknowledged before the crash.
            assert node.rep.applied_lsn >= applied_at_crash
            node.drain_from(lead)
            assert fingerprint(node.rep.db) == fingerprint(lead.db)
            assert node.rep.db.store.statistics.node_count == 10
        finally:
            node.stop()


def test_replica_crash_mid_apply_recovers(tmp_path):
    """The replica dies between two records of one shipped batch. On
    re-open it recovers to a CRC-valid prefix, resubscribes from its
    applied LSN, and re-shipped records are not applied twice."""
    replica_injector = FaultInjector()
    with leader_stack(tmp_path / "leader") as lead:
        with Client(*lead.addr) as client:
            for i in range(6):
                client.execute(f"CREATE (:P {{i: {i}}})")
        replica_injector.arm("replica.apply.mid_batch")
        node = ReplicaNode(
            tmp_path / "rep", lead.name, injector=replica_injector, serve=False
        )
        wait_until(lambda: node.rep.crashed, message="replica apply crash")
        # Dead process: drop whatever the OS never fsynced, then recover.
        node.rep.db.durability.simulate_power_loss()
        node.stop()
        recovered = ReplicaNode(tmp_path / "rep", lead.name, serve=False)
        try:
            recovered.drain_from(lead)
            assert fingerprint(recovered.rep.db) == fingerprint(lead.db)
            assert recovered.rep.db.store.statistics.node_count == 6
        finally:
            recovered.stop()


def test_reapplying_a_shipped_batch_is_idempotent(tmp_path):
    """apply_replicated of an already-applied record is a no-op — the
    exact situation after an ACK is lost and the leader re-ships."""
    source = GraphDatabase.open(tmp_path / "leader")
    for i in range(4):
        source.execute(f"CREATE (:P {{i: {i}}})-[:K]->(:Q {{i: {i}}})").consume()
    source.create_path_index("k", "(:P)-[:K]->(:Q)")
    wal_path = source.durability.replication_position()["wal_path"]
    frames, _end = iter_tail_frames(wal_path, 0)
    assert frames

    target = GraphDatabase.open(tmp_path / "rep")
    applied = [target.durability.apply_replicated(p) for p, _off in frames]
    assert all(seq is not None for seq in applied)
    first_pass = fingerprint(target)
    assert first_pass == fingerprint(source)
    # Second application of the same batch: every record is skipped.
    reapplied = [target.durability.apply_replicated(p) for p, _off in frames]
    assert reapplied == [None] * len(frames)
    assert fingerprint(target) == first_pass
    source.close()
    target.close()


# ---------------------------------------------------------------------------
# Router: read-your-writes, bounded staleness, eviction
# ---------------------------------------------------------------------------


def test_router_write_then_read_never_stale(tmp_path):
    """With one replica artificially frozen, a session that writes through
    the router must never read stale data — the read waits or re-routes
    until a current backend serves it."""
    with leader_stack(tmp_path / "leader") as lead:
        nodes = [
            ReplicaNode(tmp_path / f"rep{i}", lead.name) for i in range(2)
        ]
        try:
            with router_stack(lead, nodes) as stack:
                wait_until(
                    lambda: all(s.polled for s in stack.router.replicas),
                    message="router health polls",
                )
                nodes[0].rep.pause_apply()  # the artificial laggard
                with Client(*stack.addr) as client:
                    for i in range(1, 11):
                        client.execute(f"CREATE (:P {{i: {i}}})")
                        got = client.execute(
                            "MATCH (n:P) RETURN count(n) AS c"
                        ).rows
                        assert got == [{"c": i}], (
                            f"stale read after write {i}: {got}"
                        )
                nodes[0].rep.resume_apply()
        finally:
            for node in nodes:
                node.stop()


def test_router_token_free_reads_accept_bounded_staleness(tmp_path):
    with leader_stack(tmp_path / "leader") as lead:
        node = ReplicaNode(tmp_path / "rep", lead.name)
        try:
            with Client(*lead.addr) as leader_client:
                for i in range(3):
                    leader_client.execute(f"CREATE (:P {{i: {i}}})")
            node.drain_from(lead)
            with router_stack(lead, [node]) as stack:
                router = stack.router
                wait_until(
                    lambda: not router.replicas[0].evicted,
                    message="replica admitted to rotation",
                )
                node.rep.pause_apply()
                with Client(*lead.addr) as leader_client:
                    for i in range(3, 5):
                        leader_client.execute(f"CREATE (:P {{i: {i}}})")
                with Client(*stack.addr) as client:
                    # This session never wrote: its token is 0, so the
                    # (slightly) lagged replica is acceptable and serves
                    # its stale-but-bounded snapshot.
                    stale = client.execute(
                        "MATCH (n:P) RETURN count(n) AS c"
                    ).rows
                    assert stale == [{"c": 3}]
                    # An explicit require_lsn overrides the default and
                    # forces a current read (leader fallback).
                    token = lead.db.durability.applied_lsn()
                    fresh = client.execute(
                        "MATCH (n:P) RETURN count(n) AS c", require_lsn=token
                    ).rows
                    assert fresh == [{"c": 5}]
                node.rep.resume_apply()
        finally:
            node.stop()


def test_router_evicts_laggard_and_readmits(tmp_path):
    with leader_stack(tmp_path / "leader") as lead:
        node = ReplicaNode(tmp_path / "rep", lead.name)
        try:
            with Client(*lead.addr) as leader_client:
                leader_client.execute("CREATE (:P {i: 0})")
            node.drain_from(lead)
            with router_stack(lead, [node], max_lag_lsn=4) as stack:
                router = stack.router
                wait_until(
                    lambda: not router.replicas[0].evicted,
                    message="replica admitted",
                )
                node.rep.pause_apply()
                with Client(*lead.addr) as leader_client:
                    for i in range(1, 11):
                        leader_client.execute(f"CREATE (:P {{i: {i}}})")
                wait_until(
                    lambda: router.replicas[0].evicted,
                    message="laggard eviction",
                )
                assert router.metrics.counter("router.evictions").value >= 1
                # Reads still work (leader fallback) and are current.
                with Client(*stack.addr) as client:
                    got = client.execute(
                        "MATCH (n:P) RETURN count(n) AS c"
                    ).rows
                    assert got == [{"c": 11}]
                node.rep.resume_apply()
                wait_until(
                    lambda: not router.replicas[0].evicted,
                    message="laggard re-admission",
                )
                assert (
                    router.metrics.counter("router.readmissions").value >= 2
                )
        finally:
            node.stop()


def test_router_forwards_prepared_statements_and_streams(tmp_path):
    with leader_stack(tmp_path / "leader") as lead:
        node = ReplicaNode(tmp_path / "rep", lead.name)
        try:
            with router_stack(lead, [node]) as stack:
                with Client(*stack.addr) as client:
                    write = client.prepare("CREATE (:P {i: 42})")
                    assert write.is_write
                    client.execute(stmt=write)
                    read = client.prepare("MATCH (n:P) RETURN n.i AS i")
                    assert not read.is_write
                    assert client.execute(stmt=read).rows == [{"i": 42}]
                    with client.stream(
                        "MATCH (n:P) RETURN n.i AS i", credit=1
                    ) as stream:
                        assert list(stream) == [{"i": 42}]
        finally:
            node.stop()
