"""Controlled-failover suite: epoch fencing, promotion, router re-pointing.

The guarantees under test, layer by layer:

* **Epochs** — the leader epoch persists next to the WAL (the ``EPOCH``
  file), survives reopen and checkpoint cleanup, and never regresses.
* **Promotion** — a PROMOTE frame (or offline ``engine.promote()``) drains
  the replica's tail, verifies it against recovery, bumps the epoch, and
  flips the node writable; the promotion kill-points each recover to
  byte-identical state on both execution engines.
* **Fencing** — a leader that hears of a higher epoch (STATUS gossip or a
  subscriber's handshake) never acknowledges another write; a revived old
  leader's divergent tail is discarded wholesale when it rejoins as a
  replica of the new epoch (snapshot reseed).
* **Router** — the health loop re-points writes at the promoted node,
  in-flight and follow-up writes fail with a structured *retryable* error
  until then, and a client using ``retries=`` rides through the window.
"""

import socket
import threading

import pytest

from repro import (
    FaultInjector,
    GraphDatabase,
    QueryService,
    ServiceConfig,
    SimulatedCrashError,
    StalenessError,
)
from repro.client import Client
from repro.errors import (
    LeaderUnavailableError,
    ProtocolError,
    ReplicationError,
    StaleEpochError,
)
from repro.replication import Replica
from repro.router import Router, RouterConfig
from repro.server import BackgroundServer, ServerConfig

from tests.engines import ENGINES, execute
from tests.test_replication import (
    ReplicaNode,
    fingerprint,
    rows_bytes,
    wait_until,
)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class LeaderNode:
    """A durable leader behind a background server, killable mid-test
    (unlike the context-manager stack) and restartable on a fixed port."""

    def __init__(self, directory, port=0, injector=None):
        self.db = GraphDatabase.open(directory, fault_injector=injector)
        self.service = QueryService(self.db, ServiceConfig(max_concurrency=4))
        self.server = BackgroundServer(
            self.service, ServerConfig(host="127.0.0.1", port=port)
        )
        host, port = self.server.start()
        self.addr = (host, port)
        self.name = f"{host}:{port}"
        self._stopped = False

    def stop(self):
        if self._stopped:
            return
        self._stopped = True
        self.server.stop()
        self.service.shutdown(cancel_pending=True)
        self.db.close()


def seed(addr, count, label="P", start=0):
    with Client(*addr) as client:
        for i in range(start, start + count):
            client.execute(f"CREATE (:{label} {{i: {i}}})")


def assert_identical_on_all_engines(db_a, db_b, query):
    """Byte-identical rows from both databases on every execution engine."""
    for mode in ENGINES:
        got = execute(db_a, query, mode=mode).to_list()
        want = execute(db_b, query, mode=mode).to_list()
        assert rows_bytes(got) == rows_bytes(want), (
            f"row drift in {mode} mode for {query!r}"
        )


# ---------------------------------------------------------------------------
# Epoch persistence
# ---------------------------------------------------------------------------


def test_epoch_persists_across_reopen_and_checkpoint(tmp_path):
    db = GraphDatabase.open(tmp_path / "db")
    assert db.durability.epoch == 1
    assert db.durability.promote_lsn == 0
    db.execute("CREATE (:P {i: 0})").consume()
    assert db.durability.promote() == 2
    assert db.durability.promote_lsn == 1
    # The EPOCH file must survive checkpoint orphan cleanup.
    db.execute("CREATE (:P {i: 1})").consume()
    db.checkpoint()
    db.close()
    db = GraphDatabase.open(tmp_path / "db")
    try:
        assert db.durability.epoch == 2
        assert db.durability.promote_lsn == 1
        # Epochs never regress; higher ones are adopted with their floor.
        db.durability.adopt_epoch(1, 0)
        assert db.durability.epoch == 2
        db.durability.adopt_epoch(5, 7)
        assert db.durability.epoch == 5
        assert db.durability.promote_lsn == 7
    finally:
        db.close()


def test_server_cli_promote_flag_validation():
    from repro.server.__main__ import main

    with pytest.raises(SystemExit):
        main(["--promote"])  # requires --data
    with pytest.raises(SystemExit):
        main(["--promote", "--data", "x", "--replica-of", "h:1"])


# ---------------------------------------------------------------------------
# Promotion and fencing (no router)
# ---------------------------------------------------------------------------


def test_promote_flips_role_epoch_and_writability(tmp_path):
    lead = LeaderNode(tmp_path / "leader")
    node = ReplicaNode(tmp_path / "rep", lead.name)
    try:
        seed(lead.addr, 5)
        node.drain_from(lead)
        with Client(*node.addr) as client:
            fields = client.promote()
            assert fields["role"] == "leader"
            assert fields["epoch"] == 2
            assert fields["promote_lsn"] == fields["applied_lsn"] == 5
            # Writable in place, on the same session.
            assert client.execute("CREATE (:P {i: 99})").commit_lsn == 6
            status = client.status()
            assert status["role"] == "leader"
            assert status["epoch"] == 2
            assert not status["fenced"]
        counters = node.service.metrics.snapshot()["counters"]
        assert counters["server.promotions"] == 1
        # Promoting a leader again is refused with a clear message.
        with Client(*node.addr) as client:
            with pytest.raises(ReplicationError, match="only a replica"):
                client.promote()
    finally:
        node.stop()
        lead.stop()


def test_gossiped_epoch_fences_stale_leader(tmp_path):
    """A leader that hears of a higher epoch — STATUS gossip, exactly what
    the router's health loop sends — must never acknowledge another
    write, and refuses new subscriptions."""
    lead = LeaderNode(tmp_path / "leader")
    node = ReplicaNode(tmp_path / "rep", lead.name)
    try:
        seed(lead.addr, 3)
        node.drain_from(lead)
        with Client(*node.addr) as client:
            client.promote()
        with Client(*lead.addr) as client:
            status = client.status(announce_epoch=2)
            assert status["fenced"]
            assert status["fenced_by"] == 2
            with pytest.raises(StaleEpochError) as excinfo:
                client.execute("CREATE (:P {i: -1})")
            assert excinfo.value.retryable
            # Reads still work on the fenced node (it can serve its
            # pre-divergence snapshot).
            rows = client.execute("MATCH (n:P) RETURN count(n) AS c").rows
            assert rows == [{"c": 3}]
        counters = lead.service.metrics.snapshot()["counters"]
        assert counters["server.fenced"] == 1
        assert counters["server.fenced_write_rejections"] == 1
        # A new replica subscribing to the fenced leader is turned away.
        stray = Replica(tmp_path / "stray", lead.name)
        try:
            stray.start()
            with pytest.raises(ReplicationError, match="superseded"):
                stray.wait_connected(timeout_s=2.0)
        finally:
            stray.stop()
    finally:
        node.stop()
        lead.stop()


def test_old_leader_rejoins_and_divergent_tail_is_discarded(tmp_path):
    """Promote B while A (unfenced) keeps writing: A's timeline diverges
    above the promote LSN. Rejoining as a replica of B re-seeds A from a
    shipped checkpoint — the divergent rows vanish, state converges to
    B's, byte-identical on every engine."""
    lead = LeaderNode(tmp_path / "leader")
    b = ReplicaNode(tmp_path / "repB", lead.name)
    try:
        seed(lead.addr, 5)
        b.drain_from(lead)
        with Client(*b.addr) as client:
            client.promote()
        # A was never fenced and keeps acknowledging writes: a diverging
        # timeline above the shared prefix of 5 records.
        seed(lead.addr, 4, label="Q", start=5)
        seed(b.addr, 1, start=100)
    finally:
        lead.stop()
    # Revive A's directory as a replica of the promoted node.
    rejoined = ReplicaNode(tmp_path / "leader", b.name, serve=False)
    try:
        wait_until(
            lambda: rejoined.rep.status_fields()["replica_snapshots_installed"]
            >= 1,
            message="divergent-tail snapshot reseed",
        )
        wait_until(
            lambda: fingerprint(rejoined.rep.db) == fingerprint(b.rep.db),
            message="rejoined old leader convergence",
        )
        assert rejoined.rep.db.durability.epoch == 2
        # The divergent :Q rows were discarded wholesale.
        gone = rejoined.rep.db.execute(
            "MATCH (n:Q) RETURN count(n) AS c"
        ).to_list()
        assert gone == [{"c": 0}]
        assert_identical_on_all_engines(
            rejoined.rep.db, b.rep.db, "MATCH (n:P) RETURN n.i AS i"
        )
    finally:
        rejoined.stop()
        b.stop()


# ---------------------------------------------------------------------------
# Promotion kill-point matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "point", ["promote.mid_tail_replay", "promote.before_epoch_bump"]
)
def test_promotion_crash_before_epoch_write_never_promoted(tmp_path, point):
    """Both kill-points fire before the EPOCH write, so the crash means
    the promotion never happened: the directory re-opens at the old
    epoch, and retrying the promotion lands on identical state."""
    injector = FaultInjector()
    lead = LeaderNode(tmp_path / "leader")
    node = ReplicaNode(tmp_path / "rep", lead.name, injector=injector)
    try:
        seed(lead.addr, 5)
        node.drain_from(lead)
        injector.arm(point)
        with Client(*node.addr) as client:
            # The server dies like a crashed process: no FAILURE frame,
            # the connection just drops.
            with pytest.raises(ProtocolError):
                client.promote()
        wait_until(lambda: injector.crashed, message="promotion crash")
    finally:
        node.stop()
        lead.stop()
    recovered = GraphDatabase.open(tmp_path / "rep")
    oracle = GraphDatabase.open(tmp_path / "leader")
    try:
        assert recovered.durability.epoch == 1  # the bump never landed
        assert recovered.durability.promote() == 2  # retry succeeds
        assert fingerprint(recovered) == fingerprint(oracle)
        assert_identical_on_all_engines(
            recovered, oracle, "MATCH (n:P) RETURN n.i AS i"
        )
    finally:
        recovered.close()
        oracle.close()


def test_surviving_replica_crash_before_resubscribe_recovers(tmp_path):
    """A surviving replica dies just before resubscribing to the new
    leader. On re-open it subscribes from its applied LSN and converges
    with no duplicate application."""
    injector = FaultInjector()
    lead = LeaderNode(tmp_path / "leader")
    b = ReplicaNode(tmp_path / "repB", lead.name)
    c = ReplicaNode(tmp_path / "repC", lead.name, injector=injector, serve=False)
    try:
        seed(lead.addr, 5)
        b.drain_from(lead)
        c.drain_from(lead)
        lead.stop()
        with Client(*b.addr) as client:
            client.promote()
            client.execute("CREATE (:P {i: 100})")
        injector.arm("promote.before_resubscribe")
        c.rep.repoint(b.name)  # severs the stream; reconnect hits the arm
        wait_until(lambda: c.rep.crashed, message="replica crash at resubscribe")
        c.rep.db.durability.simulate_power_loss()
        c.stop()
        revived = ReplicaNode(tmp_path / "repC", b.name, serve=False)
        try:
            wait_until(
                lambda: fingerprint(revived.rep.db) == fingerprint(b.rep.db),
                message="revived replica convergence",
            )
            assert revived.rep.db.durability.epoch == 2
            assert revived.rep.db.store.statistics.node_count == 6
            assert_identical_on_all_engines(
                revived.rep.db, b.rep.db, "MATCH (n:P) RETURN n.i AS i"
            )
        finally:
            revived.stop()
    finally:
        c.stop()
        b.stop()
        lead.stop()


def test_old_leader_crash_during_revival_recovers(tmp_path):
    """The revived old leader crashes *while opening* (right after it
    reads its EPOCH file). A second open succeeds and it rejoins the new
    epoch as a replica."""
    lead = LeaderNode(tmp_path / "leader")
    b = ReplicaNode(tmp_path / "repB", lead.name)
    try:
        seed(lead.addr, 5)
        b.drain_from(lead)
        lead.stop()
        with Client(*b.addr) as client:
            client.promote()
            client.execute("CREATE (:P {i: 100})")
        injector = FaultInjector()
        injector.arm("promote.old_leader_revival")
        with pytest.raises(SimulatedCrashError):
            GraphDatabase.open(tmp_path / "leader", fault_injector=injector)
        # Second revival works; the node rejoins as a replica of B.
        rejoined = ReplicaNode(tmp_path / "leader", b.name, serve=False)
        try:
            wait_until(
                lambda: fingerprint(rejoined.rep.db) == fingerprint(b.rep.db),
                message="revived old leader convergence",
            )
            assert rejoined.rep.db.durability.epoch == 2
            assert rejoined.rep.db.store.statistics.node_count == 6
            assert_identical_on_all_engines(
                rejoined.rep.db, b.rep.db, "MATCH (n:P) RETURN n.i AS i"
            )
        finally:
            rejoined.stop()
    finally:
        b.stop()
        lead.stop()


# ---------------------------------------------------------------------------
# Router re-pointing
# ---------------------------------------------------------------------------


def test_router_surfaces_retryable_error_when_no_leader(tmp_path):
    lead = LeaderNode(tmp_path / "leader")
    router = Router(
        RouterConfig(
            leader=lead.name,
            health_interval_s=0.02,
            write_retries=1,
            write_retry_backoff_s=0.01,
        )
    )
    addr = router.start()
    try:
        seed(addr, 1)
        lead.stop()
        with Client(*addr) as client:
            with pytest.raises(LeaderUnavailableError) as excinfo:
                client.execute("CREATE (:P {i: 1})")
            assert excinfo.value.retryable
            assert "no writable leader" in str(excinfo.value)
    finally:
        router.stop()
        lead.stop()


def test_router_repoints_writes_after_leader_death(tmp_path):
    """The full drill: SIGKILL-equivalent leader death, manual promotion,
    router re-points writes, surviving replica repointed, writes resume
    through the same router address, revived old leader is fenced."""
    port_a = free_port()
    lead = LeaderNode(tmp_path / "leader", port=port_a)
    b = ReplicaNode(tmp_path / "repB", lead.name)
    c = ReplicaNode(tmp_path / "repC", lead.name)
    router = Router(
        RouterConfig(
            leader=lead.name,
            replicas=(b.name, c.name),
            health_interval_s=0.02,
            write_retry_backoff_s=0.02,
        )
    )
    addr = router.start()
    try:
        seed(addr, 5)
        b.drain_from(lead)
        c.drain_from(lead)
        lead.stop()  # the leader "process" dies
        with Client(*b.addr) as client:
            client.promote()
        wait_until(
            lambda: router.write_target.name == b.name,
            message="router re-point to the promoted node",
        )
        assert router.metrics.counter("router.repoints").value >= 1
        assert router.status_fields()["leader"] == b.name
        assert router.highest_epoch == 2
        # The surviving replica is re-pointed at the new leader (the
        # REPOINT admin frame) and follows its stream.
        with Client(*c.addr) as client:
            assert client.repoint(b.name) == {"leader": b.name}
        # Writes resume through the unchanged router address; the retry
        # budget rides out any remaining re-point lag.
        with Client(*addr) as client:
            out = client.execute("CREATE (:P {i: 100})", retries=5)
            assert out.commit_lsn == 6
            rows = client.execute("MATCH (n:P) RETURN count(n) AS c").rows
            assert rows == [{"c": 6}]
        wait_until(
            lambda: fingerprint(c.rep.db) == fingerprint(b.rep.db),
            message="surviving replica convergence on the new timeline",
        )
        assert c.rep.db.durability.epoch == 2
        # Revive the old leader on its original port: the router's gossip
        # fences it before it can acknowledge anything, and the write
        # target stays with the higher epoch.
        revived = LeaderNode(tmp_path / "leader", port=port_a)
        try:
            wait_until(
                lambda: any(
                    state.name == revived.name and state.fenced
                    for state in router.backends
                ),
                message="gossip to fence the revived old leader",
            )
            assert router.write_target.name == b.name
            with Client(*revived.addr) as client:
                with pytest.raises(StaleEpochError):
                    client.execute("CREATE (:P {i: -1})")
        finally:
            revived.stop()
    finally:
        router.stop()
        c.stop()
        b.stop()
        lead.stop()


# ---------------------------------------------------------------------------
# Satellites: reconnect mid-stream, wait errors, client retries
# ---------------------------------------------------------------------------


def test_replica_reconnects_after_leader_restart_mid_stream(tmp_path):
    """Leader dies mid-stream and comes back on the same address: the
    replica resubscribes from its applied LSN, applies nothing twice, and
    converges to the identical fingerprint."""
    port = free_port()
    lead = LeaderNode(tmp_path / "leader", port=port)
    node = ReplicaNode(tmp_path / "rep", lead.name, serve=False)
    try:
        seed(lead.addr, 5)
        node.drain_from(lead)
        reconnects_before = node.rep.status_fields()["replica_reconnects"]
        lead.stop()
        wait_until(lambda: not node.rep.connected, message="stream severed")
        lead = LeaderNode(tmp_path / "leader", port=port)
        seed(lead.addr, 3, start=5)
        node.drain_from(lead)
        assert fingerprint(node.rep.db) == fingerprint(lead.db)
        # Exactly eight rows: re-shipped records were skipped, not
        # re-applied.
        assert node.rep.db.store.statistics.node_count == 8
        assert (
            node.rep.status_fields()["replica_reconnects"] > reconnects_before
        )
    finally:
        node.stop()
        lead.stop()


def test_wait_helpers_raise_descriptive_errors(tmp_path):
    """wait_connected / wait_for_lsn must say *why* — the leader address,
    the last connection error, the LSN shortfall — not return bare False."""
    port = free_port()  # nothing listens here
    rep = Replica(tmp_path / "rep", f"127.0.0.1:{port}")
    rep.start()
    try:
        with pytest.raises(ReplicationError) as excinfo:
            rep.wait_connected(timeout_s=0.5)
        message = str(excinfo.value)
        assert f"127.0.0.1:{port}" in message
        assert "timed out" in message
        assert "last error" in message
        with pytest.raises(ReplicationError) as excinfo:
            rep.wait_for_lsn(5, timeout_s=0.5)
        message = str(excinfo.value)
        assert "LSN 5" in message
        assert "applied 0" in message
        assert "connected=False" in message
    finally:
        rep.stop()
    # After stop() the reason is the stop, not a timeout.
    with pytest.raises(ReplicationError, match="replica stopped"):
        rep.wait_for_lsn(5, timeout_s=0.5)


def test_client_execute_retries_retryable_failures(tmp_path):
    """``retries=`` re-runs a request only on structured retryable
    failures — here a StalenessError that clears once the replica's apply
    loop resumes."""
    lead = LeaderNode(tmp_path / "leader")
    node = ReplicaNode(tmp_path / "rep", lead.name)
    try:
        wait_until(lambda: node.rep.connected, message="replica connect")
        node.rep.pause_apply()
        with Client(*lead.addr) as client:
            token = client.execute("CREATE (:P {i: 1})").commit_lsn
        assert token
        with Client(*node.addr) as client:
            # No retry budget: the first staleness failure surfaces.
            with pytest.raises(StalenessError) as excinfo:
                client.execute(
                    "MATCH (n:P) RETURN count(n) AS c", require_lsn=token
                )
            assert excinfo.value.retryable
            # With a budget, the client rides out the lag.
            timer = threading.Timer(0.3, node.rep.resume_apply)
            timer.start()
            try:
                out = client.execute(
                    "MATCH (n:P) RETURN count(n) AS c",
                    require_lsn=token,
                    retries=8,
                    retry_backoff_s=0.05,
                )
            finally:
                timer.join()
            assert out.rows == [{"c": 1}]
    finally:
        node.stop()
        lead.stop()
