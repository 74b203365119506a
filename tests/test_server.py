"""Integration tests for the network front door (repro.server + repro.client).

Covers the HELLO handshake (version negotiation, auth), the acceptance
criterion that every paper-shaped query returns rows over the network
identical to in-process ``db.execute()`` on both execution engines,
prepared statements, pipelining, credit-based backpressure (a slow
streaming client stalls only itself), disconnect → in-flight cancellation,
commit LSNs over the wire, graceful drain, and the shell's ``:connect``
remote mode.
"""

import gc
import io
import socket
import threading
import time
import warnings
from contextlib import contextmanager

import pytest

from repro import (
    AuthenticationError,
    CypherSyntaxError,
    GraphDatabase,
    ProtocolError,
    QueryService,
    QueryTimeoutError,
    ServiceConfig,
    ServiceOverloadedError,
    wire,
)
from repro.client import Client
from repro.datasets import CorrelatedConfig, generate_correlated
from repro.router import Router, RouterConfig
from repro.server import BackgroundServer, ServerConfig
from repro.shell import Shell

from tests.engines import CHUNK_SIZES, execute, pin_chunk

CROSS_QUERY = "MATCH (a:P), (b:P) RETURN a.i AS ai, b.i AS bi"

PAPER_QUERIES = (
    "MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B) RETURN a",
    "MATCH (a:A)-[y:Y]->(b:B) RETURN a, b",
    "MATCH (a:A)-[x:X]->(b:A) RETURN a",
    "MATCH (a:A)-[y:Y]->(b:B)-[x:X]->(c:A) RETURN a, c",
)


@contextmanager
def running_server(db, service_config=None, server_config=None):
    service = QueryService(db, service_config or ServiceConfig(max_concurrency=4))
    server = BackgroundServer(service, server_config or ServerConfig(port=0))
    try:
        server.start()
        yield server, service
    finally:
        server.stop()
        service.shutdown(cancel_pending=True)


def counters(service):
    return service.metrics_snapshot()["counters"]


def raw_conn(address):
    """A bare connection speaking raw frames — for protocol-level tests the
    high-level Client would refuse to produce."""
    return wire.Connection.open(address, io_timeout_s=30)


def raw_hello(raw, versions=(1,), auth=None):
    """Send a HELLO as given and return the reply, whatever it is."""
    raw.send(
        (
            wire.MSG_HELLO,
            {"versions": list(versions), "auth": auth or {}, "client": "raw"},
        )
    )
    return raw.recv()


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------


def test_handshake_version_and_banner():
    db = GraphDatabase()
    with running_server(db) as (server, service):
        host, port = server.address
        with Client(host, port) as client:
            assert client.protocol_version == 1
            assert client.server_info.startswith("pathindex-repro/")
            assert client.session_id == 1
        assert counters(service)["server.sessions_opened"] == 1


def test_version_negotiation_rejects_strangers():
    db = GraphDatabase()
    with running_server(db) as (server, service):
        raw = raw_conn(server.address)
        tag, fields = raw_hello(raw, versions=(99,))
        raw.close()
        assert tag == wire.MSG_FAILURE
        assert fields["code"] == "ProtocolError"
        assert "no common protocol version" in fields["message"]
        deadline = time.monotonic() + 10
        while (
            "server.handshakes_failed" not in counters(service)
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert counters(service)["server.handshakes_failed"] == 1


def test_first_message_must_be_hello():
    db = GraphDatabase()
    with running_server(db) as (server, service):
        raw = raw_conn(server.address)
        raw.send((wire.MSG_RUN, {"query": "MATCH (n) RETURN n"}))
        tag, fields = raw.recv()
        raw.close()
        assert tag == wire.MSG_FAILURE
        assert "first message must be HELLO" in fields["message"]


def test_auth_token_enforced():
    db = GraphDatabase()
    config = ServerConfig(port=0, auth_token="s3cret")
    with running_server(db, server_config=config) as (server, service):
        host, port = server.address
        with pytest.raises(AuthenticationError):
            Client(host, port)
        with pytest.raises(AuthenticationError):
            Client(host, port, auth_token="wrong")
        with Client(host, port, auth_token="s3cret") as client:
            assert client.execute("MATCH (n) RETURN n").rows == []
        assert counters(service)["server.auth_rejections"] == 2


def socket_leaks(action):
    """The ``ResourceWarning``s of sockets left unclosed by ``action()``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        action()
        gc.collect()
    return [
        str(warning.message)
        for warning in caught
        if issubclass(warning.category, ResourceWarning)
        and "socket" in str(warning.message)
    ]


def test_rejected_client_closes_its_socket():
    db = GraphDatabase()
    config = ServerConfig(port=0, auth_token="s3cret")
    with running_server(db, server_config=config) as (server, service):
        host, port = server.address

        def rejected():
            try:
                Client(host, port, auth_token="wrong")
            except AuthenticationError:
                pass
            else:
                raise AssertionError("the wrong token was accepted")

        assert socket_leaks(rejected) == []


def test_rejected_router_health_poll_closes_its_socket():
    db = GraphDatabase()
    config = ServerConfig(port=0, auth_token="s3cret")
    with running_server(db, server_config=config) as (server, service):
        host, port = server.address
        router = Router(
            RouterConfig(leader=f"{host}:{port}", backend_auth_token="wrong")
        )
        leader = router.backends[0]
        assert socket_leaks(lambda: router._poll_backend(leader)) == []
        assert leader.failures == 1 and not leader.alive
        assert counters(service)["server.auth_rejections"] == 1


# ----------------------------------------------------------------------
# Differential: network rows == in-process rows, at every chunk size
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def correlated_db():
    db = GraphDatabase()
    generate_correlated(db, CorrelatedConfig(paths=60, noise_factor=4))
    return db


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_network_rows_identical_to_in_process(correlated_db, chunk, monkeypatch):
    db = correlated_db
    pin_chunk(monkeypatch, chunk)
    with running_server(
        db, service_config=ServiceConfig(max_concurrency=4)
    ) as (server, service):
        host, port = server.address
        with Client(host, port) as client:
            for query in PAPER_QUERIES:
                local = execute(db, query, chunk=chunk)
                expected = [
                    {column: row.get(column) for column in local.columns}
                    for row in local.to_list()
                ]
                remote = client.execute(query)
                assert remote.columns == local.columns
                assert sorted(map(repr, remote.rows)) == sorted(
                    map(repr, expected)
                ), f"row drift over the wire for {query!r} at chunk size {chunk}"


# ----------------------------------------------------------------------
# Prepared statements and pipelining
# ----------------------------------------------------------------------


def test_prepared_statement_round_trip():
    db = GraphDatabase()
    for i in range(10):
        db.create_node(["P"], {"i": i})
    with running_server(db) as (server, service):
        host, port = server.address
        with Client(host, port) as client:
            prepared = client.prepare("MATCH (n:P) RETURN n.i AS i")
            assert prepared.columns == ("i",)
            assert prepared.is_write is False
            outcome = client.execute(stmt=prepared)
            assert sorted(row["i"] for row in outcome.rows) == list(range(10))
            # Unknown statement ids fail cleanly and the session survives.
            with pytest.raises(ProtocolError, match="unknown prepared"):
                client.execute(stmt=999)
            assert client.execute(stmt=prepared).row_count == 10
        assert counters(service)["server.prepares"] == 1


def test_pipelined_requests_answered_in_order():
    db = GraphDatabase()
    for i in range(5):
        db.create_node(["P"], {"i": i})
    with running_server(db) as (server, service):
        raw = raw_conn(server.address)
        tag, _ = raw_hello(raw)
        assert tag == wire.MSG_SUCCESS
        # Two full query conversations written back-to-back in one send.
        raw.send(
            (wire.MSG_RUN, {"query": "MATCH (n:P) RETURN n.i AS i"}),
            (wire.MSG_PULL, {"n": -1}),
            (wire.MSG_RUN, {"query": "MATCH (n:P) RETURN n.i AS j"}),
            (wire.MSG_PULL, {"n": -1}),
        )
        tags = [raw.recv()[0] for _ in range(6)]
        raw.close()
        assert tags == [
            wire.MSG_SUCCESS,  # RUN 1: columns
            wire.MSG_RECORD,  # 5 rows fit one chunk
            wire.MSG_SUCCESS,  # PULL 1: summary
            wire.MSG_SUCCESS,  # RUN 2: columns
            wire.MSG_RECORD,
            wire.MSG_SUCCESS,  # PULL 2: summary
        ]


def test_run_with_open_result_is_refused():
    db = GraphDatabase()
    db.create_node(["P"], {"i": 1})
    with running_server(db) as (server, service):
        raw = raw_conn(server.address)
        raw_hello(raw)
        raw.send((wire.MSG_RUN, {"query": "MATCH (n:P) RETURN n.i AS i"}))
        assert raw.recv()[0] == wire.MSG_SUCCESS
        raw.send((wire.MSG_RUN, {"query": "MATCH (n:P) RETURN n.i AS i"}))
        tag, fields = raw.recv()
        assert tag == wire.MSG_FAILURE
        assert "still open" in fields["message"]
        # RESET clears the parked result; the session is usable again.
        raw.send((wire.MSG_RESET, {}))
        assert raw.recv()[0] == wire.MSG_SUCCESS
        raw.send((wire.MSG_RUN, {"query": "MATCH (n:P) RETURN n.i AS i"}))
        assert raw.recv()[0] == wire.MSG_SUCCESS
        raw.close()


# ----------------------------------------------------------------------
# Streaming, credit and backpressure
# ----------------------------------------------------------------------


def test_stream_chunks_and_credit_accounting():
    db = GraphDatabase()
    for i in range(50):
        db.create_node(["P"], {"i": i})
    config = ServerConfig(port=0, chunk_rows=7)
    with running_server(db, server_config=config) as (server, service):
        host, port = server.address
        with Client(host, port) as client:
            with client.stream(
                "MATCH (n:P) RETURN n.i AS i", credit=10
            ) as stream:
                values = sorted(row["i"] for row in stream)
            assert values == list(range(50))
            assert stream.summary["rows_total"] == 50
        snapshot = counters(service)
        assert snapshot["server.records_streamed"] == 50
        # 10-credit cycles over 7-row chunks: every cycle but the last
        # exhausts its credit with rows still parked.
        assert snapshot["server.backpressure_stalls"] == 4
        assert snapshot["server.stream_chunks"] == 10


def test_slow_streaming_client_does_not_affect_other_sessions():
    db = GraphDatabase()
    for i in range(200):
        db.create_node(["P"], {"i": i})
    with running_server(db) as (server, service):
        host, port = server.address
        slow = Client(host, port)
        fast = Client(host, port)
        try:
            stream = slow.stream("MATCH (n:P) RETURN n.i AS i", credit=8)
            collected = [next(stream)["i"]]  # one credit cycle, then stall
            assert counters(service)["server.backpressure_stalls"] >= 1
            # While the slow session's result sits parked, another session
            # streams full results at full speed.
            for _ in range(5):
                outcome = fast.execute("MATCH (n:P) RETURN n.i AS i")
                assert outcome.row_count == 200
            collected.extend(row["i"] for row in stream)
            assert sorted(collected) == list(range(200))
        finally:
            slow.close()
            fast.close()


def test_discard_reports_dropped_rows():
    db = GraphDatabase()
    for i in range(30):
        db.create_node(["P"], {"i": i})
    with running_server(db) as (server, service):
        host, port = server.address
        with Client(host, port) as client:
            stream = client.stream("MATCH (n:P) RETURN n.i AS i", credit=5)
            first = next(stream)
            assert first["i"] in range(30)
            stream.close()  # DISCARDs the remainder server-side
            assert stream.summary["discarded"] == 25  # 30 rows - 5 pulled
            # Session fully usable afterwards.
            assert client.execute("MATCH (n:P) RETURN n.i AS i").row_count == 30
        assert counters(service)["server.discards"] == 1


# ----------------------------------------------------------------------
# Errors, deadlines, admission control over the wire
# ----------------------------------------------------------------------


def test_errors_map_back_to_repro_classes():
    db = GraphDatabase()
    with running_server(db) as (server, service):
        host, port = server.address
        with Client(host, port) as client:
            with pytest.raises(CypherSyntaxError) as excinfo:
                client.execute("MATCH broken ( RETURN")
            assert excinfo.value.retryable is False
            # The FAILURE left the session in sync: next query works.
            assert client.execute("MATCH (n) RETURN n").rows == []


def test_deadline_applies_to_remote_queries():
    db = GraphDatabase()
    for i in range(400):
        db.create_node(["P"], {"i": i})
    with running_server(db) as (server, service):
        host, port = server.address
        with Client(host, port) as client:
            with pytest.raises(QueryTimeoutError):
                client.execute(CROSS_QUERY, deadline_s=0.02)
        assert counters(service)["service.timeouts"] == 1


def test_admission_control_sheds_remote_overload(monkeypatch):
    db = GraphDatabase()
    for i in range(400):
        db.create_node(["P"], {"i": i})
    service_config = ServiceConfig(max_concurrency=1, max_pending=1)
    with running_server(db, service_config=service_config) as (server, service):
        # Hold the single worker inside the first cross product until the
        # test has fired its overload, whatever the query costs: the worker
        # and the single queue slot are then provably taken.
        entered, release = threading.Event(), threading.Event()
        execute = service._execute_with_retry

        def gated(ticket, *args):
            if ticket.query == CROSS_QUERY:
                entered.set()
                release.wait(60)
            return execute(ticket, *args)

        monkeypatch.setattr(service, "_execute_with_retry", gated)
        host, port = server.address
        clients = [Client(host, port) for _ in range(3)]
        try:
            results = {}

            def run(index):
                try:
                    results[index] = clients[index].execute(CROSS_QUERY)
                except Exception as exc:  # noqa: BLE001 - recorded for asserts
                    results[index] = exc

            threads = [
                threading.Thread(target=run, args=(index,)) for index in range(2)
            ]
            threads[0].start()
            assert entered.wait(30), "first query never reached the worker"
            threads[1].start()
            deadline = time.monotonic() + 30
            while (
                counters(service).get("service.queries_submitted", 0) < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            shed = []
            for _ in range(10):
                try:
                    clients[2].execute("MATCH (n:P) RETURN n.i AS i")
                except ServiceOverloadedError as exc:
                    shed.append(exc)
            release.set()
            for thread in threads:
                thread.join(timeout=120)
            assert len(shed) == 10, "overload did not shed every remote query"
            assert all(exc.retryable for exc in shed)
            assert not any(isinstance(value, Exception) for value in results.values())
            assert [len(results[index].rows) for index in range(2)] == [160_000] * 2
        finally:
            release.set()
            for client in clients:
                client.close()


def test_disconnect_cancels_in_flight_query():
    db = GraphDatabase()
    for i in range(400):
        db.create_node(["P"], {"i": i})
    with running_server(db) as (server, service):
        raw = raw_conn(server.address)
        assert raw_hello(raw)[0] == wire.MSG_SUCCESS
        raw.send((wire.MSG_RUN, {"query": CROSS_QUERY}))
        deadline = time.monotonic() + 30
        while (
            counters(service).get("service.queries_submitted", 0) < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.002)
        raw.close()  # vanish mid-query: the read loop must cancel the token
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            snapshot = counters(service)
            if snapshot.get("service.cancellations"):
                break
            time.sleep(0.005)
        snapshot = counters(service)
        assert snapshot.get("server.disconnect_cancels", 0) >= 1
        assert snapshot.get("service.cancellations", 0) >= 1


# ----------------------------------------------------------------------
# Commit LSN over the wire
# ----------------------------------------------------------------------


def test_commit_lsn_returned_for_remote_writes(tmp_path):
    db = GraphDatabase.open(str(tmp_path / "data"))
    try:
        with running_server(db) as (server, service):
            host, port = server.address
            with Client(host, port) as client:
                first = client.execute("CREATE (:P {k: 1})")
                second = client.execute("CREATE (:P {k: 2})")
                read = client.execute("MATCH (n:P) RETURN n.k AS k")
            assert isinstance(first.commit_lsn, int)
            assert isinstance(second.commit_lsn, int)
            assert second.commit_lsn > first.commit_lsn
            assert read.commit_lsn is None
            assert read.row_count == 2
    finally:
        db.close()


def test_commit_lsn_none_for_non_durable_db():
    db = GraphDatabase()
    with running_server(db) as (server, service):
        host, port = server.address
        with Client(host, port) as client:
            assert client.execute("CREATE (:P {k: 1})").commit_lsn is None


def test_status_reports_both_plan_caches():
    """An operator can tell "commits are slow because maintenance is
    re-planning" from STATUS alone: hits mean it is not."""
    db = GraphDatabase()
    for _ in range(10):  # enough data that three more paths are no drift
        db.create_relationship(db.create_node(["A"]), db.create_node(["B"]), "X")
    db.create_path_index("ab", "(:A)-[:X]->(:B)")
    with running_server(db) as (server, service):
        host, port = server.address
        with Client(host, port) as client:
            for _ in range(3):
                client.execute("CREATE (:A)-[:X]->(:B)")
            status = client.status()
    maintenance = status["maintenance_plan_cache"]
    assert set(maintenance) == set(status["plan_cache"]) == {
        "hits", "misses", "invalidations", "evictions", "size", "capacity",
    }
    assert maintenance["hits"] >= 2 and maintenance["size"] >= 1
    assert status["plan_cache"]["hits"] == 2
    assert status["plan_cache"] == service.metrics_snapshot()["plan_cache"]
    assert maintenance == service.metrics_snapshot()["maintenance_plan_cache"]


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------


def test_graceful_drain_closes_sessions_and_refuses_new_ones():
    db = GraphDatabase()
    db.create_node(["P"], {"i": 1})
    service = QueryService(db, ServiceConfig(max_concurrency=2))
    server = BackgroundServer(service, ServerConfig(port=0, drain_timeout_s=5))
    server.start()
    host, port = server.address
    idle = Client(host, port)
    assert idle.execute("MATCH (n:P) RETURN n.i AS i").row_count == 1
    server.stop()
    # The idle session was closed by the drain...
    with pytest.raises((ProtocolError, OSError)):
        idle.execute("MATCH (n:P) RETURN n.i AS i")
    idle.close()
    # ...and the listener is gone.
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=2)
    # The service itself is untouched: drain only concerns the network.
    assert service.execute("MATCH (n:P) RETURN n.i AS i").row_count == 1
    service.shutdown(cancel_pending=True)
    server.stop()  # idempotent


# ----------------------------------------------------------------------
# Shell remote mode
# ----------------------------------------------------------------------


def run_shell(script, db=None):
    stdout = io.StringIO()
    shell = Shell(db=db, stdin=io.StringIO(script), stdout=stdout)
    try:
        shell.run()
    finally:
        shell.close()
    return stdout.getvalue()


def test_shell_connect_routes_queries_remotely():
    db = GraphDatabase()
    db.create_node(["Person"], {"name": "Ann"})
    with running_server(db) as (server, service):
        host, port = server.address
        # The shell's own (local) database is the same db the server fronts,
        # so the post-:disconnect query must find Ann too.
        output = run_shell(
            db=db,
            script=(
                f":connect {host}:{port}\n"
                "MATCH (p:Person) RETURN p.name AS name;\n"
                ":stats\n"
                ":disconnect\n"
                "MATCH (p:Person) RETURN p.name AS name;\n"
            ),
        )
    assert "connected to pathindex-repro/" in output
    assert output.count("Ann") == 2  # once remote, once local
    assert ":stats acts on the local database" in output
    assert "disconnected" in output
    # The remote query really went through the server.
    assert counters(service)["server.queries"] == 1


def test_shell_connect_usage_and_failures():
    output = run_shell(":connect nonsense\n:disconnect\n")
    assert "usage: :connect" in output
    assert "not connected" in output
    # Connecting to a dead port reports an error instead of raising.
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    dead_port = sock.getsockname()[1]
    sock.close()
    output = run_shell(f":connect 127.0.0.1:{dead_port}\n")
    assert "error:" in output
