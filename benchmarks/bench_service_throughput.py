"""Concurrent query-service throughput over the correlated dataset.

Runs a fixed mixed read workload (Sub1/Sub6/Sub7-shaped pattern queries)
through :class:`repro.service.QueryService` at 1/2/4/8 workers and reports
batch wall time and queries/second, plus the service's own latency
histogram summaries. A results artifact is written to
``benchmarks/results/service_throughput.{txt,json}``.

``--network`` runs the same workload *over the wire* instead: a
:class:`repro.server.BackgroundServer` fronts the service and
1/8/32/128 concurrent TCP connections drain a fixed query batch through
blocking :class:`repro.client.Client` instances. Reported per connection
count: batch wall time, queries/second, client-observed p50/p95 latency,
and the rows/frames the server streamed. Artifact:
``benchmarks/results/server_throughput.{txt,json}``.

Expectation under CPython: scaling is bounded by the GIL (the simulated
page-cache miss latency is accounting-only, not real blocking I/O), so
throughput stays roughly flat while *tail latency* grows with concurrency —
the interesting output is that the service sustains the load with bounded
queues and consistent results, not a linear speed-up. The network mode
adds codec + socket overhead on top; its throughput floor shows the wire
cost, not a second scheduler.
"""

import os
import sys
import threading
import time
from queue import Empty, SimpleQueue

from benchmarks._shared import correlated_config
from repro import GraphDatabase, QueryService, ServiceConfig, wire
from repro.bench import Methodology
from repro.bench.reporting import render_table, write_report
from repro.client import Client
from repro.datasets import CorrelatedConfig, generate_correlated
from repro.server import BackgroundServer, ServerConfig

WORKER_COUNTS = (1, 2, 4, 8)
BATCH_SIZE = 24

CONNECTION_COUNTS = (1, 8, 32, 128)
NETWORK_BATCH = 64
"""Queries per network cell, drained round-robin by however many
connections the cell opens — fixed so wall times are comparable."""

WORKLOAD = (
    # Sub1-shaped: highly selective three-step chain.
    "MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B) RETURN a",
    # Sub7-shaped: one Y step, medium cardinality.
    "MATCH (a:A)-[y:Y]->(b:B) RETURN a, b",
    # Sub6-shaped: one X step, the noisy high-cardinality scan.
    "MATCH (a:A)-[x:X]->(b:A) RETURN a",
    # Sub5-shaped: Y then X.
    "MATCH (a:A)-[y:Y]->(b:B)-[x:X]->(c:A) RETURN a, c",
)


def _run_batch(service: QueryService) -> int:
    queries = [WORKLOAD[index % len(WORKLOAD)] for index in range(BATCH_SIZE)]
    tickets = [service.submit(query) for query in queries]
    return sum(ticket.result(timeout=600).row_count for ticket in tickets)


def _run_table() -> dict:
    db = GraphDatabase()
    generate_correlated(db, correlated_config())
    methodology = Methodology(db, runs=3)
    rows = []
    data = {"batch_size": BATCH_SIZE, "workers": {}}
    expected_rows = None
    for workers in WORKER_COUNTS:
        with QueryService(
            db, ServiceConfig(max_concurrency=workers, max_pending=BATCH_SIZE)
        ) as service:
            batch_rows = _run_batch(service)  # warm plan/page caches
            if expected_rows is None:
                expected_rows = batch_rows
            assert batch_rows == expected_rows, "row counts drifted across runs"
            seconds = methodology.measure_callable(lambda: _run_batch(service))
            snapshot = service.metrics_snapshot()
        qps = BATCH_SIZE / seconds if seconds > 0 else float("inf")
        execution = snapshot["histograms"]["service.execution_seconds"]
        rows.append(
            (
                f"{workers} workers",
                f"{seconds * 1e3:,.1f} ms",
                f"{qps:,.1f} q/s",
                f"{execution['p95'] * 1e3:,.1f} ms",
                f"{batch_rows:,}",
            )
        )
        data["workers"][str(workers)] = {
            "batch_seconds": seconds,
            "qps": qps,
            "rows_per_batch": batch_rows,
            "execution_p95_s": execution["p95"],
            "counters": snapshot["counters"],
        }
    table = render_table(
        f"Service throughput — {BATCH_SIZE}-query mixed batch, correlated "
        "dataset",
        ("Concurrency", "Batch wall", "Throughput", "Exec p95", "Rows/batch"),
        rows,
        note=(
            "CPython's GIL bounds read scaling (the simulated page-cache "
            "latency is accounting-only); the point is bounded-queue "
            "stability and consistent results, not linear speed-up."
        ),
    )
    write_report("service_throughput", table, data)
    return data


def _run_mixed_table() -> dict:
    """Read throughput at 1/2/4/8 readers with one concurrent writer.

    MVCC snapshot reads take no lock, so the interesting numbers are the
    idle-vs-contended read throughput ratio (the writer should cost GIL
    share, not lock waits) and that both engines return byte-identical
    rows at every level. Artifact:
    ``benchmarks/results/service_mixed_contention.{txt,json}``.
    """
    db = GraphDatabase()
    generate_correlated(db, correlated_config())
    rows = []
    data = {"batch_size": BATCH_SIZE, "readers": {}}
    expected_rows = None
    for workers in WORKER_COUNTS:
        with QueryService(
            db,
            ServiceConfig(
                max_concurrency=workers + 1, max_pending=BATCH_SIZE * 2
            ),
        ) as service:
            _run_batch(service)  # warm plan/page caches
            idle_started = time.perf_counter()
            idle_rows = _run_batch(service)
            idle_seconds = time.perf_counter() - idle_started
            if expected_rows is None:
                expected_rows = idle_rows
            assert idle_rows == expected_rows, "row counts drifted across cells"

            stop = threading.Event()
            commits = [0]

            def write_loop() -> None:
                marker = 0
                while not stop.is_set():
                    service.execute("CREATE (:Bench {m: %d})" % marker)
                    marker += 1
                    commits[0] += 1

            writer = threading.Thread(target=write_loop)
            writer.start()
            try:
                contended_started = time.perf_counter()
                contended_rows = _run_batch(service)
                contended_seconds = time.perf_counter() - contended_started
            finally:
                stop.set()
                writer.join()
            # Writer touches only :Bench nodes, so the read workload's
            # row set must be untouched by the concurrent commits.
            assert contended_rows == expected_rows, "writer leaked into reads"
            snapshot = service.metrics_snapshot()
        idle_qps = BATCH_SIZE / idle_seconds if idle_seconds > 0 else float("inf")
        contended_qps = (
            BATCH_SIZE / contended_seconds if contended_seconds > 0 else float("inf")
        )
        ratio = contended_qps / idle_qps if idle_qps > 0 else 0.0
        rows.append(
            (
                f"{workers} readers + 1 writer",
                f"{idle_qps:,.1f} q/s",
                f"{contended_qps:,.1f} q/s",
                f"{ratio:,.2f}x",
                f"{commits[0]:,}",
            )
        )
        data["readers"][str(workers)] = {
            "idle_qps": idle_qps,
            "contended_qps": contended_qps,
            "contended_over_idle": ratio,
            "writer_commits": commits[0],
            "rows_per_batch": contended_rows,
            "mvcc": snapshot["mvcc"],
        }

    # Differential: the contended dataset reads byte-identically on both
    # engines (the writer's :Bench nodes are published MVCC commits; the
    # service has run every text, so compiled mode runs generated code).
    reference = None
    for mode in ("row", "compiled"):
        got = [
            sorted(map(repr, db.execute(q, execution_mode=mode).to_list()))
            for q in WORKLOAD
        ]
        if reference is None:
            reference = got
        assert got == reference, f"row drift between engines in {mode} mode"
    data["engines_identical"] = True

    table = render_table(
        f"Mixed contention — {BATCH_SIZE}-query read batch vs 1 writer, "
        "correlated dataset",
        (
            "Concurrency",
            "Reads idle",
            "Reads contended",
            "Contended/idle",
            "Writer commits",
        ),
        rows,
        note=(
            "Snapshot reads never block on the writer; contended/idle below "
            "1.0 reflects GIL share handed to the write loop, not lock "
            "waits. Row counts and cross-engine bytes are asserted equal."
        ),
    )
    write_report("service_mixed_contention", table, data)
    return data


def _drain_batch_over_network(
    address: tuple, connections: int, batch: int
) -> tuple[float, int, list]:
    """``batch`` queries drained by ``connections`` concurrent clients.

    Returns (wall seconds, total rows, client-observed per-query latencies).
    """
    host, port = address
    work: SimpleQueue = SimpleQueue()
    for index in range(batch):
        work.put(WORKLOAD[index % len(WORKLOAD)])
    rows = [0] * connections
    latencies: list[list[float]] = [[] for _ in range(connections)]
    errors: list = []

    def drain(slot: int) -> None:
        try:
            with Client(host, port, io_timeout_s=600.0) as client:
                while True:
                    try:
                        query = work.get_nowait()
                    except Empty:
                        return
                    started = time.perf_counter()
                    outcome = client.execute(query)
                    latencies[slot].append(time.perf_counter() - started)
                    rows[slot] += outcome.row_count
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=drain, args=(slot,)) for slot in range(connections)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    flat = sorted(value for bucket in latencies for value in bucket)
    return wall, sum(rows), flat


def _percentile(sorted_values: list, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _run_network_table(smoke: bool = False) -> dict:
    connection_counts = (1, 8) if smoke else CONNECTION_COUNTS
    batch = 16 if smoke else NETWORK_BATCH
    db = GraphDatabase()
    config = CorrelatedConfig(paths=80, noise_factor=4) if smoke else None
    generate_correlated(db, config or correlated_config())
    rows = []
    data = {"batch_size": batch, "connections": {}}
    expected_rows = None
    with QueryService(
        db, ServiceConfig(max_concurrency=4, max_pending=max(connection_counts) * 2)
    ) as service:
        server = BackgroundServer(
            service,
            ServerConfig(port=0, wait_threads=max(connection_counts) + 8),
        )
        server.start()
        try:
            # Warm plan/page caches once so cells measure steady state.
            _drain_batch_over_network(server.address, 2, len(WORKLOAD))
            for connections in connection_counts:
                before = dict(service.metrics_snapshot()["counters"])
                wall, batch_rows, latencies = _drain_batch_over_network(
                    server.address, connections, batch
                )
                after = service.metrics_snapshot()["counters"]
                if expected_rows is None:
                    expected_rows = batch_rows
                assert batch_rows == expected_rows, "row drift across cells"
                qps = batch / wall if wall > 0 else float("inf")
                p50 = _percentile(latencies, 0.50)
                p95 = _percentile(latencies, 0.95)
                streamed = after.get("server.records_streamed", 0) - before.get(
                    "server.records_streamed", 0
                )
                assert streamed == batch_rows, "streamed rows drifted"
                rows.append(
                    (
                        f"{connections} conns",
                        f"{wall * 1e3:,.1f} ms",
                        f"{qps:,.1f} q/s",
                        f"{p50 * 1e3:,.1f} ms",
                        f"{p95 * 1e3:,.1f} ms",
                        f"{batch_rows:,}",
                    )
                )
                data["connections"][str(connections)] = {
                    "batch_seconds": wall,
                    "qps": qps,
                    "latency_p50_s": p50,
                    "latency_p95_s": p95,
                    "rows_per_batch": batch_rows,
                    "records_streamed": streamed,
                }
        finally:
            server.stop()
        data["server_counters"] = service.metrics_snapshot()["counters"]
    table = render_table(
        f"Server throughput — {batch}-query mixed batch over TCP, "
        "correlated dataset",
        ("Connections", "Batch wall", "Throughput", "p50", "p95", "Rows/batch"),
        rows,
        note=(
            "Blocking clients over loopback TCP; the binary codec and the "
            "GIL bound throughput, so the expected shape is flat q/s with "
            "latency growing alongside connection count — bounded queues, "
            "identical row counts at every level."
        ),
    )
    write_report("server_throughput", table, data)
    return data


REPLICA_WORKLOAD = (
    # Same shapes as WORKLOAD, but returning scalars so the rows are
    # directly byte-comparable across servers at the wire codec level.
    "MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B) "
    "RETURN a.i AS i, d.j AS j",
    "MATCH (a:A)-[y:Y]->(b:B) RETURN a.i AS i, b.j AS j",
    "MATCH (a:A)-[x:X]->(b:A) RETURN a.i AS i, b.i AS j",
    "MATCH (a:A)-[y:Y]->(b:B)-[x:X]->(c:A) RETURN a.i AS i, c.i AS j",
)
REPLICA_GATE = 2.5
"""Required aggregate read speed-up at ``--replicas 4`` — enforced only
when the host actually has the cores to run the processes in parallel."""


def _rows_bytes(rows: list) -> bytes:
    """Canonical byte encoding of a result set for byte-identity checks."""
    return wire.encode_frame(
        wire.MSG_RECORD,
        {"rows": sorted(sorted(row.items()) for row in rows)},
    )


def _drain_across_targets(
    targets: list, connections: int, batch: int
) -> tuple[float, int]:
    """``batch`` read queries drained by ``connections`` clients spread
    round-robin across ``targets`` (a list of (host, port) addresses).

    Returns (wall seconds, total rows). With one target this is the
    single-server baseline; with N it is the aggregate replicated read
    path the router would fan out to.
    """
    work: SimpleQueue = SimpleQueue()
    for index in range(batch):
        work.put(REPLICA_WORKLOAD[index % len(REPLICA_WORKLOAD)])
    rows = [0] * connections
    errors: list = []

    def drain(slot: int) -> None:
        host, port = targets[slot % len(targets)]
        try:
            with Client(host, port, io_timeout_s=600.0) as client:
                while True:
                    try:
                        query = work.get_nowait()
                    except Empty:
                        return
                    rows[slot] += client.execute(query).row_count
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=drain, args=(slot,))
        for slot in range(connections)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return wall, sum(rows)


def _run_replica_table(replicas: int, smoke: bool = False) -> dict:
    """Aggregate read throughput: 1 leader alone vs ``replicas`` replicas.

    Boots real subprocesses (each replica is its own interpreter, so
    scaling is bounded by physical cores, not the GIL), seeds the leader
    over the wire with logged writes, waits for every replica to drain to
    lag 0, asserts the workload's rows are byte-identical on every server,
    then measures the same query batch against the leader alone and spread
    across the replicas. Artifact:
    ``benchmarks/results/replica_read_scaling.{txt,json}``.
    """
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))
    import tempfile

    from _smoke_common import SmokeProcess, connect_with_backoff

    paths = 24 if smoke else 96
    batch = 32 if smoke else 32 * max(2, replicas)
    connections = 2 * replicas
    cores = os.cpu_count() or 1
    with tempfile.TemporaryDirectory() as tmp:
        leader = SmokeProcess(
            ["-m", "repro.server", "--data", os.path.join(tmp, "leader"),
             "--port", "0"]
        )
        nodes = [leader]
        try:
            with connect_with_backoff(
                leader.host, leader.port, process=leader
            ) as seed:
                for k in range(paths):
                    seed.execute(
                        f"CREATE (:A {{i: {4 * k}}})-[:X]->"
                        f"(:A {{i: {4 * k + 1}}})-[:X]->"
                        f"(:A {{i: {4 * k + 2}}})-[:Y]->"
                        f"(:B {{j: {k}}})-[:X]->(:A {{i: {4 * k + 3}}})"
                    )
                leader_applied = seed.status()["applied_lsn"]
                reference = {
                    query: _rows_bytes(seed.execute(query).rows)
                    for query in REPLICA_WORKLOAD
                }

            leader_name = f"{leader.host}:{leader.port}"
            for index in range(replicas):
                nodes.append(
                    SmokeProcess(
                        ["-m", "repro.server", "--data",
                         os.path.join(tmp, f"replica{index}"), "--port", "0",
                         "--replica-of", leader_name]
                    )
                )
            deadline = time.monotonic() + 60
            for replica in nodes[1:]:
                with connect_with_backoff(
                    replica.host, replica.port, process=replica
                ) as client:
                    while True:
                        status = client.status()
                        if (
                            status.get("replica_connected")
                            and status.get("replica_lag_lsn") == 0
                            and status["applied_lsn"] >= leader_applied
                        ):
                            break
                        if time.monotonic() >= deadline:
                            raise AssertionError(
                                f"replica never caught up: {status}"
                            )
                        time.sleep(0.05)
                    for query, expected in reference.items():
                        got = _rows_bytes(client.execute(query).rows)
                        assert got == expected, (
                            f"replica rows not byte-identical for {query!r}"
                        )

            leader_address = (leader.host, leader.port)
            replica_addresses = [(node.host, node.port) for node in nodes[1:]]
            # Warm every server's plan cache before timing.
            _drain_across_targets([leader_address], 2, len(REPLICA_WORKLOAD))
            _drain_across_targets(
                replica_addresses, connections, len(REPLICA_WORKLOAD) * replicas
            )
            single_wall, single_rows = _drain_across_targets(
                [leader_address], connections, batch
            )
            spread_wall, spread_rows = _drain_across_targets(
                replica_addresses, connections, batch
            )
            assert single_rows == spread_rows, "row drift between topologies"
        finally:
            drains = [node.drain() for node in nodes]
        for node, (returncode, output) in zip(nodes, drains):
            assert returncode == 0, (
                f"{' '.join(node.args)} exited {returncode}:\n{output}"
            )

    single_qps = batch / single_wall if single_wall > 0 else float("inf")
    spread_qps = batch / spread_wall if spread_wall > 0 else float("inf")
    speedup = spread_qps / single_qps if single_qps > 0 else float("inf")
    enforced = cores >= replicas and replicas >= 2
    data = {
        "replicas": replicas,
        "connections": connections,
        "batch": batch,
        "cores": cores,
        "single_qps": single_qps,
        "aggregate_qps": spread_qps,
        "speedup": speedup,
        "rows_identical": True,
        "gate": {
            "required_speedup": REPLICA_GATE,
            "enforced": enforced,
            "passed": (not enforced) or speedup >= REPLICA_GATE,
        },
    }
    table = render_table(
        f"Replica read scaling — {batch}-query batch, {connections} "
        f"connections, {cores} core(s)",
        ("Topology", "Batch wall", "Aggregate throughput", "Speed-up"),
        (
            ("1 leader", f"{single_wall * 1e3:,.1f} ms",
             f"{single_qps:,.1f} q/s", "1.00x"),
            (f"{replicas} replicas", f"{spread_wall * 1e3:,.1f} ms",
             f"{spread_qps:,.1f} q/s", f"{speedup:,.2f}x"),
        ),
        note=(
            f"Each replica is its own process, so the speed-up ceiling is "
            f"min(replicas, cores) = {min(replicas, cores)}; the "
            f"{REPLICA_GATE:.1f}x gate is "
            + ("enforced." if enforced else
               "reported but not enforced on this host (too few cores for "
               "the processes to run in parallel).")
            + " Rows are byte-identical on every server before timing."
        ),
    )
    write_report("replica_read_scaling", table, data)
    if enforced and speedup < REPLICA_GATE:
        raise SystemExit(
            f"replica read scaling gate failed: {speedup:.2f}x < "
            f"{REPLICA_GATE:.1f}x aggregate at {replicas} replicas"
        )
    return data


def test_mixed_contention_report(benchmark):
    data = benchmark.pedantic(_run_mixed_table, rounds=1, iterations=1)
    cells = data["readers"]
    assert set(cells) == {str(count) for count in WORKER_COUNTS}
    assert data["engines_identical"]
    for cell in cells.values():
        assert cell["contended_qps"] > 0
        assert cell["writer_commits"] > 0
        assert cell["mvcc"]["live_snapshots"] == 0


def test_service_throughput_report(benchmark):
    data = benchmark.pedantic(_run_table, rounds=1, iterations=1)
    cells = data["workers"]
    assert set(cells) == {str(count) for count in WORKER_COUNTS}
    row_counts = {cell["rows_per_batch"] for cell in cells.values()}
    # Every concurrency level produced the identical result set size.
    assert len(row_counts) == 1
    for cell in cells.values():
        assert cell["qps"] > 0
        counters = cell["counters"]
        assert counters["service.queries_completed"] >= BATCH_SIZE
        assert "service.failures" not in counters


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--network",
        action="store_true",
        help="measure over TCP (repro.server + repro.client) at "
        f"{'/'.join(str(count) for count in CONNECTION_COUNTS)} connections",
    )
    parser.add_argument(
        "--mixed",
        action="store_true",
        help="measure read throughput with one concurrent writer at "
        f"{'/'.join(str(count) for count in WORKER_COUNTS)} readers",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="N",
        help="measure aggregate read throughput across N subprocess "
        "replicas vs the leader alone (byte-identical rows asserted; "
        f"{REPLICA_GATE:.1f}x gate enforced when cores allow)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny dataset and batch; asserts row counts match across cells",
    )
    arguments = parser.parse_args()
    if arguments.replicas:
        _run_replica_table(arguments.replicas, smoke=arguments.smoke)
    elif arguments.network:
        _run_network_table(smoke=arguments.smoke)
    elif arguments.mixed:
        _run_mixed_table()
    else:
        _run_table()
