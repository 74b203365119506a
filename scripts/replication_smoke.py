"""CI gate for the replication topology: leader + replicas + router.

Boots four real subprocesses — 1 leader, 2 ``--replica-of`` replicas, and
1 ``repro.router`` front end — then runs 8 mixed read/write clients
against the *router*. Asserts:

* every client's reads are never stale w.r.t. its own writes
  (read-your-writes through the router);
* the final row set read through the router matches a single-node
  in-process run of the same deterministic write sequence;
* both replicas reach the leader's durable LSN and report
  ``replica_lag_lsn == 0`` once the traffic stops;
* SIGTERM drains all four processes cleanly (exit 0, drain markers).

Run from the repo root::

    PYTHONPATH=src python scripts/replication_smoke.py
"""

import os
import sys
import tempfile
import threading
import time

from _smoke_common import SmokeProcess, connect_with_backoff

from repro import GraphDatabase  # noqa: E402

CLIENTS = 8
WRITES_PER_WRITER = 20


def start_topology(tmp: str):
    leader = SmokeProcess(
        ["-m", "repro.server", "--data", os.path.join(tmp, "leader"), "--port", "0"]
    )
    leader_name = f"{leader.host}:{leader.port}"
    replicas = [
        SmokeProcess(
            [
                "-m",
                "repro.server",
                "--data",
                os.path.join(tmp, f"replica{i}"),
                "--port",
                "0",
                "--replica-of",
                leader_name,
            ]
        )
        for i in range(2)
    ]
    router_args = ["-m", "repro.router", "--port", "0", "--leader", leader_name]
    for replica in replicas:
        router_args += ["--replica", f"{replica.host}:{replica.port}"]
    router_args += ["--health-interval-s", "0.05"]
    router = SmokeProcess(router_args)
    return leader, replicas, router


def worker(index: int, host: str, port: int, failures: list) -> None:
    try:
        with connect_with_backoff(host, port) as client:
            if index % 2 == 0:  # writer with read-your-writes checks
                for i in range(WRITES_PER_WRITER):
                    outcome = client.execute(
                        f"CREATE (:S {{owner: {index}, i: {i}}})"
                    )
                    assert outcome.commit_lsn is not None, "write without LSN"
                    if i % 5 == 4:
                        mine = client.execute(
                            f"MATCH (n:S) WHERE n.owner = {index} "
                            "RETURN n.i AS i"
                        )
                        got = sorted(row["i"] for row in mine.rows)
                        assert got == list(range(i + 1)), (
                            f"stale read-your-writes: {got} after write {i}"
                        )
            else:  # reader
                for _ in range(WRITES_PER_WRITER):
                    client.execute("MATCH (n:S) RETURN n.i AS i")
    except Exception as exc:  # noqa: BLE001 - surfaced in main
        failures.append((index, exc))


def single_node_rows():
    """The same deterministic write set, applied to a throwaway in-process
    database — the oracle the replicated topology must match."""
    db = GraphDatabase()
    try:
        for index in range(0, CLIENTS, 2):
            for i in range(WRITES_PER_WRITER):
                db.execute(f"CREATE (:S {{owner: {index}, i: {i}}})").consume()
        result = db.execute("MATCH (n:S) RETURN n.owner AS owner, n.i AS i")
        return sorted(
            ({"owner": row.get("owner"), "i": row.get("i")} for row in result),
            key=lambda row: (row["owner"], row["i"]),
        )
    finally:
        db.close()


def wait_for_zero_lag(replicas, leader, timeout_s=30.0) -> None:
    """Wait until every replica has applied the leader's durable LSN and
    reports lag 0. A replica measures its lag against the last durable LSN
    the leader shipped it, so right after the traffic stops it can report 0
    while the leader's last records are still unshipped; the leader's own
    STATUS names the LSN to reach."""
    deadline = time.monotonic() + timeout_s
    with connect_with_backoff(leader.host, leader.port, process=leader) as client:
        target = client.status()["durable_lsn"]
    for replica in replicas:
        with connect_with_backoff(replica.host, replica.port, process=replica) as client:
            while True:
                status = client.status()
                if (
                    status.get("replica_connected")
                    and status.get("replica_lag_lsn") == 0
                    and status.get("replica_applied_lsn", 0) >= target
                ):
                    break
                if time.monotonic() >= deadline:
                    raise AssertionError(
                        f"replica {replica.host}:{replica.port} stuck at "
                        f"lag {status.get('replica_lag_lsn')}, leader durable "
                        f"LSN {target} "
                        f"(status {status})"
                    )
                time.sleep(0.05)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        leader, replicas, router = start_topology(tmp)
        everything = [router, *replicas, leader]
        try:
            failures: list = []
            threads = [
                threading.Thread(
                    target=worker, args=(i, router.host, router.port, failures)
                )
                for i in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            if failures:
                for index, exc in failures:
                    print(f"client {index} failed: {exc!r}", file=sys.stderr)
                return 1

            wait_for_zero_lag(replicas, leader)

            with connect_with_backoff(router.host, router.port) as client:
                routed = sorted(
                    client.execute(
                        "MATCH (n:S) RETURN n.owner AS owner, n.i AS i"
                    ).rows,
                    key=lambda row: (row["owner"], row["i"]),
                )
                status = client.status()
            expected = single_node_rows()
            if routed != expected:
                print(
                    f"routed rows differ from single-node run: "
                    f"{len(routed)} vs {len(expected)}",
                    file=sys.stderr,
                )
                return 1

            # Each replica must also agree, read directly.
            for replica in replicas:
                with connect_with_backoff(
                    replica.host, replica.port, process=replica
                ) as client:
                    direct = sorted(
                        client.execute(
                            "MATCH (n:S) RETURN n.owner AS owner, n.i AS i"
                        ).rows,
                        key=lambda row: (row["owner"], row["i"]),
                    )
                if direct != expected:
                    print(
                        f"replica {replica.host}:{replica.port} diverged",
                        file=sys.stderr,
                    )
                    return 1
        finally:
            results = [proc.drain() for proc in everything]

        ok = True
        for proc, (returncode, output) in zip(everything, results):
            marker = (
                "router drained cleanly"
                if "repro.router" in proc.args
                else "server drained cleanly"
            )
            if returncode != 0 or marker not in output:
                print(
                    f"{' '.join(proc.args)} did not drain cleanly "
                    f"(exit {returncode}):\n{output}",
                    file=sys.stderr,
                )
                ok = False
        if not ok:
            return 1

    print(
        f"replication smoke OK: 1 leader + 2 replicas + 1 router, "
        f"{CLIENTS} mixed clients, {len(expected)} rows byte-identical to "
        f"single-node, lag drained to 0, all four drained cleanly "
        f"(reroutes={status.get('reroutes')})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
