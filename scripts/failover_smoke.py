"""CI gate for controlled failover: kill the leader, promote, re-point.

Boots four real subprocesses — 1 leader (on a pre-allocated port so it can
be revived at the same address), 2 ``--replica-of`` replicas, and 1
``repro.router`` — then:

1. runs writer threads against the *router* and SIGKILLs the leader in the
   middle of the write load;
2. plays operator: PROMOTE replica 0, REPOINT replica 1 at it, and waits
   for the router's health loop to re-point writes (highest epoch wins);
3. reconciles: every planned row is confirmed-or-recreated through the
   router (asynchronous shipping may have lost acknowledged writes above
   the divergence point; ambiguous mid-kill writes may have landed — the
   check-then-create pass resolves both without duplicates);
4. revives the dead leader *as a leader* on its original port and asserts
   the router's epoch gossip fences it (it never acknowledges a write);
5. restarts it as a replica of the promoted node and asserts it re-seeds —
   divergent tail discarded — and converges;
6. asserts the final row set read through the router, from the surviving
   replica, and from the rejoined old leader is byte-identical to a
   single-node in-process run of the same planned writes, and that the
   three surviving processes drain cleanly on SIGTERM.

Run from the repo root::

    PYTHONPATH=src python scripts/failover_smoke.py
"""

import os
import socket
import sys
import tempfile
import threading
import time

from _smoke_common import SmokeProcess, connect_with_backoff

from repro import GraphDatabase  # noqa: E402
from repro.errors import ReproError, StaleEpochError  # noqa: E402

WRITERS = 4
WRITES_PER_WRITER = 15


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def start_topology(tmp: str, leader_port: int):
    leader = SmokeProcess(
        [
            "-m",
            "repro.server",
            "--data",
            os.path.join(tmp, "leader"),
            "--port",
            str(leader_port),
        ]
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
    router_args += ["--health-interval-s", "0.05", "--write-retry-backoff-s", "0.02"]
    router = SmokeProcess(router_args)
    return leader, replicas, router


def writer(index, router, kill_leader_at, killed, failures):
    """Write this owner's rows through the router. Writes that fail during
    the failover window are left to the reconciliation pass — losing an
    ACK here is exactly the ambiguity failover creates, and blind retries
    could double-apply."""
    try:
        with connect_with_backoff(router.host, router.port) as client:
            for i in range(WRITES_PER_WRITER):
                if index == 0 and i == kill_leader_at:
                    killed.set()
                if not killed.is_set():
                    try:
                        client.execute(
                            f"CREATE (:S {{owner: {index}, i: {i}}})", retries=2
                        )
                    except (ReproError, OSError):
                        # Writer 0 sets ``killed`` before the leader dies, so
                        # a write the kill interrupted finds it set by now.
                        if not killed.is_set():
                            raise
                    continue
                try:
                    client.execute(
                        f"CREATE (:S {{owner: {index}, i: {i}}})",
                        retries=3,
                        retry_backoff_s=0.1,
                    )
                except (ReproError, OSError):
                    pass  # reconciled after the promotion settles
    except Exception as exc:  # noqa: BLE001 - surfaced in main
        failures.append((index, exc))


def wait_for(description, predicate, timeout_s=30.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {description}")
        time.sleep(interval_s)


def wait_replica_converged(replica, leader_applied_of, timeout_s=60.0):
    """A replica is converged when it is connected on the current stream
    and has applied the (new) leader's current LSN. LSNs are only
    comparable on one timeline, so the leader watermark is re-read every
    poll."""
    with connect_with_backoff(
        replica.host, replica.port, process=replica
    ) as client:
        def caught_up():
            status = client.status()
            return (
                status.get("replica_connected")
                and status.get("epoch") == 2
                and status.get("replica_applied_lsn") == leader_applied_of()
            )

        wait_for(
            f"replica {replica.host}:{replica.port} to converge",
            caught_up,
            timeout_s=timeout_s,
        )


def reconcile(router, planned):
    """Confirm-or-recreate every planned row through the router: the
    check-then-create is race-free (single thread, quiesced writers, and
    the session's read-your-writes token covers its own creates)."""
    recreated = 0
    with connect_with_backoff(router.host, router.port) as client:
        for owner, i in planned:
            count = client.execute(
                f"MATCH (n:S) WHERE n.owner = {owner} AND n.i = {i} "
                "RETURN count(n) AS c",
                retries=8,
                retry_backoff_s=0.1,
            ).rows[0]["c"]
            if count == 0:
                client.execute(
                    f"CREATE (:S {{owner: {owner}, i: {i}}})",
                    retries=8,
                    retry_backoff_s=0.1,
                )
                recreated += 1
            elif count != 1:
                raise AssertionError(
                    f"duplicate application: ({owner}, {i}) appears {count}×"
                )
    return recreated


def read_rows(host, port, process=None):
    with connect_with_backoff(host, port, process=process) as client:
        return sorted(
            client.execute("MATCH (n:S) RETURN n.owner AS owner, n.i AS i").rows,
            key=lambda row: (row["owner"], row["i"]),
        )


def single_node_rows():
    db = GraphDatabase()
    try:
        for owner in range(WRITERS):
            for i in range(WRITES_PER_WRITER):
                db.execute(f"CREATE (:S {{owner: {owner}, i: {i}}})").consume()
        result = db.execute("MATCH (n:S) RETURN n.owner AS owner, n.i AS i")
        return sorted(
            ({"owner": row.get("owner"), "i": row.get("i")} for row in result),
            key=lambda row: (row["owner"], row["i"]),
        )
    finally:
        db.close()


def main() -> int:
    leader_port = free_port()
    with tempfile.TemporaryDirectory() as tmp:
        leader, replicas, router = start_topology(tmp, leader_port)
        new_leader, survivor = replicas
        new_leader_name = f"{new_leader.host}:{new_leader.port}"
        drained = []
        try:
            # Phase 1: write load through the router; SIGKILL the leader
            # once writer 0 reaches the kill index.
            failures: list = []
            killed = threading.Event()
            threads = [
                threading.Thread(
                    target=writer, args=(i, router, 5, killed, failures)
                )
                for i in range(WRITERS)
            ]
            for thread in threads:
                thread.start()
            killed.wait(timeout=60)
            leader.kill()  # SIGKILL: no drain, no goodbye
            print("leader SIGKILLed mid-write-load", flush=True)

            # Phase 2: operator promotes replica 0, re-points replica 1.
            with connect_with_backoff(
                new_leader.host, new_leader.port, process=new_leader
            ) as client:
                promoted = client.promote()
            assert promoted["epoch"] == 2, promoted
            print(f"promoted {new_leader_name}: {promoted}", flush=True)
            with connect_with_backoff(
                survivor.host, survivor.port, process=survivor
            ) as client:
                client.repoint(new_leader_name)
            with connect_with_backoff(router.host, router.port) as client:
                wait_for(
                    "router to re-point writes at the promoted node",
                    lambda: client.status().get("leader") == new_leader_name,
                )
                status = client.status()
            assert status.get("highest_epoch") == 2, status
            print(f"router re-pointed writes at {new_leader_name}", flush=True)

            for thread in threads:
                thread.join(timeout=300)
            if failures:
                for index, exc in failures:
                    print(f"writer {index} failed: {exc!r}", file=sys.stderr)
                return 1

            # Phase 3: reconcile — async shipping may have lost acked
            # writes above the divergence point; re-create them on the new
            # timeline. Quiesce the survivor first so bounded-stale reads
            # are exact.
            def new_leader_applied():
                with connect_with_backoff(
                    new_leader.host, new_leader.port, process=new_leader
                ) as client:
                    return client.status().get("applied_lsn")

            wait_replica_converged(survivor, new_leader_applied)
            planned = [
                (owner, i)
                for owner in range(WRITERS)
                for i in range(WRITES_PER_WRITER)
            ]
            recreated = reconcile(router, planned)
            print(
                f"reconciled: {recreated} of {len(planned)} rows re-created "
                "on the new timeline",
                flush=True,
            )

            # Phase 4: revive the old leader as a leader on its original
            # port — the router's epoch gossip must fence it.
            revived = SmokeProcess(
                [
                    "-m",
                    "repro.server",
                    "--data",
                    os.path.join(tmp, "leader"),
                    "--port",
                    str(leader_port),
                ]
            )
            try:
                with connect_with_backoff(
                    revived.host, revived.port, process=revived
                ) as client:
                    wait_for(
                        "router gossip to fence the revived old leader",
                        lambda: client.status().get("fenced"),
                    )
                    try:
                        client.execute("CREATE (:S {owner: -1, i: -1})")
                        print(
                            "fenced old leader acknowledged a write",
                            file=sys.stderr,
                        )
                        return 1
                    except StaleEpochError:
                        pass
                print("revived old leader fenced, write rejected", flush=True)
            finally:
                revived.drain()

            # Phase 5: rejoin the old leader as a replica of the promoted
            # node; its divergent tail is discarded by the snapshot
            # reseed and it converges to the new timeline.
            rejoined = SmokeProcess(
                [
                    "-m",
                    "repro.server",
                    "--data",
                    os.path.join(tmp, "leader"),
                    "--port",
                    str(leader_port),
                    "--replica-of",
                    new_leader_name,
                ]
            )
            try:
                wait_replica_converged(rejoined, new_leader_applied)
                print("old leader rejoined as replica and converged", flush=True)

                # Phase 6: byte-identical everywhere.
                expected = single_node_rows()
                routed = read_rows(router.host, router.port)
                if routed != expected:
                    print(
                        f"routed rows differ from single-node run: "
                        f"{len(routed)} vs {len(expected)}",
                        file=sys.stderr,
                    )
                    return 1
                for name, proc in (
                    ("survivor replica", survivor),
                    ("rejoined old leader", rejoined),
                ):
                    direct = read_rows(proc.host, proc.port, process=proc)
                    if direct != expected:
                        print(f"{name} diverged", file=sys.stderr)
                        return 1
            finally:
                rejoined.drain()
        finally:
            for proc in (router, survivor, new_leader):
                drained.append((proc, proc.drain()))
            leader.kill()

        ok = True
        for proc, (returncode, output) in drained:
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
        f"failover smoke OK: leader SIGKILLed mid-load, epoch 2 promoted, "
        f"router re-pointed, {recreated} lost writes reconciled, revived "
        f"old leader fenced then rejoined, {len(expected)} rows "
        "byte-identical to single-node on router + survivor + rejoined"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
