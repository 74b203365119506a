"""The served workload: one server subprocess, two client connections.

Untraced runs launch the deployable entry point, ``python -m repro.server``.
Traced runs launch this file instead (``python perfbench/served.py``): the
same public constructors in the same order, plus a dump of
``QueryService.metrics_snapshot()`` when the server drains, which is the only
way to read the served process's own counters.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Optional

if __name__ == "__main__":  # launched as a script: make the packages importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import perfbench
from perfbench.embedded import CREATE_PATH, FULL_MATCH, AdhocPlan
from perfbench.generator import PATTERNS, generate, load
from perfbench.harness import Window, Workload
from perfbench.spans import Tracer

from repro import GraphDatabase, QueryService, ServiceConfig, wire
from repro.client import Client
from repro.server.server import Server, ServerConfig

WORKERS = 2
STREAM_CREDIT = 256
BANNER_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 30.0

MIX = ("short",) * 14 + ("adhoc",) * 2 + ("stream",) * 2 + ("write",) * 2
"""One connection's 20 ops: 70 % short index reads, 10 % ad-hoc texts, 10 %
streamed scans, 10 % writes. Each connection reshuffles them for every cycle
from its own seeded generator: the shares are exact over any 20 ops, and the
two connections cannot lock into one relative phase for a whole run."""


class ServerProcess:
    """A server subprocess on an ephemeral port, its captured output, and a
    SIGTERM drain that always reaps it."""

    def __init__(self, args: list[str]) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = perfbench.SRC
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.lines: list[str] = []
        self._pump = threading.Thread(target=self._read_all, daemon=True)
        self._pump.start()
        try:
            self.host, self.port = self._await_banner()
        except BaseException:
            self.drain()
            raise

    def _read_all(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)

    def output(self) -> str:
        return "".join(self.lines)

    def _await_banner(self) -> tuple[str, int]:
        deadline = time.monotonic() + BANNER_TIMEOUT_S
        seen = 0
        while time.monotonic() < deadline:
            while seen < len(self.lines):
                line = self.lines[seen].strip()
                seen += 1
                if line.startswith("listening on "):
                    host, _, port = line.removeprefix("listening on ").rpartition(":")
                    return host, int(port)
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start listening; output:\n{self.output()}")

    def connect(self) -> Client:
        """First contact can race the listener: retry with backoff."""
        delay, deadline = 0.01, time.monotonic() + 15.0
        while True:
            try:
                return Client(self.host, self.port)
            except OSError:
                if time.monotonic() >= deadline or self.process.poll() is not None:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 0.5)

    def drain(self) -> tuple[int, str]:
        """SIGTERM, wait for exit (kill on timeout); (exit code, output)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._pump.join(timeout=10)
        self.process.stdout.close()
        return self.process.returncode, self.output()


class ServerMixed(Workload):
    """Server + wire + client + service: admission, the worker pool and
    snapshot reads beside the writer. Primary class: the short index reads, so
    a heavy scan or a write starving them shows in their p95."""

    name = "server_mixed"
    primary = frozenset({"short"})
    drivers = 2
    indexes = ("Full", "Sub1", "Sub4", "Sub7")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.server: Optional[ServerProcess] = None
        self.clients: list[Client] = []

    def setup(self) -> None:
        spec = self.spec = generate(self.seed, self.scale.paths, self.scale.noise)
        directory = os.path.join(self.workdir, f"db-{self.setups}")
        db = GraphDatabase.open(directory)
        self.engine = db.execution_mode
        self.graph = load(db, spec)
        self.init_seconds = {
            name: db.create_path_index(name, PATTERNS[name]).seconds
            for name in self.indexes
        }
        db.checkpoint()
        db.close()
        if self.trace:
            self.dump_path = os.path.join(self.workdir, f"metrics-{self.setups}.json")
            args = [os.path.abspath(__file__), "--data", directory, "--dump", self.dump_path]
        else:
            args = ["-m", "repro.server", "--data", directory, "--port", "0",
                    "--workers", str(WORKERS)]
        self.server = ServerProcess(args)
        for _ in range(self.drivers):
            self.clients.append(self.server.connect())

        rng = random.Random(self.seed)
        path = rng.randrange(spec.paths)
        a = self.graph.hidden_path(path)[0]
        a_out_y = spec.out_degree(spec.hidden[path][0], "Y")
        # (text, rows before any write, rows added per created hidden path)
        self.short = [
            (f"{FULL_MATCH} RETURN *", spec.paths, 1),
            ("MATCH (b:A)-[x:X]->(c:A)-[y:Y]->(d:B) RETURN id(b) AS b, id(d) AS d",
             spec.paths, 1),
            ("MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B) "
             f"WHERE id(a) = {a} RETURN id(d) AS d", 1, 0),
            (f"MATCH (a:A)-[y:Y]->(d:B) WHERE id(a) = {a} RETURN id(d) AS d", a_out_y, 0),
            (f"{FULL_MATCH} WHERE a <> e RETURN id(a) AS a, id(e) AS e", spec.paths, 1),
        ]
        self.stream = ("MATCH (a:A)-[y:Y]->(d:B) RETURN id(a) AS a, id(d) AS d",
                       spec.expected()["Sub7"], 1)
        self.order = list(range(spec.paths))
        rng.shuffle(self.order)
        self.mix_rngs = [random.Random(self.seed * 31 + d) for d in range(self.drivers)]
        self.mixes = [list(MIX) for _ in range(self.drivers)]
        self.lock = threading.Lock()
        self.paths_sent = 0
        self.paths_acked = 0
        self.counts = [dict.fromkeys(("short", "write"), 0) for _ in range(self.drivers)]
        self.first_row_s: list[float] = []
        self.full_read_s: list[float] = []

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.drain()
            self.server = None

    def describe(self) -> dict[str, object]:
        return {
            "engine": self.engine,
            "server": f"1 subprocess, {WORKERS} workers, {self.drivers} connections",
            "graph": {"paths": self.spec.paths, "noise": self.spec.noise},
            "indexes": list(self.indexes),
            "flush_policy": "fsync per write (service group commit)",
        }

    # -- ops ---------------------------------------------------------------

    def op(self, driver: int, n: int, tracer: Optional[Tracer]) -> tuple[str, bool]:
        slot = n % len(MIX)
        if slot == 0:
            self.mix_rngs[driver].shuffle(self.mixes[driver])
        cls = self.mixes[driver][slot]
        if tracer is None:
            return cls, getattr(self, f"op_{cls}")(driver, n, None)
        with tracer.span("op"):
            return cls, getattr(self, f"op_{cls}")(driver, n, tracer)

    def bounded(self, acked_before: int, rows: int, base: int, per_path: int) -> bool:
        """A read racing the other connection's CREATE may or may not see it:
        the row count must lie between what was acknowledged before the read
        was sent and what had been sent by the time it returned."""
        with self.lock:
            sent_after = self.paths_sent
        return base + per_path * acked_before <= rows <= base + per_path * sent_after

    def service_spans(self, tracer: Optional[Tracer], summary) -> None:
        """The server's own per-query timings, as children of the op."""
        if tracer is None or summary is None:
            return
        if not isinstance(summary, dict):
            summary = vars(summary)
        get = summary.get
        tracer.child("service.queue", get("queue_seconds", 0.0))
        tracer.child("service.planning", get("planning_seconds", 0.0))
        tracer.child("service.execution", get("execution_seconds", 0.0))
        with self.lock:  # two driver threads share the accumulators
            self.add("retries", get("attempts", 1) - 1)

    def op_short(self, driver: int, n: int, tracer: Optional[Tracer]) -> bool:
        count = self.counts[driver]
        which = count["short"] % len(self.short)
        count["short"] += 1
        text, base, per_path = self.short[which]
        with self.lock:
            acked = self.paths_acked
        began = time.perf_counter()
        outcome = self.clients[driver].execute(text)
        if tracer is not None and which == 0:
            self.full_read_s.append(time.perf_counter() - began)
        self.service_spans(tracer, outcome)
        return self.bounded(acked, outcome.row_count, base, per_path)

    def op_adhoc(self, driver: int, n: int, tracer: Optional[Tracer]) -> bool:
        text = AdhocPlan.text(self.graph, self.order, n * self.drivers + driver)
        outcome = self.clients[driver].execute(text)
        self.service_spans(tracer, outcome)
        return outcome.row_count == 1

    def op_stream(self, driver: int, n: int, tracer: Optional[Tracer]) -> bool:
        text, base, per_path = self.stream
        with self.lock:
            acked = self.paths_acked
        began = time.perf_counter()
        rows = 0
        with self.clients[driver].stream(text, credit=STREAM_CREDIT) as stream:
            for _ in stream:
                if rows == 0 and tracer is not None:
                    self.first_row_s.append(time.perf_counter() - began)
                rows += 1
            self.service_spans(tracer, stream.summary)
        return self.bounded(acked, rows, base, per_path)

    def op_write(self, driver: int, n: int, tracer: Optional[Tracer]) -> bool:
        count = self.counts[driver]
        whole_path = count["write"] % 2 == 1
        count["write"] += 1
        if whole_path:
            with self.lock:
                self.paths_sent += 1
            outcome = self.clients[driver].execute(CREATE_PATH)
            with self.lock:
                self.paths_acked += 1
        else:
            outcome = self.clients[driver].execute(f"CREATE (:W {{driver: {driver}, n: {n}}})")
        self.service_spans(tracer, outcome)
        return outcome.commit_lsn is not None

    # -- per-layer metrics and gates --------------------------------------

    def layer_metrics(self, window: Window, delta: dict[str, float]) -> dict[str, float]:
        out = {
            "pathindex.init_s": sum(self.init_seconds.values()),
            "service.retries": self.acc.get("retries", 0.0),
        }
        if self.first_row_s:
            out["client.first_row_ms"] = statistics.median(self.first_row_s) * 1e3
        # Codec cost on a captured result: the rows of one short read, framed
        # as the server frames them.
        captured = self.clients[0].execute(self.short[0][0])
        rows = [[row[column] for column in captured.columns] for row in captured.rows]
        chunks = [rows[i:i + 64] for i in range(0, len(rows), 64)]
        repeats = 20
        began = time.perf_counter()
        for _ in range(repeats):
            frames = [wire.encode_frame(wire.MSG_RECORD, {"rows": chunk}) for chunk in chunks]
        encode_s = time.perf_counter() - began
        began = time.perf_counter()
        for _ in range(repeats):
            reader = wire.FrameReader()
            reader.feed(b"".join(frames))
            while reader.pop() is not None:
                pass
        decode_s = time.perf_counter() - began
        out["wire.encode_us_per_frame"] = encode_s / (repeats * len(chunks)) * 1e6
        out["wire.decode_us_per_row"] = decode_s / (repeats * len(rows)) * 1e6
        # The identical Full read, embedded, on a fresh in-memory copy.
        local = GraphDatabase()
        load(local, self.spec)
        local.create_path_index("Full", PATTERNS["Full"])
        embedded_s = []
        for _ in range(30):
            began = time.perf_counter()
            local.execute(self.short[0][0]).to_list()
            embedded_s.append(time.perf_counter() - began)
        if self.full_read_s:
            out["server.overhead_ms"] = (
                statistics.median(self.full_read_s) - statistics.median(embedded_s)
            ) * 1e3
        return out

    def gates(self, window: Window, metrics: dict[str, float]) -> list[str]:
        for client in self.clients:
            client.close()
        code, output = self.server.drain()
        problems = []
        if code != 0:
            problems.append(f"server exited {code}:\n{output[-2000:]}")
        if "server drained cleanly" not in output:
            problems.append("server did not report a clean drain")
        if self.trace and not problems:
            with open(self.dump_path) as handle:
                snapshot = json.load(handle)
            counters = snapshot["counters"]
            cache, pages, mvcc = snapshot["plan_cache"], snapshot["page_cache"], snapshot["mvcc"]
            metrics.update({
                "service.rejections": float(
                    counters.get("service.admission_rejections", 0)
                    + counters.get("service.memory_rejections", 0)
                ),
                "db.plan_cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
                "db.plan_cache_evictions": float(cache["evictions"]),
                "storage.page_hit_ratio": pages["hit_ratio"],
                "storage.live_versions": float(
                    mvcc["record_versions"] + mvcc["chain_versions"]
                    + mvcc["index_deltas"] + mvcc["stats_versions"]
                ),
                "storage.versions_reclaimed": float(
                    counters.get("storage.versions_reclaimed", 0)
                ),
                "resources.peak_tracked_bytes": float(snapshot["memory"].get("peak_bytes", 0)),
            })
        return problems


def main() -> int:
    """The traced server: ``repro.server``'s start-up with a metrics dump."""
    parser = argparse.ArgumentParser(prog="perfbench/served.py")
    parser.add_argument("--data", required=True)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args()
    db = GraphDatabase.open(args.data)
    service = QueryService(db, ServiceConfig(max_concurrency=WORKERS, max_pending=64))
    server = Server(service, ServerConfig(host="127.0.0.1", port=0))

    async def serve() -> None:
        host, port = await server.start()
        print(f"listening on {host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        await server.drain()

    try:
        asyncio.run(serve())
    finally:
        with open(args.dump, "w") as handle:
            json.dump(service.metrics_snapshot(), handle, default=str)
        service.shutdown(cancel_pending=True)
        service.db.close()
    print("server drained cleanly", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
