"""Interactive Cypher shell and one-shot CLI.

Usage::

    python -m repro                          # REPL on an empty database
    python -m repro --data mydb/             # REPL on a durable database
                                             # (WAL + checkpoints, crash-safe)
    python -m repro --snapshot data/         # REPL on a saved snapshot
    python -m repro --execute "MATCH ..."    # one query, print rows, exit

Inside the REPL, statements end with ``;``. Meta-commands:

    :help                       this text
    :quit                       exit (a snapshot is saved if --snapshot set)
    :explain <on|off>           print the plan before each query
    :mode <row|compiled>        switch the execution engine
    :source <query>             print the generated Python for a query
                                (compiled engine's codegen output)
    :indexes                    list path indexes with cardinality and size
    :create-index <name> <pattern>   build a path index, e.g.
                                     :create-index k2 (:P)-[:K]->(:P)-[:K]->(:P)
    :drop-index <name>          remove a path index
    :stats                      node/relationship/index counts
    :metrics                    query-service counters and latency histograms
    :memory                     memory pool usage, per-query peaks, spill
                                counters (see GraphDatabase(memory_budget=...))
    :checkpoint                 durable databases: snapshot + truncate the WAL
    :save <dir> / :load <dir>   snapshot persistence
    :connect <host:port> [token]    switch to a remote server
                                    (``python -m repro.server``); queries now
                                    run over the wire protocol
    :disconnect                 drop the remote connection, back to local
    :promote                    (remote only) promote the connected replica
                                to leader: it verifies its WAL tail, bumps
                                the leader epoch, and flips writable

Queries run through a :class:`repro.service.QueryService` (a 2-worker
instance), so ``:metrics`` reflects real service traffic: latency
histograms, plan-cache hits, page-cache deltas, retries, timeouts.
While ``:connect``-ed, queries go to the remote server instead and
local-only meta-commands are refused until ``:disconnect``.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Optional

from repro import GraphDatabase, ReproError
from repro.client import Client
from repro.db.snapshot import load_snapshot, save_snapshot
from repro.service import QueryService, ServiceConfig


class Shell:
    """A line-oriented Cypher REPL over one :class:`GraphDatabase`."""

    def __init__(
        self,
        db: Optional[GraphDatabase] = None,
        stdin: Optional[IO[str]] = None,
        stdout: Optional[IO[str]] = None,
    ) -> None:
        self.db = db if db is not None else GraphDatabase()
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout
        self.explain = False
        self.running = True
        self.service = QueryService(self.db, ServiceConfig(max_concurrency=2))
        self.remote: Optional[Client] = None

    def close(self) -> None:
        """Shut down the query service and any remote connection (idempotent)."""
        if self.remote is not None:
            self.remote.close()
            self.remote = None
        self.service.shutdown()

    # ------------------------------------------------------------------

    def println(self, text: str = "") -> None:
        print(text, file=self.stdout)

    def run(self) -> None:
        """Read statements until EOF or :quit."""
        buffer: list[str] = []
        self.println("pathindex-repro shell — :help for commands")
        for line in self.stdin:
            stripped = line.strip()
            if not buffer and stripped.startswith(":"):
                self.handle_command(stripped)
                if not self.running:
                    return
                continue
            buffer.append(line)
            if stripped.endswith(";"):
                statement = "".join(buffer).strip().rstrip(";")
                buffer.clear()
                if statement:
                    self.execute(statement)
        if buffer and "".join(buffer).strip():
            self.execute("".join(buffer).strip().rstrip(";"))

    # ------------------------------------------------------------------

    def execute(self, query: str) -> None:
        try:
            if self.remote is not None:
                outcome = self.remote.execute(query)
            else:
                if self.explain:
                    self.println(self.db.explain(query))
                outcome = self.service.execute(query)
        except (ReproError, OSError) as exc:
            self.println(f"error: {exc}")
            return
        if outcome.columns:
            self.println(" | ".join(outcome.columns))
            for row in outcome.rows:
                self.println(
                    " | ".join(str(row.get(column)) for column in outcome.columns)
                )
        self.println(
            f"({outcome.row_count} row{'s' if outcome.row_count != 1 else ''}, "
            f"{outcome.total_seconds * 1e3:.2f} ms, "
            f"max intermediate {outcome.max_intermediate_cardinality})"
        )

    def handle_command(self, command_line: str) -> None:
        command, _, argument = command_line.partition(" ")
        argument = argument.strip()
        handler = {
            ":help": self._cmd_help,
            ":quit": self._cmd_quit,
            ":exit": self._cmd_quit,
            ":explain": self._cmd_explain,
            ":mode": self._cmd_mode,
            ":source": self._cmd_source,
            ":indexes": self._cmd_indexes,
            ":create-index": self._cmd_create_index,
            ":drop-index": self._cmd_drop_index,
            ":stats": self._cmd_stats,
            ":metrics": self._cmd_metrics,
            ":memory": self._cmd_memory,
            ":checkpoint": self._cmd_checkpoint,
            ":save": self._cmd_save,
            ":load": self._cmd_load,
            ":connect": self._cmd_connect,
            ":disconnect": self._cmd_disconnect,
            ":promote": self._cmd_promote,
        }.get(command)
        if handler is None:
            self.println(f"unknown command {command!r} — :help for commands")
            return
        if self.remote is not None and command not in (
            ":help",
            ":quit",
            ":exit",
            ":connect",
            ":disconnect",
            ":promote",
        ):
            self.println(
                f"{command} acts on the local database — :disconnect first"
            )
            return
        try:
            handler(argument)
        except (ReproError, OSError) as exc:
            self.println(f"error: {exc}")

    # ------------------------------------------------------------------

    def _cmd_help(self, argument: str) -> None:
        self.println(__doc__.split("Meta-commands:")[-1].rstrip())

    def _cmd_quit(self, argument: str) -> None:
        self.running = False

    def _cmd_explain(self, argument: str) -> None:
        if argument not in ("on", "off"):
            self.println("usage: :explain <on|off>")
            return
        self.explain = argument == "on"
        self.println(f"explain {'enabled' if self.explain else 'disabled'}")

    def _cmd_mode(self, argument: str) -> None:
        if argument not in ("row", "compiled"):
            self.println("usage: :mode <row|compiled>")
            return
        self.db.execution_mode = argument
        self.println(f"execution mode set to {argument}")

    def _cmd_source(self, argument: str) -> None:
        if not argument:
            self.println("usage: :source <query>")
            return
        self.println(self.db.compiled_source(argument.rstrip(";")))

    def _cmd_indexes(self, argument: str) -> None:
        if len(self.db.indexes) == 0:
            self.println("no path indexes")
            return
        for index in self.db.indexes:
            self.println(
                f"{index.name}: {index.pattern} "
                f"({index.cardinality} entries, {index.size_on_disk()} bytes)"
            )

    def _cmd_create_index(self, argument: str) -> None:
        name, _, pattern = argument.partition(" ")
        if not name or not pattern.strip():
            self.println("usage: :create-index <name> <pattern>")
            return
        stats = self.db.create_path_index(name, pattern.strip())
        self.println(
            f"created {stats.index_name!r}: {stats.cardinality} entries in "
            f"{stats.seconds * 1e3:.1f} ms"
        )

    def _cmd_drop_index(self, argument: str) -> None:
        if not argument:
            self.println("usage: :drop-index <name>")
            return
        self.db.drop_path_index(argument)
        self.println(f"dropped {argument!r}")

    def _cmd_stats(self, argument: str) -> None:
        statistics = self.db.store.statistics
        self.println(
            f"nodes: {statistics.node_count}, "
            f"relationships: {statistics.relationship_count}, "
            f"path indexes: {len(self.db.indexes)}"
        )

    def _cmd_metrics(self, argument: str) -> None:
        snapshot = self.service.metrics_snapshot()
        self.println("counters:")
        for name, value in snapshot["counters"].items():
            self.println(f"  {name}: {value}")
        self.println("histograms:")
        for name, summary in snapshot["histograms"].items():
            if not summary["count"]:
                continue
            if name.endswith("_seconds"):
                self.println(
                    f"  {name}: n={summary['count']} "
                    f"mean={summary['mean'] * 1e3:.2f}ms "
                    f"p95={summary['p95'] * 1e3:.2f}ms "
                    f"max={summary['max'] * 1e3:.2f}ms"
                )
            else:
                self.println(
                    f"  {name}: n={summary['count']} "
                    f"mean={summary['mean']:.1f} max={summary['max']:.0f}"
                )
        for title, key in (
            ("plan cache", "plan_cache"),
            ("maintenance plan cache", "maintenance_plan_cache"),
        ):
            cache = snapshot[key]
            self.println(
                f"{title}: {cache['hits']} hits, {cache['misses']} misses, "
                f"{cache['invalidations']} invalidations, "
                f"{cache['evictions']} evictions, "
                f"{cache['size']}/{cache['capacity']} entries"
            )
        page_cache = snapshot["page_cache"]
        self.println(
            f"page cache: {page_cache['hits']} hits, {page_cache['misses']} "
            f"misses, hit ratio {page_cache['hit_ratio']:.3f}"
        )
        memory = snapshot["memory"]
        budget = memory["budget_bytes"]
        usage = (
            "unbounded"
            if budget is None
            else f"{memory['in_use_bytes']}/{budget} bytes in use"
        )
        self.println(
            f"memory: {usage}, peak {memory['peak_bytes']} bytes, "
            f"{memory['spill_runs']} spill runs (:memory for detail)"
        )

    def _cmd_memory(self, argument: str) -> None:
        pool = self.db.memory_pool.snapshot()
        budget = pool["budget_bytes"]
        self.println(
            "memory pool: "
            + (
                "unbounded (accounting only)"
                if budget is None
                else f"budget {budget} bytes, "
                f"default grant {pool['default_grant_bytes']} bytes"
            )
        )
        self.println(
            f"  in use: {pool['in_use_bytes']} bytes "
            f"(granted {pool['granted_bytes']}, overage "
            f"{pool['overage_bytes']}), peak {pool['peak_bytes']}"
        )
        self.println(
            f"  queries tracked: {pool['queries_tracked']}, grants denied: "
            f"{pool['grants_denied']}, grant waits: {pool['grant_waits']}, "
            f"limit exceeded: {pool['limit_exceeded']}"
        )
        self.println(
            f"  spills: {pool['spill_runs']} runs, "
            f"{pool['spill_bytes']} bytes estimated"
        )
        manager = self.db.spill_manager
        self.println(
            f"  spill files: {manager.files_created} created, "
            f"{manager.bytes_written} bytes written, "
            f"{manager.files_swept} swept"
        )
        for name, nbytes in pool["caches"].items():
            self.println(f"  {name}: {nbytes} bytes")
        peaks = self.service.metrics_snapshot()["histograms"].get(
            "service.peak_memory_bytes"
        )
        if peaks and peaks["count"]:
            self.println(
                f"  per-query peaks: n={peaks['count']} "
                f"mean={peaks['mean']:.0f} max={peaks['max']:.0f} bytes"
            )

    def _cmd_checkpoint(self, argument: str) -> None:
        if self.db.durability is None:
            self.println("not a durable database (start with --data <dir>)")
            return
        self.db.checkpoint()
        status = self.db.durability.status()
        self.println(
            f"checkpoint {status['checkpoint_id']} written "
            f"({status['directory']}); log truncated"
        )

    def _cmd_save(self, argument: str) -> None:
        if not argument:
            self.println("usage: :save <directory>")
            return
        save_snapshot(self.db, argument)
        self.println(f"snapshot written to {argument}")

    def _cmd_load(self, argument: str) -> None:
        if not argument:
            self.println("usage: :load <directory>")
            return
        self.service.shutdown()
        self.db = load_snapshot(argument)
        self.service = QueryService(self.db, ServiceConfig(max_concurrency=2))
        self.println(f"snapshot loaded from {argument}")

    def _cmd_connect(self, argument: str) -> None:
        address, _, token = argument.partition(" ")
        host, _, port_text = address.rpartition(":")
        if not host or not port_text.isdigit():
            self.println("usage: :connect <host:port> [auth-token]")
            return
        if self.remote is not None:
            self.remote.close()
            self.remote = None
        try:
            self.remote = Client(
                host, int(port_text), auth_token=token.strip() or None
            )
        except (ReproError, OSError) as exc:
            self.println(f"error: {exc}")
            return
        self.println(
            f"connected to {self.remote.server_info or address} at {address} "
            f"(protocol v{self.remote.protocol_version}); "
            "queries now run remotely — :disconnect to return to local"
        )

    def _cmd_disconnect(self, argument: str) -> None:
        if self.remote is None:
            self.println("not connected")
            return
        self.remote.close()
        self.remote = None
        self.println("disconnected — queries run on the local database again")

    def _cmd_promote(self, argument: str) -> None:
        if self.remote is None:
            self.println(":promote acts on a remote replica — :connect first")
            return
        fields = self.remote.promote()
        self.println(
            f"promoted to {fields.get('role')} at epoch {fields.get('epoch')} "
            f"(divergence LSN {fields.get('promote_lsn')}, "
            f"applied LSN {fields.get('applied_lsn')})"
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="pathindex-repro: Cypher shell with path indexes",
    )
    parser.add_argument(
        "--data",
        help="durable database directory (write-ahead log + checkpoints); "
        "created on first use, recovered on re-open",
    )
    parser.add_argument(
        "--snapshot", help="snapshot directory to load (and save on :quit)"
    )
    parser.add_argument(
        "--execute", "-e", help="run one query, print its rows, and exit"
    )
    args = parser.parse_args(argv)
    if args.data and args.snapshot:
        parser.error("--data and --snapshot are mutually exclusive")
    if args.data:
        db = GraphDatabase.open(args.data)
    elif args.snapshot:
        try:
            db = load_snapshot(args.snapshot)
        except FileNotFoundError:
            db = GraphDatabase()
    else:
        db = GraphDatabase()
    shell = Shell(db)
    try:
        if args.execute:
            shell.execute(args.execute)
            return 0
        shell.run()
        if args.snapshot:
            save_snapshot(shell.db, args.snapshot)
        return 0
    finally:
        shell.close()
        shell.db.close()
