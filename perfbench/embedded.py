"""The four embedded workloads: one driver thread calling ``GraphDatabase``
in-process. Each names the layers it stresses and the ones it bypasses; see
README.md for the table.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Optional

import perfbench
from perfbench.generator import ANCHOR, PATTERNS, generate, load
from perfbench.harness import Window, Workload
from perfbench.spans import Tracer

from repro import DurabilityConfig, GraphDatabase, PlannerHints, Result
from repro.cypher import analyze, parse
from repro.db.plancache import CachedQuery
from repro.planner import Planner
from repro.querygraph import build_query_parts
from repro.runtime import Executor

PROBE_EVERY = 8
"""In a traced window, every 8th op is preceded by one direct path-index
scan or prefix seek, so the trace shows the index layer on its own."""

FULL_MATCH = "MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B)-[z:X]->(e:A)"
CREATE_PATH = "CREATE (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B)-[z:X]->(e:A)"


@dataclass(frozen=True)
class Read:
    """One fixed read text with the generator's expected answer."""

    cls: str
    text: str
    rows: int
    hints: Optional[PlannerHints] = None
    scalar: Optional[int] = None
    """Expected value of column ``n`` in the single result row."""

    def check(self, rows: list[dict]) -> bool:
        if len(rows) != self.rows:
            return False
        return self.scalar is None or rows[0]["n"] == self.scalar


def forced(*names: str) -> PlannerHints:
    """The paper's forced plans: only these indexes, and they must be used."""
    return PlannerHints(
        required_indexes=frozenset(names), allowed_indexes=frozenset(names)
    )


def traced_read(db: GraphDatabase, tracer: Tracer, workload: Workload,
                text: str, hints: Optional[PlannerHints]) -> list[dict]:
    """``db.execute(text, hints).to_list()`` taken stage by stage through the
    same public functions, with a span around each layer."""
    with tracer.span("op"):
        with tracer.span("db.plan_cache"):
            key = (text, hints)
            signature = frozenset(db.indexes.visible_names())
            stats = db.store.statistics_view()
            cached = db.plan_cache.lookup(
                key, stats.node_count, stats.relationship_count, signature
            )
        if cached is None:
            with tracer.span("cypher.parse"):
                analyzed = analyze(parse(text))
            with tracer.span("querygraph.build"):
                parts = build_query_parts(analyzed)
            with tracer.span("planner.plan"):
                planner = Planner(db.store, db.indexes)
                planned = [(part, planner.plan_part(part, hints)) for part in parts]
            with tracer.span("db.plan_cache"):
                cached = CachedQuery(
                    analyzed=analyzed,
                    planned_parts=planned,
                    columns=[item.output_name for item in parts[-1].projection],
                    node_count=stats.node_count,
                    relationship_count=stats.relationship_count,
                    index_signature=signature,
                )
                db.plan_cache.store(key, cached)
        with tracer.span("runtime.exec"):
            submitted = time.perf_counter()
            executor = Executor(db.store, db.indexes, cached.analyzed.variable_kinds)
            memory = db.memory_pool.tracker(label="query", spill_manager=db.spill_manager)
            try:
                rows, profile = executor.execute(
                    cached.planned_parts, mode=db.execution_mode, tracker=memory
                )
                out = Result(rows, cached.columns, profile, submitted).to_list()
            finally:
                memory.close()
    workload.add("rows_examined", sum(count for _, count in profile.rows_by_operator()))
    workload.add("rows_returned", len(out))
    workload.peak("max_intermediate", profile.max_intermediate_cardinality)
    workload.peak("peak_tracked_bytes", profile.peak_memory_bytes)
    workload.add("spills", profile.spill_runs)
    return out


class Embedded(Workload):
    """Shared set-up: generate, load, index, (checkpoint)."""

    indexes: tuple[str, ...] = ()
    durable = False

    def setup(self) -> None:
        self.spec = generate(self.seed, self.scale.paths, self.scale.noise)
        if self.durable:
            self.directory = os.path.join(self.workdir, f"db-{self.setups}")
            self.db = GraphDatabase.open(
                self.directory,
                durability_config=DurabilityConfig(
                    checkpoint_interval_records=perfbench.CHECKPOINT_INTERVAL_RECORDS
                ),
            )
        else:
            self.db = GraphDatabase()
        self.graph = load(self.db, self.spec)
        self.init_seconds = {
            name: self.db.create_path_index(name, PATTERNS[name]).seconds
            for name in self.indexes
        }
        if self.durable:
            self.db.checkpoint()
        self.rng = random.Random(self.seed)
        self.prepare()

    def prepare(self) -> None:
        """Build the op texts from the loaded graph and the seed."""

    def teardown(self) -> None:
        if self.setups:
            self.db.close()

    def describe(self) -> dict[str, object]:
        store = self.db.store.statistics_view()
        return {
            "engine": self.db.execution_mode,
            "graph": {
                "paths": self.spec.paths,
                "noise": self.spec.noise,
                "nodes": store.node_count,
                "relationships": store.relationship_count,
            },
            "indexes": list(self.indexes),
            "plan_cache_capacity": self.db.plan_cache.capacity,
        }

    def counters(self) -> dict[str, float]:
        db = self.db
        out = {
            "page_cache.hits": db.page_cache.stats.hits,
            "page_cache.misses": db.page_cache.stats.misses,
            "plan_cache.hits": db.plan_cache.hits,
            "plan_cache.misses": db.plan_cache.misses,
            "plan_cache.evictions": db.plan_cache.evictions,
        }
        if db.durability is not None:
            status = db.durability.status()
            out["durability.fsyncs"] = status["fsyncs"]
            out["durability.commits"] = status["commits_logged"]
            out["durability.checkpoints"] = status["checkpoints"]
        return out

    def read(self, read: Read, tracer: Optional[Tracer]) -> tuple[str, bool]:
        if tracer is None:
            rows = self.db.execute(read.text, read.hints).to_list()
        else:
            rows = traced_read(self.db, tracer, self, read.text, read.hints)
        return read.cls, read.check(rows)

    def probe_index(self, n: int, tracer: Tracer) -> None:
        """One direct scan (or, every other probe, one prefix seek) of one
        index, bypassing parser, planner and runtime."""
        probe = n // PROBE_EVERY
        name = self.indexes[probe % len(self.indexes)]
        index = self.db.path_index(name)
        with tracer.span("pathindex.scan"):
            if probe // len(self.indexes) % 2:
                start = self.graph.hidden_path(probe % self.spec.paths)[ANCHOR[name]]
                entries = sum(1 for _ in index.scan_prefix((start,)))
            else:
                entries = sum(1 for _ in index.scan())
        self.add("index_entries", entries)

    def layer_metrics(self, window: Window, delta: dict[str, float]) -> dict[str, float]:
        db = self.db
        versions = db.store.version_stats()
        out = {
            "storage.live_versions": float(sum(versions.values())),
            "storage.versions_reclaimed": float(db.vacuum_versions()["reclaimed"]),
            "pathindex.init_s": sum(self.init_seconds.values()),
        }
        if self.indexes:
            report = db.size_report()
            entries = sum(db.path_index(name).cardinality for name in self.indexes)
            out["pathindex.bytes_per_entry"] = report.total_index_bytes / max(entries, 1)
        return out


class IndexRead(Embedded):
    """The paper's headline case: plan-cache-resident reads answered by the
    three path-index operators. Parser/planner ~ 0, durability/server = 0."""

    name = "index_read"
    indexes = ("Full", "Sub1", "Sub4", "Sub7")

    def prepare(self) -> None:
        paths = self.spec.paths
        path = self.rng.randrange(paths)
        a = self.graph.hidden_path(path)[0]
        a_out_y = self.spec.out_degree(self.spec.hidden[path][0], "Y")
        self.reads = [
            Read("scan", f"{FULL_MATCH} RETURN *", paths),
            Read("filtered", f"{FULL_MATCH} WHERE a <> e RETURN *", paths, forced("Full")),
            Read(
                "seek",
                "MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B) "
                f"WHERE id(a) = {a} RETURN id(a) AS a, id(d) AS d",
                1,
                forced("Sub4"),
            ),
            Read(
                "filtered",
                f"MATCH (a:A)-[y:Y]->(d:B) WHERE id(a) = {a} RETURN id(d) AS d",
                a_out_y,
                forced("Sub7"),
            ),
            Read(
                "filtered",
                "MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B) "
                f"WHERE id(a) = {a} RETURN id(d) AS d",
                1,
                forced("Sub1"),
            ),
        ]
        plans = "\n".join(self.db.explain(r.text, r.hints) for r in self.reads)
        self.missing_operators = [
            operator
            for operator in ("PathIndexScan", "PathIndexFilteredScan", "PathIndexPrefixSeek")
            if f"{operator}(" not in plans
        ]

    def op(self, driver: int, n: int, tracer: Optional[Tracer]) -> tuple[str, bool]:
        if tracer is not None and n % PROBE_EVERY == 0:
            self.probe_index(n, tracer)
        return self.read(self.reads[n % len(self.reads)], tracer)

    def gates(self, window: Window, metrics: dict[str, float]) -> list[str]:
        problems = [f"no plan uses {operator}" for operator in self.missing_operators]
        if self.trace:
            if metrics["db.plan_cache_hit_ratio"] < 0.99:
                problems.append("fixed texts missed the plan cache")
            if metrics["pathindex.scan_ms"] <= metrics["planner.plan_ms"]:
                problems.append("planner self time is not below the index layer's")
        return problems


class ScanJoin(Embedded):
    """Same graph, no path index: label scans, expand chains, aggregation and
    sort. Runtime + storage do all the work; an index change must not move
    this workload."""

    name = "scan_join"

    def prepare(self) -> None:
        spec, expected = self.spec, self.spec.expected()
        hidden_limit = max(max(self.graph.hidden_path(i)) for i in range(spec.paths)) + 1
        self.reads = [
            Read(
                "aggregate",
                "MATCH (d:B)-[z:X]->(e:A) RETURN id(e) AS e, count(*) AS n",
                spec.paths,
            ),
            Read(
                "sort",
                "MATCH (d:B)-[z:X]->(e:A) RETURN id(d) AS d, id(e) AS e "
                f"ORDER BY e DESC LIMIT {min(50, spec.paths)}",
                min(50, spec.paths),
            ),
            Read(
                "join",
                "MATCH (d:B)-[z:X]->(e:A), (d)<-[y:Y]-(c:A) RETURN count(*) AS n",
                1,
                scalar=expected["Sub5"],
            ),
            Read(
                "expand",
                "MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A) "
                f"WHERE id(a) < {hidden_limit} RETURN id(a) AS a, id(c) AS c",
                spec.paths,
            ),
            Read(
                "expand",
                "MATCH (c:A)<-[x:X]-(b:A)<-[w:X]-(a:A) "
                f"WHERE id(c) < {hidden_limit} RETURN id(c) AS c, count(*) AS n",
                spec.paths,
            ),
        ]

    def op(self, driver: int, n: int, tracer: Optional[Tracer]) -> tuple[str, bool]:
        return self.read(self.reads[n % len(self.reads)], tracer)


class AdhocPlan(Embedded):
    """Every op a never-seen text over all nine indexes, cheap to execute:
    the language has no parameters, so literal-varying traffic always misses
    the plan cache. Parser + query graph + planner dominate."""

    name = "adhoc_plan"
    indexes = tuple(PATTERNS)

    FAMILIES = (
        # (text template, hidden-path position of the literal)
        ("MATCH (e:A)<-[z:X]-(d:B)<-[y:Y]-(c:A)<-[x:X]-(b:A)<-[w:X]-(a:A) "
         "WHERE id(e) = {k} RETURN id(a) AS a LIMIT {limit}", 4),
        ("MATCH (b:A)-[x:X]->(c:A)-[y:Y]->(d:B)-[z:X]->(e:A) "
         "WHERE id(b) = {k} RETURN id(e) AS e LIMIT {limit}", 1),
        ("MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B) "
         "WHERE id(d) = {k} RETURN id(a) AS a LIMIT {limit}", 3),
        ("MATCH (b:A)-[x:X]->(c:A)-[y:Y]->(d:B) "
         "WHERE id(b) = {k} RETURN id(d) AS d LIMIT {limit}", 1),
        ("MATCH (d:B)-[z:X]->(e:A) WHERE id(d) = {k} RETURN id(e) AS e LIMIT {limit}", 3),
        (FULL_MATCH + " WHERE id(e) = {k} RETURN id(b) AS b, id(c) AS c LIMIT {limit}", 4),
    )

    def prepare(self) -> None:
        self.order = list(range(self.spec.paths))
        self.rng.shuffle(self.order)

    @classmethod
    def text(cls, graph, order: list[int], n: int) -> str:
        """The ``n``-th ad-hoc text; (family, path, limit) is distinct for
        every ``n``, so no text repeats. Each matches exactly one row."""
        families, paths = len(cls.FAMILIES), len(order)
        template, position = cls.FAMILIES[n % families]
        path = order[n // families % paths]
        return template.format(
            k=graph.hidden_path(path)[position], limit=1 + n // (families * paths)
        )

    def op(self, driver: int, n: int, tracer: Optional[Tracer]) -> tuple[str, bool]:
        if tracer is not None and n % PROBE_EVERY == 0:
            self.probe_index(n, tracer)
        return self.read(Read("adhoc", self.text(self.graph, self.order, n), 1), tracer)

    def gates(self, window: Window, metrics: dict[str, float]) -> list[str]:
        problems = []
        distinct = sum(self.cursor)
        needed = 10 * self.db.plan_cache.capacity
        if not self.scale.smoke and distinct < needed:
            problems.append(f"only {distinct} distinct texts; need >= {needed}")
        if self.trace and metrics["frontend.share_of_op_time"] < 0.5:
            problems.append("parser + query graph + planner are under half of op time")
        return problems


class WriteMaintain(Embedded):
    """Durable database, fsync per commit, three indexes maintained by
    Algorithm 1 on every commit. Cycle of ten ops: four delete/re-add pairs of
    a hidden Y relationship, one Cypher CREATE of a whole hidden path, one
    Full-index read through the MVCC delta overlay."""

    name = "write_maintain"
    indexes = ("Full", "Sub4", "Sub7")
    durable = True
    primary = frozenset({"delete", "add", "create"})

    def prepare(self) -> None:
        self.order = list(range(self.spec.paths))
        self.rng.shuffle(self.order)
        self.y_rel = [self.graph.rel_ids[i] for i in self.spec.hidden_y]
        self.created = 0

    def describe(self) -> dict[str, object]:
        return {
            **super().describe(),
            "flush_policy": "fsync per commit (group commit of 1); auto-checkpoint "
            f"every {perfbench.CHECKPOINT_INTERVAL_RECORDS} WAL records",
        }

    def op(self, driver: int, n: int, tracer: Optional[Tracer]) -> tuple[str, bool]:
        slot = n % 10
        if slot == 9:
            return self.read(
                Read("read", f"{FULL_MATCH} RETURN *", self.spec.paths + self.created),
                tracer,
            )
        if tracer is not None and n % PROBE_EVERY == 0:
            self.probe_index(n, tracer)
        if slot == 8:
            self.commit(tracer, lambda: self.db.execute(CREATE_PATH).consume())
            self.created += 1
            return "create", True
        path = self.order[(n // 10 * 4 + slot // 2) % self.spec.paths]
        if slot % 2 == 0:
            rel = self.y_rel[path]
            self.commit(tracer, lambda: self.db.delete_relationship(rel))
            self.y_rel[path] = None
            return "delete", True
        _, _, c, d, _ = self.graph.hidden_path(path)
        self.y_rel[path] = self.commit(
            tracer, lambda: self.db.create_relationship(c, d, "Y")
        )
        return "add", True

    def commit(self, tracer: Optional[Tracer], write):
        """One write commit. Untraced it is the plain public call (fsync and
        auto-checkpoint inside the commit); traced, the same work is split at
        the engine's public seams: commit with the fsync deferred, the
        maintainer's own per-index report, the deferred fsync, the
        checkpoint trigger."""
        if tracer is None:
            return write()
        durability = self.db.durability
        with tracer.span("op"):
            logged = durability.status()["bytes_since_checkpoint"]
            with tracer.span("tx.commit"):
                with durability.deferred_sync():
                    result = write()
                report = self.db.maintainer.last_report
                tracer.child("pathindex.maintain", sum(report.values()))
            self.add("wal_bytes", durability.status()["bytes_since_checkpoint"] - logged)
            with tracer.span("durability.sync"):
                durability.sync_pending()
            with tracer.span("durability.checkpoint") as span:
                checkpointed = durability.maybe_checkpoint()
            if checkpointed:
                self.add("checkpoints", 1)
                self.add("checkpoint_seconds", span["end"] - span["start"])
        self.add("commits", 1)
        self.add("maintained_indexes", len(report))
        return result

    def gates(self, window: Window, metrics: dict[str, float]) -> list[str]:
        problems = []
        db, spec = self.db, self.spec
        needed = 1 if self.scale.smoke else 3
        checkpoints = db.durability.status()["checkpoints"] - 1  # set-up's own
        if checkpoints < needed:
            problems.append(f"{checkpoints} checkpoints since set-up; need >= {needed}")
        for name in self.indexes:
            if not db.verify_index(name):
                problems.append(f"verify_index({name}) failed")
        # Every acknowledged commit must be readable from only the bytes that
        # were fsynced: drop the rest, re-open, count.
        pending = sum(1 for rel in self.y_rel if rel is None)
        acknowledged = {
            "MATCH (n) RETURN count(*) AS n": len(spec.node_labels) + 5 * self.created,
            f"{FULL_MATCH} RETURN count(*) AS n": spec.paths + self.created - pending,
            "MATCH (a:A)-[y:Y]->(d:B) RETURN count(*) AS n":
                spec.expected()["Sub7"] + self.created - pending,
        }
        db.durability.simulate_power_loss()
        began = time.perf_counter()
        self.db = GraphDatabase.open(self.directory)
        reopen_s = time.perf_counter() - began
        lost = sum(
            abs(self.db.execute(text).to_list()[0]["n"] - count)
            for text, count in acknowledged.items()
        )
        if self.trace:
            metrics["durability.reopen_s"] = reopen_s
            metrics["durability.acked_lost"] = float(lost)
        if lost:
            problems.append(f"{lost} acknowledged changes missing after power loss")
        return problems


WORKLOADS = (IndexRead, ScanJoin, AdhocPlan, WriteMaintain)
