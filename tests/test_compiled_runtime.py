"""Differential tests: the compiled (codegen) engine vs the row engine.

The compiled engine generates one fused Python pipeline function per query
part (``repro.runtime.compiled``). For the paper's query shapes, random
graphs, and the core language features it must produce identical result
rows, identical per-operator profile counts, and identical
max-intermediate-cardinality as the tuple-at-a-time row engine, at any
output chunk size. Deadline aborts and write rollbacks must behave the
same on both engines.

Compiled mode runs a plan's first execution on the row engine, compiles
it on the second and reuses the artifact afterwards; the tier tests pin
that rule and the artifact's lifetime.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    GraphDatabase,
    PlannerHints,
    QueryService,
    QueryTimeoutError,
    ServiceConfig,
)
from repro.datasets import (
    CorrelatedConfig,
    GeoSpeciesConfig,
    YagoConfig,
    correlated,
    generate_correlated,
    generate_geospecies,
    generate_yago,
    geospecies,
    yago,
)
from repro.db.patternquery import PatternQueries
from repro.db.plancache import PlanCache
from repro.errors import PlannerError, ReproError
from repro.pathindex.pattern import PathPattern
from repro.planner import plans as plan_nodes
from repro.runtime import Executor
from repro.runtime.compiled import PRODUCERS, CompiledQuery
from repro.runtime.executor import ARTIFACT
from repro.service.cancellation import CancellationToken

from tests.engines import ENGINES, execute

BASELINE = PlannerHints(use_path_indexes=False)


def forced(name):
    return PlannerHints(
        required_indexes=frozenset({name}),
        allowed_indexes=frozenset({name}),
        path_index_cost_factor=1e-9,
    )


def run_two(db, query, hints=None):
    """Execute on both engines; assert full equivalence; return rows.

    The compiled run must come from generated code (``tests.engines``).
    Both runs share the cached plan objects, so profiles are directly
    comparable per plan node — exactly, LIMIT included: the compiled
    engine counts operator output per row like the row engine.
    """
    row_result = db.execute(query, hints, execution_mode="row")
    row_rows = row_result.to_list()
    compiled_result = execute(db, query, hints, mode="compiled")
    assert compiled_result.to_list() == row_rows, query
    assert (
        compiled_result.profile.operators.rows == row_result.profile.operators.rows
    ), query
    assert (
        compiled_result.max_intermediate_cardinality
        == row_result.max_intermediate_cardinality
    ), query
    return row_rows


def artifact(db, text, hints=None):
    """The codegen artifact kept on ``text``'s cached plan (None: none)."""
    return db.prepare(text, hints).planned_parts[0][1].__dict__.get(ARTIFACT)


# ----------------------------------------------------------------------
# Paper query shapes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def correlated_db():
    db = GraphDatabase()
    generate_correlated(db, CorrelatedConfig(paths=40, noise_factor=6))
    db.create_path_index("Full", correlated.FULL_PATTERN)
    db.create_path_index("Sub1", correlated.SUB_PATTERNS["Sub1"])
    db.create_path_index("Sub6", correlated.SUB_PATTERNS["Sub6"])
    return db


def test_correlated_shapes_agree(correlated_db):
    db = correlated_db
    for hints in (BASELINE, None, forced("Full"), forced("Sub1"), forced("Sub6")):
        rows = run_two(db, correlated.FULL_QUERY, hints)
        assert len(rows) == 40


def test_yago_shapes_agree():
    db = GraphDatabase()
    config = YagoConfig(
        settlements=6,
        owning_settlements=3,
        persons=300,
        born_per_other=8,
        celebrity_in_affiliations=25,
        hub_artifacts_per_owned=3,
        hub_pool=8,
        targets_per_hub=4,
        core_artifacts=40,
        core_noise_edges=400,
        junk_settlements=4,
        junk_owned_per_settlement=25,
    )
    generate_yago(db, config)
    db.create_path_index("Full", yago.FULL_PATTERN)
    for hints in (
        BASELINE,
        PlannerHints(use_path_indexes=False, manual_expand_chain=yago.MANUAL_CHAIN),
        PlannerHints(index_seed_chain=("Full", ())),
    ):
        rows = run_two(db, yago.FULL_QUERY, hints)
        assert rows


def test_geospecies_shapes_agree():
    db = GraphDatabase()
    generate_geospecies(
        db, GeoSpeciesConfig(species=40, locations=10, expected_per_species=2)
    )
    db.create_path_index("Full", geospecies.FULL_PATTERN)
    db.create_path_index("Sub", geospecies.SUB_PATTERN)
    for hints in (BASELINE, forced("Full"), forced("Sub")):
        rows = run_two(db, geospecies.FULL_QUERY, hints)
        assert rows


def test_prefix_seek_compiles():
    """PathIndexPrefixSeek: anchor + prefix-bounded suffix scan."""
    db = GraphDatabase()
    anchor = db.create_node(["A"])
    b0 = db.create_node(["B"])
    db.create_relationship(anchor, b0, "R")
    c0 = db.create_node(["C"])
    db.create_relationship(b0, c0, "S")
    for _ in range(200):
        b = db.create_node(["B"])
        c = db.create_node(["C"])
        db.create_relationship(b, c, "S")
    db.create_path_index("suffix", "(:B)-[:S]->(:C)")
    query = "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN id(a) AS a, id(c) AS c"
    hints = PlannerHints(required_indexes=frozenset({"suffix"}))
    assert "PathIndexPrefixSeek" in db.explain(query, hints)
    rows = run_two(db, query, hints)
    assert rows == [{"a": anchor, "c": c0}]


# ----------------------------------------------------------------------
# Language features across projection boundaries
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def feature_db():
    return build_feature_db()


def build_feature_db() -> GraphDatabase:
    db = GraphDatabase()
    rng = random.Random(7)
    nodes = []
    for i in range(30):
        labels = rng.sample(("A", "B"), rng.randrange(0, 3))
        nodes.append(db.create_node(labels, {"v": rng.randrange(5), "i": i}))
    for _ in range(80):
        db.create_relationship(
            rng.choice(nodes), rng.choice(nodes), rng.choice(("X", "Y"))
        )
    return db


FEATURE_QUERIES = [
    "MATCH (n:A) RETURN n.v AS v ORDER BY n.v, n.i",
    "MATCH (n:A) RETURN DISTINCT n.v AS v",
    "MATCH (n:A) RETURN count(*) AS c",
    "MATCH (a:A)-[x:X]->(b) RETURN a.v AS v, count(b) AS degree",
    "MATCH (a:A)-[x:X]->(b) RETURN a.v AS v, collect(b.v) AS vs, "
    "sum(b.v) AS s, min(b.v) AS lo, max(b.v) AS hi",
    "MATCH (a:A) WITH a WHERE a.v > 1 MATCH (a)-[x:X]->(b) RETURN a.i AS i, b.i AS j",
    "MATCH (a:A)-[x:X]->(b) WITH a, b MATCH (b)-[y:Y]->(c) RETURN a.i AS i, c.i AS k",
    "MATCH (a:A), (b:B) WHERE a.v = b.v RETURN a.i AS i, b.i AS j",
    "MATCH (a:A)-[x:X]->(b)<-[y:X]-(c:A) WHERE a.v <> c.v RETURN a.i AS i, c.i AS k",
    "MATCH (a:A)-[x:X]->(b) RETURN DISTINCT a.v AS v, b.v AS w ORDER BY v, w",
    "MATCH (a:A)-[x]-(b) RETURN a.i AS i, b.i AS j ORDER BY i, j",
    "MATCH (a:A)-[x:X]->(b) RETURN type(x) AS t, count(*) AS c",
]

LIMIT_QUERIES = [
    "MATCH (n:A) RETURN n.v AS v ORDER BY n.v DESC SKIP 2 LIMIT 3",
    "MATCH (n) RETURN labels(n) AS ls, n.v + 1 AS w ORDER BY n.i LIMIT 10",
    "MATCH (n:A) RETURN n.i AS i SKIP 4",
]


def test_feature_queries_agree(feature_db):
    for query in FEATURE_QUERIES:
        run_two(feature_db, query)


def test_limit_queries_agree(feature_db):
    for query in LIMIT_QUERIES:
        run_two(feature_db, query)


def run_with_morsel_size(db, query, morsel_size):
    """Read-only compiled execution through the Executor with a forced
    output chunk size."""
    cached = db.prepare(query)
    executor = Executor(db.store, db.indexes, cached.analyzed.variable_kinds)
    executor.compile(cached.planned_parts)
    rows, profile = executor.execute(
        cached.planned_parts, mode="compiled", morsel_size=morsel_size
    )
    projected = [
        {column: row.values.get(column) for column in cached.columns}
        for row in rows
    ]
    assert profile.engine == "compiled"
    return projected, profile


def test_small_morsel_sizes_hit_batch_boundaries(feature_db):
    """Chunk size must be invisible: sizes that split every operator's
    output mid-chunk give the same rows and profile as the row engine."""
    for query in FEATURE_QUERIES + LIMIT_QUERIES:
        reference = feature_db.execute(query, execution_mode="row")
        expected = reference.to_list()
        for morsel_size in (1, 2, 7):
            rows, profile = run_with_morsel_size(feature_db, query, morsel_size)
            assert rows == expected, (query, morsel_size)
            assert (
                profile.operators.rows == reference.profile.operators.rows
            ), (query, morsel_size)


def test_unknown_execution_mode_rejected(feature_db):
    for mode in ("vectorized", "batched"):
        with pytest.raises(ReproError):
            feature_db.execute("MATCH (n) RETURN n", execution_mode=mode)
        with pytest.raises(ReproError):
            GraphDatabase(execution_mode=mode)


def test_compiled_source_is_inspectable(feature_db):
    source = feature_db.compiled_source(
        "MATCH (n:A) RETURN n.v AS v ORDER BY n.v, n.i"
    )
    assert "def _pipeline(" in source
    assert "_flush" in source and "_check" in source


# ----------------------------------------------------------------------
# The tier rule: row engine first, compile on the second execution
# ----------------------------------------------------------------------

TIER_QUERY = "MATCH (n:P) RETURN n.i AS i ORDER BY i"


def tier_db(nodes=10):
    db = GraphDatabase()
    for i in range(nodes):
        db.create_node(["P"], {"i": i})
    return db


def test_compiled_is_the_default_engine():
    assert GraphDatabase().execution_mode == "compiled"
    assert GraphDatabase(execution_mode="row").execution_mode == "row"


def test_second_execution_compiles_and_third_reuses():
    db = tier_db()
    engines, artifacts = [], []
    for _ in range(3):
        result = db.execute(TIER_QUERY)
        assert result.to_list() == [{"i": i} for i in range(10)]
        engines.append(result.profile.engine)
        artifacts.append(artifact(db, TIER_QUERY))
    assert engines == ["row", "compiled", "compiled"]
    assert artifacts[0] is None
    assert isinstance(artifacts[1], CompiledQuery)
    assert artifacts[2] is artifacts[1]


def test_row_mode_never_compiles():
    db = tier_db()
    for _ in range(3):
        assert db.execute(TIER_QUERY, execution_mode="row").profile.engine == "row"
    assert ARTIFACT not in db.prepare(TIER_QUERY).planned_parts[0][1].__dict__


def _evict(db):
    db.execute("MATCH (n:P) RETURN count(*) AS c").to_list()


def _index_ddl(db):
    db.create_path_index("k", "(:P)-[:K]->(:P)")


def _statistics_drift(db):
    for i in range(10, 20):
        db.create_node(["P"], {"i": i})


@pytest.mark.parametrize(
    "invalidate", [_evict, _index_ddl, _statistics_drift], ids=lambda f: f.__name__
)
def test_invalidation_drops_the_artifact_with_the_plan(invalidate):
    db = tier_db()
    db.plan_cache = PlanCache(capacity=1)
    for _ in range(2):
        db.execute(TIER_QUERY).to_list()
    stale = db.prepare(TIER_QUERY).planned_parts
    assert isinstance(stale[0][1].__dict__.get(ARTIFACT), CompiledQuery)
    invalidate(db)
    result = db.execute(TIER_QUERY)
    rows = result.to_list()
    assert rows == sorted(rows, key=lambda row: row["i"]) and len(rows) >= 10
    # A new plan, executed once: back on the row engine, nothing compiled.
    assert result.profile.engine == "row"
    fresh = db.prepare(TIER_QUERY).planned_parts
    assert fresh[0][1] is not stale[0][1]
    assert fresh[0][1].__dict__.get(ARTIFACT) is None


def test_prepared_pattern_query_is_compiled_before_its_first_run():
    db = tier_db()
    p = list(db.store.nodes_with_label(db.label("P")))
    db.create_relationship(p[0], p[1], "K")
    prepared = PatternQueries(db.store, db.indexes).prepare(
        PathPattern.parse("(:P)-[:K]->(:P)")
    )
    compiled = prepared.planned_parts[0][1].__dict__.get(ARTIFACT)
    assert isinstance(compiled, CompiledQuery)
    entries, profile = prepared.run()
    assert len(list(entries)) == 1
    assert profile.engine == "compiled"
    assert prepared.planned_parts[0][1].__dict__.get(ARTIFACT) is compiled


def test_direct_executor_reuses_the_artifact_db_execute_built():
    """A caller driving ``Executor.execute`` with the cached plan and no
    artifact (perfbench's traced pass) runs the plan's artifact instead of
    compiling per call, and a cold plan follows the same tier rule."""
    db = tier_db()
    expected = [{"i": i} for i in range(10)]
    for _ in range(2):
        db.execute(TIER_QUERY).to_list()
    compiled = artifact(db, TIER_QUERY)
    cached = db.prepare(TIER_QUERY)
    executor = Executor(db.store, db.indexes, cached.analyzed.variable_kinds)
    for _ in range(2):
        rows, profile = executor.execute(cached.planned_parts, mode="compiled")
        assert [row.values for row in rows] == expected
        assert profile.engine == "compiled"
    assert artifact(db, TIER_QUERY) is compiled
    cold = db.prepare("MATCH (n:P) WHERE n.i < 3 RETURN n.i AS i ORDER BY i")
    engines = [
        executor.execute(cold.planned_parts, mode="compiled")[1].engine
        for _ in range(3)
    ]
    assert engines == ["row", "compiled", "compiled"]


# ----------------------------------------------------------------------
# Codegen coverage
# ----------------------------------------------------------------------


def test_every_plan_node_type_has_a_producer():
    plan_types = {
        cls
        for cls in vars(plan_nodes).values()
        if isinstance(cls, type)
        and issubclass(cls, plan_nodes.LogicalPlan)
        and cls is not plan_nodes.LogicalPlan
    }
    assert plan_types == set(PRODUCERS)


def test_missing_producer_is_a_plain_error(monkeypatch):
    db = GraphDatabase()
    db.create_node(["P"], {"i": 1})
    monkeypatch.delitem(PRODUCERS, plan_nodes.PlanSort)
    with pytest.raises(ReproError, match="no compiled operator for PlanSort"):
        db.compiled_source("MATCH (n:P) RETURN n.i AS i ORDER BY i")


# ----------------------------------------------------------------------
# Hand-spliced NodeHashJoin (the cost model rarely picks it on small data)
# ----------------------------------------------------------------------


def test_node_hash_join_compiles():
    db = GraphDatabase()
    both = []
    for i in range(12):
        labels = ["A"] if i % 3 == 0 else (["A", "B"] if i % 3 == 1 else ["B"])
        node = db.create_node(labels, {"k": i})
        if i % 3 == 1:
            both.append(node)

    query = "MATCH (n:A) RETURN id(n) AS i ORDER BY i"
    cached = db._planned(query, None)
    part, plan = cached.planned_parts[0]

    def find_scan(node):
        if isinstance(node, plan_nodes.PlanNodeByLabelScan):
            return node
        for child in node.children:
            found = find_scan(child)
            if found is not None:
                return found
        return None

    scan_a = find_scan(plan)
    scan_b = dataclasses.replace(scan_a, label="B")
    join = plan_nodes.PlanNodeHashJoin(
        children=(scan_a, scan_b),
        available=scan_a.available,
        solved_rels=frozenset(),
        applied_selections=frozenset(),
        cardinality=4.0,
        cost=20.0,
        indexes_used=frozenset(),
        join_nodes=("n",),
    )

    def rebuild(node):
        if node is scan_a:
            return join
        children = tuple(rebuild(child) for child in node.children)
        if children != node.children:
            return dataclasses.replace(node, children=children)
        return node

    cached.planned_parts[0] = (part, rebuild(plan))
    rows = run_two(db, query)
    assert rows == [{"i": i} for i in sorted(both)]


# ----------------------------------------------------------------------
# Random graphs, every plan family
# ----------------------------------------------------------------------

LABELS = ("A", "B")
TYPES = ("X", "Y")

RANDOM_QUERIES = [
    "MATCH (a:A)-[x:X]->(b:B) RETURN *",
    "MATCH (a:A)-[x:X]->(b)-[y:Y]->(c:A) RETURN *",
    "MATCH (a)-[x:X]->(b:B)<-[y:Y]-(c) RETURN *",
    "MATCH (a:A)-[x:X]->(b:B) WHERE a.v <> b.v RETURN *",
    "MATCH (a:A)-[x:X]->(b)-[y:X]->(c) RETURN *",
]

INDEX_PATTERNS = {
    "ix_xy": "(:A)-[:X]->()-[:Y]->(:A)",
    "ix_x": "(:A)-[:X]->(:B)",
    "ix_any": "()-[:X]->()",
    "ix_xx": "(:A)-[:X]->()-[:X]->()",
}


def build_random_db(seed: int) -> GraphDatabase:
    rng = random.Random(seed)
    db = GraphDatabase()
    nodes = []
    for _ in range(rng.randrange(4, 10)):
        labels = rng.sample(LABELS, rng.randrange(0, 3))
        nodes.append(db.create_node(labels, {"v": rng.randrange(3)}))
    for _ in range(rng.randrange(5, 18)):
        db.create_relationship(
            rng.choice(nodes), rng.choice(nodes), rng.choice(TYPES)
        )
    return db


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_graphs_agree_across_plan_families(seed):
    db = build_random_db(seed)
    for name, pattern in INDEX_PATTERNS.items():
        db.create_path_index(name, pattern)
    for query in RANDOM_QUERIES:
        run_two(db, query, BASELINE)
        run_two(db, query, None)
        for name in INDEX_PATTERNS:
            try:
                run_two(db, query, forced(name))
            except PlannerError:
                continue  # index does not embed into this query


# ----------------------------------------------------------------------
# Sargable id(v) = k: bounded scans and NodeByIdSeek vs the unindexed plan
# ----------------------------------------------------------------------

NO_INDEXES = PlannerHints(allowed_indexes=frozenset())

SARGABLE_MATCHES = [
    # (pattern text, its variables in path order: node, rel, node, ...)
    ("MATCH (a:A)-[x:X]->(b:B)", ("a", "x", "b")),
    ("MATCH (a:A)-[x:X]->(b)-[y:Y]->(c:A)", ("a", "x", "b", "y", "c")),
    ("MATCH (a:A)-[x:X]->(b)-[y:X]->(c)", ("a", "x", "b", "y", "c")),
]


def row_key(row):
    return tuple(sorted(row.items()))


def run_two_cached(db, query, hints):
    """``run_two``; the compiled execution must come from the plan cache
    (the bound is part of the cached plan, not of a re-plan)."""
    hits = db.plan_cache.hits
    rows = run_two(db, query, hints)
    assert db.plan_cache.hits - hits >= 2, query
    return sorted(rows, key=row_key)


def check_id_equalities(db, rng):
    """Every pattern x every entry position (leading, middle, trailing;
    node and relationship) x both operand orders x every plan family: the
    two engines agree on rows and per-operator profiles, and every plan
    agrees with the one that may use no index."""
    missing = 10_000
    for match, variables in SARGABLE_MATCHES:
        everything = db.execute(f"{match} RETURN *", NO_INDEXES).to_list()
        for position, variable in enumerate(variables):
            candidates = sorted({row[variable] for row in everything})
            known = rng.choice(candidates) if candidates else missing
            for k in (known, missing):
                equality = (
                    f"id({variable}) = {k}" if position % 2 else f"{k} = id({variable})"
                )
                texts = [f"{match} WHERE {equality} RETURN *"]
                if position == 1:
                    # A relationship constant joins the bound only when the
                    # node before it is fixed too.
                    start = next(
                        (r[variables[0]] for r in everything if r[variable] == k), 0
                    )
                    texts.append(
                        f"{match} WHERE id({variables[0]}) = {start} AND "
                        f"{equality} RETURN *"
                    )
                for text in texts:
                    expected = sorted(
                        (
                            row
                            for row in everything
                            if row[variable] == k
                            and ("AND" not in text or row[variables[0]] == start)
                        ),
                        key=row_key,
                    )
                    assert run_two_cached(db, text, NO_INDEXES) == expected, text
                    assert run_two_cached(db, text, None) == expected, text
                    for name in INDEX_PATTERNS:
                        try:
                            rows = run_two_cached(db, text, forced(name))
                        except PlannerError:
                            continue  # index does not embed into this query
                        assert rows == expected, (text, name)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_id_equality_agrees_across_engines_and_plans(seed):
    db = build_random_db(seed)
    for name, pattern in INDEX_PATTERNS.items():
        db.create_path_index(name, pattern)
    check_id_equalities(db, random.Random(seed))


def test_id_equality_agrees_under_memory_budget():
    """The 8 MiB budget / 8 KiB grant variant CI runs the suite under."""
    rng = random.Random(11)
    db = GraphDatabase(memory_budget=8 << 20, memory_grant=8192)
    nodes = [db.create_node(rng.sample(LABELS, rng.randrange(0, 3))) for _ in range(9)]
    for _ in range(17):
        db.create_relationship(rng.choice(nodes), rng.choice(nodes), rng.choice(TYPES))
    for name, pattern in INDEX_PATTERNS.items():
        db.create_path_index(name, pattern)
    check_id_equalities(db, rng)


def engine_rows(db, text, hints=None):
    """Sorted rows per engine; asserts the two agree."""
    row_rows, compiled_rows = [
        sorted(execute(db, text, hints, mode=mode).to_list(), key=row_key)
        for mode in ENGINES
    ]
    assert row_rows == compiled_rows, text
    return row_rows


def id_texts(k):
    """(sargable text, the same predicate written so that nothing can seek
    it) for a node seek, a bounded scan and a trailing per-entry check."""
    shapes = [
        ("MATCH (a:A) WHERE {} RETURN id(a) AS a", "a"),
        ("MATCH (a:A)-[x:X]->(b:B) WHERE {} RETURN id(a) AS a, id(b) AS b", "a"),
        ("MATCH (a:A)-[x:X]->(b:B) WHERE {} RETURN id(a) AS a, id(b) AS b", "b"),
    ]
    return [
        (shape.format(f"id({v}) = {k}"), shape.format(f"id({v}) + 0 = {k}"))
        for shape, v in shapes
    ]


def chain_pairs_db(pairs=6):
    db = GraphDatabase()
    ids = []
    for _ in range(pairs):
        a, b = db.create_node(["A"]), db.create_node(["B"])
        ids.append((a, b, db.create_relationship(a, b, "X")))
    db.create_path_index("ix_x", "(:A)-[:X]->(:B)")
    return db, ids


def test_id_equality_visibility_matches_scan_and_filter():
    """Missing, deleted, beyond-the-snapshot and in-transaction ids: the
    seek and the bounded scan see exactly what scan + filter sees."""
    db, ids = chain_pairs_db()
    a0, b0, x0 = ids[0]
    for hints in (None, NO_INDEXES, forced("ix_x")):
        for k in (a0, b0, 10_000):  # hit, wrong-label hit, beyond high water
            for sargable, oracle in id_texts(k):
                try:
                    assert engine_rows(db, sargable, hints) == engine_rows(
                        db, oracle, NO_INDEXES
                    ), (sargable, hints)
                except PlannerError:
                    assert hints is not None and "-[x:X]->" not in sargable
    # Pinned before the writes below: sees none of them, at any time.
    clock = db.store.mvcc
    pinned = clock.acquire()
    try:
        new_a, new_b = db.create_node(["A"]), db.create_node(["B"])
        db.create_relationship(new_a, new_b, "X")
        db.delete_relationship(x0)
        db.execute(f"MATCH (a:A) WHERE id(a) = {a0} DELETE a")  # id not reused
        assert db.path_index("ix_x").delta_count() > 0  # read through the overlay
        for hints in (None, forced("ix_x")):
            assert engine_rows(db, id_texts(a0)[1][0], hints) == []
            assert engine_rows(db, id_texts(new_a)[1][0], hints) == [
                {"a": new_a, "b": new_b}
            ]
            with clock.reading(pinned):
                assert engine_rows(db, id_texts(a0)[1][0], hints) == [
                    {"a": a0, "b": b0}
                ]
                assert engine_rows(db, id_texts(new_a)[1][0], hints) == []
                assert engine_rows(db, id_texts(new_b)[2][0], hints) == []
        assert engine_rows(db, id_texts(a0)[0][0]) == []
        with clock.reading(pinned):
            assert engine_rows(db, id_texts(a0)[0][0]) == [{"a": a0}]
            assert engine_rows(db, id_texts(new_a)[0][0]) == []
    finally:
        clock.release(pinned)
    # The open transaction's own writes: creates are eager, deletes are
    # deferred to commit — for the seek exactly as for scan + filter.
    a1 = ids[1][0]
    with db.begin() as tx:
        created = tx.create_node([db.label("A")])
        tx.delete_relationship(ids[1][2])
        tx.delete_node(a1)
        for k in (created, a1):
            sargable, oracle = id_texts(k)[0]
            assert engine_rows(db, sargable) == engine_rows(db, oracle) == [{"a": k}]
        tx.success()
    for k, expected in ((created, [{"a": created}]), (a1, [])):
        sargable, oracle = id_texts(k)[0]
        assert engine_rows(db, sargable) == engine_rows(db, oracle) == expected


# ----------------------------------------------------------------------
# Service parity: the database's engine, deadlines and write rollback
# ----------------------------------------------------------------------


def test_service_runs_the_database_engine():
    query = "MATCH (n:P) RETURN count(*) AS c"
    for mode in ENGINES:
        db = tier_db()
        db.execution_mode = mode
        with QueryService(db, ServiceConfig()) as service:
            for _ in range(2):
                assert service.execute(query).rows == [{"c": 10}]
        # The second execution compiled the plan only in compiled mode.
        assert (artifact(db, query) is not None) == (mode == "compiled"), mode


@pytest.mark.parametrize("mode", ENGINES)
def test_deadline_aborts_scan_in_both_modes(mode):
    db = tier_db(400)
    db.execution_mode = mode
    query = "MATCH (a:P), (b:P) RETURN a.i AS ai, b.i AS bi"
    full = len(execute(db, query, mode=mode).to_list())
    with QueryService(db, ServiceConfig()) as service:
        ticket = service.submit(query, deadline_s=0.02)
        with pytest.raises(QueryTimeoutError):
            ticket.result(timeout=30)
        assert ticket.status.name == "TIMED_OUT"
        assert ticket.rows_produced < full


@pytest.mark.parametrize("mode", ENGINES)
def test_cancelled_write_rolls_back_in_both_modes(mode):
    db = tier_db(300)
    before = db.store.statistics.node_count
    token = CancellationToken.with_timeout(0.005)
    with pytest.raises(QueryTimeoutError):
        execute(db, "MATCH (a:P), (b:P) CREATE (c:Q) RETURN c", mode=mode, token=token)
    assert db.store.statistics.node_count == before
    assert len(db.execute("MATCH (c:Q) RETURN c").to_list()) == 0


def test_write_queries_agree_across_modes():
    results = []
    for mode in ENGINES:
        db = tier_db(6)
        execute(
            db, "MATCH (a:P) WHERE a.i < 3 CREATE (b:Q {j: a.i}) RETURN b", mode=mode
        ).to_list()
        rows = db.execute(
            "MATCH (b:Q) RETURN b.j AS j ORDER BY j", execution_mode="row"
        ).to_list()
        results.append(rows)
    assert results[0] == results[1] == [{"j": 0}, {"j": 1}, {"j": 2}]
