"""Differential tests: the compiled (codegen) engine vs row and batched.

The compiled engine generates one fused Python pipeline function per query
part (``repro.runtime.compiled``). For the paper's query shapes, random
graphs, and the core language features it must produce identical result
rows, identical per-operator profile counts, and identical
max-intermediate-cardinality as the tuple-at-a-time row engine — with zero
batched-engine fallbacks. Deadline aborts and write rollbacks must behave
the same as in the other modes, and deleting a producer from the codegen
registry must fall back to the batched engine transparently (same rows,
reason counted).
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
from repro.errors import PlannerError
from repro.planner import plans as plan_nodes
from repro.runtime.compiled import (
    PRODUCERS,
    fallback_counts,
    reset_fallback_counts,
)
from repro.service.cancellation import CancellationToken

BASELINE = PlannerHints(use_path_indexes=False)


def forced(name):
    return PlannerHints(
        required_indexes=frozenset({name}),
        allowed_indexes=frozenset({name}),
        path_index_cost_factor=1e-9,
    )


@pytest.fixture(autouse=True)
def _fresh_fallback_counter():
    reset_fallback_counts()
    yield
    reset_fallback_counts()


def run_three(db, query, hints=None, exact_batched_profile=True):
    """Execute in all three modes; assert full equivalence; return rows.

    The compiled engine counts operator output per row exactly like the
    row engine, so its profile is always compared exactly — including
    LIMIT queries, where only the batched engine over-produces by up to
    one morsel (``exact_batched_profile=False`` relaxes that comparison).
    """
    row_result = db.execute(query, hints, execution_mode="row")
    row_rows = row_result.to_list()
    batched_result = db.execute(query, hints, execution_mode="batched")
    batched_rows = batched_result.to_list()
    compiled_result = db.execute(query, hints, execution_mode="compiled")
    compiled_rows = compiled_result.to_list()
    assert compiled_rows == row_rows, query
    assert batched_rows == row_rows, query
    # All three executions share the cached plan objects, so profiles are
    # directly comparable per plan node.
    row_profile = row_result.profile.operators.rows
    compiled_profile = compiled_result.profile.operators.rows
    assert compiled_profile == row_profile, query
    assert (
        compiled_result.max_intermediate_cardinality
        == row_result.max_intermediate_cardinality
    ), query
    if exact_batched_profile:
        assert batched_result.profile.operators.rows == row_profile, query
    return row_rows


# ----------------------------------------------------------------------
# Paper query shapes — and zero fallbacks on them
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
        rows = run_three(db, correlated.FULL_QUERY, hints)
        assert len(rows) == 40
    assert fallback_counts() == {}


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
        rows = run_three(db, yago.FULL_QUERY, hints)
        assert rows
    assert fallback_counts() == {}


def test_geospecies_shapes_agree():
    db = GraphDatabase()
    generate_geospecies(
        db, GeoSpeciesConfig(species=40, locations=10, expected_per_species=2)
    )
    db.create_path_index("Full", geospecies.FULL_PATTERN)
    db.create_path_index("Sub", geospecies.SUB_PATTERN)
    for hints in (BASELINE, forced("Full"), forced("Sub")):
        rows = run_three(db, geospecies.FULL_QUERY, hints)
        assert rows
    assert fallback_counts() == {}


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
    rows = run_three(db, query, hints)
    assert rows == [{"a": anchor, "c": c0}]
    assert fallback_counts() == {}


# ----------------------------------------------------------------------
# Language features across projection boundaries
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def feature_db():
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
        run_three(feature_db, query)
    assert fallback_counts() == {}


def test_limit_queries_agree(feature_db):
    for query in LIMIT_QUERIES:
        run_three(feature_db, query, exact_batched_profile=False)


def test_compiled_source_is_inspectable(feature_db):
    source = feature_db.compiled_source(
        "MATCH (n:A) RETURN n.v AS v ORDER BY n.v, n.i"
    )
    assert "def _pipeline(" in source
    assert "_flush" in source and "_check" in source


def test_artifact_cached_on_plan_entry(feature_db):
    query = "MATCH (n:A) RETURN count(*) AS c"
    feature_db.execute(query, execution_mode="compiled").to_list()
    cached = feature_db._planned(query, None)
    artifact = cached.compiled
    assert artifact is not None and artifact.fully_compiled
    feature_db.execute(query, execution_mode="compiled").to_list()
    assert feature_db._planned(query, None).compiled is artifact


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
    cached.compiled = None
    rows = run_three(db, query)
    assert rows == [{"i": i} for i in sorted(both)]
    assert fallback_counts() == {}


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


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_graphs_agree_across_plan_families(seed):
    db = build_random_db(seed)
    for name, pattern in INDEX_PATTERNS.items():
        db.create_path_index(name, pattern)
    for query in RANDOM_QUERIES:
        run_three(db, query, BASELINE)
        run_three(db, query, None)
        for name in INDEX_PATTERNS:
            try:
                run_three(db, query, forced(name))
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


def run_three_cached(db, query, hints):
    """``run_three``; the second and third execution must come from the
    plan cache (the bound is part of the cached plan, not of a re-plan)."""
    hits = db.plan_cache.hits
    rows = run_three(db, query, hints)
    assert db.plan_cache.hits - hits >= 2, query
    return sorted(rows, key=row_key)


def check_id_equalities(db, rng):
    """Every pattern x every entry position (leading, middle, trailing;
    node and relationship) x both operand orders x every plan family: the
    three engines agree on rows and per-operator profiles, and every plan
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
                    assert run_three_cached(db, text, NO_INDEXES) == expected, text
                    assert run_three_cached(db, text, None) == expected, text
                    for name in INDEX_PATTERNS:
                        try:
                            rows = run_three_cached(db, text, forced(name))
                        except PlannerError:
                            continue  # index does not embed into this query
                        assert rows == expected, (text, name)
    assert fallback_counts() == {}


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
    """Sorted rows per engine; asserts the three agree."""
    per_engine = [
        sorted(
            db.execute(text, hints, execution_mode=mode).to_list(), key=row_key
        )
        for mode in ("row", "batched", "compiled")
    ]
    assert per_engine[0] == per_engine[1] == per_engine[2], text
    return per_engine[0]


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
    assert fallback_counts() == {}


# ----------------------------------------------------------------------
# Transparent fallback to the batched engine
# ----------------------------------------------------------------------


def test_missing_producer_falls_back_to_batched(monkeypatch):
    db = GraphDatabase()
    for i in range(20):
        db.create_node(["P"], {"i": i})
    query = "MATCH (n:P) RETURN n.i AS i ORDER BY i DESC"
    expected = db.execute(query, execution_mode="row").to_list()
    monkeypatch.delitem(PRODUCERS, plan_nodes.PlanSort)
    db.plan_cache.clear()
    rows = db.execute(query, execution_mode="compiled").to_list()
    assert rows == expected
    counts = fallback_counts()
    assert counts == {"no compiled operator for PlanSort": 1}
    # The artifact caches the fallback decision: re-running does not
    # re-compile (and so does not re-count).
    db.execute(query, execution_mode="compiled").to_list()
    assert fallback_counts() == counts


def test_fallback_surfaces_in_source(monkeypatch):
    db = GraphDatabase()
    db.create_node(["P"], {"i": 1})
    monkeypatch.delitem(PRODUCERS, plan_nodes.PlanSort)
    source = db.compiled_source("MATCH (n:P) RETURN n.i AS i ORDER BY i")
    assert "falls back to batched" in source


# ----------------------------------------------------------------------
# Service parity: config plumbing, deadlines and write rollback
# ----------------------------------------------------------------------


def test_service_config_selects_compiled_mode():
    db = GraphDatabase(execution_mode="row")
    for i in range(10):
        db.create_node(["P"], {"i": i})
    with QueryService(
        db, ServiceConfig(execution_mode="compiled")
    ) as service:
        outcome = service.execute("MATCH (n:P) RETURN count(*) AS c")
        assert outcome.rows == [{"c": 10}]
    # The compiled artifact was built and cached, proving the mode took.
    assert db._planned("MATCH (n:P) RETURN count(*) AS c", None).compiled


def test_service_config_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ServiceConfig(execution_mode="vectorized")


def test_deadline_aborts_scan_in_compiled_mode():
    db = GraphDatabase(execution_mode="compiled")
    for i in range(400):
        db.create_node(["P"], {"i": i})
    query = "MATCH (a:P), (b:P) RETURN a.i AS ai, b.i AS bi"
    full = len(db.execute(query).to_list())
    with QueryService(db, ServiceConfig()) as service:
        ticket = service.submit(query, deadline_s=0.02)
        with pytest.raises(QueryTimeoutError):
            ticket.result(timeout=30)
        assert ticket.status.name == "TIMED_OUT"
        assert ticket.rows_produced < full


def test_cancelled_write_rolls_back_in_compiled_mode():
    db = GraphDatabase(execution_mode="compiled")
    for i in range(300):
        db.create_node(["P"], {"i": i})
    before = db.store.statistics.node_count
    token = CancellationToken.with_timeout(0.005)
    with pytest.raises(QueryTimeoutError):
        db.execute("MATCH (a:P), (b:P) CREATE (c:Q) RETURN c", token=token)
    assert db.store.statistics.node_count == before
    assert len(db.execute("MATCH (c:Q) RETURN c").to_list()) == 0


def test_write_queries_agree_across_modes():
    results = []
    for mode in ("row", "batched", "compiled"):
        db = GraphDatabase(execution_mode=mode)
        for i in range(6):
            db.create_node(["P"], {"i": i})
        db.execute(
            "MATCH (a:P) WHERE a.i < 3 CREATE (b:Q {j: a.i}) RETURN b"
        ).to_list()
        rows = db.execute(
            "MATCH (b:Q) RETURN b.j AS j ORDER BY j", execution_mode="row"
        ).to_list()
        results.append(rows)
    assert results[0] == results[1] == results[2] == [
        {"j": 0},
        {"j": 1},
        {"j": 2},
    ]


# ----------------------------------------------------------------------
# Environment default
# ----------------------------------------------------------------------


def test_env_var_sets_default_mode(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTION_MODE", "compiled")
    db = GraphDatabase()
    assert db.execution_mode == "compiled"
    db.create_node(["P"], {"i": 1})
    assert db.execute("MATCH (n:P) RETURN n.i AS i").to_list() == [{"i": 1}]
    assert db._planned("MATCH (n:P) RETURN n.i AS i", None).compiled is not None
