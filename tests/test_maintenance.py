"""Tests for query-based path index maintenance (Algorithm 1) including a
property-based differential check against full re-initialization."""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphDatabase, PlannerHints
from repro.db import patternquery
from repro.pathindex.maintenance import TRAVERSAL_BASED, traverse_pattern
from repro.db.patternquery import Anchor, NodeAnchor
from repro.pathindex.pattern import PathPattern

from tests.engines import ENGINES


def build_chain_db(strategy="query"):
    db = GraphDatabase(maintenance_strategy=strategy)
    rows = []
    for _ in range(6):
        a = db.create_node(["A"])
        b = db.create_node(["B"])
        c = db.create_node(["A"])
        r1 = db.create_relationship(a, b, "X")
        r2 = db.create_relationship(b, c, "Y")
        rows.append((a, r1, b, r2, c))
    return db, rows


@pytest.mark.parametrize("strategy", ["query", "traversal"])
def test_relationship_deletion_removes_paths(strategy):
    db, rows = build_chain_db(strategy)
    db.create_path_index("full", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    a, r1, b, r2, c = rows[0]
    db.delete_relationship(r1)
    assert db.path_index("full").cardinality == 5
    assert db.verify_index("full")


@pytest.mark.parametrize("strategy", ["query", "traversal"])
def test_relationship_addition_adds_paths(strategy):
    db, rows = build_chain_db(strategy)
    db.create_path_index("full", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    # A second X into an existing b creates one more path.
    new_a = db.create_node(["A"])
    _, _, b, _, _ = rows[0]
    db.create_relationship(new_a, b, "X")
    assert db.path_index("full").cardinality == 7
    assert db.verify_index("full")


def test_middle_relationship_update_affects_multiple_paths():
    db = GraphDatabase()
    # Two X edges into b, two Y edges out: deleting one X removes 2 paths.
    b = db.create_node(["B"])
    for _ in range(2):
        a = db.create_node(["A"])
        db.create_relationship(a, b, "X")
    y_rels = []
    for _ in range(2):
        c = db.create_node(["A"])
        y_rels.append(db.create_relationship(b, c, "Y"))
    db.create_path_index("full", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    assert db.path_index("full").cardinality == 4
    db.delete_relationship(y_rels[0])
    assert db.path_index("full").cardinality == 2
    assert db.verify_index("full")


def test_label_addition_and_removal_maintenance():
    db = GraphDatabase()
    a = db.create_node([])  # not yet :A
    b = db.create_node(["B"])
    db.create_relationship(a, b, "X")
    db.create_path_index("i", "(:A)-[:X]->(:B)")
    assert db.path_index("i").cardinality == 0
    db.add_label(a, "A")
    assert db.path_index("i").cardinality == 1
    assert db.verify_index("i")
    db.remove_label(a, "A")
    assert db.path_index("i").cardinality == 0
    assert db.verify_index("i")


def test_node_creation_and_deletion_do_not_touch_indexes():
    db, _ = build_chain_db()
    db.create_path_index("full", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    before = db.path_index("full").cardinality
    node = db.create_node(["A"])
    assert db.path_index("full").cardinality == before
    with db.begin() as tx:
        tx.delete_node(node)
        tx.success()
    assert db.path_index("full").cardinality == before


def test_multiple_indexes_maintained_together():
    db, rows = build_chain_db()
    db.create_path_index("sub", "(:A)-[:X]->(:B)")
    db.create_path_index("full", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    a, r1, b, r2, c = rows[0]
    db.delete_relationship(r1)
    assert db.verify_index("sub")
    assert db.verify_index("full")
    report = db.maintainer.last_report
    assert set(report) == {"sub", "full"}
    assert all(seconds >= 0 for seconds in report.values())


def test_sub_index_can_assist_full_index_maintenance():
    db, rows = build_chain_db()
    db.create_path_index("sub", "(:B)-[:Y]->(:A)")
    db.create_path_index("full", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    db.maintainer.hints = PlannerHints(required_indexes=frozenset({"sub"}))
    a, r1, b, r2, c = rows[0]
    db.delete_relationship(r1)
    assert db.verify_index("full")
    assert db.verify_index("sub")
    db.create_relationship(a, b, "X")
    assert db.verify_index("full")
    assert db.verify_index("sub")


def test_rollback_leaves_indexes_untouched():
    db, rows = build_chain_db()
    db.create_path_index("full", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    with db.begin() as tx:
        tx.delete_relationship(rows[0][1])
        # no success: rollback
    assert db.path_index("full").cardinality == 6
    assert db.verify_index("full")


def test_add_and_delete_same_relationship_in_one_tx():
    db, rows = build_chain_db()
    db.create_path_index("full", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    _, _, b, _, _ = rows[0]
    new_a = db.create_node(["A"])
    with db.begin() as tx:
        rel = tx.create_relationship(new_a, b, db.relationship_type("X"))
        tx.delete_relationship(rel)
        tx.success()
    assert db.path_index("full").cardinality == 6
    assert db.verify_index("full")


def test_mixed_direction_pattern_maintenance():
    db = GraphDatabase()
    a = db.create_node(["A"])
    b = db.create_node(["B"])
    c = db.create_node(["C"])
    db.create_relationship(a, b, "X")
    rel = db.create_relationship(c, b, "Y")  # pattern reads (b)<-[:Y]-(c)
    db.create_path_index("mixed", "(:A)-[:X]->(:B)<-[:Y]-(:C)")
    assert db.path_index("mixed").cardinality == 1
    db.delete_relationship(rel)
    assert db.path_index("mixed").cardinality == 0
    assert db.verify_index("mixed")
    db.create_relationship(c, b, "Y")
    assert db.path_index("mixed").cardinality == 1
    assert db.verify_index("mixed")


# ---------------------------------------------------------------------------
# Traversal translation (De Jong method 1) equals the query-based results
# ---------------------------------------------------------------------------


def test_traverse_pattern_rel_anchor():
    db, rows = build_chain_db()
    pattern = PathPattern.parse("(:A)-[:X]->(:B)-[:Y]->(:A)")
    a, r1, b, r2, c = rows[0]
    found = list(traverse_pattern(db.store, pattern, Anchor(0, r1, a, b)))
    assert found == [(a, r1, b, r2, c)]
    found = list(traverse_pattern(db.store, pattern, Anchor(1, r2, b, c)))
    assert found == [(a, r1, b, r2, c)]


def test_traverse_pattern_node_anchor():
    db, rows = build_chain_db()
    pattern = PathPattern.parse("(:A)-[:X]->(:B)-[:Y]->(:A)")
    a, r1, b, r2, c = rows[0]
    assert list(traverse_pattern(db.store, pattern, NodeAnchor(1, b))) == [
        (a, r1, b, r2, c)
    ]
    # An anchor that fails the label check yields nothing.
    assert list(traverse_pattern(db.store, pattern, NodeAnchor(0, b))) == []


# ---------------------------------------------------------------------------
# Property-based differential test: random mutations, indexes stay exact
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    strategy=st.sampled_from(["query", "traversal"]),
)
def test_random_mutations_keep_indexes_consistent(seed, strategy):
    rng = random.Random(seed)
    db = GraphDatabase(maintenance_strategy=strategy)
    labels = ["A", "B"]
    types = ["X", "Y"]
    nodes = [db.create_node([rng.choice(labels)]) for _ in range(8)]
    rels: list[int] = []
    for _ in range(12):
        rels.append(
            db.create_relationship(
                rng.choice(nodes), rng.choice(nodes), rng.choice(types)
            )
        )
    db.create_path_index("one", "(:A)-[:X]->(:B)")
    db.create_path_index("two", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    db.create_path_index("rev", "(:B)<-[:X]-(:A)")
    for _ in range(15):
        action = rng.random()
        if action < 0.35 and rels:
            victim = rels.pop(rng.randrange(len(rels)))
            db.delete_relationship(victim)
        elif action < 0.7:
            rels.append(
                db.create_relationship(
                    rng.choice(nodes), rng.choice(nodes), rng.choice(types)
                )
            )
        elif action < 0.85:
            db.add_label(rng.choice(nodes), rng.choice(labels))
        else:
            node = rng.choice(nodes)
            label = rng.choice(labels)
            db.remove_label(node, label)
    for name in ("one", "two", "rev"):
        assert db.verify_index(name), f"index {name} diverged (seed={seed})"


# ---------------------------------------------------------------------------
# Prepared maintenance queries: the cached plans change nothing but the cost
# ---------------------------------------------------------------------------

BUDGETS = (None, 8 << 20)

LABELS = ("A", "B")
TYPES = ("X", "Y")
PATTERNS = {
    "one": "(:A)-[:X]->(:B)",
    "two": "(:A)-[:X]->(:B)-[:Y]->(:A)",
    "rev": "(:B)<-[:X]-(:A)",
    "xx": "(:A)-[:X]->(:A)-[:X]->(:A)",
}
OPS = ("create", "delete", "add_label", "remove_label", "tx", "rollback", "cypher")

write_sequences = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=0, max_value=999),
    ),
    min_size=1,
    max_size=12,
)


class Scenario:
    """One database driven by a write sequence; identical sequences give
    identical identifiers, so databases can be compared entry by entry."""

    def __init__(self, engine, budget, strategy="query", clear_cache=False):
        kwargs = {} if budget is None else {"memory_budget": budget, "memory_grant": 4096}
        self.db = GraphDatabase(
            execution_mode=engine, maintenance_strategy=strategy, **kwargs
        )
        self.clear_cache = clear_cache
        db = self.db
        self.nodes = [db.create_node([LABELS[i % 2]]) for i in range(8)]
        self.rels = [
            db.create_relationship(
                self.nodes[i % 8], self.nodes[(i * 3 + 1) % 8], TYPES[i % 2]
            )
            for i in range(10)
        ]
        for name, pattern in PATTERNS.items():
            db.create_path_index(name, pattern)

    def apply(self, op):
        """Run one write op; returns the commit's index deltas."""
        kind, a, b, c = op
        db, nodes, rels = self.db, self.nodes, self.rels
        if self.clear_cache:
            db.maintenance_plan_cache.clear()
        start, end = nodes[a % len(nodes)], nodes[b % len(nodes)]
        if kind == "create":
            rels.append(db.create_relationship(start, end, TYPES[c % 2]))
        elif kind == "delete":
            if rels:
                db.delete_relationship(rels.pop(a % len(rels)))
        elif kind == "add_label":
            db.add_label(start, LABELS[b % 2])
        elif kind == "remove_label":
            db.remove_label(start, LABELS[b % 2])
        elif kind == "tx":
            with db.begin() as tx:
                rels.append(
                    tx.create_relationship(start, end, db.relationship_type(TYPES[c % 2]))
                )
                if len(rels) > 1:
                    tx.delete_relationship(rels.pop(c % (len(rels) - 1)))
                tx.add_label(end, db.label(LABELS[a % 2]))
                tx.success()
        elif kind == "rollback":
            with db.begin() as tx:
                tx.create_relationship(start, end, db.relationship_type(TYPES[c % 2]))
                if rels:
                    tx.delete_relationship(rels[a % len(rels)])
        else:
            db.execute(
                f"MATCH (a:A) WHERE id(a) = {start} "
                "CREATE (a)-[:X]->(b:B)-[:Y]->(c:A)"
            ).consume()
        return list(db.maintainer.last_changes)

    def scans(self):
        return {name: list(self.db.path_index(name).scan()) for name in PATTERNS}


@contextmanager
def internal_engine(engine):
    """Run the internal pattern queries on ``engine`` too, not only the
    Cypher writes (production pins one engine in code)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(patternquery, "ENGINE", engine)
        yield


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=8, deadline=None)
@given(ops=write_sequences)
def test_cached_maintenance_equals_replanned_maintenance(engine, budget, ops):
    with internal_engine(engine):
        cached = Scenario(engine, budget)
        replanned = Scenario(engine, budget, clear_cache=True)
        traversal = Scenario(engine, budget, strategy="traversal")
        for op in ops:
            changes = cached.apply(op)
            assert replanned.apply(op) == changes, op
            # De Jong's traversal finds the same deltas; only the order
            # within one anchored query may differ.
            assert sorted(traversal.apply(op)) == sorted(changes), op
        assert cached.scans() == replanned.scans() == traversal.scans()
        for scenario in (cached, replanned, traversal):
            for name in PATTERNS:
                assert scenario.db.verify_index(name), name


def plan_index_names(plan) -> set[str]:
    """Every index a plan tree reads (path-index operators and the type
    scan all carry ``index_name``)."""
    names = {plan.index_name} if getattr(plan, "index_name", "") else set()
    for child in plan.children:
        names |= plan_index_names(child)
    return names


def build_assisted_db():
    """``sub`` can answer half of ``full``; cheap index operators make the
    planner want it whenever it is allowed to."""
    db = GraphDatabase()
    rows = []
    for _ in range(12):
        a, b, c = db.create_node(["A"]), db.create_node(["B"]), db.create_node(["A"])
        rows.append((a, db.create_relationship(a, b, "X"), b,
                     db.create_relationship(b, c, "Y"), c))
    db.create_path_index("sub", "(:B)-[:Y]->(:A)")
    db.create_path_index("full", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    db.maintainer.hints = PlannerHints(path_index_cost_factor=0.001)
    return db, rows


def test_cached_plans_never_use_a_forbidden_index():
    db, rows = build_assisted_db()
    for a, r1, b, r2, c in rows[:4]:
        db.delete_relationship(r1)
        db.create_relationship(a, b, "X")
        db.delete_relationship(r2)
        db.create_relationship(b, c, "Y")
    assert db.verify_index("sub") and db.verify_index("full")
    entries = db.maintenance_plan_cache.items()
    used = set()
    for (pattern, kind, position, hints), prepared in entries:
        for _, plan in prepared.planned_parts:
            names = plan_index_names(plan)
            assert not names & hints.forbidden_indexes, (str(pattern), position)
            used |= names
    # Not vacuous: additions to `full` ran with `full` forbidden and `sub`
    # already updated, and those plans do read `sub`.
    assert any(hints.forbidden_indexes == {"full"} for (_, _, _, hints), _ in entries)
    assert "sub" in used
    assert db.maintenance_plan_cache.hits > 0


def test_changed_maintainer_hints_get_their_own_plans():
    db, rows = build_assisted_db()
    db.maintainer.hints = PlannerHints()
    a, r1, b, r2, c = rows[0]
    db.delete_relationship(r1)
    r1 = db.create_relationship(a, b, "X")
    cache = db.maintenance_plan_cache
    size, misses = len(cache), cache.misses
    # What bench_table04 does: force the sub-index into maintenance plans.
    db.maintainer.hints = PlannerHints(required_indexes=frozenset({"sub"}))
    db.delete_relationship(r1)
    db.create_relationship(a, b, "X")
    assert cache.misses > misses and len(cache) > size
    forced = [
        prepared
        for (pattern, _, _, hints), prepared in cache.items()
        if hints.required_indexes == {"sub"}
    ]
    assert forced
    for prepared in forced:
        assert "sub" in plan_index_names(prepared.planned_parts[0][1])
    assert db.verify_index("sub") and db.verify_index("full")


def test_index_ddl_and_drift_invalidate_maintenance_plans():
    db, rows = build_chain_db()
    db.create_path_index("full", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    cache = db.maintenance_plan_cache
    a, r1, b, r2, c = rows[0]
    db.delete_relationship(r1)
    r1 = db.create_relationship(a, b, "X")
    assert len(cache) > 0
    before = cache.invalidations

    db.create_path_index("sub", "(:A)-[:X]->(:B)")  # DDL mid-stream
    assert cache.invalidations > before
    db.delete_relationship(r1)
    r1 = db.create_relationship(a, b, "X")
    assert db.verify_index("full") and db.verify_index("sub")

    before = cache.invalidations
    db.drop_path_index("sub")
    assert cache.invalidations > before and len(cache) == 0
    db.delete_relationship(r1)
    r1 = db.create_relationship(a, b, "X")
    assert db.verify_index("full")

    # Statistics drift: > 25 % more relationships than the plans were made for.
    before = cache.invalidations
    for _ in range(6):
        x, y = db.create_node(["A"]), db.create_node(["B"])
        db.create_relationship(x, y, "X")
    db.delete_relationship(r1)
    db.create_relationship(a, b, "X")
    assert cache.invalidations > before
    assert db.verify_index("full")


def test_recreated_index_name_is_maintained_for_its_new_pattern():
    db, rows = build_chain_db()
    db.create_path_index("p", "(:A)-[:X]->(:B)")
    a, r1, b, r2, c = rows[0]
    db.delete_relationship(r1)
    db.create_relationship(a, b, "X")
    db.drop_path_index("p")
    db.create_path_index("p", "(:B)-[:Y]->(:A)")
    db.delete_relationship(r2)
    assert db.path_index("p").cardinality == 5
    db.create_relationship(b, c, "Y")
    assert db.path_index("p").cardinality == 6
    assert db.verify_index("p")


def test_report_names_every_queried_index_once_per_commit():
    db, rows = build_chain_db()
    db.create_path_index("sub", "(:A)-[:X]->(:B)")
    db.create_path_index("full", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    a, r1, b, r2, c = rows[0]
    db.delete_relationship(r2)  # touches only `full`
    assert list(db.maintainer.last_report) == ["full"]
    assert db.maintainer.last_entry_counts == {"full": 1}
    assert db.maintainer.last_changes == [("remove", "full", (a, r1, b, r2, c))]
    with db.begin() as tx:
        tx.delete_relationship(r1)
        new = tx.create_relationship(a, b, db.relationship_type("X"))
        tx.success()
    # Small-to-large within each phase, removals before additions.
    assert list(db.maintainer.last_report) == ["sub", "full"]
    assert db.maintainer.last_changes == [
        ("remove", "sub", (a, r1, b)),
        ("add", "sub", (a, new, b)),
    ]
