"""Property-based plan equivalence: every plan family returns the same rows.

The strongest correctness property of the system: for random small graphs
and a family of pattern queries, the baseline expansion plans, forced
path-index plans (scan / filtered scan / prefix seek), manual plans and
seeded index plans must all produce exactly the same multiset of result
rows. This exercises the planner, every runtime operator, the index
machinery and maintenance-initialized indexes against each other.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphDatabase, PlannerHints
from repro.errors import PlannerError

LABELS = ("A", "B")
TYPES = ("X", "Y")

QUERIES = [
    "MATCH (a:A)-[x:X]->(b:B) RETURN *",
    "MATCH (a:A)-[x:X]->(b)-[y:Y]->(c:A) RETURN *",
    "MATCH (a)-[x:X]->(b:B)<-[y:Y]-(c) RETURN *",
    "MATCH (a:A)-[x:X]->(b:B) WHERE a.v <> b.v RETURN *",
    "MATCH (a:A)-[x:X]->(b)-[y:X]->(c) RETURN *",
    "MATCH (a:A)-[x:X]->(b:B)-[y:Y]->(c:A) RETURN *",
]

INDEX_PATTERNS = {
    "ix_xy": "(:A)-[:X]->()-[:Y]->(:A)",
    "ix_x": "(:A)-[:X]->(:B)",
    "ix_rev": "(:B)<-[:X]-(:A)",
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


def result_multiset(db, query, hints):
    rows = db.execute(query, hints).to_list()
    return sorted(tuple(sorted(row.items())) for row in rows)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_all_plan_families_agree(seed):
    db = build_random_db(seed)
    for name, pattern in INDEX_PATTERNS.items():
        db.create_path_index(name, pattern)
    for query in QUERIES:
        baseline = result_multiset(
            db, query, PlannerHints(use_path_indexes=False)
        )
        # Natural (cost-based) planning with all indexes available.
        natural = result_multiset(db, query, None)
        assert natural == baseline, (seed, query, "natural")
        # Index plans forced one at a time where the pattern matches.
        for name in INDEX_PATTERNS:
            hints = PlannerHints(
                required_indexes=frozenset({name}),
                allowed_indexes=frozenset({name}),
                path_index_cost_factor=1e-9,
            )
            try:
                forced = result_multiset(db, query, hints)
            except PlannerError:
                continue  # index does not embed into this query
            assert forced == baseline, (seed, query, name)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_plans_agree_after_random_updates(seed):
    """Equivalence must survive maintenance: mutate, then re-compare."""
    rng = random.Random(seed ^ 0xBEEF)
    db = build_random_db(seed)
    for name, pattern in INDEX_PATTERNS.items():
        db.create_path_index(name, pattern)
    nodes = list(db.store.all_nodes())
    rels = list(db.store.all_relationships())
    for _ in range(8):
        roll = rng.random()
        if roll < 0.4 and rels:
            victim = rels.pop(rng.randrange(len(rels)))
            db.delete_relationship(victim)
        elif roll < 0.8:
            rels.append(
                db.create_relationship(
                    rng.choice(nodes), rng.choice(nodes), rng.choice(TYPES)
                )
            )
        elif roll < 0.9:
            db.add_label(rng.choice(nodes), rng.choice(LABELS))
        else:
            db.remove_label(rng.choice(nodes), rng.choice(LABELS))
    for name in INDEX_PATTERNS:
        assert db.verify_index(name), (seed, name)
    query = QUERIES[1]
    baseline = result_multiset(db, query, PlannerHints(use_path_indexes=False))
    natural = result_multiset(db, query, None)
    assert natural == baseline


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_exact_index_cardinality_mode_agrees(seed):
    """The §9 extension changes plan *choice*, never plan *results*."""
    db = build_random_db(seed)
    for name, pattern in INDEX_PATTERNS.items():
        db.create_path_index(name, pattern)
    exact = PlannerHints(use_index_cardinality=True)
    for query in QUERIES:
        baseline = result_multiset(db, query, PlannerHints(use_path_indexes=False))
        assert result_multiset(db, query, exact) == baseline, (seed, query)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_manual_chains_agree(seed):
    db = build_random_db(seed)
    query = "MATCH (a:A)-[x:X]->(b)-[y:Y]->(c:A) RETURN *"
    baseline = result_multiset(db, query, PlannerHints(use_path_indexes=False))
    for chain in (("a", ("x", "y")), ("c", ("y", "x")), ("b", ("x", "y"))):
        hints = PlannerHints(use_path_indexes=False, manual_expand_chain=chain)
        assert result_multiset(db, query, hints) == baseline, (seed, chain)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_seeded_index_chains_agree(seed):
    db = build_random_db(seed)
    db.create_path_index("ix_x", INDEX_PATTERNS["ix_x"])
    query = "MATCH (a:A)-[x:X]->(b:B)-[y:Y]->(c:A) RETURN *"
    baseline = result_multiset(db, query, PlannerHints(use_path_indexes=False))
    hints = PlannerHints(index_seed_chain=("ix_x", ("y",)))
    assert result_multiset(db, query, hints) == baseline, seed
