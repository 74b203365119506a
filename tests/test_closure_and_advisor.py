"""Tests for the §5.1.4 closure extension and the §9 index advisor."""

import pytest

from repro import GraphDatabase, PathPattern
from repro.advisor import IndexAdvisor, extract_path_pattern
from repro.pathindex.closure import ClosureStep, closure, reachable_from


# ---------------------------------------------------------------------------
# Closure (§5.1.4)
# ---------------------------------------------------------------------------


def chain_db(length=5):
    """A chain of pattern applications: n0 →(A-X->A) n1 → ... → n_length."""
    db = GraphDatabase()
    nodes = [db.create_node(["A"]) for _ in range(length + 1)]
    for position in range(length):
        db.create_relationship(nodes[position], nodes[position + 1], "X")
    db.create_path_index("step", "(:A)-[:X]->(:A)")
    return db, nodes


def test_closure_on_chain():
    db, nodes = chain_db(4)
    steps = list(closure(db.path_index("step"), [nodes[0]]))
    expected = {
        ClosureStep(nodes[0], nodes[depth], depth) for depth in range(1, 5)
    }
    assert set(steps) == expected


def test_closure_min_and_max_depth():
    db, nodes = chain_db(4)
    index = db.path_index("step")
    steps = set(closure(index, [nodes[0]], min_depth=2, max_depth=3))
    assert steps == {
        ClosureStep(nodes[0], nodes[2], 2),
        ClosureStep(nodes[0], nodes[3], 3),
    }
    zero = set(closure(index, [nodes[0]], min_depth=0, max_depth=1))
    assert ClosureStep(nodes[0], nodes[0], 0) in zero
    assert ClosureStep(nodes[0], nodes[1], 1) in zero


def test_closure_default_starts_from_all_first_position_nodes():
    db, nodes = chain_db(2)
    starts = {step.start for step in closure(db.path_index("step"))}
    assert starts == {nodes[0], nodes[1]}  # nodes with outgoing X


def test_closure_terminates_on_cycles():
    db = GraphDatabase()
    a, b = db.create_node(["A"]), db.create_node(["A"])
    db.create_relationship(a, b, "X")
    db.create_relationship(b, a, "X")
    db.create_path_index("step", "(:A)-[:X]->(:A)")
    simple = list(closure(db.path_index("step"), [a]))
    assert set(simple) == {ClosureStep(a, b, 1)}  # simple paths: no revisit
    reach = set(closure(db.path_index("step"), [a], simple_paths=False))
    assert reach == {ClosureStep(a, b, 1)}  # a itself excluded at depth 2


def test_closure_over_multi_step_pattern():
    # Pattern (:A)-[:X]->(:B)-[:Y]->(:A): each application hops two edges.
    db = GraphDatabase()
    a_nodes = [db.create_node(["A"]) for _ in range(3)]
    for position in range(2):
        bridge = db.create_node(["B"])
        db.create_relationship(a_nodes[position], bridge, "X")
        db.create_relationship(bridge, a_nodes[position + 1], "Y")
    db.create_path_index("hop", "(:A)-[:X]->(:B)-[:Y]->(:A)")
    steps = set(closure(db.path_index("hop"), [a_nodes[0]]))
    assert steps == {
        ClosureStep(a_nodes[0], a_nodes[1], 1),
        ClosureStep(a_nodes[0], a_nodes[2], 2),
    }


def test_reachable_from():
    db, nodes = chain_db(3)
    assert reachable_from(db.path_index("step"), nodes[0]) == set(nodes[1:])
    assert reachable_from(db.path_index("step"), nodes[0], max_depth=1) == {
        nodes[1]
    }


def test_closure_validation():
    db, nodes = chain_db(1)
    index = db.path_index("step")
    with pytest.raises(ValueError):
        list(closure(index, [nodes[0]], min_depth=-1))
    with pytest.raises(ValueError):
        list(closure(index, [nodes[0]], min_depth=3, max_depth=1))


def test_closure_stays_consistent_under_maintenance():
    db, nodes = chain_db(3)
    index = db.path_index("step")
    assert reachable_from(index, nodes[0]) == set(nodes[1:])
    # Cut the chain in the middle; the closure must shrink accordingly.
    rel = next(iter(db.store.relationships_of(nodes[1]))).id
    db.delete_relationship(rel)
    reachable = reachable_from(index, nodes[0])
    assert nodes[3] not in reachable


# ---------------------------------------------------------------------------
# Pattern extraction
# ---------------------------------------------------------------------------


def test_extract_simple_chain():
    pattern = extract_path_pattern(
        "MATCH (a:A)-[x:X]->(b:B)<-[y:Y]-(c:C) RETURN *"
    )
    assert str(pattern) == "(:A)-[:X]->(:B)<-[:Y]-(:C)"


def test_extract_rejects_non_chains():
    assert extract_path_pattern("MATCH (a)-[r:X]->(a) RETURN a") is None
    assert (
        extract_path_pattern("MATCH (a)-[r:X]->(b), (a)-[s:Y]->(c), (a)-[t:Z]->(d) RETURN a")
        is None
    )
    assert extract_path_pattern("MATCH (a)-[r:X]-(b) RETURN a") is None  # undirected
    assert extract_path_pattern("not cypher") is None


# ---------------------------------------------------------------------------
# Advisor (§9)
# ---------------------------------------------------------------------------


def correlated_advisor_db():
    """Tiny correlated dataset: hidden (A-X->B-Y->A) paths + X noise."""
    import random

    rng = random.Random(5)
    db = GraphDatabase()
    a_pool = [db.create_node(["A"]) for _ in range(40)]
    b_pool = [db.create_node(["B"]) for _ in range(40)]
    for position in range(10):
        db.create_relationship(a_pool[position], b_pool[position], "X")
        db.create_relationship(b_pool[position], a_pool[position + 10], "Y")
    for _ in range(400):
        db.create_relationship(
            rng.choice(a_pool), rng.choice(b_pool[10:]), "X"
        )
    return db


def test_advisor_ranks_correlated_full_pattern_first():
    db = correlated_advisor_db()
    advisor = IndexAdvisor(db)
    workload = ["MATCH (a:A)-[x:X]->(b:B)-[y:Y]->(c:A) RETURN *"]
    candidates = advisor.candidates(workload)
    assert candidates, "no candidates extracted"
    best = candidates[0]
    assert str(best.pattern) == "(:A)-[:X]->(:B)-[:Y]->(:A)"
    assert best.actual_cardinality == 10
    assert best.misprediction_factor > 3


def test_advisor_leaves_the_maintenance_plan_cache_alone():
    db = correlated_advisor_db()
    before = db.maintenance_plan_cache.counters()
    advisor = IndexAdvisor(db)
    candidates = advisor.candidates(["MATCH (a:A)-[x:X]->(b:B)-[y:Y]->(c:A) RETURN *"])
    assert db.maintenance_plan_cache.counters() == before
    # One planning per candidate, each prepared once and run from that plan.
    assert advisor.queries.plan_cache.counters()["misses"] == len(candidates)
    assert advisor.queries.plan_cache.counters()["hits"] == 0


def test_advisor_budget_constrains_selection():
    db = correlated_advisor_db()
    advisor = IndexAdvisor(db)
    workload = ["MATCH (a:A)-[x:X]->(b:B)-[y:Y]->(c:A) RETURN *"]
    unlimited = advisor.advise(workload)
    assert len(unlimited) >= 2
    top_only = advisor.advise(workload, max_indexes=1)
    assert len(top_only) == 1
    # A budget below the big sub-pattern's footprint excludes it.
    big = max(candidate.estimated_bytes for candidate in unlimited)
    tight = advisor.advise(workload, budget_bytes=big - 1)
    assert all(candidate.estimated_bytes < big for candidate in tight)


def test_create_advised_builds_real_indexes():
    db = correlated_advisor_db()
    advisor = IndexAdvisor(db)
    workload = ["MATCH (a:A)-[x:X]->(b:B)-[y:Y]->(c:A) RETURN *"]
    names = advisor.create_advised(workload, max_indexes=2)
    assert len(names) == 2
    for name in names:
        assert name in db.indexes
        assert db.verify_index(name)
    # The advised index actually serves the workload.
    result = db.execute(workload[0])
    result.consume()
    assert result.max_intermediate_cardinality <= 20


def test_candidate_scoring_monotonicity():
    from repro.advisor import IndexCandidate

    pattern = PathPattern.parse("(:A)-[:X]->(:B)")
    mispredicted = IndexCandidate(pattern, 10, 1000.0, 240)
    accurate = IndexCandidate(pattern, 10, 10.0, 240)
    assert mispredicted.misprediction_factor == pytest.approx(100.0)
    assert accurate.misprediction_factor == pytest.approx(1.0)
    assert mispredicted.score(1000) > accurate.score(1000)
    # Under-estimation counts the same as over-estimation.
    under = IndexCandidate(pattern, 1000, 10.0, 240)
    assert under.misprediction_factor == pytest.approx(100.0)
