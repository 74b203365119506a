"""White-box tests for IDP internals, hints plumbing, and error paths."""

import pytest

from repro import GraphDatabase, PlannerHints
from repro.cypher import analyze, parse
from repro.errors import PlannerError
from repro.planner import CostModel, Planner
from repro.planner.factory import PlanFactory
from repro.planner.idp import IDPSolver
from repro.querygraph import build_query_parts


def make_factory(db, query, hints=None):
    (part,) = build_query_parts(analyze(parse(query)))
    planner = Planner(db.store, db.indexes)
    factory = PlanFactory(part.query_graph, planner.estimator, CostModel())
    return part, factory


@pytest.fixture
def db():
    db = GraphDatabase()
    for _ in range(10):
        a = db.create_node(["A"])
        b = db.create_node(["B"])
        db.create_relationship(a, b, "X")
    return db


# ---------------------------------------------------------------------------
# PlannerHints
# ---------------------------------------------------------------------------


def test_hints_index_allowed_logic():
    hints = PlannerHints()
    assert hints.index_allowed("x")
    assert not PlannerHints(use_path_indexes=False).index_allowed("x")
    assert not PlannerHints(forbidden_indexes=frozenset({"x"})).index_allowed("x")
    restricted = PlannerHints(allowed_indexes=frozenset({"y"}))
    assert restricted.index_allowed("y")
    assert not restricted.index_allowed("x")


def test_hints_forbidding_removes_from_required():
    hints = PlannerHints(required_indexes=frozenset({"a", "b"}))
    derived = hints.forbidding("a")
    assert derived.required_indexes == frozenset({"b"})
    assert derived.forbidden_indexes == frozenset({"a"})
    # The original is untouched (hints are immutable values).
    assert hints.forbidden_indexes == frozenset()


def test_hints_forbidding_keeps_every_other_field():
    """Hints are cache keys: a field ``forbidding`` dropped would make
    Algorithm 1 plan under other controls than the caller's."""
    import dataclasses

    changed = {
        "use_path_indexes": False,
        "required_indexes": frozenset({"a", "b"}),
        "forbidden_indexes": frozenset({"c"}),
        "allowed_indexes": frozenset({"b", "d"}),
        "use_relationship_type_scan": False,
        "path_index_cost_factor": 0.5,
        "manual_expand_chain": ("n", ("r",)),
        "index_seed_chain": ("b", ("r",)),
        "use_index_cardinality": True,
    }
    fields = {field.name for field in dataclasses.fields(PlannerHints)}
    assert set(changed) == fields  # a new field must be listed here
    derived = PlannerHints(**changed).forbidding("a")
    for name in fields - {"required_indexes", "forbidden_indexes"}:
        assert getattr(derived, name) == changed[name], name
        assert changed[name] != getattr(PlannerHints(), name), name
    assert derived.required_indexes == frozenset({"b"})
    assert derived.forbidden_indexes == frozenset({"a", "c"})


def test_hints_are_hashable_for_the_plan_cache():
    key = {(PlannerHints(), "q"): 1}
    assert key[(PlannerHints(), "q")] == 1


# ---------------------------------------------------------------------------
# IDP comparator
# ---------------------------------------------------------------------------


def test_comparator_prefers_required_index_over_cost(db):
    db.create_path_index("ix", "(:A)-[:X]->(:B)")
    part, factory = make_factory(db, "MATCH (a:A)-[r:X]->(b:B) RETURN a")
    hints = PlannerHints(required_indexes=frozenset({"ix"}))
    solver = IDPSolver(
        factory, part.query_graph.connected_components()[0], db.indexes, hints
    )
    cheap = factory.node_leaf("a")
    expensive_with_index = solver.matches and factory.path_index_scan(
        solver.matches[0]
    )
    assert expensive_with_index is not None
    # Even if the index plan costs more, it beats the index-free plan.
    assert solver._better(expensive_with_index, cheap) or (
        expensive_with_index.cost <= cheap.cost
    )


def test_comparator_falls_back_to_cost_and_tiebreak(db):
    part, factory = make_factory(db, "MATCH (a:A)-[r:X]->(b:B) RETURN a")
    solver = IDPSolver(
        factory, part.query_graph.connected_components()[0], db.indexes,
        PlannerHints(),
    )
    cheap = factory.node_leaf("a")
    costly = factory.node_leaf("b")
    winner = cheap if cheap.cost < costly.cost else costly
    loser = costly if winner is cheap else cheap
    if winner.cost != loser.cost:
        assert solver._better(winner, loser)
        assert not solver._better(loser, winner)


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------


def test_required_unknown_index_raises(db):
    with pytest.raises(PlannerError):
        db.explain(
            "MATCH (a:A)-[r:X]->(b:B) RETURN a",
            PlannerHints(required_indexes=frozenset({"ghost"})),
        )


def test_index_seed_unknown_index_raises(db):
    with pytest.raises(PlannerError):
        db.explain(
            "MATCH (a:A)-[r:X]->(b:B) RETURN a",
            PlannerHints(index_seed_chain=("ghost", ())),
        )


def test_index_seed_non_matching_pattern_raises(db):
    db.create_path_index("other", "(:B)-[:X]->(:B)", populate=False)
    with pytest.raises(PlannerError):
        db.explain(
            "MATCH (a:A)-[r:X]->(b:B) RETURN a",
            PlannerHints(index_seed_chain=("other", ())),
        )


def test_index_seed_incomplete_coverage_raises(db):
    db.create_path_index("one", "(:A)-[:X]->(:B)")
    with pytest.raises(PlannerError):
        # Query has two relationships; seeding with the 1-step index and no
        # expansions leaves one unsolved.
        db.explain(
            "MATCH (a:A)-[r:X]->(b:B)<-[s:X]-(c:A) RETURN a",
            PlannerHints(index_seed_chain=("one", ())),
        )


# ---------------------------------------------------------------------------
# Component combination
# ---------------------------------------------------------------------------


def test_components_combined_cheapest_first(db):
    # One tiny component (single B node) and one larger (the X pattern):
    # the product should place the small side to drive the nested loop.
    plan_text = db.explain("MATCH (a:A)-[r:X]->(b:B), (c:B) RETURN a, c")
    assert "CartesianProduct" in plan_text


def test_isolated_argument_only_part(db):
    # A WITH boundary projecting a value, then RETURN: the second part's
    # query graph is empty and must plan as a bare Argument.
    rows = db.execute("MATCH (a:A) WITH count(*) AS c RETURN c + 1 AS d").to_list()
    assert rows == [{"d": 11}]
