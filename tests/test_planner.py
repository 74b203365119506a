"""Planner tests: plan shapes, cost formulas, estimator, forced hints (§2.2, §5)."""

import pytest

from repro import GraphDatabase, PlannerHints
from repro.errors import PlannerError
from repro.planner.cost import CostModel
from repro.planner.plans import (
    PlanExpand,
    PlanNodeByLabelScan,
    PlanPathIndexFilteredScan,
    PlanPathIndexPrefixSeek,
    PlanPathIndexScan,
    PlanRelationshipByTypeScan,
)


def plan_operators(plan):
    """Flatten a plan tree into operator class names."""
    names = [type(plan).__name__]
    for child in plan.children:
        names.extend(plan_operators(child))
    return names


def find_op(plan, cls):
    if isinstance(plan, cls):
        return plan
    for child in plan.children:
        hit = find_op(child, cls)
        if hit is not None:
            return hit
    return None


def planned(db, query, hints=None):
    from repro.cypher import analyze, parse
    from repro.planner import Planner
    from repro.querygraph import build_query_parts

    parts = build_query_parts(analyze(parse(query)))
    planner = Planner(db.store, db.indexes)
    return [planner.plan_part(part, hints) for part in parts]


@pytest.fixture
def chain_db():
    """(a:A)-[:R]->(b:B)-[:S]->(c:C) chains, 20 of them."""
    db = GraphDatabase()
    for _ in range(20):
        a = db.create_node(["A"])
        b = db.create_node(["B"])
        c = db.create_node(["C"])
        db.create_relationship(a, b, "R")
        db.create_relationship(b, c, "S")
    return db


# ---------------------------------------------------------------------------
# Baseline planning shapes
# ---------------------------------------------------------------------------


def test_label_scan_chosen_over_all_nodes(chain_db):
    (plan,) = planned(chain_db, "MATCH (n:A) RETURN n")
    assert "PlanNodeByLabelScan" in plan_operators(plan)
    assert "PlanAllNodesScan" not in plan_operators(plan)


def test_chain_planned_with_expands(chain_db):
    (plan,) = planned(
        chain_db, "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN a, c"
    )
    operators = plan_operators(plan)
    assert operators.count("PlanExpand") == 2
    assert "PlanNodeByLabelScan" in operators


def test_expand_into_for_cycles(chain_db):
    # A triangle query on chain data: the last relationship closes between
    # bound nodes, forcing Expand(Into) (or a hash join).
    (plan,) = planned(
        chain_db, "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C), (a)-[t:T]->(c) RETURN a"
    )
    operators = plan_operators(plan)
    has_into = any(
        isinstance(node, PlanExpand) and node.into
        for node in _walk(plan)
    )
    assert has_into or "PlanNodeHashJoin" in operators


def _walk(plan):
    yield plan
    for child in plan.children:
        yield from _walk(child)


def test_cartesian_product_for_disconnected(chain_db):
    (plan,) = planned(chain_db, "MATCH (a:A), (c:C) RETURN a, c")
    assert "PlanCartesianProduct" in plan_operators(plan)


def test_filters_pushed_down(chain_db):
    (plan,) = planned(
        chain_db, "MATCH (a:A)-[r:R]->(b:B) WHERE a.x = 1 AND b.y = 2 RETURN a"
    )
    # The a.x filter should sit below the expand, directly on the scan.
    operators = plan_operators(plan)
    assert operators.count("PlanFilter") >= 2


# ---------------------------------------------------------------------------
# Relationship-by-type scan (§6.1 baseline extension)
# ---------------------------------------------------------------------------


def test_relationship_by_type_scan_offered_with_type_index(chain_db):
    chain_db.create_relationship_type_index("R")
    # With no selective label anywhere, the type scan is the cheapest access.
    (plan,) = planned(chain_db, "MATCH (a)-[r:R]->(b) RETURN a, b")
    scan = find_op(plan, PlanRelationshipByTypeScan)
    assert scan is not None
    assert scan.rel_type == "R"


def test_relationship_by_type_scan_disabled_by_hint(chain_db):
    chain_db.create_relationship_type_index("R")
    (plan,) = planned(
        chain_db,
        "MATCH (a)-[r:R]->(b) RETURN a, b",
        PlannerHints(use_relationship_type_scan=False),
    )
    assert find_op(plan, PlanRelationshipByTypeScan) is None


def test_type_scan_results_match_expand(chain_db):
    chain_db.create_relationship_type_index("R")
    query = "MATCH (a:A)-[r:R]->(b:B) RETURN a, b"
    with_scan = {
        (row["a"], row["b"])
        for row in chain_db.execute(
            query, PlannerHints(required_indexes=frozenset({"type:R"}))
        )
    }
    baseline = {
        (row["a"], row["b"])
        for row in chain_db.execute(query, PlannerHints(use_path_indexes=False))
    }
    assert with_scan == baseline


# ---------------------------------------------------------------------------
# Path index planning (§5.1)
# ---------------------------------------------------------------------------


def test_exact_pattern_match_plans_path_index_scan(chain_db):
    chain_db.create_path_index("full", "(:A)-[:R]->(:B)-[:S]->(:C)")
    (plan,) = planned(
        chain_db,
        "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN a, c",
        PlannerHints(required_indexes=frozenset({"full"})),
    )
    scan = find_op(plan, PlanPathIndexScan)
    assert scan is not None
    assert scan.entry_vars == ("a", "r", "b", "s", "c")


def test_residual_predicate_plans_filtered_scan(chain_db):
    chain_db.create_path_index("full", "(:A)-[:R]->(:B)-[:S]->(:C)")
    (plan,) = planned(
        chain_db,
        "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) WHERE a.x = 1 RETURN a",
        PlannerHints(required_indexes=frozenset({"full"})),
    )
    assert find_op(plan, PlanPathIndexFilteredScan) is not None


def test_sub_pattern_index_plans_prefix_seek():
    # One selective A anchor plus a large (:B)-[:S]->(:C) population: seeking
    # the suffix index per bound b beats scanning all of it.
    db = GraphDatabase()
    a = db.create_node(["A"])
    b0 = db.create_node(["B"])
    db.create_relationship(a, b0, "R")
    c0 = db.create_node(["C"])
    db.create_relationship(b0, c0, "S")
    for _ in range(200):
        b = db.create_node(["B"])
        c = db.create_node(["C"])
        db.create_relationship(b, c, "S")
    db.create_path_index("suffix", "(:B)-[:S]->(:C)")
    (plan,) = planned(
        db,
        "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN a, c",
        PlannerHints(required_indexes=frozenset({"suffix"})),
    )
    seek = find_op(plan, PlanPathIndexPrefixSeek)
    assert seek is not None
    assert seek.entry_vars == ("b", "s", "c")
    assert seek.prefix_length == 1  # b is bound by the child plan
    rows = db.execute(
        "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN a, c",
        PlannerHints(required_indexes=frozenset({"suffix"})),
    ).to_list()
    assert rows == [{"a": a, "c": c0}]


def test_forbidden_index_not_used(chain_db):
    chain_db.create_path_index("full", "(:A)-[:R]->(:B)-[:S]->(:C)")
    (plan,) = planned(
        chain_db,
        "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN a",
        PlannerHints(
            forbidden_indexes=frozenset({"full"}),
            path_index_cost_factor=0.0,  # would otherwise always win
        ),
    )
    assert find_op(plan, PlanPathIndexScan) is None


def test_required_index_unmatchable_raises(chain_db):
    chain_db.create_path_index("other", "(:C)-[:R]->(:C)")
    with pytest.raises(PlannerError):
        planned(
            chain_db,
            "MATCH (a:A)-[r:R]->(b:B) RETURN a",
            PlannerHints(required_indexes=frozenset({"other"})),
        )


def test_path_index_disabled_hint(chain_db):
    chain_db.create_path_index("full", "(:A)-[:R]->(:B)-[:S]->(:C)")
    (plan,) = planned(
        chain_db,
        "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN a",
        PlannerHints(use_path_indexes=False, path_index_cost_factor=0.0),
    )
    assert find_op(plan, PlanPathIndexScan) is None


def test_index_results_equal_baseline(chain_db):
    chain_db.create_path_index("full", "(:A)-[:R]->(:B)-[:S]->(:C)")
    chain_db.create_path_index("suffix", "(:B)-[:S]->(:C)")
    query = "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN a, b, c"
    baseline = {
        tuple(sorted(row.items()))
        for row in chain_db.execute(query, PlannerHints(use_path_indexes=False))
    }
    for index_name in ("full", "suffix"):
        forced = {
            tuple(sorted(row.items()))
            for row in chain_db.execute(
                query, PlannerHints(required_indexes=frozenset({index_name}))
            )
        }
        assert forced == baseline, index_name


# ---------------------------------------------------------------------------
# Manual plan (YAGO §7.3)
# ---------------------------------------------------------------------------


def test_manual_expand_chain(chain_db):
    (plan,) = planned(
        chain_db,
        "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN a",
        PlannerHints(manual_expand_chain=("c", ("s", "r"))),
    )
    operators = plan_operators(plan)
    assert operators.count("PlanExpand") == 2
    scan = find_op(plan, PlanNodeByLabelScan)
    assert scan.node == "c"


def test_manual_chain_validation(chain_db):
    query = "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN a"
    with pytest.raises(PlannerError):
        planned(chain_db, query, PlannerHints(manual_expand_chain=("z", ("r", "s"))))
    with pytest.raises(PlannerError):
        planned(chain_db, query, PlannerHints(manual_expand_chain=("a", ("s",))))
    with pytest.raises(PlannerError):
        planned(chain_db, query, PlannerHints(manual_expand_chain=("a", ("r",))))


def test_manual_plan_results_match(chain_db):
    query = "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN a, c"
    manual = chain_db.execute(
        query, PlannerHints(manual_expand_chain=("c", ("s", "r")))
    ).to_list()
    baseline = chain_db.execute(query, PlannerHints(use_path_indexes=False)).to_list()
    assert sorted(map(str, manual)) == sorted(map(str, baseline))


# ---------------------------------------------------------------------------
# Cost model formulas (§5.1 exactly)
# ---------------------------------------------------------------------------


def test_path_index_scan_cost_formula():
    cost = CostModel()
    assert cost.path_index_scan(1000.0, 9) == pytest.approx(1000.0 * (1 + 0.9))


def test_path_index_filtered_scan_cost_formula():
    cost = CostModel()
    assert cost.path_index_filtered_scan(1000.0, 9) == pytest.approx(
        1000.0 * (1.05 + 0.9)
    )


def test_path_index_prefix_seek_cost_formula():
    cost = CostModel()
    # child cost 100, child card 50, prefix 3 of 5 symbols, out card 200:
    # m = 50 * 3/5 = 30; cost = 2*100 + 10*30 + 200/30
    expected = 200.0 + 300.0 + 200.0 / 30.0
    assert cost.path_index_prefix_seek(100.0, 50.0, 3, 5, 200.0) == pytest.approx(
        expected
    )


def test_debug_cost_factor_scales(chain_db):
    cost = CostModel(path_index_cost_factor=0.5)
    assert cost.path_index_scan(100.0, 9) == pytest.approx(0.5 * 190.0)


# ---------------------------------------------------------------------------
# Cardinality estimator (independence model)
# ---------------------------------------------------------------------------


def test_estimator_node_cardinality(chain_db):
    from repro.planner import CardinalityEstimator

    est = CardinalityEstimator(
        chain_db.store.statistics, chain_db.store.labels, chain_db.store.types
    )
    assert est.node_cardinality(["A"]) == pytest.approx(20.0)
    assert est.all_nodes() == pytest.approx(60.0)
    # Independence: P(A and B) = 20/60 * 20/60 of 60 nodes.
    assert est.node_cardinality(["A", "B"]) == pytest.approx(60 * (1 / 3) * (1 / 3))


def test_estimator_relationship_counts(chain_db):
    from repro.planner import CardinalityEstimator

    est = CardinalityEstimator(
        chain_db.store.statistics, chain_db.store.labels, chain_db.store.types
    )
    assert est.relationship_count_estimate(
        frozenset({"A"}), frozenset({"R"}), frozenset({"B"})
    ) == pytest.approx(20.0)
    assert est.relationship_count_estimate(
        frozenset(), frozenset({"R"}), frozenset()
    ) == pytest.approx(20.0)
    assert est.relationship_count_estimate(
        frozenset({"C"}), frozenset({"R"}), frozenset()
    ) == pytest.approx(0.0)


def test_estimator_misprediction_on_correlated_data():
    """The independence assumption overestimates correlated patterns — the
    effect driving the paper's baseline plans (§3)."""
    from repro.planner import CardinalityEstimator
    from repro.cypher import analyze, parse
    from repro.querygraph import build_query_parts

    db = GraphDatabase()
    # 10 paths a->b with extra uncorrelated R edges between other A nodes.
    import random

    rng = random.Random(1)
    a_nodes = [db.create_node(["A"]) for _ in range(50)]
    b_nodes = [db.create_node(["B"]) for _ in range(50)]
    for i in range(10):
        db.create_relationship(a_nodes[i], b_nodes[i], "R")
        db.create_relationship(b_nodes[i], a_nodes[i + 10], "S")
    for _ in range(300):
        # Noise R edges target only B nodes with no outgoing S, so the true
        # pattern count stays at 10 while per-type statistics explode.
        db.create_relationship(rng.choice(a_nodes), rng.choice(b_nodes[10:]), "R")

    (part,) = build_query_parts(
        analyze(parse("MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:A) RETURN a"))
    )
    est = CardinalityEstimator(db.store.statistics, db.store.labels, db.store.types)
    estimate = est.pattern_cardinality(
        part.query_graph, frozenset({"r", "s"}), frozenset({"a", "b", "c"})
    )
    actual = len(
        db.execute("MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:A) RETURN a").to_list()
    )
    assert actual == 10
    # The estimator assumes every R is equally likely to precede an S.
    assert estimate > actual * 3


# ---------------------------------------------------------------------------
# Sargable id(x) = k: NodeByIdSeek, its estimate, and the benchmark's plans
# ---------------------------------------------------------------------------


def test_id_equality_plans_node_by_id_seek(chain_db):
    from repro.planner.plans import PlanFilter, PlanNodeByIdSeek

    for text in (
        "MATCH (a:A)-[r:R]->(b:B) WHERE id(a) = 3 RETURN b",
        "MATCH (a:A)-[r:R]->(b:B) WHERE 3 = id(a) RETURN b",
    ):
        (plan,) = planned(chain_db, text)
        seek = find_op(plan, PlanNodeByIdSeek)
        assert seek is not None, plan.render()
        assert (seek.node, seek.node_id, seek.post_labels) == ("a", 3, (("a", "A"),))
        assert seek.cardinality == pytest.approx(1.0)
        assert seek.description == "NodeByIdSeek(a = 3; a:A)"
        operators = plan_operators(plan)
        assert "PlanNodeByLabelScan" not in operators
        assert find_op(plan, PlanFilter) is None  # the seek applied it
    (plan,) = planned(chain_db, "MATCH (n) WHERE id(n) = 3 RETURN n")
    assert find_op(plan, PlanNodeByIdSeek).description == "NodeByIdSeek(n = 3)"


@pytest.mark.parametrize(
    "predicate",
    [
        "id(a) = TRUE",  # a bool is an int to Python, not to Cypher
        "id(a) = 3.0",
        "id(a) = '3'",
        "id(a) = NULL",
        "id(a) = -3",
        "id(a) = id(b)",
        "id(a) + 0 = 3",
        "id(a) <> 3",
    ],
)
def test_non_id_literals_stay_ordinary_predicates(chain_db, predicate):
    from repro.planner.plans import PlanNodeByIdSeek

    (plan,) = planned(
        chain_db, f"MATCH (a:A)-[r:R]->(b:B) WHERE {predicate} RETURN b"
    )
    assert find_op(plan, PlanNodeByIdSeek) is None, plan.render()


def test_second_id_equality_on_a_variable_stays_a_filter(chain_db):
    from repro.planner.plans import PlanFilter, PlanNodeByIdSeek

    text = "MATCH (a:A) WHERE id(a) = 0 AND id(a) = 3 RETURN a"
    (plan,) = planned(chain_db, text)
    assert find_op(plan, PlanNodeByIdSeek).node_id == 0
    assert [str(p) for p in find_op(plan, PlanFilter).predicates] == ["id(a) = 3"]
    assert chain_db.execute(text).to_list() == []
    assert len(chain_db.execute("MATCH (a:A) WHERE id(a) = 0 AND id(a) = 0 RETURN a").to_list()) == 1


def test_id_equality_selectivity_is_one_candidate(chain_db):
    from repro.cypher import analyze, parse
    from repro.planner import CardinalityEstimator
    from repro.querygraph import build_query_parts

    (part,) = build_query_parts(
        analyze(
            parse(
                "MATCH (a:A)-[r:R]->(b:B) "
                "WHERE id(a) = 3 AND id(r) = 1 AND a.v = 1 RETURN b"
            )
        )
    )
    by_id, by_rel, by_property = part.query_graph.selections
    est = CardinalityEstimator(
        chain_db.store.statistics, chain_db.store.labels, chain_db.store.types
    )
    assert est.predicate_selectivity(by_id, part.query_graph) == pytest.approx(1 / 20)
    assert est.predicate_selectivity(by_rel, part.query_graph) == pytest.approx(1 / 20)
    # Everything else — and an id-equality whose variable is unknown — keeps
    # the paper's defaults.
    assert est.predicate_selectivity(by_property, part.query_graph) == 0.1
    assert est.predicate_selectivity(by_id) == 0.1


def _perfbench():
    """The benchmark's own workload classes, so the golden plans below are
    the plans of the texts it runs — not of a copy of them."""
    import os
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "perfbench")):
        pytest.skip("perfbench/ is not part of this checkout")
    if root not in sys.path:
        sys.path.insert(0, root)
    import perfbench
    from perfbench import embedded

    return perfbench, embedded


def _shapes(db, texts_and_hints):
    import re

    return [
        re.sub(
            r"= \d+",
            "= k",
            "\n".join(
                plan.render(with_estimates=False)
                for plan in planned(db, text, hints)
            ),
        )
        for text, hints in texts_and_hints
    ]


def test_golden_plans_of_perfbench_index_read(tmp_path):
    """``index_read`` fails its run when PathIndexScan, PathIndexFilteredScan
    or PathIndexPrefixSeek drops out of these five plans; a cost change that
    flips one is caught here first."""
    perfbench, embedded = _perfbench()
    workload = embedded.IndexRead(
        perfbench.DEFAULT_SEED, perfbench.FULL, str(tmp_path), False
    )
    workload.setup()
    try:
        assert workload.missing_operators == []
        shapes = _shapes(workload.db, [(r.text, r.hints) for r in workload.reads])
    finally:
        workload.db.close()
    star = "Projection(a AS a, w AS w, b AS b, x AS x, c AS c, y AS y, d AS d, z AS z, e AS e)\n"
    assert shapes == [
        star + "  PathIndexScan(Full: a, w, b, x, c, y, d, z, e)",
        star + "  PathIndexFilteredScan(Full: a, w, b, x, c, y, d, z, e; a <> e)",
        "Projection(id(a) AS a, id(d) AS d)\n"
        "  PathIndexPrefixSeek(Sub4: [b] -> x, c, y, d)\n"
        "    Expand(All)((a)-[w:X]->(b))\n"
        "      NodeByIdSeek(a = k; a:A)",
        "Projection(id(d) AS d)\n"
        "  PathIndexFilteredScan(Sub7: a, y, d; id(a) = k)",
        "Projection(id(d) AS d)\n"
        "  PathIndexFilteredScan(Sub1: a, w, b, x, c, y, d; id(a) = k)",
    ]


def test_golden_plans_of_perfbench_adhoc_families(tmp_path):
    perfbench, embedded = _perfbench()
    workload = embedded.AdhocPlan(
        perfbench.DEFAULT_SEED, perfbench.FULL, str(tmp_path), False
    )
    workload.setup()
    try:
        texts = [
            workload.text(workload.graph, workload.order, n)
            for n in range(len(workload.FAMILIES))
        ]
        shapes = _shapes(workload.db, [(text, None) for text in texts])
    finally:
        workload.db.close()
    limit = "Limit(skip=0, limit=1)\n"
    full = "    PathIndexFilteredScan(Full: a, w, b, x, c, y, d, z, e; id(e) = k)"
    assert shapes == [
        limit + "  Projection(id(a) AS a)\n" + full,
        limit + "  Projection(id(e) AS e)\n"
        "    PathIndexFilteredScan(Sub2: b, x, c, y, d, z, e; id(b) = k)",
        limit + "  Projection(id(a) AS a)\n"
        "    PathIndexFilteredScan(Sub1: a, w, b, x, c, y, d; id(d) = k)",
        limit + "  Projection(id(d) AS d)\n"
        "    PathIndexFilteredScan(Sub4: b, x, c, y, d; id(b) = k)",
        limit + "  Projection(id(e) AS e)\n"
        "    PathIndexFilteredScan(Sub8: d, z, e; id(d) = k)",
        limit + "  Projection(id(b) AS b, id(c) AS c)\n" + full,
    ]


def test_plans_without_id_equality_keep_their_estimates(chain_db):
    """The paper's formulas, bit for bit, for texts without an id-equality
    (values rendered by the parent of the change that made it sargable)."""
    chain_db.create_path_index("full", "(:A)-[:R]->(:B)-[:S]->(:C)")
    assert chain_db.explain(
        "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) WHERE a <> c AND b.v = 1 RETURN a"
    ) == (
        "Projection(a)  [card≈2, cost≈3]\n"
        "  PathIndexFilteredScan(full: a, r, b, s, c; a <> c AND b.v = 1)"
        "  [card≈2, cost≈3]"
    )
    assert chain_db.explain(
        "MATCH (a:A)-[r:R]->(b:B) WHERE id(a) < 7 RETURN b",
        PlannerHints(use_path_indexes=False),
    ) == (
        "Projection(b)  [card≈6, cost≈56]\n"
        "  Expand(All)((a)-[r:R]->(b))  [card≈6, cost≈55]\n"
        "    Filter(id(a) < 7)  [card≈6, cost≈40]\n"
        "      NodeByLabelScan(a:A)  [card≈20, cost≈20]"
    )
