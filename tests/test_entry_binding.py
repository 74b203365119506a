"""Path-index entry binding in generated code, against the oracle.

Generated code binds an index entry inline and emits only the checks the
plan lets fail (see ``repro.runtime.compiled.codegen``). These cases aim
at the checks codegen decides to keep or drop — repeated variables,
argument-bound variables, relationship ids already in the uniqueness scope,
residual label and type filters, self-loops — and check the rows against
the brute-force oracle, and rows, operator profiles and max intermediate
cardinality across output chunk sizes 1, 2 and 7.
"""

import inspect

import pytest

from repro import GraphDatabase, PlannerHints
from repro.datasets import CorrelatedConfig, correlated, generate_correlated
from repro.db.patternquery import Anchor, PatternQueries
from repro.planner import plans as plan_nodes
from repro.runtime.compiled import PRODUCERS, codegen
from repro.runtime import Executor
from repro.runtime.executor import ARTIFACT
from repro.runtime.slots import layout_of

from tests import oracle
from tests.engines import CHUNK_SIZES, agree, execute

def forced(name):
    """Plans must use index ``name``, no other, and as much as they can."""
    return PlannerHints(
        required_indexes=frozenset({name}),
        allowed_indexes=frozenset({name}),
        path_index_cost_factor=1e-9,
    )


def preferred(name):
    """Plans may use index ``name`` only, and it is nearly free; parts
    without a pattern need no index."""
    return PlannerHints(
        allowed_indexes=frozenset({name}), path_index_cost_factor=1e-9
    )


def binding_db():
    """A chain of :A nodes (one also :B) with two 2-cycles, two self-loops,
    Y edges and :B nodes; indexes over one and two X steps and one untyped
    step. Returns the database and the ids by name."""
    db = GraphDatabase()
    a = [db.create_node(["A", "B"] if i == 4 else ["A"], {"v": i}) for i in range(12)]
    b = [db.create_node(["B"]) for _ in range(2)]
    rels = {}
    for i in range(10):
        rels[f"x{i}"] = db.create_relationship(a[i], a[i + 1], "X")
    rels["back0"] = db.create_relationship(a[1], a[0], "X")
    rels["back2"] = db.create_relationship(a[3], a[2], "X")
    rels["loop5"] = db.create_relationship(a[5], a[5], "X")
    rels["loop7"] = db.create_relationship(a[7], a[7], "X")
    db.create_relationship(a[2], b[0], "Y")
    db.create_relationship(a[5], b[1], "Y")
    db.create_relationship(a[5], a[6], "Y")
    db.create_path_index("chain", "(:A)-[:X]->(:A)-[:X]->(:A)")
    db.create_path_index("one", "(:A)-[:X]->(:A)")
    db.create_path_index("out", "(:A)-[]->()")
    return db, {"a": a, "b": b, **rels}


@pytest.fixture(scope="module")
def db():
    return binding_db()[0]


TWO_X = "MATCH (a:A)-[r:X]->(b:A)-[s:X]->(c:A)"
WITH_B = "MATCH (b:A) WHERE b.v < 4 WITH b "

# (text, index the plan may use, operators the plan must contain)
CASES = [
    # A variable repeated across entry positions: cycles over chain indexes.
    (
        "MATCH (a:A)-[r:X]->(b:A)-[s:X]->(a) RETURN a, r, b, s",
        "chain",
        ("PathIndexScan",),
    ),
    (
        "MATCH (a:A)-[r:X]->(b:A)-[s:X]->(a) WHERE a.v >= 0 RETURN a, r, b, s",
        "chain",
        ("PathIndexFilteredScan",),
    ),
    ("MATCH (a:A)-[r:X]->(a) RETURN a, r", "one", ("PathIndexScan",)),
    # WITH-carried variables bound at non-leading entry positions; a label
    # on a carried node is also a predicate, which the filtered scan takes.
    (f"{WITH_B}MATCH (a:A)-[r]->(b) RETURN a, r, b", "out", ("PathIndexScan",)),
    (f"{WITH_B}{TWO_X} RETURN a, r, b, s, c", "chain", ("PathIndexFilteredScan",)),
    (
        f"{WITH_B}{TWO_X} WHERE a <> c RETURN a, b, c",
        "chain",
        ("PathIndexFilteredScan",),
    ),
    (
        f"{WITH_B}{TWO_X} RETURN a, r, b, s, c",
        "one",
        ("PathIndexFilteredScan", "PathIndexPrefixSeek"),
    ),
    # A relationship carried through WITH is matched again as a new
    # relationship equal to it: its endpoints and uniqueness are checked.
    (
        "MATCH (x:A)-[s:X]->(y:A) WHERE x.v < 6 WITH s "
        "MATCH (a:A)-[r:X]->(b:A)-[s]->(c:A) RETURN a, r, s, c",
        "out",
        ("PathIndexFilteredScan",),
    ),
    # Residual label and type filters, with known and unknown tokens.
    ("MATCH (a:A)-[r:X]->(b:B) RETURN a, r, b", "out", ("PathIndexFilteredScan",)),
    ("MATCH (a:A)-[r:Y]->(b:B) RETURN a, r, b", "out", ("PathIndexFilteredScan",)),
    ("MATCH (a:A)-[r:X|Y]->(b) RETURN a, r, b", "out", ("PathIndexFilteredScan",)),
    ("MATCH (a:A)-[r:X]->(b:Nope) RETURN a, b", "out", ("PathIndexFilteredScan",)),
    ("MATCH (a:A)-[r:Nope]->(b) RETURN a, b", "out", ("PathIndexFilteredScan",)),
    (
        "MATCH (a:A)-[r:X]->(b:A)-[s:Y]->(c:B) WHERE a.v = 5 RETURN a, r, s, c",
        "out",
        ("PathIndexPrefixSeek",),
    ),
    (
        "MATCH (a:A)-[r:X]->(b:A)-[s:X|Y]->(c:B) WHERE a.v = 5 RETURN a, s, c",
        "out",
        ("PathIndexPrefixSeek",),
    ),
    (
        "MATCH (a:A)-[r:X]->(b:A)-[s:Y|Nope]->(c) WHERE a.v = 5 RETURN a, s, c",
        "out",
        ("PathIndexPrefixSeek",),
    ),
    # Self-loops: two pattern relationships could bind the same id.
    (f"{TWO_X} WHERE a.v = 5 RETURN a, r, b, s, c", "one", ("PathIndexPrefixSeek",)),
    (f"{TWO_X} WHERE a.v = 5 RETURN a, r, b, s, c", "out", ("PathIndexPrefixSeek",)),
    (f"{TWO_X} RETURN a, r, b, s, c", "chain", ("PathIndexScan",)),
    (f"{TWO_X} RETURN a, r, b, s, c", "one", ("PathIndexScan",)),
]


@pytest.mark.parametrize(
    "text, index, operators", CASES, ids=[f"{i}-{c[1]}" for i, c in enumerate(CASES)]
)
def test_entry_binding_agrees_with_the_oracle(db, text, index, operators):
    # Required indexes bind every part; a WITH part has no pattern.
    hints = preferred(index) if " WITH " in text else forced(index)
    plan = db.explain(text, hints)
    for operator in operators:
        assert f"{operator}({index}:" in plan, plan
    agree(db, text, hints, graph=oracle.snapshot(db))


@pytest.mark.parametrize("index", ["one", "out", "chain"])
def test_self_loop_binds_each_relationship_once(db, index):
    """The loop at a5 must not serve both pattern relationships."""
    text = f"{TWO_X} WHERE a.v = 5 RETURN r, s, c"
    for chunk in CHUNK_SIZES:
        rows = execute(db, text, forced(index), chunk=chunk).to_list()
        assert len(rows) == 2
        assert all(row["r"] != row["s"] for row in rows)


@pytest.mark.parametrize("index", ["chain", "one"])
@pytest.mark.parametrize("position", [0, 1])
def test_anchored_pattern_query_keeps_the_anchor_unique(index, position):
    """Algorithm 1's anchored query starts with the anchor's relationship
    id in the uniqueness scope (``_R0``); anchored at a self-loop, no entry
    may use the loop a second time."""
    db, ids = binding_db()
    a, loop = ids["a"], ids["loop5"]
    pattern = db.path_index("chain").pattern
    anchor = Anchor.at(pattern, position, loop, a[5], a[5])
    prepared = PatternQueries(db.store, db.indexes).prepare(
        pattern, anchor, forced(index)
    )
    assert prepared.planned_parts[0][1].indexes_used == {index}
    executor = Executor(db.store, db.indexes, prepared.analyzed.variable_kinds)
    initial = layout_of(prepared.planned_parts).argument_row(
        anchor.bound_variables(), anchor.bound_rel_ids()
    )
    runs = []
    for size in (None, 1, 2, 7):
        rows, profile = executor.execute(
            prepared.planned_parts, initial_row=initial, morsel_size=size
        )
        runs.append((list(rows), profile.operators.rows))
    assert all(run == runs[0] for run in runs[1:])
    if position == 0:
        assert runs[0][0] == [(a[5], loop, a[5], ids["x5"], a[6])]
    else:
        assert runs[0][0] == [(a[4], ids["x4"], a[5], loop, a[5])]


@pytest.mark.parametrize(
    "index, text, create",
    [
        (
            "(:A)-[:X]->()",
            "MATCH (a:A)-[r:X]->(b:Z) RETURN count(*) AS n",
            "CREATE (a:A)-[:X]->(b:Z)",
        ),
        (
            "(:A)-[]->()",
            "MATCH (a:A)-[r:W]->(b) RETURN count(*) AS n",
            "CREATE (a:A)-[:W]->(b:B)",
        ),
    ],
    ids=["label", "type"],
)
def test_token_created_after_compilation_matches(index, text, create):
    """A residual label or type unknown when the scan compiled must match
    once created: generated code looks it up per run instead of freezing "unknown" into the artifact."""
    db = GraphDatabase()
    for _ in range(50):
        db.create_relationship(db.create_node(["A"]), db.create_node(["B"]), "X")
    db.create_path_index("AX", index)
    hints = forced("AX")
    for _ in range(3):
        assert db.execute(text, hints).to_list() == [{"n": 0}]
    compiled = db.prepare(text, hints).planned_parts[0][1].__dict__[ARTIFACT]
    assert compiled is not None
    db.execute(create).consume()
    for chunk in CHUNK_SIZES:
        result = execute(db, text, hints, chunk=chunk)
        assert result.to_list() == [{"n": 1}], chunk
    # The same artifact answered: the fix is not a recompilation.
    assert db.prepare(text, hints).planned_parts[0][1].__dict__[ARTIFACT] is compiled


FULL_MATCH = "MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B)-[z:X]->(e:A)"


def test_index_scans_bind_entries_without_binder_or_row_copy():
    """The entry tuple is the row: the generated scans of the ``RETURN *``
    texts call no binder and copy no row."""
    db = GraphDatabase()
    generate_correlated(db, CorrelatedConfig(paths=10, noise_factor=2))
    db.create_path_index("Full", correlated.FULL_PATTERN)
    for text, hints, operator in (
        (f"{FULL_MATCH} RETURN *", None, "PathIndexScan"),
        (
            f"{FULL_MATCH} WHERE a <> e RETURN *",
            forced("Full"),
            "PathIndexFilteredScan",
        ),
    ):
        assert f"{operator}(Full:" in db.explain(text, hints)
        source = db.compiled_source(text, hints)
        assert "_bind" not in source and "[:]" not in source, source
        assert len(db.execute(text, hints).to_list()) == 10
    for plan_type in (
        plan_nodes.PlanPathIndexScan,
        plan_nodes.PlanPathIndexFilteredScan,
        plan_nodes.PlanPathIndexPrefixSeek,
    ):
        assert "_entry_binder" not in inspect.getsource(PRODUCERS[plan_type])
    assert not hasattr(codegen, "_entry_binder")
