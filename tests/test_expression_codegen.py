"""Expressions are source inside generated code.

Every expression site — filters, projections, aggregation finishers, sort
keys and CREATE maps — is emitted by ``expression_source`` when a plan
compiles, and only then: the artifact's environment holds no function
made for one expression, and later executions, with other parameter
values, emit nothing. The spilled sort and aggregation cases run under a
grant small enough to spill, so they run spilled in every suite leg.
"""

import inspect
import types

import pytest

from repro import GraphDatabase
from repro.runtime import Executor
from repro.runtime.compiled import codegen

from tests.engines import agree

TIGHT = {"memory_budget": 1 << 20, "memory_grant": 4096}
"""A 4 KiB grant spills a blocking buffer after ~16 rows."""

PINNED = [
    ("MATCH (d:B)-[z:X]->(e:A) RETURN id(e) AS e, count(*) AS n", None),
    ("MATCH (d:B)-[z:X]->(e:A) RETURN id(d) AS d, id(e) AS e ORDER BY e DESC LIMIT 50", None),
    ("MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A) WHERE id(a) < 3 RETURN id(a) AS a, id(c) AS c", None),
    ("MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B)-[z:X]->(e:A) WHERE a <> e RETURN *", None),
    ("MATCH (a:A) WHERE a.v < $k RETURN a.v AS v", {"k": 2}),
    ("MATCH (a:A) CREATE (c:C {v: a.v + 1, w: NULL, s: 'x'}) RETURN c.v AS v", None),
]


@pytest.fixture
def db():
    db = GraphDatabase()
    db.execute(
        "CREATE (a:A {v: 0})-[:X]->(b:A {v: 1})-[:X]->(c:A {v: 2})"
        "-[:Y]->(d:B {v: 3})-[:X]->(e:A {v: 4})"
    )
    db.execute("CREATE (a:A {v: 1})-[:X]->(b:A)-[:X]->(c:A)-[:Y]->(d:B)-[:X]->(e:A)")
    # Ballast, so the pinned CREATE's writes stay within the plan cache's
    # statistics drift and its plan (and artifact) is reused.
    with db.begin() as tx:
        for _ in range(200):
            tx.create_node([db.label("Z")])
        tx.success()
    return db


def environments(db, text, params):
    """The default-argument environment of every generated function of
    the text's artifact."""
    cached = db.prepare(text, params=params)
    executor = Executor(db.store, db.indexes, cached.analyzed.variable_kinds)
    artifact = executor.compile(cached.planned_parts)
    functions = [part.fn for part in artifact.parts]
    functions += [part.boundary.fn for part in artifact.parts if part.boundary]
    return artifact, [
        {
            name: parameter.default
            for name, parameter in inspect.signature(fn).parameters.items()
            if parameter.default is not inspect.Parameter.empty
        }
        for fn in functions
    ]


@pytest.mark.parametrize("text, params", PINNED)
def test_artifacts_hold_no_per_expression_function(db, text, params):
    artifact, envs = environments(db, text, params)
    for env in envs:
        for name, value in env.items():
            # A closure is a function made at compile time for one site;
            # module-level helpers and store accessors are shared.
            made = isinstance(value, types.FunctionType) and value.__closure__
            assert not made, (text, name, value)
    source = artifact.source()
    assert "_params[" in source or params is None
    if "ORDER BY" in text:
        assert "def _key" in source  # the key function is generated code
    if "CREATE" in text:
        creates = artifact.parts[0].creates
        assert "def _create0(_r, _params):" in source
        assert creates[0].__closure__ is None


@pytest.mark.parametrize("text, params", PINNED)
def test_no_expression_is_compiled_per_execution(db, monkeypatch, text, params):
    calls = []
    emit = codegen.expression_source

    def counted(*args):
        calls.append(args[0])
        return emit(*args)

    monkeypatch.setattr(codegen, "expression_source", counted)
    first = db.execute(text, params=params).to_list()
    compiled = len(calls)
    again = {name: value + 1 for name, value in (params or {}).items()}
    for _ in range(2):
        db.execute(text, params=again or params).consume()
    assert len(calls) == compiled, text
    if "CREATE" not in text:
        assert db.execute(text, params=params).to_list() == first


def test_the_pinned_sites_are_inline_calls(db):
    """``id()`` of an entity is its value; comparisons and property reads
    call the helpers of ``repro.runtime.expressions``."""
    source = db.compiled_source(PINNED[2][0])
    assert "_compare('<', " in source and "_function" not in source
    source = db.compiled_source(PINNED[4][0], params=PINNED[4][1])
    assert "_compare('<', _property(_node_property, " in source
    assert "_params[0]" in source


def people(db, n=60):
    for i in range(n):
        db.create_node(["P"], {"v": i % 7, "s": f"p{i % 5}"})


def spilled(result, operator):
    """Did the execution's ``operator`` buffer spill? Drains ``result``."""
    result.consume()
    return any(
        operator in description and runs
        for description, _, runs in result.profile.bytes_by_operator()
    )


@pytest.mark.parametrize("k", [2, -1])
def test_spilled_sort_on_a_parameterised_expression_key(k):
    db = GraphDatabase(**TIGHT)
    people(db)
    text = "MATCH (n:P) RETURN n.s AS s, id(n) AS i ORDER BY n.v * $k + id(n) % 3 DESC, i"
    agree(db, text, params={"k": k})
    assert spilled(db.execute(text, params={"k": k}), "Sort")


def test_spilled_aggregation_of_an_expression_over_an_aggregate():
    db = GraphDatabase(**TIGHT)
    people(db)
    text = (
        "MATCH (n:P) WITH id(n) % 30 AS v, n "
        "RETURN v, count(*) + v AS c, sum(n.v) * $k - min(id(n)) AS d ORDER BY c DESC, v"
    )
    rows = agree(db, text, params={"k": 3})
    assert len(rows) == 30
    assert spilled(db.execute(text, params={"k": 3}), "Aggregation")
    empty = "MATCH (n:Q) RETURN count(*) + $k AS c, sum(n.v) AS s"
    assert agree(db, empty, params={"k": 1}) == [{"c": 1, "s": 0}]

