"""The engine against the brute-force oracle (``tests.oracle``) on random
texts over small random graphs.

A Hypothesis grammar draws a graph — two labels, two relationship types,
self-loops and parallel relationships — and a query over it: chains of one
to three relationships in every direction, repeated variables (cycles), a
second comma-separated pattern, ``id()`` equalities, label and property
predicates, a second part through WITH (carrying nodes and relationships,
or aggregating), then a RETURN that projects, aggregates or de-duplicates,
with ORDER BY over every column and SKIP/LIMIT. Expressions cover
arithmetic on ints and NULL (divisors 1-3), every comparison, XOR and NOT
on NULL, string literals compared across types, ``$k`` in WHERE, RETURN
and ORDER BY, ORDER BY on an expression, and an expression over an
aggregate; a second grammar nests them over every pair of nodes, so
each meets rows. Each text runs under the default plan, without path indexes,
and under every ``forced(index)`` hint that embeds, at the default output
chunk size and at 7; writes, some building CREATE maps from expressions,
run on a fresh copy of the graph per plan.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GraphDatabase, PlannerHints
from repro.errors import PlannerError

from tests import oracle
from tests.engines import CHUNK_SIZES, execute

INDEXES = {
    "ax": "(:A)-[:X]->()",
    "xx": "()-[:X]->()-[:X]->()",
    "yb": "()-[:Y]->(:B)",
    "any": "()-[]->()",
}

BASELINE = PlannerHints(use_path_indexes=False)


def forced(name):
    return PlannerHints(
        required_indexes=frozenset({name}),
        allowed_indexes=frozenset({name}),
        path_index_cost_factor=1e-9,
    )


HINTS = [None, BASELINE] + [forced(name) for name in INDEXES]


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------


@st.composite
def specs(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    nodes = []
    for _ in range(size):
        labels = draw(st.sampled_from([(), ("A",), ("B",), ("A", "B")]))
        value = draw(st.one_of(st.none(), st.integers(0, 3)))
        nodes.append((labels, {} if value is None else {"v": value}))
    rels = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        start = draw(st.integers(0, size - 1))
        # Loops and parallel relationships come up often on few nodes.
        end = draw(st.integers(0, size - 1))
        weight = draw(st.one_of(st.none(), st.integers(0, 2)))
        rels.append(
            (start, end, draw(st.sampled_from("XY")), {} if weight is None else {"w": weight})
        )
    return oracle.Spec(nodes, rels)


def loaded(spec):
    db = GraphDatabase()
    graph = oracle.load(db, spec)
    for name, pattern in INDEXES.items():
        db.create_path_index(name, pattern)
    return db, graph


# ----------------------------------------------------------------------
# Texts
# ----------------------------------------------------------------------

class _Scope:
    """The variables in scope in one part: carried ones and those its
    MATCH introduces, drawn from the part's own name pools."""

    def __init__(self, node_pool, rel_pool, nodes=(), rels=()) -> None:
        self.node_pool, self.rel_pool = iter(node_pool), iter(rel_pool)
        self.nodes, self.rels = list(nodes), list(rels)

    def node(self, draw, reuse: bool = True) -> str:
        if reuse and self.nodes and draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(self.nodes))
        name = next(self.node_pool)
        self.nodes.append(name)
        return name

    def rel(self, draw) -> str:
        if not draw(st.integers(0, 4)):
            return ""  # anonymous
        name = next(self.rel_pool)
        self.rels.append(name)
        return name


def _node_text(draw, name):
    labels = draw(st.sampled_from(["", "", ":A", ":B", ":A:B"]))
    props = draw(st.sampled_from(["", "", "", " {v: 1}"]))
    return f"({name}{labels}{props})"


def _arrow(draw, body):
    return draw(st.sampled_from([f"-{body}->", f"<-{body}-", f"-{body}-"]))


def _pattern(draw, scope, first, length, fixed_rel=None):
    """A chain from node ``first`` over ``length`` relationships; a
    relationship carried through WITH is matched again by name first."""
    text = _node_text(draw, first)
    for step in range(length):
        if fixed_rel is not None and step == 0:
            body = f"[{fixed_rel}]"
        else:
            body = f"[{scope.rel(draw)}{draw(st.sampled_from(['', ':X', ':Y', ':X', ':X|Y']))}]"
        text += _arrow(draw, body) + _node_text(draw, scope.node(draw))
    return text


def _predicate(draw, nodes, rels):
    node = draw(st.sampled_from(nodes))
    options = [
        f"{node}.v < {draw(st.integers(0, 3))}",
        f"{node}.v = {draw(st.integers(0, 3))}",
        f"id({node}) = {draw(st.integers(0, 6))}",
        f"{draw(st.integers(0, 6))} = id({node})",
        f"{node}:B",
        f"NOT {node}:A",
        f"({node}.v = 1 OR {node}.v = 2)",
        f"{node} <> {draw(st.sampled_from(nodes))}",
        f"{node}.v = {draw(st.sampled_from(nodes))}.v",
        f"{node}.v + {draw(st.integers(0, 3))} <= {draw(st.integers(0, 6))}",
        f"{node}.v * {draw(st.integers(0, 2))} - 1 >= {draw(st.integers(-1, 3))}",
        f"{node}.v % {draw(st.integers(1, 3))} = {draw(st.integers(0, 2))}",
        f"{node}.v / {draw(st.integers(1, 3))} > 0",
        f"({node}.v >= 2 XOR {node}:B)",
        f"NOT ({node}.v <= 1 XOR {node}.v = NULL)",
        f"{node}.v {draw(st.sampled_from(['=', '<>']))} 'x'",
        f"{node}.v {draw(st.sampled_from(['<=', '>=']))} $k",
    ]
    if rels:
        rel = draw(st.sampled_from(rels))
        options += [
            f"type({rel}) = 'X'",
            f"{rel}.w > 0",
            f"{rel} <> {draw(st.sampled_from(rels))}",
            f"id({rel}) = {draw(st.integers(0, 9))}",
        ]
    return draw(st.sampled_from(options))


def _where(draw, nodes, rels):
    count = draw(st.integers(0, 2))
    if not count:
        return ""
    return " WHERE " + " AND ".join(_predicate(draw, nodes, rels) for _ in range(count))


def _match(draw, scope):
    """A MATCH clause over ``scope``; it starts from a carried node when
    there is one."""
    first = draw(st.sampled_from(scope.nodes)) if scope.nodes else scope.node(draw)
    fixed = draw(st.sampled_from(scope.rels)) if scope.rels and draw(st.booleans()) else None
    text = "MATCH " + _pattern(draw, scope, first, draw(st.integers(1, 3)), fixed)
    if draw(st.integers(0, 3)) == 0:
        text += ", " + _pattern(draw, scope, draw(st.sampled_from(scope.nodes)), 1)
    return text + _where(draw, scope.nodes, scope.rels)


@st.composite
def texts(draw):
    scope = _Scope("abcdef", "rstu")
    text = _match(draw, scope)
    if draw(st.booleans()):
        nodes = draw(st.lists(st.sampled_from(scope.nodes), min_size=1, unique=True))
        rels = draw(st.lists(st.sampled_from(scope.rels), unique=True)) if scope.rels else []
        if draw(st.integers(0, 2)) == 0:
            nodes, rels = nodes[:1], []
            # The count, or an expression over it and the grouping node.
            count = draw(st.sampled_from(["count(*)", f"count(*) + {nodes[0]}.v"]))
            text += f" WITH {nodes[0]}, {count} AS k WHERE k > {draw(st.integers(0, 2))}"
        else:
            distinct = draw(st.sampled_from(["", "", "DISTINCT "]))
            text += f" WITH {distinct}" + ", ".join(nodes + rels)
            if draw(st.booleans()):
                text += _where(draw, nodes, rels)
        scope = _Scope("ghijkl", "vwxy", nodes, rels)
        text += " " + _match(draw, scope)
    return text + _return(draw, scope.nodes, scope.rels)


def _return(draw, nodes, rels):
    columns = []

    def add(expression, alias):
        columns.append((expression, alias))

    for node in draw(st.lists(st.sampled_from(nodes), min_size=0, max_size=2, unique=True)):
        add(
            draw(
                st.sampled_from(
                    [
                        node,
                        f"{node}.v",
                        f"id({node})",
                        f"size(labels({node}))",
                        f"{node}.v * $k",
                        f"{node}.v % 2",
                        f"{node}.v - NULL",
                        f"{node}.v / 2 + 1",
                        f"{node}.v <= 1 XOR {node}:B",
                        f"{node}.v >= 2",
                        f"NOT {node}.v < NULL",
                        f"{node}.v = 'x'",
                        "'x'",
                    ]
                )
            ),
            f"n_{node}",
        )
    if rels:
        for rel in draw(st.lists(st.sampled_from(rels), max_size=2, unique=True)):
            add(draw(st.sampled_from([rel, f"type({rel})", f"{rel}.w"])), f"r_{rel}")
    if draw(st.integers(0, 2)) == 0:
        node = draw(st.sampled_from(nodes))
        add(
            draw(
                st.sampled_from(
                    [
                        "count(*)",
                        f"count({node}.v)",
                        f"count(DISTINCT {node})",
                        f"sum({node}.v)",
                        f"min({node}.v)",
                        f"max({node}.v)",
                        f"size(collect({node}.v))",
                        f"count(*) + 1",
                        "count(*) * $k",
                    ]
                )
            ),
            "agg",
        )
    if not columns:
        if draw(st.booleans()):
            return " RETURN *"
        add(nodes[0], f"n_{nodes[0]}")
    distinct = draw(st.sampled_from(["", "", "DISTINCT "]))
    text = f" RETURN {distinct}" + ", ".join(f"{e} AS {a}" for e, a in columns)
    if draw(st.booleans()):
        order = draw(st.permutations([alias for _, alias in columns]))
        if not distinct and "agg" not in order and draw(st.booleans()):
            # An expression, not an alias: it may read unprojected nodes.
            node = draw(st.sampled_from(nodes))
            order.insert(
                draw(st.integers(0, len(order))),
                draw(st.sampled_from([f"{node}.v * $k", f"id({node}) - $k", f"{node}.v % 2"])),
            )
        text += " ORDER BY " + ", ".join(
            key + draw(st.sampled_from(["", " DESC", " ASC"])) for key in order
        )
        if draw(st.booleans()):
            text += f" SKIP {draw(st.integers(0, 3))}"
        if draw(st.booleans()):
            text += f" LIMIT {draw(st.integers(0, 4))}"
    elif draw(st.integers(0, 3)) == 0:
        text += f" LIMIT {draw(st.integers(0, 4))}"
    return text


def _number(draw, nodes, depth=2):
    """An int-or-NULL expression: arithmetic over properties, ids, ``$k``,
    literals and NULL; divisors are literals 1-3, so nothing raises."""
    if not depth or draw(st.integers(0, 2)) == 0:
        node = draw(st.sampled_from(nodes))
        return draw(
            st.sampled_from(
                [f"{node}.v", f"id({node})", "$k", "NULL", str(draw(st.integers(0, 3)))]
            )
        )
    op = draw(st.sampled_from("+-*/%"))
    left = _number(draw, nodes, depth - 1)
    right = (
        str(draw(st.integers(1, 3))) if op in "/%" else _number(draw, nodes, depth - 1)
    )
    return f"({left} {op} {right})"


def _truth(draw, nodes, depth=2):
    """A three-valued expression: comparisons (also against a string),
    labels and NULL under AND/OR/XOR/NOT."""
    if not depth or draw(st.integers(0, 2)) == 0:
        if draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from([f"{draw(st.sampled_from(nodes))}:A", "NULL", "TRUE"]))
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        right = draw(st.sampled_from([_number(draw, nodes, 1), "'x'"]))
        return f"{_number(draw, nodes, 1)} {op} {right}"
    if draw(st.integers(0, 3)) == 0:
        return f"NOT ({_truth(draw, nodes, depth - 1)})"
    op = draw(st.sampled_from(["AND", "OR", "XOR"]))
    return f"({_truth(draw, nodes, depth - 1)} {op} {_truth(draw, nodes, depth - 1)})"


@st.composite
def expression_texts(draw):
    """Texts over every pair of nodes, so expressions meet rows: a filter,
    then every operator applied to the same drawn operands, ordered by an
    expression; or an aggregation with expressions over its aggregates."""
    nodes = ["a", "b"]
    text = "MATCH (a), (b)"
    if draw(st.booleans()):
        text += f" WHERE {_truth(draw, nodes)}"
    if draw(st.booleans()):
        return (
            f"{text} WITH {_number(draw, nodes, 1)} AS g, a, b "
            f"RETURN g, count(*) + g AS c, sum({_number(draw, nodes)}) * $k AS s, "
            f"max({_number(draw, nodes)}) - min(id(b)) AS m"
        )
    left, right = _number(draw, nodes), _number(draw, nodes)
    other = draw(st.sampled_from([right, "'x'"]))
    divisor = draw(st.integers(1, 3))
    p, q = _truth(draw, nodes), _truth(draw, nodes)
    columns = (
        [f"{left} {op} {other}" for op in ("=", "<>", "<", "<=", ">", ">=")]
        + [f"{left} {op} {right}" for op in "+-*"]
        + [f"{left} / {divisor}", f"{left} % {divisor}", f"NOT ({p})"]
        + [f"({p}) {op} ({q})" for op in ("AND", "OR", "XOR")]
    )
    projected = ", ".join(f"{column} AS c{i}" for i, column in enumerate(columns))
    return f"{text} RETURN {projected} ORDER BY {_number(draw, nodes)} DESC, c9"


WRITES = [
    "MATCH (a:A)-[r:X]->(b) CREATE (a)-[:Z {w: 1}]->(c:C {v: b.v})",
    "MATCH (a:A)-[r:X]->(b) WHERE a.v < 2 CREATE (b)<-[:Z]-(c:C) RETURN b.v AS v ORDER BY v",
    "MATCH (a)-[r:Y]->(b) DELETE r",
    "MATCH (a:B) DETACH DELETE a",
    "MATCH (a:A)-[r]-(b:A) DELETE r",
    "MATCH (a:A) WITH a, count(*) AS k CREATE (c:C {v: k}) RETURN c.v AS v",
    "MATCH (a)-[r:X]->(b)-[s:X]->(c) DETACH DELETE b",
    "MATCH (a:A)-[r:X]->(b) CREATE (c:C {v: a.v * 2 - b.v, w: r.w % 2, u: NULL, s: 'x'})",
    "MATCH (a:A) CREATE (c:C {v: a.v + $k, w: NULL}) RETURN c.v AS v, c.w AS w ORDER BY v",
]

PARAMS = st.one_of(st.none(), st.integers(0, 3))
"""Values of ``$k``, the one parameter texts use."""


def used(text, k):
    """The parameters ``text`` uses: ``$k`` or none."""
    return {"k": k} if "$k" in text else None


# ----------------------------------------------------------------------
# The properties
# ----------------------------------------------------------------------


def _run_everywhere(db, text, params):
    """``(label, rows)`` for the text under every plan that embeds, at
    every chunk size."""
    for hints in HINTS:
        for chunk in CHUNK_SIZES:
            try:
                result = execute(db, text, hints, chunk=chunk, params=params)
            except PlannerError:
                break  # the forced index does not embed
            yield (hints, chunk), oracle.plain_rows(result)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=specs(), text=texts(), k=PARAMS)
def test_reads_agree_with_the_oracle(spec, text, k):
    db, graph = loaded(spec)
    params = used(text, k)
    answer = oracle.run(graph, text, params)
    for context, rows in _run_everywhere(db, text, params):
        oracle.check(answer, rows, (text, params, context))


@settings(max_examples=150, deadline=None)
@given(spec=specs(), text=expression_texts(), k=PARAMS)
def test_expressions_agree_with_the_oracle(spec, text, k):
    """Every pair of nodes is a row, so each drawn expression is evaluated
    on values (random texts' patterns often match nothing)."""
    db, graph = loaded(spec)
    params = used(text, k)
    answer = oracle.run(graph, text, params)
    for hints in (None, BASELINE):
        for chunk in CHUNK_SIZES:
            rows = oracle.plain_rows(execute(db, text, hints, chunk=chunk, params=params))
            oracle.check(answer, rows, (text, params, hints, chunk))


@settings(max_examples=40, deadline=None)
@given(spec=specs(), text=st.sampled_from(WRITES), k=PARAMS)
def test_writes_agree_with_the_oracle(spec, text, k):
    before = loaded(spec)[1]
    params = used(text, k)
    answer = oracle.run(before, text, params)
    expected = oracle.graph_form(answer.graph, before)
    for hints in (None, BASELINE, forced("ax"), forced("any")):
        for chunk in CHUNK_SIZES:
            db, _ = loaded(spec)
            try:
                result = execute(db, text, hints, chunk=chunk, params=params)
            except PlannerError:
                break
            oracle.check(answer, oracle.plain_rows(result), (text, hints, chunk))
            after = oracle.graph_form(oracle.snapshot(db), before)
            assert after == expected, (text, hints, chunk)


def _order_by(text):
    return text.partition(" ORDER BY ")[2]


EXPRESSION_FEATURES = {
    "+": lambda text: ".v + " in text,
    "-": lambda text: " - 1 >= " in text,
    "*": lambda text: ".v * " in text,
    "/": lambda text: ".v / " in text,
    "%": lambda text: ".v % " in text,
    "NULL arithmetic": lambda text: " - NULL" in text,
    "<=": lambda text: " <= " in text,
    ">=": lambda text: " >= " in text,
    "XOR": lambda text: " XOR " in text,
    "NOT NULL": lambda text: ".v < NULL" in text,
    "cross-type": lambda text: " = 'x'" in text or " <> 'x'" in text,
    "string column": lambda text: "'x' AS" in text,
    "$k in WHERE": lambda text: "$k" in text.partition(" RETURN ")[0],
    "$k in RETURN": lambda text: "$k AS" in text,
    "$k in ORDER BY": lambda text: "$k" in _order_by(text),
    "ORDER BY expression": lambda text: "(" in _order_by(text) or "." in _order_by(text),
    "over an aggregate": lambda text: ".v AS k" in text,
}
"""Expression forms the grammar draws, each with a test showing it in a
text."""


def test_grammar_reaches_every_feature():
    """The grammar draws what the module docstring promises."""
    seen = set()

    @settings(max_examples=600, deadline=None, database=None)
    @given(text=texts())
    def collect(text):
        for feature in (
            "<-", "]-(", "WITH", "count(", "ORDER BY", "LIMIT", "SKIP",
            "id(", "DISTINCT", ", (", "{v: 1}", ":A:B", "|Y",
        ):
            if feature in text:
                seen.add(feature)
        seen.update(name for name, shown in EXPRESSION_FEATURES.items() if shown(text))

    collect()
    assert len(seen) == 13 + len(EXPRESSION_FEATURES), (
        set(EXPRESSION_FEATURES) - seen
    )
    # CREATE maps built from expressions, including NULL.
    assert any("CREATE" in text and "- b.v" in text and "NULL" in text for text in WRITES)
    assert any("{v: a.v + $k, w: NULL}" in text for text in WRITES)
