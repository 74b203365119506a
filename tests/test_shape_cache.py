"""Shape-keyed plan cache: a text bound to its shape's plan answers exactly
as the same text planned from its literals.

Each differential warms a shape with other literals, runs the text through
it on one engine, and compares with the text parsed and planned afresh,
literals kept, on the same engine: rows, column names and row order must
be identical. CI also runs these under an 8 MiB / 8 KiB memory budget, so
the spilling operators read their slots too.
"""

import dataclasses
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GraphDatabase
from repro.cypher import analyze, ast, parse, tokenize
from repro.cypher.lexer import TokenType, literal_shape
from repro.cypher.parser import parse_shape
from repro.db.result import Result
from repro.errors import CypherSyntaxError
from repro.planner import Planner
from repro.querygraph import build_query_parts
from repro.runtime import Executor

from tests.engines import CHUNK_SIZES, execute

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

NODES = 12


def build_db() -> GraphDatabase:
    db = GraphDatabase()
    ids = []
    for i in range(NODES):
        labels = ["P"] if i % 3 else ["P", "Q"]
        value = i if i % 4 else float(i)  # int and float properties
        ids.append(db.create_node(labels, {"i": value, "s": f"s{i % 5}"}))
    for i in range(NODES):
        db.create_relationship(ids[i], ids[(i * 5 + 1) % NODES], "R")
        db.create_relationship(ids[i], ids[(i + 2) % NODES], "R")
    return db


@pytest.fixture(scope="module")
def db():
    return build_db()


def fresh(db, text, chunk):
    """``text`` parsed and planned from its literals, outside any cache."""
    analyzed = analyze(parse(text))
    parts = build_query_parts(analyzed)
    planner = Planner(db.store, db.indexes)
    planned = [(part, planner.plan_part(part)) for part in parts]
    executor = Executor(db.store, db.indexes, analyzed.variable_kinds)
    rows, profile = executor.execute(planned, morsel_size=chunk)
    columns = [item.output_name for item in parts[-1].projection]
    result = Result(rows, columns, profile, 0.0)
    return result.columns, result.to_list()


def through_shape(db, template, warm, values, chunk, params=None):
    """Warm ``template``'s shape with ``warm``, then run ``values``."""
    for _ in range(2):
        db.execute(template.format(*warm)).consume()
    result = execute(db, template.format(*values), chunk=chunk, params=params)
    return result.columns, result.to_list()


def cypher(value) -> str:
    """``value`` written as a Cypher literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    return repr(value)


node_ids = st.integers(0, NODES + 2)
counts = st.integers(0, 14)
numbers = st.one_of(
    st.integers(-20, 20), st.integers(-80, 80).map(lambda n: n / 4)
)
texts = st.text(alphabet="s0123'\\\" /x", max_size=6)
values = st.one_of(numbers, texts)

TEMPLATES = [
    # id seeks, both operand orders
    ("MATCH (n:P) WHERE id(n) = {} RETURN n.i AS i", (node_ids,)),
    ("MATCH (n:P) WHERE {} = id(n) RETURN n.s AS s", (node_ids,)),
    (
        "MATCH (a:P)-[r:R]->(b:P) WHERE id(a) = {} AND id(b) <> {} "
        "RETURN id(b) AS b ORDER BY b",
        (node_ids, node_ids),
    ),
    # id(n) = 2.0 is no seek; = 2 is
    ("MATCH (n) WHERE id(n) = {} RETURN id(n) AS n", (st.sampled_from([2, 2.0, 7, 7.0]),)),
    # SKIP / LIMIT, zero included
    ("MATCH (n:P) RETURN n.i AS i ORDER BY i SKIP {} LIMIT {}", (counts, counts)),
    ("MATCH (n:P) RETURN id(n) AS n SKIP {}", (counts,)),
    ("MATCH (n:P) RETURN id(n) AS n LIMIT {}", (counts,)),
    # int vs float vs string property equality
    ("MATCH (n:P) WHERE n.i = {} RETURN id(n) AS n", (values,)),
    ("MATCH (n:P) WHERE n.s = {} OR n.i = {} RETURN id(n) AS n", (values, values)),
    # negative literals and arithmetic
    (
        "MATCH (n:P) WHERE n.i > -{} AND n.i - {} < {} RETURN n.i * {} AS v ORDER BY v",
        (counts, numbers, numbers, numbers),
    ),
    # un-aliased literal columns (planned per text)
    ("MATCH (n:Q) WHERE id(n) = {} RETURN n.i, {}, n.i + {}", (node_ids, values, numbers)),
    # ORDER BY repeating a projection expression
    (
        "MATCH (n:P) RETURN n.i + {0} AS j ORDER BY n.i + {0} DESC, j LIMIT 4",
        (numbers,),
    ),
    (
        "MATCH (n:P) RETURN n.s AS s, count(*) + {0} AS c ORDER BY count(*) + {0}, s",
        (numbers,),
    ),
    # WITH ... WHERE
    (
        "MATCH (n:P)-[r:R]->(m) WITH n.i AS i, m.s AS s WHERE i >= {} AND s <> {} "
        "RETURN i, s ORDER BY i, s LIMIT {}",
        (numbers, texts, counts),
    ),
    # aggregation over a slot
    ("MATCH (n:P) RETURN count(*) + {} AS c, sum(n.i * {}) AS t", (numbers, numbers)),
]


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("template, slots", TEMPLATES, ids=lambda t: str(t)[:40])
def test_text_through_a_warm_shape_matches_a_fresh_literal_plan(db, chunk, template, slots):
    @SETTINGS
    @given(st.tuples(*slots), st.tuples(*slots))
    def check(warm, drawn):
        literals = [cypher(value) for value in drawn]
        warm_literals = [cypher(value) for value in warm]
        text = template.format(*literals)
        assert through_shape(db, template, warm_literals, literals, chunk) == fresh(
            db, text, chunk
        ), text

    check()


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@SETTINGS
@given(
    k=st.one_of(node_ids, st.integers(-3, -1)),
    lo=numbers,
    tag=st.one_of(st.none(), st.booleans(), values),
    skip=counts,
    limit=counts,
)
def test_named_parameters_match_the_inlined_literals(db, chunk, k, lo, tag, skip, limit):
    text = (
        "MATCH (a:P)-[r:R]->(b) WHERE id(a) = $k OR a.i >= $lo "
        "RETURN id(a) AS a, id(b) AS b, $tag AS tag ORDER BY a, b SKIP $skip LIMIT $limit"
    )
    params = {"k": k, "lo": lo, "tag": tag, "skip": skip, "limit": limit}
    inlined = text
    for name in sorted(params, key=len, reverse=True):
        inlined = inlined.replace(f"${name}", cypher(params[name]))
    db.execute(text, params={**params, "k": abs(k) + 1}).consume()
    result = execute(db, text, chunk=chunk, params=params)
    assert (result.columns, result.to_list()) == fresh(db, inlined, chunk)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 3), st.one_of(numbers, texts)), min_size=1, max_size=4))
def test_creates_through_a_shape_write_their_own_literals(chunk, writes):
    template = "CREATE (:W {{worker: {}, n: {}}})"
    shaped, literal = build_db(), build_db()
    shaped.execute(template.format(9, "'warm'")).consume()
    for worker, n in writes:
        text = template.format(worker, cypher(n))
        execute(shaped, text, chunk=chunk).consume()
        analyzed = analyze(parse(text))
        parts = build_query_parts(analyzed)
        planner = Planner(literal.store, literal.indexes)
        planned = [(part, planner.plan_part(part)) for part in parts]
        with literal.begin() as tx:
            rows, _ = Executor(
                literal.store, literal.indexes, analyzed.variable_kinds
            ).execute(planned, transaction=tx, morsel_size=chunk)
            list(rows)
            tx.success()
    read = "MATCH (w:W) WHERE w.worker < 9 RETURN w.worker AS k, w.n AS n"
    assert shaped.execute(read).to_list() == literal.execute(read).to_list()


def test_concurrent_texts_of_one_shape_read_their_own_values():
    """Workers share one artifact; each execution reads its own slots."""
    db = build_db()
    template = "MATCH (n:P) WHERE id(n) = {} RETURN n.s AS s, {} + 0 AS tag"
    nodes = sorted(db.store.nodes_with_label(db.label("P")))
    expected = {
        node: db.execute(f"MATCH (n) WHERE id(n) = {node} RETURN n.s AS s").to_list()
        for node in nodes
    }
    for _ in range(2):
        db.execute(template.format(nodes[0], 0)).consume()
    errors: list = []

    def worker(offset: int) -> None:
        try:
            for n in range(150):
                node = nodes[(n + offset) % len(nodes)]
                tag = offset * 1000 + n
                result = db.execute(template.format(node, tag))
                rows = result.to_list()
                want = [{**row, "tag": tag} for row in expected[node]]
                if rows != want:
                    errors.append((node, tag, rows))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]


# ---------------------------------------------------------------------------
# The shape key and the lexer agree on every literal
# ---------------------------------------------------------------------------

SLOT_TOKENS = {TokenType.INTEGER, TokenType.FLOAT, TokenType.STRING}

identifiers = st.sampled_from(["n", "n1", "x_2", "id", "MATCH", "`a 1`", "`it's // 3`"])
strings = st.text(alphabet="ab1'\"\\/ \n", max_size=8).map(
    lambda s: "'" + s.replace("\\", "\\\\").replace("'", "\\'") + "'"
) | st.text(alphabet="ab2'\"\\/ ", max_size=8).map(
    lambda s: '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
)
literal_tokens = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(0, 10**4).map(lambda n: f"{n / 8:.3f}"),
    strings,
)
other_tokens = st.one_of(
    identifiers,
    st.sampled_from(["(", ")", ".", ",", "-", "<=", "<>", "=", "//", "/", ":", "{"]),
    st.sampled_from(["$p", "$q1", "TRUE", "NULL"]),
    st.text(alphabet="ab9'` ", max_size=6).map(lambda s: f"// {s}\n"),
)
soups = st.lists(st.one_of(literal_tokens, other_tokens), max_size=14)


@SETTINGS
@given(soups, st.sampled_from([" ", "\n", "\t "]))
def test_shape_slots_are_the_lexers_literals(soup, space):
    text = space.join(soup)
    try:
        tokens = tokenize(text)
    except CypherSyntaxError:
        return  # not a token stream (an unterminated quote, say)
    params = {"p": 1, "q1": "x"}
    used = {t.text for t in tokens if t.type is TokenType.PARAMETER}
    key, values, named = literal_shape(text, {n: params[n] for n in used})
    expected, seen = [], set()
    for token in tokens:
        if token.type in SLOT_TOKENS:
            expected.append(
                int(token.text) if token.type is TokenType.INTEGER
                else float(token.text) if token.type is TokenType.FLOAT
                else token.text
            )
        elif token.type is TokenType.PARAMETER and token.text not in seen:
            seen.add(token.text)
            expected.append(params[token.text])
    assert list(values) == expected
    assert len(key) == 2 * sum(
        t.type in SLOT_TOKENS or t.type is TokenType.PARAMETER for t in tokens
    ) + 1


query_literals = st.one_of(
    st.integers(0, 99).map(str),
    st.integers(0, 99).map(lambda n: f"{n}.5"),
    strings.filter(lambda s: "\n" not in s),  # one sits in a comment
)


@SETTINGS
@given(st.lists(query_literals, min_size=6, max_size=6), st.lists(query_literals, min_size=6, max_size=6))
def test_the_parser_numbers_slots_as_the_key_does(first, second):
    template = (
        "MATCH (n1:`L 1`)-[r:R]->(m) // the 2 'quoted'\n"
        "WHERE n1.`x 3` = {} AND m.s <> {} OR id(n1) = {} + -{} // {}\n"
        "RETURN n1.y AS y, m.s + {} AS s ORDER BY y SKIP 1 LIMIT 2"
    )
    second[4] = first[4]  # the comment is part of the key
    texts = [template.format(*first), template.format(*second)]
    (key, values, _), (other, _, _) = (literal_shape(text) for text in texts)
    classes = {"'": ast.STR, '"': ast.STR}
    same_classes = all(
        classes.get(a[0], ast.FLOAT if "." in a else ast.INT)
        == classes.get(b[0], ast.FLOAT if "." in b else ast.INT)
        for a, b in zip(first[:4] + first[5:], second[:4] + second[5:])
    )
    assert (key == other) == same_classes  # the comment's literal is no slot
    query, shared = parse_shape(texts[0])
    assert shared
    slots = sorted({(p.index, p.kind) for p in parameters(query)})
    assert slots == [(i, key[2 * i + 1]) for i in range(len(values))]
    assert len(values) == 7  # five literals, SKIP and LIMIT


def parameters(node):
    """Every :class:`ast.Parameter` inside a parsed query."""
    if isinstance(node, ast.Parameter):
        yield node
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            yield from parameters(getattr(node, field.name))
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from parameters(item)
    elif isinstance(node, dict):
        for item in node.values():
            yield from parameters(item)
