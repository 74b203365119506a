"""A reference evaluator for the Cypher subset, by brute force from the AST.

The engine answers a query by planning it into an operator tree and running
generated code. This module answers it from the definition instead, and
shares no code with the query graph, the planner or the runtime: it imports
only the parser and the AST.

* A MATCH clause binds every relationship-isomorphic embedding of its
  patterns (paper §7.1, footnote 2): no two relationships of one clause bind
  the same relationship, whether the variable is new or bound before. The
  embeddings are found by backtracking along each pattern's relationships
  from every candidate start node, never by enumerating node tuples.
* WHERE, WITH/RETURN projection, aggregation, DISTINCT, ORDER BY and
  SKIP/LIMIT follow, over a list of records (variable name to value).
* CREATE, DELETE and DETACH DELETE change a copy of the graph.

Expressions have their own evaluator with Cypher's NULL logic and ``id``,
``type``, ``labels`` and ``size``. Nodes and relationships are
:class:`Node`/:class:`Rel` values while a query runs and leave it as their
ids, as the engine's results hold them.

The graph is a :class:`Graph` of plain dicts keyed by store ids: built from
a test's spec with :func:`load`, which creates the spec in a database and
keeps the ids the store returned, or read from a database with
:func:`snapshot` for data a generator wrote. :func:`check` compares an
engine's rows with an :class:`Answer`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.cypher import ast
from repro.cypher.parser import parse


class OracleError(Exception):
    """The query does something the subset rejects at run time."""


# ---------------------------------------------------------------------------
# The graph
# ---------------------------------------------------------------------------


@dataclass
class Graph:
    """Nodes ``id -> (labels, properties)`` and relationships
    ``id -> (start, end, type, properties)``."""

    nodes: dict[int, tuple[frozenset, dict]] = field(default_factory=dict)
    rels: dict[int, tuple[int, int, str, dict]] = field(default_factory=dict)

    def copy(self) -> "Graph":
        return Graph(
            {n: (labels, dict(props)) for n, (labels, props) in self.nodes.items()},
            {r: (s, e, t, dict(props)) for r, (s, e, t, props) in self.rels.items()},
        )

    def incident(self, node: int, direction: ast.RelDirection):
        """``(rel, neighbour)`` for every relationship leaving ``node`` in
        the pattern's reading direction; a loop counts once."""
        for rel, (start, end, _, _) in self.rels.items():
            if direction is ast.RelDirection.LEFT_TO_RIGHT:
                if start == node:
                    yield rel, end
            elif direction is ast.RelDirection.RIGHT_TO_LEFT:
                if end == node:
                    yield rel, start
            elif start == node:
                yield rel, end
            elif end == node:
                yield rel, start


@dataclass
class Spec:
    """A graph to load: ``nodes[i] = (labels, properties)`` and
    ``rels[j] = (start index, end index, type, properties)``."""

    nodes: list[tuple[tuple[str, ...], dict]]
    rels: list[tuple[int, int, str, dict]]


def load(db, spec: Spec) -> Graph:
    """Create ``spec`` in ``db`` in one transaction; the graph keyed by the
    ids the store handed out."""
    graph = Graph()
    node_ids: list[int] = []
    with db.begin() as tx:
        for labels, props in spec.nodes:
            node = tx.create_node([db.label(label) for label in labels])
            for key, value in props.items():
                tx.set_node_property(node, db.property_key(key), value)
            node_ids.append(node)
            graph.nodes[node] = (frozenset(labels), dict(props))
        for start, end, type_name, props in spec.rels:
            rel = tx.create_relationship(
                node_ids[start], node_ids[end], db.relationship_type(type_name)
            )
            for key, value in props.items():
                tx.set_relationship_property(rel, db.property_key(key), value)
            graph.rels[rel] = (node_ids[start], node_ids[end], type_name, dict(props))
        tx.success()
    return graph


def snapshot(db) -> Graph:
    """The graph of ``db`` as a query on this thread would read it now —
    pinned snapshot and open transaction included — read through its
    store (for data a generator wrote rather than a spec)."""
    store = db.store
    graph = Graph()
    for node in store.all_nodes():
        graph.nodes[node] = (
            frozenset(store.labels.name_of(label) for label in store.node_labels(node)),
            {
                store.property_keys.name_of(key): value
                for key, value in store.node_properties(node).items()
            },
        )
    for rel in store.all_relationships():
        record = store.relationship(rel)
        graph.rels[rel] = (
            record.start_node,
            record.end_node,
            store.types.name_of(record.type_id),
            {
                store.property_keys.name_of(key): value
                for key, value in store.relationship_properties(rel).items()
            },
        )
    return graph


class Node:
    __slots__ = ("id",)

    def __init__(self, id: int) -> None:
        self.id = id

    def __eq__(self, other) -> bool:
        return type(other) is Node and other.id == self.id

    def __hash__(self) -> int:
        return hash(("node", self.id))

    def __repr__(self) -> str:
        return f"Node({self.id})"


class Rel:
    __slots__ = ("id",)

    def __init__(self, id: int) -> None:
        self.id = id

    def __eq__(self, other) -> bool:
        return type(other) is Rel and other.id == self.id

    def __hash__(self) -> int:
        return hash(("rel", self.id))

    def __repr__(self) -> str:
        return f"Rel({self.id})"


def _plain(value):
    """A value as the engine returns it: entities as their ids."""
    if isinstance(value, (Node, Rel)):
        return value.id
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _equal(left, right):
    if left is None or right is None:
        return None
    if _is_number(left) and _is_number(right):
        return left == right
    if type(left) is not type(right):
        return False
    return left == right


def _compare(op: ast.ComparisonOp, left, right):
    if op is ast.ComparisonOp.EQ:
        return _equal(left, right)
    if op is ast.ComparisonOp.NEQ:
        equal = _equal(left, right)
        return None if equal is None else not equal
    if left is None or right is None:
        return None
    both_numbers = _is_number(left) and _is_number(right)
    both_strings = isinstance(left, str) and isinstance(right, str)
    if not (both_numbers or both_strings):
        return None
    if op is ast.ComparisonOp.LT:
        return left < right
    if op is ast.ComparisonOp.GT:
        return left > right
    if op is ast.ComparisonOp.LE:
        return left <= right
    return left >= right


def _truth(value):
    """Three-valued truth: True, False or None (NULL)."""
    return None if value is None else bool(value)


class _Env:
    """What an expression sees: the record, the graph, the parameters and,
    inside an aggregating projection, the group's aggregate values."""

    def __init__(self, graph: Graph, params: Mapping[str, object]) -> None:
        self.graph = graph
        self.params = params

    def eval(self, expr: ast.Expression, record: Mapping, aggregates=None):
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Parameter):
            if expr.name not in self.params:
                raise OracleError(f"missing parameter ${expr.name}")
            return self.params[expr.name]
        if isinstance(expr, ast.Variable):
            if expr.name not in record:
                raise OracleError(f"variable {expr.name!r} not defined")
            return record[expr.name]
        if isinstance(expr, ast.PropertyAccess):
            subject = record[expr.subject]
            if subject is None:
                return None
            if isinstance(subject, Node):
                return self.graph.nodes[subject.id][1].get(expr.key)
            if isinstance(subject, Rel):
                return self.graph.rels[subject.id][3].get(expr.key)
            raise OracleError(f"property of a non-entity {subject!r}")
        if isinstance(expr, ast.HasLabel):
            subject = record[expr.subject]
            if subject is None:
                return None
            return expr.label in self.graph.nodes[subject.id][0]
        if isinstance(expr, ast.Comparison):
            return _compare(
                expr.op,
                self.eval(expr.left, record, aggregates),
                self.eval(expr.right, record, aggregates),
            )
        if isinstance(expr, ast.Not):
            value = _truth(self.eval(expr.operand, record, aggregates))
            return None if value is None else not value
        if isinstance(expr, ast.BooleanOp):
            left = _truth(self.eval(expr.left, record, aggregates))
            right = _truth(self.eval(expr.right, record, aggregates))
            if expr.op == "AND":
                if left is False or right is False:
                    return False
                return None if left is None or right is None else True
            if expr.op == "OR":
                if left is True or right is True:
                    return True
                return None if left is None or right is None else False
            return None if left is None or right is None else left != right
        if isinstance(expr, ast.Arithmetic):
            return self._arithmetic(
                expr.op,
                self.eval(expr.left, record, aggregates),
                self.eval(expr.right, record, aggregates),
            )
        if isinstance(expr, ast.FunctionCall):
            if expr.is_aggregate:
                if aggregates is None:
                    raise OracleError(f"{expr.name}() outside an aggregation")
                return aggregates[id(expr)]
            return self._function(
                expr.name,
                None if expr.argument is None else self.eval(expr.argument, record, aggregates),
            )
        raise OracleError(f"cannot evaluate {expr!r}")

    def _arithmetic(self, op: str, left, right):
        if left is None or right is None:
            return None
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        if not (_is_number(left) and _is_number(right)):
            raise OracleError(f"{left!r} {op} {right!r}")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if right == 0:
            raise OracleError("division by zero")
        if op == "/":
            if isinstance(left, float) or isinstance(right, float):
                return left / right
            return left // right
        return left % right

    def _function(self, name: str, value):
        if value is None:
            return None
        if name == "id":
            return value.id
        if name == "type":
            return self.graph.rels[value.id][2]
        if name == "labels":
            return sorted(self.graph.nodes[value.id][0])
        if name == "size":
            if isinstance(value, (list, str)):
                return len(value)
            raise OracleError(f"size({value!r})")
        raise OracleError(f"unknown function {name}()")


def _aggregate_calls(expr: ast.Expression) -> list[ast.FunctionCall]:
    if isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
        return [expr]
    calls = []
    for attr in ("left", "right", "operand", "argument"):
        child = getattr(expr, attr, None)
        if isinstance(child, ast.Expression):
            calls.extend(_aggregate_calls(child))
    return calls


def _key(value):
    """A hashable stand-in for grouping, DISTINCT and comparing rows."""
    if isinstance(value, tuple):
        return tuple(_key(item) for item in value)
    if isinstance(value, list):
        # The order collect() gathers values in is the engine's.
        return ("list", tuple(sorted((_key(item) for item in value), key=repr)))
    if isinstance(value, bool):
        return ("bool", value)
    return value


def _fold(call: ast.FunctionCall, values: list):
    """One aggregate over the group's argument values."""
    if call.star:
        return len(values)
    present = [value for value in values if value is not None]
    if call.distinct:
        seen, unique = set(), []
        for value in present:
            if _key(value) not in seen:
                seen.add(_key(value))
                unique.append(value)
        present = unique
    if call.name == "count":
        return len(present)
    if call.name == "collect":
        return present
    if call.name == "sum":
        return sum(present)
    if not present:
        return None
    if call.name == "avg":
        return sum(present) / len(present)
    if call.name == "min":
        return min(present)
    return max(present)


def order_key(value):
    """Ascending ORDER BY position of a value: numbers, then booleans, then
    everything else by its text, NULL last."""
    if value is None:
        return (3, 0)
    if isinstance(value, bool):
        return (1, value)
    if _is_number(value):
        return (0, value)
    if isinstance(value, (Node, Rel)):
        return (0, value.id)
    return (2, str(_plain(value)))


class _Desc:
    """Reverses the order of a key."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_Desc") -> bool:
        return other.key < self.key

    def __eq__(self, other) -> bool:
        return self.key == other.key


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------


def _node_ok(env: _Env, element: ast.NodePatternAst, node: int, record) -> bool:
    labels, props = env.graph.nodes[node]
    if not all(label in labels for label in element.labels):
        return False
    return all(
        _equal(props.get(key), env.eval(value, record)) is True
        for key, value in element.properties.items()
    )


def _rel_ok(env: _Env, element: ast.RelPatternAst, rel: int, record) -> bool:
    _, _, type_name, props = env.graph.rels[rel]
    if element.types and type_name not in element.types:
        return False
    return all(
        _equal(props.get(key), env.eval(value, record)) is True
        for key, value in element.properties.items()
    )


def _match(env: _Env, patterns: Sequence[ast.PatternPath], record: dict):
    """Every extension of ``record`` embedding all ``patterns`` with
    pairwise distinct relationships."""

    def bind(record: dict, name: Optional[str], value) -> Optional[dict]:
        if name is None:
            return record
        bound = record.get(name)
        if bound is not None or name in record:
            return record if bound == value else None
        out = dict(record)
        out[name] = value
        return out

    def paths(index: int, record: dict, used: frozenset):
        if index == len(patterns):
            yield record
            return
        elements = patterns[index].elements
        first = elements[0]
        bound = record.get(first.variable) if first.variable else None
        starts = [bound.id] if isinstance(bound, Node) else env.graph.nodes
        for start in starts:
            if start not in env.graph.nodes or not _node_ok(env, first, start, record):
                continue
            here = bind(record, first.variable, Node(start))
            if here is None:
                continue
            for done, rels in steps(elements, 1, start, here, used):
                yield from paths(index + 1, done, rels)

    def steps(elements, position: int, at: int, record: dict, used: frozenset):
        if position == len(elements):
            yield record, used
            return
        rel_element, node_element = elements[position], elements[position + 1]
        for rel, neighbour in env.graph.incident(at, rel_element.direction):
            if rel in used or not _rel_ok(env, rel_element, rel, record):
                continue
            with_rel = bind(record, rel_element.variable, Rel(rel))
            if with_rel is None:
                continue
            if not _node_ok(env, node_element, neighbour, with_rel):
                continue
            with_node = bind(with_rel, node_element.variable, Node(neighbour))
            if with_node is None:
                continue
            yield from steps(elements, position + 2, neighbour, with_node, used | {rel})

    yield from paths(0, record, frozenset())


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------


@dataclass
class Answer:
    """A query's rows (entity values as ids) before SKIP/LIMIT, in ORDER BY
    order when ``ordered``, each with its sort key; ``skip``/``limit`` are
    the window; ``graph`` is the graph after the query's writes."""

    columns: list[str]
    rows: list[tuple]
    keys: list[tuple]
    ordered: bool
    skip: int
    limit: Optional[int]
    graph: Graph


def run(graph: Graph, text: str, params: Optional[Mapping[str, object]] = None) -> Answer:
    """Evaluate ``text`` over ``graph`` (left unchanged)."""
    query = parse(text)
    writes = any(
        isinstance(clause, (ast.CreateClause, ast.DeleteClause))
        for clause in query.clauses
    )
    env = _Env(graph.copy() if writes else graph, dict(params or {}))
    records: list[dict] = [{}]
    scope: list[str] = []  # in-scope names, in order of introduction
    for clause in query.clauses:
        if isinstance(clause, (ast.MatchClause, ast.CreateClause)):
            for pattern in clause.patterns:
                for element in pattern.elements:
                    if element.variable and element.variable not in scope:
                        scope.append(element.variable)
        if isinstance(clause, ast.MatchClause):
            if clause.optional:
                raise OracleError("OPTIONAL MATCH")
            records = [
                out
                for record in records
                for out in _match(env, clause.patterns, record)
                if clause.where is None
                or env.eval(clause.where, out) is True
            ]
        elif isinstance(clause, ast.CreateClause):
            records = [_create(env, clause, record) for record in records]
        elif isinstance(clause, ast.DeleteClause):
            _delete(env, clause, records)
        elif isinstance(clause, ast.WithClause):
            scope = [item.output_name for item in _items(clause, scope)]
            records = [row for row, _ in _project(env, clause, records, scope)]
            if clause.where is not None:
                records = [r for r in records if env.eval(clause.where, r) is True]
        else:
            return _return(env, clause, records, scope)
    return Answer([], [], [], False, 0, None, env.graph)


def _items(clause, scope: list[str]) -> list[ast.ProjectionItem]:
    if not clause.star:
        return clause.items
    return [ast.ProjectionItem(ast.Variable(name), alias=name) for name in scope]


def _project(env: _Env, clause, records: list[dict], scope: list[str]):
    """``(projected record, record it came from or None)`` pairs: one per
    record, one per group when an item aggregates, duplicates dropped
    under DISTINCT."""
    items = _items(clause, scope)
    aggregating = [item for item in items if _aggregate_calls(item.expression)]
    if not aggregating:
        out = [
            ({item.output_name: env.eval(item.expression, r) for item in items}, r)
            for r in records
        ]
    else:
        keys = [item for item in items if not _aggregate_calls(item.expression)]
        groups: dict[tuple, list[dict]] = {}
        for record in records:
            values = tuple(_key(env.eval(item.expression, record)) for item in keys)
            groups.setdefault(values, []).append(record)
        if not groups and not keys:
            groups[()] = []
        out = []
        for members in groups.values():
            sample = members[0] if members else {}
            aggregates = {}
            for item in aggregating:
                for call in _aggregate_calls(item.expression):
                    aggregates[id(call)] = _fold(
                        call,
                        [None if call.star else env.eval(call.argument, r) for r in members],
                    )
            row = {}
            for item in items:
                row[item.output_name] = (
                    env.eval(item.expression, sample, aggregates)
                    if item in aggregating
                    else env.eval(item.expression, sample)
                )
            out.append((row, None))
    if clause.distinct:
        seen, unique = set(), []
        for row, source in out:
            key = tuple(_key(value) for value in row.values())
            if key not in seen:
                seen.add(key)
                unique.append((row, None))
        out = unique
    return out


def _return(
    env: _Env, clause: ast.ReturnClause, records: list[dict], scope: list[str]
) -> Answer:
    items = _items(clause, scope)
    projected = _project(env, clause, records, scope)
    columns = [item.output_name for item in items]
    keys = []
    for row, source in projected:
        key = []
        for expr, ascending in clause.order_by:
            match = next(
                (item.output_name for item in items if item.expression == expr), None
            )
            if match is not None:
                value = row[match]
            else:
                scope = dict(source or {})
                scope.update(row)
                value = env.eval(expr, scope)
            key.append(order_key(value) if ascending else _Desc(order_key(value)))
        keys.append(tuple(key))
    rows = [tuple(_plain(row[name]) for name in columns) for row, _ in projected]
    if clause.order_by:
        order = sorted(range(len(rows)), key=lambda i: keys[i])
        rows = [rows[i] for i in order]
        keys = [keys[i] for i in order]
    skip = _count(env, clause.skip, 0)
    limit = _count(env, clause.limit, None)
    return Answer(columns, rows, keys, bool(clause.order_by), skip, limit, env.graph)


def _count(env: _Env, value, default):
    if value is None:
        return default
    if isinstance(value, ast.Parameter):
        return env.params[value.name]
    return value


def _create(env: _Env, clause: ast.CreateClause, record: dict) -> dict:
    graph = env.graph
    record = dict(record)
    for pattern in clause.patterns:
        elements = pattern.elements
        ends: list[Node] = []
        for element in elements[0::2]:
            bound = record.get(element.variable) if element.variable else None
            if bound is None:
                node = max(list(graph.nodes) + [-1]) + 1 + 10**9
                graph.nodes[node] = (
                    frozenset(element.labels),
                    _properties(env, element, record),
                )
                bound = Node(node)
                if element.variable:
                    record[element.variable] = bound
            ends.append(bound)
        for i, element in enumerate(elements[1::2]):
            start, end = ends[i], ends[i + 1]
            if element.direction is ast.RelDirection.RIGHT_TO_LEFT:
                start, end = end, start
            rel = max(list(graph.rels) + [-1]) + 1 + 10**9
            graph.rels[rel] = (
                start.id,
                end.id,
                element.types[0],
                _properties(env, element, record),
            )
            if element.variable:
                record[element.variable] = Rel(rel)
    return record


def _properties(env: _Env, element, record: dict) -> dict:
    out = {}
    for key, expr in element.properties.items():
        value = env.eval(expr, record)
        if value is not None:
            out[key] = value
    return out


def _delete(env: _Env, clause: ast.DeleteClause, records: list[dict]) -> None:
    graph = env.graph
    for record in records:
        for expr in clause.expressions:
            value = env.eval(expr, record)
            if value is None:
                continue
            if isinstance(value, Rel):
                graph.rels.pop(value.id, None)
                continue
            if value.id not in graph.nodes:
                continue
            attached = [
                rel
                for rel, (start, end, _, _) in graph.rels.items()
                if value.id in (start, end)
            ]
            if attached and not clause.detach:
                raise OracleError("cannot delete a node with relationships")
            for rel in attached:
                del graph.rels[rel]
            del graph.nodes[value.id]


# ---------------------------------------------------------------------------
# Comparing an engine's answer
# ---------------------------------------------------------------------------


def window(answer: Answer) -> list[tuple]:
    """The rows SKIP/LIMIT keep (one valid order when ``ordered``)."""
    end = None if answer.limit is None or answer.limit < 0 else answer.skip + answer.limit
    return answer.rows[answer.skip : end]


def check(answer: Answer, rows: Sequence[tuple], context: object = "") -> None:
    """Assert an engine's ``rows`` (column tuples, in result order) are a
    correct answer.

    Without ORDER BY any order is correct, and SKIP/LIMIT may keep any
    rows of the right number. With ORDER BY the rows must follow the sort
    order: position by position, a row must carry the key the oracle's
    sorted answer has there, so only rows tied on every key may trade
    places (or cross the window's edges).
    """
    rows = [tuple(row) for row in rows]
    expected = window(answer)
    assert len(rows) == len(expected), (context, len(rows), len(expected))
    if not answer.ordered:
        full = Counter(_key(row) for row in answer.rows)
        got = Counter(_key(row) for row in rows)
        if answer.skip or answer.limit is not None:
            assert not got - full, (context, got - full)
        else:
            assert got == full, (context, got - full, full - got)
        return
    start = answer.skip
    position_keys = answer.keys[start : start + len(rows)]
    by_key: dict = {}
    for key, row in zip(answer.keys, answer.rows):
        by_key.setdefault(_sort_identity(key), Counter())[_key(row)] += 1
    taken: dict = {}
    for key, row in zip(position_keys, rows):
        group = _sort_identity(key)
        counter = taken.setdefault(group, Counter())
        counter[_key(row)] += 1
        assert counter[_key(row)] <= by_key[group][_key(row)], (context, row, rows)


def _sort_identity(key: tuple) -> tuple:
    return tuple(part.key if isinstance(part, _Desc) else part for part in key)


def plain_rows(result) -> list[tuple]:
    """A Result's rows as column tuples."""
    return [tuple(row[column] for column in result.columns) for row in result.to_list()]


def graph_form(graph: Graph, before: Graph) -> tuple:
    """``graph`` with the ids of entities not in ``before`` (those a query
    created) erased, for comparing the graph a write left behind."""

    def properties(props):
        return tuple(sorted(props.items()))

    def node_form(node):
        labels, props = graph.nodes[node]
        name = node if node in before.nodes else None
        return (name, tuple(sorted(labels)), properties(props))

    nodes = Counter(node_form(node) for node in graph.nodes)
    rels = Counter(
        (
            rel if rel in before.rels else None,
            node_form(start),
            node_form(end),
            type_name,
            properties(props),
        )
        for rel, (start, end, type_name, props) in graph.rels.items()
    )
    return nodes, rels
