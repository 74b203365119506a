"""What generated code calls at run time, and what codegen derives from
plans: the aggregate accumulator and group state, the skip-scan's entry
constraints and restart keys (§5.1.2), the scan's leading key prefix, the
node-id seek test, the sort key and the grouping key.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence, Union

from repro.cypher import ast
from repro.errors import ReproError
from repro.planner.plans import PlanNodeByIdSeek, PlanPathIndexFilteredScan


def _label_ids(ctx, checks) -> list[tuple[str, Optional[int]]]:
    return [(var, ctx.store.labels.id_of(label)) for var, label in checks]


def _node_id_seeker(
    plan: PlanNodeByIdSeek, ctx
) -> Callable[[object, int], bool]:
    """``found(bound, node_id)``: does ``node_id`` (the
    plan's id, bound for this execution) name a node the reader can see —
    the same record version a label scan would have produced — that
    carries the pattern's labels and agrees with ``bound``, the argument
    row's binding of the variable (None: unbound)?"""
    try_read = ctx.store.nodes.try_read
    id_of = ctx.store.labels.id_of
    label_names = [label for _, label in plan.post_labels]
    label_ids = [id_of(label) for label in label_names]

    def found(bound: object, node_id: int) -> bool:
        if bound is not None and bound != node_id:
            return False
        record = try_read(node_id)
        if record is None:
            return False
        # Re-resolved while incomplete: an earlier part of the same query
        # may have created the label (parts compile before rows flow).
        required = (
            label_ids if None not in label_ids else [id_of(label) for label in label_names]
        )
        return all(label_id in record.labels for label_id in required)

    return found


def _leading_prefix(
    constants: Sequence[Optional[int]], bound: Sequence[object]
) -> tuple[int, ...]:
    """The key prefix a scan can be confined to: per entry position the id
    an ``id(v) = k`` fixes (its slot bound for this execution), else the
    argument row's binding of the variable, for as long as there is one. A
    later known id is no bound — seeking to it per entry is a tree descent
    per entry, slower than the sequential read — and stays a per-entry
    check."""
    prefix: list[int] = []
    for constant, value in zip(constants, bound):
        if constant is None:
            constant = value
        if type(constant) is not int or constant < 0:
            break
        prefix.append(constant)
    return tuple(prefix)


class ScanConstraints(NamedTuple):
    """What a PathIndexFilteredScan checks on the entry tuple itself."""

    must_differ: list[tuple[int, int]]
    """Position pairs that must differ: relationship uniqueness and
    top-level ``x <> y`` predicates over two entry variables."""
    must_equal: list[tuple[int, int]]
    """Position pairs that must be equal (repeated variables)."""
    constants: tuple[Optional[Union[int, ast.Parameter]], ...]
    """Per position, the ``k`` of an ``id(v) = k`` predicate on its variable
    (None: no such predicate; ``k`` may be an INT slot, bound per
    execution); its leading run bounds the scan."""
    checks: list[tuple[int, Union[int, ast.Parameter]]]
    """``(position, k)`` for the constants behind that leading run."""
    residual: list[ast.Expression]
    """The predicates none of the above absorbs, evaluated per bound row."""


def _filtered_scan_constraints(plan: PlanPathIndexFilteredScan) -> ScanConstraints:
    """Skip-scan constraints (§5.1.2), kept on the (immutable, cached)
    plan node they were derived from."""
    cached = plan.__dict__.get("_scan_constraints")
    if cached is not None:
        return cached
    entry_vars = plan.entry_vars
    width = len(entry_vars)
    position_of: dict[str, int] = {}
    for position, var in enumerate(entry_vars):
        position_of.setdefault(var, position)
    must_differ: list[tuple[int, int]] = []
    must_equal: list[tuple[int, int]] = []
    residual_predicates: list[ast.Expression] = []
    seen_rel_positions: dict[str, int] = {}
    for position, var in enumerate(entry_vars):
        if position % 2 == 1:
            first = seen_rel_positions.setdefault(var, position)
            if first != position:
                must_equal.append((first, position))
    rel_positions = [p for p in range(1, width, 2)]
    for i_index, i in enumerate(rel_positions):
        for j in rel_positions[i_index + 1 :]:
            if entry_vars[i] != entry_vars[j]:
                must_differ.append((i, j))
    for position, var in enumerate(entry_vars):
        if position % 2 == 0 and position_of[var] != position:
            must_equal.append((position_of[var], position))
    id_of_var: dict[str, int] = {}
    for predicate in plan.predicates:
        pair = _neq_entry_pair(predicate, position_of)
        fixed = ast.id_equality(predicate)
        if pair is not None:
            must_differ.append(pair)
        elif (
            fixed is not None
            and fixed[0] in position_of
            and fixed[0] not in id_of_var
        ):
            id_of_var[fixed[0]] = fixed[1]
        else:
            # Including a second ``id(v) = k'`` on the same variable: it is
            # evaluated against the one entry range the first leaves.
            residual_predicates.append(predicate)
    must_differ.sort(key=lambda pair: pair[1])
    must_equal.sort(key=lambda pair: pair[1])
    constants = tuple(id_of_var.get(var) for var in entry_vars)
    # Every constant ``id_equality`` accepts is a non-negative int in every
    # execution, so the leading run is known before any value is.
    bounded = next(
        (position for position, value in enumerate(constants) if value is None),
        width,
    )
    constraints = ScanConstraints(
        must_differ,
        must_equal,
        constants,
        [
            (position, value)
            for position, value in enumerate(constants)
            if value is not None and position >= bounded
        ],
        residual_predicates,
    )
    plan.__dict__["_scan_constraints"] = constraints
    return constraints


def _skip_target(entry, differ, equal, width) -> Optional[tuple[int, ...]]:
    """First key past the violating subtree, or None if ``entry`` is clean."""
    for i, j in differ:
        if entry[i] == entry[j]:
            return entry[:j] + (entry[j] + 1,) + (0,) * (width - j - 1)
    for i, j in equal:
        target = entry[i]
        if entry[j] < target:
            return entry[:j] + (target,) + (0,) * (width - j - 1)
        if entry[j] > target:
            if j == 0:
                return None  # cannot happen: position 0 pairs with itself
            return entry[: j - 1] + (entry[j - 1] + 1,) + (0,) * (width - j)
    return None


def _neq_entry_pair(predicate, position_of) -> Optional[tuple[int, int]]:
    """`x <> y` over two entry variables → their (earlier, later) positions."""
    if not isinstance(predicate, ast.Comparison):
        return None
    if predicate.op is not ast.ComparisonOp.NEQ:
        return None
    if not isinstance(predicate.left, ast.Variable):
        return None
    if not isinstance(predicate.right, ast.Variable):
        return None
    left = position_of.get(predicate.left.name)
    right = position_of.get(predicate.right.name)
    if left is None or right is None or left == right:
        return None
    return (min(left, right), max(left, right))


class _Accumulator:
    """State for one aggregate function call within one group."""

    __slots__ = (
        "call", "star", "count", "total", "minimum", "maximum", "values", "seen"
    )

    def __init__(self, call: ast.FunctionCall) -> None:
        self.call = call
        self.star = call.star
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None
        self.values: list = []
        self.seen: set = set()

    def feed_value(self, value) -> None:
        """Accumulate one evaluated argument (count(*) counts every row)."""
        if self.star:
            self.count += 1
            return
        name = self.call.name
        if value is None:
            return  # aggregates skip NULLs (Cypher semantics)
        if self.call.distinct:
            key = repr(value) if isinstance(value, (list, dict)) else value
            if key in self.seen:
                return
            self.seen.add(key)
        self.count += 1
        if name in ("sum", "avg"):
            self.total += value
        elif name == "min":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif name == "max":
            if self.maximum is None or value > self.maximum:
                self.maximum = value
        elif name == "collect":
            self.values.append(value)

    def result(self):
        name = self.call.name
        if name == "count":
            return self.count
        if name == "sum":
            return self.total  # sum over no rows is 0, as in Cypher
        if name == "avg":
            return self.total / self.count if self.count else None
        if name == "min":
            return self.minimum
        if name == "max":
            return self.maximum
        if name == "collect":
            return self.values
        raise ReproError(f"unknown aggregate {name}()")


def _new_group(calls: Sequence[ast.FunctionCall], item: tuple) -> tuple:
    """A group's state from its first item ``(key_values, fed_values)``:
    the key values and one accumulator per aggregate call."""
    return (item[0], [_Accumulator(call) for call in calls])


def _feed_group(state: tuple, item: tuple) -> None:
    """Fold an item's fed values (one per call) into a group's state."""
    for accumulator, value in zip(state[1], item[1]):
        accumulator.feed_value(value)


def _aggregate_calls(expression: ast.Expression) -> list[ast.FunctionCall]:
    calls: list[ast.FunctionCall] = []

    def walk(node) -> None:
        if isinstance(node, ast.FunctionCall) and node.is_aggregate:
            calls.append(node)
            return
        for attr in ("left", "right", "operand", "argument"):
            child = getattr(node, attr, None)
            if isinstance(child, ast.Expression):
                walk(child)

    walk(expression)
    return calls


def _hashable(value):
    if isinstance(value, (list, dict)):
        return repr(value)
    return value


def _sort_key(value):
    # NULLs order last in ascending order; booleans after numbers.
    if value is None:
        return (3, 0)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (0, value)
    return (2, str(value))
