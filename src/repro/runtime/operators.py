"""The row engine: logical plans compiled into pull-based operator closures.

``compile_plan`` turns a :class:`~repro.planner.plans.LogicalPlan` tree into
a function ``run(argument) -> Iterator[row]`` over slot rows (see
:mod:`repro.runtime.slots`). A pattern operator's argument is one argument
row; a boundary operator's (Projection, Aggregation, Sort, the projection
``WHERE`` Filter, Distinct, Limit) is the part's whole row stream, so the
pattern half of a part runs once per argument row and its boundary once
per part. Every operator:

* merges its bindings into the incoming argument row,
* enforces Cypher's relationship-uniqueness semantics when binding
  relationships (paper §7.1, footnote 2),
* increments its row counter in the profile, from which the *max intermediate
  state cardinality* metric is derived.

``PathIndexFilteredScan`` implements the B+-tree skip-scan of §5.1.2: when an
entry violates an entry-internal constraint (repeated relationship, a
``x <> y`` predicate over entry variables, or a binding inconsistency), the
scan seeks past the whole violating subtree instead of stepping entry by
entry. Identifiers the scan knows before it starts — ``id(v) = k`` literals
or slots and variables bound by the argument row — bound the scan itself for
as long as they form a leading key prefix: it starts at the prefix and ends
with it.

Expressions compile with :func:`~repro.runtime.expressions.compile_expression`
and plan fields that may hold a parameter slot (a NodeByIdSeek's id, Limit's
counts, a filtered scan's ``id(v) = k``) are bound once per execution, when
``compile_plan`` builds the pipeline, from ``ctx.eval_ctx.params``.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from repro.cypher import ast
from repro.errors import ReproError
from repro.pathindex.store import PathIndexStore
from repro.planner.plans import (
    LogicalPlan,
    PlanAggregation,
    PlanAllNodesScan,
    PlanArgument,
    PlanCartesianProduct,
    PlanDistinct,
    PlanExpand,
    PlanFilter,
    PlanLimit,
    PlanNodeByIdSeek,
    PlanNodeByLabelScan,
    PlanNodeHashJoin,
    PlanPathIndexFilteredScan,
    PlanPathIndexPrefixSeek,
    PlanPathIndexScan,
    PlanProjection,
    PlanRelationshipByTypeScan,
    PlanSort,
)
from repro.resources import (
    NULL_TRACKER,
    ROW_BYTES,
    AggregationSpillBuffer,
    AppendSpillBuffer,
    Desc,
    DistinctSpillBuffer,
    JoinSpillBuffer,
    SortSpillBuffer,
)
from repro.runtime.expressions import (
    EvaluationContext,
    compile_expression,
    compile_predicate,
)
from repro.runtime.slots import (
    SlotLayout,
    _entry_binder,
    _merge_rows,
    _resolve_type_ids,
)
from repro.storage.graphstore import GraphStore

RunFn = Callable[[object], Iterator[list]]


class OperatorProfile:
    """Rows produced per operator, keyed by plan-node identity.

    ``peak_bytes`` / ``spills`` carry the memory tracker's per-operator
    accounting (peak buffered bytes and spill-run counts); keys are
    ``id(plan)`` for plan operators and plain strings for non-plan buffers
    (the update buffer, index initialization).
    """

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}
        self.descriptions: dict[int, str] = {}
        self.peak_bytes: dict = {}
        self.spills: dict = {}

    def record(self, plan: LogicalPlan, count: int) -> None:
        key = id(plan)
        self.rows[key] = self.rows.get(key, 0) + count
        if key not in self.descriptions:
            self.descriptions[key] = plan.description

    def record_memory(self, key, peak: int, spills: int, description: str) -> None:
        self.peak_bytes[key] = max(self.peak_bytes.get(key, 0), peak)
        if spills:
            self.spills[key] = self.spills.get(key, 0) + spills
        if key not in self.descriptions:
            self.descriptions[key] = description

    def max_intermediate_cardinality(self) -> int:
        return max(self.rows.values(), default=0)

    def by_operator(self) -> list[tuple[str, int]]:
        return [
            (self.descriptions[key], count) for key, count in self.rows.items()
        ]

    def bytes_by_operator(self) -> list[tuple[str, int, int]]:
        """``(description, peak_bytes, spill_runs)`` per charged operator."""
        return [
            (self.descriptions.get(key, str(key)), peak, self.spills.get(key, 0))
            for key, peak in self.peak_bytes.items()
        ]

    def total_spill_runs(self) -> int:
        return sum(self.spills.values())


class RuntimeContext:
    """Shared state for one query execution.

    ``token`` (when set) is a cooperative cancellation token — see
    ``repro.service.cancellation`` — checked at every operator's row
    boundary (row engine) or every ``CHECK_STRIDE`` source-loop
    iterations (generated code), so deadline expiry or an explicit cancel
    stops a query mid-scan instead of letting it run to completion.
    ``morsel_size`` is the output chunk size of generated code; the row
    engine ignores it.

    ``tracker`` (when set) is a per-query
    :class:`~repro.resources.MemoryTracker`: blocking operators charge it as
    their buffers grow and spill to disk once the query's grant is
    exceeded. Without one, :meth:`mem` returns a no-op tracker, so operator
    code charges unconditionally.
    """

    def __init__(
        self,
        store: GraphStore,
        index_store: Optional[PathIndexStore],
        eval_ctx: EvaluationContext,
        profile: OperatorProfile,
        token: Optional[object] = None,
        morsel_size: int = 1024,
        tracker=None,
    ) -> None:
        self.store = store
        self.index_store = index_store
        self.eval_ctx = eval_ctx
        self.profile = profile
        self.token = token
        self.morsel_size = morsel_size
        self.tracker = tracker

    def mem(self):
        return self.tracker if self.tracker is not None else NULL_TRACKER


def compile_plan(
    plan: LogicalPlan,
    ctx: RuntimeContext,
    layout: SlotLayout,
    seam: Optional[LogicalPlan] = None,
    source: Optional[RunFn] = None,
) -> RunFn:
    """Compile ``plan`` into an executable pipeline with profiling.

    When ``seam`` is given, that node is not compiled: ``source`` stands
    in for it (the executor's Apply of the pattern half, or an update
    part's written rows). With a cancellation token on the context, every
    row crossing an operator also passes a token check; tokenless
    execution pays nothing.
    """
    if plan is seam:
        return source
    operator = _OPERATORS.get(type(plan))
    if operator is None:
        raise ReproError(f"no runtime operator for {type(plan).__name__}")
    children = [
        compile_plan(child, ctx, layout, seam, source) for child in plan.children
    ]
    run = operator(plan, ctx, layout, *children)
    record = ctx.profile.record
    token = ctx.token
    if token is None:
        def counted(argument) -> Iterator[list]:
            for row in run(argument):
                record(plan, 1)
                yield row
    else:
        check = token.check

        def counted(argument) -> Iterator[list]:
            for row in run(argument):
                check()
                record(plan, 1)
                yield row

    return counted


def _compiled(expression: ast.Expression, ctx: RuntimeContext, slot_of):
    """``expression`` compiled for this execution (its parameters bound)."""
    return compile_expression(expression, slot_of, ctx.eval_ctx, ctx.eval_ctx.params)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _label_ids(ctx: RuntimeContext, checks) -> list[tuple[str, Optional[int]]]:
    return [(var, ctx.store.labels.id_of(label)) for var, label in checks]


def _labels_ok(ctx, node_id: int, label_ids: list[Optional[int]]) -> bool:
    for label_id in label_ids:
        if label_id is None or not ctx.store.has_label(node_id, label_id):
            return False
    return True


def _with(row: list, slot: int, value: object) -> list:
    """A copy of ``row`` with ``slot`` bound to ``value``."""
    out = row[:]
    out[slot] = value
    return out


# ---------------------------------------------------------------------------
# Leaf operators
# ---------------------------------------------------------------------------


def _argument(plan: PlanArgument, ctx: RuntimeContext, layout) -> RunFn:
    def run(arg_row: list) -> Iterator[list]:
        yield arg_row

    return run


def _all_nodes_scan(plan: PlanAllNodesScan, ctx: RuntimeContext, layout) -> RunFn:
    slot = layout.slot_of(plan.node)

    def run(arg_row: list) -> Iterator[list]:
        bound = arg_row[slot]
        for node_id in ctx.store.all_nodes():
            if bound is not None and bound != node_id:
                continue
            yield _with(arg_row, slot, node_id)

    return run


def _node_by_label_scan(
    plan: PlanNodeByLabelScan, ctx: RuntimeContext, layout
) -> RunFn:
    slot = layout.slot_of(plan.node)
    post = [label_id for _, label_id in _label_ids(ctx, plan.post_labels)]
    # Hoisted out of ``run``; the fallback covers labels created by an
    # earlier part of the same query (parts compile before rows flow).
    label_id_static = ctx.store.labels.id_of(plan.label)

    def run(arg_row: list) -> Iterator[list]:
        label_id = (
            label_id_static
            if label_id_static is not None
            else ctx.store.labels.id_of(plan.label)
        )
        if label_id is None:
            return
        bound = arg_row[slot]
        for node_id in ctx.store.nodes_with_label(label_id):
            if bound is not None and bound != node_id:
                continue
            if post and not _labels_ok(ctx, node_id, post):
                continue
            yield _with(arg_row, slot, node_id)

    return run


def _node_id_seeker(
    plan: PlanNodeByIdSeek, ctx: RuntimeContext
) -> Callable[[object, int], bool]:
    """``found(bound, node_id)`` for both engines: does ``node_id`` (the
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


def _node_by_id_seek(plan: PlanNodeByIdSeek, ctx: RuntimeContext, layout) -> RunFn:
    slot = layout.slot_of(plan.node)
    found = _node_id_seeker(plan, ctx)
    node_id = ast.bind(plan.node_id, ctx.eval_ctx.params)

    def run(arg_row: list) -> Iterator[list]:
        if found(arg_row[slot], node_id):
            yield _with(arg_row, slot, node_id)

    return run


def _relationship_by_type_scan(
    plan: PlanRelationshipByTypeScan, ctx: RuntimeContext, layout
) -> RunFn:
    if ctx.index_store is None:
        raise ReproError("RelationshipByTypeScan requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    slot_of = layout.slot_of
    rel_slot = slot_of(plan.rel)
    start_slot, end_slot = slot_of(plan.start_node), slot_of(plan.end_node)
    label_checks = [
        (slot_of(var), ctx.store.labels.id_of(label)) for var, label in plan.post_labels
    ]
    width = layout.width

    def run(arg_row: list) -> Iterator[list]:
        bound_rel = arg_row[rel_slot]
        rels = arg_row[width]
        for start_id, rel_id, end_id in index.scan():
            if bound_rel is not None and bound_rel != rel_id:
                continue
            if rel_id in rels and bound_rel != rel_id:
                continue  # relationship uniqueness (bound by another variable)
            orientations = [(start_id, end_id)]
            if not plan.directed and start_id != end_id:
                orientations.append((end_id, start_id))
            for source, target in orientations:
                bound_start = arg_row[start_slot]
                if bound_start is not None and bound_start != source:
                    continue
                row = _with(arg_row, start_slot, source)
                # Read after binding the start: both endpoints may be one
                # variable.
                bound_end = row[end_slot]
                if bound_end is not None and bound_end != target:
                    continue
                row[end_slot] = target
                row[rel_slot] = rel_id
                for slot, label_id in label_checks:
                    node_id = row[slot]
                    # An unbound check variable can never satisfy the label.
                    if (
                        node_id is None
                        or label_id is None
                        or not ctx.store.has_label(int(node_id), label_id)
                    ):
                        break
                else:
                    row[width] = rels if rel_id in rels else rels + (rel_id,)
                    yield row

    return run


# ---------------------------------------------------------------------------
# Expand / join / product / filter
# ---------------------------------------------------------------------------


def _expand(plan: PlanExpand, ctx: RuntimeContext, layout, child: RunFn) -> RunFn:
    post = [label_id for _, label_id in _label_ids(ctx, plan.post_labels)]
    from_slot = layout.slot_of(plan.from_node)
    rel_slot, to_slot = layout.slot_of(plan.rel), layout.slot_of(plan.to_node)
    width = layout.width
    into = plan.into
    # Hoisted: types resolved once at compile time; re-resolved at run start
    # only while incomplete (a type may be created by an earlier query part).
    static_type_ids = (
        _resolve_type_ids(ctx.store, plan.types) if plan.types else None
    )

    def run(arg_row: list) -> Iterator[list]:
        type_ids: Optional[set[int]] = None
        single_type: Optional[int] = None
        if plan.types:
            resolved = static_type_ids
            if len(resolved) < len(plan.types):
                resolved = _resolve_type_ids(ctx.store, plan.types)
            if not resolved:
                return  # none of the requested types exist
            if len(resolved) == 1:
                single_type = next(iter(resolved))
            else:
                type_ids = resolved  # filter during iteration
        for row in child(arg_row):
            from_id = row[from_slot]
            if from_id is None:
                continue
            target_bound = row[to_slot] if into else None
            bound_rel = row[rel_slot]
            rels = row[width]
            for rel, neighbour in ctx.store.expand(
                int(from_id), plan.direction, single_type
            ):
                if type_ids is not None and rel.type_id not in type_ids:
                    continue
                rel_id = rel.id
                if bound_rel is not None and bound_rel != rel_id:
                    continue
                if rel_id in rels and bound_rel != rel_id:
                    continue  # relationship uniqueness
                if into:
                    if neighbour != target_bound:
                        continue
                elif post and not _labels_ok(ctx, neighbour, post):
                    continue
                out = _with(row, rel_slot, rel_id)
                if not into:
                    out[to_slot] = neighbour
                out[width] = rels if rel_id in rels else rels + (rel_id,)
                yield out

    return run


def _node_hash_join(
    plan: PlanNodeHashJoin, ctx: RuntimeContext, layout, left: RunFn, right: RunFn
) -> RunFn:
    key_slots = [layout.slot_of(var) for var in plan.join_nodes]
    width = layout.width

    def run(arg_row: list) -> Iterator[list]:
        shared = frozenset(arg_row[width])

        def merge(partner: list, row: list) -> Optional[list]:
            return _merge_rows(partner, row, shared, width)

        buffer = JoinSpillBuffer(ctx.mem(), plan, merge)
        for row in left(arg_row):
            buffer.insert(tuple([row[slot] for slot in key_slots]), row)
        for row in right(arg_row):
            yield from buffer.probe(tuple([row[slot] for slot in key_slots]), row)
        yield from buffer.drain()

    return run


def _cartesian_product(
    plan: PlanCartesianProduct, ctx: RuntimeContext, layout, left: RunFn, right: RunFn
) -> RunFn:
    width = layout.width

    def run(arg_row: list) -> Iterator[list]:
        right_rows: Optional[AppendSpillBuffer] = None
        shared = frozenset(arg_row[width])
        for left_row in left(arg_row):
            if right_rows is None:
                right_rows = AppendSpillBuffer(ctx.mem(), plan)
                for row in right(arg_row):
                    right_rows.add(row)
            for right_row in right_rows:
                merged = _merge_rows(left_row, right_row, shared, width)
                if merged is not None:
                    yield merged

    return run


def _filter(plan: PlanFilter, ctx: RuntimeContext, layout, child: RunFn) -> RunFn:
    eval_ctx = ctx.eval_ctx
    predicates = [
        compile_predicate(predicate, layout.slot_of, eval_ctx, eval_ctx.params)
        for predicate in plan.predicates
    ]

    def run(argument) -> Iterator[list]:
        for row in child(argument):
            if all(predicate(row) for predicate in predicates):
                yield row

    return run


# ---------------------------------------------------------------------------
# Path index operators (§5.1)
# ---------------------------------------------------------------------------


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


def _path_index_scan(plan: PlanPathIndexScan, ctx: RuntimeContext, layout) -> RunFn:
    if ctx.index_store is None:
        raise ReproError("PathIndexScan requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    bind = _entry_binder(plan, ctx.store, layout)
    entry_slots = [layout.slot_of(var) for var in plan.entry_vars]
    unknown = (None,) * len(entry_slots)

    def run(arg_row: list) -> Iterator[list]:
        prefix = _leading_prefix(unknown, [arg_row[slot] for slot in entry_slots])
        for entry in index.scan_prefix(prefix) if prefix else index.scan():
            row = bind(entry, arg_row)
            if row is not None:
                yield row

    return run


def _path_index_filtered_scan(
    plan: PlanPathIndexFilteredScan, ctx: RuntimeContext, layout
) -> RunFn:
    if ctx.index_store is None:
        raise ReproError("PathIndexFilteredScan requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    bind = _entry_binder(plan, ctx.store, layout)
    entry_slots = [layout.slot_of(var) for var in plan.entry_vars]
    width = len(entry_slots)
    constraints = _filtered_scan_constraints(plan)
    must_differ, must_equal = constraints.must_differ, constraints.must_equal
    eval_ctx = ctx.eval_ctx
    params = eval_ctx.params
    constants = tuple(ast.bind(value, params) for value in constraints.constants)
    checks = [
        (position, ast.bind(value, params)) for position, value in constraints.checks
    ]
    residual = [
        compile_predicate(predicate, layout.slot_of, eval_ctx, params)
        for predicate in constraints.residual
    ]

    def run(arg_row: list) -> Iterator[list]:
        prefix = _leading_prefix(constants, [arg_row[slot] for slot in entry_slots])
        seek = index.seeker(prefix)
        lower = prefix + (0,) * (width - len(prefix))
        while True:
            restart: Optional[tuple[int, ...]] = None
            for entry in seek(lower):
                if any(entry[position] != value for position, value in checks):
                    continue
                violation = _skip_target(entry, must_differ, must_equal, width)
                if violation is not None:
                    restart = violation
                    break
                row = bind(entry, arg_row)
                if row is None:
                    continue
                if all(predicate(row) for predicate in residual):
                    yield row
            if restart is None:
                return
            lower = restart

    return run


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
    """Skip-scan constraints (§5.1.2), shared by all engines and kept on
    the (immutable, cached) plan node they were derived from."""
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


def _path_index_prefix_seek(
    plan: PlanPathIndexPrefixSeek, ctx: RuntimeContext, layout, child: RunFn
) -> RunFn:
    if ctx.index_store is None:
        raise ReproError("PathIndexPrefixSeek requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    prefix_slots = [
        layout.slot_of(var) for var in plan.entry_vars[: plan.prefix_length]
    ]
    bind = _entry_binder(plan, ctx.store, layout, skip_positions=plan.prefix_length)

    def run(arg_row: list) -> Iterator[list]:
        # "The operator will first take in all results from the child plan,
        # compute the relevant prefix for each result and group all results by
        # this prefix" (§5.1.3).
        groups: dict[tuple[int, ...], list[list]] = {}
        mem = ctx.mem()
        for row in child(arg_row):
            prefix = tuple([int(row[slot]) for slot in prefix_slots])
            groups.setdefault(prefix, []).append(row)
            # Non-spillable: the groups map is randomly accessed per index
            # prefix, so it charges (and may exhaust the pool) rather than
            # spill; the charge is released when the tracker closes.
            mem.charge(plan, ROW_BYTES)
        for prefix, rows in groups.items():
            # Partial indexes (§4.1) materialize the start node on demand.
            index.prepare_prefix(prefix, ctx.store)
            for entry in index.scan_prefix(prefix):
                for row in rows:
                    combined = bind(entry, row)
                    if combined is not None:
                        yield combined

    return run


# ---------------------------------------------------------------------------
# Boundary operators: their argument is the part's row stream
# ---------------------------------------------------------------------------


def _projection(
    plan: PlanProjection, ctx: RuntimeContext, layout, child: RunFn
) -> RunFn:
    items = [
        (layout.slot_of(item.output_name), _compiled(item.expression, ctx, layout.slot_of))
        for item in plan.items
    ]
    empty = layout.empty_row()

    def run(rows) -> Iterator[list]:
        for row in child(rows):
            # Non-projected bindings drop and the uniqueness scope resets.
            out = empty[:]
            for slot, value_of in items:
                out[slot] = value_of(row)
            yield out

    return run


class _Accumulator:
    """State for one aggregate function call within one group."""

    __slots__ = ("call", "count", "total", "minimum", "maximum", "values", "seen")

    def __init__(self, call: ast.FunctionCall) -> None:
        self.call = call
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None
        self.values: list = []
        self.seen: set = set()

    def feed_value(self, value) -> None:
        """Accumulate one evaluated argument (count(*) counts directly)."""
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


def _aggregation(
    plan: PlanAggregation, ctx: RuntimeContext, layout, child: RunFn
) -> RunFn:
    slot_of = layout.slot_of
    grouping = [
        (slot_of(item.output_name), _compiled(item.expression, ctx, slot_of))
        for item in plan.grouping_items
    ]
    # Per aggregate item: its output slot, its calls with their compiled
    # arguments (None for count(*)), and the item expression, which reads
    # the call results from slots past the row's end.
    aggregates = []
    for item in plan.aggregate_items:
        calls = _aggregate_calls(item.expression)
        result_slots = {call: layout.width + 1 + i for i, call in enumerate(calls)}

        def item_slot_of(name, result_slots=result_slots):
            return result_slots[name] if name in result_slots else slot_of(name)

        aggregates.append(
            (
                slot_of(item.output_name),
                calls,
                [
                    None if call.star else _compiled(call.argument, ctx, slot_of)
                    for call in calls
                ],
                _compiled(item.expression, ctx, item_slot_of),
            )
        )

    def accumulators() -> list:
        return [[_Accumulator(call) for call in calls] for _, calls, _, _ in aggregates]

    def new_state(row: list) -> tuple[list, list]:
        out = layout.empty_row()
        for slot, value_of in grouping:
            out[slot] = value_of(row)
        return (out, accumulators())

    def feed(state: tuple[list, list], row: list) -> None:
        for (_, _, arguments, _), group in zip(aggregates, state[1]):
            for argument, accumulator in zip(arguments, group):
                if argument is None:
                    accumulator.count += 1
                else:
                    accumulator.feed_value(argument(row))

    def run(rows) -> Iterator[list]:
        buffer = AggregationSpillBuffer(ctx.mem(), plan, new_state, feed)
        for row in child(rows):
            key = tuple([_hashable(value_of(row)) for _, value_of in grouping])
            buffer.add(key, row)
        if buffer.is_empty and not grouping:
            # Global aggregation over zero rows still yields one row.
            states = [(layout.empty_row(), accumulators())]
        else:
            states = buffer.states()
        for out, groups in states:
            for (slot, _, _, value_of), group in zip(aggregates, groups):
                out[slot] = value_of(out + [accumulator.result() for accumulator in group])
            yield out

    return run


def _distinct(plan: PlanDistinct, ctx: RuntimeContext, layout, child: RunFn) -> RunFn:
    slots = [layout.slot_of(column) for column in plan.columns]

    def run(rows) -> Iterator[list]:
        buffer = DistinctSpillBuffer(ctx.mem(), plan)
        for row in child(rows):
            if buffer.offer(tuple([_hashable(row[slot]) for slot in slots]), row):
                yield row
        yield from buffer.drain()

    return run


def _hashable(value):
    if isinstance(value, (list, dict)):
        return repr(value)
    return value


def _sort(plan: PlanSort, ctx: RuntimeContext, layout, child: RunFn) -> RunFn:
    keys = [
        (_compiled(expression, ctx, layout.slot_of), ascending)
        for expression, ascending in plan.order_by
    ]

    # One composed key reproduces the repeated per-level stable sorts:
    # descending levels are order-inverted via Desc, and sort stability
    # supplies the original-input tiebreak.
    def composed_key(row: list) -> tuple:
        return tuple(
            _sort_key(value_of(row)) if ascending else Desc(_sort_key(value_of(row)))
            for value_of, ascending in keys
        )

    def run(rows) -> Iterator[list]:
        buffer = SortSpillBuffer(ctx.mem(), plan, composed_key)
        for row in child(rows):
            buffer.add(row)
        yield from buffer

    return run


def _sort_key(value):
    # NULLs order last in ascending order; booleans after numbers.
    if value is None:
        return (3, 0)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (0, value)
    return (2, str(value))


def _limit(plan: PlanLimit, ctx: RuntimeContext, layout, child: RunFn) -> RunFn:
    skip = ast.bind(plan.skip, ctx.eval_ctx.params)
    limit = ast.bind(plan.limit, ctx.eval_ctx.params)

    def run(rows) -> Iterator[list]:
        produced = 0
        skipped = 0
        for row in child(rows):
            if skipped < skip:
                skipped += 1
                continue
            if limit >= 0 and produced >= limit:
                return
            produced += 1
            yield row

    return run


_OPERATORS: dict[type, Callable[..., RunFn]] = {
    PlanArgument: _argument,
    PlanAllNodesScan: _all_nodes_scan,
    PlanNodeByLabelScan: _node_by_label_scan,
    PlanNodeByIdSeek: _node_by_id_seek,
    PlanRelationshipByTypeScan: _relationship_by_type_scan,
    PlanExpand: _expand,
    PlanNodeHashJoin: _node_hash_join,
    PlanCartesianProduct: _cartesian_product,
    PlanFilter: _filter,
    PlanPathIndexScan: _path_index_scan,
    PlanPathIndexFilteredScan: _path_index_filtered_scan,
    PlanPathIndexPrefixSeek: _path_index_prefix_seek,
    PlanProjection: _projection,
    PlanAggregation: _aggregation,
    PlanDistinct: _distinct,
    PlanSort: _sort,
    PlanLimit: _limit,
}
"""Row-engine operator per plan-node type. Each takes ``(plan, ctx,
layout, *compiled_children)``."""
