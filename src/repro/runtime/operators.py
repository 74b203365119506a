"""Compilation of logical plans into pull-based operator pipelines.

``compile_plan`` turns a :class:`~repro.planner.plans.LogicalPlan` tree into
a function ``run(argument_row) -> Iterator[Row]``. Every operator:

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
and variables bound by the argument row — bound the scan itself for as long
as they form a leading key prefix: it starts at the prefix and ends with it.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional, Sequence

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
from repro.runtime.expressions import EvaluationContext, evaluate, is_true
from repro.runtime.row import Row
from repro.storage.graphstore import GraphStore

RunFn = Callable[[Row], Iterator[Row]]


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

    def merge(self, other: "OperatorProfile") -> None:
        for key, count in other.rows.items():
            self.rows[key] = self.rows.get(key, 0) + count
        for key, peak in other.peak_bytes.items():
            self.peak_bytes[key] = max(self.peak_bytes.get(key, 0), peak)
        for key, spills in other.spills.items():
            self.spills[key] = self.spills.get(key, 0) + spills
        self.descriptions.update(other.descriptions)


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


def compile_plan(plan: LogicalPlan, ctx: RuntimeContext) -> RunFn:
    """Compile ``plan`` into an executable pipeline with profiling.

    With a cancellation token on the context, every row crossing this
    operator also passes a token check; tokenless execution pays nothing.
    """
    run = _compile(plan, ctx)
    token = ctx.token
    if token is None:
        def counted(arg_row: Row) -> Iterator[Row]:
            for row in run(arg_row):
                ctx.profile.record(plan, 1)
                yield row
    else:
        check = token.check

        def counted(arg_row: Row) -> Iterator[Row]:
            for row in run(arg_row):
                check()
                ctx.profile.record(plan, 1)
                yield row

    return counted


def _compile(plan: LogicalPlan, ctx: RuntimeContext) -> RunFn:
    if isinstance(plan, PlanArgument):
        return _argument(plan, ctx)
    if isinstance(plan, PlanAllNodesScan):
        return _all_nodes_scan(plan, ctx)
    if isinstance(plan, PlanNodeByLabelScan):
        return _node_by_label_scan(plan, ctx)
    if isinstance(plan, PlanNodeByIdSeek):
        return _node_by_id_seek(plan, ctx)
    if isinstance(plan, PlanRelationshipByTypeScan):
        return _relationship_by_type_scan(plan, ctx)
    if isinstance(plan, PlanExpand):
        return _expand(plan, ctx)
    if isinstance(plan, PlanNodeHashJoin):
        return _node_hash_join(plan, ctx)
    if isinstance(plan, PlanCartesianProduct):
        return _cartesian_product(plan, ctx)
    if isinstance(plan, PlanFilter):
        return _filter(plan, ctx)
    if isinstance(plan, PlanPathIndexScan):
        return _path_index_scan(plan, ctx)
    if isinstance(plan, PlanPathIndexFilteredScan):
        return _path_index_filtered_scan(plan, ctx)
    if isinstance(plan, PlanPathIndexPrefixSeek):
        return _path_index_prefix_seek(plan, ctx)
    if isinstance(plan, PlanProjection):
        return _projection(plan, ctx)
    if isinstance(plan, PlanAggregation):
        return _aggregation(plan, ctx)
    if isinstance(plan, PlanDistinct):
        return _distinct(plan, ctx)
    if isinstance(plan, PlanSort):
        return _sort(plan, ctx)
    if isinstance(plan, PlanLimit):
        return _limit(plan, ctx)
    raise ReproError(f"no runtime operator for {type(plan).__name__}")


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


def _bind_node(row_values: dict, var: str, node_id: int, arg_row: Row) -> bool:
    """Bind ``var`` to ``node_id`` honouring existing bindings."""
    existing = row_values.get(var, arg_row.values.get(var))
    if existing is not None and existing != node_id:
        return False
    row_values[var] = node_id
    return True


# ---------------------------------------------------------------------------
# Leaf operators
# ---------------------------------------------------------------------------


def _argument(plan: PlanArgument, ctx: RuntimeContext) -> RunFn:
    def run(arg_row: Row) -> Iterator[Row]:
        yield arg_row

    return run


def _all_nodes_scan(plan: PlanAllNodesScan, ctx: RuntimeContext) -> RunFn:
    node_var = plan.node

    def run(arg_row: Row) -> Iterator[Row]:
        bound = arg_row.values.get(node_var)
        for node_id in ctx.store.all_nodes():
            if bound is not None and bound != node_id:
                continue
            yield arg_row.extended({node_var: node_id})

    return run


def _node_by_label_scan(plan: PlanNodeByLabelScan, ctx: RuntimeContext) -> RunFn:
    node_var = plan.node
    post = [label_id for _, label_id in _label_ids(ctx, plan.post_labels)]
    # Hoisted out of ``run``; the fallback covers labels created by an
    # earlier part of the same query (parts compile before rows flow).
    label_id_static = ctx.store.labels.id_of(plan.label)

    def run(arg_row: Row) -> Iterator[Row]:
        label_id = (
            label_id_static
            if label_id_static is not None
            else ctx.store.labels.id_of(plan.label)
        )
        if label_id is None:
            return
        bound = arg_row.values.get(node_var)
        for node_id in ctx.store.nodes_with_label(label_id):
            if bound is not None and bound != node_id:
                continue
            if post and not _labels_ok(ctx, node_id, post):
                continue
            yield arg_row.extended({node_var: node_id})

    return run


def _node_id_seeker(
    plan: PlanNodeByIdSeek, ctx: RuntimeContext
) -> Callable[[object], bool]:
    """``found(bound)`` for both engines: does ``plan.node_id`` name a
    node the reader can see — the same record version a label scan would
    have produced — that carries the pattern's labels and agrees with
    ``bound``, the argument row's binding of the variable (None: unbound)?"""
    node_id = plan.node_id
    try_read = ctx.store.nodes.try_read
    id_of = ctx.store.labels.id_of
    label_names = [label for _, label in plan.post_labels]
    label_ids = [id_of(label) for label in label_names]

    def found(bound: object) -> bool:
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


def _node_by_id_seek(plan: PlanNodeByIdSeek, ctx: RuntimeContext) -> RunFn:
    node_var = plan.node
    found = _node_id_seeker(plan, ctx)

    def run(arg_row: Row) -> Iterator[Row]:
        if found(arg_row.values.get(node_var)):
            yield arg_row.extended({node_var: plan.node_id})

    return run


def _relationship_by_type_scan(
    plan: PlanRelationshipByTypeScan, ctx: RuntimeContext
) -> RunFn:
    if ctx.index_store is None:
        raise ReproError("RelationshipByTypeScan requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    label_checks = [
        (var, ctx.store.labels.id_of(label)) for var, label in plan.post_labels
    ]

    def run(arg_row: Row) -> Iterator[Row]:
        bound_rel = arg_row.values.get(plan.rel)
        for start_id, rel_id, end_id in index.scan():
            if bound_rel is not None and bound_rel != rel_id:
                continue
            if rel_id in arg_row.rel_ids and bound_rel != rel_id:
                continue  # relationship uniqueness (bound by another variable)
            orientations = [(start_id, end_id)]
            if not plan.directed and start_id != end_id:
                orientations.append((end_id, start_id))
            for source, target in orientations:
                values: dict[str, object] = {}
                if not _bind_node(values, plan.start_node, source, arg_row):
                    continue
                if not _bind_node(values, plan.end_node, target, arg_row):
                    continue
                values[plan.rel] = rel_id
                ok = True
                for var, label_id in label_checks:
                    node_id = values.get(var, arg_row.values.get(var))
                    # An unbound check variable can never satisfy the label.
                    if (
                        node_id is None
                        or label_id is None
                        or not ctx.store.has_label(int(node_id), label_id)
                    ):
                        ok = False
                        break
                if ok:
                    yield arg_row.extended(values, (rel_id,))

    return run


# ---------------------------------------------------------------------------
# Expand / join / product / filter
# ---------------------------------------------------------------------------


def _resolve_type_ids(ctx: RuntimeContext, names) -> set[int]:
    resolved = {ctx.store.types.id_of(name) for name in names}
    resolved.discard(None)
    return resolved


def _expand(plan: PlanExpand, ctx: RuntimeContext) -> RunFn:
    child = compile_plan(plan.children[0], ctx)
    post = [label_id for _, label_id in _label_ids(ctx, plan.post_labels)]
    # Hoisted: types resolved once at compile time; re-resolved at run start
    # only while incomplete (a type may be created by an earlier query part).
    static_type_ids = _resolve_type_ids(ctx, plan.types) if plan.types else None

    def run(arg_row: Row) -> Iterator[Row]:
        type_ids: Optional[set[int]] = None
        single_type: Optional[int] = None
        if plan.types:
            resolved = static_type_ids
            if len(resolved) < len(plan.types):
                resolved = _resolve_type_ids(ctx, plan.types)
            if not resolved:
                return  # none of the requested types exist
            if len(resolved) == 1:
                single_type = next(iter(resolved))
            else:
                type_ids = resolved  # filter during iteration
        for row in child(arg_row):
            from_id = row.values.get(plan.from_node)
            if from_id is None:
                continue
            target_bound = row.values.get(plan.to_node) if plan.into else None
            bound_rel = row.values.get(plan.rel)
            for rel, neighbour in ctx.store.expand(
                int(from_id), plan.direction, single_type
            ):
                if type_ids is not None and rel.type_id not in type_ids:
                    continue
                if bound_rel is not None and bound_rel != rel.id:
                    continue
                if rel.id in row.rel_ids and bound_rel != rel.id:
                    continue  # relationship uniqueness
                if plan.into:
                    if neighbour != target_bound:
                        continue
                elif post and not _labels_ok(ctx, neighbour, post):
                    continue
                if plan.into:
                    yield row.extended({plan.rel: rel.id}, (rel.id,))
                else:
                    yield row.extended(
                        {plan.rel: rel.id, plan.to_node: neighbour}, (rel.id,)
                    )

    return run


def _merge_join_rows(partner: Row, row: Row, shared_arg_rels) -> Optional[Row]:
    """Join-merge two rows, or None on a uniqueness/binding conflict.

    Relationship uniqueness: a rel id on both sides means two variables
    bound the same relationship — unless it came in through the shared
    argument row.
    """
    if (partner.rel_ids & row.rel_ids) - shared_arg_rels:
        return None
    merged = dict(partner.values)
    for name, value in row.values.items():
        if name in merged and merged[name] != value:
            return None
        merged[name] = value
    return Row(merged, partner.rel_ids | row.rel_ids)


def _node_hash_join(plan: PlanNodeHashJoin, ctx: RuntimeContext) -> RunFn:
    left = compile_plan(plan.children[0], ctx)
    right = compile_plan(plan.children[1], ctx)
    join_vars = plan.join_nodes

    def run(arg_row: Row) -> Iterator[Row]:
        shared_arg_rels = arg_row.rel_ids

        def merge(partner: Row, row: Row) -> Optional[Row]:
            return _merge_join_rows(partner, row, shared_arg_rels)

        buffer = JoinSpillBuffer(ctx.mem(), plan, merge)
        for row in left(arg_row):
            buffer.insert(tuple(row.values[var] for var in join_vars), row)
        for row in right(arg_row):
            yield from buffer.probe(
                tuple(row.values[var] for var in join_vars), row
            )
        yield from buffer.drain()

    return run


def _cartesian_product(plan: PlanCartesianProduct, ctx: RuntimeContext) -> RunFn:
    left = compile_plan(plan.children[0], ctx)
    right = compile_plan(plan.children[1], ctx)

    def run(arg_row: Row) -> Iterator[Row]:
        right_rows: Optional[AppendSpillBuffer] = None
        shared_arg_rels = arg_row.rel_ids
        for left_row in left(arg_row):
            if right_rows is None:
                right_rows = AppendSpillBuffer(ctx.mem(), plan)
                for row in right(arg_row):
                    right_rows.add(row)
            for right_row in right_rows:
                if (left_row.rel_ids & right_row.rel_ids) - shared_arg_rels:
                    continue
                merged = dict(left_row.values)
                conflict = False
                for name, value in right_row.values.items():
                    if name in merged and merged[name] != value:
                        conflict = True
                        break
                    merged[name] = value
                if not conflict:
                    yield Row(merged, left_row.rel_ids | right_row.rel_ids)

    return run


def _filter(plan: PlanFilter, ctx: RuntimeContext) -> RunFn:
    child = compile_plan(plan.children[0], ctx)
    predicates = plan.predicates

    def run(arg_row: Row) -> Iterator[Row]:
        for row in child(arg_row):
            if all(is_true(predicate, row, ctx.eval_ctx) for predicate in predicates):
                yield row

    return run


# ---------------------------------------------------------------------------
# Path index operators (§5.1)
# ---------------------------------------------------------------------------


def _entry_binder(
    plan, ctx: RuntimeContext, skip_positions: int = 0
) -> Callable[[tuple, Row], Optional[Row]]:
    """Build a function binding an index entry into a row.

    Checks, in stored order: binding consistency (repeated variables and
    pre-bound variables), relationship uniqueness, residual label filters and
    residual type filters. ``skip_positions`` marks a leading prefix already
    bound by the row (PathIndexPrefixSeek)."""
    entry_vars = plan.entry_vars
    label_checks: dict[str, list[int]] = {}
    for var, label in getattr(plan, "label_filters", ()):
        label_id = ctx.store.labels.id_of(label)
        label_checks.setdefault(var, []).append(-1 if label_id is None else label_id)
    type_checks: dict[str, frozenset[int]] = {}
    for var, type_names in getattr(plan, "type_filters", ()):
        resolved = {ctx.store.types.id_of(name) for name in type_names}
        resolved.discard(None)
        type_checks[var] = frozenset(resolved)

    def bind(entry: tuple, arg_row: Row) -> Optional[Row]:
        values: dict[str, object] = {}
        new_rels: list[int] = []
        for position, var in enumerate(entry_vars):
            identifier = entry[position]
            pre_bound = arg_row.values.get(var)
            existing = values.get(var, pre_bound)
            if existing is not None and existing != identifier:
                return None
            values[var] = identifier
            if position % 2 == 1 and position >= skip_positions:
                if identifier in new_rels:
                    return None
                # Uniqueness: reject ids bound to *another* relationship
                # variable; re-binding the same variable (an anchored or
                # argument relationship) is consistent, not a duplicate.
                if identifier in arg_row.rel_ids and pre_bound != identifier:
                    return None
                if pre_bound != identifier:
                    new_rels.append(identifier)
        for var, label_ids in label_checks.items():
            node_id = int(values[var])
            for label_id in label_ids:
                if label_id < 0 or not ctx.store.has_label(node_id, label_id):
                    return None
        for var, allowed in type_checks.items():
            rel = ctx.store.relationship(int(values[var]))
            if rel.type_id not in allowed:
                return None
        return arg_row.extended(values, new_rels)

    return bind


def _leading_prefix(
    constants: Sequence[Optional[int]], bound: Sequence[object]
) -> tuple[int, ...]:
    """The key prefix a scan can be confined to: per entry position the id
    an ``id(v) = k`` literal fixes, else the argument row's binding of the
    variable, for as long as there is one. A later known id is no bound —
    seeking to it per entry is a tree descent per entry, slower than the
    sequential read — and stays a per-entry check."""
    prefix: list[int] = []
    for constant, value in zip(constants, bound):
        if constant is None:
            constant = value
        if type(constant) is not int or constant < 0:
            break
        prefix.append(constant)
    return tuple(prefix)


def _path_index_scan(plan: PlanPathIndexScan, ctx: RuntimeContext) -> RunFn:
    if ctx.index_store is None:
        raise ReproError("PathIndexScan requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    bind = _entry_binder(plan, ctx)
    entry_vars = plan.entry_vars
    unknown = (None,) * len(entry_vars)

    def run(arg_row: Row) -> Iterator[Row]:
        get = arg_row.values.get
        prefix = _leading_prefix(unknown, [get(var) for var in entry_vars])
        for entry in index.scan_prefix(prefix) if prefix else index.scan():
            row = bind(entry, arg_row)
            if row is not None:
                yield row

    return run


def _path_index_filtered_scan(
    plan: PlanPathIndexFilteredScan, ctx: RuntimeContext
) -> RunFn:
    if ctx.index_store is None:
        raise ReproError("PathIndexFilteredScan requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    bind = _entry_binder(plan, ctx)
    entry_vars = plan.entry_vars
    width = len(entry_vars)
    constraints = _filtered_scan_constraints(plan)
    must_differ, must_equal = constraints.must_differ, constraints.must_equal
    checks = constraints.checks

    def run(arg_row: Row) -> Iterator[Row]:
        get = arg_row.values.get
        prefix = _leading_prefix(
            constraints.constants, [get(var) for var in entry_vars]
        )
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
                if all(
                    is_true(predicate, row, ctx.eval_ctx)
                    for predicate in constraints.residual
                ):
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
    constants: tuple[Optional[int], ...]
    """Per position, the ``k`` of an ``id(v) = k`` predicate on its variable
    (None: no such predicate); its leading run bounds the scan."""
    checks: list[tuple[int, int]]
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
    bounded = len(_leading_prefix(constants, constants))
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
    plan: PlanPathIndexPrefixSeek, ctx: RuntimeContext
) -> RunFn:
    if ctx.index_store is None:
        raise ReproError("PathIndexPrefixSeek requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    child = compile_plan(plan.children[0], ctx)
    prefix_vars = plan.entry_vars[: plan.prefix_length]
    bind = _entry_binder(plan, ctx, skip_positions=plan.prefix_length)

    def run(arg_row: Row) -> Iterator[Row]:
        # "The operator will first take in all results from the child plan,
        # compute the relevant prefix for each result and group all results by
        # this prefix" (§5.1.3).
        groups: dict[tuple[int, ...], list[Row]] = {}
        mem = ctx.mem()
        for row in child(arg_row):
            prefix = tuple(int(row.values[var]) for var in prefix_vars)
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
# Projection boundary operators
# ---------------------------------------------------------------------------


def _projection(plan: PlanProjection, ctx: RuntimeContext) -> RunFn:
    child = compile_plan(plan.children[0], ctx)
    items = plan.items

    def run(arg_row: Row) -> Iterator[Row]:
        for row in child(arg_row):
            yield row.project(
                {
                    item.output_name: evaluate(item.expression, row, ctx.eval_ctx)
                    for item in items
                }
            )

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

    def feed(self, row, ctx: RuntimeContext) -> None:
        if self.call.star:  # count(*)
            self.count += 1
            return
        self.feed_value(evaluate(self.call.argument, row, ctx.eval_ctx))

    def feed_value(self, value) -> None:
        """Accumulate an already-evaluated argument (generated code)."""
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


def _aggregation(plan: PlanAggregation, ctx: RuntimeContext) -> RunFn:
    child = compile_plan(plan.children[0], ctx)
    grouping = plan.grouping_items
    aggregates = plan.aggregate_items
    calls_per_item = {
        id(item): _aggregate_calls(item.expression) for item in aggregates
    }

    def run(arg_row: Row) -> Iterator[Row]:
        def new_state(row: Row) -> tuple[dict, dict]:
            key_values = {
                item.output_name: evaluate(item.expression, row, ctx.eval_ctx)
                for item in grouping
            }
            accumulators = {
                id(item): [
                    _Accumulator(call) for call in calls_per_item[id(item)]
                ]
                for item in aggregates
            }
            return (key_values, accumulators)

        def feed(state: tuple[dict, dict], row: Row) -> None:
            accumulators = state[1]
            for item in aggregates:
                for accumulator in accumulators[id(item)]:
                    accumulator.feed(row, ctx)

        buffer = AggregationSpillBuffer(ctx.mem(), plan, new_state, feed)
        for row in child(arg_row):
            key = tuple(
                _hashable(evaluate(item.expression, row, ctx.eval_ctx))
                for item in grouping
            )
            buffer.add(key, row)
        if buffer.is_empty and not grouping:
            # Global aggregation over zero rows still yields one row.
            states = [
                (
                    {},
                    {
                        id(item): [
                            _Accumulator(call)
                            for call in calls_per_item[id(item)]
                        ]
                        for item in aggregates
                    },
                )
            ]
        else:
            states = buffer.states()
        for key_values, accumulators in states:
            out = dict(key_values)
            for item in aggregates:
                results = {
                    accumulator.call: accumulator.result()
                    for accumulator in accumulators[id(item)]
                }
                out[item.output_name] = evaluate(
                    item.expression, Row(out), ctx.eval_ctx, results
                )
            yield Row(out)

    return run


def _distinct(plan: PlanDistinct, ctx: RuntimeContext) -> RunFn:
    child = compile_plan(plan.children[0], ctx)
    columns = plan.columns

    def run(arg_row: Row) -> Iterator[Row]:
        buffer = DistinctSpillBuffer(ctx.mem(), plan)
        for row in child(arg_row):
            key = tuple(_hashable(row.values.get(column)) for column in columns)
            if buffer.offer(key, row):
                yield row
        yield from buffer.drain()

    return run


def _hashable(value):
    if isinstance(value, (list, dict)):
        return repr(value)
    return value


def _sort(plan: PlanSort, ctx: RuntimeContext) -> RunFn:
    child = compile_plan(plan.children[0], ctx)
    order_by = plan.order_by

    # One composed key reproduces the repeated per-level stable sorts:
    # descending levels are order-inverted via Desc, and sort stability
    # supplies the original-input tiebreak.
    def composed_key(row: Row) -> tuple:
        return tuple(
            _sort_key(evaluate(expression, row, ctx.eval_ctx))
            if ascending
            else Desc(_sort_key(evaluate(expression, row, ctx.eval_ctx)))
            for expression, ascending in order_by
        )

    def run(arg_row: Row) -> Iterator[Row]:
        buffer = SortSpillBuffer(ctx.mem(), plan, composed_key)
        for row in child(arg_row):
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


def _limit(plan: PlanLimit, ctx: RuntimeContext) -> RunFn:
    child = compile_plan(plan.children[0], ctx)

    def run(arg_row: Row) -> Iterator[Row]:
        produced = 0
        skipped = 0
        for row in child(arg_row):
            if skipped < plan.skip:
                skipped += 1
                continue
            if plan.limit >= 0 and produced >= plan.limit:
                return
            produced += 1
            yield row

    return run
