"""Batched (morsel-at-a-time) operator runtime over slot-based rows.

The legacy pipeline in :mod:`repro.runtime.operators` is tuple-at-a-time:
every operator output allocates a fresh :class:`~repro.runtime.row.Row`
via a full dict copy, and every row crossing an operator pays a profile
increment plus an optional cancellation check. This module is the batched
counterpart selected with ``GraphDatabase.execute(..., execution_mode=
"batched")``:

* A compile-time **slot allocation pass** (:class:`SlotLayout`) assigns
  each variable a fixed integer slot. Rows become fixed-width lists; the
  last element carries the tuple of bound relationship ids (Cypher's
  relationship-uniqueness scope, reset at projection boundaries).
* Operators produce/consume **morsels** — lists of up to
  ``RuntimeContext.morsel_size`` (default 1024) slot rows — so profile
  accounting and cancellation checks are paid once per batch instead of
  once per row, and hot inner loops hoist bound methods into locals.
* Expressions are compiled once per plan via
  :func:`repro.runtime.expressions.compile_expression`, removing the
  per-row AST walk and name-to-value dict lookups.

Semantics are identical to the row engine (the differential tests in
``tests/test_batched_runtime.py`` assert result, profile-count, and
max-intermediate-cardinality equality), with one representational note:
a slot holding None means *unbound*, whereas the row engine can
distinguish an absent dict key from an explicit None binding. The two are
observationally equivalent here because explicit None bindings only
arise from projected expressions, which either terminate a part (and are
reconstructed per projection column, preserving None) or enter the next
part through the shared argument row, where both sides of any join see
the same value.

Cancellation uses ``CancellationToken.check_batch`` when available: the
per-row ``check`` only consults the deadline clock every
``DEADLINE_STRIDE`` calls, which per-morsel checking would stretch to
tens of thousands of rows; ``check_batch`` always reads the clock, so
morsel size bounds the deadline-abort latency.

Two cross-cutting concerns are compiled in per subtree:

* **Memory accounting** — blocking operators buffer through the shared
  spill-aware structures in :mod:`repro.resources.spill`, charging the
  query's :class:`~repro.resources.pool.MemoryTracker` (reached via
  ``ctx.mem()``) with the same deterministic per-row estimates as the
  row engine, so both engines spill at identical input cardinalities
  and differential tests stay exact under any budget.
* **Demand-driven LIMIT** — ``_limit`` compiles its streaming child
  subtree with a morsel size of one, so upstream operators produce (and
  profile) exactly as many rows as the row engine's lazy pull would,
  instead of overfilling the final morsel. Blocking operators reset
  their fully-consumed children back to ``ctx.morsel_size`` since
  laziness cannot propagate through a full materialization.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.errors import ReproError
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
from repro.runtime.expressions import (
    compile_expression,
    compile_predicate,
    evaluate,
)
from repro.runtime.operators import (
    RuntimeContext,
    _Accumulator,
    _aggregate_calls,
    _filtered_scan_constraints,
    _hashable,
    _label_ids,
    _labels_ok,
    _leading_prefix,
    _node_id_seeker,
    _resolve_type_ids,
    _skip_target,
    _sort_key,
)
from repro.resources import (
    ROW_BYTES,
    AggregationSpillBuffer,
    AppendSpillBuffer,
    Desc,
    DistinctSpillBuffer,
    JoinSpillBuffer,
    SortSpillBuffer,
)
from repro.runtime.row import Row

DEFAULT_MORSEL_SIZE = 1024
"""Rows per morsel: large enough to amortize per-batch overhead, small
enough that per-batch cancellation still aborts scans promptly."""

#: A batched operator: one argument slot row in, morsels of slot rows out.
BatchRunFn = Callable[[list], Iterator[list]]


class SlotLayout:
    """Compile-time variable-to-slot mapping for one query part.

    Slot rows are lists of length ``width + 1``: one element per variable
    plus a trailing tuple of bound relationship ids. Slots are allocated
    on first reference during plan compilation (and for argument-row
    names during :meth:`row_from`), and indices never move, so closures
    capture plain ints. ``width`` is read at *run* time because argument
    rows may introduce names after compilation.
    """

    __slots__ = ("slots",)

    def __init__(self) -> None:
        self.slots: dict[str, int] = {}

    def slot_of(self, name: str) -> int:
        return self.slots.setdefault(name, len(self.slots))

    @property
    def width(self) -> int:
        return len(self.slots)

    def row_from(self, arg_row: Row) -> list:
        """Convert a dict row into a slot row, allocating missing slots."""
        slot_of = self.slots.setdefault
        for name in arg_row.values:
            slot_of(name, len(self.slots))
        width = len(self.slots)
        row = [None] * (width + 1)
        for name, value in arg_row.values.items():
            row[self.slots[name]] = value
        row[width] = tuple(arg_row.rel_ids)
        return row

    def row_to(self, slot_row: list) -> Row:
        """Convert a slot row back into a dict row (part boundaries).

        None slots are dropped: a None slot means *unbound*, and every
        consumer of the resulting row reads bindings via ``.get`` where
        absent and explicitly-None agree.
        """
        width = len(slot_row) - 1
        values: dict[str, object] = {}
        for name, slot in self.slots.items():
            if slot >= width:
                break
            value = slot_row[slot]
            if value is not None:
                values[name] = value
        return Row(values, frozenset(slot_row[width]))


def compile_batched_plan(
    plan: LogicalPlan,
    ctx: RuntimeContext,
    layout: SlotLayout,
    morsel_size: Optional[int] = None,
) -> BatchRunFn:
    """Compile ``plan`` into a batched pipeline with per-morsel profiling.

    The cancellation token (when present) is checked once per morsel via
    ``check_batch`` (fall back to ``check`` for token-like objects without
    it), so morsel size bounds abort latency instead of row count.

    ``morsel_size`` overrides the output batch size for this subtree
    (``None`` means ``ctx.morsel_size``); LIMIT uses it to compile its
    child demand-driven.
    """
    if morsel_size is None:
        morsel_size = ctx.morsel_size
    run = _compile(plan, ctx, layout, morsel_size)
    profile = ctx.profile
    record = profile.record
    token = ctx.token
    if token is None:

        def counted(arg: list) -> Iterator[list]:
            for morsel in run(arg):
                if morsel:
                    record(plan, len(morsel))
                    yield morsel

    else:
        check = getattr(token, "check_batch", None) or token.check

        def counted(arg: list) -> Iterator[list]:
            for morsel in run(arg):
                if morsel:
                    check()
                    record(plan, len(morsel))
                    yield morsel

    return counted


def _compile(
    plan: LogicalPlan, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    if isinstance(plan, PlanArgument):
        return _argument(plan, ctx, layout)
    if isinstance(plan, PlanAllNodesScan):
        return _all_nodes_scan(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanNodeByLabelScan):
        return _node_by_label_scan(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanNodeByIdSeek):
        return _node_by_id_seek(plan, ctx, layout)
    if isinstance(plan, PlanRelationshipByTypeScan):
        return _relationship_by_type_scan(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanExpand):
        return _expand(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanNodeHashJoin):
        return _node_hash_join(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanCartesianProduct):
        return _cartesian_product(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanFilter):
        return _filter(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanPathIndexScan):
        return _path_index_scan(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanPathIndexFilteredScan):
        return _path_index_filtered_scan(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanPathIndexPrefixSeek):
        return _path_index_prefix_seek(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanProjection):
        return _projection(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanAggregation):
        return _aggregation(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanDistinct):
        return _distinct(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanSort):
        return _sort(plan, ctx, layout, morsel_size)
    if isinstance(plan, PlanLimit):
        return _limit(plan, ctx, layout, morsel_size)
    raise ReproError(f"no batched operator for {type(plan).__name__}")


# ---------------------------------------------------------------------------
# Leaf operators
# ---------------------------------------------------------------------------


def _argument(plan: PlanArgument, ctx: RuntimeContext, layout: SlotLayout) -> BatchRunFn:
    for variable in plan.variables:
        layout.slot_of(variable)

    def run(arg: list) -> Iterator[list]:
        yield [arg]

    return run


def _all_nodes_scan(
    plan: PlanAllNodesScan, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    slot = layout.slot_of(plan.node)
    store = ctx.store

    def run(arg: list) -> Iterator[list]:
        bound = arg[slot]
        out: list = []
        append = out.append
        for node_id in store.all_nodes():
            if bound is not None and bound != node_id:
                continue
            row = arg[:]
            row[slot] = node_id
            append(row)
            if len(out) >= morsel_size:
                yield out
                out = []
                append = out.append
        if out:
            yield out

    return run


def _node_by_label_scan(
    plan: PlanNodeByLabelScan, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    slot = layout.slot_of(plan.node)
    store = ctx.store
    post = [label_id for _, label_id in _label_ids(ctx, plan.post_labels)]
    label_id_static = store.labels.id_of(plan.label)

    def run(arg: list) -> Iterator[list]:
        label_id = (
            label_id_static
            if label_id_static is not None
            else store.labels.id_of(plan.label)
        )
        if label_id is None:
            return
        bound = arg[slot]
        out: list = []
        append = out.append
        for node_id in store.nodes_with_label(label_id):
            if bound is not None and bound != node_id:
                continue
            if post and not _labels_ok(ctx, node_id, post):
                continue
            row = arg[:]
            row[slot] = node_id
            append(row)
            if len(out) >= morsel_size:
                yield out
                out = []
                append = out.append
        if out:
            yield out

    return run


def _node_by_id_seek(
    plan: PlanNodeByIdSeek, ctx: RuntimeContext, layout: SlotLayout
) -> BatchRunFn:
    slot = layout.slot_of(plan.node)
    found = _node_id_seeker(plan, ctx)

    def run(arg: list) -> Iterator[list]:
        if found(arg[slot]):
            row = arg[:]
            row[slot] = plan.node_id
            yield [row]

    return run


def _relationship_by_type_scan(
    plan: PlanRelationshipByTypeScan,
    ctx: RuntimeContext,
    layout: SlotLayout,
    morsel_size: int,
) -> BatchRunFn:
    if ctx.index_store is None:
        raise ReproError("RelationshipByTypeScan requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    rel_slot = layout.slot_of(plan.rel)
    start_slot = layout.slot_of(plan.start_node)
    end_slot = layout.slot_of(plan.end_node)
    label_checks = [
        (layout.slot_of(var), ctx.store.labels.id_of(label))
        for var, label in plan.post_labels
    ]
    store = ctx.store
    directed = plan.directed

    def run(arg: list) -> Iterator[list]:
        width = len(arg) - 1
        bound_rel = arg[rel_slot]
        arg_rels = arg[width]
        out: list = []
        append = out.append
        for start_id, rel_id, end_id in index.scan():
            if bound_rel is not None and bound_rel != rel_id:
                continue
            if rel_id in arg_rels and bound_rel != rel_id:
                continue  # relationship uniqueness (bound by another variable)
            orientations = [(start_id, end_id)]
            if not directed and start_id != end_id:
                orientations.append((end_id, start_id))
            for source, target in orientations:
                row = arg[:]
                existing = row[start_slot]
                if existing is not None and existing != source:
                    continue
                row[start_slot] = source
                existing = row[end_slot]
                if existing is not None and existing != target:
                    continue
                row[end_slot] = target
                row[rel_slot] = rel_id
                ok = True
                for check_slot, label_id in label_checks:
                    node_id = row[check_slot]
                    # An unbound check variable can never satisfy the label.
                    if (
                        node_id is None
                        or label_id is None
                        or not store.has_label(int(node_id), label_id)
                    ):
                        ok = False
                        break
                if not ok:
                    continue
                row[width] = (
                    arg_rels if rel_id in arg_rels else arg_rels + (rel_id,)
                )
                append(row)
                if len(out) >= morsel_size:
                    yield out
                    out = []
                    append = out.append
        if out:
            yield out

    return run


# ---------------------------------------------------------------------------
# Expand / join / product / filter
# ---------------------------------------------------------------------------


def _expand(
    plan: PlanExpand, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    child = compile_batched_plan(plan.children[0], ctx, layout, morsel_size)
    from_slot = layout.slot_of(plan.from_node)
    rel_slot = layout.slot_of(plan.rel)
    to_slot = layout.slot_of(plan.to_node)
    post = [label_id for _, label_id in _label_ids(ctx, plan.post_labels)]
    static_type_ids = _resolve_type_ids(ctx, plan.types) if plan.types else None
    direction = plan.direction
    into = plan.into
    expand = ctx.store.expand

    def run(arg: list) -> Iterator[list]:
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
        width = len(arg) - 1
        out: list = []
        append = out.append
        for morsel in child(arg):
            for row in morsel:
                from_id = row[from_slot]
                if from_id is None:
                    continue
                target_bound = row[to_slot] if into else None
                bound_rel = row[rel_slot]
                row_rels = row[width]
                for rel, neighbour in expand(int(from_id), direction, single_type):
                    if type_ids is not None and rel.type_id not in type_ids:
                        continue
                    rel_id = rel.id
                    if bound_rel is not None and bound_rel != rel_id:
                        continue
                    if rel_id in row_rels and bound_rel != rel_id:
                        continue  # relationship uniqueness
                    if into:
                        if neighbour != target_bound:
                            continue
                        new = row[:]
                    else:
                        if post and not _labels_ok(ctx, neighbour, post):
                            continue
                        new = row[:]
                        new[to_slot] = neighbour
                    new[rel_slot] = rel_id
                    new[width] = (
                        row_rels if rel_id in row_rels else row_rels + (rel_id,)
                    )
                    append(new)
                    if len(out) >= morsel_size:
                        yield out
                        out = []
                        append = out.append
        if out:
            yield out

    return run


def _merge_rows(
    partner: list, row: list, shared: frozenset, width: int
) -> Optional[list]:
    """Merge two slot rows built from the same argument row.

    Returns None on a binding conflict or a relationship-uniqueness
    violation (a rel id bound on both sides that did not come in through
    the shared argument row).
    """
    row_rels = row[width]
    partner_rels = partner[width]
    for rel_id in partner_rels:
        if rel_id in row_rels and rel_id not in shared:
            return None
    merged = partner[:]
    for slot in range(width):
        value = row[slot]
        if value is None:
            continue
        existing = merged[slot]
        if existing is None:
            merged[slot] = value
        elif existing != value:
            return None
    combined = partner_rels
    for rel_id in row_rels:
        if rel_id not in combined:
            combined = combined + (rel_id,)
    merged[width] = combined
    return merged


def _node_hash_join(
    plan: PlanNodeHashJoin, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    # The build side is fully consumed regardless of downstream demand,
    # so it always runs at the context morsel size; the probe side
    # streams and inherits the (possibly LIMIT-reduced) subtree size.
    left = compile_batched_plan(plan.children[0], ctx, layout, ctx.morsel_size)
    right = compile_batched_plan(plan.children[1], ctx, layout, morsel_size)
    join_slots = [layout.slot_of(var) for var in plan.join_nodes]

    def run(arg: list) -> Iterator[list]:
        width = len(arg) - 1
        shared = frozenset(arg[width])

        def merge(partner: list, row: list) -> Optional[list]:
            return _merge_rows(partner, row, shared, width)

        buffer = JoinSpillBuffer(ctx.mem(), plan, merge)
        for morsel in left(arg):
            for row in morsel:
                key = tuple(row[slot] for slot in join_slots)
                buffer.insert(key, row)
        out: list = []
        append = out.append
        for morsel in right(arg):
            for row in morsel:
                key = tuple(row[slot] for slot in join_slots)
                for merged in buffer.probe(key, row):
                    append(merged)
                    if len(out) >= morsel_size:
                        yield out
                        out = []
                        append = out.append
        for merged in buffer.drain():
            append(merged)
            if len(out) >= morsel_size:
                yield out
                out = []
                append = out.append
        if out:
            yield out

    return run


def _cartesian_product(
    plan: PlanCartesianProduct, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    # The right side is materialized wholesale on the first left row, so
    # it always runs at the context morsel size; the left side streams.
    left = compile_batched_plan(plan.children[0], ctx, layout, morsel_size)
    right = compile_batched_plan(plan.children[1], ctx, layout, ctx.morsel_size)

    def run(arg: list) -> Iterator[list]:
        width = len(arg) - 1
        right_rows: Optional[AppendSpillBuffer] = None
        shared = frozenset(arg[width])
        out: list = []
        append = out.append
        for morsel in left(arg):
            for left_row in morsel:
                if right_rows is None:
                    right_rows = AppendSpillBuffer(ctx.mem(), plan)
                    for right_morsel in right(arg):
                        for row in right_morsel:
                            right_rows.add(row)
                for right_row in right_rows:
                    merged = _merge_rows(left_row, right_row, shared, width)
                    if merged is not None:
                        append(merged)
                        if len(out) >= morsel_size:
                            yield out
                            out = []
                            append = out.append
        if out:
            yield out

    return run


def _filter(
    plan: PlanFilter, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    child = compile_batched_plan(plan.children[0], ctx, layout, morsel_size)
    predicates = [
        compile_predicate(predicate, layout.slot_of, ctx.eval_ctx)
        for predicate in plan.predicates
    ]

    def run(arg: list) -> Iterator[list]:
        for morsel in child(arg):
            out = [
                row
                for row in morsel
                if all(predicate(row) for predicate in predicates)
            ]
            if out:
                yield out

    return run


# ---------------------------------------------------------------------------
# Path index operators (§5.1)
# ---------------------------------------------------------------------------


def _slot_entry_binder(
    plan, ctx: RuntimeContext, layout: SlotLayout, skip_positions: int = 0
) -> Callable[[tuple, list], Optional[list]]:
    """Slot-row counterpart of ``operators._entry_binder``.

    Checks, in stored order: binding consistency (repeated variables and
    pre-bound variables), relationship uniqueness, residual label filters
    and residual type filters. ``skip_positions`` marks a leading prefix
    already bound by the row (PathIndexPrefixSeek).
    """
    entry_slots = [layout.slot_of(var) for var in plan.entry_vars]
    label_check_map: dict[int, list[int]] = {}
    for var, label in getattr(plan, "label_filters", ()):
        label_id = ctx.store.labels.id_of(label)
        label_check_map.setdefault(layout.slot_of(var), []).append(
            -1 if label_id is None else label_id
        )
    label_checks = list(label_check_map.items())
    type_checks = [
        (layout.slot_of(var), frozenset(_resolve_type_ids(ctx, type_names)))
        for var, type_names in getattr(plan, "type_filters", ())
    ]
    store = ctx.store

    def bind(entry: tuple, arg_row: list) -> Optional[list]:
        width = len(arg_row) - 1
        arg_rels = arg_row[width]
        row = arg_row[:]
        new_rels: list[int] = []
        for position, slot in enumerate(entry_slots):
            identifier = entry[position]
            pre_bound = arg_row[slot]
            existing = row[slot]
            if existing is not None and existing != identifier:
                return None
            row[slot] = identifier
            if position % 2 == 1 and position >= skip_positions:
                if identifier in new_rels:
                    return None
                # Uniqueness: reject ids bound to *another* relationship
                # variable; re-binding the same variable (an anchored or
                # argument relationship) is consistent, not a duplicate.
                if identifier in arg_rels and pre_bound != identifier:
                    return None
                if pre_bound != identifier:
                    new_rels.append(identifier)
        for slot, label_ids in label_checks:
            node_id = int(row[slot])
            for label_id in label_ids:
                if label_id < 0 or not store.has_label(node_id, label_id):
                    return None
        for slot, allowed in type_checks:
            rel = store.relationship(int(row[slot]))
            if rel.type_id not in allowed:
                return None
        if new_rels:
            row[width] = arg_rels + tuple(new_rels)
        return row

    return bind


def _path_index_scan(
    plan: PlanPathIndexScan, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    if ctx.index_store is None:
        raise ReproError("PathIndexScan requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    bind = _slot_entry_binder(plan, ctx, layout)
    entry_slots = [layout.slot_of(var) for var in plan.entry_vars]
    unknown = (None,) * len(entry_slots)

    def run(arg: list) -> Iterator[list]:
        out: list = []
        append = out.append
        prefix = _leading_prefix(unknown, [arg[slot] for slot in entry_slots])
        for entry in index.scan_prefix(prefix) if prefix else index.scan():
            row = bind(entry, arg)
            if row is not None:
                append(row)
                if len(out) >= morsel_size:
                    yield out
                    out = []
                    append = out.append
        if out:
            yield out

    return run


def _path_index_filtered_scan(
    plan: PlanPathIndexFilteredScan,
    ctx: RuntimeContext,
    layout: SlotLayout,
    morsel_size: int,
) -> BatchRunFn:
    if ctx.index_store is None:
        raise ReproError("PathIndexFilteredScan requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    bind = _slot_entry_binder(plan, ctx, layout)
    entry_slots = [layout.slot_of(var) for var in plan.entry_vars]
    width = len(entry_slots)
    constraints = _filtered_scan_constraints(plan)
    must_differ, must_equal = constraints.must_differ, constraints.must_equal
    checks = constraints.checks
    predicates = [
        compile_predicate(predicate, layout.slot_of, ctx.eval_ctx)
        for predicate in constraints.residual
    ]

    def run(arg: list) -> Iterator[list]:
        out: list = []
        append = out.append
        prefix = _leading_prefix(
            constraints.constants, [arg[slot] for slot in entry_slots]
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
                row = bind(entry, arg)
                if row is None:
                    continue
                if all(predicate(row) for predicate in predicates):
                    append(row)
                    if len(out) >= morsel_size:
                        yield out
                        out = []
                        append = out.append
            if restart is None:
                break
            lower = restart
        if out:
            yield out

    return run


def _path_index_prefix_seek(
    plan: PlanPathIndexPrefixSeek,
    ctx: RuntimeContext,
    layout: SlotLayout,
    morsel_size: int,
) -> BatchRunFn:
    if ctx.index_store is None:
        raise ReproError("PathIndexPrefixSeek requires a path index store")
    index = ctx.index_store.get(plan.index_name)
    # The child is fully materialized into prefix groups, so it always
    # runs at the context morsel size.
    child = compile_batched_plan(plan.children[0], ctx, layout, ctx.morsel_size)
    prefix_slots = [
        layout.slot_of(var) for var in plan.entry_vars[: plan.prefix_length]
    ]
    bind = _slot_entry_binder(plan, ctx, layout, skip_positions=plan.prefix_length)
    store = ctx.store

    def run(arg: list) -> Iterator[list]:
        # Take in all child results, group them by their prefix, then seek
        # the index once per distinct prefix (§5.1.3). The grouped rows are
        # accessed randomly per prefix, so they cannot spill; charge them
        # against the tracker (released wholesale at tracker close).
        mem = ctx.mem()
        groups: dict[tuple[int, ...], list] = {}
        for morsel in child(arg):
            for row in morsel:
                prefix = tuple(int(row[slot]) for slot in prefix_slots)
                groups.setdefault(prefix, []).append(row)
                mem.charge(plan, ROW_BYTES)
        out: list = []
        append = out.append
        for prefix, rows in groups.items():
            # Partial indexes (§4.1) materialize the start node on demand.
            index.prepare_prefix(prefix, store)
            for entry in index.scan_prefix(prefix):
                for row in rows:
                    combined = bind(entry, row)
                    if combined is not None:
                        append(combined)
                        if len(out) >= morsel_size:
                            yield out
                            out = []
                            append = out.append
        if out:
            yield out

    return run


# ---------------------------------------------------------------------------
# Projection boundary operators
# ---------------------------------------------------------------------------


def _projection(
    plan: PlanProjection, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    child = compile_batched_plan(plan.children[0], ctx, layout, morsel_size)
    items = [
        (
            layout.slot_of(item.output_name),
            compile_expression(item.expression, layout.slot_of, ctx.eval_ctx),
        )
        for item in plan.items
    ]

    def run(arg: list) -> Iterator[list]:
        width = layout.width
        for morsel in child(arg):
            out = []
            for row in morsel:
                new = [None] * (width + 1)
                new[width] = ()  # uniqueness scope resets at the boundary
                for slot, fn in items:
                    new[slot] = fn(row)
                out.append(new)
            yield out

    return run


def _aggregation(
    plan: PlanAggregation, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    # Aggregation consumes its entire child regardless of demand.
    child = compile_batched_plan(plan.children[0], ctx, layout, ctx.morsel_size)
    grouping = [
        (
            item.output_name,
            layout.slot_of(item.output_name),
            compile_expression(item.expression, layout.slot_of, ctx.eval_ctx),
        )
        for item in plan.grouping_items
    ]
    aggregates = []
    for item in plan.aggregate_items:
        compiled_calls = [
            (
                call,
                None
                if call.star
                else compile_expression(call.argument, layout.slot_of, ctx.eval_ctx),
            )
            for call in _aggregate_calls(item.expression)
        ]
        aggregates.append((item, layout.slot_of(item.output_name), compiled_calls))
    eval_ctx = ctx.eval_ctx

    def make_accumulators():
        return [
            [(_Accumulator(call), arg_fn) for call, arg_fn in compiled_calls]
            for _, _, compiled_calls in aggregates
        ]

    def new_state(row: list) -> tuple[list, list]:
        return ([(name, fn(row)) for name, _, fn in grouping], make_accumulators())

    def feed(state: tuple[list, list], row: list) -> None:
        for item_accumulators in state[1]:
            for accumulator, arg_fn in item_accumulators:
                if arg_fn is None:  # count(*)
                    accumulator.count += 1
                else:
                    accumulator.feed_value(arg_fn(row))

    def run(arg: list) -> Iterator[list]:
        width = layout.width
        buffer = AggregationSpillBuffer(ctx.mem(), plan, new_state, feed)
        for morsel in child(arg):
            for row in morsel:
                key = tuple(_hashable(fn(row)) for _, _, fn in grouping)
                buffer.add(key, row)
        if buffer.is_empty and not grouping:
            # Global aggregation over zero rows still yields one row.
            states: list = [([], make_accumulators())]
        else:
            states = buffer.states()
        out: list = []
        append = out.append
        for key_values, accumulator_lists in states:
            values = dict(key_values)
            for (item, _, _), item_accumulators in zip(aggregates, accumulator_lists):
                results = {
                    accumulator.call: accumulator.result()
                    for accumulator, _ in item_accumulators
                }
                values[item.output_name] = evaluate(
                    item.expression, Row(values), eval_ctx, results
                )
            new = [None] * (width + 1)
            new[width] = ()
            for name, slot, _ in grouping:
                new[slot] = values[name]
            for item, slot, _ in aggregates:
                new[slot] = values[item.output_name]
            append(new)
            if len(out) >= morsel_size:
                yield out
                out = []
                append = out.append
        if out:
            yield out

    return run


def _distinct(
    plan: PlanDistinct, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    child = compile_batched_plan(plan.children[0], ctx, layout, morsel_size)
    slots = [layout.slot_of(column) for column in plan.columns]

    def run(arg: list) -> Iterator[list]:
        buffer = DistinctSpillBuffer(ctx.mem(), plan)
        out: list = []
        append = out.append
        for morsel in child(arg):
            for row in morsel:
                key = tuple(_hashable(row[slot]) for slot in slots)
                if buffer.offer(key, row):
                    append(row)
                    if len(out) >= morsel_size:
                        yield out
                        out = []
                        append = out.append
        for row in buffer.drain():
            append(row)
            if len(out) >= morsel_size:
                yield out
                out = []
                append = out.append
        if out:
            yield out

    return run


def _sort(
    plan: PlanSort, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    # Sort consumes its entire child regardless of demand.
    child = compile_batched_plan(plan.children[0], ctx, layout, ctx.morsel_size)
    keys = [
        (compile_expression(expression, layout.slot_of, ctx.eval_ctx), ascending)
        for expression, ascending in plan.order_by
    ]

    def composed_key(row: list) -> tuple:
        # A single stable sort on this composed key is equivalent to the
        # historical chain of per-level stable sorts (descending levels
        # invert comparisons via Desc), and it also orders spilled runs.
        return tuple(
            _sort_key(fn(row)) if ascending else Desc(_sort_key(fn(row)))
            for fn, ascending in keys
        )

    def run(arg: list) -> Iterator[list]:
        buffer = SortSpillBuffer(ctx.mem(), plan, composed_key)
        for morsel in child(arg):
            for row in morsel:
                buffer.add(row)
        out: list = []
        append = out.append
        for row in buffer:
            append(row)
            if len(out) >= morsel_size:
                yield out
                out = []
                append = out.append
        if out:
            yield out

    return run


def _limit(
    plan: PlanLimit, ctx: RuntimeContext, layout: SlotLayout, morsel_size: int
) -> BatchRunFn:
    # Compile the child subtree demand-driven (morsels of one) so that
    # upstream operators produce — and profile — exactly the rows the
    # row engine's lazy pull would, instead of overfilling the final
    # morsel past the limit. Blocking operators below reset their own
    # children back to ctx.morsel_size.
    child = compile_batched_plan(plan.children[0], ctx, layout, 1)
    skip = plan.skip
    limit = plan.limit

    def run(arg: list) -> Iterator[list]:
        skipped = 0
        produced = 0
        for morsel in child(arg):
            out = []
            for row in morsel:
                if skipped < skip:
                    skipped += 1
                    continue
                if limit >= 0 and produced >= limit:
                    if out:
                        yield out
                    return
                produced += 1
                out.append(row)
            if out:
                yield out

    return run
