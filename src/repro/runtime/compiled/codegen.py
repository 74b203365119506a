"""Plan-to-Python source compilation (data-centric codegen, §2.2 context).

``compile_part`` walks one query part's :class:`LogicalPlan` tree and emits
a single Python generator function in which all operators of a pipeline are
fused into one loop nest: scans become ``for`` loops over store/index
iterators, variable bindings become plain locals, and predicates/projections
call expression closures pre-compiled with
:func:`repro.runtime.expressions.compile_expression`. Pipeline breakers
(hash-join build, aggregation, sort, distinct-free buffering points) stay in
the same function as materialization points between loop nests.

The generated function preserves the row engine's observable contract:

* per-logical-operator row counts (flushed once per invocation via the
  ``_flush`` argument; operators that produced nothing are skipped, as
  the row engine records no count for them),
* cooperative cancellation (``_check`` is called every
  :data:`CHECK_STRIDE` source-loop iterations),
* relationship-uniqueness semantics and binder/filter ordering; output
  is chunked into morsel-sized lists so results still stream,
* per-query memory accounting: the optional ``_mem`` argument is the
  query's :class:`~repro.resources.pool.MemoryTracker`, and every
  pipeline breaker buffers through the same spill-aware structures
  (:mod:`repro.resources.spill`) as the row engine, with identical
  per-row cost estimates — so both engines spill at the same input
  cardinalities and remain row-identical under any budget.

Codegen is a produce/consume recursion (Neumann-style): ``produce(plan)``
emits the loops that generate rows and invokes the parent's ``consume``
callback to emit the code handling each row. The *scope* threaded through
consume callbacks tracks how each variable is currently available — as a
local, or as a slot of a materialized row — so rows are only materialized
at breakers and sinks.

Token ids (labels, relationship types, property keys) are resolved when the
part is compiled, with per-invocation fallback for ids unknown at compile
time in exactly the places the row engine re-resolves them (primary label
of a label scan, incomplete expand type sets, compiled expressions). The
artifact is kept on the plan, so it is dropped whenever statistics drift
invalidates the plan itself.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from repro.cypher import ast
from repro.errors import ReproError
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
from repro.runtime.compiled.slots import SlotLayout, _merge_rows, _slot_entry_binder
from repro.runtime.expressions import (
    EvaluationContext,
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
    _leading_prefix,
    _node_id_seeker,
    _resolve_type_ids,
    _skip_target,
    _sort_key,
)
from repro.runtime.row import Row

CHECK_STRIDE = 1024
"""Source-loop iterations between cancellation checks (the default morsel
size, so one check bounds abort latency at one morsel's worth of work)."""


# ---------------------------------------------------------------------------
# Scopes: how variables are available at a point in the generated code
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Scope:
    """Variable availability at one point of the generated loop nest.

    ``base`` names a local holding a full slot row (or None when the row
    exists only as locals); ``bound`` maps variable names to expression
    strings overriding the base row; ``rels`` is an expression for the
    current relationship-uniqueness tuple. ``closed`` marks post-boundary
    scopes where any variable not in ``bound`` is NULL (the row engine
    drops non-projected bindings at WITH boundaries).
    """

    base: Optional[str]
    bound: dict[str, str] = field(default_factory=dict)
    rels: str = "()"
    closed: bool = False

    def binding(self, **names: str) -> "_Scope":
        merged = dict(self.bound)
        merged.update(names)
        return replace(self, bound=merged)


class _MiniSlots:
    """Slot allocator for one compiled expression: the closure indexes a
    tuple built from scope references instead of a full slot row."""

    def __init__(self) -> None:
        self.names: list[str] = []

    def slot_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1


# ---------------------------------------------------------------------------
# The per-part compiler
# ---------------------------------------------------------------------------


class PartCompiler:
    """Emits the fused pipeline function for one query part."""

    def __init__(
        self,
        plan: LogicalPlan,
        ctx: RuntimeContext,
        layout: SlotLayout,
    ) -> None:
        self.plan = plan
        self.ctx = ctx
        self.layout = layout
        self.lines: list[str] = []
        self.indent = 2  # inside `def` + `try`
        self.env: dict[str, object] = {}
        self._names = itertools.count()
        self.plans: list[LogicalPlan] = []
        self._plan_index: dict[int, int] = {}
        for node in _walk(plan):
            if id(node) not in self._plan_index:
                self._plan_index[id(node)] = len(self.plans)
                self.plans.append(node)
        self.initial_scope = _Scope(base="_arg", rels="_R0")

    # -- emission helpers ------------------------------------------------

    def fresh(self, prefix: str) -> str:
        return f"_{prefix}{next(self._names)}"

    def add_env(self, prefix: str, value: object) -> str:
        name = self.fresh(prefix)
        self.env[name] = value
        return name

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    @contextmanager
    def block(self):
        self.indent += 1
        try:
            yield
        finally:
            self.indent -= 1

    def ref(self, scope: _Scope, name: str) -> str:
        """Expression string for variable ``name`` under ``scope``."""
        expr = scope.bound.get(name)
        if expr is not None:
            return expr
        if scope.closed:
            return "None"
        return f"{scope.base}[{self.layout.slot_of(name)}]"

    def count_and_check(self, plan: LogicalPlan) -> None:
        """Per-operator-output profile accounting (one integer add)."""
        self.emit(f"_ct{self._plan_index[id(plan)]} += 1")

    def tick(self) -> None:
        """Strided cancellation check, emitted once per source-loop
        iteration (scans, expands, seeks, probe/product inner loops)
        rather than per operator output — pass-through operators ride on
        the tick of the loop that feeds them."""
        self.emit("_tick += 1")
        self.emit(f"if not _tick % {CHECK_STRIDE}:")
        with self.block():
            self.emit("_check()")

    # -- expression compilation ------------------------------------------

    def expr_code(self, expression: ast.Expression, scope: _Scope) -> str:
        """Code evaluating ``expression`` in ``scope`` (NULL-safe)."""
        if isinstance(expression, ast.Variable):
            return self.ref(scope, expression.name)
        if isinstance(expression, ast.Literal) and isinstance(
            expression.value, (bool, int, str, type(None))
        ):
            return repr(expression.value)
        mini = _MiniSlots()
        fn = self.add_env(
            "e", compile_expression(expression, mini.slot_of, self.ctx.eval_ctx)
        )
        return f"{fn}({self._ref_tuple(mini, scope)})"

    def pred_code(self, expression: ast.Expression, scope: _Scope) -> str:
        """Code for a predicate test (only an exact True passes)."""
        if isinstance(expression, ast.Variable):
            return f"{self.ref(scope, expression.name)} is True"
        mini = _MiniSlots()
        fn = self.add_env(
            "p", compile_predicate(expression, mini.slot_of, self.ctx.eval_ctx)
        )
        return f"{fn}({self._ref_tuple(mini, scope)})"

    def _ref_tuple(self, mini: _MiniSlots, scope: _Scope) -> str:
        if not mini.names:
            return "()"
        parts = ", ".join(self.ref(scope, name) for name in mini.names)
        return f"({parts},)" if len(mini.names) == 1 else f"({parts})"

    # -- row materialization ----------------------------------------------

    def materialize(self, scope: _Scope) -> str:
        """Emit code building a full slot row for ``scope``; returns its
        local name (or the base row itself when nothing was rebound)."""
        if (
            scope.base is not None
            and not scope.bound
            and scope.rels == f"{scope.base}[_W]"
        ):
            return scope.base
        row = self.fresh("m")
        if scope.base is not None:
            self.emit(f"{row} = {scope.base}[:]")
        else:
            self.emit(f"{row} = [None] * (_W + 1)")
        for name, expr in scope.bound.items():
            self.emit(f"{row}[{self.layout.slot_of(name)}] = {expr}")
        self.emit(f"{row}[_W] = {scope.rels}")
        return row

    def row_scope(self, row: str) -> _Scope:
        return _Scope(base=row, rels=f"{row}[_W]")

    # -- produce/consume recursion ----------------------------------------

    def produce(self, plan: LogicalPlan, consume: Callable[[_Scope], None]) -> None:
        producer = PRODUCERS.get(type(plan))
        if producer is None:
            raise ReproError(f"no compiled operator for {type(plan).__name__}")
        producer(self, plan, consume)


def _walk(plan: LogicalPlan) -> Iterable[LogicalPlan]:
    yield plan
    for child in plan.children:
        yield from _walk(child)


# ---------------------------------------------------------------------------
# Leaf producers
# ---------------------------------------------------------------------------


def _p_argument(comp: PartCompiler, plan: PlanArgument, consume) -> None:
    for variable in plan.variables:
        comp.layout.slot_of(variable)
    # A one-iteration loop so downstream `continue` has a loop to target.
    comp.emit("for _ in (0,):")
    with comp.block():
        comp.count_and_check(plan)
        consume(comp.initial_scope)


def _p_all_nodes_scan(comp: PartCompiler, plan: PlanAllNodesScan, consume) -> None:
    scope = comp.initial_scope
    nodes = comp.add_env("nodes", comp.ctx.store.all_nodes)
    bound = comp.fresh("b")
    node = comp.fresh("n")
    comp.emit(f"{bound} = {comp.ref(scope, plan.node)}")
    comp.emit(f"for {node} in {nodes}():")
    with comp.block():
        comp.tick()
        comp.emit(f"if {bound} is not None and {bound} != {node}:")
        with comp.block():
            comp.emit("continue")
        comp.count_and_check(plan)
        consume(scope.binding(**{plan.node: node}))


def _emit_post_label_checks(comp: PartCompiler, post, value: str) -> bool:
    """Emit per-label filters on ``value`` (an int node-id local).

    Returns False when a label is unknown at compile time: the row can
    never match (row-engine parity), a bare ``continue`` was emitted, and
    the caller must stop emitting code for this output.
    """
    if not post:
        return True
    checker = comp.add_env("hasl", comp.ctx.store.has_label)
    for label_id in post:
        if label_id is None:
            comp.emit("continue")
            return False
        comp.emit(f"if not {checker}({value}, {label_id}):")
        with comp.block():
            comp.emit("continue")
    return True


def _p_node_by_label_scan(
    comp: PartCompiler, plan: PlanNodeByLabelScan, consume
) -> None:
    scope = comp.initial_scope
    ctx = comp.ctx
    store = ctx.store
    scan = comp.add_env("lscan", store.nodes_with_label)
    label_id = comp.fresh("lid")
    static = store.labels.id_of(plan.label)
    if static is not None:
        comp.emit(f"{label_id} = {static}")
    else:
        # Unknown at compile time: per-invocation lookup, like the row
        # engine's per-run fallback.
        lookup = comp.add_env(
            "rlbl", lambda store=store, label=plan.label: store.labels.id_of(label)
        )
        comp.emit(f"{label_id} = {lookup}()")
    post = [lid for _, lid in _label_ids(ctx, plan.post_labels)]
    comp.emit(f"if {label_id} is not None:")
    with comp.block():
        bound = comp.fresh("b")
        node = comp.fresh("n")
        comp.emit(f"{bound} = {comp.ref(scope, plan.node)}")
        comp.emit(f"for {node} in {scan}({label_id}):")
        with comp.block():
            comp.tick()
            comp.emit(f"if {bound} is not None and {bound} != {node}:")
            with comp.block():
                comp.emit("continue")
            if not _emit_post_label_checks(comp, post, node):
                return
            comp.count_and_check(plan)
            consume(scope.binding(**{plan.node: node}))


def _p_node_by_id_seek(comp: PartCompiler, plan: PlanNodeByIdSeek, consume) -> None:
    scope = comp.initial_scope
    found = comp.add_env("found", _node_id_seeker(plan, comp.ctx))
    # A one-iteration loop so downstream `continue` has a loop to target.
    comp.emit("for _ in (0,):")
    with comp.block():
        comp.emit(f"if not {found}({comp.ref(scope, plan.node)}):")
        with comp.block():
            comp.emit("continue")
        comp.count_and_check(plan)
        consume(scope.binding(**{plan.node: repr(plan.node_id)}))


def _p_relationship_by_type_scan(
    comp: PartCompiler, plan: PlanRelationshipByTypeScan, consume
) -> None:
    ctx = comp.ctx
    scope = comp.initial_scope
    index = ctx.index_store.get(plan.index_name)
    scan = comp.add_env("rscan", index.scan)
    bound_rel = comp.fresh("br")
    comp.emit(f"{bound_rel} = {comp.ref(scope, plan.rel)}")
    rels = scope.rels
    start, rel_id, end = comp.fresh("s"), comp.fresh("r"), comp.fresh("t")
    comp.emit(f"for {start}, {rel_id}, {end} in {scan}():")
    with comp.block():
        comp.tick()
        comp.emit(f"if {bound_rel} is not None and {bound_rel} != {rel_id}:")
        with comp.block():
            comp.emit("continue")
        comp.emit(f"if {rel_id} in {rels} and {bound_rel} != {rel_id}:")
        with comp.block():
            comp.emit("continue")

        def orientation(source: str, target: str) -> None:
            bound_start = comp.ref(scope, plan.start_node)
            comp.emit(
                f"if {bound_start} is not None and {bound_start} != {source}:"
            )
            with comp.block():
                comp.emit("continue")
            if plan.end_node == plan.start_node:
                # Same variable on both endpoints: the just-bound start
                # value must match the other orientation endpoint.
                comp.emit(f"if {source} != {target}:")
                with comp.block():
                    comp.emit("continue")
            else:
                bound_end = comp.ref(scope, plan.end_node)
                comp.emit(
                    f"if {bound_end} is not None and {bound_end} != {target}:"
                )
                with comp.block():
                    comp.emit("continue")
            inner = scope.binding(
                **{
                    plan.start_node: source,
                    plan.end_node: target,
                    plan.rel: rel_id,
                }
            )
            for var, label in plan.post_labels:
                label_id = ctx.store.labels.id_of(label)
                value = comp.ref(inner, var)
                if label_id is None:
                    # An unknown label can never match (row-engine parity).
                    comp.emit("continue")
                    return
                has_label = comp.add_env("hasl", ctx.store.has_label)
                comp.emit(
                    f"if {value} is None or "
                    f"not {has_label}(int({value}), {label_id}):"
                )
                with comp.block():
                    comp.emit("continue")
            new_rels = comp.fresh("nr")
            comp.emit(
                f"{new_rels} = {rels} if {rel_id} in {rels} "
                f"else {rels} + ({rel_id},)"
            )
            comp.count_and_check(plan)
            consume(replace(inner, rels=new_rels))

        if plan.directed:
            orientation(start, end)
        else:
            pair = comp.fresh("o")
            comp.emit(
                f"for {pair} in ((({start}, {end}), ({end}, {start})) "
                f"if {start} != {end} else (({start}, {end}),)):"
            )
            with comp.block():
                source, target = comp.fresh("s"), comp.fresh("t")
                comp.emit(f"{source}, {target} = {pair}")
                orientation(source, target)


# ---------------------------------------------------------------------------
# Expand / join / product / filter producers
# ---------------------------------------------------------------------------


def _p_expand(comp: PartCompiler, plan: PlanExpand, consume) -> None:
    ctx = comp.ctx
    expand = comp.add_env("expand", ctx.store.expand)
    direction = comp.add_env("dir", plan.direction)
    post = [lid for _, lid in _label_ids(ctx, plan.post_labels)]

    single_type = "None"
    type_set = None
    type_guard: Optional[str] = None
    if plan.types:
        static = _resolve_type_ids(ctx, plan.types)
        if len(static) == len(plan.types):
            if len(static) == 1:
                single_type = repr(next(iter(static)))
            else:
                type_set = comp.add_env("types", frozenset(static))
        else:
            # Some types unknown at compile time: re-resolve per
            # invocation, mirroring the row engine's per-run retry.
            resolver = comp.add_env(
                "rtypes",
                lambda ctx=ctx, names=plan.types: _resolve_type_ids(ctx, names),
            )
            resolved = comp.fresh("tr")
            single = comp.fresh("st")
            filt = comp.fresh("ts")
            comp.emit(f"{resolved} = {resolver}()")
            # Guard the whole subtree: no matching types, no child work
            # (the row operator returns before consuming its child).
            type_guard = resolved
            comp.emit(f"if {resolved}:")
            comp.indent += 1
            comp.emit(
                f"{single} = next(iter({resolved})) "
                f"if len({resolved}) == 1 else None"
            )
            comp.emit(f"{filt} = None if {single} is not None else {resolved}")
            single_type = single
            type_set = filt

    def consume_child(scope: _Scope) -> None:
        from_id = comp.fresh("f")
        comp.emit(f"{from_id} = {comp.ref(scope, plan.from_node)}")
        comp.emit(f"if {from_id} is None:")
        with comp.block():
            comp.emit("continue")
        bound_rel = comp.fresh("br")
        comp.emit(f"{bound_rel} = {comp.ref(scope, plan.rel)}")
        if plan.into:
            target = comp.fresh("tb")
            comp.emit(f"{target} = {comp.ref(scope, plan.to_node)}")
        rels = scope.rels
        rel, neighbour = comp.fresh("rr"), comp.fresh("nb")
        rel_id = comp.fresh("ri")
        comp.emit(
            f"for {rel}, {neighbour} in "
            f"{expand}(int({from_id}), {direction}, {single_type}):"
        )
        with comp.block():
            comp.tick()
            if type_set is not None:
                comp.emit(
                    f"if {type_set} is not None "
                    f"and {rel}.type_id not in {type_set}:"
                )
                with comp.block():
                    comp.emit("continue")
            comp.emit(f"{rel_id} = {rel}.id")
            comp.emit(f"if {bound_rel} is not None and {bound_rel} != {rel_id}:")
            with comp.block():
                comp.emit("continue")
            comp.emit(f"if {rel_id} in {rels} and {bound_rel} != {rel_id}:")
            with comp.block():
                comp.emit("continue")
            if plan.into:
                comp.emit(f"if {neighbour} != {target}:")
                with comp.block():
                    comp.emit("continue")
                inner = scope.binding(**{plan.rel: rel_id})
            else:
                if not _emit_post_label_checks(comp, post, neighbour):
                    return
                inner = scope.binding(
                    **{plan.rel: rel_id, plan.to_node: neighbour}
                )
            new_rels = comp.fresh("nr")
            comp.emit(
                f"{new_rels} = {rels} if {rel_id} in {rels} "
                f"else {rels} + ({rel_id},)"
            )
            comp.count_and_check(plan)
            consume(replace(inner, rels=new_rels))

    comp.produce(plan.children[0], consume_child)
    if type_guard is not None:
        comp.indent -= 1


def _p_node_hash_join(comp: PartCompiler, plan: PlanNodeHashJoin, consume) -> None:
    # The build table lives in a spill-aware buffer; the engine-specific
    # merge (binding conflicts, relationship uniqueness) closes over the
    # run-time uniqueness scope and row width.
    make_buffer = comp.add_env(
        "mkjoin",
        lambda mem, shared, width, plan=plan: JoinSpillBuffer(
            mem,
            plan,
            lambda build_row, probe_row: _merge_rows(
                build_row, probe_row, shared, width
            ),
        ),
    )
    shared = comp.fresh("sh")
    comp.emit(f"{shared} = frozenset(_R0)")
    buffer = comp.fresh("jb")
    comp.emit(f"{buffer} = {make_buffer}(_mem, {shared}, _W)")

    def build(scope: _Scope) -> None:
        key = _key_tuple(comp, scope, plan.join_nodes)
        row = comp.materialize(scope)
        comp.emit(f"{buffer}.insert({key}, {row})")

    comp.produce(plan.children[0], build)

    def emit_consume_merged(merged: str) -> None:
        comp.tick()
        comp.count_and_check(plan)
        consume(comp.row_scope(merged))

    def probe(scope: _Scope) -> None:
        key = _key_tuple(comp, scope, plan.join_nodes)
        row = comp.materialize(scope)
        merged = comp.fresh("mg")
        comp.emit(f"for {merged} in {buffer}.probe({key}, {row}):")
        with comp.block():
            emit_consume_merged(merged)

    comp.produce(plan.children[1], probe)
    # Spill-mode matches staged during the probe come back here, in exact
    # probe order (empty when nothing spilled).
    merged = comp.fresh("mg")
    comp.emit(f"for {merged} in {buffer}.drain():")
    with comp.block():
        emit_consume_merged(merged)


def _key_tuple(comp: PartCompiler, scope: _Scope, names) -> str:
    parts = ", ".join(comp.ref(scope, name) for name in names)
    return f"({parts},)" if len(names) == 1 else f"({parts})"


def _p_cartesian_product(
    comp: PartCompiler, plan: PlanCartesianProduct, consume
) -> None:
    make_buffer = comp.add_env(
        "mkrows", lambda mem, plan=plan: AppendSpillBuffer(mem, plan)
    )
    right_rows = comp.fresh("rr")
    comp.emit(f"{right_rows} = None")
    shared = comp.fresh("sh")
    comp.emit(f"{shared} = frozenset(_R0)")
    merge = comp.add_env("merge", _merge_rows)

    def left_consume(scope: _Scope) -> None:
        left_row = comp.materialize(scope)
        comp.emit(f"if {right_rows} is None:")
        with comp.block():
            comp.emit(f"{right_rows} = {make_buffer}(_mem)")
            append = comp.fresh("ra")
            comp.emit(f"{append} = {right_rows}.add")

            def right_consume(right_scope: _Scope) -> None:
                comp.emit(f"{append}({comp.materialize(right_scope)})")

            comp.produce(plan.children[1], right_consume)
        row, merged = comp.fresh("rw"), comp.fresh("mg")
        comp.emit(f"for {row} in {right_rows}:")
        with comp.block():
            comp.tick()
            comp.emit(f"{merged} = {merge}({left_row}, {row}, {shared}, _W)")
            comp.emit(f"if {merged} is None:")
            with comp.block():
                comp.emit("continue")
            comp.count_and_check(plan)
            consume(comp.row_scope(merged))

    comp.produce(plan.children[0], left_consume)


def _p_filter(comp: PartCompiler, plan: PlanFilter, consume) -> None:
    def consume_child(scope: _Scope) -> None:
        for predicate in plan.predicates:
            comp.emit(f"if not ({comp.pred_code(predicate, scope)}):")
            with comp.block():
                comp.emit("continue")
        comp.count_and_check(plan)
        consume(scope)

    comp.produce(plan.children[0], consume_child)


# ---------------------------------------------------------------------------
# Path index producers (§5.1)
# ---------------------------------------------------------------------------


def _emit_leading_prefix(comp: PartCompiler, plan, constants) -> str:
    """Emit the run's key prefix (see ``_leading_prefix``) into a local."""
    prefix_of = comp.add_env(
        "pfx", lambda bound, constants=constants: _leading_prefix(constants, bound)
    )
    bound = ", ".join(comp.ref(comp.initial_scope, var) for var in plan.entry_vars)
    prefix = comp.fresh("pf")
    comp.emit(f"{prefix} = {prefix_of}(({bound},))")
    return prefix


def _p_path_index_scan(comp: PartCompiler, plan: PlanPathIndexScan, consume) -> None:
    ctx = comp.ctx
    index = ctx.index_store.get(plan.index_name)
    scan = comp.add_env("iscan", index.scan)
    scan_prefix = comp.add_env("ipfx", index.scan_prefix)
    bind = comp.add_env("bind", _slot_entry_binder(plan, ctx, comp.layout))
    prefix = _emit_leading_prefix(comp, plan, (None,) * len(plan.entry_vars))
    entry, row = comp.fresh("en"), comp.fresh("rw")
    comp.emit(f"for {entry} in {scan_prefix}({prefix}) if {prefix} else {scan}():")
    with comp.block():
        comp.tick()
        comp.emit(f"{row} = {bind}({entry}, _arg)")
        comp.emit(f"if {row} is None:")
        with comp.block():
            comp.emit("continue")
        comp.count_and_check(plan)
        consume(comp.row_scope(row))


def _p_path_index_filtered_scan(
    comp: PartCompiler, plan: PlanPathIndexFilteredScan, consume
) -> None:
    ctx = comp.ctx
    index = ctx.index_store.get(plan.index_name)
    seeker = comp.add_env("isk", index.seeker)
    bind = comp.add_env("bind", _slot_entry_binder(plan, ctx, comp.layout))
    width = len(plan.entry_vars)
    constraints = _filtered_scan_constraints(plan)
    skip = comp.add_env(
        "skip",
        lambda entry, d=constraints.must_differ, e=constraints.must_equal, w=width: (
            _skip_target(entry, d, e, w)
        ),
    )
    predicates = [
        comp.add_env(
            "p", compile_predicate(predicate, comp.layout.slot_of, ctx.eval_ctx)
        )
        for predicate in constraints.residual
    ]
    prefix = _emit_leading_prefix(comp, plan, constraints.constants)
    seek, lower, again = comp.fresh("sk"), comp.fresh("lo"), comp.fresh("go")
    entry, row, violation = comp.fresh("en"), comp.fresh("rw"), comp.fresh("vi")
    comp.emit(f"{seek} = {seeker}({prefix})")
    comp.emit(f"{lower} = {prefix} + (0,) * ({width} - len({prefix}))")
    comp.emit(f"{again} = True")
    comp.emit(f"while {again}:")
    with comp.block():
        comp.emit(f"{again} = False")
        comp.emit(f"for {entry} in {seek}({lower}):")
        with comp.block():
            comp.tick()
            for position, value in constraints.checks:
                comp.emit(f"if {entry}[{position}] != {value}:")
                with comp.block():
                    comp.emit("continue")
            comp.emit(f"{violation} = {skip}({entry})")
            comp.emit(f"if {violation} is not None:")
            with comp.block():
                comp.emit(f"{lower} = {violation}")
                comp.emit(f"{again} = True")
                comp.emit("break")
            comp.emit(f"{row} = {bind}({entry}, _arg)")
            comp.emit(f"if {row} is None:")
            with comp.block():
                comp.emit("continue")
            for predicate in predicates:
                comp.emit(f"if not {predicate}({row}):")
                with comp.block():
                    comp.emit("continue")
            comp.count_and_check(plan)
            consume(comp.row_scope(row))


def _p_path_index_prefix_seek(
    comp: PartCompiler, plan: PlanPathIndexPrefixSeek, consume
) -> None:
    ctx = comp.ctx
    index = ctx.index_store.get(plan.index_name)
    prepare = comp.add_env("prep", index.prepare_prefix)
    scan_prefix = comp.add_env("ipfx", index.scan_prefix)
    store = comp.add_env("store", ctx.store)
    bind = comp.add_env(
        "bind",
        _slot_entry_binder(
            plan, ctx, comp.layout, skip_positions=plan.prefix_length
        ),
    )
    prefix_vars = plan.entry_vars[: plan.prefix_length]
    plan_env = comp.add_env("pl", plan)
    groups = comp.fresh("gr")
    comp.emit(f"{groups} = {{}}")

    def collect(scope: _Scope) -> None:
        parts = ", ".join(
            f"int({comp.ref(scope, var)})" for var in prefix_vars
        )
        key = f"({parts},)" if len(prefix_vars) == 1 else f"({parts})"
        row = comp.materialize(scope)
        comp.emit(f"{groups}.setdefault({key}, []).append({row})")
        # The grouped rows are accessed randomly per prefix, so they
        # cannot spill; charge them against the tracker (released
        # wholesale at tracker close).
        comp.emit(f"_mem.charge({plan_env}, {ROW_BYTES})")

    comp.produce(plan.children[0], collect)
    prefix, rows = comp.fresh("pk"), comp.fresh("rs")
    entry, parent, row = comp.fresh("en"), comp.fresh("pr"), comp.fresh("rw")
    comp.emit(f"for {prefix}, {rows} in {groups}.items():")
    with comp.block():
        comp.emit(f"{prepare}({prefix}, {store})")
        comp.emit(f"for {entry} in {scan_prefix}({prefix}):")
        with comp.block():
            comp.emit(f"for {parent} in {rows}:")
            with comp.block():
                comp.tick()
                comp.emit(f"{row} = {bind}({entry}, {parent})")
                comp.emit(f"if {row} is None:")
                with comp.block():
                    comp.emit("continue")
                comp.count_and_check(plan)
                consume(comp.row_scope(row))


# ---------------------------------------------------------------------------
# Projection-boundary producers
# ---------------------------------------------------------------------------


def _p_projection(comp: PartCompiler, plan: PlanProjection, consume) -> None:
    for item in plan.items:
        comp.layout.slot_of(item.output_name)

    def consume_child(scope: _Scope) -> None:
        bound: dict[str, str] = {}
        for item in plan.items:
            code = comp.expr_code(item.expression, scope)
            local = comp.fresh("pj")
            comp.emit(f"{local} = {code}")
            bound[item.output_name] = local
        comp.count_and_check(plan)
        # The uniqueness scope resets and non-projected bindings drop at
        # the boundary, exactly like the row engine's ``Row.project``.
        consume(_Scope(base=None, bound=bound, rels="()", closed=True))

    comp.produce(plan.children[0], consume_child)


def _p_aggregation(comp: PartCompiler, plan: PlanAggregation, consume) -> None:
    ctx = comp.ctx
    grouping_names = [item.output_name for item in plan.grouping_items]
    for item in plan.grouping_items:
        comp.layout.slot_of(item.output_name)
    for item in plan.aggregate_items:
        comp.layout.slot_of(item.output_name)

    # Flat accumulator order: item by item, call by call; a None slot in
    # the fed tuple marks a count(*) accumulator.
    item_calls = [
        (item, _aggregate_calls(item.expression)) for item in plan.aggregate_items
    ]
    flat_calls = [call for _, calls in item_calls for call in calls]

    def make_accumulators() -> list:
        return [_Accumulator(call) for call in flat_calls]

    stars = [call.star for call in flat_calls]

    def feed(accumulators: list, values: tuple) -> None:
        for accumulator, star, value in zip(accumulators, stars, values):
            if star:
                accumulator.count += 1
            else:
                accumulator.feed_value(value)

    eval_ctx = ctx.eval_ctx

    def finish(key_values: tuple, accumulators: list) -> list:
        values = dict(zip(grouping_names, key_values))
        out = list(key_values)
        position = 0
        for item, calls in item_calls:
            results = {}
            for call in calls:
                results[call] = accumulators[position].result()
                position += 1
            value = evaluate(item.expression, Row(values), eval_ctx, results)
            values[item.output_name] = value
            out.append(value)
        return out

    # Spilled items must carry everything the fold needs, because the
    # generated code cannot re-evaluate expressions against a spilled
    # row: each item is (key_values, fed_values), both plain tuples.
    def new_state(item: tuple) -> tuple:
        return (item[0], make_accumulators())

    def feed_item(state: tuple, item: tuple) -> None:
        feed(state[1], item[1])

    make_buffer = comp.add_env(
        "mkagg",
        lambda mem, plan=plan: AggregationSpillBuffer(
            mem, plan, new_state, feed_item
        ),
    )
    make_env = comp.add_env("mkacc", make_accumulators)
    finish_env = comp.add_env("fin", finish)
    hashable = comp.add_env("hash", _hashable)
    buffer = comp.fresh("gr")
    comp.emit(f"{buffer} = {make_buffer}(_mem)")

    def consume_child(scope: _Scope) -> None:
        key_locals = []
        for item in plan.grouping_items:
            local = comp.fresh("gv")
            comp.emit(f"{local} = {comp.expr_code(item.expression, scope)}")
            key_locals.append(local)
        hashed = ", ".join(f"{hashable}({local})" for local in key_locals)
        if len(key_locals) == 1:
            hashed += ","
        values = ", ".join(key_locals)
        if len(key_locals) == 1:
            values += ","
        fed = []
        for call in flat_calls:
            if call.star:
                fed.append("None")
            else:
                fed.append(comp.expr_code(call.argument, scope))
        tuple_code = ", ".join(fed) + ("," if len(fed) == 1 else "")
        comp.emit(f"{buffer}.add(({hashed}), (({values}), ({tuple_code})))")

    comp.produce(plan.children[0], consume_child)
    states = comp.fresh("gl")
    if grouping_names:
        comp.emit(f"{states} = {buffer}.states()")
    else:
        # Global aggregation over zero rows still yields one row.
        comp.emit(f"if {buffer}.is_empty:")
        with comp.block():
            comp.emit(f"{states} = (((), {make_env}()),)")
        comp.emit("else:")
        with comp.block():
            comp.emit(f"{states} = {buffer}.states()")
    state, finished = comp.fresh("gs"), comp.fresh("fv")
    comp.emit(f"for {state} in {states}:")
    with comp.block():
        comp.tick()
        comp.emit(f"{finished} = {finish_env}({state}[0], {state}[1])")
        comp.count_and_check(plan)
        bound = {
            name: f"{finished}[{position}]"
            for position, name in enumerate(
                grouping_names + [item.output_name for item in plan.aggregate_items]
            )
        }
        consume(_Scope(base=None, bound=bound, rels="()", closed=True))


def _p_distinct(comp: PartCompiler, plan: PlanDistinct, consume) -> None:
    hashable = comp.add_env("hash", _hashable)
    make_buffer = comp.add_env(
        "mkdist", lambda mem, plan=plan: DistinctSpillBuffer(mem, plan)
    )
    buffer = comp.fresh("db")
    comp.emit(f"{buffer} = {make_buffer}(_mem)")

    def consume_child(scope: _Scope) -> None:
        hashed = ", ".join(
            f"{hashable}({comp.ref(scope, column)})" for column in plan.columns
        )
        if len(plan.columns) == 1:
            hashed += ","
        # The offered item must be a full row: post-freeze first
        # occurrences are deferred to disk and replayed by drain below.
        row = comp.materialize(scope)
        comp.emit(f"if not {buffer}.offer(({hashed}), {row}):")
        with comp.block():
            comp.emit("continue")
        comp.count_and_check(plan)
        consume(scope)

    comp.produce(plan.children[0], consume_child)
    # Deferred first occurrences (spill mode only), in input order.
    row = comp.fresh("rw")
    comp.emit(f"for {row} in {buffer}.drain():")
    with comp.block():
        comp.tick()
        comp.count_and_check(plan)
        consume(comp.row_scope(row))


def _p_sort(comp: PartCompiler, plan: PlanSort, consume) -> None:
    ctx = comp.ctx
    keys = [
        (
            compile_expression(expression, comp.layout.slot_of, ctx.eval_ctx),
            ascending,
        )
        for expression, ascending in plan.order_by
    ]

    def composed_key(row: list) -> tuple:
        # One stable sort on this composed key equals the historical chain
        # of per-level stable sorts (descending levels invert via Desc);
        # it also orders the external-sort run files.
        return tuple(
            _sort_key(fn(row)) if ascending else Desc(_sort_key(fn(row)))
            for fn, ascending in keys
        )

    make_buffer = comp.add_env(
        "mksort",
        lambda mem, plan=plan: SortSpillBuffer(mem, plan, composed_key),
    )
    buffer = comp.fresh("bf")
    append = comp.fresh("ba")
    comp.emit(f"{buffer} = {make_buffer}(_mem)")
    comp.emit(f"{append} = {buffer}.add")

    def consume_child(scope: _Scope) -> None:
        comp.emit(f"{append}({comp.materialize(scope)})")

    comp.produce(plan.children[0], consume_child)
    row = comp.fresh("rw")
    comp.emit(f"for {row} in {buffer}:")
    with comp.block():
        comp.tick()
        comp.count_and_check(plan)
        consume(comp.row_scope(row))


def _p_limit(comp: PartCompiler, plan: PlanLimit, consume) -> None:
    skipped = comp.fresh("sk")
    produced = comp.fresh("pd")
    if plan.skip:
        comp.emit(f"{skipped} = 0")
    if plan.limit >= 0:
        comp.emit(f"{produced} = 0")

    def consume_child(scope: _Scope) -> None:
        if plan.skip:
            comp.emit(f"if {skipped} < {plan.skip}:")
            with comp.block():
                comp.emit(f"{skipped} += 1")
                comp.emit("continue")
        if plan.limit >= 0:
            # Limit is always the part root, so returning ends the part;
            # pending output flushes first, counters flush in `finally`.
            comp.emit(f"if {produced} >= {plan.limit}:")
            with comp.block():
                comp.emit("if _out:")
                with comp.block():
                    comp.emit("yield _out")
                comp.emit("return")
            comp.emit(f"{produced} += 1")
        comp.count_and_check(plan)
        consume(scope)

    comp.produce(plan.children[0], consume_child)


PRODUCERS: dict[type, Callable] = {
    PlanArgument: _p_argument,
    PlanAllNodesScan: _p_all_nodes_scan,
    PlanNodeByLabelScan: _p_node_by_label_scan,
    PlanNodeByIdSeek: _p_node_by_id_seek,
    PlanRelationshipByTypeScan: _p_relationship_by_type_scan,
    PlanExpand: _p_expand,
    PlanNodeHashJoin: _p_node_hash_join,
    PlanCartesianProduct: _p_cartesian_product,
    PlanFilter: _p_filter,
    PlanPathIndexScan: _p_path_index_scan,
    PlanPathIndexFilteredScan: _p_path_index_filtered_scan,
    PlanPathIndexPrefixSeek: _p_path_index_prefix_seek,
    PlanProjection: _p_projection,
    PlanAggregation: _p_aggregation,
    PlanDistinct: _p_distinct,
    PlanSort: _p_sort,
    PlanLimit: _p_limit,
}
"""Producer registry, keyed by plan-node type: every ``Plan*`` class."""


# ---------------------------------------------------------------------------
# Part assembly
# ---------------------------------------------------------------------------


def generate_part_source(
    part,
    plan: LogicalPlan,
    ctx: RuntimeContext,
    layout: SlotLayout,
    arg_names: Iterable[str] = (),
) -> tuple[str, dict[str, object], list[LogicalPlan], bool]:
    """Generate the fused pipeline source for one query part.

    Returns ``(source, env, plans, row_sink)``. ``row_sink`` is True when
    the generated code emits finished :class:`Row` objects (read parts
    with a projection); otherwise it emits full slot rows for the caller
    to convert (update parts, projection-less parts). ``arg_names`` are
    pre-allocated in ``layout`` so argument rows of the previous part
    never have to allocate slots at run time.
    """
    for name in arg_names:
        layout.slot_of(name)
    comp = PartCompiler(plan, ctx, layout)
    row_sink = bool(part.projection) and not part.updates
    if row_sink:
        out_names = [item.output_name for item in part.projection]
        for name in out_names:
            layout.slot_of(name)
        comp.env["_Row"] = Row

    def sink(scope: _Scope) -> None:
        if row_sink:
            items = ", ".join(
                f"{name!r}: {comp.ref(scope, name)}" for name in out_names
            )
            comp.emit(f"_append(_Row({{{items}}}))")
        else:
            comp.emit(f"_append({comp.materialize(scope)})")
        comp.emit("if len(_out) >= _M:")
        with comp.block():
            comp.emit("yield _out")
            comp.emit("_out = []")
            comp.emit("_append = _out.append")

    comp.produce(plan, sink)

    counters = [f"_ct{i}" for i in range(len(comp.plans))]
    comp.env["_M"] = ctx.morsel_size
    comp.env["_NT"] = NULL_TRACKER
    # Environment values are bound as default arguments so the generated
    # loops read locals, not globals. ``_mem`` is the per-query
    # MemoryTracker (None when the caller does not account memory).
    env_params = "".join(f", {name}={name}" for name in sorted(comp.env))
    header = [
        f"def _pipeline(_arg, _flush, _check, _mem=None{env_params}):",
        "    if _mem is None:",
        "        _mem = _NT",
        "    _W = len(_arg) - 1",
        "    _R0 = _arg[_W]",
        "    _tick = 0",
    ]
    header += [f"    {counter} = 0" for counter in counters]
    header += [
        "    _out = []",
        "    _append = _out.append",
        "    try:",
    ]
    footer = [
        "        if _out:",
        "            yield _out",
        "    finally:",
        f"        _flush(({', '.join(counters)},))",
    ]
    source = "\n".join(header + comp.lines + footer) + "\n"
    return source, comp.env, comp.plans, row_sink
