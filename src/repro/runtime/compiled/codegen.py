"""Plan-to-Python source compilation (data-centric codegen, §2.2 context).

``generate_part_source`` walks one query part's :class:`LogicalPlan` tree and emits
a single Python generator function in which all operators of a pipeline are
fused into one loop nest: scans become ``for`` loops over store/index
iterators, variable bindings become plain locals, and expressions are
source inlined where they are evaluated
(:func:`repro.runtime.expressions.expression_source`). Pipeline breakers
(hash-join build, aggregation, sort, distinct-free buffering points) stay in
the same function as materialization points between loop nests. A read
part is one function: its pattern half runs inside a loop over the part's
argument rows, and its boundary operators consume that loop's output once
per part. An update part is two functions, its pattern half and its
boundary, with the writes applied between them.

The generated function's contract:

* per-logical-operator row counts: each operator counts the rows it
  outputs, flushed once per call via the ``_flush`` argument (operators
  that produced nothing get no count); the counts, and so the max
  intermediate cardinality, do not depend on the output chunk size,
* cooperative cancellation (``_check`` is called every
  :data:`CHECK_STRIDE` source-loop iterations),
* Cypher's relationship-uniqueness semantics (paper §7.1, footnote 2);
  output is chunked into morsel-sized lists so results still stream,
* per-query memory accounting: the optional ``_mem`` argument is the
  query's :class:`~repro.resources.pool.MemoryTracker`, and every
  pipeline breaker buffers through the spill-aware structures of
  :mod:`repro.resources.spill` with a flat per-row cost, so spill
  decisions and rows are the same under any budget and chunk size.

Codegen is a produce/consume recursion (Neumann-style): ``produce(plan)``
emits the loops that generate rows and invokes the parent's ``consume``
callback to emit the code handling each row. The *scope* threaded through
consume callbacks tracks how each variable is currently available — as a
local, or as a slot of a materialized row — so rows are only materialized
at breakers and sinks.

Token ids (labels, relationship types, property keys) are resolved when the
part is compiled, with a per-invocation lookup for ids unknown at compile
time (primary label of a label scan, incomplete expand type sets,
residual label and type filters of the path-index operators,
expressions): a token created later, by an earlier part of the same
query or by a write after compilation, must match. The
artifact is kept on the plan, so it is dropped whenever statistics drift
invalidates the plan itself.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

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
from repro.runtime.expressions import expression_source
from repro.runtime.compiled.helpers import (
    _aggregate_calls,
    _feed_group,
    _filtered_scan_constraints,
    _hashable,
    _label_ids,
    _leading_prefix,
    _new_group,
    _node_id_seeker,
    _skip_target,
    _sort_key,
)
from repro.runtime.slots import SlotLayout, _merge_rows, _resolve_type_ids

if TYPE_CHECKING:
    from repro.querygraph import UpdateAction
    from repro.runtime.executor import RuntimeContext

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
    scopes where any variable not in ``bound`` is NULL (a projection
    drops non-projected bindings).
    """

    base: Optional[str]
    bound: dict[str, str] = field(default_factory=dict)
    rels: str = "()"
    closed: bool = False

    def binding(self, **names: str) -> "_Scope":
        merged = dict(self.bound)
        merged.update(names)
        return replace(self, bound=merged)


# ---------------------------------------------------------------------------
# The per-part compiler
# ---------------------------------------------------------------------------


class PartCompiler:
    """Emits one pipeline function of a query part.

    The function consumes the part's input rows, ``_args``, at ``seam``:
    with ``stream`` False the seam is the pattern half's root, which runs
    once per argument row (Apply) inside a loop over ``_args``; with
    ``stream`` True the rows of ``_args`` are the seam's output itself (an
    update part's written rows, entering its boundary).

    ``arguments`` names the variables an argument row may bind (the part's
    ``query_graph.arguments``); ``argument_rels`` says whether its
    uniqueness scope, ``_R0``, may hold relationship ids. Code reading the
    argument row emits only the checks these allow to fail.
    """

    def __init__(
        self,
        plan: LogicalPlan,
        ctx: RuntimeContext,
        layout: SlotLayout,
        seam: LogicalPlan,
        stream: bool = False,
        *,
        arguments: frozenset[str],
        argument_rels: bool,
    ) -> None:
        self.ctx = ctx
        self.layout = layout
        self.seam = seam
        self.stream = stream
        self.arguments = arguments
        self.argument_rels = argument_rels
        self.lines: list[str] = []
        self.indent = 2  # inside `def` + `try`
        self.env: dict[str, object] = {"_W": layout.width}
        self._names = itertools.count()
        self.plans: list[LogicalPlan] = []
        # The entry local behind each tuple of locals an index entry was
        # unpacked into (see :func:`_unpack_entry`).
        self.entries: dict[tuple[str, ...], str] = {}
        self._plan_index: dict[int, int] = {}
        for node in _walk(plan, seam if stream else None):
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

    def value_code(self, value) -> str:
        """Code for a plan field that is a constant or a parameter slot."""
        if isinstance(value, ast.Parameter):
            return f"_params[{value.index}]"
        return repr(value)

    def expr_code(self, expression: ast.Expression, scope: _Scope) -> str:
        """Code evaluating ``expression`` in ``scope`` (NULL-safe)."""
        return expression_source(
            expression,
            partial(self.ref, scope),
            self.ctx.store,
            self.ctx.variable_kinds,
            self.env,
        )

    def pred_code(self, expression: ast.Expression, scope: _Scope) -> str:
        """Code for a predicate test (only an exact True passes)."""
        return f"{self.expr_code(expression, scope)} is True"

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
        if plan is not self.seam:
            producer(self, plan, consume)
            return
        self.emit("for _arg in _args:")
        with self.block():
            if self.stream:
                consume(self.row_scope("_arg"))
            else:
                self.emit("_R0 = _arg[_W]")
                producer(self, plan, consume)


def _walk(plan: LogicalPlan, stop: Optional[LogicalPlan]) -> Iterable[LogicalPlan]:
    if plan is stop:
        return
    yield plan
    for child in plan.children:
        yield from _walk(child, stop)


# ---------------------------------------------------------------------------
# Leaf producers
# ---------------------------------------------------------------------------


def _p_argument(comp: PartCompiler, plan: PlanArgument, consume) -> None:
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
    never match, a bare ``continue`` was emitted, and
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
    node_id = comp.value_code(plan.node_id)
    # A one-iteration loop so downstream `continue` has a loop to target.
    comp.emit("for _ in (0,):")
    with comp.block():
        comp.emit(f"if not {found}({comp.ref(scope, plan.node)}, {node_id}):")
        with comp.block():
            comp.emit("continue")
        comp.count_and_check(plan)
        consume(scope.binding(**{plan.node: node_id}))


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
                    # An unknown label can never match.
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
        static = _resolve_type_ids(ctx.store, plan.types)
        if len(static) == len(plan.types):
            if len(static) == 1:
                single_type = repr(next(iter(static)))
            else:
                type_set = comp.add_env("types", frozenset(static))
        else:
            # Some types unknown at compile time: re-resolve per
            # invocation.
            resolver = comp.add_env(
                "rtypes",
                lambda store=ctx.store, names=plan.types: _resolve_type_ids(
                    store, names
                ),
            )
            resolved = comp.fresh("tr")
            single = comp.fresh("st")
            filt = comp.fresh("ts")
            comp.emit(f"{resolved} = {resolver}()")
            # Guard the whole subtree: no matching types, no child work.
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
        if not rels.isidentifier() and rels != "()":
            # Read up to three times per relationship: compute it once.
            rels = comp.fresh("rl")
            comp.emit(f"{rels} = {scope.rels}")
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


def _tuple_code(items: Sequence[str]) -> str:
    """Code for a tuple of the expressions ``items``."""
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _key_tuple(comp: PartCompiler, scope: _Scope, names) -> str:
    return _tuple_code([comp.ref(scope, name) for name in names])


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
#
# An index entry *is* the binding of the pattern's variables: generated code
# unpacks it into locals and hands consumers a scope over them, so no slot
# row is built unless a downstream operator materializes one. Binding checks
# are emitted only where the plan lets them fail:
#
# * pre-bound: only for entry variables the input row may bind;
# * equality: only at a repeated variable's later positions;
# * uniqueness against the input row's scope: only when it may hold ids.
#
# Uniqueness within the entry needs no check: an occurrence never repeats a
# relationship, so no entry Algorithms 1 and 2 store does either (pinned by
# ``tests/test_maintenance.py``).


def _argument_scope(comp: PartCompiler, plan) -> _Scope:
    """The initial scope with each entry variable an argument row may bind
    read into a local once per argument row, and ``()`` for a uniqueness
    scope known to be empty."""
    scope = comp.initial_scope
    if not comp.argument_rels:
        scope = replace(scope, rels="()")
    hoisted: dict[str, str] = {}
    for var in dict.fromkeys(plan.entry_vars):
        if var in comp.arguments:
            local = comp.fresh("b")
            comp.emit(f"{local} = {comp.ref(scope, var)}")
            hoisted[var] = local
    return scope.binding(**hoisted)


def _emit_leading_prefix(
    comp: PartCompiler, plan, constants, scope: _Scope
) -> tuple[str, Optional[list[str]]]:
    """The run's key prefix (see ``_leading_prefix``): ``(code, items)``.

    The prefix cannot extend past a position with neither an ``id(v) = k``
    constant nor an argument variable, and constants are non-negative ints
    in every execution; so without argument variables in the run the
    prefix is known here and ``items`` lists its elements' code. Otherwise
    ``items`` is None and ``code`` names a local computed per argument row.
    """
    run = []
    for var, constant in zip(plan.entry_vars, constants):
        if constant is None and var not in comp.arguments:
            break
        run.append((var, constant))
    if all(constant is not None for _, constant in run):
        items = [comp.value_code(constant) for _, constant in run]
        return _tuple_code(items), items
    prefix_of = comp.add_env("pfx", _leading_prefix)
    fixed = _tuple_code(
        ["None" if value is None else comp.value_code(value) for _, value in run]
    )
    bound = _tuple_code([comp.ref(scope, var) for var, _ in run])
    prefix = comp.fresh("pf")
    comp.emit(f"{prefix} = {prefix_of}({fixed}, {bound})")
    return prefix, None


def _entry_filters(comp: PartCompiler, plan) -> list[tuple[str, str]]:
    """Emit the token lookups of ``plan``'s residual label and type filters
    and return ``(variable, test)`` pairs: ``test`` formats with the
    variable's value into code that is true when the entry fails.

    A token unknown at compile time is looked up per argument row: a
    label or type created after compilation must match.
    """
    store = comp.ctx.store
    tests: list[tuple[str, str]] = []
    for var, label in plan.label_filters:
        has_label = comp.add_env("hasl", store.has_label)
        label_id = store.labels.id_of(label)
        if label_id is not None:
            tests.append((var, f"not {has_label}({{}}, {label_id})"))
            continue
        lookup = comp.add_env(
            "rlbl", lambda store=store, label=label: store.labels.id_of(label)
        )
        local = comp.fresh("lid")
        comp.emit(f"{local} = {lookup}()")
        tests.append((var, f"{local} is None or not {has_label}({{}}, {local})"))
    for var, names in plan.type_filters:
        relationship = comp.add_env("rel", store.relationship)
        static = _resolve_type_ids(store, names)
        if len(static) < len(names):
            resolver = comp.add_env(
                "rtypes",
                lambda store=store, names=names: _resolve_type_ids(store, names),
            )
            allowed = comp.fresh("tys")
            comp.emit(f"{allowed} = {resolver}()")
        elif len(static) == 1:
            type_id = next(iter(static))
            tests.append((var, f"{relationship}({{}}).type_id != {type_id}"))
            continue
        else:
            allowed = comp.add_env("types", frozenset(static))
        tests.append((var, f"{relationship}({{}}).type_id not in {allowed}"))
    return tests


def _unpack_entry(comp: PartCompiler, entry: str, width: int) -> list[str]:
    """Emit ``_v0, _v1, ... = entry``; returns the locals. A sink whose
    column tuple is these locals in order appends ``entry`` itself."""
    values = [comp.fresh("v") for _ in range(width)]
    comp.emit(f"{', '.join(values)}{',' if width == 1 else ''} = {entry}")
    comp.entries[tuple(values)] = entry
    return values


def _emit_reject(comp: PartCompiler, tests: list[str]) -> None:
    """``continue`` when any of ``tests`` holds."""
    if tests:
        joined = " or ".join(
            f"({test})" if " and " in test or " or " in test else test
            for test in tests
        )
        comp.emit(f"if {joined}:")
        with comp.block():
            comp.emit("continue")


def _bind_entry(
    comp: PartCompiler,
    plan,
    values: list[str],
    scope: _Scope,
    may_bind: frozenset[str],
    filters: Iterable[tuple[str, str]] = (),
    skip: int = 0,
) -> _Scope:
    """Emit the checks binding the unpacked entry ``values`` over ``scope``
    and return the scope consumers see.

    ``may_bind`` names the variables ``scope`` may already bind (its
    uniqueness tuple is ``()`` when known empty), ``filters`` come from
    :func:`_entry_filters`, and the first ``skip`` positions are proven
    equal to ``scope``'s bindings.
    """
    rels = None if scope.rels == "()" else scope.rels
    tests: list[str] = []
    first: dict[str, int] = {}
    # Relationship ids the entry adds to the uniqueness scope: (value, local
    # of its pre-bound value or None when it cannot be bound).
    added: list[tuple[str, Optional[str]]] = []
    for position, var in enumerate(plan.entry_vars):
        value = values[position]
        earlier = first.setdefault(var, position)
        if position < skip:
            continue
        pre = None
        if earlier != position:
            tests.append(f"{value} != {values[earlier]}")
        elif var in may_bind:
            pre = comp.ref(scope, var)
            tests.append(f"{pre} is not None and {pre} != {value}")
        if position % 2 == 0:
            continue
        # A relationship bound before the entry re-binds its own id: the id
        # is not new, so the uniqueness check skips it and it is not added.
        if earlier == position:
            if rels is not None:
                tests.append(
                    f"{value} in {rels}"
                    if pre is None
                    else f"{value} in {rels} and {pre} is None"
                )
            added.append((value, pre))
    # Residual filters name entry variables (``IndexMatch``).
    tests.extend(test.format(values[first[var]]) for var, test in filters)
    _emit_reject(comp, tests)

    pieces = [] if rels is None else [rels]
    fixed: list[str] = []
    for value, pre in added:
        if pre is None:
            fixed.append(value)
            continue
        if fixed:
            pieces.append(_tuple_code(fixed))
            fixed = []
        pieces.append(f"(({value},) if {pre} is None else ())")
    if fixed:
        pieces.append(_tuple_code(fixed))
    return replace(
        scope.binding(**{var: values[position] for var, position in first.items()}),
        rels=" + ".join(pieces) or "()",
    )


def _p_path_index_scan(comp: PartCompiler, plan: PlanPathIndexScan, consume) -> None:
    index = comp.ctx.index_store.get(plan.index_name)
    scan = comp.add_env("iscan", index.scan)
    scan_prefix = comp.add_env("ipfx", index.scan_prefix)
    scope = _argument_scope(comp, plan)
    prefix, items = _emit_leading_prefix(
        comp, plan, (None,) * len(plan.entry_vars), scope
    )
    if items is None:
        source = f"{scan_prefix}({prefix}) if {prefix} else {scan}()"
    else:
        source = f"{scan_prefix}({prefix})" if items else f"{scan}()"
    entry = comp.fresh("en")
    comp.emit(f"for {entry} in {source}:")
    with comp.block():
        comp.tick()
        values = _unpack_entry(comp, entry, len(plan.entry_vars))
        bound = _bind_entry(comp, plan, values, scope, comp.arguments)
        comp.count_and_check(plan)
        consume(bound)


def _p_path_index_filtered_scan(
    comp: PartCompiler, plan: PlanPathIndexFilteredScan, consume
) -> None:
    index = comp.ctx.index_store.get(plan.index_name)
    seeker = comp.add_env("isk", index.seeker)
    width = len(plan.entry_vars)
    constraints = _filtered_scan_constraints(plan)
    scope = _argument_scope(comp, plan)
    filters = _entry_filters(comp, plan)
    prefix, items = _emit_leading_prefix(comp, plan, constraints.constants, scope)
    seek, lower, again = comp.fresh("sk"), comp.fresh("lo"), comp.fresh("go")
    entry = comp.fresh("en")
    comp.emit(f"{seek} = {seeker}({prefix})")
    if items is None:
        comp.emit(f"{lower} = {prefix} + (0,) * ({width} - len({prefix}))")
    else:
        comp.emit(f"{lower} = {_tuple_code(items + ['0'] * (width - len(items)))}")
    comp.emit(f"{again} = True")
    comp.emit(f"while {again}:")
    with comp.block():
        comp.emit(f"{again} = False")
        comp.emit(f"for {entry} in {seek}({lower}):")
        with comp.block():
            comp.tick()
            values = _unpack_entry(comp, entry, width)
            _emit_reject(
                comp,
                [
                    f"{values[position]} != {comp.value_code(value)}"
                    for position, value in constraints.checks
                ],
            )
            violations = [
                f"{values[i]} == {values[j]}" for i, j in constraints.must_differ
            ] + [f"{values[i]} != {values[j]}" for i, j in constraints.must_equal]
            if violations:
                # Restart past the violating subtree (§5.1.2).
                skip = comp.add_env(
                    "skip",
                    partial(
                        _skip_target,
                        differ=constraints.must_differ,
                        equal=constraints.must_equal,
                        width=width,
                    ),
                )
                comp.emit(f"if {' or '.join(violations)}:")
                with comp.block():
                    comp.emit(f"{lower} = {skip}({entry})")
                    comp.emit(f"{again} = True")
                    comp.emit("break")
            bound = _bind_entry(
                comp,
                plan,
                values,
                scope,
                comp.arguments,
                filters,
            )
            for predicate in constraints.residual:
                comp.emit(f"if not ({comp.pred_code(predicate, bound)}):")
                with comp.block():
                    comp.emit("continue")
            comp.count_and_check(plan)
            consume(bound)


def _p_path_index_prefix_seek(
    comp: PartCompiler, plan: PlanPathIndexPrefixSeek, consume
) -> None:
    ctx = comp.ctx
    index = ctx.index_store.get(plan.index_name)
    scan_prefix = comp.add_env("ipfx", index.scan_prefix)
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

    child = plan.children[0]
    comp.produce(child, collect)
    filters = _entry_filters(comp, plan)
    # A child row's uniqueness scope holds the ids its relationships bound.
    child_rels = comp.argument_rels or bool(child.solved_rels)
    prefix, rows = comp.fresh("pk"), comp.fresh("rs")
    entry, parent = comp.fresh("en"), comp.fresh("pr")
    comp.emit(f"for {prefix}, {rows} in {groups}.items():")
    with comp.block():
        comp.emit(f"for {entry} in {scan_prefix}({prefix}):")
        with comp.block():
            values = _unpack_entry(comp, entry, len(plan.entry_vars))
            comp.emit(f"for {parent} in {rows}:")
            with comp.block():
                comp.tick()
                bound = _bind_entry(
                    comp,
                    plan,
                    values,
                    comp.row_scope(parent) if child_rels else _Scope(base=parent),
                    child.available,
                    filters,
                    skip=plan.prefix_length,
                )
                comp.count_and_check(plan)
                consume(bound)


# ---------------------------------------------------------------------------
# Projection-boundary producers
# ---------------------------------------------------------------------------


def _p_projection(comp: PartCompiler, plan: PlanProjection, consume) -> None:
    def consume_child(scope: _Scope) -> None:
        bound: dict[str, str] = {}
        for item in plan.items:
            code = comp.expr_code(item.expression, scope)
            if code.isidentifier():
                # A local already: consumers read it in this iteration.
                bound[item.output_name] = code
                continue
            local = comp.fresh("pj")
            comp.emit(f"{local} = {code}")
            bound[item.output_name] = local
        comp.count_and_check(plan)
        # The uniqueness scope resets and non-projected bindings drop at
        # the boundary.
        consume(_Scope(base=None, bound=bound, rels="()", closed=True))

    comp.produce(plan.children[0], consume_child)


def _p_aggregation(comp: PartCompiler, plan: PlanAggregation, consume) -> None:
    grouping_names = [item.output_name for item in plan.grouping_items]
    # Flat accumulator order: item by item, call by call.
    flat_calls = [
        call for item in plan.aggregate_items for call in _aggregate_calls(item.expression)
    ]
    new_group = partial(_new_group, flat_calls)
    # Spilled items must carry everything the fold needs, because the
    # generated code cannot re-evaluate expressions against a spilled
    # row: each item is (key_values, fed_values), both plain tuples.
    make_buffer = comp.add_env(
        "mkagg",
        lambda mem, plan=plan, new_group=new_group: AggregationSpillBuffer(
            mem, plan, new_group, _feed_group
        ),
    )
    hashable = comp.add_env("hash", _hashable)
    buffer = comp.fresh("gr")
    comp.emit(f"{buffer} = {make_buffer}(_mem)")

    def consume_child(scope: _Scope) -> None:
        key_locals = []
        for item in plan.grouping_items:
            local = comp.fresh("gv")
            comp.emit(f"{local} = {comp.expr_code(item.expression, scope)}")
            key_locals.append(local)
        hashed = _tuple_code([f"{hashable}({local})" for local in key_locals])
        fed = _tuple_code(
            [
                "None" if call.star else comp.expr_code(call.argument, scope)
                for call in flat_calls
            ]
        )
        comp.emit(f"{buffer}.add({hashed}, ({_tuple_code(key_locals)}, {fed}))")

    comp.produce(plan.children[0], consume_child)
    states = comp.fresh("gl")
    if grouping_names:
        comp.emit(f"{states} = {buffer}.states()")
    else:
        # Global aggregation over zero rows still yields one row.
        comp.emit(f"if {buffer}.is_empty:")
        with comp.block():
            comp.emit(f"{states} = ({comp.add_env('newgrp', new_group)}(((), ())),)")
        comp.emit("else:")
        with comp.block():
            comp.emit(f"{states} = {buffer}.states()")
    keys, accumulators = comp.fresh("gk"), comp.fresh("ga")
    comp.emit(f"for {keys}, {accumulators} in {states}:")
    with comp.block():
        comp.tick()
        # Each item reads the grouping outputs, the calls' results and the
        # items before it; any other name is NULL past the boundary.
        known: dict[object, str] = {
            name: f"{keys}[{position}]" for position, name in enumerate(grouping_names)
        }
        for position, call in enumerate(flat_calls):
            result = comp.fresh("ag")
            comp.emit(f"{result} = {accumulators}[{position}].result()")
            known[call] = result  # equal calls have equal results
        for item in plan.aggregate_items:
            code = comp.expr_code(
                item.expression, _Scope(base=None, bound=known, closed=True)
            )
            if not code.isidentifier():
                local = comp.fresh("av")
                comp.emit(f"{local} = {code}")
                code = local
            known[item.output_name] = code
        comp.count_and_check(plan)
        outputs = grouping_names + [item.output_name for item in plan.aggregate_items]
        bound = {name: known[name] for name in outputs}
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
    # One stable sort on the composed key equals the historical chain of
    # per-level stable sorts (descending levels invert via Desc); it also
    # orders the external-sort run files. The key function is defined per
    # execution, so it reads that execution's parameters.
    sort_key = comp.add_env("skey", _sort_key)
    desc = comp.add_env("desc", Desc)
    key, keyed = comp.fresh("key"), comp.fresh("sr")
    levels = []
    for expression, ascending in plan.order_by:
        level = f"{sort_key}({comp.expr_code(expression, _Scope(base=keyed))})"
        levels.append(level if ascending else f"{desc}({level})")
    comp.emit(f"def {key}({keyed}):")
    with comp.block():
        comp.emit(f"return {_tuple_code(levels)}")
    make_buffer = comp.add_env(
        "mksort", lambda mem, key, plan=plan: SortSpillBuffer(mem, plan, key)
    )
    buffer = comp.fresh("bf")
    append = comp.fresh("ba")
    comp.emit(f"{buffer} = {make_buffer}(_mem, {key})")
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
    # A slot (always non-negative) is present whatever its value.
    skips = bool(plan.skip)
    limits = isinstance(plan.limit, ast.Parameter) or plan.limit >= 0
    if skips:
        comp.emit(f"{skipped} = 0")
    if limits:
        comp.emit(f"{produced} = 0")

    def consume_child(scope: _Scope) -> None:
        if skips:
            comp.emit(f"if {skipped} < {comp.value_code(plan.skip)}:")
            with comp.block():
                comp.emit(f"{skipped} += 1")
                comp.emit("continue")
        if limits:
            # Limit is always the part root, so returning ends the part;
            # pending output flushes first, counters flush in `finally`.
            comp.emit(f"if {produced} >= {comp.value_code(plan.limit)}:")
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
    plan: LogicalPlan,
    ctx: RuntimeContext,
    layout: SlotLayout,
    seam: LogicalPlan,
    stream: bool = False,
    columns: Optional[list[str]] = None,
    *,
    arguments: frozenset[str],
    argument_rels: bool,
    updates: Sequence[UpdateAction] = (),
) -> tuple[str, dict[str, object], list[LogicalPlan]]:
    """Generate the source of one pipeline function (see
    :class:`PartCompiler` for ``seam``, ``stream``, ``arguments`` and
    ``argument_rels``).

    Returns ``(source, env, plans)``. The function yields morsels of full
    slot rows, or, given the final part's ``columns``, of tuples holding
    those columns in order; the source then also defines
    ``_dicts(tuples)``, the list of those tuples as dicts keyed by the
    columns. For each of ``updates`` (an update part's actions) with a
    property map the source also defines ``_create{i}(row, params)``,
    returning the map's values.
    """
    comp = PartCompiler(
        plan,
        ctx,
        layout,
        seam,
        stream,
        arguments=arguments,
        argument_rels=argument_rels,
    )

    def sink(scope: _Scope) -> None:
        if columns is None:
            comp.emit(f"_append({comp.materialize(scope)})")
        else:
            values = tuple(comp.ref(scope, name) for name in columns)
            # An index entry that already is the column tuple goes out as
            # it is (``RETURN *`` over a path-index scan).
            entry = comp.entries.get(values) or _tuple_code(values)
            comp.emit(f"_append({entry})")
        comp.emit("if len(_out) >= _M:")
        with comp.block():
            comp.emit("yield _out")
            comp.emit("_out = []")
            comp.emit("_append = _out.append")

    comp.produce(plan, sink)
    # A CREATE map's values, per action in key order: ``_create{i}`` reads
    # the written row as the earlier actions left it.
    creates = []
    for position, action in enumerate(updates):
        if action.properties:
            values = [
                comp.expr_code(value, _Scope(base="_r"))
                for value in action.properties.values()
            ]
            creates += [
                f"def _create{position}(_r, _params):",
                f"    return {_tuple_code(values)}",
            ]

    # The final part's rows as dicts: one constant-key display per tuple.
    dicts = [] if columns is None else _dicts_source(columns)

    counters = [f"_ct{i}" for i in range(len(comp.plans))]
    comp.env["_M"] = ctx.morsel_size
    comp.env["_NT"] = NULL_TRACKER
    # Environment values are bound as default arguments so the generated
    # loops read locals, not globals. ``_mem`` is the per-query
    # MemoryTracker (None when the caller does not account memory) and
    # ``_params`` the execution's parameter tuple: the source names slots,
    # never their values, so one artifact serves every text of a shape.
    env_params = "".join(f", {name}={name}" for name in sorted(comp.env))
    header = [
        f"def _pipeline(_args, _flush, _check, _mem=None, _params=(){env_params}):",
        "    if _mem is None:",
        "        _mem = _NT",
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
        f"        _flush({_tuple_code(counters)})",
    ]
    source = "\n".join(header + comp.lines + footer + creates + dicts) + "\n"
    return source, comp.env, comp.plans


def _dicts_source(columns: Sequence[str]) -> list[str]:
    """``def _dicts(_rows)``: the column tuples ``_rows`` as a list of
    dicts, each built by a display keyed by ``columns`` in order."""
    values = [f"_c{position}" for position in range(len(columns))]
    keys = ", ".join(f"{name!r}: {value}" for name, value in zip(columns, values))
    targets = ", ".join(values) + ("," if len(values) == 1 else "") or "_"
    return [
        "def _dicts(_rows):",
        f"    return [{{{keys}}} for {targets} in _rows]",
    ]
