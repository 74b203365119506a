"""Query execution across parts, including update application.

Parts execute in order; each incoming row is fed through the next part's
pipeline as its argument row (Apply semantics across WITH boundaries). For
parts carrying CREATE/DELETE actions the pattern portion runs first, the
updates are applied per matched row inside the active transaction, and the
projection boundary is evaluated afterwards — matching Cypher's clause
ordering.

Two engines run the parts: the row engine (``mode="row"``,
:mod:`repro.runtime.operators`) and generated code (``mode="compiled"``,
:mod:`repro.runtime.compiled`). In compiled mode a plan's first execution
runs on the row engine, its second compiles the codegen artifact, and
later executions reuse it: generating code for a text that never repeats
costs more than the row engine spends running it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.cypher import ast
from repro.cypher.semantics import VariableKind
from repro.errors import ReproError, TransactionError
from repro.pathindex.store import PathIndexStore
from repro.planner.plans import LogicalPlan
from repro.querygraph import QueryPart, UpdateAction
from repro.resources import ROW_BYTES, AppendSpillBuffer
from repro.runtime.compiled import CompiledPart, CompiledQuery, compile_query
from repro.runtime.expressions import EvaluationContext, evaluate
from repro.runtime.operators import (
    OperatorProfile,
    RuntimeContext,
    _sort_key,
    compile_plan,
)
from repro.runtime.row import Row
from repro.storage.graphstore import GraphStore
from repro.tx.transaction import Transaction

ARTIFACT = "_compiled_query"
"""Key of a planned query's codegen artifact in the ``__dict__`` of its
part-0 plan node, the one place the artifact is kept. Plans are immutable
and live exactly as long as the cache entry holding them, so eviction,
index DDL and statistics drift drop the artifact with the plan, and every
holder of the planned parts reaches it. A key present with value None
marks a plan executed once and not compiled yet."""


def _no_check() -> None:
    """Cancellation no-op for tokenless compiled executions."""


def _accounted(rows: Iterator[Row], tracker, profile) -> Iterator[Row]:
    """Merge the tracker's per-operator peaks into the profile when the
    (possibly lazily consumed) row iterator finishes or is abandoned."""
    try:
        yield from rows
    finally:
        tracker.merge_into_profile(profile.operators)


class ExecutionProfile:
    """Execution statistics: per-operator row counts, memory, and plans."""

    def __init__(self, plans: Sequence[LogicalPlan], engine: str) -> None:
        self.plans = list(plans)
        self.operators = OperatorProfile()
        #: The engine that ran the query: "row", or "compiled" when a
        #: codegen artifact did.
        self.engine = engine

    @property
    def max_intermediate_cardinality(self) -> int:
        """The evaluation's plan-quality metric (§7.1.1)."""
        return self.operators.max_intermediate_cardinality()

    @property
    def peak_memory_bytes(self) -> int:
        """Largest single-operator buffered-bytes peak of the execution."""
        return max(self.operators.peak_bytes.values(), default=0)

    @property
    def spill_runs(self) -> int:
        """Total spill runs written by this execution's operators."""
        return self.operators.total_spill_runs()

    def rows_by_operator(self) -> list[tuple[str, int]]:
        return self.operators.by_operator()

    def bytes_by_operator(self) -> list[tuple[str, int, int]]:
        """``(operator, peak_bytes, spill_runs)`` for every charged buffer."""
        return self.operators.bytes_by_operator()


class Executor:
    """Runs planned query parts against the store."""

    def __init__(
        self,
        store: GraphStore,
        index_store: Optional[PathIndexStore],
        variable_kinds: dict[str, VariableKind],
    ) -> None:
        self.store = store
        self.index_store = index_store
        self.variable_kinds = variable_kinds
        self.eval_ctx = EvaluationContext(store, variable_kinds)

    def compile(
        self, planned_parts: Sequence[tuple[QueryPart, LogicalPlan]]
    ) -> CompiledQuery:
        """Compile ``planned_parts`` now, unless already compiled; returns
        the artifact kept on the plan (see :data:`ARTIFACT`).

        The artifact binds the store, indexes and expression closures at
        compile time but takes profile/cancellation hooks per execution,
        so one artifact serves every later execution of the plan.
        """
        holder = planned_parts[0][1].__dict__
        artifact = holder.get(ARTIFACT)
        if artifact is None:
            ctx = RuntimeContext(
                self.store, self.index_store, self.eval_ctx, OperatorProfile()
            )
            artifact = holder[ARTIFACT] = compile_query(planned_parts, ctx)
        return artifact

    def _tiered(
        self, planned_parts: Sequence[tuple[QueryPart, LogicalPlan]]
    ) -> Optional[CompiledQuery]:
        """Compiled mode's artifact for this execution: None (run on the
        row engine) the first time a plan executes, compiled the second
        time, reused after that."""
        holder = planned_parts[0][1].__dict__
        if ARTIFACT not in holder:
            holder.setdefault(ARTIFACT, None)  # a racing compile wins
            return None
        return self.compile(planned_parts)

    def execute(
        self,
        planned_parts: Sequence[tuple[QueryPart, LogicalPlan]],
        transaction: Optional[Transaction] = None,
        initial_row: Optional[Row] = None,
        token: Optional[object] = None,
        mode: str = "row",
        morsel_size: Optional[int] = None,
        tracker=None,
    ) -> tuple[Iterator[Row], ExecutionProfile]:
        """Build the row iterator for the whole query; lazy for reads.

        ``token`` is an optional cooperative cancellation token (see
        ``repro.service.cancellation``) checked at row boundaries (row
        engine) or every ~``CHECK_STRIDE`` source-loop iterations
        (generated code). ``mode`` selects the engine; in compiled mode a
        plan's first execution runs on the row engine (see
        :meth:`_tiered`) and :attr:`ExecutionProfile.engine` says which
        ran. ``morsel_size`` overrides the generated code's output chunk
        size (tests); an artifact built for another size is recompiled
        for this execution only. ``tracker`` is the query's
        :class:`~repro.resources.MemoryTracker`; blocking operators charge
        it (and spill through it), and its per-operator peaks merge into
        the profile when the iterator finishes.
        """
        if mode not in ("row", "compiled"):
            raise ReproError(f"unknown execution mode {mode!r}")
        artifact = self._tiered(planned_parts) if mode == "compiled" else None
        profile = ExecutionProfile(
            [plan for _, plan in planned_parts],
            "row" if artifact is None else "compiled",
        )
        ctx = RuntimeContext(
            self.store,
            self.index_store,
            self.eval_ctx,
            profile.operators,
            token=token,
            tracker=tracker,
        )
        if morsel_size is not None:
            ctx.morsel_size = morsel_size
        rows: Iterator[Row] = iter([initial_row or Row.empty()])
        if artifact is None:
            for part, plan in planned_parts:
                rows = self._run_part(rows, part, plan, ctx, transaction)
        else:
            if artifact.morsel_size != ctx.morsel_size:
                artifact = compile_query(planned_parts, ctx)
            for (part, plan), cpart in zip(planned_parts, artifact.parts):
                rows = self._run_part_compiled(
                    rows, part, plan, ctx, transaction, cpart
                )
        if tracker is not None:
            rows = _accounted(rows, tracker, profile)
        return rows, profile

    # ------------------------------------------------------------------

    def _run_part(
        self,
        input_rows: Iterator[Row],
        part: QueryPart,
        plan: LogicalPlan,
        ctx: RuntimeContext,
        transaction: Optional[Transaction],
    ) -> Iterator[Row]:
        pipeline = compile_plan(plan, ctx)
        if not part.updates:
            def run_read() -> Iterator[Row]:
                for arg_row in input_rows:
                    yield from pipeline(arg_row)

            return run_read()
        if transaction is None:
            raise TransactionError("update query requires an open transaction")
        return self._run_update_part(input_rows, part, pipeline, transaction, ctx)

    def _run_part_compiled(
        self,
        input_rows: Iterator[Row],
        part: QueryPart,
        plan: LogicalPlan,
        ctx: RuntimeContext,
        transaction: Optional[Transaction],
        cpart: CompiledPart,
    ) -> Iterator[Row]:
        """Codegen counterpart of :meth:`_run_part`.

        Argument rows convert to slot rows on entry (Apply semantics are
        preserved — the pipeline runs once per argument row) and back to
        :class:`Row` at the part boundary unless the generated code builds
        the projection's rows itself. The generated function receives its
        per-execution dependencies — the profile flush and the
        cancellation check — as arguments; everything compile-time
        (store, index, expression closures, tokens) is baked in.
        """
        fn = cpart.fn
        layout = cpart.layout
        plans = cpart.plans
        record = ctx.profile.record

        def flush(counts: tuple) -> None:
            for node, count in zip(plans, counts):
                if count:
                    record(node, count)

        token = ctx.token
        if token is None:
            check = _no_check
        else:
            check = getattr(token, "check_batch", None) or token.check

        def slot_arg(arg_row: Row) -> list:
            # The layout is shared across executions of the cached
            # artifact; runtime slot allocation for unforeseen argument
            # names must not race.
            with cpart.lock:
                return layout.row_from(arg_row)

        tracker = ctx.tracker

        if not part.updates:
            if cpart.row_sink:

                def run_read() -> Iterator[Row]:
                    for arg_row in input_rows:
                        for morsel in fn(slot_arg(arg_row), flush, check, tracker):
                            yield from morsel

            else:

                def run_read() -> Iterator[Row]:
                    for arg_row in input_rows:
                        for morsel in fn(slot_arg(arg_row), flush, check, tracker):
                            for slot_row in morsel:
                                yield layout.row_to(slot_row)

            return run_read()
        if transaction is None:
            raise TransactionError("update query requires an open transaction")

        def row_pipeline(arg_row: Row) -> Iterator[Row]:
            for morsel in fn(slot_arg(arg_row), flush, check, tracker):
                for slot_row in morsel:
                    yield layout.row_to(slot_row)

        return self._run_update_part(
            input_rows, part, row_pipeline, transaction, ctx
        )

    def _run_update_part(
        self,
        input_rows: Iterator[Row],
        part: QueryPart,
        pipeline,
        transaction: Transaction,
        ctx: RuntimeContext,
    ) -> Iterator[Row]:
        # Updates are eager: all matches are computed, all writes applied,
        # then the boundary projection is evaluated. The matched-row buffer
        # spills (order-preserving append buffer); the post-update rows are
        # charged non-spillably, so an oversized write fails with
        # MemoryLimitExceeded and rolls back.
        mem = ctx.mem()
        matched = AppendSpillBuffer(mem, "update: matched rows")
        for arg_row in input_rows:
            for row in pipeline(arg_row):
                matched.add(row)
        deleted_rels: set[int] = set()
        deleted_nodes: set[int] = set()
        updated_rows: list[Row] = []
        for row in matched:
            mem.charge("update: written rows", ROW_BYTES)
            updated_rows.append(
                self._apply_updates(
                    row, part.updates, transaction, deleted_rels, deleted_nodes
                )
            )
        if part.order_by:
            # Sort before projecting so ORDER BY sees pattern variables;
            # aliases resolve to their source expressions.
            alias_map = {
                item.output_name: item.expression for item in part.projection
            }
            for expression, ascending in reversed(part.order_by):
                if (
                    isinstance(expression, ast.Variable)
                    and expression.name in alias_map
                ):
                    expression = alias_map[expression.name]
                updated_rows.sort(
                    key=lambda row, expr=expression: _sort_key(
                        evaluate(expr, row, self.eval_ctx)
                    ),
                    reverse=not ascending,
                )
        output = []
        for row in updated_rows:
            if part.projection:
                output.append(
                    row.project(
                        {
                            item.output_name: evaluate(
                                item.expression, row, self.eval_ctx
                            )
                            for item in part.projection
                        }
                    )
                )
            else:
                output.append(row)
        if part.distinct and part.projection:
            seen = set()
            unique = []
            columns = [item.output_name for item in part.projection]
            for row in output:
                key = tuple(row.values.get(column) for column in columns)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            output = unique
        if part.skip:
            output = output[part.skip :]
        if part.limit is not None:
            output = output[: part.limit]
        return iter(output)

    def _apply_updates(
        self,
        row: Row,
        updates: Sequence[UpdateAction],
        transaction: Transaction,
        deleted_rels: set[int],
        deleted_nodes: set[int],
    ) -> Row:
        values = dict(row.values)
        for action in updates:
            if action.kind == "create_node":
                label_ids = [
                    self.store.labels.get_or_create(label) for label in action.labels
                ]
                node_id = transaction.create_node(label_ids)
                for key, value_expr in action.properties.items():
                    key_id = self.store.property_keys.get_or_create(key)
                    transaction.set_node_property(
                        node_id,
                        key_id,
                        evaluate(value_expr, Row(values), self.eval_ctx),
                    )
                values[action.variable] = node_id
            elif action.kind == "create_relationship":
                start = values.get(action.start)
                end = values.get(action.end)
                if start is None or end is None:
                    raise ReproError(
                        f"CREATE relationship endpoints {action.start!r}/"
                        f"{action.end!r} are unbound"
                    )
                type_id = self.store.types.get_or_create(action.type)
                rel_id = transaction.create_relationship(
                    int(start), int(end), type_id
                )
                for key, value_expr in action.properties.items():
                    key_id = self.store.property_keys.get_or_create(key)
                    transaction.set_relationship_property(
                        rel_id,
                        key_id,
                        evaluate(value_expr, Row(values), self.eval_ctx),
                    )
                values[action.variable] = rel_id
            elif action.kind == "delete":
                self._apply_delete(
                    action, values, transaction, deleted_rels, deleted_nodes
                )
            else:  # pragma: no cover - builder produces only the above
                raise ReproError(f"unknown update action {action.kind!r}")
        return Row(values, row.rel_ids)

    def _apply_delete(
        self,
        action: UpdateAction,
        values: dict[str, object],
        transaction: Transaction,
        deleted_rels: set[int],
        deleted_nodes: set[int],
    ) -> None:
        name = action.variable
        entity = values.get(name)
        if entity is None:
            return
        kind = self.variable_kinds.get(name)
        if kind is VariableKind.RELATIONSHIP:
            if entity not in deleted_rels:
                deleted_rels.add(int(entity))
                transaction.delete_relationship(int(entity))
            return
        if kind is not VariableKind.NODE:
            raise ReproError(f"DELETE target {name!r} is not an entity")
        node_id = int(entity)
        if node_id in deleted_nodes:
            return
        if action.detach:
            for rel in list(self.store.relationships_of(node_id)):
                if rel.id not in deleted_rels:
                    deleted_rels.add(rel.id)
                    transaction.delete_relationship(rel.id)
        deleted_nodes.add(node_id)
        transaction.delete_node(node_id)
