"""Query execution across parts, including update application.

Every plan runs as generated code (:mod:`repro.runtime.compiled`),
compiled on its first execution and reused after that. All parts of a
query run on its one slot-row layout (see :mod:`repro.runtime.slots`),
and each part consumes the previous part's row stream as it is. A part's
pattern half runs once per incoming argument row (Apply semantics across
WITH boundaries); its boundary operators run once per part. For parts
carrying CREATE/DELETE actions the pattern half runs to completion first,
the updates are applied to every matched row inside the active
transaction, and the boundary consumes the written rows — matching
Cypher's clause ordering. The final part yields morsels of column tuples;
:meth:`Executor.execute` flattens them into one tuple per row.

Planned parts may hold :class:`~repro.cypher.ast.Parameter` slots; their
values travel with the parts as ``planned_parts.params`` (the plan cache's
per-text entries carry a list with that attribute), so one plan and one
artifact serve every text of a shape: generated code receives them per
call.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.cypher.semantics import VariableKind
from repro.errors import ReproError, TransactionError
from repro.pathindex.store import PathIndexStore
from repro.planner.plans import LogicalPlan
from repro.querygraph import QueryPart, UpdateAction
from repro.resources import NULL_TRACKER, ROW_BYTES, AppendSpillBuffer
from repro.runtime.compiled import CompiledPart, CompiledQuery, compile_query
from repro.runtime.slots import SlotLayout, layout_of
from repro.storage.graphstore import GraphStore
from repro.tx.transaction import Transaction

ARTIFACT = "_compiled_query"
"""Key of a planned query's codegen artifact in the ``__dict__`` of its
part-0 plan node, the one place the artifact is kept (next to its slot
layout, ``repro.runtime.slots.LAYOUT``). Plans are immutable
and live exactly as long as the cache entry holding them, so eviction,
index DDL and statistics drift drop the artifact with the plan, and every
holder of the planned parts reaches it."""


def _no_check() -> None:
    """Cancellation no-op for tokenless executions."""


def _accounted(
    morsels: Iterator[list], tracker, profile, release: bool
) -> Iterator[list]:
    """The final part's morsels; when they stop — drained, closed or
    abandoned — the tracker's per-operator peaks merge into the profile,
    and the tracker is closed when ``release`` hands it over."""
    try:
        yield from morsels
    finally:
        tracker.merge_into_profile(profile.operators)
        if release:
            tracker.close()


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

    ``variable_kinds`` come from semantic analysis (expressions read
    properties by them); ``params`` is the execution's parameter tuple.
    ``morsel_size`` is the output chunk size of generated code.

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
        variable_kinds: dict[str, VariableKind],
        profile: OperatorProfile,
        morsel_size: int = 1024,
        tracker=None,
        params: Sequence[object] = (),
    ) -> None:
        self.store = store
        self.index_store = index_store
        self.variable_kinds = variable_kinds
        self.profile = profile
        self.morsel_size = morsel_size
        self.tracker = tracker
        self.params = params

    def mem(self):
        return self.tracker if self.tracker is not None else NULL_TRACKER


class ExecutionProfile:
    """Execution statistics: per-operator row counts, memory, and plans.

    ``dicts(tuples)`` is the executed artifact's builder of result dicts
    from column tuples (see :class:`~repro.runtime.compiled.CompiledPart`);
    :meth:`Executor.execute` sets it.
    """

    def __init__(self, plans: Sequence[LogicalPlan]) -> None:
        self.plans = list(plans)
        self.operators = OperatorProfile()
        self.dicts: Optional[Callable[[Iterable[tuple]], list[dict]]] = None

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

    def compile(
        self, planned_parts: Sequence[tuple[QueryPart, LogicalPlan]]
    ) -> CompiledQuery:
        """Compile ``planned_parts`` now, unless already compiled; returns
        the artifact kept on the plan (see :data:`ARTIFACT`).

        The artifact binds the store, indexes and token ids at compile
        time but takes profile/cancellation hooks and parameters per
        execution, so one artifact serves every later execution of the
        plan.
        """
        holder = planned_parts[0][1].__dict__
        artifact = holder.get(ARTIFACT)
        if artifact is None:
            ctx = RuntimeContext(
                self.store, self.index_store, self.variable_kinds, OperatorProfile()
            )
            artifact = holder[ARTIFACT] = compile_query(
                planned_parts, ctx, layout_of(planned_parts)
            )
        return artifact

    def execute(
        self,
        planned_parts: Sequence[tuple[QueryPart, LogicalPlan]],
        transaction: Optional[Transaction] = None,
        initial_row: Optional[list] = None,
        token: Optional[object] = None,
        mode: str = "compiled",
        morsel_size: Optional[int] = None,
        tracker=None,
        release: bool = False,
    ) -> tuple[Iterator[tuple], ExecutionProfile]:
        """Build the iterator of the query's column tuples; lazy for reads.
        The returned profile's ``dicts`` turns those tuples into dicts.

        ``initial_row`` is the first part's argument row, built with
        ``layout_of(planned_parts).argument_row(...)`` (default: nothing
        bound). ``token`` is an optional cooperative cancellation token
        (see ``repro.service.cancellation``) checked every
        ``CHECK_STRIDE`` source-loop iterations. ``morsel_size`` overrides
        the output chunk size (tests); an artifact built for another size
        is recompiled for this execution only. ``tracker`` is the query's
        :class:`~repro.resources.MemoryTracker`; blocking operators charge
        it (and spill through it), and its per-operator peaks merge into
        the profile when the rows stop, after which it is closed if
        ``release`` is set (the caller hands it over). Slot values are
        read from ``planned_parts.params`` when the parts carry it.

        ``mode`` accepts only ``"compiled"``: it and the read-only
        ``GraphDatabase.execution_mode`` are the seam perfbench's traced
        pass still calls through, kept until the product traces itself.
        """
        if mode != "compiled":
            raise ReproError(f"unknown execution mode {mode!r}")
        layout = layout_of(planned_parts)
        artifact = self.compile(planned_parts)
        profile = ExecutionProfile([plan for _, plan in planned_parts])
        ctx = RuntimeContext(
            self.store,
            self.index_store,
            self.variable_kinds,
            profile.operators,
            tracker=tracker,
            params=getattr(planned_parts, "params", ()),
        )
        if morsel_size is not None and morsel_size != artifact.morsel_size:
            ctx.morsel_size = morsel_size
            artifact = compile_query(planned_parts, ctx, layout)
        if token is None:
            check = _no_check
        else:
            check = getattr(token, "check_batch", None) or token.check
        rows = iter([layout.empty_row() if initial_row is None else initial_row])
        last = artifact.parts[-1]
        for (part, _), cpart in zip(planned_parts, artifact.parts):
            final = cpart is last
            if part.updates:
                matched = _morsels(cpart, rows, ctx, check)
                written = self._write(matched, part, cpart, transaction, ctx, layout)
                cpart, rows = cpart.boundary, iter(written)
            morsels = _morsels(cpart, rows, ctx, check)
            if final and tracker is not None:
                morsels = _accounted(morsels, tracker, profile, release)
            rows = chain.from_iterable(morsels)
        profile.dicts = cpart.dicts
        return rows, profile

    # ------------------------------------------------------------------

    def _write(
        self,
        morsels: Iterator[list],
        part: QueryPart,
        cpart: CompiledPart,
        transaction: Optional[Transaction],
        ctx: RuntimeContext,
        layout: SlotLayout,
    ) -> list[list]:
        """Apply the part's updates to every matched row; returns the
        written rows, or none when the part projects nothing (a write
        without RETURN returns no rows).

        Updates are eager: all matches (``morsels`` of them) are computed,
        then all writes applied. The matched-row buffer spills (order-preserving append
        buffer); the written rows are charged non-spillably, so an
        oversized write fails with MemoryLimitExceeded and rolls back.
        """
        if transaction is None:
            raise TransactionError("update query requires an open transaction")
        mem = ctx.mem()
        matched = AppendSpillBuffer(mem, "update: matched rows")
        for morsel in morsels:
            for row in morsel:
                matched.add(row)
        write = self._writer(part.updates, cpart.creates, transaction, ctx, layout)
        written: list[list] = []
        for row in matched:
            row = write(row)
            if part.projection:
                mem.charge("update: written rows", ROW_BYTES)
                written.append(row)
        return written

    def _writer(
        self,
        updates: Sequence[UpdateAction],
        creates: Sequence[Optional[Callable]],
        transaction: Transaction,
        ctx: RuntimeContext,
        layout: SlotLayout,
    ) -> Callable[[list], list]:
        """``write(row)``: apply ``updates`` for one matched row, returning
        the row with the created entities bound. ``creates`` are the
        compiled part's property-map functions, one per action."""
        store = self.store
        slot_of = layout.slot_of
        params = ctx.params
        actions = list(zip(updates, creates))
        deleted_rels: set[int] = set()
        deleted_nodes: set[int] = set()

        def write(row: list) -> list:
            row = row[:]
            for action, create in actions:
                if action.kind == "delete":
                    self._apply_delete(
                        action,
                        row[slot_of(action.variable)],
                        transaction,
                        deleted_rels,
                        deleted_nodes,
                    )
                    continue
                if action.kind == "create_node":
                    entity = transaction.create_node(
                        [store.labels.get_or_create(label) for label in action.labels]
                    )
                    set_property = transaction.set_node_property
                else:
                    start = row[slot_of(action.start)]
                    end = row[slot_of(action.end)]
                    if start is None or end is None:
                        raise ReproError(
                            f"CREATE relationship endpoints {action.start!r}/"
                            f"{action.end!r} are unbound"
                        )
                    entity = transaction.create_relationship(
                        int(start), int(end), store.types.get_or_create(action.type)
                    )
                    set_property = transaction.set_relationship_property
                values = () if create is None else create(row, params)
                for key, value in zip(action.properties, values):
                    if value is not None:  # a NULL value leaves it unset
                        key_id = store.property_keys.get_or_create(key)
                        set_property(entity, key_id, value)
                row[slot_of(action.variable)] = entity
            return row

        return write

    def _apply_delete(
        self,
        action: UpdateAction,
        entity: object,
        transaction: Transaction,
        deleted_rels: set[int],
        deleted_nodes: set[int],
    ) -> None:
        name = action.variable
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


def _morsels(
    cpart: CompiledPart, rows: Iterator[list], ctx: RuntimeContext, check
) -> Iterator[list]:
    """Run one generated pipeline function over ``rows``; it yields
    morsels. It receives its per-execution dependencies — the profile
    flush, the cancellation check, the memory tracker and the parameter
    tuple — as arguments; everything compile-time (store, index,
    tokens) is baked in."""
    plans = cpart.plans
    record = ctx.profile.record

    def flush(counts: tuple) -> None:
        for node, count in zip(plans, counts):
            if count:
                record(node, count)

    return cpart.fn(rows, flush, check, ctx.tracker, ctx.params)
