"""Compiled (data-centric codegen) execution mode.

``compile_query`` turns a planned query into a :class:`CompiledQuery`: one
exec-compiled Python pipeline function per read part, two per update part,
and, compiled with the final part's, the builder of the result's dicts
(see :mod:`repro.runtime.compiled.codegen`). Every plan-node type has a
producer, so every plan compiles. The artifact is kept on the plan itself
(see ``repro.runtime.executor.ARTIFACT``), so it shares the plan's
invalidation (statistics drift, index set changes, eviction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.planner.plans import LogicalPlan, pattern_half
from repro.runtime.compiled.codegen import (
    CHECK_STRIDE,
    PRODUCERS,
    PartCompiler,
    generate_part_source,
)
from repro.runtime.slots import SlotLayout

if TYPE_CHECKING:
    from repro.runtime.executor import RuntimeContext

__all__ = [
    "CHECK_STRIDE",
    "PRODUCERS",
    "CompiledPart",
    "CompiledQuery",
    "compile_query",
    "PartCompiler",
]


@dataclass
class CompiledPart:
    """One exec-compiled pipeline function of a query part.

    ``fn(rows, flush, check, mem, params)`` consumes the part's input rows
    and yields morsels: full slot rows, or the final part's column tuples.
    ``plans`` lists the plan nodes in counter order for ``flush``. An
    update part's ``fn`` is its pattern half and ``boundary`` the function
    consuming its written rows; ``creates`` holds, per update action,
    ``create(row, params)`` returning its property map's values in key
    order (None: the action has no map). The final part's function (an
    update part's boundary) comes with ``dicts(tuples)``, which turns its
    column tuples into the result's dicts; it is None on any other.
    """

    fn: object
    source: str
    plans: list[LogicalPlan]
    boundary: Optional["CompiledPart"] = None
    creates: tuple = ()
    dicts: Optional[Callable] = None


@dataclass
class CompiledQuery:
    """Compiled pipelines for all parts of one query.

    ``morsel_size`` is baked into the generated output chunking, so
    executions with a different morsel size must recompile.
    """

    parts: list[CompiledPart]
    morsel_size: int

    def source(self) -> str:
        """The generated Python source for all parts (shell ``:source``)."""
        return "\n".join(
            f"# ---- part {position}{suffix} ----\n{compiled.source}"
            for position, part in enumerate(self.parts)
            for suffix, compiled in (("", part), (" boundary", part.boundary))
            if compiled is not None
        )


def _compile(
    plan: LogicalPlan,
    ctx: RuntimeContext,
    layout: SlotLayout,
    seam: LogicalPlan,
    name: str,
    stream: bool = False,
    columns: Optional[list[str]] = None,
    updates: Sequence = (),
    **inputs,
) -> CompiledPart:
    source, env, plans = generate_part_source(
        plan, ctx, layout, seam, stream, columns, updates=updates, **inputs
    )
    namespace = dict(env)
    exec(compile(source, f"<compiled:{name}>", "exec"), namespace)
    return CompiledPart(
        fn=namespace["_pipeline"],
        source=source,
        plans=plans,
        creates=tuple(
            namespace.get(f"_create{position}") for position in range(len(updates))
        ),
        dicts=namespace.get("_dicts"),
    )


def compile_query(
    planned_parts: Sequence[tuple[object, LogicalPlan]],
    ctx: RuntimeContext,
    layout: SlotLayout,
) -> CompiledQuery:
    """Compile every part of a planned query against its ``layout``.

    ``planned_parts`` is the plan cache's ``(QueryPart, LogicalPlan)``
    sequence; ``ctx`` supplies the store, index store, variable kinds and
    morsel size the generated code binds at compile time (the profile,
    token and parameters on ``ctx`` are *not* captured — they arrive per
    execution as arguments).
    """
    parts: list[CompiledPart] = []
    last = len(planned_parts) - 1
    for position, (part, plan) in enumerate(planned_parts):
        columns = (
            [item.output_name for item in part.projection]
            if position == last
            else None
        )
        pattern = pattern_half(plan)
        name = f"part{position}"
        arguments = part.query_graph.arguments
        inputs = {
            "arguments": arguments,
            # Only the first part's argument row comes from outside, holding
            # the ids of the relationships it binds (a maintenance anchor's);
            # later parts' rows leave a projection, which empties the scope.
            "argument_rels": position == 0
            and any(var in part.query_graph.relationships for var in arguments),
        }
        if part.updates:
            compiled = _compile(
                pattern, ctx, layout, pattern, name, updates=part.updates, **inputs
            )
            compiled.boundary = _compile(
                plan, ctx, layout, pattern, f"{name}.boundary", True, columns, **inputs
            )
        else:
            compiled = _compile(
                plan, ctx, layout, pattern, name, columns=columns, **inputs
            )
        parts.append(compiled)
    return CompiledQuery(parts=parts, morsel_size=ctx.morsel_size)
