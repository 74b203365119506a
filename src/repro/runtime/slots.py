"""Slot rows: the one row representation of generated code.

Each planned query gets one :class:`SlotLayout`, which gives every variable
its plans bind, every projection and aggregation output and every CREATE
variable a fixed integer slot. A row is a list of length ``width + 1``: one
element per slot plus a trailing tuple of bound relationship ids (Cypher's
relationship-uniqueness scope, reset at projection boundaries). A slot
holding None means *unbound*. Rows cross from one query part to the next
as they are; the final part hands out one tuple per row in column order.

The layout is kept on the part-0 plan node (see :func:`layout_of`), next to
the codegen artifact, and built on a plan's first execution. Building it is
deterministic, so racing first executions store equal layouts.

The row merge here is what generated code calls to join two rows (hash
join, Cartesian product); path-index entries are bound inline, by the
code itself (``repro.runtime.compiled.codegen``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.cypher import ast
from repro.errors import ReproError

LAYOUT = "_slot_layout"
"""Key of a planned query's :class:`SlotLayout` in the ``__dict__`` of its
part-0 plan node (see ``repro.runtime.executor.ARTIFACT``)."""


class SlotLayout:
    """Variable-to-slot mapping for one planned query.

    Slots never move and the layout never grows after it is built, so
    generated code holds plain ints and concurrent executions share it.
    """

    __slots__ = ("slots", "width")

    def __init__(self, names: Iterable[str]) -> None:
        self.slots = {name: slot for slot, name in enumerate(names)}
        self.width = len(self.slots)

    @classmethod
    def of(cls, planned_parts: Sequence[tuple[object, object]]) -> "SlotLayout":
        """The layout of a planned query: every name a plan node binds or
        projects (its ``available``) and every name a part's updates
        create. Semantic analysis rejects any other name an expression
        could read."""
        names: set[str] = set()
        for part, plan in planned_parts:
            names.update(action.variable for action in part.updates)
            stack = [plan]
            while stack:
                node = stack.pop()
                names |= node.available
                stack.extend(node.children)
        return cls(sorted(names))

    def slot_of(self, name: str) -> int:
        slot = self.slots.get(name)
        if slot is None:
            if isinstance(name, ast.FunctionCall):
                raise ReproError(
                    f"aggregate function {name.name}() outside an "
                    "aggregating projection"
                )
            raise ReproError(f"variable {name!r} has no slot")
        return slot

    def empty_row(self) -> list:
        row: list = [None] * (self.width + 1)
        row[self.width] = ()
        return row

    def argument_row(
        self, values: dict[str, object], rel_ids: Iterable[int] = ()
    ) -> list:
        """A query's argument row: ``values`` bound, ``rel_ids`` already in
        the uniqueness scope (a maintenance anchor's relationship)."""
        row = self.empty_row()
        for name, value in values.items():
            row[self.slots[name]] = value
        row[self.width] = tuple(rel_ids)
        return row


def layout_of(planned_parts: Sequence[tuple[object, object]]) -> SlotLayout:
    """The planned query's layout, built on first use and kept on its
    part-0 plan node."""
    holder = planned_parts[0][1].__dict__
    layout = holder.get(LAYOUT)
    if layout is None:
        layout = holder.setdefault(LAYOUT, SlotLayout.of(planned_parts))
    return layout


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


def _resolve_type_ids(store, names) -> set[int]:
    resolved = {store.types.id_of(name) for name in names}
    resolved.discard(None)
    return resolved
