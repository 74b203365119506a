"""Slot rows: the one row representation of both engines.

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

The row merge here is shared by both engines. The path-index entry binder
is the row engine's: generated code binds entries inline, emitting only
the checks its plan lets fail (``repro.runtime.compiled.codegen``), and is
tested against this binder.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

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


def _entry_binder(
    plan, store, layout: SlotLayout, skip_positions: int = 0
) -> Callable[[tuple, list], Optional[list]]:
    """Build a function binding a path-index entry into a slot row.

    Checks, in stored order: binding consistency (repeated variables and
    pre-bound variables), relationship uniqueness, residual label filters
    and residual type filters. ``skip_positions`` marks a leading prefix
    already bound by the row (PathIndexPrefixSeek).
    """
    entry_slots = [layout.slot_of(var) for var in plan.entry_vars]
    label_check_map: dict[int, list[int]] = {}
    for var, label in getattr(plan, "label_filters", ()):
        label_id = store.labels.id_of(label)
        label_check_map.setdefault(layout.slot_of(var), []).append(
            -1 if label_id is None else label_id
        )
    label_checks = list(label_check_map.items())
    type_checks = [
        (layout.slot_of(var), frozenset(_resolve_type_ids(store, type_names)))
        for var, type_names in getattr(plan, "type_filters", ())
    ]
    width = layout.width

    def bind(entry: tuple, arg_row: list) -> Optional[list]:
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
