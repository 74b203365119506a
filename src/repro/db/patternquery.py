"""Internal pattern queries: run a :class:`PathPattern` through the pipeline.

Used by index initialization (Algorithm 2: "Query(P, G)") and by query-based
maintenance (Algorithm 1: "query the index pattern with an additional
predicate that the modified relationship must be part of the resulting
paths"). The anchor predicate is expressed by binding the pattern variables
at the anchored position as *arguments*, so the planner is free to pick any
strategy — expanding outward from the anchor, or prefix-seeking another
index — exactly the flexibility the paper's approach gains over De Jong's
self-maintaining translation.

A pattern query is an ordinary Cypher text (:func:`pattern_text`), planned
by the same function as every other text
(:meth:`repro.db.plancache.Planning.plan`) and cached as a
:class:`~repro.db.plancache.CachedQuery`. :class:`PatternQueries` keeps
these in a :class:`~repro.db.plancache.PlanCache` of its own, so a commit
plans each *(pattern, anchor position, forbidden set)* once and afterwards
only binds identifiers and runs. ``verify_index`` and the index advisor use
the same queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.cypher import parse
from repro.cypher.lexer import KEYWORDS
from repro.db.plancache import CachedQuery, PlanCache
from repro.pathindex.pattern import PathPattern
from repro.pathindex.store import PathIndexStore
from repro.planner import PlannerHints
from repro.runtime import Executor
from repro.runtime.slots import layout_of
from repro.storage.graphstore import GraphStore


@dataclass(frozen=True)
class Anchor:
    """Bind pattern step ``position`` to a concrete relationship."""

    position: int
    rel_id: int
    source_id: int  # node at pattern position `position`
    target_id: int  # node at pattern position `position + 1`

    @classmethod
    def at(
        cls,
        pattern: PathPattern,
        position: int,
        rel_id: int,
        start_id: int,
        end_id: int,
    ) -> "Anchor":
        """Anchor the relationship ``start_id -> end_id`` (data direction)
        at ``position``, following that step's arrow."""
        if pattern.relationships[position].forward:
            return cls(position, rel_id, start_id, end_id)
        return cls(position, rel_id, end_id, start_id)

    def bound_variables(self) -> dict[str, int]:
        return {
            node_var(self.position): self.source_id,
            rel_var(self.position): self.rel_id,
            node_var(self.position + 1): self.target_id,
        }

    def bound_rel_ids(self) -> frozenset[int]:
        return frozenset({self.rel_id})


@dataclass(frozen=True)
class NodeAnchor:
    """Bind pattern node ``position`` to a concrete node (label updates)."""

    position: int
    node_id: int

    def bound_variables(self) -> dict[str, int]:
        return {node_var(self.position): self.node_id}

    def bound_rel_ids(self) -> frozenset[int]:
        return frozenset()


def node_var(position: int) -> str:
    return f"n{position}"


def rel_var(position: int) -> str:
    return f"r{position}"


def entry_variables(pattern: PathPattern) -> list[str]:
    """Variable names in stored-entry order: n0, r0, n1, ..., nk."""
    names = [node_var(0)]
    for position in range(pattern.length):
        names.append(rel_var(position))
        names.append(node_var(position + 1))
    return names


def pattern_text(pattern: PathPattern) -> str:
    """The Cypher text of ``pattern``'s query,
    ``MATCH (n0:A)-[r0:X]->(n1)… RETURN n0, r0, n1, …``: it returns the
    entry variables in entry order, so its rows are the pattern's entries."""
    text = f"MATCH ({node_var(0)}{_constraint(pattern.labels[0])})"
    for position, step in enumerate(pattern.relationships):
        body = f"[{rel_var(position)}{_constraint(step.type)}]"
        text += f"-{body}->" if step.forward else f"<-{body}-"
        text += f"({node_var(position + 1)}{_constraint(pattern.labels[position + 1])})"
    return f"{text} RETURN {', '.join(entry_variables(pattern))}"


_IDENTIFIER = re.compile(r"[^\W\d]\w*")  # the lexer's WORD token


def _constraint(name: Optional[str]) -> str:
    """``:name`` for a label or type, backticked unless the lexer reads it
    as a plain identifier (a keyword is not one)."""
    if name is None:
        return ""
    if _IDENTIFIER.fullmatch(name) and name.upper() not in KEYWORDS:
        return f":{name}"
    return f":`{name}`"


class PatternQueries:
    """The pattern queries of one database, planned as Cypher texts
    (:func:`pattern_text`) behind their own :class:`PlanCache` — the same
    class, front door and staleness rule as ``db.plan_cache``, a separate
    instance so ad-hoc query texts cannot evict maintenance plans. The key
    is ``(pattern, anchor kind, anchor position, hints)``: an anchor's
    bound variables are the plan's arguments, and only its identifiers
    change from run to run."""

    def __init__(self, store: GraphStore, index_store: PathIndexStore) -> None:
        self.store = store
        self.index_store = index_store
        self.plan_cache = PlanCache()

    def prepare(
        self,
        pattern: PathPattern,
        anchor=None,
        hints: Optional[PlannerHints] = None,
    ) -> CachedQuery:
        """The query for anchors of ``anchor``'s kind and position (all
        occurrences without one), planned on first use."""
        key = (pattern, type(anchor), getattr(anchor, "position", None), hints)

        def plan(planning):
            bound = () if anchor is None else anchor.bound_variables()
            return planning.plan(parse(pattern_text(pattern)), hints, frozenset(bound))

        return self.plan_cache.fetch(key, self.store, self.index_store, plan)

    def run(
        self,
        pattern: PathPattern,
        anchor=None,
        hints: Optional[PlannerHints] = None,
    ) -> Iterator[tuple[int, ...]]:
        """Stream the occurrences through ``anchor`` (all, without one) as
        identifier entries."""
        return self.execute(self.prepare(pattern, anchor, hints), anchor)

    def execute(self, cached: CachedQuery, anchor=None) -> Iterator[tuple[int, ...]]:
        """Run a query :meth:`prepare` returned, binding ``anchor`` (one of
        the kind and position it was prepared for)."""
        initial = None
        if anchor is not None:
            initial = layout_of(cached.planned_parts).argument_row(
                anchor.bound_variables(), anchor.bound_rel_ids()
            )
        executor = Executor(
            self.store, self.index_store, cached.analyzed.variable_kinds
        )
        return executor.execute(cached.planned_parts, initial_row=initial)[0]


def anchors_for_relationship(
    pattern: PathPattern,
    rel_id: int,
    type_name: Optional[str],
    start_id: int,
    end_id: int,
    start_labels: frozenset[str],
    end_labels: frozenset[str],
) -> list[Anchor]:
    """All pattern positions where the given relationship could occur."""
    return [
        Anchor.at(pattern, position, rel_id, start_id, end_id)
        for position in pattern.step_positions_for(type_name, start_labels, end_labels)
    ]
