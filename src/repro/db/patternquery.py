"""Internal pattern queries: run a :class:`PathPattern` through the pipeline.

Used by index initialization (Algorithm 2: "Query(P, G)") and by query-based
maintenance (Algorithm 1: "query the index pattern with an additional
predicate that the modified relationship must be part of the resulting
paths"). The anchor predicate is expressed by binding the pattern variables
at the anchored position as *arguments*, so the planner is free to pick any
strategy — expanding outward from the anchor, or prefix-seeking another
index — exactly the flexibility the paper's approach gains over De Jong's
self-maintaining translation.

Everything about such a query that does not depend on the anchored
identifiers — query part, variable kinds, logical plan, codegen artifact —
is a :class:`PreparedPatternQuery`. :class:`PatternQueries` keeps prepared
queries in a :class:`~repro.db.plancache.PlanCache` of its own, so a commit
plans each *(pattern, anchor position, forbidden set)* once and afterwards
only binds identifiers and runs. :func:`run_pattern_query` is the uncached
plan-then-run form, for one-off callers and as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.cypher import ast
from repro.cypher.semantics import VariableKind
from repro.db.plancache import PlanCache
from repro.pathindex.pattern import PathPattern
from repro.pathindex.store import PathIndexStore
from repro.planner import Planner, PlannerHints
from repro.querygraph import QueryGraph, QueryPart
from repro.runtime import Executor, Row
from repro.runtime.executor import ExecutionProfile
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


def build_pattern_part(
    pattern: PathPattern, anchor=None
) -> tuple[QueryPart, dict[str, VariableKind]]:
    """Construct the query part matching ``pattern`` (anchored or not)."""
    arguments: frozenset[str] = frozenset()
    if anchor is not None:
        arguments = frozenset(anchor.bound_variables())
    graph = QueryGraph(arguments=arguments)
    kinds: dict[str, VariableKind] = {}
    for position, label in enumerate(pattern.labels):
        labels = [label] if label is not None else []
        graph.add_node(node_var(position), labels)
        kinds[node_var(position)] = VariableKind.NODE
    for position, step in enumerate(pattern.relationships):
        if step.forward:
            start, end = node_var(position), node_var(position + 1)
        else:
            start, end = node_var(position + 1), node_var(position)
        types = [step.type] if step.type is not None else []
        graph.add_relationship(rel_var(position), start, end, types)
        kinds[rel_var(position)] = VariableKind.RELATIONSHIP
    projection = [
        ast.ProjectionItem(ast.Variable(name), alias=name)
        for name in entry_variables(pattern)
    ]
    return QueryPart(query_graph=graph, projection=projection, is_final=True), kinds


ENGINE = "compiled"
"""Engine of every internal pattern query. Measured on perfbench's
``write_maintain`` graph with the plan cached: anchored queries (a handful
of rows) cost the same on every engine to within noise, while the
unanchored Algorithm 2 / ``verify_index`` scans are fastest compiled.
Compiled when prepared, so even a query's first run is generated code
(Algorithm 2 over perfbench's Full+Sub4+Sub7: 0.25 s compiled, 0.27 s on
the row engine)."""


@dataclass
class PreparedPatternQuery:
    """A planned pattern query; :meth:`run` it once per anchor.

    ``node_count`` / ``relationship_count`` / ``index_signature`` are the
    plan cache's staleness fields. The codegen artifact lives on the plan,
    so it shares the entry's lifetime.
    """

    planned_parts: list  # [(QueryPart, LogicalPlan)]
    executor: Executor
    names: tuple[str, ...]
    node_count: int
    relationship_count: int
    index_signature: frozenset[str]

    def run(self, anchor=None) -> tuple[Iterator[tuple[int, ...]], ExecutionProfile]:
        """Stream the occurrences through ``anchor`` (all, without one) as
        identifier entries. ``anchor`` must be of the kind and position the
        query was prepared for."""
        initial = None
        if anchor is not None:
            initial = Row(anchor.bound_variables(), anchor.bound_rel_ids())
        rows, profile = self.executor.execute(
            self.planned_parts, initial_row=initial, mode=ENGINE
        )
        names = self.names
        return (
            tuple([int(row.values[name]) for name in names]) for row in rows
        ), profile


def prepare_pattern_query(
    store: GraphStore,
    index_store: Optional[PathIndexStore],
    pattern: PathPattern,
    anchor=None,
    hints: Optional[PlannerHints] = None,
) -> PreparedPatternQuery:
    """Plan ``pattern`` for anchors of ``anchor``'s kind and position."""
    signature = (
        frozenset(index_store.visible_names())
        if index_store is not None
        else frozenset()
    )
    stats = store.statistics_view()
    part, kinds = build_pattern_part(pattern, anchor)
    planned_parts = [(part, Planner(store, index_store).plan_part(part, hints))]
    executor = Executor(store, index_store, kinds)
    if ENGINE == "compiled":
        executor.compile(planned_parts)
    return PreparedPatternQuery(
        planned_parts=planned_parts,
        executor=executor,
        names=tuple(entry_variables(pattern)),
        node_count=stats.node_count,
        relationship_count=stats.relationship_count,
        index_signature=signature,
    )


def run_pattern_query(
    store: GraphStore,
    index_store: Optional[PathIndexStore],
    pattern: PathPattern,
    anchor=None,
    hints: Optional[PlannerHints] = None,
) -> tuple[Iterator[tuple[int, ...]], ExecutionProfile]:
    """Plan, then stream all pattern occurrences as identifier entries."""
    return prepare_pattern_query(store, index_store, pattern, anchor, hints).run(
        anchor
    )


class PatternQueries:
    """Prepared pattern queries of one database, behind their own
    :class:`PlanCache` — same class and staleness rule as ``db.plan_cache``
    (visible-index signature, statistics drift, index DDL), separate
    instance so ad-hoc query texts cannot evict maintenance plans."""

    def __init__(self, store: GraphStore, index_store: PathIndexStore) -> None:
        self.store = store
        self.index_store = index_store
        self.plan_cache = PlanCache()

    def prepare(
        self,
        pattern: PathPattern,
        anchor=None,
        hints: Optional[PlannerHints] = None,
    ) -> PreparedPatternQuery:
        key = (pattern, type(anchor), getattr(anchor, "position", None), hints)
        cache = self.plan_cache
        generation = cache.generation  # before the index set is looked at
        stats = self.store.statistics_view()
        prepared = cache.lookup(
            key,
            stats.node_count,
            stats.relationship_count,
            frozenset(self.index_store.visible_names()),
        )
        if prepared is None:
            prepared = prepare_pattern_query(
                self.store, self.index_store, pattern, anchor, hints
            )
            cache.store(key, prepared, generation)
        return prepared

    def run(
        self,
        pattern: PathPattern,
        anchor=None,
        hints: Optional[PlannerHints] = None,
    ) -> Iterator[tuple[int, ...]]:
        return self.prepare(pattern, anchor, hints).run(anchor)[0]


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
