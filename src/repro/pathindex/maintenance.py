"""Query-based path index maintenance — Algorithm 1 of the paper.

The maintainer is a transaction applier. Per committing transaction:

* **removal phase** (``before_destructive``, store unchanged): for every
  relationship deletion and label removal, the affected indexes are found
  (sorted by pattern length ascending, Algorithm 1 lines 4–5) and an
  *anchored* pattern query computes all indexed paths through the update; the
  collected entries are then removed from their indexes. We compute every
  removal set before touching any index so that maintenance plans may freely
  use other indexes — a snapshot variant of the paper's small-to-large
  ordering that is correct regardless of the chosen plan.
* **addition phase** (``after_apply``, store fully updated): additions are
  processed index by index, smallest pattern first; each anchored query runs
  with the current index *and every not-yet-updated index* forbidden
  (Algorithm 1, line 17: "Query(P but avoid using index, G)"), so plans only
  consult indexes that are already consistent.

A traversal-based fallback (De Jong's translation 1) is available as an
alternative strategy and for differential testing.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterator, Optional

from repro.db.patternquery import Anchor, NodeAnchor, PatternQueries
from repro.pathindex.index import PathIndex
from repro.pathindex.pattern import PathPattern
from repro.pathindex.store import PathIndexStore
from repro.planner import PlannerHints
from repro.storage.graphstore import Direction, GraphStore
from repro.tx.appliers import TransactionApplier
from repro.tx.state import TransactionState

if TYPE_CHECKING:  # pragma: no cover
    from repro.tx.manager import TransactionManager

QUERY_BASED = "query"
TRAVERSAL_BASED = "traversal"

_ROUTE_LIMIT = 4096
"""Memoized routes are dropped wholesale past this many label combinations."""

Route = list[tuple[PathIndex, list[int]]]
"""Affected indexes, small to large (Algorithm 1, lines 4–5), each with the
pattern positions the update can occupy."""


class PathIndexMaintainer(TransactionApplier):
    """Keeps every registered path index consistent across commits."""

    def __init__(
        self,
        store: GraphStore,
        index_store: PathIndexStore,
        tx_manager: Optional["TransactionManager"] = None,
        strategy: str = QUERY_BASED,
        hints: Optional[PlannerHints] = None,
    ) -> None:
        if strategy not in (QUERY_BASED, TRAVERSAL_BASED):
            raise ValueError(f"unknown maintenance strategy {strategy!r}")
        self.store = store
        self.index_store = index_store
        self.tx_manager = tx_manager
        self.strategy = strategy
        self.hints = hints or PlannerHints()
        #: The anchored queries of Algorithm 1, planned once per (pattern,
        #: anchor position, hints incl. forbidden set) and then only re-bound.
        self.queries = PatternQueries(store, index_store)
        # Which indexes an update touches depends only on its type and
        # endpoint labels (resp. its label), so it is worked out once per
        # combination and index set, not once per pending change.
        self._relationship_routes: dict[tuple, Route] = {}
        self._label_routes: dict[int, Route] = {}
        self.last_report: dict[str, float] = {}
        self.last_entry_counts: dict[str, int] = {}
        self.last_changes: list[tuple[str, str, tuple[int, ...]]] = []
        """Every index delta of the last commit as ``(op, index, entry)``
        with op "add"/"remove" — only updates that actually changed an index.
        The durability engine logs these verbatim so recovery can restore
        index contents without re-running Algorithm 1."""

    def invalidate(self) -> None:
        """The index set changed (DDL, under the exclusive-writer lock):
        cached pattern queries and routes were worked out for the old one."""
        self.queries.plan_cache.invalidate_all()
        self._relationship_routes.clear()
        self._label_routes.clear()

    # ------------------------------------------------------------------
    # Applier phases
    # ------------------------------------------------------------------

    def before_destructive(self, state: TransactionState, store: GraphStore) -> None:
        self.last_report = {}
        self.last_entry_counts = {}
        self.last_changes = []
        if len(self.index_store) == 0:
            return
        anchored: list[tuple[PathIndex, object]] = []
        for pending in state.deleted_relationships:
            anchored.extend(
                self._relationship_anchors(
                    pending.rel_id,
                    pending.type_id,
                    pending.start_node,
                    pending.end_node,
                )
            )
        for pending in state.removed_labels:
            anchored.extend(self._label_anchors(pending.label_id, pending.node_id))
        if not anchored:
            return
        with self._detached():
            removals = [
                (index, self._timed_entries(index, anchor, self.hints))
                for index, anchor in anchored
            ]
        for index, entries in removals:
            self._apply("remove", index, entries)

    def after_apply(self, state: TransactionState, store: GraphStore) -> None:
        if len(self.index_store) == 0:
            return
        additions = self._collect_additions(state)
        if not additions:
            return
        # Global small-to-large order over every index affected by any
        # addition; queries may only use indexes updated earlier in the order.
        order = sorted(
            additions.values(),
            key=lambda item: (item[0].pattern.length, item[0].name),
        )
        with self._detached():
            for position, (index, anchors) in enumerate(order):
                not_yet_updated = [later.name for later, _ in order[position:]]
                hints = self.hints.forbidding(*not_yet_updated)
                for anchor in anchors:
                    entries = self._timed_entries(index, anchor, hints)
                    self._apply("add", index, entries)

    # ------------------------------------------------------------------
    # Collection helpers
    # ------------------------------------------------------------------

    def _collect_additions(
        self, state: TransactionState
    ) -> dict[str, tuple[PathIndex, list]]:
        """Anchors of every addition, grouped by affected index."""
        anchored: list[tuple[PathIndex, object]] = []
        for rel_id in state.created_relationships:
            if not self.store.relationship_exists(rel_id):
                continue  # created and deleted within the same transaction
            record = self.store.relationship(rel_id)
            anchored.extend(
                self._relationship_anchors(
                    rel_id, record.type_id, record.start_node, record.end_node
                )
            )
        for node_id, label_id in state.added_labels:
            if not self.store.node_exists(node_id):
                continue
            if label_id not in self.store.node_labels(node_id):
                continue  # label re-removed within the same transaction
            anchored.extend(self._label_anchors(label_id, node_id))
        additions: dict[str, tuple[PathIndex, list]] = {}
        for index, anchor in anchored:
            additions.setdefault(index.name, (index, []))[1].append(anchor)
        return additions

    def _relationship_anchors(
        self, rel_id: int, type_id: int, start_node: int, end_node: int
    ) -> Iterator[tuple[PathIndex, Anchor]]:
        """Every (index, anchor) the relationship can occupy."""
        for index, positions in self._relationship_route(
            type_id, start_node, end_node
        ):
            for position in positions:
                yield index, Anchor.at(
                    index.pattern, position, rel_id, start_node, end_node
                )

    def _label_anchors(
        self, label_id: int, node_id: int
    ) -> Iterator[tuple[PathIndex, NodeAnchor]]:
        """Every (index, anchor) the labelled node can occupy."""
        for index, positions in self._label_route(label_id):
            for position in positions:
                yield index, NodeAnchor(position, node_id)

    def _relationship_route(
        self, type_id: int, start_node: int, end_node: int
    ) -> Route:
        key = (
            type_id,
            self.store.node_labels(start_node),
            self.store.node_labels(end_node),
        )
        route = self._relationship_routes.get(key)
        if route is None:
            name_of = self.store.labels.name_of
            type_name = self.store.types.name_of(type_id)
            start_labels = frozenset(name_of(label_id) for label_id in key[1])
            end_labels = frozenset(name_of(label_id) for label_id in key[2])
            route = [
                (
                    index,
                    index.pattern.step_positions_for(
                        type_name, start_labels, end_labels
                    ),
                )
                for index in self.index_store.affected_by_relationship(
                    type_name, start_labels, end_labels
                )
            ]
            if len(self._relationship_routes) >= _ROUTE_LIMIT:
                self._relationship_routes.clear()
            self._relationship_routes[key] = route
        return route

    def _label_route(self, label_id: int) -> Route:
        route = self._label_routes.get(label_id)
        if route is None:
            label = self.store.labels.name_of(label_id)
            route = [
                (
                    index,
                    [
                        position
                        for position, pattern_label in enumerate(index.pattern.labels)
                        if pattern_label == label
                    ],
                )
                for index in self.index_store.affected_by_label(label)
            ]
            self._label_routes[label_id] = route
        return route

    # ------------------------------------------------------------------
    # Entry computation per strategy
    # ------------------------------------------------------------------

    def _detached(self):
        """The paper's work-around, once per phase: detach the committing
        transaction's state while the maintenance queries run (Algorithm 1,
        lines 6–7 and 19)."""
        if self.tx_manager is None:
            return nullcontext()
        return self.tx_manager.suspended()

    def _timed_entries(
        self, index: PathIndex, anchor, hints: PlannerHints
    ) -> list[tuple[int, ...]]:
        started = time.perf_counter()
        if self.strategy == TRAVERSAL_BASED:
            entries = list(traverse_pattern(self.store, index.pattern, anchor))
        else:
            entries = list(self.queries.run(index.pattern, anchor, hints))
        self._charge(index.name, time.perf_counter() - started)
        return entries

    def _apply(self, op: str, index: PathIndex, entries: list[tuple[int, ...]]) -> None:
        """Add/remove one query's entries, recording those that changed the
        index; the batch is charged as one."""
        if not entries:
            return
        started = time.perf_counter()
        change = index.add if op == "add" else index.remove
        changed = [entry for entry in entries if change(entry)]
        if changed:
            name = index.name
            self.last_entry_counts[name] = self.last_entry_counts.get(name, 0) + len(
                changed
            )
            self.last_changes.extend((op, name, entry) for entry in changed)
        self._charge(index.name, time.perf_counter() - started)

    def _charge(self, index_name: str, seconds: float) -> None:
        self.last_report[index_name] = self.last_report.get(index_name, 0.0) + seconds


# ---------------------------------------------------------------------------
# Traversal-based translation (De Jong's method 1) — the always-available
# fallback the paper's conclusion mentions.
# ---------------------------------------------------------------------------


def traverse_pattern(
    store: GraphStore, pattern: PathPattern, anchor
) -> Iterator[tuple[int, ...]]:
    """Enumerate pattern occurrences through ``anchor`` by graph traversal."""
    if isinstance(anchor, Anchor):
        left = anchor.position
        right = anchor.position + 1
        node_ids = [anchor.source_id, anchor.target_id]
        rel_ids = [anchor.rel_id]
        if not _node_matches(store, pattern, left, anchor.source_id):
            return
        if not _node_matches(store, pattern, right, anchor.target_id):
            return
    elif isinstance(anchor, NodeAnchor):
        left = right = anchor.position
        node_ids = [anchor.node_id]
        rel_ids = []
        if not _node_matches(store, pattern, left, anchor.node_id):
            return
    else:
        raise TypeError(f"unsupported anchor {anchor!r}")
    yield from _extend(store, pattern, left, right, node_ids, rel_ids)


def _extend(store, pattern, left, right, node_ids, rel_ids):
    if left > 0:
        step = pattern.relationships[left - 1]
        # Walking leftwards: a forward step arrives at node_ids[0].
        direction = Direction.INCOMING if step.forward else Direction.OUTGOING
        type_id = _type_id(store, step.type)
        if step.type is not None and type_id is None:
            return
        for rel, neighbour in store.expand(node_ids[0], direction, type_id):
            if rel.id in rel_ids:
                continue
            if not _node_matches(store, pattern, left - 1, neighbour):
                continue
            yield from _extend(
                store,
                pattern,
                left - 1,
                right,
                [neighbour] + node_ids,
                [rel.id] + rel_ids,
            )
        return
    if right < pattern.length:
        step = pattern.relationships[right]
        direction = Direction.OUTGOING if step.forward else Direction.INCOMING
        type_id = _type_id(store, step.type)
        if step.type is not None and type_id is None:
            return
        for rel, neighbour in store.expand(node_ids[-1], direction, type_id):
            if rel.id in rel_ids:
                continue
            if not _node_matches(store, pattern, right + 1, neighbour):
                continue
            yield from _extend(
                store,
                pattern,
                left,
                right + 1,
                node_ids + [neighbour],
                rel_ids + [rel.id],
            )
        return
    entry: list[int] = [node_ids[0]]
    for position, rel_id in enumerate(rel_ids):
        entry.append(rel_id)
        entry.append(node_ids[position + 1])
    yield tuple(entry)


def _node_matches(store, pattern, position, node_id) -> bool:
    label = pattern.labels[position]
    if label is None:
        return True
    label_id = store.labels.id_of(label)
    return label_id is not None and store.has_label(node_id, label_id)


def _type_id(store, type_name):
    return store.types.id_of(type_name) if type_name is not None else None
