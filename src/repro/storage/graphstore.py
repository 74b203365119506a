"""The property-graph store: Figure 1 of the paper, executable.

Nodes point at a doubly-linked chain of relationship records; each
relationship record is a cell in the chains of both its endpoints. Nodes whose
degree exceeds ``dense_node_threshold`` are converted to *dense* nodes whose
relationships are split into per-type group records with separate
outgoing/incoming/loop chains, enabling type-selective iteration (§2.1.2).

All record reads/writes flow through :class:`~repro.storage.stores.RecordStore`
and therefore touch the simulated page cache, which is what makes the paper's
cold-run experiments reproducible.

The store is multi-versioned (see DESIGN.md §"MVCC snapshots"): every
mutation goes through copy-on-write — a record is never modified in place
once stored; writers take a private copy via ``read_for_update``, mutate it,
and write it back as a new PENDING version. :meth:`GraphStore.publish_commit`
stamps everything a transaction touched (records, label index, degrees,
statistics, path-index deltas) with one commit LSN, so a reader pinned at any
published LSN sees an internally consistent graph without taking a lock.

The store also enforces the Neo4j policy the paper's maintenance design relies
on (§4.1.1): a node with attached relationships can never be deleted, so path
index maintenance only ever has to consider relationship and label updates.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Optional

from repro.errors import ConstraintViolationError, RecordNotFoundError
from repro.storage.pagecache import PageCache
from repro.storage.records import (
    NO_ID,
    NodeRecord,
    PropertyRecord,
    RelationshipGroupRecord,
    RelationshipRecord,
)
from repro.storage.statistics import GraphStatistics
from repro.storage.stores import RecordStore, TokenStore
from repro.storage.versions import VersionClock, VersionedChainMap

DEFAULT_DENSE_NODE_THRESHOLD = 50
"""Degree beyond which a node's relationships are regrouped per type."""


class Direction(enum.Enum):
    """Traversal direction relative to a node."""

    OUTGOING = "OUTGOING"
    INCOMING = "INCOMING"
    BOTH = "BOTH"

    def reverse(self) -> "Direction":
        if self is Direction.OUTGOING:
            return Direction.INCOMING
        if self is Direction.INCOMING:
            return Direction.OUTGOING
        return Direction.BOTH


class GraphStore:
    """Record-level property graph with label index and statistics.

    The mutation API is id-based (token ids for labels/types); the
    :class:`~repro.db.database.GraphDatabase` facade translates names.
    """

    def __init__(
        self,
        page_cache: Optional[PageCache] = None,
        dense_node_threshold: int = DEFAULT_DENSE_NODE_THRESHOLD,
    ) -> None:
        self.page_cache = page_cache if page_cache is not None else PageCache()
        self.dense_node_threshold = dense_node_threshold
        self.mvcc = VersionClock()
        self.nodes: RecordStore[NodeRecord] = RecordStore(
            "neostore.nodestore.db",
            NodeRecord.RECORD_SIZE,
            self.page_cache,
            clock=self.mvcc,
        )
        self.relationships: RecordStore[RelationshipRecord] = RecordStore(
            "neostore.relationshipstore.db",
            RelationshipRecord.RECORD_SIZE,
            self.page_cache,
            clock=self.mvcc,
        )
        self.properties: RecordStore[PropertyRecord] = RecordStore(
            "neostore.propertystore.db",
            PropertyRecord.RECORD_SIZE,
            self.page_cache,
            clock=self.mvcc,
        )
        self.groups: RecordStore[RelationshipGroupRecord] = RecordStore(
            "neostore.relationshipgroupstore.db",
            RelationshipGroupRecord.RECORD_SIZE,
            self.page_cache,
            clock=self.mvcc,
        )
        self.labels = TokenStore("labels")
        self.types = TokenStore("types")
        self.property_keys = TokenStore("property_keys")
        # ``statistics`` is the live (latest) counts writers maintain;
        # copies stamped per commit LSN serve snapshot readers.
        self.statistics = GraphStatistics()
        self._stats_versions: list[tuple[int, GraphStatistics]] = [
            (0, self.statistics.copy())
        ]
        self._stats_dirty = False
        # Built-in label index (Neo4j's label scan store): label -> chain
        # map of node id -> membership events. Buckets are created lazily
        # and never removed, so compiled closures can bind the dict.
        self._label_index: dict[int, VersionedChainMap] = {}
        self._degrees = VersionedChainMap()
        # Dense node: node_id -> {type_id -> group record id}. Writer-only
        # accelerator — snapshot readers walk the group chain from the
        # node record instead, which versions correctly.
        self._group_lookup: dict[int, dict[int, int]] = {}
        # External structures published with the same commit LSN (the
        # path-index store registers itself here).
        self._publishers: list = []

    # ------------------------------------------------------------------
    # MVCC publish / GC
    # ------------------------------------------------------------------

    def register_publisher(self, publisher) -> None:
        """Register an object with ``has_pending()``/``publish(lsn)``/
        ``collect(cutoff)`` to be stamped with every commit LSN."""
        self._publishers.append(publisher)

    def has_pending_versions(self) -> bool:
        return (
            self.nodes.has_pending()
            or self.relationships.has_pending()
            or self.properties.has_pending()
            or self.groups.has_pending()
            or self._degrees.has_pending()
            or self._stats_dirty
            or any(bucket.has_pending() for bucket in list(self._label_index.values()))
            or any(publisher.has_pending() for publisher in self._publishers)
        )

    def publish_commit(self, lsn: Optional[int] = None) -> Optional[int]:
        """Atomically publish everything pending under one commit LSN.

        ``lsn`` is the WAL sequence number for durable databases; when
        omitted (non-durable) a fresh LSN comes from the version clock.
        Every pending version — records, label-index and degree events,
        the statistics copy, and registered path-index deltas — is stamped
        *before* the clock's published watermark advances, so no snapshot
        can pin a half-published commit. Returns the LSN, or None when the
        commit changed nothing (publishing nothing keeps counter LSNs from
        colliding with future WAL sequence numbers).
        """
        if not self.has_pending_versions():
            return None
        if lsn is None:
            lsn = self.mvcc.next_lsn()
        self.nodes.publish(lsn)
        self.relationships.publish(lsn)
        self.properties.publish(lsn)
        self.groups.publish(lsn)
        for bucket in list(self._label_index.values()):
            bucket.publish(lsn)
        self._degrees.publish(lsn)
        if self._stats_dirty:
            self._stats_versions.append((lsn, self.statistics.copy()))
            self._stats_dirty = False
        for publisher in self._publishers:
            publisher.publish(lsn)
        self.mvcc.publish(lsn)
        return lsn

    def collect_versions(self) -> dict[str, int]:
        """Reclaim version chains no live snapshot can reach.

        Safe to run concurrently with lock-free readers: every structure
        swaps lists/dict entries atomically and any reader still holding a
        pre-swap list resolves correctly from it. Returns GC counters.
        """
        cutoff = self.mvcc.gc_cutoff()
        reclaimed = (
            self.nodes.collect_versions(cutoff)
            + self.relationships.collect_versions(cutoff)
            + self.properties.collect_versions(cutoff)
            + self.groups.collect_versions(cutoff)
        )
        reclaimed += self._degrees.collect(cutoff)
        for bucket in list(self._label_index.values()):
            reclaimed += bucket.collect(cutoff)
        versions = self._stats_versions
        keep_from = 0
        for index in range(len(versions) - 1, -1, -1):
            if versions[index][0] <= cutoff:
                keep_from = index
                break
        if keep_from > 0:
            self._stats_versions = versions[keep_from:]
            reclaimed += keep_from
        folded = 0
        for publisher in self._publishers:
            folded += publisher.collect(cutoff)
        return {"cutoff": cutoff, "reclaimed": reclaimed, "folded": folded}

    def version_stats(self) -> dict[str, int]:
        """Retained-version counts for the metrics endpoint."""
        history = (
            self.nodes.version_count()
            + self.relationships.version_count()
            + self.properties.version_count()
            + self.groups.version_count()
        )
        chains = self._degrees.version_count()
        for bucket in list(self._label_index.values()):
            chains += bucket.version_count()
        deltas = sum(
            publisher.delta_count() for publisher in self._publishers
        )
        return {
            "record_versions": history,
            "chain_versions": chains,
            "index_deltas": deltas,
            # The base statistics copy is the current value, not history.
            "stats_versions": max(0, len(self._stats_versions) - 1),
        }

    def statistics_view(self) -> GraphStatistics:
        """The statistics consistent with this thread's read view."""
        lsn = self.mvcc.reading_lsn()
        if lsn is None:
            return self.statistics
        versions = self._stats_versions
        for version_lsn, stats in reversed(versions):
            if version_lsn <= lsn:
                return stats
        return versions[0][1]

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def create_node(
        self, label_ids: Iterable[int] = (), node_id: Optional[int] = None
    ) -> int:
        """Create a node with the given labels; returns its id.

        ``node_id`` forces a specific id (WAL replay)."""
        labels = frozenset(label_ids)
        node_id = self.nodes.allocate_id(requested=node_id)
        self.nodes.write(node_id, NodeRecord(id=node_id, labels=labels))
        self._degrees.record(node_id, 0)
        for label_id in labels:
            self._label_bucket(label_id).record(node_id, True)
        self.statistics.node_added(labels)
        self._stats_dirty = True
        return node_id

    def delete_node(self, node_id: int) -> None:
        """Delete a node; refuses while relationships are attached."""
        record = self.nodes.read(node_id)
        if self._degrees.latest(node_id, 0) > 0:
            raise ConstraintViolationError(
                f"cannot delete node {node_id}: it still has relationships"
            )
        self._free_property_chain(record.first_prop)
        for label_id in record.labels:
            bucket = self._label_index.get(label_id)
            if bucket is not None:
                bucket.record(node_id, False)
        self.statistics.node_removed(record.labels)
        self._stats_dirty = True
        self.nodes.free(node_id)
        self._group_lookup.pop(node_id, None)

    def node(self, node_id: int) -> NodeRecord:
        return self.nodes.read(node_id)

    def node_exists(self, node_id: int) -> bool:
        return self.nodes.exists(node_id)

    def node_labels(self, node_id: int) -> frozenset[int]:
        return self.nodes.read(node_id).labels

    def has_label(self, node_id: int, label_id: int) -> bool:
        return label_id in self.nodes.read(node_id).labels

    def add_label(self, node_id: int, label_id: int) -> bool:
        """Add a label; returns False if the node already had it."""
        record = self.nodes.read(node_id)
        if label_id in record.labels:
            return False
        record = self.nodes.read_for_update(node_id)
        record.labels = record.labels | {label_id}
        self.nodes.write(node_id, record)
        self._label_bucket(label_id).record(node_id, True)
        self.statistics.label_added(label_id)
        self._stats_dirty = True
        self._stats_relabel(node_id, label_id, added=True)
        return True

    def remove_label(self, node_id: int, label_id: int) -> bool:
        """Remove a label; returns False if the node did not have it."""
        record = self.nodes.read(node_id)
        if label_id not in record.labels:
            return False
        record = self.nodes.read_for_update(node_id)
        record.labels = record.labels - {label_id}
        self.nodes.write(node_id, record)
        bucket = self._label_index.get(label_id)
        if bucket is not None:
            bucket.record(node_id, False)
        self.statistics.label_removed(label_id)
        self._stats_dirty = True
        self._stats_relabel(node_id, label_id, added=False)
        return True

    def all_nodes(self) -> Iterator[int]:
        """Scan all node ids in store order (AllNodesScan)."""
        return self.nodes.ids_in_use()

    def nodes_with_label(self, label_id: int) -> Iterator[int]:
        """Scan node ids via the built-in label index (NodeByLabelScan),
        touching each member's node-record page like the real scan store
        would. Membership is the index's, resolved at the ambient snapshot;
        the record itself is not read."""
        bucket = self._label_index.get(label_id)
        if bucket is None:
            return
        nodes = self.nodes
        name, record_size = nodes.name, nodes.record_size
        page_size = self.page_cache.page_size
        touch_page = self.page_cache.touch_page
        value_at = bucket.value_at
        lsn = self.mvcc.reading_lsn()
        for node_id in bucket.keys():
            if value_at(node_id, lsn, False):
                touch_page(name, node_id * record_size // page_size)
                yield node_id

    def degree(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        type_id: Optional[int] = None,
    ) -> int:
        """Degree of ``node_id``, honouring direction and type filters.

        O(1) for BOTH/any-type (the degree counter), and for dense nodes
        also with a direction and/or ``type_id`` filter via the
        relationship-group counts (one group record read per type, no chain
        walk). Sparse nodes with a filter walk their chain, which the dense
        threshold bounds. Loops count once in every direction, matching
        :meth:`relationships_of`.
        """
        if direction is Direction.BOTH and type_id is None:
            if not self.nodes.exists(node_id):
                raise RecordNotFoundError(f"no node {node_id}")
            return self._degrees.value_at(node_id, self.mvcc.reading_lsn(), 0)
        record = self.nodes.read(node_id)
        if not record.dense:
            heads = (record.first_rel,)
            return sum(1 for _ in self._walk(node_id, direction, type_id, heads))
        if type_id is None:
            groups = self._groups(record.first_rel)
            return sum(self._group_degree(group, direction) for group in groups)
        if self.mvcc.reading_lsn() is None:
            group_id = self._group_lookup.get(node_id, {}).get(type_id)
            if group_id is None:
                return 0
            return self._group_degree(self.groups.read(group_id), direction)
        # Snapshot readers walk the (versioned) group chain from the node
        # record: the writer-side lookup dict is neither versioned nor
        # stable across node deletion.
        for group in self._groups(record.first_rel):
            if group.type_id == type_id:
                return self._group_degree(group, direction)
        return 0

    def _chain_length(self, head: int, node_id: int) -> int:
        return sum(1 for _ in self._walk(node_id, Direction.BOTH, None, (head,)))

    @staticmethod
    def _group_degree(group: RelationshipGroupRecord, direction: Direction) -> int:
        if direction is Direction.OUTGOING:
            return group.count_out + group.count_loop
        if direction is Direction.INCOMING:
            return group.count_in + group.count_loop
        return group.count_out + group.count_in + group.count_loop

    def _label_bucket(self, label_id: int) -> VersionedChainMap:
        bucket = self._label_index.get(label_id)
        if bucket is None:
            self._label_index[label_id] = bucket = VersionedChainMap()
        return bucket

    # ------------------------------------------------------------------
    # Relationships
    # ------------------------------------------------------------------

    def create_relationship(
        self, start: int, end: int, type_id: int, rel_id: Optional[int] = None
    ) -> int:
        """Create ``(start)-[:type]->(end)``; returns the relationship id.

        ``rel_id`` forces a specific id (WAL replay)."""
        start_record = self.nodes.read_for_update(start)
        end_record = self.nodes.read_for_update(end)
        rel_id = self.relationships.allocate_id(requested=rel_id)
        rel = RelationshipRecord(
            id=rel_id, type_id=type_id, start_node=start, end_node=end
        )
        self.relationships.write(rel_id, rel)
        self._link_into_chain(rel, start, start_record)
        if start != end:
            self._link_into_chain(rel, end, end_record)
        self._degrees.record(start, self._degrees.latest(start, 0) + 1)
        if start != end:
            self._degrees.record(end, self._degrees.latest(end, 0) + 1)
        self._maybe_densify(start)
        if start != end:
            self._maybe_densify(end)
        self.statistics.relationship_added(
            type_id, start_record.labels, end_record.labels
        )
        self._stats_dirty = True
        return rel_id

    def delete_relationship(self, rel_id: int) -> None:
        """Delete a relationship, unlinking it from both endpoint chains."""
        rel = self.relationships.read(rel_id)
        self._unlink_from_chain(rel, rel.start_node)
        if rel.start_node != rel.end_node:
            self._unlink_from_chain(rel, rel.end_node)
        self._free_property_chain(rel.first_prop)
        self._degrees.record(
            rel.start_node, self._degrees.latest(rel.start_node, 0) - 1
        )
        if rel.start_node != rel.end_node:
            self._degrees.record(
                rel.end_node, self._degrees.latest(rel.end_node, 0) - 1
            )
        start_labels = self.nodes.read(rel.start_node).labels
        end_labels = self.nodes.read(rel.end_node).labels
        self.statistics.relationship_removed(rel.type_id, start_labels, end_labels)
        self._stats_dirty = True
        self.relationships.free(rel_id)

    def relationship(self, rel_id: int) -> RelationshipRecord:
        return self.relationships.read(rel_id)

    def relationship_exists(self, rel_id: int) -> bool:
        return self.relationships.exists(rel_id)

    def all_relationships(self) -> Iterator[int]:
        """Scan all relationship ids in store order."""
        return self.relationships.ids_in_use()

    def relationships_of(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        type_id: Optional[int] = None,
    ) -> Iterator[RelationshipRecord]:
        """Iterate relationships incident to ``node_id`` (see :meth:`expand`)."""
        return (rel for rel, _ in self._walk(node_id, direction, type_id))

    def expand(
        self,
        node_id: int,
        direction: Direction,
        type_id: Optional[int] = None,
    ) -> Iterator[tuple[RelationshipRecord, int]]:
        """Yield ``(relationship, neighbour_id)`` pairs for an Expand step.

        For dense nodes, a ``type_id`` filter only walks the matching group's
        chains; sparse nodes walk their single chain and filter. Loops are
        incident in every direction and their neighbour is ``node_id``.
        """
        return self._walk(node_id, direction, type_id)

    def _walk(
        self,
        node_id: int,
        direction: Direction,
        type_id: Optional[int],
        heads: Optional[Iterable[int]] = None,
    ) -> Iterator[tuple[RelationshipRecord, int]]:
        """The store's one relationship-chain walk; every reader of a chain
        — queries, Algorithm 1, degrees, densify, restore — goes here.

        Walks the chains starting at ``heads`` (default: the node's own
        chain, or its matching group chains when dense). Each record
        resolves with :meth:`RecordStore.try_read`'s visibility rule against
        the ambient snapshot, sampled once per walk. Page ids are collected
        and issued as one :meth:`PageCache.touch_pages` batch, flushed before
        every yield, every raise and every group read, so the cache sees the
        same ``(file, page)`` sequence as one ``read`` per record — even when
        the consumer stops early.
        """
        if heads is None:
            record = self.nodes.read(node_id)
            heads = (
                self._group_heads(record.first_rel, direction, type_id)
                if record.dense
                else (record.first_rel,)
            )
        store = self.relationships
        slots = store._records
        name = store.name
        record_size = store.record_size
        page_size = self.page_cache.page_size
        touch_pages = self.page_cache.touch_pages
        lsn = self.mvcc.reading_lsn()
        out_ok = direction is not Direction.INCOMING
        in_ok = direction is not Direction.OUTGOING
        for pointer in heads:
            pages: list[int] = []
            while pointer != NO_ID:
                slot = slots[pointer] if pointer < len(slots) else None
                rel = None
                if slot is not None:
                    pages.append(pointer * record_size // page_size)
                    if lsn is None or slot[0] <= lsn:
                        rel = slot[1]
                    else:
                        rel = store.historic(pointer, lsn)
                if rel is None:
                    touch_pages(name, pages)
                    raise RecordNotFoundError(f"{name}: no record {pointer}")
                start = rel.start_node
                if node_id == start:
                    pointer = rel.start_next
                    neighbour = rel.end_node
                    wanted = out_ok or neighbour == start
                else:
                    pointer = rel.end_next
                    neighbour = start
                    wanted = in_ok
                if wanted and (type_id is None or rel.type_id == type_id):
                    touch_pages(name, pages)
                    pages = []
                    yield rel, neighbour
            if pages:
                touch_pages(name, pages)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    def set_node_property(self, node_id: int, key_id: int, value: object) -> None:
        record = self.nodes.read_for_update(node_id)
        record.first_prop = self._chain_set(record.first_prop, key_id, value)
        self.nodes.write(node_id, record)

    def node_property(self, node_id: int, key_id: int) -> object:
        return self._chain_get(self.nodes.read(node_id).first_prop, key_id)

    def remove_node_property(self, node_id: int, key_id: int) -> None:
        record = self.nodes.read_for_update(node_id)
        record.first_prop = self._chain_remove(record.first_prop, key_id)
        self.nodes.write(node_id, record)

    def node_properties(self, node_id: int) -> dict[int, object]:
        return self._chain_all(self.nodes.read(node_id).first_prop)

    def set_relationship_property(
        self, rel_id: int, key_id: int, value: object
    ) -> None:
        rel = self.relationships.read_for_update(rel_id)
        rel.first_prop = self._chain_set(rel.first_prop, key_id, value)
        self.relationships.write(rel_id, rel)

    def relationship_property(self, rel_id: int, key_id: int) -> object:
        return self._chain_get(self.relationships.read(rel_id).first_prop, key_id)

    def relationship_properties(self, rel_id: int) -> dict[int, object]:
        return self._chain_all(self.relationships.read(rel_id).first_prop)

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    def size_on_disk(self) -> int:
        """Total bytes of all graph store files (excludes indexes, like §6.3)."""
        return (
            self.nodes.size_on_disk()
            + self.relationships.size_on_disk()
            + self.properties.size_on_disk()
            + self.groups.size_on_disk()
        )

    # ------------------------------------------------------------------
    # Chain plumbing (sparse nodes)
    # ------------------------------------------------------------------

    def _link_into_chain(
        self, rel: RelationshipRecord, node_id: int, node_record: NodeRecord
    ) -> None:
        if node_record.dense:
            self._link_into_group(rel, node_id)
            return
        head = node_record.first_rel
        self._set_chain_pointers(rel, node_id, prev=NO_ID, next_=head)
        if head != NO_ID:
            old_head = self.relationships.read_for_update(head)
            self._set_chain_prev(old_head, node_id, rel.id)
            self.relationships.write(head, old_head)
        node_record.first_rel = rel.id
        self.nodes.write(node_id, node_record)
        self.relationships.write(rel.id, rel)

    def _unlink_from_chain(self, rel: RelationshipRecord, node_id: int) -> None:
        node_record = self.nodes.read(node_id)
        if node_record.dense:
            self._unlink_from_group(rel, node_id)
            return
        prev_id = self._chain_prev(rel, node_id)
        next_id = rel.chain_next(node_id)
        if prev_id != NO_ID:
            prev = self.relationships.read_for_update(prev_id)
            self._set_chain_next(prev, node_id, next_id)
            self.relationships.write(prev_id, prev)
        else:
            node_record = self.nodes.read_for_update(node_id)
            node_record.first_rel = next_id
            self.nodes.write(node_id, node_record)
        if next_id != NO_ID:
            nxt = self.relationships.read_for_update(next_id)
            self._set_chain_prev(nxt, node_id, prev_id)
            self.relationships.write(next_id, nxt)

    @staticmethod
    def _set_chain_pointers(
        rel: RelationshipRecord, node_id: int, prev: int, next_: int
    ) -> None:
        if node_id == rel.start_node:
            rel.start_prev, rel.start_next = prev, next_
        else:
            rel.end_prev, rel.end_next = prev, next_

    @staticmethod
    def _chain_prev(rel: RelationshipRecord, node_id: int) -> int:
        return rel.start_prev if node_id == rel.start_node else rel.end_prev

    @staticmethod
    def _set_chain_prev(rel: RelationshipRecord, node_id: int, prev: int) -> None:
        if node_id == rel.start_node:
            rel.start_prev = prev
        else:
            rel.end_prev = prev

    @staticmethod
    def _set_chain_next(rel: RelationshipRecord, node_id: int, next_: int) -> None:
        if node_id == rel.start_node:
            rel.start_next = next_
        else:
            rel.end_next = next_

    # ------------------------------------------------------------------
    # Dense nodes: relationship groups
    # ------------------------------------------------------------------

    def _maybe_densify(self, node_id: int) -> None:
        record = self.nodes.read(node_id)
        if record.dense or self._degrees.latest(node_id, 0) <= self.dense_node_threshold:
            return
        # Collect the existing chain as private copies, then rebuild as
        # per-type groups. The stored versions stay untouched for readers.
        rels = [
            self.relationships.read_for_update(rel.id)
            for rel in self.relationships_of(node_id)
        ]
        record = self.nodes.read_for_update(node_id)
        record.dense = True
        record.first_rel = NO_ID
        self.nodes.write(node_id, record)
        self._group_lookup[node_id] = {}
        for rel in rels:
            self._set_chain_pointers(rel, node_id, NO_ID, NO_ID)
            if rel.start_node == rel.end_node:
                rel.end_prev = rel.end_next = NO_ID
            self.relationships.write(rel.id, rel)
            self._link_into_group(rel, node_id)

    def _group_for(self, node_id: int, type_id: int) -> RelationshipGroupRecord:
        lookup = self._group_lookup.setdefault(node_id, {})
        group_id = lookup.get(type_id)
        if group_id is not None:
            return self.groups.read_for_update(group_id)
        group_id = self.groups.allocate_id()
        node_record = self.nodes.read_for_update(node_id)
        group = RelationshipGroupRecord(
            id=group_id,
            owning_node=node_id,
            type_id=type_id,
            next_group=node_record.first_rel,
        )
        self.groups.write(group_id, group)
        node_record.first_rel = group_id
        self.nodes.write(node_id, node_record)
        lookup[type_id] = group_id
        return group

    @staticmethod
    def _group_chain(rel: RelationshipRecord, node_id: int) -> tuple[str, str]:
        """The (head, count) attribute pair of ``rel`` in ``node_id``'s group."""
        if rel.start_node == rel.end_node:
            return "first_loop", "count_loop"
        if node_id == rel.start_node:
            return "first_out", "count_out"
        return "first_in", "count_in"

    def _link_into_group(self, rel: RelationshipRecord, node_id: int) -> None:
        group = self._group_for(node_id, rel.type_id)
        head_attr, count_attr = self._group_chain(rel, node_id)
        head = getattr(group, head_attr)
        self._set_chain_pointers(rel, node_id, prev=NO_ID, next_=head)
        if head != NO_ID:
            old_head = self.relationships.read_for_update(head)
            self._set_chain_prev(old_head, node_id, rel.id)
            self.relationships.write(head, old_head)
        setattr(group, head_attr, rel.id)
        setattr(group, count_attr, getattr(group, count_attr) + 1)
        self.groups.write(group.id, group)
        self.relationships.write(rel.id, rel)

    def _unlink_from_group(self, rel: RelationshipRecord, node_id: int) -> None:
        group_id = self._group_lookup[node_id][rel.type_id]
        group = self.groups.read_for_update(group_id)
        head_attr, count_attr = self._group_chain(rel, node_id)
        prev_id = self._chain_prev(rel, node_id)
        next_id = rel.chain_next(node_id)
        if prev_id != NO_ID:
            prev = self.relationships.read_for_update(prev_id)
            self._set_chain_next(prev, node_id, next_id)
            self.relationships.write(prev_id, prev)
        else:
            setattr(group, head_attr, next_id)
        setattr(group, count_attr, getattr(group, count_attr) - 1)
        # The count changed even when the head pointer did not, so the
        # group record is always written back.
        self.groups.write(group_id, group)
        if next_id != NO_ID:
            nxt = self.relationships.read_for_update(next_id)
            self._set_chain_prev(nxt, node_id, prev_id)
            self.relationships.write(next_id, nxt)

    def _groups(self, group_ptr: int) -> Iterator[RelationshipGroupRecord]:
        """A dense node's group records, read one by one as consumed."""
        while group_ptr != NO_ID:
            group = self.groups.read(group_ptr)
            yield group
            group_ptr = group.next_group

    def _group_heads(
        self, first_group: int, direction: Direction, type_id: Optional[int]
    ) -> Iterator[int]:
        """Heads of a dense node's chains that can hold matches: per group
        of the wanted type, the out and/or in chain plus the loop chain."""
        for group in self._groups(first_group):
            if type_id is None or group.type_id == type_id:
                if direction is not Direction.INCOMING:
                    yield group.first_out
                if direction is not Direction.OUTGOING:
                    yield group.first_in
                yield group.first_loop

    # ------------------------------------------------------------------
    # Property chains
    # ------------------------------------------------------------------

    def _chain_set(self, head: int, key_id: int, value: object) -> int:
        ptr = head
        while ptr != NO_ID:
            prop = self.properties.read(ptr)
            if prop.key_id == key_id:
                prop = self.properties.read_for_update(ptr)
                prop.value = value
                self.properties.write(ptr, prop)
                return head
            ptr = prop.next_prop
        prop_id = self.properties.allocate_id()
        self.properties.write(
            prop_id,
            PropertyRecord(id=prop_id, key_id=key_id, value=value, next_prop=head),
        )
        if head != NO_ID:
            old = self.properties.read_for_update(head)
            old.prev_prop = prop_id
            self.properties.write(head, old)
        return prop_id

    def _chain_get(self, head: int, key_id: int) -> object:
        ptr = head
        while ptr != NO_ID:
            prop = self.properties.read(ptr)
            if prop.key_id == key_id:
                return prop.value
            ptr = prop.next_prop
        return None

    def _chain_remove(self, head: int, key_id: int) -> int:
        ptr = head
        while ptr != NO_ID:
            prop = self.properties.read(ptr)
            if prop.key_id == key_id:
                if prop.prev_prop != NO_ID:
                    prev = self.properties.read_for_update(prop.prev_prop)
                    prev.next_prop = prop.next_prop
                    self.properties.write(prev.id, prev)
                else:
                    head = prop.next_prop
                if prop.next_prop != NO_ID:
                    nxt = self.properties.read_for_update(prop.next_prop)
                    nxt.prev_prop = prop.prev_prop
                    self.properties.write(nxt.id, nxt)
                self.properties.free(ptr)
                return head
            ptr = prop.next_prop
        return head

    def _chain_all(self, head: int) -> dict[int, object]:
        result: dict[int, object] = {}
        ptr = head
        while ptr != NO_ID:
            prop = self.properties.read(ptr)
            result[prop.key_id] = prop.value
            ptr = prop.next_prop
        return result

    def _free_property_chain(self, head: int) -> None:
        ptr = head
        while ptr != NO_ID:
            prop = self.properties.read(ptr)
            next_ptr = prop.next_prop
            self.properties.free(ptr)
            ptr = next_ptr

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def rebuild_derived_state(self) -> None:
        """Recompute every structure derivable from the raw records: the
        label index, degree counters, dense-node group lookup and the
        statistics counts. Used after a snapshot restore.

        Clears the label index and degree maps in place (compiled
        closures bind the dict objects) and re-seals the version base at
        LSN 0 so the restored state is what every later snapshot builds on.
        """
        self._label_index.clear()
        self._degrees.clear()
        self._group_lookup.clear()
        self.statistics = GraphStatistics()
        degrees: dict[int, int] = {}
        for node_id in self.nodes.ids_in_use():
            record = self.nodes.read(node_id)
            degrees[node_id] = 0
            for label_id in record.labels:
                self._label_bucket(label_id).seed(node_id, True)
            self.statistics.node_added(record.labels)
            if record.dense:
                lookup = self._group_lookup.setdefault(node_id, {})
                group_ptr = record.first_rel
                while group_ptr != NO_ID:
                    group = self.groups.read_for_update(group_ptr)
                    lookup[group.type_id] = group.id
                    # Recompute chain counts from the chains themselves so
                    # snapshots predating the counters restore correctly.
                    group.count_out = self._chain_length(group.first_out, node_id)
                    group.count_in = self._chain_length(group.first_in, node_id)
                    group.count_loop = self._chain_length(group.first_loop, node_id)
                    self.groups.write(group.id, group)
                    group_ptr = group.next_group
        for rel_id in self.relationships.ids_in_use():
            record = self.relationships.read(rel_id)
            degrees[record.start_node] += 1
            if record.start_node != record.end_node:
                degrees[record.end_node] += 1
            self.statistics.relationship_added(
                record.type_id,
                self.nodes.read(record.start_node).labels,
                self.nodes.read(record.end_node).labels,
            )
        for node_id, degree in degrees.items():
            self._degrees.seed(node_id, degree)
        self._reset_version_base()

    def _reset_version_base(self) -> None:
        """Stamp everything pending at LSN 0 — the post-restore base."""
        self.nodes.publish(0)
        self.relationships.publish(0)
        self.properties.publish(0)
        self.groups.publish(0)
        for bucket in list(self._label_index.values()):
            bucket.publish(0)
        self._degrees.publish(0)
        self._stats_versions = [(0, self.statistics.copy())]
        self._stats_dirty = False

    # ------------------------------------------------------------------
    # Statistics upkeep for label changes on connected nodes
    # ------------------------------------------------------------------

    def _stats_relabel(self, node_id: int, label_id: int, added: bool) -> None:
        """Adjust directional rel counts when a connected node changes labels."""
        for rel in self.relationships_of(node_id):
            if rel.start_node == node_id:
                key = (label_id, rel.type_id)
                if added:
                    self.statistics.rels_by_start_label_type[key] += 1
                else:
                    GraphStatistics._dec(
                        self.statistics.rels_by_start_label_type, key
                    )
            if rel.end_node == node_id:
                key = (rel.type_id, label_id)
                if added:
                    self.statistics.rels_by_type_end_label[key] += 1
                else:
                    GraphStatistics._dec(
                        self.statistics.rels_by_type_end_label, key
                    )
