"""The transaction object: eager additive writes, deferred destructive writes.

Mirrors the Neo4j behaviour the paper depends on: a transaction is bound to
the thread that opened it, all work happens inside it, and marking it
successful before close applies its state through the transaction appliers
(§2.1.4). Deleting a node that still has relationships is refused — the
invariant that lets path index maintenance ignore node deletions (§4.1.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import ConstraintViolationError, TransactionError
from repro.tx.state import (
    PendingLabelRemoval,
    PendingRelationshipDeletion,
    TransactionState,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.graphstore import GraphStore
    from repro.tx.appliers import TransactionApplier
    from repro.tx.manager import TransactionManager


class Transaction:
    """A unit of work against the graph store.

    Use as a context manager::

        with manager.begin() as tx:
            node = tx.create_node(["Person"])
            tx.success()
    """

    def __init__(
        self,
        store: "GraphStore",
        manager: Optional["TransactionManager"] = None,
        appliers: Iterable["TransactionApplier"] = (),
    ) -> None:
        self._store = store
        self._manager = manager
        self._appliers = list(appliers)
        self.state = TransactionState()
        self._successful = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def success(self) -> None:
        """Mark the transaction successful; changes apply on close."""
        self._check_open()
        self._successful = True

    def failure(self) -> None:
        """Mark the transaction failed; changes roll back on close."""
        self._check_open()
        self._successful = False

    def close(self) -> None:
        """Close the transaction, committing or rolling back its state."""
        self._check_open()
        self._closed = True
        try:
            if self._successful:
                self._commit()
            else:
                self._rollback()
        finally:
            if self._manager is not None:
                self._manager._transaction_closed(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._closed:
            return
        if exc_type is not None:
            self._successful = False
        self.close()

    # ------------------------------------------------------------------
    # Write API (token ids; the database facade translates names)
    # ------------------------------------------------------------------

    def create_node(self, label_ids: Iterable[int] = ()) -> int:
        self._check_open()
        label_ids = list(label_ids)
        node_id = self._store.create_node(label_ids)
        self.state.created_nodes.append(node_id)
        self.state.undo_log.append(lambda: self._store.delete_node(node_id))
        self.state.redo_log.append(("create_node", node_id, sorted(label_ids)))
        return node_id

    def create_relationship(self, start: int, end: int, type_id: int) -> int:
        self._check_open()
        rel_id = self._store.create_relationship(start, end, type_id)
        self.state.created_relationships.append(rel_id)
        self.state.undo_log.append(lambda: self._store.delete_relationship(rel_id))
        self.state.redo_log.append(("create_rel", rel_id, start, end, type_id))
        return rel_id

    def add_label(self, node_id: int, label_id: int) -> bool:
        self._check_open()
        added = self._store.add_label(node_id, label_id)
        if added:
            self.state.added_labels.append((node_id, label_id))
            self.state.undo_log.append(
                lambda: self._store.remove_label(node_id, label_id)
            )
            self.state.redo_log.append(("add_label", node_id, label_id))
        return added

    def set_node_property(self, node_id: int, key_id: int, value: object) -> None:
        self._check_open()
        old = self._store.node_property(node_id, key_id)
        self._store.set_node_property(node_id, key_id, value)
        if old is None:
            self.state.undo_log.append(
                lambda: self._store.remove_node_property(node_id, key_id)
            )
        else:
            self.state.undo_log.append(
                lambda: self._store.set_node_property(node_id, key_id, old)
            )
        self.state.redo_log.append(("set_node_prop", node_id, key_id, value))

    def set_relationship_property(
        self, rel_id: int, key_id: int, value: object
    ) -> None:
        self._check_open()
        old = self._store.relationship_property(rel_id, key_id)
        self._store.set_relationship_property(rel_id, key_id, value)
        self.state.undo_log.append(
            lambda: self._store.set_relationship_property(rel_id, key_id, old)
        )
        self.state.redo_log.append(("set_rel_prop", rel_id, key_id, value))

    def delete_relationship(self, rel_id: int) -> None:
        """Defer the deletion to commit (maintenance must see the old paths)."""
        self._check_open()
        if rel_id in self.state.pending_deleted_rel_ids():
            raise TransactionError(f"relationship {rel_id} already deleted")
        record = self._store.relationship(rel_id)
        self.state.deleted_relationships.append(
            PendingRelationshipDeletion(
                rel_id=rel_id,
                type_id=record.type_id,
                start_node=record.start_node,
                end_node=record.end_node,
            )
        )

    def remove_label(self, node_id: int, label_id: int) -> None:
        """Defer the removal to commit (maintenance must see the old label)."""
        self._check_open()
        if not self._store.has_label(node_id, label_id):
            return
        pending = PendingLabelRemoval(node_id=node_id, label_id=label_id)
        if pending not in self.state.removed_labels:
            self.state.removed_labels.append(pending)

    def delete_node(self, node_id: int) -> None:
        """Defer node deletion; refused unless the node ends up disconnected."""
        self._check_open()
        pending = self.state.pending_deleted_rel_ids()
        # A loop contributes one to the degree counter and appears once in
        # the walk, so subtracting the pending deletions is exact.
        live_degree = self._store.degree(node_id) - sum(
            1 for rel in self._store.relationships_of(node_id) if rel.id in pending
        )
        if live_degree > 0:
            raise ConstraintViolationError(
                f"cannot delete node {node_id}: it still has relationships"
            )
        self.state.deleted_nodes.append(node_id)

    # ------------------------------------------------------------------
    # Commit / rollback
    # ------------------------------------------------------------------

    def _commit(self) -> None:
        for applier in self._appliers:
            applier.before_destructive(self.state, self._store)
        for pending in self.state.deleted_relationships:
            self._store.delete_relationship(pending.rel_id)
        for pending in self.state.removed_labels:
            self._store.remove_label(pending.node_id, pending.label_id)
        for node_id in self.state.deleted_nodes:
            self._store.delete_node(node_id)
        for applier in self._appliers:
            applier.after_apply(self.state, self._store)
        # Publish every version this transaction built under one commit
        # LSN — the WAL sequence when durability captured one, else a
        # fresh clock LSN. After this, snapshot readers can see the commit.
        lsn = None
        if self._manager is not None and self._manager.lsn_provider is not None:
            lsn = self._manager.lsn_provider()
        self._store.publish_commit(lsn)
        self.state.clear()

    def _rollback(self) -> None:
        # Destructive ops were never applied; undo the eager additive ones.
        for undo in reversed(self.state.undo_log):
            undo()
        # The eager applies and their undos both wrote PENDING versions.
        # Publish the net-zero result (freshly-allocated ids end up as
        # tombstones, everything else at its pre-transaction value) so no
        # orphaned pending versions outlive the transaction.
        self._store.publish_commit()
        self.state.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise TransactionError("transaction already closed")
