"""Transaction state: the delta a transaction will commit.

Additive entries record what was already applied eagerly (for the undo log);
destructive entries record what remains to be applied at commit. Path index
maintenance consumes both: removals are translated to index updates *before*
the store changes, additions *after* (paper §4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PendingRelationshipDeletion:
    """A relationship deletion deferred to commit time."""

    rel_id: int
    type_id: int
    start_node: int
    end_node: int


@dataclass(frozen=True)
class PendingLabelRemoval:
    """A label removal deferred to commit time."""

    node_id: int
    label_id: int


@dataclass
class TransactionState:
    """Accumulated write commands of one transaction."""

    # Additive (already applied to the store, kept for undo + maintenance).
    created_nodes: list[int] = field(default_factory=list)
    created_relationships: list[int] = field(default_factory=list)
    added_labels: list[tuple[int, int]] = field(default_factory=list)  # (node, label)

    # Destructive (deferred until commit).
    deleted_relationships: list[PendingRelationshipDeletion] = field(
        default_factory=list
    )
    removed_labels: list[PendingLabelRemoval] = field(default_factory=list)
    deleted_nodes: list[int] = field(default_factory=list)

    # Undo log of callables reverting eagerly-applied operations, in order.
    undo_log: list = field(default_factory=list)

    # Redo log for durability: every eagerly-applied additive operation as a
    # string-tagged tuple in call order (destructive operations are derived
    # from the pending lists at commit). Consumed by repro.durability.
    redo_log: list[tuple] = field(default_factory=list)

    def pending_deleted_rel_ids(self) -> set[int]:
        return {pending.rel_id for pending in self.deleted_relationships}

    def clear(self) -> None:
        self.created_nodes.clear()
        self.created_relationships.clear()
        self.added_labels.clear()
        self.deleted_relationships.clear()
        self.removed_labels.clear()
        self.deleted_nodes.clear()
        self.undo_log.clear()
        self.redo_log.clear()
