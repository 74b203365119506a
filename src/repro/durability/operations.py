"""Logical log records: what a commit writes and how replay applies it.

A committed transaction becomes one **commit record** holding, in exact
live-execution order:

* the *token suffix* — every label/type/property-key name registered since
  the last logged state (token registries are append-only, so replaying the
  suffixes in record order reproduces identical token ids),
* the *additive operations* in original call order (from
  ``TransactionState.redo_log``), then the *destructive operations* in
  commit-application order — replaying in this order reproduces the exact
  id-allocation sequence of the live run,
* the *path-index deltas* the maintenance applier actually performed
  (Algorithm 1's output), so recovery restores index contents without
  re-running maintenance queries.

Index DDL (create/drop) is logged as a separate **DDL record**; replaying a
``create_index`` re-runs Algorithm 2 initialization against the replayed
store, which at that point in the record stream is byte-identical to the
live store at DDL time, hence produces the same entries.

Replay applies operations through the public :class:`GraphStore` mutation
API, which maintains the label index, degree counters, dense-node groups
and — critically for the planner — :class:`GraphStatistics` exactly the way
live execution does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.durability.encoding import decode_value, encode_value
from repro.errors import DurabilityError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import GraphDatabase
    from repro.tx.state import TransactionState

REC_COMMIT = 1
REC_DDL = 2

OP_CREATE_NODE = 1
OP_CREATE_REL = 2
OP_ADD_LABEL = 3
OP_SET_NODE_PROP = 4
OP_SET_REL_PROP = 5
OP_DELETE_REL = 6
OP_REMOVE_LABEL = 7
OP_DELETE_NODE = 8

_OP_CODES = {
    "create_node": OP_CREATE_NODE,
    "create_rel": OP_CREATE_REL,
    "add_label": OP_ADD_LABEL,
    "set_node_prop": OP_SET_NODE_PROP,
    "set_rel_prop": OP_SET_REL_PROP,
    "delete_rel": OP_DELETE_REL,
    "remove_label": OP_REMOVE_LABEL,
    "delete_node": OP_DELETE_NODE,
}

CHANGE_ADD = 0
CHANGE_REMOVE = 1


def collect_operations(state: "TransactionState") -> list[tuple]:
    """One transaction's operations in live-application order.

    Additive operations were applied eagerly in call order (the redo log);
    destructive operations were deferred and applied at commit in list
    order — the same order ``Transaction._commit`` uses.
    """
    ops: list[tuple] = list(state.redo_log)
    for pending in state.deleted_relationships:
        ops.append(("delete_rel", pending.rel_id))
    for pending in state.removed_labels:
        ops.append(("remove_label", pending.node_id, pending.label_id))
    for node_id in state.deleted_nodes:
        ops.append(("delete_node", node_id))
    return ops


def encode_commit_record(
    seq: int,
    new_labels: Iterable[str],
    new_types: Iterable[str],
    new_keys: Iterable[str],
    ops: Iterable[tuple],
    index_changes: Iterable[tuple[str, str, tuple[int, ...]]],
) -> bytes:
    """Serialize one commit record payload (type byte + codec body)."""
    encoded_ops = []
    for op in ops:
        code = _OP_CODES.get(op[0])
        if code is None:
            raise DurabilityError(f"unknown logical operation {op[0]!r}")
        encoded_ops.append([code, *[_listify(arg) for arg in op[1:]]])
    encoded_changes = []
    for action, index_name, entry in index_changes:
        if action == "add":
            change = CHANGE_ADD
        elif action == "remove":
            change = CHANGE_REMOVE
        else:
            raise DurabilityError(f"unknown index change {action!r}")
        encoded_changes.append([change, index_name, list(entry)])
    body = [
        seq,
        list(new_labels),
        list(new_types),
        list(new_keys),
        encoded_ops,
        encoded_changes,
    ]
    return bytes([REC_COMMIT]) + encode_value(body)


def encode_ddl_record(
    seq: int, kind: str, name: str, pattern: str, populate: bool
) -> bytes:
    # The fifth field once flagged a partially materialized index; it stays
    # (always False) so the record layout and its bytes do not change.
    return bytes([REC_DDL]) + encode_value(
        [seq, kind, name, pattern, False, populate]
    )


def partial_index_refused(name: str) -> DurabilityError:
    """The error for a stored index marked partially materialized."""
    return DurabilityError(
        f"path index {name!r} is stored as partially materialized; "
        "partial path indexes were removed and cannot be restored"
    )


def _listify(value: Any) -> Any:
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    return value


def decode_record(payload: bytes) -> tuple[int, list]:
    """Split a payload into (record type, decoded body)."""
    if not payload:
        raise DurabilityError("empty log record")
    record_type = payload[0]
    if record_type not in (REC_COMMIT, REC_DDL):
        raise DurabilityError(f"unknown log record type {record_type}")
    return record_type, decode_value(payload[1:])


def record_seq(body: list) -> int:
    return int(body[0])


def apply_commit_record(db: "GraphDatabase", body: list) -> None:
    """Replay one commit record against a recovering database."""
    _seq, new_labels, new_types, new_keys, ops, index_changes = body
    store = db.store
    for name in new_labels:
        store.labels.get_or_create(name)
    for name in new_types:
        store.types.get_or_create(name)
    for name in new_keys:
        store.property_keys.get_or_create(name)
    for op in ops:
        code = op[0]
        if code == OP_CREATE_NODE:
            node_id, label_ids = op[1], op[2]
            got = store.create_node(label_ids, node_id=node_id)
            if got != node_id:
                raise DurabilityError(
                    f"replay allocated node {got}, log says {node_id}"
                )
        elif code == OP_CREATE_REL:
            rel_id, start, end, type_id = op[1], op[2], op[3], op[4]
            got = store.create_relationship(start, end, type_id, rel_id=rel_id)
            if got != rel_id:
                raise DurabilityError(
                    f"replay allocated relationship {got}, log says {rel_id}"
                )
        elif code == OP_ADD_LABEL:
            store.add_label(op[1], op[2])
        elif code == OP_SET_NODE_PROP:
            store.set_node_property(op[1], op[2], op[3])
        elif code == OP_SET_REL_PROP:
            store.set_relationship_property(op[1], op[2], op[3])
        elif code == OP_DELETE_REL:
            store.delete_relationship(op[1])
        elif code == OP_REMOVE_LABEL:
            store.remove_label(op[1], op[2])
        elif code == OP_DELETE_NODE:
            store.delete_node(op[1])
        else:
            raise DurabilityError(f"unknown logical opcode {code}")
    for change, index_name, entry in index_changes:
        index = db.indexes.get(index_name)
        if change == CHANGE_ADD:
            index.add(tuple(entry))
        elif change == CHANGE_REMOVE:
            index.remove(tuple(entry))
        else:
            raise DurabilityError(f"unknown index change code {change}")


def apply_ddl_record(db: "GraphDatabase", body: list) -> None:
    """Replay one index DDL record (create re-runs Algorithm 2)."""
    _seq, kind, name, pattern, partial, populate = body
    if partial:
        raise partial_index_refused(name)
    if kind == "create_index":
        db.create_path_index(name, pattern, populate=populate)
    elif kind == "drop_index":
        db.drop_path_index(name)
    else:
        raise DurabilityError(f"unknown DDL kind {kind!r}")
