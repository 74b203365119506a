"""Snapshot persistence: save a database to a directory and load it back.

The paper's prototype inherits Neo4j's on-disk stores; this reproduction
keeps records in memory, so baseline durability comes from explicit
snapshots (and the durability engine builds checkpoints out of the same
format — see :mod:`repro.durability.engine`). A snapshot directory holds
JSON-lines files mirroring the record stores plus every path index's
pattern and verbatim entry list — restoring is a faithful replay (record
ids, relationship chains, dense-node groups and index contents all come
back identical; derived structures are recomputed).

Layout::

    <dir>/metadata.json       versions, counts, configuration
    <dir>/tokens.json         label / type / property-key registries
    <dir>/nodes.jsonl         one node record per line
    <dir>/relationships.jsonl
    <dir>/properties.jsonl
    <dir>/groups.jsonl
    <dir>/indexes.json        [{name, pattern}]
    <dir>/index_<name>.jsonl  one entry (identifier array) per line

The module exposes two layers: :func:`write_snapshot_state` /
:func:`read_snapshot_state` operate on an existing directory / database
(the checkpoint engine uses these, threading a progress callback through
for fault injection), while :func:`save_snapshot` / :func:`load_snapshot`
are the one-call convenience wrappers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional, Union

from repro.db.database import GraphDatabase
from repro.durability.operations import partial_index_refused
from repro.errors import StorageError
from repro.pathindex.pattern import PathPattern
from repro.storage.records import (
    NodeRecord,
    PropertyRecord,
    RelationshipGroupRecord,
    RelationshipRecord,
)

SNAPSHOT_FORMAT_VERSION = 1


def write_snapshot_state(
    db: GraphDatabase,
    path: Path,
    on_progress: Optional[Callable[[str], None]] = None,
    extra_metadata: Optional[dict] = None,
) -> None:
    """Write every snapshot file for ``db`` into the existing ``path``.

    ``on_progress`` is invoked with each file's name just after it is
    written — the checkpoint engine uses it to expose a mid-snapshot
    fault-injection point. ``extra_metadata`` keys are merged into
    ``metadata.json`` (the checkpoint engine records its base LSNs there,
    which replication and LSN continuity across restarts depend on).
    """

    def progress(name: str) -> None:
        if on_progress is not None:
            on_progress(name)

    store = db.store
    metadata = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "node_count": store.statistics.node_count,
        "relationship_count": store.statistics.relationship_count,
        "dense_node_threshold": store.dense_node_threshold,
        "page_size": db.page_cache.page_size,
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    (path / "metadata.json").write_text(json.dumps(metadata, indent=2))
    progress("metadata.json")
    (path / "tokens.json").write_text(
        json.dumps(
            {
                "labels": store.labels.all_tokens(),
                "types": store.types.all_tokens(),
                "property_keys": store.property_keys.all_tokens(),
            }
        )
    )
    progress("tokens.json")
    _write_jsonl(
        path / "nodes.jsonl",
        (
            {
                "id": record.id,
                "first_rel": record.first_rel,
                "first_prop": record.first_prop,
                "labels": sorted(record.labels),
                "dense": record.dense,
            }
            for record in store.nodes.dump_records().values()
        ),
    )
    progress("nodes.jsonl")
    _write_jsonl(
        path / "relationships.jsonl",
        (
            {
                "id": r.id,
                "type_id": r.type_id,
                "start_node": r.start_node,
                "end_node": r.end_node,
                "first_prop": r.first_prop,
                "start_prev": r.start_prev,
                "start_next": r.start_next,
                "end_prev": r.end_prev,
                "end_next": r.end_next,
            }
            for r in store.relationships.dump_records().values()
        ),
    )
    progress("relationships.jsonl")
    _write_jsonl(
        path / "properties.jsonl",
        (
            {
                "id": p.id,
                "key_id": p.key_id,
                "value": p.value,
                "prev_prop": p.prev_prop,
                "next_prop": p.next_prop,
            }
            for p in store.properties.dump_records().values()
        ),
    )
    progress("properties.jsonl")
    _write_jsonl(
        path / "groups.jsonl",
        (
            {
                "id": g.id,
                "owning_node": g.owning_node,
                "type_id": g.type_id,
                "next_group": g.next_group,
                "first_out": g.first_out,
                "first_in": g.first_in,
                "first_loop": g.first_loop,
                "count_out": g.count_out,
                "count_in": g.count_in,
                "count_loop": g.count_loop,
            }
            for g in store.groups.dump_records().values()
        ),
    )
    progress("groups.jsonl")
    specs = [
        {"name": index.name, "pattern": str(index.pattern)} for index in db.indexes
    ]
    (path / "indexes.json").write_text(json.dumps(specs))
    progress("indexes.json")
    for index in db.indexes:
        _write_jsonl(
            path / f"index_{index.name}.jsonl",
            (list(entry) for entry in index.scan()),
        )
        progress(f"index_{index.name}.jsonl")


def read_snapshot_metadata(directory: Union[str, Path]) -> dict:
    """Read and validate a snapshot directory's ``metadata.json``."""
    metadata = json.loads((Path(directory) / "metadata.json").read_text())
    if metadata.get("format_version") != SNAPSHOT_FORMAT_VERSION:
        raise StorageError(
            f"unsupported snapshot format {metadata.get('format_version')!r}"
        )
    return metadata


def read_snapshot_state(db: GraphDatabase, path: Path) -> None:
    """Restore snapshot files from ``path`` into a freshly constructed ``db``."""
    store = db.store
    tokens = json.loads((path / "tokens.json").read_text())
    store.labels.restore_tokens(tokens["labels"])
    store.types.restore_tokens(tokens["types"])
    store.property_keys.restore_tokens(tokens["property_keys"])
    store.nodes.restore_records(
        {
            row["id"]: NodeRecord(
                id=row["id"],
                first_rel=row["first_rel"],
                first_prop=row["first_prop"],
                labels=frozenset(row["labels"]),
                dense=row["dense"],
            )
            for row in _read_jsonl(path / "nodes.jsonl")
        }
    )
    store.relationships.restore_records(
        {
            row["id"]: RelationshipRecord(**row)
            for row in _read_jsonl(path / "relationships.jsonl")
        }
    )
    store.properties.restore_records(
        {
            row["id"]: PropertyRecord(**row)
            for row in _read_jsonl(path / "properties.jsonl")
        }
    )
    store.groups.restore_records(
        {
            row["id"]: RelationshipGroupRecord(**row)
            for row in _read_jsonl(path / "groups.jsonl")
        }
    )
    store.rebuild_derived_state()
    for spec in json.loads((path / "indexes.json").read_text()):
        if spec.get("partial"):
            raise partial_index_refused(spec["name"])
        index = db.indexes.create(spec["name"], PathPattern.parse(spec["pattern"]))
        for entry in _read_jsonl(path / f"index_{spec['name']}.jsonl"):
            index.add(tuple(entry))
        # Entries above went straight to the tree (unsealed); seal at the
        # version base so WAL replay maintains the index through overlay
        # deltas and the index is visible to every snapshot.
        index.seal(0)


def save_snapshot(db: GraphDatabase, directory: Union[str, Path]) -> Path:
    """Write a complete snapshot of ``db`` into ``directory``."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    write_snapshot_state(db, path)
    return path


def load_snapshot(
    directory: Union[str, Path],
    page_cache_pages: int = 1 << 20,
) -> GraphDatabase:
    """Reconstruct a :class:`GraphDatabase` from a snapshot directory."""
    path = Path(directory)
    metadata = read_snapshot_metadata(path)
    db = GraphDatabase(
        page_cache_pages=page_cache_pages,
        page_size=metadata.get("page_size", 8192),
        dense_node_threshold=metadata.get("dense_node_threshold", 50),
    )
    read_snapshot_state(db, path)
    return db


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row))
            handle.write("\n")


def _read_jsonl(path: Path):
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
