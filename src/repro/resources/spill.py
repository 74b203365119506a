"""Spill-to-disk buffers for the blocking operators of generated code.

Every buffer here preserves the **exact** output order of its in-memory
counterpart, so spilled and unconstrained executions return byte-identical
rows (the differential suites assert this per engine and across engines):

* :class:`SortSpillBuffer` — classic external sort: sorted run files of
  ``(key, seq, item)`` records merged with :func:`heapq.merge`. The key is
  the *composed* multi-level sort key (descending levels wrapped in
  :class:`Desc`), and ``seq`` is the input ordinal, which together reproduce
  the stability of the engines' repeated stable sorts.
* :class:`AggregationSpillBuffer` — hybrid grace hash aggregation: at
  overflow the in-memory group table is *frozen* (existing groups keep
  being fed directly, costing no new memory); rows introducing new keys are
  hash-partitioned to disk tagged with their input ordinal and replayed per
  partition at drain, then emitted in global first-occurrence order.
* :class:`DistinctSpillBuffer` — the same freeze, streaming until overflow:
  rows with unseen keys after the freeze are deferred to partitions and
  re-deduplicated at drain in first-occurrence order.
* :class:`JoinSpillBuffer` — hybrid grace hash join: build rows after the
  freeze go to build partitions; the probe side streams once, matching the
  frozen table into an output run and forwarding rows bound for spilled
  partitions; partitions are then joined one build table at a time, and all
  output runs merge on ``(probe ordinal, partner ordinal)`` — the exact
  in-memory emission order.
* :class:`AppendSpillBuffer` — an order-preserving list (cartesian product
  right side, the update engine's matched-row buffer) that overflows
  wholesale to a single sequential file and replays from disk.

Items must be picklable; buffered rows (slot lists) and aggregation
items (plain tuples) are. Spill files are created through
a :class:`SpillManager` (one per database) as ``*.spill`` files so crash
recovery and service shutdown can sweep orphans; the manager calls the
durability :class:`~repro.durability.faults.FaultInjector`'s spill
kill-points so crash tests can die mid-spill.
"""

from __future__ import annotations

import heapq
import itertools
import pickle
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.resources.pool import GROUP_BYTES, KEY_BYTES, ROW_BYTES

SPILL_SUFFIX = ".spill"
DEFAULT_PARTITIONS = 4


class Desc:
    """Inverts comparisons so a descending sort level can live inside one
    composed ascending key (picklable, used inside spill-run records)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __getstate__(self):
        return self.value

    def __setstate__(self, state):
        self.value = state


class SpillManager:
    """Creates, tracks, and sweeps one database's ``*.spill`` files.

    In-memory databases spill into a lazily created temp directory (removed
    at :meth:`close`); durable databases :meth:`attach` their data directory
    (and fault injector) so spill files land next to the WAL, where
    ``open()`` recovery and ``_clean_orphans`` sweep them after a crash.
    """

    def __init__(self, directory=None, fault_injector=None) -> None:
        self._directory = Path(directory) if directory is not None else None
        self._tmp_directory: Optional[Path] = None
        self.fault_injector = fault_injector
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self.files_created = 0
        self.bytes_written = 0
        self.files_swept = 0

    def attach(self, directory, fault_injector=None) -> None:
        """Point future spill files at a durable database's directory."""
        self._directory = Path(directory)
        if fault_injector is not None:
            self.fault_injector = fault_injector

    @property
    def directory(self) -> Path:
        if self._directory is not None:
            return self._directory
        if self._tmp_directory is None:
            self._tmp_directory = Path(tempfile.mkdtemp(prefix="repro-spill-"))
        return self._tmp_directory

    # ------------------------------------------------------------------

    def session(self, label: str = "query") -> "SpillSession":
        return SpillSession(self, label)

    def create_path(self, label: str) -> Path:
        with self._lock:
            ordinal = next(self._counter)
            self.files_created += 1
        safe = "".join(ch if ch.isalnum() else "-" for ch in label)[:32]
        return self.directory / f"spill-{safe}-{ordinal:06d}{SPILL_SUFFIX}"

    def note_bytes(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_written += nbytes

    def reach(self, point: str) -> None:
        injector = self.fault_injector
        if injector is not None:
            injector.reach(point)

    @property
    def crashed(self) -> bool:
        injector = self.fault_injector
        return injector is not None and injector.crashed

    # ------------------------------------------------------------------

    def sweep(self) -> int:
        """Delete every ``*.spill`` file in the spill directories; returns
        the number removed (recovery, service shutdown, ``db.close``)."""
        removed = 0
        for directory in (self._directory, self._tmp_directory):
            if directory is None or not directory.is_dir():
                continue
            for path in directory.glob(f"*{SPILL_SUFFIX}"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        with self._lock:
            self.files_swept += removed
        return removed

    def close(self) -> None:
        """Sweep and drop the temp directory (idempotent)."""
        self.sweep()
        if self._tmp_directory is not None:
            shutil.rmtree(self._tmp_directory, ignore_errors=True)
            self._tmp_directory = None


class SpillWriter:
    """Sequential pickled-record writer for one spill file."""

    def __init__(self, manager: SpillManager, path: Path) -> None:
        self._manager = manager
        self.path = path
        manager.reach("spill.open")
        self._fh = open(path, "wb")
        self.records = 0

    def write(self, record) -> None:
        self._manager.reach("spill.write")
        pickle.dump(record, self._fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.records += 1

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> int:
        if self._fh.closed:
            return 0
        self._fh.close()
        nbytes = self.path.stat().st_size
        self._manager.note_bytes(nbytes)
        return nbytes


def read_spill(path: Path) -> Iterator:
    with open(path, "rb") as fh:
        while True:
            try:
                yield pickle.load(fh)
            except EOFError:
                return


class SpillSession:
    """All spill files of one query; deleted together at tracker close.

    After a simulated crash the files are deliberately *left behind* (a
    dead process cannot clean up) — that is what recovery's orphan sweep
    is for.
    """

    def __init__(self, manager: SpillManager, label: str) -> None:
        self.manager = manager
        self.label = label
        self._writers: list[SpillWriter] = []

    def writer(self, kind: str) -> SpillWriter:
        writer = SpillWriter(
            self.manager, self.manager.create_path(f"{self.label}-{kind}")
        )
        self._writers.append(writer)
        return writer

    def merge_point(self) -> None:
        self.manager.reach("spill.merge")

    def close(self) -> None:
        if self.manager.crashed:
            return
        for writer in self._writers:
            writer.close()
            try:
                writer.path.unlink()
            except OSError:
                pass
        self._writers.clear()


# ----------------------------------------------------------------------
# Order-exact spillable buffers
# ----------------------------------------------------------------------


def _run_order(entry):
    # (key, seq): never falls through to comparing the items themselves.
    return (entry[0], entry[1])


class SortSpillBuffer:
    """External sort preserving the exact order of the in-memory sort."""

    def __init__(self, tracker, op, key: Callable) -> None:
        self.tracker = tracker
        self.op = op
        self.key = key
        self._items: list = []
        self._runs: list[Path] = []
        self._base = 0

    def add(self, item) -> None:
        tracker = self.tracker
        if self._items and tracker.should_spill(self.op):
            self._flush_run()
        tracker.charge(self.op, ROW_BYTES)
        self._items.append(item)

    def _flush_run(self) -> None:
        items = self._items
        key = self.key
        base = self._base
        run = sorted(
            ((key(item), base + seq, item) for seq, item in enumerate(items)),
            key=_run_order,
        )
        session = self.tracker.session()
        writer = session.writer("sort")
        for entry in run:
            writer.write(entry)
        nbytes = writer.close()
        self._runs.append(writer.path)
        self._base += len(items)
        self.tracker.note_spill(self.op, nbytes)
        self.tracker.release(self.op, ROW_BYTES * len(items))
        self._items = []

    def __iter__(self):
        if not self._runs:
            # A single stable sort on the composed key equals the engines'
            # repeated per-level stable sorts.
            yield from sorted(self._items, key=self.key)
            return
        self.tracker.session().merge_point()
        key = self.key
        base = self._base
        tail = sorted(
            (
                (key(item), base + seq, item)
                for seq, item in enumerate(self._items)
            ),
            key=_run_order,
        )
        sources = [read_spill(path) for path in self._runs]
        if tail:
            sources.append(iter(tail))
        for _key, _seq, item in heapq.merge(*sources, key=_run_order):
            yield item


class DistinctSpillBuffer:
    """Streaming distinct that freezes its seen-set at overflow."""

    def __init__(self, tracker, op, partitions: int = DEFAULT_PARTITIONS) -> None:
        self.tracker = tracker
        self.op = op
        self._seen: set = set()
        self._frozen = False
        self._partitions = partitions
        self._writers: list[Optional[SpillWriter]] = [None] * partitions
        self._seq = 0

    def offer(self, key, item) -> bool:
        """True iff the caller should emit ``item`` now (first occurrence,
        pre-freeze). Deferred first occurrences come from :meth:`drain`."""
        self._seq += 1
        if key in self._seen:
            return False
        tracker = self.tracker
        if not self._frozen and self._seen and tracker.should_spill(self.op):
            self._frozen = True
            tracker.note_spill(self.op, 0, runs=0)
        if self._frozen:
            index = hash(key) % self._partitions
            writer = self._writers[index]
            if writer is None:
                writer = self._writers[index] = self.tracker.session().writer(
                    "distinct"
                )
            writer.write((self._seq, key, item))
            return False
        tracker.charge(self.op, KEY_BYTES)
        self._seen.add(key)
        return True

    def drain(self):
        """Deferred first-occurrence items, in original input order."""
        if not self._frozen:
            return
        self.tracker.session().merge_point()
        survivors: list = []
        for writer in self._writers:
            if writer is None:
                continue
            nbytes = writer.close()
            self.tracker.note_spill(self.op, nbytes)
            local: dict = {}
            for seq, key, item in read_spill(writer.path):
                if key not in local:
                    local[key] = (seq, item)
            survivors.extend(local.values())
        self.tracker.charge(self.op, ROW_BYTES * len(survivors))
        survivors.sort(key=lambda entry: entry[0])
        for _seq, item in survivors:
            yield item


class AggregationSpillBuffer:
    """Hybrid grace aggregation preserving first-occurrence group order.

    ``new_state(item)`` builds a fresh group state from the first item of a
    group; ``feed(state, item)`` folds one item in. Items must carry
    everything ``new_state``/``feed`` need (each engine packs its own).
    """

    def __init__(
        self,
        tracker,
        op,
        new_state: Callable,
        feed: Callable,
        partitions: int = DEFAULT_PARTITIONS,
    ) -> None:
        self.tracker = tracker
        self.op = op
        self._new_state = new_state
        self._feed = feed
        self._groups: dict = {}
        self._frozen = False
        self._partitions = partitions
        self._writers: list[Optional[SpillWriter]] = [None] * partitions
        self._seq = 0

    @property
    def is_empty(self) -> bool:
        return not self._groups

    def add(self, key, item) -> None:
        self._seq += 1
        state = self._groups.get(key)
        if state is not None:
            self._feed(state, item)
            return
        tracker = self.tracker
        if not self._frozen and self._groups and tracker.should_spill(self.op):
            self._frozen = True
            tracker.note_spill(self.op, 0, runs=0)
        if self._frozen:
            index = hash(key) % self._partitions
            writer = self._writers[index]
            if writer is None:
                writer = self._writers[index] = self.tracker.session().writer(
                    "aggregation"
                )
            writer.write((self._seq, key, item))
            return
        tracker.charge(self.op, GROUP_BYTES)
        state = self._new_state(item)
        self._groups[key] = state
        self._feed(state, item)

    def states(self):
        """Group states in global first-occurrence order."""
        yield from self._groups.values()
        if not self._frozen:
            return
        self.tracker.session().merge_point()
        collected: list = []
        for writer in self._writers:
            if writer is None:
                continue
            nbytes = writer.close()
            self.tracker.note_spill(self.op, nbytes)
            local: dict = {}
            for seq, key, item in read_spill(writer.path):
                entry = local.get(key)
                if entry is None:
                    self.tracker.charge(self.op, GROUP_BYTES)
                    entry = local[key] = (seq, self._new_state(item))
                self._feed(entry[1], item)
            collected.extend(local.values())
        collected.sort(key=lambda entry: entry[0])
        for _seq, state in collected:
            yield state


_SPILLED_TAG_BASE = 1 << 40
"""Partner tags for post-freeze build rows; always sorts after the frozen
table's list positions, matching in-memory partner order per probe row."""


class JoinSpillBuffer:
    """Hybrid grace hash join preserving exact probe-order emission.

    ``merge(build_row, probe_row)`` returns the merged row or None (the
    engines fold their relationship-uniqueness and binding-conflict checks
    into it). In-memory mode streams matches from :meth:`probe`; once
    frozen, matches are staged into order-tagged output runs and emitted by
    :meth:`drain` in ``(probe ordinal, partner ordinal)`` order — exactly
    the in-memory order, with one spilled build partition resident at a
    time.
    """

    def __init__(
        self,
        tracker,
        op,
        merge: Callable,
        partitions: int = DEFAULT_PARTITIONS,
    ) -> None:
        self.tracker = tracker
        self.op = op
        self._merge = merge
        self._table: dict = {}
        self._frozen = False
        self._partitions = partitions
        self._build_writers: list[Optional[SpillWriter]] = [None] * partitions
        self._build_counts = [0] * partitions
        self._probe_writers: list[Optional[SpillWriter]] = [None] * partitions
        self._frozen_out: Optional[SpillWriter] = None
        self._probe_seq = 0

    def insert(self, key, row) -> None:
        tracker = self.tracker
        if not self._frozen and self._table and tracker.should_spill(self.op):
            self._frozen = True
            tracker.note_spill(self.op, 0, runs=0)
        if self._frozen:
            index = hash(key) % self._partitions
            writer = self._build_writers[index]
            if writer is None:
                writer = self._build_writers[index] = (
                    self.tracker.session().writer("join-build")
                )
            writer.write((key, row))
            self._build_counts[index] += 1
            return
        tracker.charge(self.op, ROW_BYTES)
        self._table.setdefault(key, []).append(row)

    def probe(self, key, row):
        """Yield merged rows (in-memory mode); stage them (spill mode)."""
        merge = self._merge
        if not self._frozen:
            for build_row in self._table.get(key, ()):
                merged = merge(build_row, row)
                if merged is not None:
                    yield merged
            return
        self._probe_seq += 1
        probe_seq = self._probe_seq
        out = self._frozen_out
        if out is None:
            out = self._frozen_out = self.tracker.session().writer("join-out")
        for tag, build_row in enumerate(self._table.get(key, ())):
            merged = merge(build_row, row)
            if merged is not None:
                out.write((probe_seq, tag, merged))
        index = hash(key) % self._partitions
        if self._build_counts[index]:
            writer = self._probe_writers[index]
            if writer is None:
                writer = self._probe_writers[index] = (
                    self.tracker.session().writer("join-probe")
                )
            writer.write((probe_seq, key, row))

    def drain(self):
        """Spill-mode matches, merged back into exact probe order."""
        if not self._frozen:
            return
        self.tracker.session().merge_point()
        runs: list[Path] = []
        if self._frozen_out is not None:
            nbytes = self._frozen_out.close()
            self.tracker.note_spill(self.op, nbytes)
            runs.append(self._frozen_out.path)
        merge = self._merge
        for index in range(self._partitions):
            build_writer = self._build_writers[index]
            probe_writer = self._probe_writers[index]
            if build_writer is not None:
                self.tracker.note_spill(self.op, build_writer.close())
            if build_writer is None or probe_writer is None:
                continue
            self.tracker.note_spill(self.op, probe_writer.close())
            table: dict = {}
            loaded = 0
            for ordinal, (key, row) in enumerate(read_spill(build_writer.path)):
                table.setdefault(key, []).append(
                    (_SPILLED_TAG_BASE + ordinal, row)
                )
                loaded += 1
                self.tracker.charge(self.op, ROW_BYTES)
            out = self.tracker.session().writer("join-out")
            for probe_seq, key, probe_row in read_spill(probe_writer.path):
                for tag, build_row in table.get(key, ()):
                    merged = merge(build_row, probe_row)
                    if merged is not None:
                        out.write((probe_seq, tag, merged))
            self.tracker.note_spill(self.op, out.close())
            runs.append(out.path)
            self.tracker.release(self.op, ROW_BYTES * loaded)
        sources = [read_spill(path) for path in runs]
        for _probe_seq, _tag, merged in heapq.merge(*sources, key=_run_order):
            yield merged


class AppendSpillBuffer:
    """An append-only row buffer that overflows wholesale to one file.

    Iteration replays rows in insertion order (memory or disk); the buffer
    stays appendable between iterations, which is what the cartesian
    product's re-scanned right side needs.
    """

    def __init__(self, tracker, op) -> None:
        self.tracker = tracker
        self.op = op
        self._rows: list = []
        self._writer: Optional[SpillWriter] = None
        self._count = 0

    def add(self, row) -> None:
        tracker = self.tracker
        self._count += 1
        if self._writer is None and self._rows and tracker.should_spill(self.op):
            writer = self.tracker.session().writer("rows")
            for buffered in self._rows:
                writer.write(buffered)
            writer.flush()
            self.tracker.note_spill(self.op, 0)
            tracker.release(self.op, ROW_BYTES * len(self._rows))
            self._rows = []
            self._writer = writer
        if self._writer is not None:
            self._writer.write(row)
            return
        tracker.charge(self.op, ROW_BYTES)
        self._rows.append(row)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        if self._writer is None:
            return iter(self._rows)
        self._writer.flush()
        return read_spill(self._writer.path)
