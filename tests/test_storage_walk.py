"""The store's one relationship-chain walk against a record-at-a-time walk.

``GraphStore.expand`` / ``relationships_of`` resolve records inline and hand
their page ids to the cache in batches. The oracle below reads one record at
a time — one ``relationships.read`` per record, ``chain_next`` to the next
— and the store must return the same relationships in the same order *and*
leave the simulated page cache exactly as the oracle does: the same
``(file, page)`` touch sequence, the same hits, misses and evictions. The
page accounting is the paper's cold-run model (§6.3), not overhead.
"""

import contextlib
import itertools
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphDatabase
from repro.errors import RecordNotFoundError
from repro.storage import NO_ID, Direction, GraphStore, PageCache

from tests.engines import CHUNK_SIZES, execute


class RecordingPageCache(PageCache):
    """A page cache that also logs every ``(file, page)`` touch, in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.log: list[tuple[str, int]] = []

    def touch_page(self, file_name, page_id):
        self.log.append((file_name, page_id))
        return super().touch_page(file_name, page_id)

    def touch_pages(self, file_name, pages):
        self.log.extend((file_name, page) for page in pages)
        return super().touch_pages(file_name, pages)


def oracle_expand(store, node_id, direction, type_id):
    """Yield ``(rel, neighbour)`` reading one record at a time."""
    record = store.nodes.read(node_id)
    if record.dense:
        group_ptr = record.first_rel
        while group_ptr != NO_ID:
            group = store.groups.read(group_ptr)
            if type_id is None or group.type_id == type_id:
                heads = []
                if direction is not Direction.INCOMING:
                    heads.append(group.first_out)
                if direction is not Direction.OUTGOING:
                    heads.append(group.first_in)
                heads.append(group.first_loop)
                for rel_ptr in heads:
                    while rel_ptr != NO_ID:
                        rel = store.relationships.read(rel_ptr)
                        yield rel, rel.other_node(node_id)
                        rel_ptr = rel.chain_next(node_id)
            group_ptr = group.next_group
        return
    rel_ptr = record.first_rel
    while rel_ptr != NO_ID:
        rel = store.relationships.read(rel_ptr)
        if direction is Direction.OUTGOING:
            incident = rel.start_node == node_id
        elif direction is Direction.INCOMING:
            incident = rel.end_node == node_id
        else:
            incident = True
        if rel.start_node == rel.end_node:
            incident = True
        if incident and (type_id is None or rel.type_id == type_id):
            yield rel, rel.other_node(node_id)
        rel_ptr = rel.chain_next(node_id)


def store_expand(store, node_id, direction, type_id):
    return store.expand(node_id, direction, type_id)


def store_relationships_of(store, node_id, direction, type_id):
    # relationships_of yields bare records; the neighbour is not compared.
    return ((rel, None) for rel in store.relationships_of(node_id, direction, type_id))


MODES = ("latest", "snapshot", "transaction")


def build(seed, threshold, mode, capacity):
    """A random graph: sparse and dense nodes, self-loops, deleted and
    re-used relationship ids. Deterministic in its arguments, so every
    walker gets its own identical store in an identical cache state.

    ``snapshot`` pins a reader before 25 more writes; ``transaction``
    leaves those writes unpublished (an open transaction's own view).
    """
    rng = random.Random(seed)
    cache = RecordingPageCache(capacity_pages=capacity, page_size=64)
    store = GraphStore(cache, dense_node_threshold=threshold)
    types = [store.types.get_or_create(name) for name in ("S", "T", "U")]
    nodes = [store.create_node() for _ in range(8)]
    live: list[int] = []

    def churn(steps):
        for _ in range(steps):
            if live and rng.random() < 0.3:
                store.delete_relationship(live.pop(rng.randrange(len(live))))
                continue
            # The first three nodes are hubs that cross the dense threshold.
            start = rng.choice(nodes[:3] if rng.random() < 0.5 else nodes)
            end = start if rng.random() < 0.15 else rng.choice(nodes)
            live.append(store.create_relationship(start, end, rng.choice(types)))

    churn(50)
    store.publish_commit()
    snapshot = store.mvcc.acquire() if mode == "snapshot" else None
    churn(25)
    if mode != "transaction":
        store.publish_commit()
    return store, cache, nodes, types, snapshot


def walk(built, walker, node_id, direction, type_id, take):
    """Consume ``take`` items (None: all) of ``walker`` on a :func:`build`
    result, reading each item's start node like an engine's label check
    would; close the generator and return what was seen plus the cache's
    log and counter deltas."""
    store, cache, _, _, snapshot = built
    cache.log.clear()
    before = cache.stats.snapshot()
    view = (
        store.mvcc.reading(snapshot)
        if snapshot is not None
        else contextlib.nullcontext()
    )
    seen = []
    with view:
        items = walker(store, node_id, direction, type_id)
        for rel, neighbour in itertools.islice(items, take):
            store.nodes.read(rel.start_node)
            seen.append((rel.id, neighbour))
        items.close()
    delta = cache.stats.delta_since(before)
    return seen, list(cache.log), (delta.hits, delta.misses, delta.evictions)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1_000_000),
    threshold=st.integers(min_value=3, max_value=12),
    mode=st.sampled_from(MODES),
    take=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    capacity=st.sampled_from((3, 1 << 20)),
)
def test_walk_matches_per_record_oracle(seed, threshold, mode, take, capacity):
    copies = {
        walker: build(seed, threshold, mode, capacity)
        for walker in (oracle_expand, store_expand, store_relationships_of)
    }
    _, _, nodes, types, _ = copies[oracle_expand]
    for node_id in nodes:
        for direction in Direction:
            for type_id in (None, *types):
                args = (node_id, direction, type_id, take)
                expected = walk(copies[oracle_expand], oracle_expand, *args)
                for walker in (store_expand, store_relationships_of):
                    seen, log, counters = walk(copies[walker], walker, *args)
                    if walker is store_relationships_of:
                        assert [r for r, _ in seen] == [r for r, _ in expected[0]]
                    else:
                        assert seen == expected[0]
                    assert log == expected[1]
                    assert counters == expected[2]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1_000_000),
    threshold=st.integers(min_value=3, max_value=12),
    mode=st.sampled_from(MODES),
)
def test_degree_counts_the_walk(seed, threshold, mode):
    store, cache, nodes, types, snapshot = build(seed, threshold, mode, 1 << 20)
    view = store.mvcc.reading(snapshot) if snapshot else contextlib.nullcontext()
    with view:
        for node_id, direction, type_id in itertools.product(
            nodes, Direction, (None, *types)
        ):
            expected = sum(1 for _ in oracle_expand(store, node_id, direction, type_id))
            assert store.degree(node_id, direction, type_id) == expected


def test_touch_pages_equals_touch_page_loop():
    rng = random.Random(7)
    batches = [
        (rng.choice("fg"), [rng.randrange(6) for _ in range(rng.randrange(8))])
        for _ in range(40)
    ]
    batched = PageCache(capacity_pages=3, page_size=1)
    single = PageCache(capacity_pages=3, page_size=1)
    for name, pages in batches:
        hits = batched.touch_pages(name, pages)
        assert hits == sum(single.touch_page(name, page) for page in pages)
    assert batched.stats.evictions > 0
    for field in ("hits", "misses", "evictions"):
        assert getattr(batched.stats, field) == getattr(single.stats, field)
    # Same LRU order: probing every key in the same order hits and evicts
    # identically only if residency and recency agree.
    probe = [(name, page) for name in "fg" for page in range(6)]
    assert [batched.touch_page(*key) for key in probe] == [
        single.touch_page(*key) for key in probe
    ]


def test_touch_pages_disabled_cache_counts_nothing():
    cache = PageCache(capacity_pages=3, page_size=1)
    cache.enabled = False
    assert cache.touch_pages("f", [0, 1, 1]) == 3
    assert cache.stats.accesses == 0


def _sparse_chain():
    cache = RecordingPageCache(capacity_pages=3, page_size=64)
    store = GraphStore(cache)
    knows = store.types.get_or_create("KNOWS")
    a, b, c = (store.create_node() for _ in range(3))
    rels = [store.create_relationship(a, other, knows) for other in (b, c, b, c)]
    return store, cache, a, rels


def test_scenarios_cover_sparse_dense_loops_and_freed_ids():
    store, _, nodes, _, _ = build(seed=0, threshold=6, mode="latest", capacity=3)
    dense = [store.node(n).dense for n in nodes]
    assert any(dense) and not all(dense)
    rels = [store.relationship(r) for r in store.all_relationships()]
    assert any(rel.start_node == rel.end_node for rel in rels)
    assert len(rels) < store.relationships.highest_id  # some ids were freed


@pytest.mark.parametrize("target", ["past_high_water_mark", "freed"])
@pytest.mark.parametrize(
    "walker", [store_expand, store_relationships_of], ids=["expand", "relationships_of"]
)
def test_dangling_pointer_raises_after_the_same_touches(target, walker):
    outcomes = []
    for chosen in (oracle_expand, walker):
        store, cache, a, rels = _sparse_chain()
        if target == "freed":
            knows = store.types.id_of("KNOWS")
            dangling = store.create_relationship(a, a, knows)
            store.delete_relationship(dangling)
        else:
            dangling = store.relationships.highest_id + 10
        # Corrupt the chain's third cell (the walk goes newest first).
        cell = store.relationships.read_for_update(rels[1])
        cell.start_next = dangling
        store.relationships.write(rels[1], cell)
        store.publish_commit()
        cache.log.clear()
        seen = []
        with pytest.raises(RecordNotFoundError):
            for rel, _ in chosen(store, a, Direction.BOTH, None):
                seen.append(rel.id)
        stats = cache.stats
        outcomes.append((seen, cache.log, (stats.hits, stats.misses, stats.evictions)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == [rels[3], rels[2], rels[1]]


def test_node_past_high_water_mark_raises():
    store, _, _, _ = _sparse_chain()
    missing = store.nodes.highest_id
    with pytest.raises(RecordNotFoundError):
        list(store.expand(missing, Direction.BOTH))
    with pytest.raises(RecordNotFoundError):
        store.has_label(missing, 0)


def _corrupted_db(corrupt):
    db = GraphDatabase()
    a = db.create_node(["A"])
    for _ in range(3):
        db.create_relationship(a, db.create_node(["B"]), "R")
    store = db.store
    head = store.node(a).first_rel
    with store.mvcc.exclusive_writer():
        rel = store.relationships.read_for_update(head)
        corrupt(rel, store)
        store.relationships.write(head, rel)
        store.publish_commit()
    return db, a


def _dangle_chain(rel, store):
    rel.start_next = store.relationships.highest_id + 10


def _dangle_endpoint(rel, store):
    rel.end_node = store.nodes.highest_id + 10


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("corrupt", [_dangle_chain, _dangle_endpoint])
def test_dangling_references_raise_at_every_chunk_size(chunk, corrupt):
    """A chain pointer to no record, or a neighbour id past the node
    store's high-water mark (checked by the label filter), is a
    ``RecordNotFoundError`` at every chunk size — never an IndexError."""
    db, a = _corrupted_db(corrupt)
    text = f"MATCH (a)-[r:R]->(b:B) WHERE id(a) = {a} RETURN id(b) AS b"
    assert "Expand" in db.explain(text)
    with pytest.raises(RecordNotFoundError):
        execute(db, text, chunk=chunk).to_list()


# ---------------------------------------------------------------------------
# Golden page touches of perfbench's fixed texts
# ---------------------------------------------------------------------------


def _perfbench():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "perfbench")):
        pytest.skip("perfbench/ is not part of this checkout")
    if root not in sys.path:
        sys.path.insert(0, root)
    import perfbench
    from perfbench import embedded

    return perfbench, embedded


GOLDEN_TOUCHES = {
    # Per text, in the workload's order; identical at every chunk size.
    "scan_join": [5800, 5800, 16200, 11200, 16000],
    "index_read": [4, 4, 32, 2, 2],
}


@pytest.mark.parametrize("workload", sorted(GOLDEN_TOUCHES))
def test_golden_page_touches_of_perfbench_texts(workload, tmp_path):
    """``storage.page_touches_per_op`` is part of the benchmark's record:
    the touches each fixed text makes, at every chunk size, are pinned."""
    perfbench, embedded = _perfbench()
    cls = {c.name: c for c in embedded.WORKLOADS}[workload]
    run = cls(perfbench.DEFAULT_SEED, perfbench.FULL, str(tmp_path), False)
    run.setup()
    try:
        db = run.db
        for chunk in CHUNK_SIZES:
            touches = []
            for read in run.reads:
                before = db.page_cache.stats.snapshot()
                result = execute(db, read.text, read.hints, chunk=chunk)
                assert read.check(result.to_list()), (chunk, read.text)
                touches.append(db.page_cache.stats.delta_since(before).accesses)
            assert touches == GOLDEN_TOUCHES[workload], chunk
    finally:
        run.db.close()
