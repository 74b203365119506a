"""A B+-tree over fixed-width composite identifier keys.

Structure follows Figure 4 of the paper: internal nodes hold separator keys
(themselves identifier lists), leaves hold the entries, and leaves are chained
for sequential scans. Node capacity is derived from the page size and the
entry size so each node occupies one page of the simulated page cache.

The tree has *set* semantics — an entry is a unique path occurrence — and
supports the three access paths the paper's operators use:

* :meth:`scan` — full in-order scan (PathIndexScan),
* :meth:`scan_prefix` — logarithmic prefix seek + scan (PathIndexPrefixSeek),
* :meth:`scan_from` — seek to the first key ≥ a bound, enabling the
  skip-ranges trick of PathIndexFilteredScan (§5.1.2).
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional, Sequence

from repro.bptree.keys import entry_size_bytes, prefix_range, validate_key
from repro.bptree.pager import TreePager
from repro.storage.pagecache import PageCache

_MIN_FANOUT = 4


class _Node:
    __slots__ = ("page_id", "keys")

    def __init__(self, page_id: int) -> None:
        self.page_id = page_id
        self.keys: list[tuple[int, ...]] = []


class _Leaf(_Node):
    __slots__ = ("next_leaf", "prev_leaf")

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        self.next_leaf: Optional[_Leaf] = None
        self.prev_leaf: Optional[_Leaf] = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        # len(children) == len(keys) + 1; keys[i] is the smallest key
        # reachable under children[i + 1].
        self.children: list[_Node] = []


class BPlusTree:
    """B+-tree keyed by ``key_width``-wide identifier tuples."""

    def __init__(
        self,
        key_width: int,
        page_cache: Optional[PageCache] = None,
        file_name: str = "bptree",
        order: Optional[int] = None,
    ) -> None:
        if key_width < 1:
            raise ValueError("key_width must be at least 1")
        self.key_width = key_width
        self.entry_size = entry_size_bytes(key_width)
        self.pager = TreePager(file_name, page_cache)
        if order is None:
            order = max(_MIN_FANOUT, self.pager.page_size // self.entry_size)
        if order < _MIN_FANOUT:
            raise ValueError(f"order must be >= {_MIN_FANOUT}")
        self.order = order
        self._root: _Node = _Leaf(self.pager.allocate())
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # Introspection / sizing
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    def size_on_disk(self) -> int:
        """Bytes of the backing file: all pages ever allocated × page size."""
        return self.pager.file_pages * self.pager.page_size

    def total_data_size(self) -> int:
        """Bytes of actual entry data (entries × entry size), as in Table 2."""
        return self._size * self.entry_size

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------

    def __contains__(self, key: Sequence[int]) -> bool:
        key_tuple = validate_key(key, self.key_width)
        leaf = self._descend(key_tuple)
        index = bisect.bisect_left(leaf.keys, key_tuple)
        return index < len(leaf.keys) and leaf.keys[index] == key_tuple

    def insert(self, key: Sequence[int]) -> bool:
        """Insert ``key``; returns False if it was already present."""
        key_tuple = validate_key(key, self.key_width)
        split = self._insert_into(self._root, key_tuple)
        if split is _ALREADY_PRESENT:
            return False
        if split is not None:
            separator, right = split
            new_root = _Internal(self.pager.allocate())
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._size += 1
        return True

    def delete(self, key: Sequence[int]) -> bool:
        """Delete ``key``; returns False if it was not present."""
        key_tuple = validate_key(key, self.key_width)
        removed = self._delete_from(self._root, key_tuple)
        if not removed:
            return False
        root = self._root
        if isinstance(root, _Internal) and len(root.children) == 1:
            self.pager.release(root.page_id)
            self._root = root.children[0]
            self._height -= 1
        self._size -= 1
        return True

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, ...]]:
        """All entries in ascending key order (a full index scan).

        Leaf visits are reported to the page cache in runs of contiguous
        page ids (one lock acquisition per run); a run is flushed before
        the first key of the leaf that breaks it, and the trailing run is
        flushed when the scan finishes or its consumer stops early.
        """
        leaf = self._leftmost_leaf()
        run_start = 0
        run_length = 0
        try:
            while leaf is not None:
                page_id = leaf.page_id
                if run_length and page_id == run_start + run_length:
                    run_length += 1
                else:
                    if run_length:
                        self.pager.touch_run(run_start, run_length)
                    run_start = page_id
                    run_length = 1
                yield from leaf.keys
                leaf = leaf.next_leaf
        finally:
            if run_length:
                self.pager.touch_run(run_start, run_length)

    def scan_from(
        self, lower: Sequence[int], upper: Optional[tuple[int, ...]] = None
    ) -> Iterator[tuple[int, ...]]:
        """Entries ≥ ``lower`` (and < ``upper``, when given) in ascending
        order (seek then scan). The upper end is found by one bisection in
        the leaf that crosses it, not by a comparison per entry."""
        lower_tuple = validate_key(lower, self.key_width)
        # _descend already reports the first leaf to the page cache; only
        # subsequent leaves of the chain walk are touched here.
        leaf = self._descend(lower_tuple)
        index = bisect.bisect_left(leaf.keys, lower_tuple)
        while leaf is not None:
            keys = leaf.keys
            end = len(keys)
            last = upper is not None and end > 0 and keys[-1] >= upper
            if last:
                end = bisect.bisect_left(keys, upper, index)
            for position in range(index, end):
                yield keys[position]
            if last:
                return
            leaf = leaf.next_leaf
            index = 0
            if leaf is not None:
                self.pager.touch(leaf.page_id)

    def scan_prefix(self, prefix: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Entries whose key starts with ``prefix`` (logarithmic seek)."""
        return self.scan_from(*prefix_range(prefix, self.key_width))

    def count_prefix(self, prefix: Sequence[int]) -> int:
        """Number of entries sharing ``prefix`` (exact cardinality lookup).

        Cost is one boundary descent plus the leaf-chain walk: interior
        leaves fully covered by the prefix contribute ``len(leaf.keys)``
        without key iteration; only the boundary leaf bisects for the
        upper bound. This sits on the planner's cardinality-lookup path.
        """
        lower, upper = prefix_range(prefix, self.key_width)
        lower_tuple = validate_key(lower, self.key_width)
        leaf = self._descend(lower_tuple)
        index = bisect.bisect_left(leaf.keys, lower_tuple)
        total = 0
        while leaf is not None:
            keys = leaf.keys
            if keys and keys[-1] < upper:
                total += len(keys) - index
            else:
                return total + bisect.bisect_left(keys, upper, index) - index
            leaf = leaf.next_leaf
            index = 0
            if leaf is not None:
                self.pager.touch(leaf.page_id)
        return total

    def first(self) -> Optional[tuple[int, ...]]:
        """Smallest entry or None when empty."""
        leaf = self._leftmost_leaf()
        while leaf is not None:
            self.pager.touch(leaf.page_id)
            if leaf.keys:
                return leaf.keys[0]
            leaf = leaf.next_leaf
        return None

    # ------------------------------------------------------------------
    # Descent helpers
    # ------------------------------------------------------------------

    def _descend(self, key: tuple[int, ...]) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            self.pager.touch(node.page_id)
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        self.pager.touch(node.page_id)
        return node  # type: ignore[return-value]

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            self.pager.touch(node.page_id)
            node = node.children[0]
        return node  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def _insert_into(self, node: _Node, key: tuple[int, ...]):
        """Insert under ``node``; returns None, a (separator, right-sibling)
        split descriptor, or the _ALREADY_PRESENT sentinel."""
        self.pager.touch(node.page_id)
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                return _ALREADY_PRESENT
            node.keys.insert(index, key)
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        assert isinstance(node, _Internal)
        child_index = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[child_index], key)
        if split is None or split is _ALREADY_PRESENT:
            return split
        separator, right = split
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, right)
        if len(node.children) > self.order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf) -> tuple[tuple[int, ...], _Leaf]:
        middle = len(leaf.keys) // 2
        right = _Leaf(self.pager.allocate())
        right.keys = leaf.keys[middle:]
        leaf.keys = leaf.keys[:middle]
        right.next_leaf = leaf.next_leaf
        if right.next_leaf is not None:
            right.next_leaf.prev_leaf = right
        right.prev_leaf = leaf
        leaf.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> tuple[tuple[int, ...], _Internal]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Internal(self.pager.allocate())
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return separator, right

    # ------------------------------------------------------------------
    # Deletion with borrow/merge rebalancing
    # ------------------------------------------------------------------

    def _delete_from(self, node: _Node, key: tuple[int, ...]) -> bool:
        self.pager.touch(node.page_id)
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                return False
            del node.keys[index]
            return True
        assert isinstance(node, _Internal)
        child_index = bisect.bisect_right(node.keys, key)
        child = node.children[child_index]
        if not self._delete_from(child, key):
            return False
        if self._underflowing(child):
            self._rebalance(node, child_index)
        return True

    def _underflowing(self, node: _Node) -> bool:
        minimum = self.order // 2
        if isinstance(node, _Leaf):
            return len(node.keys) < max(1, minimum)
        return len(node.children) < max(2, minimum)

    def _rebalance(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        left = parent.children[child_index - 1] if child_index > 0 else None
        right = (
            parent.children[child_index + 1]
            if child_index + 1 < len(parent.children)
            else None
        )
        if left is not None and self._can_lend(left):
            self._borrow_from_left(parent, child_index)
        elif right is not None and self._can_lend(right):
            self._borrow_from_right(parent, child_index)
        elif left is not None:
            self._merge(parent, child_index - 1)
        elif right is not None:
            self._merge(parent, child_index)

    def _can_lend(self, node: _Node) -> bool:
        minimum = self.order // 2
        if isinstance(node, _Leaf):
            return len(node.keys) > max(1, minimum)
        return len(node.children) > max(2, minimum)

    def _borrow_from_left(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        left = parent.children[child_index - 1]
        self.pager.touch(left.page_id)
        if isinstance(child, _Leaf):
            assert isinstance(left, _Leaf)
            child.keys.insert(0, left.keys.pop())
            parent.keys[child_index - 1] = child.keys[0]
        else:
            assert isinstance(left, _Internal) and isinstance(child, _Internal)
            child.keys.insert(0, parent.keys[child_index - 1])
            parent.keys[child_index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        right = parent.children[child_index + 1]
        self.pager.touch(right.page_id)
        if isinstance(child, _Leaf):
            assert isinstance(right, _Leaf)
            child.keys.append(right.keys.pop(0))
            parent.keys[child_index] = right.keys[0]
        else:
            assert isinstance(right, _Internal) and isinstance(child, _Internal)
            child.keys.append(parent.keys[child_index])
            parent.keys[child_index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent: _Internal, left_index: int) -> None:
        """Merge children ``left_index`` and ``left_index + 1`` into the left."""
        left = parent.children[left_index]
        right = parent.children[left_index + 1]
        self.pager.touch(left.page_id)
        self.pager.touch(right.page_id)
        if isinstance(left, _Leaf):
            assert isinstance(right, _Leaf)
            left.keys.extend(right.keys)
            left.next_leaf = right.next_leaf
            if right.next_leaf is not None:
                right.next_leaf.prev_leaf = left
        else:
            assert isinstance(left, _Internal) and isinstance(right, _Internal)
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        self.pager.release(right.page_id)
        del parent.keys[left_index]
        del parent.children[left_index + 1]

    # ------------------------------------------------------------------
    # Invariant checking (used by tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate structural invariants; raises AssertionError on violation."""
        leaf_depths: list[int] = []
        self._check_node(
            self._root, None, None, is_root=True, depth=0, leaf_depths=leaf_depths
        )
        assert len(set(leaf_depths)) <= 1, f"leaves at depths {set(leaf_depths)}"
        # Leaf chain must enumerate all keys in order.
        chained: list[tuple[int, ...]] = []
        leaf: Optional[_Leaf] = self._leftmost_leaf()
        while leaf is not None:
            chained.extend(leaf.keys)
            leaf = leaf.next_leaf
        assert chained == sorted(chained), "leaf chain out of order"
        assert len(chained) == self._size, "size counter mismatch"

    def _check_node(self, node, low, high, is_root, depth, leaf_depths) -> None:
        for key in node.keys:
            assert low is None or key >= low, "key below lower bound"
            assert high is None or key < high, "key above upper bound"
        assert node.keys == sorted(node.keys), "node keys out of order"
        if isinstance(node, _Leaf):
            leaf_depths.append(depth)
            return
        assert isinstance(node, _Internal)
        assert len(node.children) == len(node.keys) + 1
        if not is_root:
            assert len(node.children) >= 2
        bounds = [low, *node.keys, high]
        for index, child in enumerate(node.children):
            self._check_node(
                child,
                bounds[index],
                bounds[index + 1],
                is_root=False,
                depth=depth + 1,
                leaf_depths=leaf_depths,
            )


_ALREADY_PRESENT = object()
