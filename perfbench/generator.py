"""Seeded input generator: the paper's §6.4 correlated construction.

``paths`` hidden 4-step paths

    (a:A)-[:X]->(b:A)-[:X]->(c:A)-[:Y]->(d:B)-[:X]->(e:A)

are the only occurrences of the full pattern; noise makes its sub-patterns
unselective without ever completing another full path:

* X-noise: gadgets ``u =4xX=> h =4xX=> v`` over fresh decoy A-nodes (8 edges,
  16 two-step chains each). Decoys carry no Y, so Full/Sub1/Sub2/Sub4 stay at
  ``paths``.
* Y-noise: ``noise * paths`` extra ``(:A)-[:Y]->(:B)`` from hidden *a*-nodes
  (no incoming X) onto hidden *d*-nodes, drawn from the seed.

The spec is plain data (labels and endpoint indexes), byte-deterministic per
seed, and carries the exact cardinality of every indexable pattern, so each
benchmark op can be checked against a number the engine did not compute.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

FULL_PATTERN = "(:A)-[:X]->(:A)-[:X]->(:A)-[:Y]->(:B)-[:X]->(:A)"

PATTERNS = {
    "Full": FULL_PATTERN,
    "Sub1": "(:A)-[:X]->(:A)-[:X]->(:A)-[:Y]->(:B)",
    "Sub2": "(:A)-[:X]->(:A)-[:Y]->(:B)-[:X]->(:A)",
    "Sub3": "(:A)-[:X]->(:A)-[:X]->(:A)",
    "Sub4": "(:A)-[:X]->(:A)-[:Y]->(:B)",
    "Sub5": "(:A)-[:Y]->(:B)-[:X]->(:A)",
    "Sub6": "(:A)-[:X]->(:A)",
    "Sub7": "(:A)-[:Y]->(:B)",
    "Sub8": "(:B)-[:X]->(:A)",
}

ANCHOR = {
    "Full": 0, "Sub1": 0, "Sub2": 1, "Sub3": 0, "Sub4": 1,
    "Sub5": 2, "Sub6": 0, "Sub7": 2, "Sub8": 3,
}
"""Position in a hidden path (a=0 .. e=4) where each pattern's occurrence
along that path starts — the first node of its index entries."""


@dataclass
class GraphSpec:
    """The generated graph as data; node/relationship positions are spec
    indexes, mapped to store ids by :func:`load`."""

    seed: int
    paths: int
    noise: int
    node_labels: list[str] = field(default_factory=list)
    rels: list[tuple[int, int, str]] = field(default_factory=list)
    hidden: list[tuple[int, int, int, int, int]] = field(default_factory=list)
    """Per hidden path, its (a, b, c, d, e) node indexes."""
    hidden_y: list[int] = field(default_factory=list)
    """Per hidden path, the index in ``rels`` of its Y relationship."""

    @property
    def x_noise(self) -> int:
        return (self.noise * self.paths) // 8 * 8

    @property
    def y_noise(self) -> int:
        return self.noise * self.paths

    def expected(self) -> dict[str, int]:
        """Exact occurrences of each pattern in :data:`PATTERNS`."""
        paths, x_noise, y_noise = self.paths, self.x_noise, self.y_noise
        return {
            "Full": paths,
            "Sub1": paths,
            "Sub2": paths,
            "Sub3": paths + 2 * x_noise,
            "Sub4": paths,
            "Sub5": paths + y_noise,
            "Sub6": 2 * paths + x_noise,
            "Sub7": paths + y_noise,
            "Sub8": paths,
        }

    def out_degree(self, node: int, kind: str) -> int:
        return sum(1 for start, _, k in self.rels if k == kind and start == node)

    def to_bytes(self) -> bytes:
        return json.dumps(
            [self.seed, self.paths, self.noise, self.node_labels, self.rels,
             self.hidden, self.hidden_y],
            separators=(",", ":"),
        ).encode()


def generate(seed: int, paths: int, noise: int) -> GraphSpec:
    rng = random.Random(seed)
    spec = GraphSpec(seed=seed, paths=paths, noise=noise)
    labels, rels = spec.node_labels, spec.rels

    def node(label: str) -> int:
        labels.append(label)
        return len(labels) - 1

    for _ in range(paths):
        a, b, c, d, e = node("A"), node("A"), node("A"), node("B"), node("A")
        rels.append((a, b, "X"))
        rels.append((b, c, "X"))
        spec.hidden_y.append(len(rels))
        rels.append((c, d, "Y"))
        rels.append((d, e, "X"))
        spec.hidden.append((a, b, c, d, e))
    for _ in range(spec.x_noise // 8):
        u, h, v = node("A"), node("A"), node("A")
        for _ in range(4):
            rels.append((u, h, "X"))
            rels.append((h, v, "X"))
    a_nodes = [path[0] for path in spec.hidden]
    d_nodes = [path[3] for path in spec.hidden]
    for _ in range(spec.y_noise):
        rels.append((rng.choice(a_nodes), rng.choice(d_nodes), "Y"))
    return spec


def brute_force_count(spec: GraphSpec, pattern: str) -> int:
    """Occurrences of ``pattern`` by exhaustive traversal of the spec (the
    tests' reference for :meth:`GraphSpec.expected`; relationships within one
    occurrence are pairwise distinct, as in Cypher)."""
    steps = pattern.replace("(", "").replace(")", "").replace("[", "").replace("]", "")
    parts = steps.split("-")  # ":A", ":X", ">:A", ...
    node_labels = [p.lstrip(">").lstrip(":") for p in parts[0::2]]
    rel_types = [p.lstrip(":") for p in parts[1::2]]
    out: dict[int, list[tuple[int, int, str]]] = {}
    for rel_index, (start, end, type_name) in enumerate(spec.rels):
        out.setdefault(start, []).append((rel_index, end, type_name))

    def extend(at: int, depth: int, used: tuple[int, ...]) -> int:
        if depth == len(rel_types):
            return 1
        total = 0
        for rel_index, end, type_name in out.get(at, ()):
            if (
                type_name == rel_types[depth]
                and spec.node_labels[end] == node_labels[depth + 1]
                and rel_index not in used
            ):
                total += extend(end, depth + 1, used + (rel_index,))
        return total

    return sum(
        extend(start, 0, ())
        for start, label in enumerate(spec.node_labels)
        if label == node_labels[0]
    )


@dataclass
class LoadedGraph:
    """Store ids of a loaded spec."""

    spec: GraphSpec
    node_ids: list[int]
    rel_ids: list[int]

    def hidden_path(self, i: int) -> tuple[int, int, int, int, int]:
        return tuple(self.node_ids[n] for n in self.spec.hidden[i])


def load(db, spec: GraphSpec) -> LoadedGraph:
    """Bulk-load ``spec`` in one transaction through the public write API."""
    label_ids = {name: db.label(name) for name in ("A", "B")}
    type_ids = {name: db.relationship_type(name) for name in ("X", "Y")}
    with db.begin() as tx:
        node_ids = [tx.create_node([label_ids[label]]) for label in spec.node_labels]
        rel_ids = [
            tx.create_relationship(node_ids[start], node_ids[end], type_ids[type_name])
            for start, end, type_name in spec.rels
        ]
        tx.success()
    return LoadedGraph(spec, node_ids, rel_ids)
