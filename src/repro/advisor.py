"""Index advisor: which patterns should be path-indexed?

§9 of the paper names index selection "an interesting optimization problem"
and §7.3 describes the manual procedure the authors used on YAGO: compare
the planner's cardinality estimate for workload patterns against actual
counts; a large *misprediction factor* signals correlated data, and a low
actual cardinality signals a selective pattern — the combination is the
path-index sweet spot (§8). This module automates that procedure:

1. extract candidate patterns from a Cypher workload (each path-shaped MATCH
   plus all of its contiguous sub-patterns, the Sub1..SubN family of the
   evaluation);
2. score each candidate by misprediction × selectivity;
3. greedily pick candidates under a storage budget (estimated from the
   actual count and the 8·(2k+1) entry size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.bptree.keys import entry_size_bytes
from repro.cypher import analyze, parse
from repro.db.database import GraphDatabase
from repro.db.patternquery import PatternQueries
from repro.errors import ReproError
from repro.pathindex.pattern import PathPattern, PatternRelationship
from repro.planner import CardinalityEstimator, PlannerHints
from repro.querygraph import build_query_parts

_BASELINE = PlannerHints(use_path_indexes=False)

# B+-tree pages are ~50–70% full on random insertion; Table 2 shows ≈2.3×
# on-disk overhead over raw entry data in Neo4j's implementation.
_DISK_OVERHEAD = 2.0


@dataclass(frozen=True)
class IndexCandidate:
    """One scored candidate pattern."""

    pattern: PathPattern
    actual_cardinality: int
    estimated_cardinality: float
    estimated_bytes: int

    @property
    def misprediction_factor(self) -> float:
        """≥1; how wrong the independence estimate is, either direction."""
        if self.actual_cardinality == 0:
            return float("inf") if self.estimated_cardinality > 1 else 1.0
        ratio = self.estimated_cardinality / self.actual_cardinality
        if ratio <= 0:
            return float("inf")
        return max(ratio, 1.0 / ratio)

    def score(self, total_relationships: int) -> float:
        """Misprediction × selectivity — the §8 heuristic, quantified."""
        selectivity = 1.0 - min(
            1.0, self.actual_cardinality / max(total_relationships, 1)
        )
        factor = self.misprediction_factor
        if factor == float("inf"):
            factor = 1e6
        return factor * selectivity


class IndexAdvisor:
    """Scores and selects path-index candidates for a workload."""

    def __init__(self, db: GraphDatabase) -> None:
        self.db = db
        # Its own plans: candidates must not evict the maintainer's.
        self.queries = PatternQueries(db.store, db.indexes)
        self.estimator = CardinalityEstimator(
            db.store.statistics, db.store.labels, db.store.types
        )

    # ------------------------------------------------------------------
    # Candidate extraction
    # ------------------------------------------------------------------

    def patterns_from_query(self, query_text: str) -> list[PathPattern]:
        """The query's path pattern plus all contiguous sub-patterns."""
        pattern = extract_path_pattern(query_text)
        if pattern is None:
            return []
        family = [pattern]
        family.extend(pattern.sub_patterns())
        return family

    def candidates(self, workload: Iterable[str]) -> list[IndexCandidate]:
        """Deduplicated, scored candidates for a workload, best first."""
        seen: dict[str, PathPattern] = {}
        for query_text in workload:
            for pattern in self.patterns_from_query(query_text):
                seen.setdefault(str(pattern), pattern)
        scored = [self.evaluate(pattern) for pattern in seen.values()]
        total = self.db.store.statistics.relationship_count
        scored.sort(key=lambda candidate: candidate.score(total), reverse=True)
        return scored

    def evaluate(self, pattern: PathPattern) -> IndexCandidate:
        """Count the pattern (exactly) and estimate it (independence model)."""
        cached = self.queries.prepare(pattern, hints=_BASELINE)
        actual = sum(1 for _ in self.queries.execute(cached))
        ((part, _),) = cached.planned_parts
        graph = part.query_graph
        estimate = self.estimator.pattern_cardinality(
            graph, frozenset(graph.relationships), frozenset(graph.nodes)
        )
        bytes_estimate = int(
            actual * entry_size_bytes(pattern.key_width) * _DISK_OVERHEAD
        )
        return IndexCandidate(
            pattern=pattern,
            actual_cardinality=actual,
            estimated_cardinality=estimate,
            estimated_bytes=bytes_estimate,
        )

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def advise(
        self,
        workload: Iterable[str],
        budget_bytes: Optional[int] = None,
        max_indexes: Optional[int] = None,
    ) -> list[IndexCandidate]:
        """Greedy selection of the best candidates under the constraints."""
        chosen: list[IndexCandidate] = []
        remaining = budget_bytes
        for candidate in self.candidates(workload):
            if max_indexes is not None and len(chosen) >= max_indexes:
                break
            if remaining is not None and candidate.estimated_bytes > remaining:
                continue
            chosen.append(candidate)
            if remaining is not None:
                remaining -= candidate.estimated_bytes
        return chosen

    def create_advised(
        self,
        workload: Iterable[str],
        budget_bytes: Optional[int] = None,
        max_indexes: Optional[int] = None,
        name_prefix: str = "advised",
    ) -> list[str]:
        """Advise and actually build the chosen indexes; returns their names."""
        names = []
        for position, candidate in enumerate(
            self.advise(workload, budget_bytes, max_indexes)
        ):
            name = f"{name_prefix}_{position}"
            self.db.create_path_index(name, candidate.pattern)
            names.append(name)
        return names


# ---------------------------------------------------------------------------
# Pattern extraction from Cypher
# ---------------------------------------------------------------------------


def extract_path_pattern(query_text: str) -> Optional[PathPattern]:
    """The single path pattern of a query, or None if the query's shape is
    not an open chain (path indexes cover chains only)."""
    try:
        parts = build_query_parts(analyze(parse(query_text)))
    except ReproError:
        return None
    if len(parts) != 1:
        return None
    graph = parts[0].query_graph
    if not graph.relationships or len(graph.nodes) != len(graph.relationships) + 1:
        return None
    # Chain check: every node appears in ≤2 relationships; find the ends.
    incidence: dict[str, list] = {name: [] for name in graph.nodes}
    for rel in graph.relationships.values():
        if rel.start == rel.end or not rel.directed:
            return None
        incidence[rel.start].append(rel)
        incidence[rel.end].append(rel)
    ends = [name for name, rels in incidence.items() if len(rels) == 1]
    if len(ends) != 2 or any(len(rels) > 2 for rels in incidence.values()):
        return None
    current = min(ends)
    labels = []
    steps = []
    used: set[str] = set()
    while True:
        node = graph.nodes[current]
        labels.append(min(node.labels) if node.labels else None)
        next_rels = [rel for rel in incidence[current] if rel.name not in used]
        if not next_rels:
            break
        rel = next_rels[0]
        used.add(rel.name)
        if len(rel.types) > 1:
            return None
        type_name = min(rel.types) if rel.types else None
        steps.append(PatternRelationship(type_name, forward=rel.start == current))
        current = rel.other(current)
    if len(steps) != len(graph.relationships):
        return None
    return PathPattern(labels=tuple(labels), relationships=tuple(steps))
