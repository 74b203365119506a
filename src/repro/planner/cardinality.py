"""Independence-assumption cardinality estimator.

This is deliberately the estimator the paper inherited unchanged (§4.1): it
"assumes that all filtering and combining operations behave according to the
global statistics of the data". Correlated data violates the assumption,
which is why baseline plans on the correlated and YAGO workloads are poor —
a key observation of the evaluation.

Model (per Neo4j 3.5's assumption-of-independence estimator):

* a pattern node with labels ``L1..Lm`` has cardinality
  ``N × Π (|Li| / N)``;
* a pattern relationship contributes a selectivity
  ``est(L_start, T, L_end) / (|start| × |end|)`` where
  ``est = min(count(:L_start-[:T]->), count(-[:T]->:L_end))``;
* predicate selectivities use fixed defaults (equality 0.1, inequality 0.9,
  range 0.3, label predicate |L|/N) — except ``id(x) = k``, which names one
  entity and so selects ``1 / |x|`` of the pattern node or relationship it
  is about.

Estimates are a function of the *solved sub-pattern*, so plans solving the
same part of the query graph always get the same cardinality — a requirement
of the dynamic-programming comparison.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cypher import ast
from repro.querygraph import QueryGraph, QueryRelationship
from repro.storage.statistics import GraphStatistics
from repro.storage.stores import TokenStore

DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 0.3
MIN_CARDINALITY = 1.0


class CardinalityEstimator:
    """Estimates sub-pattern cardinalities from graph statistics."""

    def __init__(
        self,
        statistics: GraphStatistics,
        label_tokens: TokenStore,
        type_tokens: TokenStore,
    ) -> None:
        self._stats = statistics
        self._labels = label_tokens
        self._types = type_tokens

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------

    def all_nodes(self) -> float:
        return float(self._stats.node_count)

    def node_cardinality(self, labels: Iterable[str]) -> float:
        """``N × Π |label|/N`` — labels assumed independent."""
        total = float(self._stats.node_count)
        if total <= 0:
            return 0.0
        estimate = total
        for label in labels:
            estimate *= self._label_count(label) / total
        return estimate

    def label_selectivity(self, label: str) -> float:
        total = float(self._stats.node_count)
        if total <= 0:
            return 0.0
        return self._label_count(label) / total

    def relationship_count_estimate(
        self,
        start_labels: frozenset[str],
        types: frozenset[str],
        end_labels: frozenset[str],
    ) -> float:
        """Estimated count of ``(:S)-[:T]->(:E)`` relationships.

        With both endpoint labels known only through per-side statistics, the
        estimator takes the minimum of the per-side counts (Neo4j 3.5's
        behaviour); multiple labels multiply as independent selectivities.
        """
        type_list: list[Optional[str]] = (
            [None] if not types else sorted(types)  # untyped: all types
        )
        total = 0.0
        for type_name in type_list:
            type_id = self._types.id_of(type_name) if type_name else None
            if type_name is not None and type_id is None:
                continue  # unknown type: zero relationships
            base = float(self._stats.rels_with_type(type_id))
            if base <= 0:
                continue
            candidates = [base]
            start_list = sorted(start_labels)
            end_list = sorted(end_labels)
            if start_list:
                first, *rest = start_list
                start_estimate = self._from_start(first, type_id)
                for label in rest:
                    start_estimate *= self.label_selectivity(label)
                candidates.append(start_estimate)
            if end_list:
                first, *rest = end_list
                end_estimate = self._from_end(type_id, first)
                for label in rest:
                    end_estimate *= self.label_selectivity(label)
                candidates.append(end_estimate)
            total += min(candidates)
        return total

    # ------------------------------------------------------------------
    # Pattern estimation
    # ------------------------------------------------------------------

    def pattern_cardinality(
        self,
        query_graph: QueryGraph,
        rel_names: frozenset[str],
        node_names: frozenset[str],
        selections: Iterable[ast.Expression] = (),
    ) -> float:
        """Estimate the cardinality of the sub-pattern covering the given
        relationships and nodes, with ``selections`` applied on top."""
        estimate = 1.0
        for name in sorted(node_names):
            node = query_graph.nodes.get(name)
            if node is None:
                continue  # argument variable: cardinality contributed upstream
            estimate *= self.node_cardinality(node.labels)
        for name in sorted(rel_names):
            rel = query_graph.relationships[name]
            estimate *= self.relationship_selectivity(query_graph, rel)
        for selection in selections:
            estimate *= self.predicate_selectivity(selection, query_graph)
        return max(estimate, 0.0)

    def relationship_selectivity(
        self, query_graph: QueryGraph, rel: QueryRelationship
    ) -> float:
        """Probability that a random (start, end) node pair is connected."""
        start_labels = self._labels_of(query_graph, rel.start)
        end_labels = self._labels_of(query_graph, rel.end)
        start_card = self.node_cardinality(start_labels)
        end_card = self.node_cardinality(end_labels)
        denominator = start_card * end_card
        if denominator <= 0:
            return 0.0
        count = self.relationship_count_estimate(start_labels, rel.types, end_labels)
        if not rel.directed:
            count += self.relationship_count_estimate(
                end_labels, rel.types, start_labels
            )
        return min(count / denominator, 1.0)

    def predicate_selectivity(
        self, expression: ast.Expression, query_graph: Optional[QueryGraph] = None
    ) -> float:
        """Fixed default selectivities for WHERE predicates; an ``id(x) = k``
        over a variable of ``query_graph`` selects one of its candidates."""
        if isinstance(expression, ast.HasLabel):
            return self.label_selectivity(expression.label)
        if isinstance(expression, ast.Comparison):
            if expression.op is ast.ComparisonOp.EQ:
                candidates = self._id_candidates(expression, query_graph)
                if candidates is not None:
                    return 1.0 / max(candidates, 1.0)
                return DEFAULT_EQUALITY_SELECTIVITY
            if expression.op is ast.ComparisonOp.NEQ:
                return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(expression, ast.Not):
            return 1.0 - self.predicate_selectivity(expression.operand, query_graph)
        if isinstance(expression, ast.BooleanOp):
            left = self.predicate_selectivity(expression.left, query_graph)
            right = self.predicate_selectivity(expression.right, query_graph)
            if expression.op == "AND":
                return left * right
            if expression.op == "OR":
                return min(1.0, left + right - left * right)
            return min(1.0, left + right)  # XOR
        return 1.0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _id_candidates(
        self, expression: ast.Expression, query_graph: Optional[QueryGraph]
    ) -> Optional[float]:
        """How many entities ``x`` ranges over when ``expression`` is
        ``id(x) = k`` on a pattern variable; None for any other predicate."""
        match = ast.id_equality(expression)
        if match is None or query_graph is None:
            return None
        node = query_graph.nodes.get(match[0])
        if node is not None:
            return self.node_cardinality(node.labels)
        rel = query_graph.relationships.get(match[0])
        if rel is not None:
            return self.relationship_count_estimate(
                self._labels_of(query_graph, rel.start),
                rel.types,
                self._labels_of(query_graph, rel.end),
            )
        return None

    @staticmethod
    def _labels_of(query_graph: QueryGraph, node_name: str) -> frozenset[str]:
        node = query_graph.nodes.get(node_name)
        return node.labels if node is not None else frozenset()

    def _label_count(self, label: str) -> float:
        label_id = self._labels.id_of(label)
        if label_id is None:
            return 0.0
        return float(self._stats.nodes_with_label(label_id))

    def _from_start(self, label: str, type_id: Optional[int]) -> float:
        label_id = self._labels.id_of(label)
        if label_id is None:
            return 0.0
        return float(self._stats.rels_with_start_label_and_type(label_id, type_id))

    def _from_end(self, type_id: Optional[int], label: str) -> float:
        label_id = self._labels.id_of(label)
        if label_id is None:
            return 0.0
        return float(self._stats.rels_with_type_and_end_label(type_id, label_id))
