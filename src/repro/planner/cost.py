"""Cost model: per-row operator costs plus the paper's path-index heuristics.

Conventional operator costs follow the Neo4j 3.5 shape (cost = child costs +
work proportional to rows touched); the path-index operator costs are the
exact formulas of §5.1:

* PathIndexScan:          ``cost = c · (1 + 0.1·n)``
* PathIndexFilteredScan:  ``cost = c · (1.05 + 0.1·n)``
* PathIndexPrefixSeek:    ``cost = 2·cost_child + 10·m + c/m`` with
  ``m = c_child · fraction`` and ``fraction`` the share of the child plan's
  symbols that form the seek prefix,

where ``c`` is the estimated output cardinality and ``n`` the number of
identifiers stored per entry. A ``path_index_cost_factor`` reproduces the
paper's "special debug parameters ... to reduce the cost function" used to
force index plans in the experiments.
"""

from __future__ import annotations

COST_PER_ROW_SCAN = 1.0
COST_PER_ROW_LABEL_SCAN = 1.0
COST_PER_ROW_EXPAND = 1.5
COST_PER_ROW_EXPAND_INTO = 6.4
COST_PER_ROW_FILTER = 1.0
COST_PER_ROW_HASH_BUILD = 2.0
COST_PER_ROW_HASH_PROBE = 1.0
COST_PER_ROW_HASH_OUT = 1.2
COST_PER_ROW_PROJECTION = 0.1


class CostModel:
    """Computes plan costs; stateless apart from the debug factor."""

    def __init__(self, path_index_cost_factor: float = 1.0) -> None:
        self.path_index_cost_factor = path_index_cost_factor

    # -- conventional operators ---------------------------------------------

    def all_nodes_scan(self, cardinality: float) -> float:
        return cardinality * COST_PER_ROW_SCAN

    def node_by_label_scan(self, cardinality: float) -> float:
        return cardinality * COST_PER_ROW_LABEL_SCAN

    def node_by_id_seek(self) -> float:
        # One record fetch, whatever the label's size.
        return COST_PER_ROW_SCAN

    def relationship_by_type_scan(self, cardinality: float) -> float:
        # §6.1: "the same per-row cost as NodeByLabelScan".
        return cardinality * COST_PER_ROW_LABEL_SCAN

    def expand_all(self, child_cost: float, child_card: float, out_card: float) -> float:
        return child_cost + child_card * COST_PER_ROW_EXPAND + out_card

    def expand_into(self, child_cost: float, child_card: float, out_card: float) -> float:
        return child_cost + child_card * COST_PER_ROW_EXPAND_INTO + out_card

    def filter(self, child_cost: float, child_card: float, predicates: int) -> float:
        return child_cost + child_card * COST_PER_ROW_FILTER * max(predicates, 1)

    def node_hash_join(
        self,
        left_cost: float,
        left_card: float,
        right_cost: float,
        right_card: float,
        out_card: float,
    ) -> float:
        # Building the hash table materializes the left side and every output
        # row is assembled from both sides, so joins carry a small per-row
        # premium over streaming expansion at equal output cardinality.
        return (
            left_cost
            + right_cost
            + left_card * COST_PER_ROW_HASH_BUILD
            + right_card * COST_PER_ROW_HASH_PROBE
            + out_card * COST_PER_ROW_HASH_OUT
        )

    def cartesian_product(
        self, left_cost: float, left_card: float, right_cost: float
    ) -> float:
        # Nested-loop shape: the right side re-runs per left row.
        return left_cost + max(left_card, 1.0) * right_cost

    def projection(self, child_cost: float, child_card: float) -> float:
        return child_cost + child_card * COST_PER_ROW_PROJECTION

    # -- path index operators (§5.1) ---------------------------------------

    def path_index_scan(self, cardinality: float, stored_identifiers: int) -> float:
        cost = cardinality * (1.0 + 0.1 * stored_identifiers)
        return cost * self.path_index_cost_factor

    def path_index_filtered_scan(
        self, cardinality: float, stored_identifiers: int
    ) -> float:
        cost = cardinality * (1.05 + 0.1 * stored_identifiers)
        return cost * self.path_index_cost_factor

    def path_index_prefix_seek(
        self,
        child_cost: float,
        child_card: float,
        prefix_symbols: int,
        child_symbols: int,
        out_card: float,
    ) -> float:
        fraction = prefix_symbols / max(child_symbols, 1)
        unique_prefixes = max(child_card * fraction, 1.0)
        own_work = 10.0 * unique_prefixes + out_card / unique_prefixes
        # The debug factor discounts the operator's own work only — the child
        # plan still has to be paid for.
        return 2.0 * child_cost + own_work * self.path_index_cost_factor
