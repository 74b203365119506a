"""Planner hints: the debug/forcing controls the evaluation relies on.

The paper repeatedly "forces the planner to pick a plan that contains an
operator that uses this index" (§7.1.2) and compares against a hand-ordered
``Manual`` plan (§7.3). These hints reproduce those controls without touching
the cost model, plus the maintenance planner's need to forbid specific
indexes (Algorithm 1, line 17: "Query(P but avoid using index, G)").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class PlannerHints:
    """Immutable planning controls for one query execution."""

    use_path_indexes: bool = True
    """Master switch: False gives the baseline planner (§6.1 still provides
    RelationshipByTypeScan through type-only indexes when registered)."""

    required_indexes: frozenset[str] = frozenset()
    """The final plan must use these indexes; plans using them win every
    cost comparison against plans that do not (the paper's forced plans)."""

    forbidden_indexes: frozenset[str] = frozenset()
    """Indexes the planner must not use (maintenance's "avoid using index")."""

    allowed_indexes: Optional[frozenset[str]] = None
    """When set, only these indexes may be used (None = all registered)."""

    use_relationship_type_scan: bool = True
    """Whether the §6.1 baseline extension operator is offered."""

    path_index_cost_factor: float = 1.0
    """Multiplier on path-index operator costs (the paper's debug knob)."""

    manual_expand_chain: Optional[tuple[str, tuple[str, ...]]] = None
    """Hand-ordered plan: ``(start_node_variable, relationship_names)``.
    Bypasses the DP solver and builds scan-then-expand in exactly this order
    (the YAGO ``Manual`` plan)."""

    index_seed_chain: Optional[tuple[str, tuple[str, ...]]] = None
    """Hand-ordered index plan: ``(index_name, relationship_names)``.
    Bypasses the DP solver and builds PathIndexScan(index) followed by the
    named expansions — the plan shape of the paper's Figure 10 Full/Sub1
    rows."""

    use_index_cardinality: bool = False
    """§9 future work, implemented as an opt-in extension: path-index scans
    report their *exact* cardinality (the index knows how many occurrences it
    stores) and downstream operators scale incrementally from it, instead of
    everything using the independence-model estimate. Off by default — the
    paper's prototype used the unmodified estimator."""

    def index_allowed(self, name: str) -> bool:
        if not self.use_path_indexes:
            return False
        if name in self.forbidden_indexes:
            return False
        if self.allowed_indexes is not None and name not in self.allowed_indexes:
            return False
        return True

    def forbidding(self, *names: str) -> "PlannerHints":
        """A copy with ``names`` added to the forbidden set."""
        return replace(
            self,
            required_indexes=self.required_indexes - frozenset(names),
            forbidden_indexes=self.forbidden_indexes | frozenset(names),
        )
