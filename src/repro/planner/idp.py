"""The iterative dynamic programming solver (§2.2.2) with solver steps.

The table maps each *solved set* of pattern relationships to the best plan
found for it. Generation ``k`` derives plans solving exactly ``k``
relationships from smaller table entries through the solver steps:

* **expand** — extend a plan by one adjacent relationship (ExpandAll /
  ExpandInto);
* **join** — NodeHashJoin of two disjoint plans sharing a node;
* **path index scan** — a PathIndexScan/FilteredScan over a matched index
  enters the table at generation = pattern length (the solver-step planner of
  §5.1; length-1 scans come from the leaf planner);
* **prefix seek** — PathIndexPrefixSeek extends an existing plan whose bound
  symbols form a prefix of a matched index pattern.

Plans for the same solved set are compared by (required-index coverage,
cost); the first criterion implements the evaluation's forced-index plans
without distorting the cost model.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PlannerError
from repro.pathindex.store import PathIndexStore
from repro.planner.factory import PlanFactory
from repro.planner.hints import PlannerHints
from repro.planner.index_match import IndexMatch, find_index_matches
from repro.planner.plans import LogicalPlan
from repro.querygraph import QueryGraph


class IDPSolver:
    """Plans one connected component of a query graph."""

    def __init__(
        self,
        factory: PlanFactory,
        component: QueryGraph,
        index_store: Optional[PathIndexStore],
        hints: PlannerHints,
    ) -> None:
        self.factory = factory
        self.component = component
        self.index_store = index_store
        self.hints = hints
        self.matches: list[IndexMatch] = []
        if index_store is not None and hints.use_path_indexes:
            allowed = [
                name
                for name in index_store.names()
                if hints.index_allowed(name)
            ]
            self.matches = find_index_matches(
                component, index_store.patterns(), allowed
            )
        self._table: dict[frozenset[str], LogicalPlan] = {}

    # ------------------------------------------------------------------

    def solve(self) -> LogicalPlan:
        rels = self.component.relationships
        if not rels:
            return self._solve_relationship_free()
        self._generation_one()
        anchor = self.factory.argument()
        if anchor.solved_rels:
            # Pattern relationships bound as arguments (maintenance anchors)
            # enter the table pre-solved.
            self._consider(self.factory.with_filters(anchor))
        for match in self.matches:
            if len(match.rel_names) > 1 and self._scannable(match):
                self._consider(self.factory.path_index_scan(match))
        goal = frozenset(rels)
        for size in range(2, len(rels) + 1):
            self._generation(size)
        plan = self._table.get(goal)
        if plan is None:
            raise PlannerError(
                f"could not plan component with relationships {sorted(rels)}"
            )
        return plan

    # ------------------------------------------------------------------

    def _solve_relationship_free(self) -> LogicalPlan:
        names = list(self.component.nodes)
        if not names:
            return self.factory.with_filters(self.factory.argument())
        # A connected, relationship-free component is a single node.
        plan = self._node_leaf(names[0])
        for other in names[1:]:  # defensive: isolated nodes grouped together
            plan = self.factory.cartesian_product(plan, self._node_leaf(other))
        return plan

    def _node_leaf(self, name: str) -> LogicalPlan:
        """A node carried in from the previous part is an argument (its
        labels are selections), never a rescan of the store."""
        if name in self.factory.arguments:
            return self.factory.with_filters(self.factory.argument())
        return self.factory.node_leaf(name)

    def _generation_one(self) -> None:
        """The leaf planner (§2.2.1): one bin per relationship, best kept."""
        for rel in self.component.relationships.values():
            for endpoint in dict.fromkeys((rel.start, rel.end)):
                plan = self.factory.expand(self._node_leaf(endpoint), rel)
                if plan is not None:
                    self._consider(plan)
            self._consider_type_scan(rel)
        for match in self.matches:
            if len(match.rel_names) == 1 and self._scannable(match):
                self._consider(self.factory.path_index_scan(match))

    def _consider_type_scan(self, rel) -> None:
        if not self.hints.use_relationship_type_scan:
            return
        if self.index_store is None or len(rel.types) != 1:
            return
        (type_name,) = rel.types
        index = self.index_store.type_scan_index(type_name)
        if index is None or index.name in self.hints.forbidden_indexes:
            return
        if (
            self.hints.allowed_indexes is not None
            and index.name not in self.hints.allowed_indexes
        ):
            return
        self._consider(
            self.factory.relationship_by_type_scan(rel, type_name, index.name)
        )

    def _generation(self, size: int) -> None:
        new_plans: list[LogicalPlan] = []
        entries = list(self._table.items())
        for solved, plan in entries:
            if len(solved) != size - 1:
                continue
            for rel in self.component.relationships.values():
                if rel.name in solved:
                    continue
                candidate = self.factory.expand(plan, rel)
                if candidate is not None:
                    new_plans.append(candidate)
        for solved_left, left in entries:
            for solved_right, right in entries:
                if len(solved_left) + len(solved_right) != size:
                    continue
                if solved_left & solved_right:
                    continue
                candidate = self.factory.node_hash_join(left, right)
                if candidate is not None:
                    new_plans.append(candidate)
        for match in self.matches:
            for solved, plan in entries:
                if len(solved | match.rel_names) != size:
                    continue
                candidate = self.factory.path_index_prefix_seek(plan, match)
                if candidate is not None:
                    new_plans.append(candidate)
        for plan in new_plans:
            self._consider(plan)

    def _scannable(self, match: IndexMatch) -> bool:
        """Partially materialized indexes (§4.1) never serve full scans;
        they are offered through PathIndexPrefixSeek only."""
        if self.index_store is None:
            return False
        return self.index_store.get(match.index_name).supports_full_scan

    # ------------------------------------------------------------------

    def _consider(self, plan: LogicalPlan) -> None:
        key = plan.solved_rels
        incumbent = self._table.get(key)
        if incumbent is None or self._better(plan, incumbent):
            self._table[key] = plan

    def _better(self, challenger: LogicalPlan, incumbent: LogicalPlan) -> bool:
        required = self.hints.required_indexes
        if required:
            challenger_hits = len(challenger.indexes_used & required)
            incumbent_hits = len(incumbent.indexes_used & required)
            if challenger_hits != incumbent_hits:
                return challenger_hits > incumbent_hits
        if challenger.cost != incumbent.cost:
            return challenger.cost < incumbent.cost
        # Deterministic tie-break keeps planning reproducible.
        return challenger.describe() < incumbent.describe()
