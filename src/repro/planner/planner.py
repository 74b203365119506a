"""Top-level planner: query parts → logical plans.

Per part: split the query graph into connected components (§2.2), solve each
with the IDP solver, combine components with CartesianProduct cheapest-first,
apply any remaining cross-component selections, then add the projection
boundary (Projection / Distinct / Sort / Limit), update parts too (their
writes apply before it). A ``manual_expand_chain``
hint bypasses the solver entirely and builds a hand-ordered scan-then-expand
plan (the paper's YAGO ``Manual`` plan, §7.3).
"""

from __future__ import annotations

from typing import Optional

from repro.cypher import ast
from repro.errors import PlannerError
from repro.pathindex.store import PathIndexStore
from repro.planner.cardinality import CardinalityEstimator
from repro.planner.cost import CostModel
from repro.planner.factory import PlanFactory
from repro.planner.hints import PlannerHints
from repro.planner.idp import IDPSolver
from repro.planner.plans import LogicalPlan
from repro.querygraph import QueryPart
from repro.storage.graphstore import GraphStore


class Planner:
    """Plans query parts against one graph store + path index store."""

    def __init__(
        self,
        store: GraphStore,
        index_store: Optional[PathIndexStore] = None,
    ) -> None:
        self.store = store
        self.index_store = index_store
        # statistics_view resolves to the reader's snapshot (falling back
        # to the live counters in latest mode), so a pinned reader plans
        # against the statistics of its own LSN.
        self.estimator = CardinalityEstimator(
            store.statistics_view(), store.labels, store.types
        )

    def plan_part(
        self, part: QueryPart, hints: Optional[PlannerHints] = None
    ) -> LogicalPlan:
        """Produce the logical plan for one query part."""
        hints = hints or PlannerHints()
        cost_model = CostModel(hints.path_index_cost_factor)
        factory = PlanFactory(
            part.query_graph,
            self.estimator,
            cost_model,
            index_store=self.index_store,
            use_index_cardinality=hints.use_index_cardinality,
        )
        if hints.manual_expand_chain is not None:
            plan = self._manual_plan(factory, part, hints)
        elif hints.index_seed_chain is not None:
            plan = self._index_seed_plan(factory, part, hints)
        else:
            plan = self._solve(factory, part, hints)
        self._check_required_indexes(plan, hints)
        plan = factory.with_filters(plan)  # cross-component selections
        missing = [
            index
            for index, selection in enumerate(factory.selections)
            if index not in plan.applied_selections
        ]
        if missing:
            unresolved = [str(factory.selections[i]) for i in missing]
            raise PlannerError(
                f"selections could not be applied: {unresolved}"
            )
        return self._boundary(factory, part, plan)

    # ------------------------------------------------------------------

    def _solve(
        self, factory: PlanFactory, part: QueryPart, hints: PlannerHints
    ) -> LogicalPlan:
        components = part.query_graph.connected_components()
        plans = [
            IDPSolver(factory, component, self.index_store, hints).solve()
            for component in components
        ]
        # Combine cheapest-first so the nested-loop right sides re-run the
        # smaller inputs.
        plans.sort(key=lambda plan: (plan.cardinality, plan.cost))
        combined = plans[0]
        for plan in plans[1:]:
            combined = factory.cartesian_product(combined, plan)
        return combined

    def _manual_plan(
        self, factory: PlanFactory, part: QueryPart, hints: PlannerHints
    ) -> LogicalPlan:
        start_node, rel_order = hints.manual_expand_chain
        query_graph = part.query_graph
        if start_node not in query_graph.nodes:
            raise PlannerError(f"manual plan start node {start_node!r} unknown")
        plan = factory.node_leaf(start_node)
        for rel_name in rel_order:
            rel = query_graph.relationships.get(rel_name)
            if rel is None:
                raise PlannerError(f"manual plan relationship {rel_name!r} unknown")
            extended = factory.expand(plan, rel)
            if extended is None:
                raise PlannerError(
                    f"manual plan: relationship {rel_name!r} is not adjacent "
                    "to the plan built so far"
                )
            plan = extended
        unsolved = set(query_graph.relationships) - set(plan.solved_rels)
        if unsolved:
            raise PlannerError(
                f"manual plan leaves relationships unsolved: {sorted(unsolved)}"
            )
        return plan

    def _index_seed_plan(
        self, factory: PlanFactory, part: QueryPart, hints: PlannerHints
    ) -> LogicalPlan:
        """Scan the named index, then expand the named relationships in
        order — the plan shape of Figure 10's index rows."""
        from repro.planner.index_match import find_index_matches

        index_name, rel_order = hints.index_seed_chain
        if self.index_store is None or index_name not in self.index_store:
            raise PlannerError(f"index seed {index_name!r} is not registered")
        matches = find_index_matches(
            part.query_graph, self.index_store.patterns(), [index_name]
        )
        if not matches:
            raise PlannerError(
                f"index {index_name!r} does not match this query pattern"
            )
        plan = factory.path_index_scan(matches[0])
        plan = factory.with_filters(plan)
        for rel_name in rel_order:
            rel = part.query_graph.relationships.get(rel_name)
            if rel is None:
                raise PlannerError(f"seed plan relationship {rel_name!r} unknown")
            extended = factory.expand(plan, rel)
            if extended is None:
                raise PlannerError(
                    f"seed plan: relationship {rel_name!r} is not adjacent to "
                    "the plan built so far"
                )
            plan = extended
        unsolved = set(part.query_graph.relationships) - set(plan.solved_rels)
        if unsolved:
            raise PlannerError(
                f"seed plan leaves relationships unsolved: {sorted(unsolved)}"
            )
        return plan

    def _check_required_indexes(self, plan: LogicalPlan, hints: PlannerHints) -> None:
        missing = hints.required_indexes - plan.indexes_used
        if missing:
            raise PlannerError(
                f"no plan uses required index(es) {sorted(missing)}; their "
                "patterns do not match this query"
            )

    def _boundary(
        self, factory: PlanFactory, part: QueryPart, plan: LogicalPlan
    ) -> LogicalPlan:
        aggregating = any(
            ast.contains_aggregate(item.expression) for item in part.projection
        )
        if part.order_by and not aggregating:
            # Sort runs before the projection so ORDER BY can reference both
            # pattern variables and projected aliases (aliases resolve to
            # their source expressions).
            alias_map = {
                item.output_name: item.expression for item in part.projection
            }
            resolved = []
            for expression, ascending in part.order_by:
                if (
                    isinstance(expression, ast.Variable)
                    and expression.name in alias_map
                ):
                    expression = alias_map[expression.name]
                resolved.append((expression, ascending))
            plan = factory.sort(plan, resolved)
        if part.projection and aggregating:
            plan = factory.aggregation(plan, part.projection)
            if part.order_by:
                # Sort over the aggregated output columns; ORDER BY items
                # matching a projection item textually resolve to its alias.
                # (An ORDER BY literal is never a slot — its text decides
                # the match — see ``parse_shape``.)
                text_to_name = {
                    str(item.expression): item.output_name
                    for item in part.projection
                }
                resolved = []
                for expression, ascending in part.order_by:
                    name = text_to_name.get(str(expression))
                    if name is not None:
                        expression = ast.Variable(name)
                    resolved.append((expression, ascending))
                plan = factory.sort(plan, resolved)
        elif part.projection:
            plan = factory.projection(plan, part.projection)
        if part.projection_where is not None:
            plan = factory.explicit_filter(plan, [part.projection_where])
        if part.distinct and part.projection:
            plan = factory.distinct(
                plan, [item.output_name for item in part.projection]
            )
        # A SKIP slot is always present, whatever its value: the shape's
        # plan keeps a Limit that a literal ``SKIP 0`` would have dropped.
        if part.limit is not None or part.skip:
            plan = factory.limit(plan, part.limit, part.skip)
        return plan
