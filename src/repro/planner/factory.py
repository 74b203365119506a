"""Plan factory: constructs plan nodes with consistent estimates.

All cardinalities are a function of the solved sub-pattern (relationships +
bound pattern nodes + applied selections), so any two plans solving the same
part of the query graph are directly cost-comparable — the invariant the
dynamic-programming solver relies on (§2.2.2). After building any plan the
factory eagerly wraps a Filter for every selection whose variables just
became available (predicate push-down).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cypher import ast
from repro.pathindex.pattern import PathPattern
from repro.planner.cardinality import CardinalityEstimator
from repro.planner.cost import CostModel
from repro.planner.index_match import IndexMatch
from repro.planner.plans import (
    LogicalPlan,
    PlanAllNodesScan,
    PlanArgument,
    PlanCartesianProduct,
    PlanDistinct,
    PlanExpand,
    PlanFilter,
    PlanLimit,
    PlanNodeByIdSeek,
    PlanNodeByLabelScan,
    PlanNodeHashJoin,
    PlanPathIndexFilteredScan,
    PlanPathIndexPrefixSeek,
    PlanPathIndexScan,
    PlanProjection,
    PlanRelationshipByTypeScan,
    PlanSort,
    _combine_indexes,
)
from repro.querygraph import QueryGraph, QueryRelationship
from repro.storage.graphstore import Direction


class PlanFactory:
    """Builds plan nodes for one query graph."""

    def __init__(
        self,
        query_graph: QueryGraph,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        index_store=None,
        use_index_cardinality: bool = False,
    ) -> None:
        self.query_graph = query_graph
        self.estimator = estimator
        self.cost = cost_model
        self.index_store = index_store
        self.use_index_cardinality = use_index_cardinality
        self.selections: list[ast.Expression] = list(query_graph.selections)
        self.arguments = frozenset(query_graph.arguments)

    # ------------------------------------------------------------------
    # Estimation helpers
    # ------------------------------------------------------------------

    def _pattern_nodes(self, available: frozenset[str]) -> frozenset[str]:
        # Argument nodes are already bound by the previous part (or a
        # maintenance anchor): they contribute one row, not their label count.
        return (frozenset(available) & frozenset(self.query_graph.nodes)) - self.arguments

    def _estimate(
        self, available: frozenset[str], solved_rels: frozenset[str], applied: frozenset[int]
    ) -> float:
        exprs = [self.selections[i] for i in sorted(applied)]
        return self.estimator.pattern_cardinality(
            self.query_graph,
            solved_rels,
            self._pattern_nodes(available),
            exprs,
        )

    def _derived_cardinality(
        self,
        child: LogicalPlan,
        available: frozenset[str],
        solved_rels: frozenset[str],
        applied: frozenset[int],
    ) -> float:
        """Output cardinality for an operator extending ``child``.

        Default: the plan-independent pattern estimate (the paper's model,
        required for DP comparability). With ``use_index_cardinality`` (§9
        extension) the estimate becomes *incremental*: the child's (possibly
        exact, index-derived) cardinality scaled by the estimator's relative
        change, so exact index counts propagate up the plan.
        """
        estimate = self._estimate(available, solved_rels, applied)
        if not self.use_index_cardinality:
            return estimate
        child_estimate = self._estimate(
            child.available, child.solved_rels, child.applied_selections
        )
        if child_estimate <= 0:
            return estimate
        return child.cardinality * (estimate / child_estimate)

    def ready_selections(
        self, available: frozenset[str], applied: frozenset[int]
    ) -> list[int]:
        """Indices of unapplied selections whose variables are available."""
        usable = set(available) | set(self.arguments)
        ready = []
        for position, selection in enumerate(self.selections):
            if position in applied:
                continue
            if selection.variables() <= usable:
                ready.append(position)
        return ready

    def with_filters(self, plan: LogicalPlan) -> LogicalPlan:
        """Wrap ``plan`` in a Filter for every newly-ready selection."""
        ready = self.ready_selections(plan.available, plan.applied_selections)
        if not ready:
            return plan
        predicates = tuple(self.selections[i] for i in ready)
        applied = plan.applied_selections | frozenset(ready)
        cardinality = self._derived_cardinality(
            plan, plan.available, plan.solved_rels, applied
        )
        return PlanFilter(
            children=(plan,),
            available=plan.available,
            solved_rels=plan.solved_rels,
            applied_selections=applied,
            cardinality=cardinality,
            cost=self.cost.filter(plan.cost, plan.cardinality, len(predicates)),
            indexes_used=plan.indexes_used,
            predicates=predicates,
        )

    # ------------------------------------------------------------------
    # Leaf plans
    # ------------------------------------------------------------------

    def argument(self) -> LogicalPlan:
        variables = tuple(sorted(self.arguments))
        # A pattern relationship bound by the previous part (or a maintenance
        # anchor) is already solved: the runtime will not re-traverse it.
        solved = frozenset(
            name for name in self.query_graph.relationships if name in self.arguments
        )
        return PlanArgument(
            children=(),
            available=self.arguments,
            solved_rels=solved,
            applied_selections=frozenset(),
            cardinality=1.0,
            cost=0.0,
            indexes_used=frozenset(),
            variables=variables,
        )

    def node_leaf(self, node_name: str) -> LogicalPlan:
        """Cheapest leaf producing ``node_name``: a seek when a selection
        names its id, else a label scan if labelled, else all nodes."""
        node = self.query_graph.nodes[node_name]
        available = frozenset({node_name}) | self.arguments
        for position in self.ready_selections(available, frozenset()):
            match = ast.id_equality(self.selections[position])
            if match is not None and match[0] == node_name:
                applied = frozenset({position})
                seek = PlanNodeByIdSeek(
                    children=(),
                    available=available,
                    solved_rels=frozenset(),
                    applied_selections=applied,
                    cardinality=self._estimate(available, frozenset(), applied),
                    cost=self.cost.node_by_id_seek(),
                    indexes_used=frozenset(),
                    node=node_name,
                    node_id=match[1],
                    post_labels=tuple(
                        (node_name, label) for label in sorted(node.labels)
                    ),
                )
                return self.with_filters(seek)
        cardinality = self.estimator.node_cardinality(node.labels)
        if node.labels:
            # Scan the most selective label, check the rest while scanning.
            best_label = min(
                node.labels, key=lambda lbl: self.estimator.label_selectivity(lbl)
            )
            rest = tuple(
                (node_name, label) for label in sorted(node.labels - {best_label})
            )
            plan: LogicalPlan = PlanNodeByLabelScan(
                children=(),
                available=available,
                solved_rels=frozenset(),
                applied_selections=frozenset(),
                cardinality=cardinality,
                cost=self.cost.node_by_label_scan(
                    self.estimator.node_cardinality([best_label])
                ),
                indexes_used=frozenset(),
                node=node_name,
                label=best_label,
                post_labels=rest,
            )
        else:
            plan = PlanAllNodesScan(
                children=(),
                available=available,
                solved_rels=frozenset(),
                applied_selections=frozenset(),
                cardinality=cardinality,
                cost=self.cost.all_nodes_scan(self.estimator.all_nodes()),
                indexes_used=frozenset(),
                node=node_name,
            )
        return self.with_filters(plan)

    def relationship_by_type_scan(
        self, rel: QueryRelationship, type_name: str, index_name: str
    ) -> LogicalPlan:
        available = frozenset({rel.name, rel.start, rel.end}) | self.arguments
        solved = frozenset({rel.name})
        cardinality = self._estimate(available, solved, frozenset())
        post_labels = tuple(
            (node_name, label)
            for node_name in dict.fromkeys((rel.start, rel.end))
            for label in sorted(self.query_graph.nodes[node_name].labels)
        )
        scan_rows = self.estimator.relationship_count_estimate(
            frozenset(), frozenset({type_name}), frozenset()
        )
        plan = PlanRelationshipByTypeScan(
            children=(),
            available=available,
            solved_rels=solved,
            applied_selections=frozenset(),
            cardinality=cardinality,
            cost=self.cost.relationship_by_type_scan(scan_rows),
            indexes_used=frozenset({index_name}),
            rel=rel.name,
            rel_type=type_name,
            start_node=rel.start,
            end_node=rel.end,
            index_name=index_name,
            post_labels=post_labels,
            directed=rel.directed,
        )
        return self.with_filters(plan)

    # ------------------------------------------------------------------
    # Solver-step plans
    # ------------------------------------------------------------------

    def expand(self, child: LogicalPlan, rel: QueryRelationship) -> Optional[LogicalPlan]:
        """ExpandAll/ExpandInto over ``rel`` from a plan binding ≥1 endpoint."""
        start_bound = rel.start in child.available
        end_bound = rel.end in child.available
        if not start_bound and not end_bound:
            return None
        if rel.name in child.solved_rels:
            return None
        into = start_bound and end_bound
        if into:
            from_node, to_node = rel.start, rel.end
            direction = Direction.OUTGOING if rel.directed else Direction.BOTH
        elif start_bound:
            from_node, to_node = rel.start, rel.end
            direction = Direction.OUTGOING if rel.directed else Direction.BOTH
        else:
            from_node, to_node = rel.end, rel.start
            direction = Direction.INCOMING if rel.directed else Direction.BOTH
        available = child.available | {rel.name, to_node}
        solved = child.solved_rels | {rel.name}
        cardinality = self._derived_cardinality(
            child, available, solved, child.applied_selections
        )
        post_labels = tuple(
            (to_node, label)
            for label in sorted(self.query_graph.nodes[to_node].labels)
        )
        cost_fn = self.cost.expand_into if into else self.cost.expand_all
        plan = PlanExpand(
            children=(child,),
            available=available,
            solved_rels=solved,
            applied_selections=child.applied_selections,
            cardinality=cardinality,
            cost=cost_fn(child.cost, child.cardinality, cardinality),
            indexes_used=child.indexes_used,
            rel=rel.name,
            from_node=from_node,
            to_node=to_node,
            direction=direction,
            types=rel.types,
            into=into,
            post_labels=post_labels,
        )
        return self.with_filters(plan)

    def node_hash_join(
        self, left: LogicalPlan, right: LogicalPlan
    ) -> Optional[LogicalPlan]:
        if left.solved_rels & right.solved_rels:
            return None
        join_nodes = tuple(
            sorted(
                (left.available & right.available & frozenset(self.query_graph.nodes))
            )
        )
        if not join_nodes:
            return None
        available = left.available | right.available
        solved = left.solved_rels | right.solved_rels
        applied = left.applied_selections | right.applied_selections
        cardinality = self._estimate(available, solved, applied)
        if self.use_index_cardinality:
            # Scale by both children's correction factors.
            left_est = self._estimate(
                left.available, left.solved_rels, left.applied_selections
            )
            right_est = self._estimate(
                right.available, right.solved_rels, right.applied_selections
            )
            if left_est > 0 and right_est > 0:
                cardinality *= (left.cardinality / left_est) * (
                    right.cardinality / right_est
                )
        plan = PlanNodeHashJoin(
            children=(left, right),
            available=available,
            solved_rels=solved,
            applied_selections=applied,
            cardinality=cardinality,
            cost=self.cost.node_hash_join(
                left.cost,
                left.cardinality,
                right.cost,
                right.cardinality,
                cardinality,
            ),
            indexes_used=_combine_indexes((left, right)),
            join_nodes=join_nodes,
        )
        return self.with_filters(plan)

    def cartesian_product(self, left: LogicalPlan, right: LogicalPlan) -> LogicalPlan:
        available = left.available | right.available
        solved = left.solved_rels | right.solved_rels
        applied = left.applied_selections | right.applied_selections
        cardinality = self._estimate(available, solved, applied)
        if self.use_index_cardinality:
            left_est = self._estimate(
                left.available, left.solved_rels, left.applied_selections
            )
            right_est = self._estimate(
                right.available, right.solved_rels, right.applied_selections
            )
            if left_est > 0 and right_est > 0:
                cardinality *= (left.cardinality / left_est) * (
                    right.cardinality / right_est
                )
        plan = PlanCartesianProduct(
            children=(left, right),
            available=available,
            solved_rels=solved,
            applied_selections=applied,
            cardinality=cardinality,
            cost=self.cost.cartesian_product(left.cost, left.cardinality, right.cost),
            indexes_used=_combine_indexes((left, right)),
        )
        return self.with_filters(plan)

    # ------------------------------------------------------------------
    # Path index plans (§5.1)
    # ------------------------------------------------------------------

    def path_index_scan(self, match: IndexMatch) -> LogicalPlan:
        """PathIndexScan, or PathIndexFilteredScan when residual pattern
        checks or ready selections exist (§5.1.1–5.1.2)."""
        available = frozenset(match.entry_vars) | self.arguments
        solved = match.rel_names
        stored = match.pattern.key_width
        base_cardinality = self._estimate(available, solved, frozenset())
        if self.use_index_cardinality and self.index_store is not None:
            # §9 extension: the index knows exactly how many occurrences it
            # stores; residual filters keep their estimated selectivities.
            exact = float(self.index_store.get(match.index_name).cardinality)
            for var, label in match.label_filters:
                exact *= self.estimator.label_selectivity(label)
            base_cardinality = exact
        ready = self.ready_selections(available, frozenset())
        if not ready and not match.has_residual_filters:
            return PlanPathIndexScan(
                children=(),
                available=available,
                solved_rels=solved,
                applied_selections=frozenset(),
                cardinality=base_cardinality,
                cost=self.cost.path_index_scan(base_cardinality, stored),
                indexes_used=frozenset({match.index_name}),
                index_name=match.index_name,
                entry_vars=match.entry_vars,
            )
        applied = frozenset(ready)
        cardinality = self._estimate(available, solved, applied)
        if self.use_index_cardinality:
            selectivity = 1.0
            for position in ready:
                selectivity *= self.estimator.predicate_selectivity(
                    self.selections[position], self.query_graph
                )
            cardinality = base_cardinality * selectivity
        predicates = tuple(self.selections[i] for i in sorted(ready))
        return PlanPathIndexFilteredScan(
            children=(),
            available=available,
            solved_rels=solved,
            applied_selections=applied,
            cardinality=cardinality,
            cost=self.cost.path_index_filtered_scan(cardinality, stored),
            indexes_used=frozenset({match.index_name}),
            index_name=match.index_name,
            entry_vars=match.entry_vars,
            predicates=predicates,
            label_filters=match.label_filters,
            type_filters=match.type_filters,
        )

    def path_index_prefix_seek(
        self, child: LogicalPlan, match: IndexMatch
    ) -> Optional[LogicalPlan]:
        """PathIndexPrefixSeek: child rows bind a leading prefix of the index
        pattern; the seek extends them with the indexed continuation
        (§5.1.3)."""
        new_rels = match.rel_names - child.solved_rels
        if not new_rels:
            return None
        prefix_length = 0
        for var in match.entry_vars:
            if var in child.available:
                prefix_length += 1
            else:
                break
        if prefix_length == 0:
            return None
        # Relationships of the index not in the prefix must be new; already-
        # solved rels beyond the prefix would make entries redundant with
        # cheaper consistency checks, which ExpandInto handles better.
        prefix_rels = set(match.entry_vars[1:prefix_length:2])
        if (match.rel_names & child.solved_rels) - prefix_rels:
            return None
        available = child.available | frozenset(match.entry_vars)
        solved = child.solved_rels | match.rel_names
        cardinality = self._derived_cardinality(
            child, available, solved, child.applied_selections
        )
        child_symbols = 2 * len(child.solved_rels) + len(
            self._pattern_nodes(child.available)
        )
        plan = PlanPathIndexPrefixSeek(
            children=(child,),
            available=available,
            solved_rels=solved,
            applied_selections=child.applied_selections,
            cardinality=cardinality,
            cost=self.cost.path_index_prefix_seek(
                child.cost,
                child.cardinality,
                prefix_length,
                max(child_symbols, prefix_length),
                cardinality,
            ),
            indexes_used=_combine_indexes((child,), {match.index_name}),
            index_name=match.index_name,
            entry_vars=match.entry_vars,
            prefix_length=prefix_length,
            label_filters=match.label_filters,
            type_filters=match.type_filters,
        )
        return self.with_filters(plan)

    # ------------------------------------------------------------------
    # Boundary operators
    # ------------------------------------------------------------------

    def projection(
        self, child: LogicalPlan, items: Sequence[ast.ProjectionItem]
    ) -> LogicalPlan:
        return PlanProjection(
            children=(child,),
            available=frozenset(item.output_name for item in items),
            solved_rels=child.solved_rels,
            applied_selections=child.applied_selections,
            cardinality=child.cardinality,
            cost=self.cost.projection(child.cost, child.cardinality),
            indexes_used=child.indexes_used,
            items=tuple(items),
        )

    def aggregation(
        self, child: LogicalPlan, items: Sequence[ast.ProjectionItem]
    ) -> LogicalPlan:
        """Aggregating projection: grouping keys are the aggregate-free items."""
        grouping = tuple(
            item for item in items if not ast.contains_aggregate(item.expression)
        )
        aggregates = tuple(
            item for item in items if ast.contains_aggregate(item.expression)
        )
        # Group count heuristic: square root of the input, at least one row.
        cardinality = max(1.0, child.cardinality ** 0.5) if grouping else 1.0
        from repro.planner.plans import PlanAggregation

        return PlanAggregation(
            children=(child,),
            available=frozenset(item.output_name for item in items),
            solved_rels=child.solved_rels,
            applied_selections=child.applied_selections,
            cardinality=cardinality,
            cost=child.cost + child.cardinality,
            indexes_used=child.indexes_used,
            grouping_items=grouping,
            aggregate_items=aggregates,
        )

    def distinct(self, child: LogicalPlan, columns: Sequence[str]) -> LogicalPlan:
        return PlanDistinct(
            children=(child,),
            available=child.available,
            solved_rels=child.solved_rels,
            applied_selections=child.applied_selections,
            cardinality=child.cardinality,
            cost=child.cost + child.cardinality,
            indexes_used=child.indexes_used,
            columns=tuple(columns),
        )

    def sort(
        self, child: LogicalPlan, order_by: Sequence[tuple[ast.Expression, bool]]
    ) -> LogicalPlan:
        return PlanSort(
            children=(child,),
            available=child.available,
            solved_rels=child.solved_rels,
            applied_selections=child.applied_selections,
            cardinality=child.cardinality,
            cost=child.cost + child.cardinality * 2.0,
            indexes_used=child.indexes_used,
            order_by=tuple(order_by),
        )

    def limit(
        self, child: LogicalPlan, limit: Optional[int], skip: Optional[int]
    ) -> LogicalPlan:
        effective_skip = skip or 0
        effective_limit = limit if limit is not None else -1
        cardinality = child.cardinality
        if limit is not None:
            cardinality = min(cardinality, float(limit))
        return PlanLimit(
            children=(child,),
            available=child.available,
            solved_rels=child.solved_rels,
            applied_selections=child.applied_selections,
            cardinality=cardinality,
            cost=child.cost,
            indexes_used=child.indexes_used,
            limit=effective_limit,
            skip=effective_skip,
        )

    def explicit_filter(
        self, child: LogicalPlan, predicates: Sequence[ast.Expression]
    ) -> LogicalPlan:
        """A Filter for predicates outside the selection list (WITH ... WHERE)."""
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self.estimator.predicate_selectivity(
                predicate, self.query_graph
            )
        return PlanFilter(
            children=(child,),
            available=child.available,
            solved_rels=child.solved_rels,
            applied_selections=child.applied_selections,
            cardinality=child.cardinality * selectivity,
            cost=self.cost.filter(child.cost, child.cardinality, len(predicates)),
            indexes_used=child.indexes_used,
            predicates=tuple(predicates),
        )
