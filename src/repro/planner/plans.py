"""Logical plan operators.

Each plan node records the variables it makes available, the pattern
relationships it solves, which selections it has applied, its estimated
cardinality and cost, and which path indexes appear anywhere in its tree
(used by forced-plan hints). Plans form immutable trees; the runtime compiles
them into iterator pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

from repro.cypher import ast
from repro.storage.graphstore import Direction


@dataclass(frozen=True)
class LogicalPlan:
    """Base class for logical plan operators."""

    children: tuple["LogicalPlan", ...]
    available: frozenset[str]
    solved_rels: frozenset[str]
    applied_selections: frozenset[int]
    cardinality: float
    cost: float
    indexes_used: frozenset[str]

    @property
    def operator_name(self) -> str:
        return type(self).__name__.removeprefix("Plan")

    def describe(self) -> str:
        """One-line description used in plan renderings."""
        return self.operator_name

    @cached_property
    def description(self) -> str:
        """``describe()``, built once per node: every execution's profile
        labels its operators with it, and plans are cached and immutable."""
        return self.describe()

    def render(self, indent: int = 0, with_estimates: bool = True) -> str:
        """Multi-line tree rendering (the paper's Figure 6/10 style)."""
        pad = "  " * indent
        estimate = (
            f"  [card≈{self.cardinality:.0f}, cost≈{self.cost:.0f}]"
            if with_estimates
            else ""
        )
        lines = [f"{pad}{self.describe()}{estimate}"]
        for child in self.children:
            lines.append(child.render(indent + 1, with_estimates))
        return "\n".join(lines)


def _combine_indexes(children: tuple[LogicalPlan, ...], extra=()) -> frozenset[str]:
    combined: set[str] = set(extra)
    for child in children:
        combined |= child.indexes_used
    return frozenset(combined)


# ---------------------------------------------------------------------------
# Leaf operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanArgument(LogicalPlan):
    """Variables bound by the previous query part (one row per input)."""

    variables: tuple[str, ...] = ()

    def describe(self) -> str:
        return f"Argument({', '.join(self.variables)})"


@dataclass(frozen=True)
class PlanAllNodesScan(LogicalPlan):
    node: str = ""

    def describe(self) -> str:
        return f"AllNodesScan({self.node})"


@dataclass(frozen=True)
class PlanNodeByLabelScan(LogicalPlan):
    node: str = ""
    label: str = ""
    post_labels: tuple[tuple[str, str], ...] = ()  # further labels to check

    def describe(self) -> str:
        return f"NodeByLabelScan({self.node}:{self.label})"


@dataclass(frozen=True)
class PlanNodeByIdSeek(LogicalPlan):
    """Fetch the one node an ``id(node) = k`` selection names: at most one
    row — none when the id is unused, deleted, invisible to the reader's
    snapshot, or lacks one of the pattern's labels (``post_labels``)."""

    node: str = ""
    node_id: Union[int, ast.Parameter] = 0
    post_labels: tuple[tuple[str, str], ...] = ()

    def describe(self) -> str:
        labels = "".join(f"; {var}:{label}" for var, label in self.post_labels)
        return f"NodeByIdSeek({self.node} = {self.node_id}{labels})"


@dataclass(frozen=True)
class PlanRelationshipByTypeScan(LogicalPlan):
    """The baseline planner extension of §6.1: scan all relationships of one
    type, backed by a single-relationship, label-free path index.

    ``post_labels`` are pattern label checks applied while scanning (they are
    part of the pattern estimate, not extra predicate selectivity).
    ``directed`` is False when the query relationship is undirected, in which
    case each stored relationship is emitted in both orientations.
    """

    rel: str = ""
    rel_type: str = ""
    start_node: str = ""
    end_node: str = ""
    index_name: str = ""
    post_labels: tuple[tuple[str, str], ...] = ()
    directed: bool = True

    def describe(self) -> str:
        return (
            f"RelationshipByTypeScan(({self.start_node})-"
            f"[{self.rel}:{self.rel_type}]->({self.end_node}))"
        )


# ---------------------------------------------------------------------------
# Expansion and combination operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanExpand(LogicalPlan):
    """Expand(All) / Expand(Into): traverse one pattern relationship from an
    already-bound node (§2.2.3, operators 6–7)."""

    rel: str = ""
    from_node: str = ""
    to_node: str = ""
    direction: Direction = Direction.OUTGOING
    types: frozenset[str] = frozenset()
    into: bool = False  # Expand(Into): both endpoints already bound
    post_labels: tuple[tuple[str, str], ...] = ()  # label checks on to_node

    def describe(self) -> str:
        mode = "Into" if self.into else "All"
        type_text = "|".join(sorted(self.types))
        arrow = {
            Direction.OUTGOING: f"-[{self.rel}:{type_text}]->",
            Direction.INCOMING: f"<-[{self.rel}:{type_text}]-",
            Direction.BOTH: f"-[{self.rel}:{type_text}]-",
        }[self.direction]
        return f"Expand({mode})(({self.from_node}){arrow}({self.to_node}))"


@dataclass(frozen=True)
class PlanNodeHashJoin(LogicalPlan):
    join_nodes: tuple[str, ...] = ()

    def describe(self) -> str:
        return f"NodeHashJoin({', '.join(self.join_nodes)})"


@dataclass(frozen=True)
class PlanCartesianProduct(LogicalPlan):
    def describe(self) -> str:
        return "CartesianProduct"


@dataclass(frozen=True)
class PlanFilter(LogicalPlan):
    predicates: tuple[ast.Expression, ...] = ()

    def describe(self) -> str:
        return f"Filter({' AND '.join(str(p) for p in self.predicates)})"


# ---------------------------------------------------------------------------
# Path index operators (§5.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanPathIndexScan(LogicalPlan):
    """Scan an entire path index; entry position ``i`` binds variable
    ``entry_vars[i]`` (§5.1.1)."""

    index_name: str = ""
    entry_vars: tuple[str, ...] = ()

    def describe(self) -> str:
        return f"PathIndexScan({self.index_name}: {', '.join(self.entry_vars)})"


@dataclass(frozen=True)
class PlanPathIndexFilteredScan(LogicalPlan):
    """PathIndexScan plus predicates evaluated during the scan, with
    B+-tree range-skipping for prefix-expressible violations (§5.1.2)."""

    index_name: str = ""
    entry_vars: tuple[str, ...] = ()
    predicates: tuple[ast.Expression, ...] = ()
    label_filters: tuple[tuple[str, str], ...] = ()  # (variable, label)
    type_filters: tuple[tuple[str, frozenset[str]], ...] = ()

    def describe(self) -> str:
        preds = [str(p) for p in self.predicates]
        preds += [f"{var}:{label}" for var, label in self.label_filters]
        preds += [
            f"type({var}) IN {sorted(types)}" for var, types in self.type_filters
        ]
        return (
            f"PathIndexFilteredScan({self.index_name}: "
            f"{', '.join(self.entry_vars)}; {' AND '.join(preds)})"
        )


@dataclass(frozen=True)
class PlanPathIndexPrefixSeek(LogicalPlan):
    """Group child rows by an index-prefix, seek the index per distinct
    prefix, and emit the child row combined with each indexed path (§5.1.3)."""

    index_name: str = ""
    entry_vars: tuple[str, ...] = ()
    prefix_length: int = 0  # symbols of the entry bound by the child
    label_filters: tuple[tuple[str, str], ...] = ()
    type_filters: tuple[tuple[str, frozenset[str]], ...] = ()

    def describe(self) -> str:
        bound = ", ".join(self.entry_vars[: self.prefix_length])
        new = ", ".join(self.entry_vars[self.prefix_length :])
        return f"PathIndexPrefixSeek({self.index_name}: [{bound}] -> {new})"


# ---------------------------------------------------------------------------
# Projection-boundary operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanProjection(LogicalPlan):
    items: tuple[ast.ProjectionItem, ...] = ()

    def describe(self) -> str:
        return f"Projection({', '.join(str(item) for item in self.items)})"


@dataclass(frozen=True)
class PlanAggregation(LogicalPlan):
    """Hash aggregation: group by the non-aggregate projection items,
    accumulate the aggregate function calls (count/sum/min/max/avg/collect)."""

    grouping_items: tuple[ast.ProjectionItem, ...] = ()
    aggregate_items: tuple[ast.ProjectionItem, ...] = ()

    def describe(self) -> str:
        groups = ", ".join(str(item) for item in self.grouping_items)
        aggregates = ", ".join(str(item) for item in self.aggregate_items)
        return f"Aggregation(group by [{groups}]; {aggregates})"


@dataclass(frozen=True)
class PlanDistinct(LogicalPlan):
    columns: tuple[str, ...] = ()

    def describe(self) -> str:
        return f"Distinct({', '.join(self.columns)})"


@dataclass(frozen=True)
class PlanSort(LogicalPlan):
    order_by: tuple[tuple[ast.Expression, bool], ...] = ()

    def describe(self) -> str:
        keys = ", ".join(
            f"{expr} {'ASC' if asc else 'DESC'}" for expr, asc in self.order_by
        )
        return f"Sort({keys})"


@dataclass(frozen=True)
class PlanLimit(LogicalPlan):
    """``limit`` -1 means none; either field may be an INT slot."""

    limit: Union[int, ast.Parameter] = 0
    skip: Union[int, ast.Parameter] = 0

    def describe(self) -> str:
        return f"Limit(skip={self.skip}, limit={self.limit})"


def pattern_half(plan: LogicalPlan) -> LogicalPlan:
    """The root of ``plan``'s pattern half, below its boundary (Limit,
    Distinct, the WITH's Filter, Sorts, Projection or Aggregation); a part
    without a projection is all pattern."""
    node = plan
    while isinstance(node, (PlanLimit, PlanDistinct, PlanFilter, PlanSort)):
        node = node.children[0]
    if not isinstance(node, (PlanProjection, PlanAggregation)):
        return plan
    node = node.children[0]
    return node.children[0] if isinstance(node, PlanSort) else node
