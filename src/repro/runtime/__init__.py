"""Runtime: physical operators, expression evaluation, and the executor.

Logical plans are compiled into pull-based iterator pipelines ("the results
are pulled from the executable plan using an iterator interface", §2.1.4).
Both engines — the row engine's operator closures and generated code — pull
the same slot rows (:mod:`repro.runtime.slots`) through the same part
protocol. Every operator counts the rows it produces, which yields the
*maximum intermediate state cardinality* metric of the evaluation (Tables
3/7/10/11), and relationship-uniqueness (Cypher's default MATCH semantics,
§7.1 footnote) is enforced by every operator that binds a relationship.
"""

from repro.runtime.executor import ExecutionProfile, Executor

__all__ = ["ExecutionProfile", "Executor"]
