"""Runtime: generated code, expression evaluation, and the executor.

Logical plans are compiled into Python generator functions that the
caller pulls results from ("the results are pulled from the executable
plan using an iterator interface", §2.1.4), over slot rows
(:mod:`repro.runtime.slots`). Every operator counts the rows it produces, which yields the
*maximum intermediate state cardinality* metric of the evaluation (Tables
3/7/10/11), and relationship-uniqueness (Cypher's default MATCH semantics,
§7.1 footnote) is enforced by every operator that binds a relationship.
"""

from repro.runtime.executor import ExecutionProfile, Executor

__all__ = ["ExecutionProfile", "Executor"]
