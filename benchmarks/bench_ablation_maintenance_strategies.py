"""Ablation A1 — query-based vs traversal-based maintenance translation.

The paper's contribution (Algorithm 1) replaces De Jong's traversal-based
translation with maintenance *queries*, so the planner can exploit whatever
indexes exist. This ablation measures a delete+re-add cycle under both
strategies, with and without an assisting sub-index, on the correlated
dataset. Expected shape: without helpful indexes the strategies are
comparable (the query plan degenerates to the same anchored traversal); with
a selective sub-index available, query-based maintenance can use it while
traversal-based cannot.
"""

import pytest

from benchmarks._shared import correlated_config, maintenance_cycles
from repro import GraphDatabase, PlannerHints
from repro.bench import Methodology, write_report
from repro.bench.reporting import render_table
from repro.datasets import CorrelatedConfig, correlated, generate_correlated


def _build(strategy: str):
    config = correlated_config()
    small = CorrelatedConfig(
        paths=max(40, config.paths // 4), noise_factor=config.noise_factor
    )
    db = GraphDatabase(maintenance_strategy=strategy)
    data = generate_correlated(db, small)
    return db, data


def _cycle_seconds(db, data, methodology) -> float:
    total = 0.0
    for rel_id, *reports in maintenance_cycles(db, data.y_rels[0], methodology):
        data.y_rels[0] = rel_id
        total += sum(sum(report.values()) for report in reports)
    return total / methodology.runs


def _run_table() -> dict:
    rows = []
    data_out = {"rows": {}}
    for strategy in ("query", "traversal"):
        for with_sub in (False, True):
            db, data = _build(strategy)
            methodology = Methodology(db)
            db.create_path_index("Full", correlated.FULL_PATTERN)
            if with_sub:
                db.create_path_index("Sub4", correlated.SUB_PATTERNS["Sub4"])
                if strategy == "query":
                    db.maintainer.hints = PlannerHints(
                        required_indexes=frozenset({"Sub4"})
                    )
            seconds = _cycle_seconds(db, data, methodology)
            assert db.verify_index("Full")
            label = f"{strategy}, {'with' if with_sub else 'no'} sub-index"
            rows.append((label, f"{seconds * 1e3:.3f} ms"))
            data_out["rows"][label] = seconds
    table = render_table(
        "Ablation A1 — maintenance translation strategies "
        "(delete + re-add one Y relationship)",
        ("Strategy", "Maintenance time"),
        rows,
        note=(
            "query-based = Algorithm 1 (this paper); traversal-based = "
            "De Jong's translation 1. The sub-index row forces the "
            "maintenance planner to use Sub4 where applicable."
        ),
    )
    write_report("ablation_a1_maintenance_strategies", table, data_out)
    return data_out


def test_ablation_a1_report(benchmark):
    data = benchmark.pedantic(_run_table, rounds=1, iterations=1)
    rows = data["rows"]
    # Both strategies stay within 2 orders of magnitude of each other and
    # all configurations keep the index exact (asserted inside).
    values = list(rows.values())
    assert max(values) < 100 * min(values)
