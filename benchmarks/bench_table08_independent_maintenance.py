"""Table 8 — independent data: maintenance with an assisting sub-index.

As Table 4 but on the uncorrelated dataset: a sampled relationship is
deleted and re-added; the time Algorithm 1 spends on the Full index is
measured per co-registered sub-index. Paper shape: mid-length sub-indexes
matching the updated step are expensive to co-maintain (their own update
dominates); short or non-matching ones are cheap.
"""

import pytest

from benchmarks._shared import (
    build_independent,
    independent_config,
    maintenance_cycles,
)
from repro.bench import write_report
from repro.bench.reporting import render_table
from repro.datasets import IndependentConfig, independent
from repro.planner import PlannerHints


@pytest.fixture(scope="module")
def setup():
    config = independent_config()
    small = IndependentConfig(
        nodes=max(200, config.nodes // 4), edges_per_node=config.edges_per_node
    )
    return build_independent(small)


def _pick_v_relationship(ctx):
    """A ``(:A)-[:V]->(:B)`` relationship — one that actually occurs at the
    full pattern's first step, so V-containing sub-indexes are affected."""
    db = ctx.db
    type_v = db.store.types.id_of("V")
    label_a = db.store.labels.id_of("A")
    label_b = db.store.labels.id_of("B")
    for rel_id in db.store.all_relationships():
        record = db.store.relationship(rel_id)
        if (
            record.type_id == type_v
            and db.store.has_label(record.start_node, label_a)
            and db.store.has_label(record.end_node, label_b)
        ):
            return rel_id
    raise RuntimeError("no (:A)-[:V]->(:B) relationship in dataset")


def _measure_cycle(ctx, rel_id, sub_name):
    full_total = 0.0
    sub_total = 0.0
    for rel_id, *reports in maintenance_cycles(ctx.db, rel_id, ctx.methodology):
        for report in reports:
            full_total += report.get("Full", 0.0)
            sub_total += report.get(sub_name, 0.0) if sub_name else 0.0
    repetitions = ctx.methodology.runs
    return rel_id, full_total / repetitions, sub_total / repetitions


def _run_table(ctx) -> dict:
    db = ctx.db
    db.create_path_index("Full", independent.FULL_PATTERN)
    rel_id = _pick_v_relationship(ctx)
    rows = []
    data_out = {"config": vars(ctx.data.config), "rows": {}}
    db.maintainer.hints = PlannerHints()
    rel_id, none_full, _ = _measure_cycle(ctx, rel_id, None)
    rows.append(("None", f"{none_full * 1e3:.3f} ms", "-", "-"))
    data_out["rows"]["None"] = {"full_s": none_full, "sub_s": None}
    for name, pattern in independent.SUB_PATTERNS.items():
        db.create_path_index(name, pattern)
        db.maintainer.hints = PlannerHints(required_indexes=frozenset({name}))
        rel_id, full_seconds, sub_seconds = _measure_cycle(ctx, rel_id, name)
        db.maintainer.hints = PlannerHints()
        db.drop_path_index(name)
        speedup = none_full / full_seconds if full_seconds else float("inf")
        rows.append(
            (
                name,
                f"{full_seconds * 1e3:.3f} ms",
                f"{sub_seconds * 1e3:.3f} ms",
                f"≈ {speedup:.2f}×",
            )
        )
        data_out["rows"][name] = {
            "full_s": full_seconds,
            "sub_s": sub_seconds,
            "speedup_vs_none": speedup,
        }
    assert db.verify_index("Full")
    table = render_table(
        "Table 8 — independent data: Full-index maintenance per assisting "
        "sub-index (delete + re-add one V relationship, averaged)",
        ("Sub-index present", "Full index time", "Sub index time",
         "Speed-up vs none"),
        rows,
    )
    write_report("table08_independent_maintenance", table, data_out)
    return data_out


def test_table08_report(setup, benchmark):
    data = benchmark.pedantic(lambda: _run_table(setup), rounds=1, iterations=1)
    rows = data["rows"]
    # Sub-indexes containing the V step pay their own maintenance; the
    # V-free ones are idle during a V update (paper Table 8's "–" rows).
    for name in ("Sub1", "Sub3", "Sub6"):
        assert rows[name]["sub_s"] > 0.0, name
    for name in ("Sub2", "Sub4", "Sub5", "Sub7", "Sub8", "Sub9"):
        assert rows[name]["sub_s"] == 0.0, name
    assert all(meta["full_s"] > 0 for meta in rows.values())
