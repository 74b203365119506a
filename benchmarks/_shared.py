"""Shared builders and helpers for the benchmark modules.

Scales default to ~1/30 of the paper's datasets so the full suite completes
in minutes under CPython; set ``REPRO_BENCH_SCALE`` to grow/shrink them and
``REPRO_BENCH_RUNS`` to change the per-cell repetition count (default 5, as
in §6.3).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Iterator, Optional

from repro import GraphDatabase, PlannerHints
from repro.bench import Measurement, Methodology
from repro.bench.harness import bench_scale
from repro.datasets import (
    CorrelatedConfig,
    GeoSpeciesConfig,
    IndependentConfig,
    YagoConfig,
    generate_correlated,
    generate_geospecies,
    generate_independent,
    generate_yago,
)

BASELINE_HINTS = PlannerHints(use_path_indexes=False)


def correlated_config() -> CorrelatedConfig:
    scale = bench_scale()
    return CorrelatedConfig(paths=max(80, int(800 * scale)), noise_factor=24)


def independent_config() -> IndependentConfig:
    scale = bench_scale()
    # 40 edges/node keeps the full pattern's result set large relative to the
    # graph (the paper's 862k results from 250k nodes), which is what makes
    # the full-index speed-up small (§7.2.1).
    return IndependentConfig(nodes=max(200, int(2_000 * scale)), edges_per_node=40)


def yago_config() -> YagoConfig:
    return YagoConfig()


def geospecies_config() -> GeoSpeciesConfig:
    return GeoSpeciesConfig()


@dataclass
class BenchContext:
    """A database, its dataset handle, and a ready methodology."""

    db: GraphDatabase
    data: object
    methodology: Methodology


def maintenance_cycles(
    db: GraphDatabase, rel_id: int, methodology: Methodology
) -> Iterator[tuple[int, dict[str, float], dict[str, float]]]:
    """Delete ``rel_id`` in one transaction and re-add it in another, once
    per timed repetition; yields ``(new rel_id, removal report, addition
    report)`` — the maintainer's per-index seconds of the two commits.

    §6.3 as for queries: untimed warm-up cycles come first (the index set
    is new to the maintainer, so the first cycle prepares the plans every
    later commit re-uses) and a garbage collection runs between cycles, not
    inside a timed commit."""
    record = db.store.relationship(rel_id)
    type_name = db.store.types.name_of(record.type_id)
    for repetition in range(-methodology.warmup_runs, methodology.runs):
        gc.collect()
        db.delete_relationship(rel_id)
        removal = db.maintainer.last_report
        rel_id = db.create_relationship(record.start_node, record.end_node, type_name)
        if repetition >= 0:
            yield rel_id, removal, db.maintainer.last_report


def build_correlated(config: Optional[CorrelatedConfig] = None) -> BenchContext:
    db = GraphDatabase()
    data = generate_correlated(db, config or correlated_config())
    return BenchContext(db, data, Methodology(db))


def build_independent(config: Optional[IndependentConfig] = None) -> BenchContext:
    db = GraphDatabase()
    data = generate_independent(db, config or independent_config())
    return BenchContext(db, data, Methodology(db))


def build_yago(config: Optional[YagoConfig] = None) -> BenchContext:
    db = GraphDatabase()
    data = generate_yago(db, config or yago_config())
    return BenchContext(db, data, Methodology(db))


def build_geospecies(config: Optional[GeoSpeciesConfig] = None) -> BenchContext:
    db = GraphDatabase()
    data = generate_geospecies(db, config or geospecies_config())
    return BenchContext(db, data, Methodology(db))


def forced(index_name: str) -> PlannerHints:
    """The paper's forced plan: the cheapest plan using ``index_name``.

    The index under measurement is also the *only* one the planner may use,
    so each table row isolates one index's benefit even though all indexes
    are registered at once (as in §7.1.2's per-index comparison). The
    near-zero cost factor is the paper's debug knob ("special debug
    parameters were added to reduce the cost function and to provide more
    control over the selected plan", §5.1.1): it anchors the plan on the
    index operator instead of letting a misestimated join bury it.
    """
    return PlannerHints(
        required_indexes=frozenset({index_name}),
        allowed_indexes=frozenset({index_name}),
        path_index_cost_factor=1e-9,
    )


def measurement_cells(measurement: Measurement) -> dict:
    return {
        "first_ms": measurement.first_result_ms,
        "last_ms": measurement.last_result_ms,
        "rows": measurement.rows,
        "max_intermediate_cardinality": measurement.max_intermediate_cardinality,
    }
