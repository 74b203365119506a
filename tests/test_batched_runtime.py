"""Differential tests: chunked (batch-at-a-time) compiled execution vs rows.

The compiled engine's generated pipelines hand rows downstream in output
chunks of ``morsel_size`` rows. Chunk size must be invisible: for the
paper's query shapes with their baseline/forced-index plan variants, the
core language features, LIMIT queries and random small graphs, chunk sizes
that split every operator's output mid-chunk must produce identical result
rows in identical order, identical per-operator profile counts and
identical max-intermediate-cardinality as the tuple-at-a-time row engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphDatabase, PlannerHints
from repro.datasets import (
    CorrelatedConfig,
    GeoSpeciesConfig,
    YagoConfig,
    correlated,
    generate_correlated,
    generate_geospecies,
    generate_yago,
    geospecies,
    yago,
)
from repro.errors import PlannerError
from repro.runtime import Executor

from tests.test_compiled_runtime import (
    BASELINE,
    FEATURE_QUERIES,
    INDEX_PATTERNS,
    LIMIT_QUERIES,
    RANDOM_QUERIES,
    build_feature_db,
    build_random_db,
    forced,
)

CHUNK_SIZES = (1, 2, 7)


def run_chunked(db, query, hints=None, chunk_sizes=CHUNK_SIZES):
    """Run ``query`` on the row engine, then on generated code at every
    chunk size; assert full equivalence; return the row engine's rows."""
    reference = db.execute(query, hints, execution_mode="row")
    expected = reference.to_list()
    cached = db.prepare(query, hints)
    executor = Executor(db.store, db.indexes, cached.analyzed.variable_kinds)
    executor.compile(cached.planned_parts)
    for size in chunk_sizes:
        rows, profile = executor.execute(
            cached.planned_parts, mode="compiled", morsel_size=size
        )
        projected = [
            {column: row.values.get(column) for column in cached.columns}
            for row in rows
        ]
        assert profile.engine == "compiled"
        assert projected == expected, (query, size)
        assert profile.operators.rows == reference.profile.operators.rows, (
            query,
            size,
        )
        assert (
            profile.max_intermediate_cardinality
            == reference.max_intermediate_cardinality
        ), (query, size)
    return expected


# ----------------------------------------------------------------------
# Paper query shapes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def correlated_db():
    db = GraphDatabase()
    generate_correlated(db, CorrelatedConfig(paths=40, noise_factor=6))
    db.create_path_index("Full", correlated.FULL_PATTERN)
    db.create_path_index("Sub1", correlated.SUB_PATTERNS["Sub1"])
    db.create_path_index("Sub6", correlated.SUB_PATTERNS["Sub6"])
    return db


def test_correlated_shapes_agree(correlated_db):
    db = correlated_db
    for hints in (BASELINE, None, forced("Full"), forced("Sub1"), forced("Sub6")):
        rows = run_chunked(db, correlated.FULL_QUERY, hints)
        assert len(rows) == 40


def test_yago_shapes_agree():
    db = GraphDatabase()
    config = YagoConfig(
        settlements=6,
        owning_settlements=3,
        persons=300,
        born_per_other=8,
        celebrity_in_affiliations=25,
        hub_artifacts_per_owned=3,
        hub_pool=8,
        targets_per_hub=4,
        core_artifacts=40,
        core_noise_edges=400,
        junk_settlements=4,
        junk_owned_per_settlement=25,
    )
    generate_yago(db, config)
    db.create_path_index("Full", yago.FULL_PATTERN)
    for hints in (
        BASELINE,
        PlannerHints(use_path_indexes=False, manual_expand_chain=yago.MANUAL_CHAIN),
        PlannerHints(index_seed_chain=("Full", ())),
    ):
        rows = run_chunked(db, yago.FULL_QUERY, hints)
        assert rows


def test_geospecies_shapes_agree():
    db = GraphDatabase()
    generate_geospecies(
        db, GeoSpeciesConfig(species=40, locations=10, expected_per_species=2)
    )
    db.create_path_index("Full", geospecies.FULL_PATTERN)
    db.create_path_index("Sub", geospecies.SUB_PATTERN)
    for hints in (BASELINE, forced("Full"), forced("Sub")):
        rows = run_chunked(db, geospecies.FULL_QUERY, hints)
        assert rows


# ----------------------------------------------------------------------
# Language features and LIMIT
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def feature_db():
    return build_feature_db()


def test_feature_queries_agree(feature_db):
    for query in FEATURE_QUERIES:
        run_chunked(feature_db, query)


def test_limit_queries_agree(feature_db):
    """Upstream operators profile exactly the rows LIMIT consumes, however
    the chunks fall — not a full final chunk."""
    for query in LIMIT_QUERIES + [
        "MATCH (n) RETURN labels(n) AS ls, n.v + 1 AS w LIMIT 3",
    ]:
        run_chunked(feature_db, query)


# ----------------------------------------------------------------------
# Random graphs, every plan family
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_graphs_agree_across_plan_families(seed):
    db = build_random_db(seed)
    for name, pattern in INDEX_PATTERNS.items():
        db.create_path_index(name, pattern)
    for query in RANDOM_QUERIES:
        run_chunked(db, query, BASELINE)
        run_chunked(db, query, None)
        for name in INDEX_PATTERNS:
            try:
                run_chunked(db, query, forced(name))
            except PlannerError:
                continue  # index does not embed into this query
