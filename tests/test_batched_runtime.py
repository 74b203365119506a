"""Chunked generated code against the oracle, on the paper's shapes.

Generated pipelines hand rows downstream in output chunks of
``morsel_size`` rows. Chunk size must be invisible: for the paper's query
shapes with their baseline/forced-index plan variants, the core language
features, LIMIT queries and random small graphs, the rows must be a
correct answer by the brute-force oracle, and chunk sizes that split every
operator's output mid-chunk must produce the same rows in the same order,
the same per-operator profile counts and the same max intermediate
cardinality as the default size (``tests.engines.agree``).
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

from tests.engines import agree
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
        rows = agree(db, correlated.FULL_QUERY, hints)
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
        rows = agree(db, yago.FULL_QUERY, hints)
        assert rows


def test_geospecies_shapes_agree():
    db = GraphDatabase()
    generate_geospecies(
        db, GeoSpeciesConfig(species=40, locations=10, expected_per_species=2)
    )
    db.create_path_index("Full", geospecies.FULL_PATTERN)
    db.create_path_index("Sub", geospecies.SUB_PATTERN)
    for hints in (BASELINE, forced("Full"), forced("Sub")):
        rows = agree(db, geospecies.FULL_QUERY, hints)
        assert rows


# ----------------------------------------------------------------------
# Language features and LIMIT
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def feature_db():
    return build_feature_db()


def test_feature_queries_agree(feature_db):
    for query in FEATURE_QUERIES:
        agree(feature_db, query)


def test_limit_queries_agree(feature_db):
    """Upstream operators profile exactly the rows LIMIT consumes, however
    the chunks fall — not a full final chunk."""
    for query in LIMIT_QUERIES + [
        "MATCH (n) RETURN labels(n) AS ls, n.v + 1 AS w LIMIT 3",
    ]:
        agree(feature_db, query)


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
        agree(db, query, BASELINE)
        agree(db, query, None)
        for name in INDEX_PATTERNS:
            try:
                agree(db, query, forced(name))
            except PlannerError:
                continue  # index does not embed into this query
