"""Tests pinning the structural invariants of the dataset generators.

These invariants are what make the benchmark shapes meaningful, so they are
asserted here at reduced scale (DESIGN.md §3).
"""

import pytest

from repro import GraphDatabase, PlannerHints
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
from repro.datasets import correlated, geospecies, independent, yago
from repro.pathindex.pattern import PathPattern

BASELINE = PlannerHints(use_path_indexes=False)


def pattern_count(db, pattern_text):
    entries = db.maintainer.queries.run(
        PathPattern.parse(pattern_text), hints=BASELINE
    )
    return sum(1 for _ in entries)


# ---------------------------------------------------------------------------
# Correlated dataset
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def correlated_db():
    db = GraphDatabase()
    config = CorrelatedConfig(paths=40, noise_factor=8)
    data = generate_correlated(db, config)
    return db, data


def test_correlated_counts(correlated_db):
    db, data = correlated_db
    config = data.config
    assert data.relationship_count == 4 * config.paths + config.x_noise + config.y_noise
    assert len(data.y_rels) == config.paths


def test_correlated_selective_patterns_stay_exact(correlated_db):
    db, data = correlated_db
    expected = data.expected_cardinalities()
    assert pattern_count(db, correlated.FULL_PATTERN) == expected["Full"]
    for name in ("Sub1", "Sub2", "Sub4", "Sub8"):
        assert (
            pattern_count(db, correlated.SUB_PATTERNS[name]) == expected[name]
        ), name


def test_correlated_noise_patterns_explode(correlated_db):
    db, data = correlated_db
    expected = data.expected_cardinalities()
    for name in ("Sub3", "Sub5", "Sub6", "Sub7"):
        count = pattern_count(db, correlated.SUB_PATTERNS[name])
        assert count == expected[name], name
        assert count > 5 * data.config.paths, name


def test_correlated_query_returns_paths(correlated_db):
    db, data = correlated_db
    result = db.execute(correlated.FULL_QUERY, BASELINE)
    assert len(result.to_list()) == data.config.paths


def test_generators_refuse_existing_indexes():
    db = GraphDatabase()
    db.create_node(["A"])
    db.create_path_index("i", "(:A)-[:X]->(:A)", populate=False)
    with pytest.raises(ValueError):
        generate_correlated(db, CorrelatedConfig(paths=2, noise_factor=1))


# ---------------------------------------------------------------------------
# Independent dataset
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def independent_db():
    db = GraphDatabase()
    data = generate_independent(db, IndependentConfig(nodes=300, edges_per_node=6))
    return db, data


def test_independent_counts(independent_db):
    db, data = independent_db
    assert data.node_count == 300
    # initial clique ring (20) + (300-20) * 6
    assert data.relationship_count == 20 + 280 * 6


def test_independent_is_scale_free(independent_db):
    db, data = independent_db
    degrees = sorted(
        (db.store.degree(node) for node in data.node_ids), reverse=True
    )
    # Preferential attachment: the hubs dominate far beyond the median.
    assert degrees[0] > 4 * degrees[len(degrees) // 2]


def test_independent_labels_roughly_uniform(independent_db):
    db, data = independent_db
    counts = [
        db.store.statistics.nodes_with_label(db.label(name))
        for name in independent.NODE_LABELS
    ]
    assert sum(counts) == 300
    assert min(counts) > 20  # uniform-ish across 5 labels


def test_independent_full_pattern_not_selective(independent_db):
    db, data = independent_db
    # No engineered correlation: the pattern count tracks the independence
    # estimate within an order of magnitude.
    from repro.planner import CardinalityEstimator
    from repro.cypher import analyze, parse
    from repro.querygraph import build_query_parts

    actual = pattern_count(db, independent.FULL_PATTERN)
    (part,) = build_query_parts(analyze(parse(independent.FULL_QUERY)))
    estimator = CardinalityEstimator(
        db.store.statistics, db.store.labels, db.store.types
    )
    estimate = estimator.pattern_cardinality(
        part.query_graph,
        frozenset(part.query_graph.relationships),
        frozenset(part.query_graph.nodes),
    )
    assert estimate > 0
    if actual:
        assert 0.05 < estimate / actual < 20


# ---------------------------------------------------------------------------
# YAGO-like dataset
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def yago_db():
    db = GraphDatabase()
    config = YagoConfig(
        settlements=8,
        owning_settlements=3,
        persons=300,
        born_per_other=10,
        celebrity_in_affiliations=20,
        hub_artifacts_per_owned=4,
        hub_pool=12,
        targets_per_hub=6,
        core_artifacts=80,
        core_noise_edges=1_500,
    )
    data = generate_yago(db, config)
    return db, data


def test_yago_full_pattern_cardinality_matches_construction(yago_db):
    db, data = yago_db
    assert pattern_count(db, yago.FULL_PATTERN) == data.expected_full_cardinality
    assert (
        pattern_count(db, yago.SUB_PATTERNS["Sub1"])
        == data.expected_sub1_cardinality
    )


def test_yago_pattern_is_selective_but_mispredicted(yago_db):
    db, data = yago_db
    from repro.planner import CardinalityEstimator
    from repro.cypher import analyze, parse
    from repro.querygraph import build_query_parts

    actual = data.expected_full_cardinality
    (part,) = build_query_parts(analyze(parse(yago.FULL_QUERY)))
    estimator = CardinalityEstimator(
        db.store.statistics, db.store.labels, db.store.types
    )
    estimate = estimator.pattern_cardinality(
        part.query_graph,
        frozenset(part.query_graph.relationships),
        frozenset(part.query_graph.nodes),
    )
    # The misprediction-factor selection criterion of §7.3.
    assert estimate < actual / 3 or estimate > actual * 3


def test_yago_baseline_worse_than_manual(yago_db):
    db, data = yago_db
    baseline = db.execute(yago.FULL_QUERY, BASELINE)
    baseline_count = len(baseline.to_list())
    manual = db.execute(
        yago.FULL_QUERY,
        PlannerHints(
            use_path_indexes=False, manual_expand_chain=yago.MANUAL_CHAIN
        ),
    )
    manual_count = len(manual.to_list())
    assert baseline_count == manual_count == data.expected_full_cardinality
    assert (
        manual.max_intermediate_cardinality
        <= baseline.max_intermediate_cardinality
    )


# ---------------------------------------------------------------------------
# GeoSpecies-like dataset
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def geospecies_db():
    db = GraphDatabase()
    data = generate_geospecies(
        db, GeoSpeciesConfig(species=80, locations=25, expected_per_species=2)
    )
    return db, data


def test_geospecies_counts(geospecies_db):
    db, data = geospecies_db
    assert data.node_count == 80 + 25
    assert len(data.expected_rels) == 160


def test_geospecies_result_is_max_intermediate(geospecies_db):
    """The §7.4 negative result: nothing narrows, so the result set itself is
    the largest intermediate state under any plan."""
    db, data = geospecies_db
    result = db.execute(geospecies.FULL_QUERY, BASELINE)
    count = len(result.to_list())
    assert count > 0
    assert result.max_intermediate_cardinality <= count * 2
    assert result.max_intermediate_cardinality >= count
