"""Fast shape checks of the paper's headline results at unit-test scale.

The full regeneration lives in `benchmarks/`; these tests pin the *logical*
shapes (cardinality relations, plan quality orderings) at a scale small
enough for the regular test suite, so a regression in any subsystem that
would distort a table is caught by `pytest tests/` alone.
"""

import pytest

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

from tests.engines import execute

BASELINE = PlannerHints(use_path_indexes=False)


def forced(name):
    return PlannerHints(
        required_indexes=frozenset({name}),
        allowed_indexes=frozenset({name}),
        path_index_cost_factor=1e-9,
    )


@pytest.fixture(scope="module")
def correlated_db():
    db = GraphDatabase()
    data = generate_correlated(db, CorrelatedConfig(paths=60, noise_factor=8))
    db.create_path_index("Full", correlated.FULL_PATTERN)
    db.create_path_index("Sub1", correlated.SUB_PATTERNS["Sub1"])
    db.create_path_index("Sub6", correlated.SUB_PATTERNS["Sub6"])
    return db, data


def test_table1_shape_full_index_collapses_intermediate(correlated_db):
    db, data = correlated_db
    baseline = db.execute(correlated.FULL_QUERY, BASELINE)
    baseline_rows = len(baseline.to_list())
    indexed = db.execute(correlated.FULL_QUERY, forced("Full"))
    indexed_rows = len(indexed.to_list())
    assert baseline_rows == indexed_rows == data.config.paths
    assert indexed.max_intermediate_cardinality == data.config.paths
    assert baseline.max_intermediate_cardinality > 5 * data.config.paths


def test_table3_shape_selective_vs_noise_indexes(correlated_db):
    db, data = correlated_db
    sub1 = db.execute(correlated.FULL_QUERY, forced("Sub1"))
    sub1.consume()
    sub6 = db.execute(correlated.FULL_QUERY, forced("Sub6"))
    sub6.consume()
    assert sub1.max_intermediate_cardinality == data.config.paths
    assert sub6.max_intermediate_cardinality > 5 * data.config.paths


def test_table2_shape_index_cardinalities(correlated_db):
    db, data = correlated_db
    expected = data.expected_cardinalities()
    assert db.path_index("Full").cardinality == expected["Full"]
    assert db.path_index("Sub1").cardinality == expected["Sub1"]
    assert db.path_index("Sub6").cardinality == expected["Sub6"]


def test_table10_shape_yago_orderings():
    db = GraphDatabase()
    config = YagoConfig(
        settlements=8,
        owning_settlements=3,
        persons=800,
        born_per_other=10,
        celebrity_in_affiliations=40,
        hub_artifacts_per_owned=3,
        hub_pool=10,
        targets_per_hub=5,
        core_artifacts=60,
        core_noise_edges=900,
        junk_settlements=5,
        junk_owned_per_settlement=40,
    )
    data = generate_yago(db, config)
    db.create_path_index("Full", yago.FULL_PATTERN)
    baseline = db.execute(yago.FULL_QUERY, BASELINE)
    baseline_rows = len(baseline.to_list())
    manual = db.execute(
        yago.FULL_QUERY,
        PlannerHints(use_path_indexes=False, manual_expand_chain=yago.MANUAL_CHAIN),
    )
    manual_rows = len(manual.to_list())
    full = db.execute(yago.FULL_QUERY, PlannerHints(index_seed_chain=("Full", ())))
    full_rows = len(full.to_list())
    assert baseline_rows == manual_rows == full_rows == data.expected_full_cardinality
    assert (
        full.max_intermediate_cardinality
        <= manual.max_intermediate_cardinality
        <= baseline.max_intermediate_cardinality
    )
    assert full.max_intermediate_cardinality == data.expected_full_cardinality


def test_table11_shape_geospecies_no_skipping():
    db = GraphDatabase()
    generate_geospecies(
        db, GeoSpeciesConfig(species=60, locations=15, expected_per_species=2)
    )
    db.create_path_index("Full", geospecies.FULL_PATTERN)
    db.create_path_index("Sub", geospecies.SUB_PATTERN)
    results = {}
    for name, hints in (
        ("Baseline", BASELINE),
        ("Full", forced("Full")),
        ("Sub", forced("Sub")),
    ):
        result = db.execute(geospecies.FULL_QUERY, hints)
        rows = len(result.to_list())
        results[name] = (rows, result.max_intermediate_cardinality)
    row_counts = {rows for rows, _ in results.values()}
    assert len(row_counts) == 1
    count = row_counts.pop()
    assert count > 0
    for name, (rows, interm) in results.items():
        assert interm >= count, name  # nothing can skip the result set


def test_full_index_equals_query_answer_geospecies():
    db = GraphDatabase()
    generate_geospecies(
        db, GeoSpeciesConfig(species=40, locations=10, expected_per_species=2)
    )
    db.create_path_index("Full", geospecies.FULL_PATTERN)
    answer = len(db.execute(geospecies.FULL_QUERY, BASELINE).to_list())
    assert db.path_index("Full").cardinality == answer


# ----------------------------------------------------------------------
# Golden per-operator counts
# ----------------------------------------------------------------------
#
# The rows each operator of a paper shape's plan produces, and so the max
# intermediate cardinality (Tables 3/7/10/11), are pinned per plan variant;
# output chunk sizes 1, 2 and 7 must reproduce them.

SHAPES = {
    "correlated": (
        lambda db: (
            generate_correlated(db, CorrelatedConfig(paths=40, noise_factor=6)),
            db.create_path_index("Full", correlated.FULL_PATTERN),
            db.create_path_index("Sub1", correlated.SUB_PATTERNS["Sub1"]),
            db.create_path_index("Sub6", correlated.SUB_PATTERNS["Sub6"]),
        ),
        [
            ("baseline", BASELINE),
            ("Full", forced("Full")),
            ("Sub1", forced("Sub1")),
            ("Sub6", forced("Sub6")),
        ],
        correlated.FULL_QUERY,
    ),
    "yago": (
        lambda db: (
            generate_yago(
                db,
                YagoConfig(
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
                ),
            ),
            db.create_path_index("Full", yago.FULL_PATTERN),
        ),
        [
            ("baseline", BASELINE),
            (
                "manual",
                PlannerHints(
                    use_path_indexes=False, manual_expand_chain=yago.MANUAL_CHAIN
                ),
            ),
            ("Full", PlannerHints(index_seed_chain=("Full", ()))),
        ],
        yago.FULL_QUERY,
    ),
    "geospecies": (
        lambda db: (
            generate_geospecies(
                db, GeoSpeciesConfig(species=40, locations=10, expected_per_species=2)
            ),
            db.create_path_index("Full", geospecies.FULL_PATTERN),
            db.create_path_index("Sub", geospecies.SUB_PATTERN),
        ),
        [("baseline", BASELINE), ("Full", forced("Full")), ("Sub", forced("Sub"))],
        geospecies.FULL_QUERY,
    ),
}


def shape_db(name):
    db = GraphDatabase()
    SHAPES[name][0](db)
    return db


def counts(result):
    """``(max intermediate cardinality, sorted (operator, rows) pairs)``."""
    return (
        result.max_intermediate_cardinality,
        sorted(result.profile.rows_by_operator()),
    )


GOLDEN = {
    ("correlated", "baseline"): (
        280,
        [
            ("Expand(All)((b)<-[w:X]-(a))", 40),
            ("Expand(All)((c)<-[x:X]-(b))", 40),
            ("Expand(All)((d)-[z:X]->(e))", 40),
            ("Expand(All)((d)<-[y:Y]-(c))", 280),
            ("NodeByLabelScan(d:B)", 40),
            ("Projection(a AS a, w AS w, b AS b, x AS x, c AS c, y AS y, d AS d, z AS z, e AS e)", 40),
        ],
    ),
    ("correlated", "Full"): (
        40,
        [
            ("PathIndexScan(Full: a, w, b, x, c, y, d, z, e)", 40),
            ("Projection(a AS a, w AS w, b AS b, x AS x, c AS c, y AS y, d AS d, z AS z, e AS e)", 40),
        ],
    ),
    ("correlated", "Sub1"): (
        40,
        [
            ("Expand(All)((d)-[z:X]->(e))", 40),
            ("PathIndexScan(Sub1: a, w, b, x, c, y, d)", 40),
            ("Projection(a AS a, w AS w, b AS b, x AS x, c AS c, y AS y, d AS d, z AS z, e AS e)", 40),
        ],
    ),
    ("correlated", "Sub6"): (
        520,
        [
            ("Expand(All)((d)-[z:X]->(e))", 40),
            ("Expand(All)((d)<-[y:Y]-(c))", 280),
            ("NodeByLabelScan(d:B)", 40),
            ("NodeHashJoin(c)", 40),
            ("PathIndexPrefixSeek(Sub6: [b] -> x, c)", 520),
            ("PathIndexScan(Sub6: a, w, b)", 320),
            ("Projection(a AS a, w AS w, b AS b, x AS x, c AS c, y AS y, d AS d, z AS z, e AS e)", 40),
        ],
    ),
    ("yago", "baseline"): (
        606,
        [
            ("Expand(All)((b)<-[w:isAffiliatedTo]-(a))", 606),
            ("Expand(All)((c)-[x:owns]->(d))", 103),
            ("Expand(All)((c)<-[v:wasBornIn]-(b))", 30),
            ("Expand(All)((d)-[y:isConnectedTo]->(e))", 9),
            ("Expand(All)((e)-[z:isConnectedTo]->(f))", 36),
            ("NodeByLabelScan(c:port_settlement_in_USA)", 10),
            ("NodeByLabelScan(c:port_settlement_in_USA)", 10),
            ("NodeHashJoin(c)", 72),
            ("Projection(a AS a, w AS w, b AS b, v AS v, c AS c, x AS x, d AS d, y AS y, e AS e, z AS z, f AS f)", 72),
        ],
    ),
    ("yago", "manual"): (
        103,
        [
            ("Expand(All)((b)<-[w:isAffiliatedTo]-(a))", 72),
            ("Expand(All)((c)-[x:owns]->(d))", 103),
            ("Expand(All)((c)<-[v:wasBornIn]-(b))", 72),
            ("Expand(All)((d)-[y:isConnectedTo]->(e))", 9),
            ("Expand(All)((e)-[z:isConnectedTo]->(f))", 36),
            ("NodeByLabelScan(c:port_settlement_in_USA)", 10),
            ("Projection(a AS a, w AS w, b AS b, v AS v, c AS c, x AS x, d AS d, y AS y, e AS e, z AS z, f AS f)", 72),
        ],
    ),
    ("yago", "Full"): (
        72,
        [
            ("PathIndexScan(Full: a, w, b, v, c, x, d, y, e, z, f)", 72),
            ("Projection(a AS a, w AS w, b AS b, v AS v, c AS c, x AS x, d AS d, y AS y, e AS e, z AS z, f AS f)", 72),
        ],
    ),
    ("geospecies", "baseline"): (
        596,
        [
            ("Expand(All)((b)<-[x:is_expected_in]-(a))", 301),
            ("Expand(All)((c)-[y:was_observed_in]->(b))", 40),
            ("Expand(All)((c)-[z:is_expected_in]->(d))", 596),
            ("NodeByLabelScan(c:species_concept)", 40),
            ("Projection(a AS a, x AS x, b AS b, y AS y, c AS c, z AS z, d AS d)", 596),
        ],
    ),
    ("geospecies", "Full"): (
        596,
        [
            ("PathIndexScan(Full: a, x, b, y, c, z, d)", 596),
            ("Projection(a AS a, x AS x, b AS b, y AS y, c AS c, z AS z, d AS d)", 596),
        ],
    ),
    ("geospecies", "Sub"): (
        596,
        [
            ("Expand(All)((b)<-[y:was_observed_in]-(c))", 301),
            ("PathIndexPrefixSeek(Sub: [c] -> z, d)", 596),
            ("PathIndexScan(Sub: a, x, b)", 80),
            ("Projection(a AS a, x AS x, b AS b, y AS y, c AS c, z AS z, d AS d)", 596),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_golden_operator_counts_at_every_chunk_size(name):
    builder, variants, query = SHAPES[name]
    db = shape_db(name)
    for label, hints in variants:
        for chunk in (None, 1, 2, 7):
            result = execute(db, query, hints, chunk=chunk)
            result.consume()
            assert counts(result) == GOLDEN[name, label], (label, chunk)
