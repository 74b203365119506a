"""Result rows: the generated row builder and the entry pass-through.

The final part's generated source defines ``_dicts``, which turns its
column tuples into the result's dicts with one constant-key display per
row; ``Result.to_list()`` and ``Result.__next__`` both use it. A final
projection that is exactly an index entry's unpacked locals, in order,
appends the entry itself. These tests check that the dicts equal
``dict(zip(columns, row))`` over the executor's raw tuples, keys in column
order, and where the pass-through does and does not apply.
"""

import ast

from hypothesis import HealthCheck, given, settings

from repro import GraphDatabase
from repro.cypher.lexer import literal_shape
from repro.datasets import CorrelatedConfig, correlated, generate_correlated
from repro.errors import PlannerError
from repro.runtime import Executor

from tests.engines import SMALL_CHUNKS, agree, execute
from tests.test_entry_binding import TWO_X, binding_db, forced
from tests.test_oracle import BASELINE, PARAMS, cases, loaded, used

FULL_MATCH = "MATCH (a:A)-[w:X]->(b:A)-[x:X]->(c:A)-[y:Y]->(d:B)-[z:X]->(e:A)"


def raw_tuples(db, text, hints=None, params=None, chunk=None):
    """The columns and column tuples of ``text``, straight from the
    executor, with no Result in between."""
    cached = db.prepare(text, hints, params)
    executor = Executor(db.store, db.indexes, cached.analyzed.variable_kinds)
    rows, _ = executor.execute(cached.planned_parts, morsel_size=chunk)
    return cached.columns, list(rows)


def check_dicts(db, text, hints=None, params=None):
    """At chunk sizes 1, 2 and 7, ``to_list()`` and ``list(result)`` equal
    the zipped raw tuples, keys in column order; returns the rows."""
    for chunk in SMALL_CHUNKS:
        columns, tuples = raw_tuples(db, text, hints, params, chunk)
        expected = [list(dict(zip(columns, row)).items()) for row in tuples]
        bulk = execute(db, text, hints, chunk=chunk, params=params)
        assert bulk.columns == columns, text
        assert [list(row.items()) for row in bulk.to_list()] == expected, (text, chunk)
        pulled = execute(db, text, hints, chunk=chunk, params=params)
        assert [list(row.items()) for row in pulled] == expected, (text, chunk)
    return expected


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases(), k=PARAMS)
def test_dicts_equal_the_zipped_tuples_over_the_read_grammar(case, k):
    spec, text = case
    db, _ = loaded(spec)
    params = used(text, k)
    for hints in (None, BASELINE, forced("any"), forced("xx")):
        try:
            db.prepare(text, hints, params)
        except PlannerError:
            continue  # the forced index does not embed
        check_dicts(db, text, hints, params)


def test_texts_of_one_shape_keep_their_own_columns():
    """Texts of one shape key either share a plan (equal columns) or, when
    a column is an unaliased literal, are planned apart: each builds dicts
    keyed by its own columns, also once compiled."""
    db = GraphDatabase()
    for value in (1, 2):
        db.create_node(["A"], {"v": value})
    cases = [
        ("MATCH (a:A) WHERE a.v = 1 RETURN a.v AS x", ["x"], [1]),
        ("MATCH (a:A) WHERE a.v = 2 RETURN a.v AS x", ["x"], [2]),
        ("MATCH (a:A) RETURN a.v + 1", ["(a.v + 1)"], [2, 3]),
        ("MATCH (a:A) RETURN a.v + 2", ["(a.v + 2)"], [3, 4]),
        ("MATCH (a:A) RETURN a.v + 2, a.v AS y", ["(a.v + 2)", "y"], [3, 4]),
        ("MATCH (a:A) RETURN a.v + 3, a.v AS z", ["(a.v + 3)", "z"], [4, 5]),
    ]
    assert literal_shape(cases[0][0])[0] == literal_shape(cases[1][0])[0]
    assert literal_shape(cases[2][0])[0] == literal_shape(cases[3][0])[0]
    for _ in range(3):  # the first execution, the compile, a reuse
        for text, columns, values in cases:
            bulk, pulled = db.execute(text), db.execute(text)
            for result, rows in ((bulk, bulk.to_list()), (pulled, list(pulled))):
                assert result.columns == columns, text
                assert [list(row) for row in rows] == [columns] * len(values), text
                assert sorted(row[columns[0]] for row in rows) == values, text
    for text, _, _ in cases:
        check_dicts(db, text)


def test_odd_column_names_build():
    """Column names holding quotes, a backslash or non-ASCII characters are
    written as keys correctly; writes build dicts with and without a
    RETURN. The generated source parses as Python 3.10, the oldest
    version supported."""
    db = GraphDatabase()
    db.create_node(["A"], {"v": 1, "s": "é"})
    texts = [
        "MATCH (a:A) RETURN a.s + 'x\"y\\'z'",
        "MATCH (a:A) RETURN a.s + 'back\\\\slash', a.s + 'ünï€'",
        "MATCH (a:A) RETURN a.v AS `it's \"ü\"`, a.s AS `\\`",
        "MATCH (a:A) RETURN a.v + 1 AS `_c0`, a.v AS `_c1`, a.v + 2 AS `_rows`",
    ]
    for text in texts:
        rows = check_dicts(db, text)
        assert len(rows) == 1, text
        source = db.compiled_source(text)
        assert "def _dicts(_rows):" in source
        ast.parse(source, feature_version=(3, 10))
    assert check_dicts(db, texts[0]) == [[("(a.s + 'x\"y\\'z')", "éx\"y'z")]]
    assert check_dicts(db, texts[1]) == [
        [("(a.s + 'back\\\\slash')", "éback\\slash"), ("(a.s + 'ünï€')", "éünï€")]
    ]
    assert check_dicts(db, texts[2]) == [[("it's \"ü\"", 1), ("\\", "é")]]
    assert check_dicts(db, texts[3]) == [[("_c0", 2), ("_c1", 1), ("_rows", 3)]]

    for chunk in SMALL_CHUNKS:
        silent = execute(db, "CREATE (:P)", chunk=chunk)
        assert silent.columns == [] and silent.to_list() == []
        assert list(execute(db, "CREATE (:P)", chunk=chunk)) == []
        created = execute(db, "CREATE (c:C {v: 1}) RETURN c.v AS v", chunk=chunk)
        assert created.to_list() == [{"v": 1}]
        pulled = execute(db, "CREATE (c:C {v: 2}) RETURN c.v AS v, 'é' AS `ü`", chunk=chunk)
        assert [list(row.items()) for row in pulled] == [[("v", 2), ("ü", "é")]]


def full_db():
    db = GraphDatabase()
    generate_correlated(db, CorrelatedConfig(paths=10, noise_factor=2))
    db.create_path_index("Full", correlated.FULL_PATTERN)
    return db


PASS_THROUGH = "_append(_en"
BUILT = "_append(("


def test_return_star_over_an_index_entry_appends_the_entry():
    db = full_db()
    for text, hints, operator in (
        (f"{FULL_MATCH} RETURN *", None, "PathIndexScan"),
        (f"{FULL_MATCH} WHERE a <> e RETURN *", forced("Full"), "PathIndexFilteredScan"),
    ):
        assert f"{operator}(Full:" in db.explain(text, hints)
        source = db.compiled_source(text, hints)
        assert PASS_THROUGH in source and BUILT not in source, source
        assert db.execute(text, hints).columns == ["a", "w", "b", "x", "c", "y", "d", "z", "e"]
        assert len(agree(db, text, hints)) == 10
        check_dicts(db, text, hints)


def test_other_projections_of_an_entry_build_a_tuple():
    """A subset, a reordering of every entry variable, or an expression
    builds the column tuple."""
    db = full_db()
    for text in (
        f"{FULL_MATCH} RETURN e, a",
        f"{FULL_MATCH} RETURN e, z, d, y, c, x, b, w, a",
        f"{FULL_MATCH} RETURN a, w, b, x, c, y, d, z",
        f"{FULL_MATCH} RETURN id(d) AS d",
    ):
        assert "PathIndexScan(Full:" in db.explain(text)
        source = db.compiled_source(text)
        assert BUILT in source and PASS_THROUGH not in source, source
        assert len(agree(db, text)) == 10
        check_dicts(db, text)


def test_prefix_seek_passes_through_only_an_entry_alone():
    """A prefix seek's projection of its entry variables appends the entry
    (once per child row); one that also reads the child row builds."""
    db, _ = binding_db()
    hints = forced("one")
    for text, passes in (
        (f"{TWO_X} WHERE a.v = 5 RETURN b, s, c", True),
        (f"{TWO_X} WHERE a.v = 5 RETURN a, r, b, s, c", False),
        (f"{TWO_X} WHERE a.v < 5 RETURN c, s, b", False),
    ):
        assert "PathIndexPrefixSeek(one:" in db.explain(text, hints)
        source = db.compiled_source(text, hints)
        assert (PASS_THROUGH in source) is passes, source
        assert (BUILT in source) is not passes, source
        agree(db, text, hints)
        check_dicts(db, text, hints)
