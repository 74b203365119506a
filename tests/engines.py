"""Generated code at several output chunk sizes, and the oracle check that
replaces the comparison with a second engine.

Tests parametrized over :data:`CHUNK_SIZES` run a query with generated
code handing rows downstream in chunks of that many rows (None: the
default size). :func:`agree` checks a query against the brute-force
oracle (``tests.oracle``) and checks that chunk sizes 1, 2 and 7, which
split every operator's output mid-chunk, change neither its rows, nor its
per-operator profile, nor its max intermediate cardinality.
"""

from contextlib import contextmanager

import pytest

from repro.runtime import Executor

from tests import oracle

CHUNK_SIZES = (None, 7)
"""The chunk sizes a parametrized test runs at."""

SMALL_CHUNKS = (1, 2, 7)


def pin_chunk(monkeypatch, size):
    """Run every ``Executor.execute`` at chunk size ``size`` (None: the
    default), the internal pattern queries included."""
    execute = Executor.execute

    def at_size(self, planned_parts, *args, **kwargs):
        return execute(self, planned_parts, *args, **{**kwargs, "morsel_size": size})

    monkeypatch.setattr(Executor, "execute", at_size)


@contextmanager
def chunked(size):
    """``pin_chunk`` for the executions started in the block."""
    with pytest.MonkeyPatch.context() as patch:
        pin_chunk(patch, size)
        yield


def execute(db, text, hints=None, chunk=None, **kwargs):
    """``db.execute(text, hints, **kwargs)`` at output chunk size ``chunk``."""
    with chunked(chunk):
        return db.execute(text, hints, **kwargs)


def agree(db, text, hints=None, graph=None, params=None):
    """Run ``text`` at the default chunk size and check its rows against
    the oracle over ``graph`` (default: ``db``'s graph as the query reads
    it); then at chunk sizes 1, 2 and 7, which must give the same rows in
    the same order, the same per-operator counts and max intermediate
    cardinality. Returns the rows."""
    answer = oracle.run(graph if graph is not None else oracle.snapshot(db), text, params)
    reference = db.execute(text, hints, params=params)
    expected = reference.to_list()
    assert reference.columns == answer.columns, text
    oracle.check(
        answer, [tuple(row[c] for c in reference.columns) for row in expected], text
    )
    for size in SMALL_CHUNKS:
        result = execute(db, text, hints, chunk=size, params=params)
        assert result.to_list() == expected, (text, size)
        assert result.profile.operators.rows == reference.profile.operators.rows, (
            text,
            size,
        )
        assert (
            result.max_intermediate_cardinality
            == reference.max_intermediate_cardinality
        ), (text, size)
    return expected
