"""The two execution engines the differential tests compare, and how to run
a query on a chosen one."""

from repro.runtime import Executor

ENGINES = ("row", "compiled")


def execute(db, text, hints=None, mode="compiled", **kwargs):
    """``db.execute(text, hints)`` on engine ``mode``, asserting it ran there.

    Compiled mode runs a plan's first execution on the row engine, so the
    plan is compiled first (``db.compiled_source``); without that a first
    execution would compare the row engine with itself.
    """
    if mode == "compiled":
        db.compiled_source(text, hints, params=kwargs.get("params"))
    result = db.execute(text, hints, execution_mode=mode, **kwargs)
    assert result.profile.engine == mode, (mode, text)
    return result


def pin_engine(monkeypatch, engine, morsel_size=None):
    """Run every ``Executor.execute`` on ``engine``, the internal pattern
    queries included (production runs those compiled); ``morsel_size``
    also pins generated code's output chunk size."""
    execute = Executor.execute
    pinned = {"mode": engine}
    if morsel_size is not None:
        pinned["morsel_size"] = morsel_size

    def on_engine(self, planned_parts, *args, **kwargs):
        return execute(self, planned_parts, *args, **{**kwargs, **pinned})

    monkeypatch.setattr(Executor, "execute", on_engine)
