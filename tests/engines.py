"""The two execution engines the differential tests compare, and how to run
a query on a chosen one."""

ENGINES = ("row", "compiled")


def execute(db, text, hints=None, mode="compiled", **kwargs):
    """``db.execute(text, hints)`` on engine ``mode``, asserting it ran there.

    Compiled mode runs a plan's first execution on the row engine, so the
    plan is compiled first (``db.compiled_source``); without that a first
    execution would compare the row engine with itself.
    """
    if mode == "compiled":
        db.compiled_source(text, hints)
    result = db.execute(text, hints, execution_mode=mode, **kwargs)
    assert result.profile.engine == mode, (mode, text)
    return result
