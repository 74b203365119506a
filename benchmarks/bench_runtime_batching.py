"""Row vs. compiled engine comparison.

Times the same warm-cache queries on both execution engines on the
correlated dataset: a label scan, a one-step expand, a two-step chain, and
an aggregation. Both engines run the identical cached plan, so the deltas
isolate interpretation overhead — the compiled engine fuses each pipeline
into one generated Python loop nest over slot rows, removing the
per-operator generator frames and dict rows of the row engine. The plan is
compiled before timing starts (in production a plan compiles on its second
execution), so the numbers are the generated code's steady state.

The results artifact is ``benchmarks/results/runtime_compiled.{txt,json}``
(both engines, the compiled-over-row speedup and its geomean over the
scan/expand/chain shapes).

Run standalone with ``--smoke`` (used by CI) for a seconds-long pass on a
tiny graph that also asserts the engines return the same number of rows.
"""

import gc
import math
import time

from benchmarks._shared import BASELINE_HINTS, correlated_config
from repro import GraphDatabase
from repro.bench.reporting import render_table, write_report
from repro.datasets import CorrelatedConfig, generate_correlated

MODES = ("row", "compiled")

SHAPES = (
    ("scan", "MATCH (a:A) RETURN a"),
    ("expand", "MATCH (a:A)-[x:X]->(b:A) RETURN a, b"),
    ("chain", "MATCH (a:A)-[y:Y]->(b:B)-[x:X]->(c:A) RETURN a, c"),
    ("aggregate", "MATCH (a:A)-[x:X]->(b:A) RETURN count(*) AS c"),
)

#: Shapes whose compiled-over-row speedups form the headline geomean.
GEOMEAN_SHAPES = ("scan", "expand", "chain")

SMOKE_CONFIG = CorrelatedConfig(paths=60, noise_factor=6)


def _run(db, query, mode) -> int:
    result = db.execute(query, BASELINE_HINTS, execution_mode=mode)
    rows = len(result.to_list())
    assert result.profile.engine == mode, (mode, query)
    return rows


def _measure_shape(db, query, runs: int) -> dict:
    """Best-of-``runs`` wall time per engine, modes interleaved per rep.

    Interleaving plus taking the minimum makes the *ratios* robust against
    machine drift: a slowdown mid-measurement hits every engine in the same
    rep instead of biasing whichever mode happened to run in that window
    (which a per-mode block with a mean would).
    """
    timings = {mode: [] for mode in MODES}
    db.compiled_source(query, BASELINE_HINTS)  # warm plan and codegen artifact
    counts = {mode: _run(db, query, mode) for mode in MODES}  # and page cache
    for _ in range(runs):
        for mode in MODES:
            gc.collect()
            started = time.perf_counter()
            rows = _run(db, query, mode)
            timings[mode].append(time.perf_counter() - started)
            assert rows == counts[mode]
    cell = {f"{mode}_seconds": min(timings[mode]) for mode in MODES}
    cell.update({f"{mode}_rows": counts[mode] for mode in MODES})
    return cell


def _run_table(smoke: bool = False) -> dict:
    db = GraphDatabase()
    generate_correlated(db, SMOKE_CONFIG if smoke else correlated_config())
    rows = []
    data = {"smoke": smoke, "shapes": {}}
    for name, query in SHAPES:
        cell = {"query": query}
        cell.update(_measure_shape(db, query, runs=3 if smoke else 5))
        assert cell["row_rows"] == cell["compiled_rows"], (
            f"{name}: engines disagree on row count"
        )
        cell["compiled_speedup"] = (
            cell["row_seconds"] / cell["compiled_seconds"]
            if cell["compiled_seconds"] > 0
            else float("inf")
        )
        data["shapes"][name] = cell
        rows.append(
            (
                name,
                f"{cell['row_seconds'] * 1e3:,.1f} ms",
                f"{cell['compiled_seconds'] * 1e3:,.1f} ms",
                f"{cell['compiled_speedup']:.2f}x",
                f"{cell['row_rows']:,}",
            )
        )
    geomean = math.exp(
        sum(
            math.log(data["shapes"][name]["compiled_speedup"])
            for name in GEOMEAN_SHAPES
        )
        / len(GEOMEAN_SHAPES)
    )
    data["compiled_geomean"] = geomean
    table = render_table(
        "Compiled pipelines — row vs. compiled engine, correlated dataset"
        + (" (smoke)" if smoke else ""),
        ("Shape", "Row", "Compiled", "Comp/Row", "Rows"),
        rows,
        note=(
            "Same cached plans on both engines; warm page cache and codegen "
            "artifact. 'Comp/Row' is the compiled engine's speedup over the "
            f"row engine; geomean over {'/'.join(GEOMEAN_SHAPES)}: "
            f"{geomean:.2f}x. Both engines walk relationship chains through "
            "the same store walk, so this is the fused loop nest's gain alone."
        ),
    )
    write_report("runtime_compiled", table, data)
    return data


def test_runtime_batching_report(benchmark):
    # Gated like --smoke: both engines return the same rows, and the timed
    # compiled runs are generated code. The speedups are reported, not
    # gated — both engines share the store's chain walk and record reads, so
    # a cheaper store moves both and says nothing about the interpretation
    # overhead a ratio floor was meant to pin.
    data = benchmark.pedantic(_run_table, rounds=1, iterations=1)
    shapes = data["shapes"]
    assert set(shapes) == {name for name, _ in SHAPES}
    for cell in shapes.values():
        assert cell["row_rows"] == cell["compiled_rows"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny dataset, few runs; asserts engines agree on row counts",
    )
    arguments = parser.parse_args()
    _run_table(smoke=arguments.smoke)
