"""Compare two result files written by ``python -m perfbench --out``.

    python perfbench/compare.py PARENT.json CHANGE.json

For every workload and end-to-end metric, prints both medians, the share by
which the second is worse, and the run-to-run spread inside each file; exits
non-zero when any metric is worse than its bound in BENCHMARK.json. The same
check backs ``python -m perfbench --repeat N``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.harness import load_contract  # noqa: E402
from perfbench.stats import worsening  # noqa: E402


def values_by_metric(runs: list[dict]) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` from a result file's runs."""
    out: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for workload, result in run.items():
            for name, value in result["metrics"].items():
                out.setdefault(workload, {}).setdefault(name, []).append(value)
    return out


def relative_range(values: list[float]) -> str:
    """(max − min) ÷ median of one side's runs; nothing to say about one run."""
    if len(values) < 2:
        return "-"
    return f"{(max(values) - min(values)) / statistics.median(values):.1%}"


def compare(first_runs: list[dict], second_runs: list[dict], out=sys.stdout) -> bool:
    """Print the comparison table; True when every metric is within bound."""
    bounds = {m["name"]: m for m in load_contract()["end_to_end"]}
    first, second = values_by_metric(first_runs), values_by_metric(second_runs)
    within = True
    print(f"{'workload':16s}{'metric':16s}{'first':>12s}{'second':>12s}"
          f"{'worse by':>10s}{'bound':>8s}{'spread 1':>10s}{'spread 2':>10s}", file=out)
    for workload in first:
        for name, metric in bounds.items():
            a, b = first[workload][name], second.get(workload, {}).get(name)
            if not b:
                continue
            worse = worsening(statistics.median(a), statistics.median(b), metric["better"])
            verdict = "" if worse <= metric["bound"] else "  REGRESSION"
            within = within and not verdict
            print(f"{workload:16s}{name:16s}{statistics.median(a):12.4g}"
                  f"{statistics.median(b):12.4g}{worse:+10.1%}{metric['bound']:8.0%}"
                  f"{relative_range(a):>10s}{relative_range(b):>10s}{verdict}", file=out)
    return within


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path) as handle:
            files.append(json.load(handle)["runs"])
    return 0 if compare(*files) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
