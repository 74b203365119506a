"""One run of one workload — the command BENCHMARK.json names.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (three times over; ``setup_s`` is
the median), warms up, measures for S seconds, runs the correctness gates,
prints what it measured and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Exits
non-zero when a gate fails or the engine sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import perfbench  # noqa: E402


def workloads() -> dict:
    from perfbench import embedded, served

    return {cls.name: cls for cls in (*embedded.WORKLOADS, served.ServerMixed)}


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from perfbench import harness

    scale = perfbench.SMOKE if smoke else perfbench.FULL
    return harness.run(workloads()[name], seed, seconds, trace, scale)


def report(result: dict, out=sys.stdout) -> None:
    """Every metric by name with its unit, then the diagnostics."""
    print(f"== {result['workload']} ==", file=out)
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}", file=out)
    for key, value in result["diagnostics"].items():
        print(f"  {key}: {json.dumps(value, default=str)}", file=out)
    for problem in result["problems"]:
        print(f"GATE FAILED: {problem}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=perfbench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=perfbench.FULL.window_s)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graph, short warm-up; every gate stays on")
    args = parser.parse_args(argv)
    removed = perfbench.scrub_environment()
    if not perfbench.engine_present():
        print(f"perfbench: no engine at {perfbench.SRC}/repro", file=sys.stderr)
        return 2
    if args.workload not in workloads():
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads())}")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    result["diagnostics"]["scrubbed_env"] = sorted(removed)
    report(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
