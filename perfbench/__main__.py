"""The whole suite in one command.

    python -m perfbench [--workload NAME] [--seed N] [--trace] [--smoke]
                        [--repeat N] [--out FILE]

Runs each workload as ``perfbench/run.py`` does for the driver — a fresh
process per run — prints every metric by name with its unit, and exits
non-zero when any correctness gate fails. ``--trace`` adds the traced pass
(per-layer metrics, ``trace_overhead``). ``--repeat N`` runs the suite N times
and fails if a later run is worse than the first by more than a metric's
bound. ``--out`` saves the runs for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import perfbench
from perfbench.compare import compare
from perfbench.harness import load_contract

RUN = os.path.join(perfbench.HERE, "run.py")


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One fresh-process run; relays its report, returns its result line."""
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"perfbench: {workload} run exited {done.returncode}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def main(argv=None) -> int:
    names = [workload["name"] for workload in load_contract()["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--seed", type=int, default=perfbench.DEFAULT_SEED)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seconds = (perfbench.SMOKE if args.smoke else perfbench.FULL).window_s

    runs, green = [], True
    for _ in range(args.repeat):
        suite = {}
        for workload in args.workload or names:
            suite[workload] = run_once(workload, args.seed, seconds, False, args.smoke)
            green = green and suite[workload]["correct"]
            if args.trace:
                green = run_once(workload, args.seed, seconds, True, args.smoke)["correct"] and green
        runs.append(suite)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "smoke": args.smoke, "runs": runs}, handle, indent=1)
    if args.repeat > 1:
        print(f"\n== repeatability: run 1 vs runs 2..{args.repeat} ==")
        green = compare(runs[:1], runs[1:]) and green
    print("\nperfbench:", "all gates green" if green else "GATE FAILURE")
    return 0 if green else 1


if __name__ == "__main__":
    sys.exit(main())
