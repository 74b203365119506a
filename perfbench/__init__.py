"""perfbench: the repository's one repeatable performance yardstick.

Five workloads, four bounded end-to-end metrics and per-layer spans for the
``repro.*`` modules; see ``perfbench/README.md``. Every size below is a pinned
constant — nothing here reads the environment, and every ``REPRO_*`` variable
is scrubbed before the engine is touched — so the same commit and seed give
the same load on every host.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

DEFAULT_SEED = 20210323



@dataclass(frozen=True)
class Scale:
    """Graph size and window lengths of a run."""

    paths: int
    noise: int
    window_s: float
    warmup_s: float
    smoke: bool


FULL = Scale(paths=200, noise=24, window_s=10.0, warmup_s=1.5, smoke=False)
"""The run BENCHMARK.json gates on."""

SMOKE = Scale(paths=40, noise=8, window_s=2.0, warmup_s=0.3, smoke=True)
"""``--smoke``: every gate on, tiny graph, short windows."""

SETUP_REPEATS = 3

MIN_PRIMARY_SAMPLES = 200
"""p95 needs >= 10 samples beyond it, hence >= 200 in the window."""

CHECKPOINT_INTERVAL_RECORDS = 256
"""write_maintain's auto-checkpoint period: several checkpoints must fall
inside one 10 s window, which the engine default (1024) does not give at
~230 commits/s."""


def scrub_environment() -> dict[str, str]:
    """Drop every ``REPRO_*`` variable (execution mode, memory budgets, bench
    scale) from this process; returns what was removed, for the record."""
    return {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("REPRO_")}


def engine_present() -> bool:
    """Whether the checkout holds the engine and not just the benchmark."""
    return os.path.isdir(os.path.join(SRC, "repro"))


# The engine is this checkout's ``src/repro``, never an installed copy.
if SRC not in sys.path:
    sys.path.insert(0, SRC)
