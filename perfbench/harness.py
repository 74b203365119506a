"""One benchmark run: repeated set-up, warm-up, a closed-loop timed window,
correctness gates, and the metric arithmetic shared by every workload.

A run with ``trace=False`` yields the end-to-end metrics. A run with
``trace=True`` first measures a short untraced window (the base of
``trace_overhead``), then a traced window in which each op goes through the
workload's span-recording path, and yields the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import perfbench
from perfbench import spans
from perfbench.stats import highest_supported_percentile, latency_summary

UNTRACED_SHARE = 0.3
"""Share of a traced run's seconds spent on the untraced reference window."""

MAX_ERROR_SHARE = 0.001


def load_contract() -> dict:
    """BENCHMARK.json — the single list of metric names, units and bounds."""
    with open(os.path.join(os.path.dirname(perfbench.HERE), "BENCHMARK.json")) as handle:
        return json.load(handle)


class Workload:
    """What a workload supplies; the harness owns timing and arithmetic."""

    name = ""
    primary: frozenset[str] = frozenset()
    """Op classes whose latency is the workload's ``latency_*`` metrics
    (empty = every class)."""
    drivers = 1

    def __init__(self, seed: int, scale: perfbench.Scale, workdir: str, trace: bool) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.trace = trace
        self.cursor = [0] * self.drivers
        self.acc: dict[str, float] = {}
        """Accumulators the traced op path adds to (rows examined, ...)."""
        self.failures: list[str] = []
        self.setups = 0

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def op(self, driver: int, n: int, tracer: Optional[spans.Tracer]) -> tuple[str, bool]:
        """Run the driver's ``n``-th op; returns (op class, result correct)."""
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """The program's own public counters, read at window boundaries."""
        return {}

    def layer_metrics(self, window: "Window", delta: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics beyond the generic span arithmetic."""
        return {}

    def gates(self, window: "Window", metrics: dict[str, float]) -> list[str]:
        """Run the end-of-run correctness gates; returns failure messages.
        ``metrics`` is what the run measured so far; in a traced run a gate
        adds the per-layer metrics it measures itself (``durability.reopen_s``)."""
        return []

    def describe(self) -> dict[str, object]:
        """Facts recorded with the result (engine, sizes, flush policy)."""
        return {}

    def add(self, key: str, amount: float) -> None:
        self.acc[key] = self.acc.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.acc[key] = max(self.acc.get(key, 0.0), value)

    def note_failure(self, message: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(message)


@dataclass
class Window:
    seconds: float
    samples: list[tuple[str, float, bool]]
    tracers: list[spans.Tracer] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, ok in self.samples if not ok)

    def latencies(self, classes: frozenset[str] = frozenset()) -> list[float]:
        """Latencies of completed ops; a failed op has none."""
        return [
            seconds
            for cls, seconds, ok in self.samples
            if ok and (not classes or cls in classes)
        ]


def run_window(workload: Workload, seconds: float, traced: bool = False) -> Window:
    """Closed loop: each driver issues its next op when the previous one has
    returned its last row, until ``seconds`` have passed."""
    tracers = [spans.Tracer() for _ in range(workload.drivers)] if traced else []
    per_driver: list[list] = [[] for _ in range(workload.drivers)]
    start = time.perf_counter()
    deadline = start + seconds

    def drive(driver: int) -> None:
        tracer = tracers[driver] if traced else None
        out = per_driver[driver]
        n = workload.cursor[driver]
        while True:
            began = time.perf_counter()
            if began >= deadline:
                break
            if tracer is not None:
                tracer.op_id = n
            try:
                cls, ok = workload.op(driver, n, tracer)
            except Exception:  # noqa: BLE001 - a failed op is counted, never dropped
                cls, ok = "raised", False
                workload.note_failure(traceback.format_exc(limit=3))
            out.append((cls, time.perf_counter() - began, ok))
            n += 1
        workload.cursor[driver] = n

    if workload.drivers == 1:
        drive(0)
    else:
        threads = [
            threading.Thread(target=drive, args=(d,)) for d in range(workload.drivers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - start
    return Window(elapsed, [s for out in per_driver for s in out], tracers)


def _delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def generic_layer_metrics(
    workload: Workload, window: Window, delta: dict[str, float]
) -> dict[str, float]:
    """Span self times and counter deltas → the per-layer metrics every
    workload shares. Time metrics are self milliseconds per completed op."""
    self_s = spans.merged_self_times(window.tracers)
    counts = spans.span_counts(window.tracers)
    ops = max(1, window.attempted - window.failed)
    acc = workload.acc

    def per_op_ms(name: str) -> float:
        return self_s.get(name, 0.0) / ops * 1e3

    frontend = sum(
        self_s.get(name, 0.0) for name in ("cypher.parse", "querygraph.build", "planner.plan")
    )
    op_total = sum(
        seconds for name, seconds in self_s.items() if name != "pathindex.scan"
    )
    lookups = delta.get("plan_cache.hits", 0.0) + delta.get("plan_cache.misses", 0.0)
    touches = delta.get("page_cache.hits", 0.0) + delta.get("page_cache.misses", 0.0)
    commits = acc.get("commits", 0.0)
    return {
        "cypher.parse_ms": per_op_ms("cypher.parse"),
        "querygraph.build_ms": per_op_ms("querygraph.build"),
        "planner.plan_ms": per_op_ms("planner.plan"),
        "planner.plans": float(counts.get("planner.plan", 0)),
        "frontend.share_of_op_time": _ratio(frontend, op_total),
        "db.plan_cache_hit_ratio": _ratio(delta.get("plan_cache.hits", 0.0), lookups),
        "db.plan_cache_evictions": delta.get("plan_cache.evictions", 0.0),
        "runtime.exec_ms": per_op_ms("runtime.exec"),
        "runtime.rows_examined_per_row_returned": _ratio(
            acc.get("rows_examined", 0.0), acc.get("rows_returned", 0.0)
        ),
        "runtime.max_intermediate_cardinality": acc.get("max_intermediate", 0.0),
        "pathindex.scan_ms": _ratio(
            self_s.get("pathindex.scan", 0.0), counts.get("pathindex.scan", 0)
        ) * 1e3,
        "pathindex.entries_per_s": _ratio(
            acc.get("index_entries", 0.0), self_s.get("pathindex.scan", 0.0)
        ),
        "pathindex.maintain_ms": _ratio(
            self_s.get("pathindex.maintain", 0.0), acc.get("maintained_indexes", 0.0)
        ) * 1e3,
        "storage.page_touches_per_op": touches / ops,
        "storage.page_hit_ratio": _ratio(delta.get("page_cache.hits", 0.0), touches),
        "tx.commit_self_ms": _ratio(self_s.get("tx.commit", 0.0), commits) * 1e3,
        "durability.fsyncs_per_commit": _ratio(
            delta.get("durability.fsyncs", 0.0), delta.get("durability.commits", 0.0)
        ),
        "durability.wal_bytes_per_commit": _ratio(acc.get("wal_bytes", 0.0), commits),
        "durability.sync_ms": _ratio(self_s.get("durability.sync", 0.0), commits) * 1e3,
        "durability.checkpoint_s": _ratio(
            acc.get("checkpoint_seconds", 0.0), acc.get("checkpoints", 0.0)
        ),
        "service.queue_ms": per_op_ms("service.queue"),
        "service.planning_ms": per_op_ms("service.planning"),
        "service.execution_ms": per_op_ms("service.execution"),
        "resources.peak_tracked_bytes": acc.get("peak_tracked_bytes", 0.0),
        "resources.spills": acc.get("spills", 0.0),
    }


def run(workload_cls, seed: int, seconds: float, trace: bool, scale: perfbench.Scale) -> dict:
    """One run of one workload; returns the result record (see ``run.py``)."""
    contract = load_contract()
    root = os.path.dirname(perfbench.HERE)
    workdir = os.path.join(root, ".perfbench-work", f"{workload_cls.name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workload_cls(seed, scale, workdir, trace)
    try:
        return _run(workload, contract, seconds, trace)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload: Workload, contract: dict, seconds: float, trace: bool) -> dict:
    setup_times = []
    for _ in range(perfbench.SETUP_REPEATS):
        if workload.setups:
            workload.teardown()
        began = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - began)
        workload.setups += 1

    run_window(workload, workload.scale.warmup_s)  # plan cache, page cache, lazy set-up
    workload.failures.clear()
    diagnostics: dict[str, object] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "setup_times_s": setup_times,
        **workload.describe(),
    }
    problems: list[str] = []

    if not trace:
        before = workload.counters()
        window = run_window(workload, seconds)
        diagnostics["window_counters"] = _delta(before, workload.counters())
        metrics = _end_to_end(workload, window, diagnostics, problems)
        metrics["setup_s"] = statistics.median(setup_times)
    else:
        base = run_window(workload, seconds * UNTRACED_SHARE)
        before = workload.counters()
        window = run_window(workload, seconds * (1.0 - UNTRACED_SHARE), traced=True)
        delta = _delta(before, workload.counters())
        diagnostics["window_counters"] = delta
        metrics = generic_layer_metrics(workload, window, delta)
        metrics.update(workload.layer_metrics(window, delta))
        metrics["trace_overhead"] = _ratio(
            statistics.median(window.latencies(workload.primary) or [0.0]),
            statistics.median(base.latencies(workload.primary) or [0.0]),
        )
        window.samples = base.samples + window.samples  # every op counts as attempted

    problems.extend(workload.gates(window, metrics))
    if trace:
        if metrics["resources.spills"]:
            problems.append("a query spilled to disk under an unbounded memory pool")
        metrics["process.peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        trace_path = os.path.join(
            os.path.dirname(workload.workdir), f"trace-{workload.name}.json"
        )
        spans.write_trace(
            trace_path, window.tracers, {"workload": workload.name, "metrics": metrics}
        )
        diagnostics["trace_file"] = os.path.relpath(trace_path, os.path.dirname(perfbench.HERE))

    attempted, failed = window.attempted, window.failed
    diagnostics["error_share"] = _ratio(failed, attempted)
    if attempted == 0:
        problems.append("no op was attempted")
    elif failed / attempted > MAX_ERROR_SHARE:
        problems.append(f"error_share {failed / attempted:.4f} > {MAX_ERROR_SHARE}")
    problems.extend(f"op raised: {message}" for message in workload.failures)

    units = {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}
    undeclared = set(metrics) - set(units)
    if undeclared:
        raise AssertionError(f"metrics not declared in BENCHMARK.json: {sorted(undeclared)}")
    return {
        "workload": workload.name,
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
        "problems": problems,
        "diagnostics": diagnostics,
    }


def _end_to_end(
    workload: Workload, window: Window, diagnostics: dict, problems: list[str]
) -> dict[str, float]:
    primary = window.latencies(workload.primary)
    metrics = {"ops_per_s": (window.attempted - window.failed) / window.seconds}
    if primary:
        summary = latency_summary(primary)
        metrics["latency_p50_ms"] = summary["p50_ms"]
        metrics["latency_p95_ms"] = summary["p95_ms"]
        diagnostics["primary"] = summary
    if not workload.scale.smoke and highest_supported_percentile(len(primary)) is None:
        problems.append(
            f"{len(primary)} primary samples in the window; p95 needs "
            f">= {perfbench.MIN_PRIMARY_SAMPLES}"
        )
    by_class: dict[str, list[float]] = {}
    for cls, seconds, ok in window.samples:
        if ok:
            by_class.setdefault(cls, []).append(seconds)
    diagnostics["classes"] = {
        cls: {"samples": len(values), "p50_ms": statistics.median(values) * 1e3}
        for cls, values in sorted(by_class.items())
    }
    return metrics
