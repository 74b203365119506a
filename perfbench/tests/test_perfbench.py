"""perfbench's own checks. Run explicitly (not part of the tier-1 suite):

    python -m pytest perfbench/tests -q
"""

import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

import perfbench
from perfbench import harness, spans, stats
from perfbench.generator import PATTERNS, brute_force_count, generate
from perfbench.run import workloads


def test_generator_is_byte_deterministic_per_seed_and_differs_across_seeds():
    paths, noise = perfbench.SMOKE.paths, perfbench.SMOKE.noise
    first = generate(7, paths, noise).to_bytes()
    assert first == generate(7, paths, noise).to_bytes()
    assert first != generate(8, paths, noise).to_bytes()


@pytest.mark.parametrize("name", PATTERNS)
def test_expected_cardinalities_match_brute_force(name):
    spec = generate(3, 12, 5)
    assert spec.expected()[name] == brute_force_count(spec, PATTERNS[name])


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 0.50) == 50.0
    assert stats.percentile(values, 0.95) == 95.0
    assert stats.percentile([4.0], 0.95) == 4.0


def test_sample_count_rule_needs_ten_samples_beyond_the_percentile():
    assert stats.highest_supported_percentile(199) is None
    assert stats.highest_supported_percentile(200) == 0.95
    assert stats.highest_supported_percentile(999) == 0.95
    assert stats.highest_supported_percentile(1000) == 0.99
    assert "p99_ms" not in stats.latency_summary([0.001] * 999)
    assert "p99_ms" in stats.latency_summary([0.001] * 1000)


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert stats.worsening(100.0, 90.0, "lower") == pytest.approx(-0.10)


def test_self_time_is_duration_minus_direct_children():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent, "op_id": 0}

    recorded = [
        span("op", 0.0, 10.0, None),
        span("planner.plan", 1.0, 4.0, 0),
        span("runtime.exec", 4.0, 9.0, 0),
        span("pathindex.scan", 5.0, 7.0, 2),  # grandchild: not charged to "op"
    ]
    assert spans.self_times(recorded) == {
        "op": 2.0, "planner.plan": 3.0, "runtime.exec": 3.0, "pathindex.scan": 2.0,
    }


def test_tracer_nests_spans_and_program_measured_children():
    tracer = spans.Tracer()
    tracer.op_id = 5
    with tracer.span("op"):
        with tracer.span("tx.commit"):
            tracer.child("pathindex.maintain", 0.25)
    op, commit, maintain = tracer.spans
    assert (op["parent"], commit["parent"], maintain["parent"]) == (None, 0, 1)
    assert {s["op_id"] for s in tracer.spans} == {5}
    assert maintain["end"] - maintain["start"] == pytest.approx(0.25)
    assert op["start"] <= commit["start"] <= commit["end"] <= op["end"]


class Flaky(harness.Workload):
    """Every fourth op fails: alternately a raise and a wrong answer."""

    name = "flaky"

    def setup(self):
        pass

    def teardown(self):
        pass

    def op(self, driver, n, tracer):
        if n % 8 == 3:
            raise RuntimeError("refused")
        return "read", n % 8 != 7


def test_failed_ops_stay_in_the_denominator_and_have_no_latency():
    window = harness.run_window(Flaky(1, perfbench.SMOKE, "", False), 0.05)
    assert window.attempted >= 8
    assert window.failed == pytest.approx(window.attempted / 4, abs=2)
    assert len(window.latencies()) == window.attempted - window.failed

    result = harness.run(Flaky, 1, 0.05, False, perfbench.SMOKE)
    assert result["failed"] / result["attempted"] == pytest.approx(0.25, abs=0.05)
    assert result["diagnostics"]["error_share"] == result["failed"] / result["attempted"]
    assert not result["correct"]
    assert any("error_share" in problem for problem in result["problems"])


def test_benchmark_json_matches_the_code():
    contract = harness.load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in contract["workloads"]] == list(workloads())
    assert contract["run_seconds"] == perfbench.FULL.window_s
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = contract["end_to_end"] + contract["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
