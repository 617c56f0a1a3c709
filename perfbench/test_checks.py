"""The benchmark's own checks reject wrong results, and self time is computed right.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import pdg  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _solve(seed: int, p: float, q: float, n: int = 6):
    rng = np.random.default_rng(seed)
    xs, ys = workloads.random_points(rng, n), workloads.random_points(rng, n)
    x = pdg.parse_diagram(workloads.diagram_json(xs))
    y = pdg.parse_diagram(workloads.diagram_json(ys))
    params = pdg.MetricParams(p, q)
    value, witness = pdg.distance(x, y, params)
    return xs, ys, value, pdg.matching_cost(x, y, witness, params)


def test_finite_check_rejects_perturbed_values():
    for seed, (p, q) in enumerate(((1.0, 1.0), (1.5, 2.0), (2.0, math.inf))):
        xs, ys, value, repriced = _solve(seed, p, q)
        assert checks.check_finite(xs, ys, p, q, value, repriced) is None
        assert checks.check_finite(xs, ys, p, q, value * (1.0 + 1e-7), repriced) is not None
        # within the tolerance of the optimum, but no longer what the witness costs
        assert checks.check_finite(xs, ys, p, q, math.nextafter(value, math.inf), repriced) is not None


def test_bottleneck_check_rejects_non_entries_and_non_optimal_entries():
    for seed, q in enumerate((1.0, 2.0, math.inf)):
        xs, ys, value, repriced = _solve(seed, math.inf, q)
        assert checks.check_bottleneck(xs, ys, q, value, repriced) is None
        bumped = math.nextafter(value, math.inf)
        assert "not an entry" in checks.check_bottleneck(xs, ys, q, bumped, bumped)
        g = checks.ground_matrix(xs, ys, q)
        larger = float(g[g > value].min())
        assert "perfect matching" in checks.check_bottleneck(xs, ys, q, larger, larger)


def test_verify_check_rejects_failures():
    passing = json.dumps({"failures": 0, "checks": [{"name": "a", "pass": True}]})
    failing = json.dumps({"failures": 1, "checks": [{"name": "a", "pass": False}]})
    assert checks.check_verify_output(0, passing) is None
    assert checks.check_verify_output(1, passing) is not None
    assert checks.check_verify_output(0, failing) is not None


def test_self_time_subtracts_children_and_nested_distance_is_not_a_call():
    # op [0, 100] > distance [10, 90] > distance [20, 80] > build [30, 50]
    spans = [
        ["op", None, 0, 0, 100, 80, None],
        ["matching.distance", 0, 0, 10, 90, 60, None],
        ["matching.distance", 1, 0, 20, 80, 20, None],
        ["matching.build", 2, 0, 30, 50, 0, 16],
    ]
    metrics, _ = tracer.layer_metrics(spans)
    assert metrics["matching.distance.calls"] == 1
    assert metrics["matching.distance_s"] == (20 + 40) / 1e9
    assert metrics["matching.distance.inclusive_s"] == 80 / 1e9
    assert metrics["matching.build_s"] == 20 / 1e9
    assert metrics["matching.build.entries"] == 16


def test_spans_of_calls_that_raised_still_give_metrics():
    def raises(*args):
        raise RuntimeError("boom")

    t = tracer.Tracer()
    certify = t._wrap("geodesics.certify", raises)
    enumerate_ = t._wrap("matching.enumerate", raises)
    for fn in (certify, enumerate_):
        try:
            t.run_op(lambda: fn([1, 2, 3], [4]), "failing")
        except RuntimeError:
            pass
        else:
            raise AssertionError("the wrapped call should have raised")
    metrics, facts = tracer.layer_metrics(t.spans)
    assert metrics["geodesics.certify.calls"] == 1
    assert metrics["matching.enumerate.calls"] == 1
    assert facts["certify_distance_calls_expected"] == 3 * 2 // 2 + 1
    assert facts["enumerate_scanned"] == 0


def test_a_repetition_that_differs_from_the_first_counts_as_failed():
    results = iter([-1.0, 1.0, 1.0, 2.0, 1.0])

    def check(result):
        return "negative" if result < 0 else None

    op = workloads.Op("fake", lambda: next(results), check, lambda result: result)
    measured = run.measure([op], 0.0, rounds=5)
    assert (measured.attempted, measured.failed) == (5, 2)
    assert "negative" in measured.reasons[0] and "differs" in measured.reasons[1]
    assert measured.best[0] < math.inf


def test_the_tail_has_ten_best_latencies_beyond_it():
    measured = run.Run(best=[float(k) for k in range(1, 41)], attempted=40)
    tail, pct, beyond = run.tail_latency(measured)
    assert (tail, pct, beyond) == (30.0, 75.0, 10)
    assert run.summarize(measured)["latency_p50_ms"] == 20.5e3
    # an operation with no correct repetition is left out, not an infinite tail
    measured.best[-1] = math.inf
    assert run.tail_latency(measured) == (29.0, 100.0 * 29 / 39, 10)
