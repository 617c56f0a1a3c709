"""Acceptance gate: one test per criterion, each printing one summary line.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion; every criterion passes.  Criteria 02-09 read the rows of the
``pdg verify`` suites (metric at seed 0, ot at seed 1, gallery at grid 33):
each pins its rows' names, params, count and expected text, asserts that they
passed, and holds the measured values to its own bound.
"""

import functools
import math
import time

import numpy as np

from pdg import (
    MetricParams,
    certify_geodesic,
    characterization_audit,
    classify_curve,
    convex_combination,
    distance,
    identity_psi,
    sample_convex_combination,
    sample_gallery,
)
from pdg.inequalities import (
    bcl_slack,
    clarkson_slack,
    convexity_defect_2_slack,
    convexity_defect_p_slack,
    jensen_partition_slack,
)
from pdg.instances import GRID_P, GRID_Q, four_point_pair, random_diagram, random_pair
from pdg.verification import gallery_checks, inequality_checks, metric_checks, ot_checks


def announce(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: PASS{suffix}")


@functools.cache
def suite(name):
    """The named suite's rows at the gate's seed and size, run once, and its wall time."""
    started = time.perf_counter()
    checks = {"metric": lambda: metric_checks(seed=0, trials=200),
              "ot": lambda: ot_checks(seed=1, trials=100),
              "gallery": lambda: gallery_checks(grid=33)}[name]()
    return checks, time.perf_counter() - started


def rows(name, expected):
    """The measured texts of the rows called name, from the suite its prefix
    names; their (params, expected) pairs must be ``expected`` and all must pass."""
    picked = [c for c in suite(name.split(".")[0])[0] if c["name"] == name]
    assert [(c["params"], c["expected"]) for c in picked] == expected
    assert [c for c in picked if not c["pass"]] == []
    return [c["measured"] for c in picked]


def test_criterion_01_four_point_distance_and_speed():
    x, y = four_point_pair()
    params = MetricParams(1.0, 1.0)
    value, _ = distance(x, y, params)
    assert abs(value - 4.0) <= 1e-12
    best = math.inf
    for _ in range(20):
        start = time.perf_counter()
        distance(x, y, params)
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3, f"fastest solve took {best * 1e3:.3f} ms"
    announce(1, "four point distance", f"value {value!r}, best {best * 1e6:.0f} us")


def test_criterion_02_single_point_closed_form():
    expected = [(f"k={k:g},q={q:g}", repr(2.0 ** ((0.0 if q == math.inf else 1.0 / q) - 1.0) * k))
                for k in (1.0, 4.0, 10.0) for q in GRID_Q]
    measured = rows("metric.single_point_bottleneck", expected)
    worst = max(abs(float(m) - float(e)) for m, (_, e) in zip(measured, expected))
    assert worst <= 1e-12
    announce(2, "single point closed form", f"worst gap {worst!r}")


def test_criterion_03_index_twins_zero():
    (worst,) = rows("metric.index_twins_zero", [("full grid", "0.0")])
    assert abs(float(worst)) <= 1e-12
    announce(3, "index twins at distance zero", f"worst {worst}")


def test_criterion_04_solver_oracle_agreement():
    elapsed = suite("metric")[1]
    labels = [(f"p={p:g},q={q:g}", "0.0") for p in GRID_P for q in GRID_Q]
    worst = max(float(m) for m in rows("metric.oracle_agreement", labels))
    assert worst <= 1e-9
    assert elapsed < 60.0
    announce(4, "solver matches exhaustive search", f"worst {worst!r}, {elapsed:.1f}s")


def test_criterion_05_transport_agreement():
    gaps = rows("ot.four_point_agreement", [(f"p={p:g}", "0.0") for p in (1, 2, 3)])
    gaps += rows("ot.random_agreement", [("trials=100", "0.0")])
    worst = max(float(g) for g in gaps)
    assert worst <= 1e-9
    announce(5, "assignment equals coupling optimum", f"worst {worst!r}")


def test_criterion_06_bottleneck_gallery_certifies():
    labels = [f"{name},p=inf,q={q:g}" for name in ("mu_infty", "nu_infty", "omega_infty") for q in GRID_Q]
    labels += ["mu_one,p=1,q=1"] + [f"nu_r_one,r={r:g},p=1,q=1" for r in (0, 0.5, 1)]
    measured = rows("gallery.certify", [(label, "<= 1e-9") for label in labels])
    worst = max(float(m) for m in measured[:9])  # the bottleneck rows
    assert worst <= 1e-9
    announce(6, "bottleneck gallery certifies", f"worst violation {worst!r}")


def test_criterion_07_branch_detection_times():
    step = 1.0 / 32.0
    (split,) = rows("gallery.branch.mu_nu_reversed", [("p=inf,q=2", "1/3 within one step")])
    assert abs(float(split) - 1.0 / 3.0) <= step + 1e-12
    ascents = rows("gallery.branch.nu_r",
                   [(f"r=0 vs r={r:g}", "1/2 within one step") for r in (0.5, 1)])
    assert all(abs(float(a) - 0.5) <= step + 1e-12 for a in ascents)
    announce(7, "branch times located", f"mu/nu split at {split}, near 1/3")


def test_criterion_08_deviant_classification():
    # the suite's row also requires a residual above 1e-3
    kinds = rows("gallery.classify.omega_deviant", [(f"p=inf,q={q:g}", "deviant") for q in GRID_Q])
    assert kinds == ["deviant"] * 3
    # At p = q = 1 the deviant is nu_r_one, not mu_one.  The frames of mu_one
    # are, as multisets, exactly the interpolation along the crossing matching
    # (0, k) -> (2, k), (1, k-1) -> (1, k+1): both trace {(2t, k), (1, k-1+2t)}.
    # That matching is optimal (l1 cost 4), so mu_one is the
    # convex-combination control (gallery.classify.mu_one_cross).  nu_r_one
    # meets at (1, k) at t = 1/2, while either optimal pairing onto the doubled
    # endpoint (2 - r, k + r) puts its two midpoints at l1 distances r and
    # 1 - r from (1, k): the best residual is exactly 1, at t = 1/2.
    bent = classify_curve(sample_gallery("nu_r_one", 33, k=10.0, r=0.5), MetricParams(1.0, 1.0))
    assert bent.kind == "deviant", bent.kind
    assert bent.regime == "counterexample"
    assert bent.witness_time == 0.5
    assert abs(bent.residual - 1.0) <= 1e-9, bent.residual
    announce(8, "deviant classification", f"nu_r_one residual {bent.residual!r} at t = 1/2")


def test_criterion_09_characterized_regime_contrast():
    # each row: the p = q = 2 certificate fails at (0, 1/2), as the closed forms say
    witness = "fails with expected witness"
    verdicts = rows("gallery.contrast_p2", [("omega", witness), ("mu_one", witness)])
    assert verdicts == [witness, witness]
    announce(9, "square regime refutes both curves", "witnesses at (0, 1/2)")


def test_criterion_10_convex_combinations_certify():
    rng = np.random.default_rng(2)
    worst = 0.0
    for p in GRID_P:
        for q in GRID_Q:
            params = MetricParams(p, q)
            for _ in range(100):
                x = random_diagram(rng, int(rng.integers(0, 4)))
                y = random_diagram(rng, int(rng.integers(0, 4)))
                _, witness = distance(x, y, params)
                curve = sample_convex_combination(x, y, witness, 9)
                cert = certify_geodesic(curve, params)
                assert cert.ok, (p, q, cert.witness)
                worst = max(worst, cert.max_violation)
    assert worst <= 1e-9
    announce(10, "convex combinations certify", f"worst violation {worst!r}")


def test_criterion_11_inequality_oracles():
    # the verify suite's own checks: every family at 1000 draws per p, each
    # family's lowest slack bounded by -1e-12, plus the suite's closed forms
    checks = inequality_checks(seed=3, draws=1000)
    assert [c for c in checks if not c["pass"]] == []
    families = {
        "ineq.clarkson": (2.0, 2.5, 3.0, 4.0),
        "ineq.defect_p": (2.0, 2.5, 3.0, 4.0),
        "ineq.bcl": (1.1, 1.5, 2.0),
        "ineq.defect_2": (1.1, 1.5, 2.0),
        "ineq.jensen": (1.5, 2.0, 3.0),
    }
    drawn = [c for c in checks if c["expected"] == ">= -1e-12"]
    for name, ps in families.items():
        labels = [c["params"] for c in drawn if c["name"] == name]
        assert len(labels) == len(ps)
        assert all(f"p={p:g}" in label for p, label in zip(ps, labels))
    low = min(float(c["measured"]) for c in drawn)

    v = np.array([0.5, -0.75, 0.25])
    w = np.array([0.125, 2.0, -1.5])
    equality_worst = max(
        abs(clarkson_slack(v, v, 3.0)),
        abs(clarkson_slack(v, w, 2.0)),
        abs(convexity_defect_p_slack(v, v, 0.5, 3.0, 0.5)),
        abs(bcl_slack(v, np.zeros(3), 1.5)),
        abs(convexity_defect_2_slack(v, w, 0.25, 2.0)),
        abs(jensen_partition_slack([0.25, 0.5], [0.0, 0.25, 0.75], 2.0)),
    )
    assert equality_worst <= 1e-12
    announce(11, "inequality oracles hold", f"lowest slack {low!r}")


def test_criterion_12_audit_identity_realignment():
    rng = np.random.default_rng(4)
    worst_defect = 0.0
    worst_gap = 0.0
    for p, q in ((2.0, 2.0), (3.0, 3.0), (3.0, 2.0)):
        params = MetricParams(p, q)
        for _ in range(50):
            x, y = random_pair(rng, max_total=5)
            _, witness = distance(x, y, params)
            for t in (0.25, 0.5, 0.75):
                mid = convex_combination(x, y, witness, t)
                psi = identity_psi(mid, mid, params)
                report = characterization_audit(x, y, witness, mid, psi, t, params)
                worst_defect = max(worst_defect, report.defect)
                worst_gap = max(worst_gap, abs(report.positive_part - report.bound))
    assert worst_defect <= 1e-12
    assert worst_gap <= 1e-9
    announce(12, "identity realignment is tight",
             f"defect {worst_defect!r}, action gap {worst_gap!r}")
