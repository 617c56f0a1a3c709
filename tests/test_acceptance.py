"""Acceptance gate: one test per criterion, each printing one summary line.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion; every criterion passes.  The p = q = 1 half of criterion 8 uses
``nu_r_one`` as its deviant example, not ``mu_one``: the frames of ``mu_one``
coincide, as multisets, with the interpolation along the optimal crossing
matching, so it classifies as a convex combination.
"""

import math
import time

import numpy as np

from pdg import (
    Diagram,
    MetricParams,
    brute_force_distance,
    certify_geodesic,
    characterization_audit,
    classify_curve,
    convex_combination,
    detect_branching,
    distance,
    identity_psi,
    sample_convex_combination,
    sample_gallery,
    verify_ot_equivalence,
)
from pdg.inequalities import (
    bcl_slack,
    clarkson_slack,
    convexity_defect_2_slack,
    convexity_defect_p_slack,
    jensen_partition_slack,
)
from pdg.instances import (
    GRID_P,
    GRID_Q,
    four_point_pair,
    index_twins,
    random_diagram,
    random_pair,
    single_tall_point,
)
from pdg.verification import inequality_checks


def announce(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: PASS{suffix}")


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
    worst = 0.0
    for k in (1.0, 4.0, 10.0):
        x = single_tall_point(k)
        for q in GRID_Q:
            expected = 2.0 ** ((0.0 if q == math.inf else 1.0 / q) - 1.0) * k
            value, _ = distance(x, Diagram(), MetricParams(math.inf, q))
            worst = max(worst, abs(value - expected))
    assert worst <= 1e-12
    announce(2, "single point closed form", f"worst gap {worst!r}")


def test_criterion_03_index_twins_zero():
    a, b = index_twins()
    worst = 0.0
    for p in GRID_P:
        for q in GRID_Q:
            value, _ = distance(a, b, MetricParams(p, q))
            worst = max(worst, abs(value))
    assert worst <= 1e-12
    announce(3, "index twins at distance zero", f"worst {worst!r}")


def test_criterion_04_solver_oracle_agreement():
    rng = np.random.default_rng(0)
    started = time.perf_counter()
    worst = 0.0
    for p in GRID_P:
        for q in GRID_Q:
            params = MetricParams(p, q)
            for _ in range(200):
                x, y = random_pair(rng, max_total=6)
                value, _ = distance(x, y, params)
                worst = max(worst, abs(value - brute_force_distance(x, y, params)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 60.0
    announce(4, "solver matches exhaustive search", f"worst {worst!r}, {elapsed:.1f}s")


def test_criterion_05_transport_agreement():
    x, y = four_point_pair()
    worst = 0.0
    for p in (1.0, 2.0, 3.0):
        report = verify_ot_equivalence(x, y, p)
        assert report.agree
        worst = max(worst, abs(report.assignment_value - report.coupling_min_value))
    rng = np.random.default_rng(1)
    for trial in range(100):
        a, b = random_pair(rng, max_total=5)
        report = verify_ot_equivalence(a, b, (1.0, 2.0, 3.0)[trial % 3])
        assert report.agree
        worst = max(worst, abs(report.assignment_value - report.coupling_min_value))
    assert worst <= 1e-9
    announce(5, "assignment equals coupling optimum", f"worst {worst!r}")


def test_criterion_06_bottleneck_gallery_certifies():
    worst = 0.0
    for name, kwargs in (
        ("mu_infty", {"k": 10.0, "j": 3.0}),
        ("nu_infty", {"k": 10.0, "l": 1.0}),
        ("omega_infty", {"k": 10.0, "j": 3.0}),
    ):
        curve = sample_gallery(name, 33, **kwargs)
        for q in GRID_Q:
            cert = certify_geodesic(curve, MetricParams(math.inf, q))
            assert cert.ok, (name, q, cert.witness)
            worst = max(worst, cert.max_violation)
    assert worst <= 1e-9
    announce(6, "bottleneck gallery certifies", f"worst violation {worst!r}")


def test_criterion_07_branch_detection_times():
    step = 1.0 / 32.0
    mu = sample_gallery("mu_infty", 33, k=10.0, j=3.0).reversed()
    nu = sample_gallery("nu_infty", 33, k=10.0, l=1.0).reversed()
    split = detect_branching(mu, nu, MetricParams(math.inf, 2.0))
    assert split is not None
    assert abs((1.0 - split) - 1.0 / 3.0) <= step + 1e-12
    base = sample_gallery("nu_r_one", 33, k=10.0, r=0.0)
    one = MetricParams(1.0, 1.0)
    for r in (0.5, 1.0):
        other = sample_gallery("nu_r_one", 33, k=10.0, r=r)
        ascent_split = detect_branching(base, other, one)
        assert ascent_split is not None
        assert abs(ascent_split - 0.5) <= step + 1e-12
    announce(7, "branch times located", f"reversed split at {split!r}")


def test_criterion_08_deviant_classification():
    for q in GRID_Q:
        outcome = classify_curve(
            sample_gallery("omega_infty", 33, k=10.0, j=3.0), MetricParams(math.inf, q))
        assert outcome.kind == "deviant", (q, outcome.kind)
        assert outcome.residual > 1e-3
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
    two = MetricParams(2.0, 2.0)
    cases = (
        ("omega_infty", {"k": 10.0, "j": 3.0}, math.sqrt(17.0), 10.0 / (2.0 * math.sqrt(2.0))),
        ("mu_one", {"k": 10.0}, math.sqrt(2.0), 1.0),
    )
    for name, kwargs, want_measured, want_expected in cases:
        curve = sample_gallery(name, 33, **kwargs)
        cert = certify_geodesic(curve, two)
        assert not cert.ok, name
        s, t, measured, expected = cert.witness
        assert (s, t) == (0.0, 0.5), (name, s, t)
        assert abs(measured - want_measured) <= 1e-6
        assert abs(expected - want_expected) <= 1e-6
        confirmed = brute_force_distance(curve.frames[0], curve.frames[16], two)
        assert abs(measured - confirmed) <= 1e-9
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
    assert [c for c in checks if not c.passed] == []
    families = {
        "ineq.clarkson": (2.0, 2.5, 3.0, 4.0),
        "ineq.defect_p": (2.0, 2.5, 3.0, 4.0),
        "ineq.bcl": (1.1, 1.5, 2.0),
        "ineq.defect_2": (1.1, 1.5, 2.0),
        "ineq.jensen": (1.5, 2.0, 3.0),
    }
    drawn = [c for c in checks if c.expected == ">= -1e-12"]
    for name, ps in families.items():
        labels = [c.params for c in drawn if c.name == name]
        assert len(labels) == len(ps)
        assert all(f"p={p:g}" in label for p, label in zip(ps, labels))
    low = min(float(c.measured) for c in drawn)

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
