"""Deterministic verification suites behind the command-line ``verify``.

Each suite returns a list of rows, each the dict ``pdg verify`` prints for
one check.  All randomness flows from one seeded generator per suite, which
makes reruns byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

from . import inequalities as ineq
from .diagram import DEFAULT_TOL, Diagram, MetricParams, Point, _diagonal_factor, _within
from .errors import ParameterDomainError
from .geodesics import (
    DEFAULT_GRID,
    certify_geodesic,
    classify_curve,
    detect_branching,
    sample_convex_combination,
    sample_gallery,
    uniform_grid,
)
from .instances import (
    GRID_P,
    GRID_Q,
    four_point_pair,
    index_twins,
    random_pair,
    single_tall_point,
)
from .matching import brute_force_distance, build_augmented_problem, distance, matching_cost
from .ot import (
    Coupling,
    coupling_from_matching,
    random_doubly_stochastic,
    transport_cost,
    verify_ot_equivalence,
)

SUITES = ("metric", "ot", "inequalities", "gallery", "all")


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _check(name: str, params: str, measured, expected, passed: bool) -> dict:
    """One verify row, in the form and key order pdg verify prints it."""
    return {"name": name, "params": params, "measured": _fmt(measured),
            "expected": _fmt(expected), "pass": bool(passed)}


def _pq_label(p: float, q: float) -> str:
    return f"p={p:g},q={q:g}"


# ---------------------------------------------------------------------------
# metric suite


def metric_checks(seed: int = 0, trials: int = 50) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    x, y = four_point_pair()
    value, _ = distance(x, y, MetricParams(1.0, 1.0))
    checks.append(_check("metric.four_point", "p=1,q=1", value, 4.0, abs(value - 4.0) <= 1e-12))

    for k in (1.0, 4.0, 10.0):
        for q in GRID_Q:
            value, _ = distance(single_tall_point(k), Diagram(), MetricParams(math.inf, q))
            expected = _diagonal_factor(q) * k
            checks.append(_check(
                "metric.single_point_bottleneck", f"k={k:g},q={q:g}",
                value, expected, abs(value - expected) <= 1e-12,
            ))

    worst = 0.0
    for p in GRID_P:
        for q in GRID_Q:
            value, _ = distance(*index_twins(), MetricParams(p, q))
            worst = max(worst, abs(value))
    checks.append(_check("metric.index_twins_zero", "full grid", worst, 0.0, worst <= 1e-12))

    for p in GRID_P:
        for q in GRID_Q:
            params = MetricParams(p, q)
            pairs = [random_pair(rng, max_total=6) for _ in range(trials)]
            compared = [(distance(a, b, params)[0], brute_force_distance(a, b, params)) for a, b in pairs]
            gap = max(abs(value - exact) for value, exact in compared)
            agree = all(_within(abs(value - exact), value, DEFAULT_TOL) for value, exact in compared)
            checks.append(_check("metric.oracle_agreement", _pq_label(p, q), gap, 0.0, agree))

    axiom_grid = [(1.0, 1.0), (1.5, 2.0), (2.0, 2.0), (3.0, 1.0), (math.inf, 2.0), (math.inf, math.inf)]
    sym_gap = 0.0
    self_gap = 0.0
    tri_gap = -math.inf
    blind_gap = 0.0
    witness_gap = 0.0
    for p, q in axiom_grid:
        params = MetricParams(p, q)
        for _ in range(max(4, trials // 8)):
            a, b = random_pair(rng, max_total=6)
            c, _ = random_pair(rng, max_total=3)
            dab, wab = distance(a, b, params)
            dba, _ = distance(b, a, params)
            sym_gap = max(sym_gap, abs(dab - dba))
            daa, _ = distance(a, a, params)
            self_gap = max(self_gap, abs(daa))
            dac, _ = distance(a, c, params)
            dcb, _ = distance(c, b, params)
            tri_gap = max(tri_gap, dab - (dac + dcb))
            # b's coordinates, validated, under a permutation of distinct indices
            shuffled = Diagram._trusted(b.geometry(), tuple((rng.permutation(len(b)) + 7).tolist()))
            dshuf, _ = distance(a, shuffled, params)
            blind_gap = max(blind_gap, abs(dab - dshuf))
            witness_gap = max(witness_gap, abs(matching_cost(a, b, wab, params) - dab))
    checks.append(_check("metric.symmetry_exact", "axiom grid", sym_gap, 0.0, sym_gap == 0.0))
    checks.append(_check("metric.self_distance_zero", "axiom grid", self_gap, 0.0, self_gap == 0.0))
    checks.append(_check("metric.triangle_slack", "axiom grid", tri_gap, "<= 1e-9", tri_gap <= 1e-9))
    checks.append(_check("metric.index_blindness", "axiom grid", blind_gap, 0.0, blind_gap == 0.0))
    checks.append(_check("metric.witness_cost_exact", "axiom grid", witness_gap, 0.0, witness_gap == 0.0))

    homo_gap = 0.0
    shift_gap = 0.0
    for _ in range(max(4, trials // 4)):
        a, b = random_pair(rng, max_total=6)
        params = MetricParams(2.0, 2.0)
        base, _ = distance(a, b, params)
        c = float(rng.uniform(0.2, 3.0))
        scaled, _ = distance(a.scaled(c), b.scaled(c), params)
        homo_gap = max(homo_gap, abs(scaled - c * base) / (1.0 + c * base))
        offset = float(rng.uniform(-4.0, 4.0))
        shifted, _ = distance(a.shifted(offset), b.shifted(offset), params)
        shift_gap = max(shift_gap, abs(shifted - base))
    checks.append(_check("metric.homogeneity", "p=2,q=2", homo_gap, "<= 1e-12 rel", homo_gap <= 1e-12))
    checks.append(_check("metric.diagonal_shift_invariance", "p=2,q=2", shift_gap, "<= 1e-9", shift_gap <= 1e-9))

    p_mono = -math.inf
    q_mono = -math.inf
    grid = [[MetricParams(p, q) for q in GRID_Q] for p in GRID_P]
    for _ in range(max(4, trials // 4)):
        a, b = random_pair(rng, max_total=6)
        table = [[distance(a, b, params)[0] for params in row] for row in grid]
        for finite in table[:-1]:  # GRID_P ends in inf
            p_mono = max(p_mono, *(bot - fin for bot, fin in zip(table[-1], finite)))
        for values in table:
            q_mono = max(q_mono, *(hi - lo for lo, hi in zip(values, values[1:])))
    checks.append(_check("metric.p_monotonicity", "bottleneck <= finite", p_mono, "<= 1e-12", p_mono <= 1e-12))
    checks.append(_check("metric.q_monotonicity", "decreasing in q", q_mono, "<= 1e-12", q_mono <= 1e-12))

    return checks


# ---------------------------------------------------------------------------
# transport suite


def ot_checks(seed: int, trials: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    x, y = four_point_pair()
    for p in (1.0, 2.0, 3.0):
        report = verify_ot_equivalence(x, y, p)
        gap = abs(report.assignment_value - report.coupling_min_value)
        checks.append(_check("ot.four_point_agreement", f"p={p:g}", gap, 0.0, report.agree))

    gap = 0.0
    for trial in range(trials):
        a, b = random_pair(rng, max_total=5)
        p = (1.0, 2.0, 3.0)[trial % 3]
        report = verify_ot_equivalence(a, b, p)
        gap = max(gap, abs(report.assignment_value - report.coupling_min_value))
    checks.append(_check("ot.random_agreement", f"trials={trials}", gap, 0.0, gap <= 1e-9))

    perm_gap = 0.0
    birkhoff = math.inf
    affine_gap = 0.0
    for trial in range(trials):
        a, b = random_pair(rng, max_total=5)
        p = (1.0, 2.0, 3.0)[trial % 3]
        params = MetricParams(p, 2.0)
        value, witness = distance(a, b, params)
        prob = build_augmented_problem(a, b, params)
        if prob.n == 0:
            continue
        perm_cost = transport_cost(prob, coupling_from_matching(witness))
        perm_gap = max(perm_gap, abs(perm_cost - value))
        plan = random_doubly_stochastic(rng, prob.n)
        birkhoff = min(birkhoff, transport_cost(prob, plan) - value)
        other = random_doubly_stochastic(rng, prob.n)
        alpha = float(rng.uniform(0.0, 1.0))
        blend = Coupling(alpha * plan.matrix + (1.0 - alpha) * other.matrix)
        lhs = transport_cost(prob, blend) ** p
        rhs = alpha * transport_cost(prob, plan) ** p + (1.0 - alpha) * transport_cost(prob, other) ** p
        affine_gap = max(affine_gap, abs(lhs - rhs) / (1.0 + abs(rhs)))
    checks.append(_check("ot.permutation_cost_exact", "random witnesses", perm_gap, 0.0, perm_gap == 0.0))
    checks.append(_check("ot.birkhoff_lower_bound", "random plans", birkhoff, ">= -1e-9", birkhoff >= -1e-9))
    checks.append(_check("ot.powered_cost_affine", "random blends", affine_gap, "<= 1e-9 rel", affine_gap <= 1e-9))

    twin = Diagram((Point(0.0, 2.0, 0), Point(1.0, 4.0, 1)))
    prob = build_augmented_problem(twin, twin, MetricParams(2.0, 2.0))
    uniform = Coupling(np.full((prob.n, prob.n), 1.0 / prob.n))
    spread = transport_cost(prob, uniform)
    checks.append(_check("ot.uniform_plan_positive", "identical diagrams", spread, "> 0", spread > 0.0))

    return checks


# ---------------------------------------------------------------------------
# inequality suite


_GRID_SCALE = 10240
_GRID_UNIT = 1024.0


def _grid_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    # Entries are random dyadics in [-10, 10]; exact squares keep the p = 2
    # identities at exactly zero.
    return rng.integers(-_GRID_SCALE, _GRID_SCALE + 1, size=dim).astype(float) / _GRID_UNIT


def _random_dim(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 17))


def _grid_vectors(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    # one draw of 2 * dim reads the same stream as two draws of dim: PCG64
    # keeps the unused half of a 64-bit word for the next 32-bit draw
    both = _grid_vector(rng, 2 * dim)
    return both[:dim], both[dim:]


def _grid_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return _grid_vectors(rng, _random_dim(rng))


def _lowest(checks: list[dict], name: str, label: str, ps, draws: int, slack) -> None:
    """Append one row per p in ps: the lowest of draws samples of slack(p),
    which passes at >= -1e-12."""
    for p in ps:
        # a fold from inf: min() over a generator would answer differently when
        # a slack is NaN
        low = math.inf
        for _ in range(draws):
            low = min(low, slack(p))
        checks.append(_check(name, label.format(p=p), low, ">= -1e-12", low >= -1e-12))


def inequality_checks(seed: int = 0, draws: int = 1000) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks: list[dict] = []
    dyadic_ts = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)

    def dyadic_t() -> float:
        return dyadic_ts[int(rng.integers(0, len(dyadic_ts)))]

    def defect_2(p: float) -> float:
        dim = _random_dim(rng)
        t = dyadic_t()
        return ineq.convexity_defect_2_slack(*_grid_vectors(rng, dim), t, p)

    def jensen(p: float) -> float:
        count = int(rng.integers(1, 9))
        gaps = rng.integers(1, 1025, size=count).astype(float) / 1024.0
        amounts = rng.integers(0, 4097, size=count).astype(float) / 1024.0
        return ineq.jensen_partition_slack(amounts, np.concatenate(([0.0], np.cumsum(gaps))), p)

    _lowest(checks, "ineq.clarkson", "p={p:g}", (2.0, 2.5, 3.0, 4.0), draws,
            lambda p: ineq.clarkson_slack(*_grid_pair(rng), p))

    v = np.array([0.5, -0.75, 0.25])
    eq = ineq.clarkson_slack(v, v, 3.0)
    checks.append(_check("ineq.clarkson.equal_vectors", "p=3", eq, 0.0, abs(eq) <= 1e-12))

    _lowest(checks, "ineq.defect_p", "t=0.5,p={p:g},C=2^(2-p)", (2.0, 2.5, 3.0, 4.0), draws,
            lambda p: ineq.convexity_defect_p_slack(*_grid_pair(rng), 0.5, p, 2.0 ** (2.0 - p)))

    identity_gap = 0.0
    for constant in (0.5, 1.0, 2.0):
        for _ in range(64):
            a, b = _grid_pair(rng)
            slack = ineq.convexity_defect_p_slack(a, b, 0.5, 2.0, constant)
            # at p = 2 the defect slack collapses to (1 - C) t(1-t) |v - w|^2
            closed_form = (1.0 - constant) * 0.25 * float(np.sum((a - b) ** 2))
            identity_gap = max(identity_gap, abs(slack - closed_form))
    checks.append(_check(
        "ineq.defect_p.p2_identity", "C in {0.5,1,2}", identity_gap, 0.0, identity_gap <= 1e-12))

    _lowest(checks, "ineq.bcl", "p={p:g}", (1.1, 1.5, 2.0), draws,
            lambda p: ineq.bcl_slack(*_grid_pair(rng), p))

    zero = ineq.bcl_slack(v, np.zeros_like(v), 1.5)
    checks.append(_check("ineq.bcl.zero_w", "p=1.5", zero, 0.0, abs(zero) <= 1e-12))

    _lowest(checks, "ineq.defect_2", "p={p:g},dyadic t", (1.1, 1.5, 2.0), draws, defect_2)

    p2_gap = 0.0
    for _ in range(64):
        a, b = _grid_pair(rng)
        p2_gap = max(p2_gap, abs(ineq.convexity_defect_2_slack(a, b, dyadic_t(), 2.0)))
    checks.append(_check("ineq.defect_2.p2_exact", "p=2", p2_gap, 0.0, p2_gap <= 1e-12))

    _lowest(checks, "ineq.jensen", "p={p:g}", (1.5, 2.0, 3.0), draws, jensen)

    gaps = np.array([0.25, 0.25, 0.5])
    times = np.concatenate(([0.0], np.cumsum(gaps)))
    for p in (1.5, 2.0, 3.0):
        eq = ineq.jensen_partition_slack(gaps, times, p)
        checks.append(_check(
            "ineq.jensen.proportional", f"p={p:g}", eq, 0.0, abs(eq) <= 1e-12))

    for t, p in ((0.25, 2.0), (0.25, 3.0), (0.75, 2.5)):
        constant = ineq.largest_empirical_defect_constant(t, p, rng)
        checks.append(_check(
            "ineq.defect_p.empirical_constant", f"t={t:g},p={p:g}",
            constant, f"report only (base case 2^(2-p) = {2.0 ** (2.0 - p):g})", True))

    return checks


# ---------------------------------------------------------------------------
# gallery suite


def gallery_checks(grid: int = DEFAULT_GRID, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks: list[dict] = []
    step = 1.0 / (grid - 1)

    one = MetricParams(1.0, 1.0)
    curves = {
        "mu_infty": sample_gallery("mu_infty", grid, k=10.0, j=3.0),
        "nu_infty": sample_gallery("nu_infty", grid, k=10.0, l=1.0),
        "omega_infty": sample_gallery("omega_infty", grid, k=10.0, j=3.0),
    }
    mu1 = sample_gallery("mu_one", grid, k=10.0)
    nu_r = {r: sample_gallery("nu_r_one", grid, k=10.0, r=r) for r in (0.0, 0.5, 1.0)}
    # a certify row reports the exact scan's largest violation, which
    # classify's squeeze certificate only bounds
    certified = [(f"{name},p=inf,q={q:g}", certify_geodesic(curve, MetricParams(math.inf, q)))
                 for name, curve in curves.items() for q in GRID_Q]
    certified.append(("mu_one,p=1,q=1", certify_geodesic(mu1, one)))
    certified += [(f"nu_r_one,r={r:g},p=1,q=1", certify_geodesic(curve, one)) for r, curve in nu_r.items()]
    for label, cert in certified:
        checks.append(_check(
            "gallery.certify", label,
            cert.max_violation, "<= 1e-9", cert.ok and cert.max_violation <= 1e-9))

    # the reversed pair's split is read back on the forward clock, as 1 - split
    for name, label, first, second, params, reverse, target, expected in (
        ("mu_nu_reversed", "p=inf,q=2", curves["mu_infty"].reversed(), curves["nu_infty"].reversed(),
         MetricParams(math.inf, 2.0), True, 1.0 / 3.0, "1/3"),
        ("nu_r", "r=0 vs r=0.5", nu_r[0.0], nu_r[0.5], one, False, 0.5, "1/2"),
        ("nu_r", "r=0 vs r=1", nu_r[0.0], nu_r[1.0], one, False, 0.5, "1/2"),
        ("nu_r_shared_ascent", "r=0.5 vs r=1", nu_r[0.5], nu_r[1.0], one, False, 0.75, "3/4"),
    ):
        split = detect_branching(first, second, params)
        if split is not None and reverse:
            split = 1.0 - split
        ok = split is not None and abs(split - target) <= step + 1e-12
        checks.append(_check(
            f"gallery.branch.{name}", label,
            "none" if split is None else split, f"{expected} within one step", ok))

    omega = {q: classify_curve(curves["omega_infty"], MetricParams(math.inf, q)) for q in GRID_Q}
    for q, outcome in omega.items():
        checks.append(_check(
            "gallery.classify.omega_deviant", f"p=inf,q={q:g}",
            outcome.kind, "deviant", outcome.kind == "deviant" and outcome.residual > 1e-3))

    mu1_outcome = classify_curve(mu1, one)
    action = None
    if mu1_outcome.matching is not None:
        action = tuple(j if j < 2 else -1 for j in mu1_outcome.matching.assignment[:2])
    checks.append(_check(
        "gallery.classify.mu_one_cross", "p=1,q=1",
        f"{mu1_outcome.kind},action={action}", "convex-combination,action=(1, 0)",
        mu1_outcome.kind == "convex-combination" and action == (1, 0)))

    for name, curve, expected_measured, expected_value in (
        ("omega", curves["omega_infty"], math.sqrt(17.0), 10.0 / (2.0 * math.sqrt(2.0))),
        ("mu_one", mu1, math.sqrt(2.0), 1.0),
    ):
        cert = certify_geodesic(curve, MetricParams(2.0, 2.0))
        witness_ok = False
        if not cert.ok and cert.witness is not None:
            s, t, measured_value, expected_speed = cert.witness
            half = curve.frames[curve.times.index(0.5)]
            confirmed = brute_force_distance(curve.frames[0], half, MetricParams(2.0, 2.0))
            witness_ok = (
                (s, t) == (0.0, 0.5)
                and abs(measured_value - expected_measured) <= 1e-6
                and abs(expected_speed - expected_value) <= 1e-6
                and abs(measured_value - confirmed) <= 1e-9
            )
        checks.append(_check(
            "gallery.contrast_p2", name,
            "fails with expected witness" if witness_ok else "unexpected certificate",
            "fails with expected witness", witness_ok))

    a, b = random_pair(rng, max_total=5)
    _, witness = distance(a, b, MetricParams(2.0, 2.0))
    curve = sample_convex_combination(a, b, witness, 17)
    outcome = classify_curve(curve, MetricParams(2.0, 2.0))
    checks.append(_check(
        "gallery.classify.convex_roundtrip", "p=2,q=2,random",
        outcome.kind, "convex-combination", outcome.kind == "convex-combination"))

    return checks


def run_suite(name: str, seed: int = 0, *, trials: int = 50, draws: int = 1000,
              grid: int = DEFAULT_GRID) -> list[dict]:
    # numpy refuses a negative seed without naming it; no trials or draws pass vacuously
    for flag, value, least in (("seed", seed, 0), ("trials", trials, 1), ("draws", draws, 1)):
        if value < least:
            raise ParameterDomainError(f"{flag} must be at least {least}, got {value}")
    if name in ("gallery", "all"):
        # the gallery's p = 2 contrast reads the frame at t = 1/2
        if grid < 3 or grid % 2 == 0:
            raise ParameterDomainError(f"--grid must be odd and at least 3, got {grid}")
        uniform_grid(grid)  # refuses a grid above its bound before "all" runs its other suites
    # each lambda reads its suite's module attribute when called, so a wrapper
    # patched over that attribute (perfbench's tracer) sees the call
    suites = {
        "metric": lambda: metric_checks(seed, trials=trials),
        "ot": lambda: ot_checks(seed, trials=max(12, trials)),
        "inequalities": lambda: inequality_checks(seed, draws=draws),
        "gallery": lambda: gallery_checks(grid=grid, seed=seed),
    }
    if name == "all":
        return [check for suite in suites.values() for check in suite()]
    if name in suites:
        return suites[name]()
    raise ValueError(f"unknown suite {name!r}; valid suites: {', '.join(SUITES)}")
