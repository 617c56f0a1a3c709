import math

import numpy as np
import pytest

from pdg import (
    Coupling,
    Diagram,
    InvalidCouplingError,
    MetricParams,
    OtReport,
    ParameterDomainError,
    SizeGuardError,
    StructuralError,
    ValidationError,
    brute_force_distance,
    build_augmented_problem,
    coupling_from_matching,
    distance,
    random_doubly_stochastic,
    transport_cost,
    verify_ot_equivalence,
)
from pdg.instances import four_point_pair, random_pair


def test_coupling_validation():
    Coupling(np.eye(3))
    with pytest.raises(InvalidCouplingError):
        Coupling(np.ones((2, 3)))
    with pytest.raises(InvalidCouplingError):
        Coupling(np.array([[1.0, 0.0], [0.0, -1.0]]))
    lopsided = np.array([[0.9, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidCouplingError, match="deviate"):
        Coupling(lopsided)
    # a NaN entry fails every comparison, so no bound alone stops it
    with pytest.raises(InvalidCouplingError, match="NaN"):
        Coupling(np.array([[math.nan, 1.0], [1.0, math.nan]]))
    with pytest.raises(InvalidCouplingError):
        Coupling(np.array([[math.inf, 1.0], [1.0, math.inf]]))


def test_coupling_accepts_tiny_marginal_noise():
    noise = np.eye(2)
    noise[0, 0] += 1e-13
    Coupling(noise)


def test_transport_cost_requires_q2_and_finite_p():
    x, y = four_point_pair()
    prob = build_augmented_problem(x, y, MetricParams(2.0, 1.0))
    plan = Coupling(np.eye(prob.n))
    with pytest.raises(ParameterDomainError):
        transport_cost(prob, plan)
    prob = build_augmented_problem(x, y, MetricParams(math.inf, 2.0))
    with pytest.raises(ParameterDomainError, match="finite p only"):
        transport_cost(prob, plan)
    prob = build_augmented_problem(x, y, MetricParams(2.0, 2.0))
    with pytest.raises(StructuralError):
        transport_cost(prob, Coupling(np.eye(prob.n + 1)))


def test_transport_cost_beyond_the_float_range():
    # three diagonal distances of 2^-1/2 * 1e308: their sum is not a float
    x = Diagram.from_pairs([(-1e308, 0.0), (0.0, 1e308), (-5e307, 5e307)])
    prob = build_augmented_problem(x, Diagram(), MetricParams(1.0, 2.0))
    with pytest.raises(ValidationError, match="the distance at p = 1 exceeds the float range"):
        transport_cost(prob, Coupling(np.eye(3)))
    # a plan that moves mass along a pair whose norm overflows costs +inf
    x = Diagram.from_pairs([(-9.5e307, -9.4e307)])
    y = Diagram.from_pairs([(9.5e307, 9.8e307)])
    for p in (1.0, 1.5, 2.0):
        prob = build_augmented_problem(x, y, MetricParams(p, 2.0))
        assert transport_cost(prob, Coupling(np.full((2, 2), 0.5))) == math.inf


def test_permutation_coupling_cost_equals_matching_cost_exactly():
    rng = np.random.default_rng(5)
    for trial in range(30):
        x, y = random_pair(rng, max_total=6)
        p = (1.0, 2.0, 3.0)[trial % 3]
        params = MetricParams(p, 2.0)
        value, witness = distance(x, y, params)
        prob = build_augmented_problem(x, y, params)
        if prob.n == 0:
            continue
        assert transport_cost(prob, coupling_from_matching(witness)) == value


def test_doubly_stochastic_plans_never_beat_the_assignment():
    # Birkhoff: permutation matrices are the extreme points, and the powered
    # cost is affine in the plan, so the polytope minimum sits on a matching
    rng = np.random.default_rng(9)
    for trial in range(30):
        x, y = random_pair(rng, max_total=5)
        p = (1.0, 2.0, 3.0)[trial % 3]
        params = MetricParams(p, 2.0)
        value, _ = distance(x, y, params)
        prob = build_augmented_problem(x, y, params)
        if prob.n == 0:
            continue
        plan = random_doubly_stochastic(rng, prob.n)
        assert transport_cost(prob, plan) >= value - 1e-9


def test_powered_cost_is_affine_in_the_plan():
    rng = np.random.default_rng(13)
    x, y = random_pair(rng, max_total=5)
    while len(x) + len(y) == 0:
        x, y = random_pair(rng, max_total=5)
    prob = build_augmented_problem(x, y, MetricParams(2.0, 2.0))
    a = random_doubly_stochastic(rng, prob.n)
    b = random_doubly_stochastic(rng, prob.n)
    for alpha in (0.0, 0.3, 0.75, 1.0):
        blend = Coupling(alpha * a.matrix + (1.0 - alpha) * b.matrix)
        lhs = transport_cost(prob, blend) ** 2
        rhs = alpha * transport_cost(prob, a) ** 2 + (1.0 - alpha) * transport_cost(prob, b) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_verify_ot_equivalence_four_point():
    x, y = four_point_pair()
    for p in (1.0, 2.0, 3.0):
        report = verify_ot_equivalence(x, y, p)
        assert report.agree
        assert report.assignment_value == pytest.approx(report.coupling_min_value, abs=1e-12)


def test_verify_ot_equivalence_random():
    rng = np.random.default_rng(17)
    for trial in range(20):
        x, y = random_pair(rng, max_total=5)
        p = (1.0, 2.0, 3.0)[trial % 3]
        report = verify_ot_equivalence(x, y, p)
        assert report.agree
        assert report.coupling_min_value == brute_force_distance(x, y, MetricParams(p, 2.0))


def test_verify_ot_equivalence_guard():
    big = Diagram.from_pairs([(float(i), float(i) + 1.0) for i in range(5)])
    with pytest.raises(SizeGuardError, match=r"^verify_ot_equivalence enumerates all 10! slot"):
        verify_ot_equivalence(big, big, 2.0)
    for p in (1.0, 2.0, 3.0):
        assert verify_ot_equivalence(Diagram(), Diagram(), p) == OtReport(0.0, 0.0, True)


def test_uniform_plan_spreads_mass_off_the_optimum():
    twin = Diagram.from_pairs([(0.0, 2.0), (1.0, 4.0)])
    prob = build_augmented_problem(twin, twin, MetricParams(2.0, 2.0))
    uniform = Coupling(np.full((prob.n, prob.n), 1.0 / prob.n))
    assert transport_cost(prob, uniform) > 0.0
    value, _ = distance(twin, twin, MetricParams(2.0, 2.0))
    assert value == 0.0


def test_random_doubly_stochastic_marginals():
    rng = np.random.default_rng(21)
    for n in (1, 2, 5):
        plan = random_doubly_stochastic(rng, n)
        assert plan.matrix.shape == (n, n)
        assert np.max(np.abs(plan.matrix.sum(axis=0) - 1.0)) <= 1e-12
        assert np.max(np.abs(plan.matrix.sum(axis=1) - 1.0)) <= 1e-12
