import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdg import ParameterDomainError, StructuralError
from pdg.inequalities import (
    bcl_slack,
    clarkson_slack,
    convexity_defect_2_slack,
    convexity_defect_p_slack,
    jensen_partition_slack,
    largest_empirical_defect_constant,
)
from pdg.verification import _grid_vector


def test_domain_errors():
    v = np.array([1.0, 2.0])
    with pytest.raises(ParameterDomainError):
        clarkson_slack(v, v, 1.5)
    with pytest.raises(ParameterDomainError):
        clarkson_slack(v, v, math.inf)
    with pytest.raises(ParameterDomainError):
        bcl_slack(v, v, 2.5)
    with pytest.raises(ParameterDomainError):
        bcl_slack(v, v, 1.0)
    with pytest.raises(ParameterDomainError):
        convexity_defect_2_slack(v, v, 0.5, 3.0)
    with pytest.raises(ParameterDomainError):
        convexity_defect_p_slack(v, v, 0.0, 2.0, 1.0)
    with pytest.raises(ParameterDomainError):
        convexity_defect_p_slack(v, v, 1.0, 2.0, 1.0)
    with pytest.raises(ParameterDomainError):
        jensen_partition_slack([1.0], [0.0, 1.0], 1.0)
    with pytest.raises(StructuralError):
        clarkson_slack(np.array([1.0]), np.array([1.0, 2.0]), 2.0)
    with pytest.raises(StructuralError, match="v must be a nonempty 1-d vector"):
        clarkson_slack([], [], 2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(StructuralError, match="w holds non-finite entries"):
            clarkson_slack(v, [1.0, bad], 2.0)


def test_jensen_partition_shape_errors():
    with pytest.raises(StructuralError):
        jensen_partition_slack([1.0, 2.0], [0.0, 1.0], 2.0)
    with pytest.raises(ValueError):
        jensen_partition_slack([1.0], [1.0, 0.5], 2.0)
    with pytest.raises(ValueError):
        jensen_partition_slack([-1.0], [0.0, 1.0], 2.0)


def test_clarkson_equality_cases():
    v = np.array([0.5, -0.75, 0.25])
    # equal arguments collapse the inequality to an identity
    for p in (2.0, 3.0, 4.0):
        assert abs(clarkson_slack(v, v, p)) <= 1e-12
    # and p = 2 is the parallelogram law, an identity for every pair
    w = np.array([0.125, 2.0, -1.5])
    assert clarkson_slack(v, w, 2.0) == 0.0


def test_defect_p_base_constant_is_half_clarkson():
    # at t = 1/2 the defect bound with C = 2^(2-p) is Clarkson's inequality
    # applied to the halved vectors, so the slacks must agree
    rng = np.random.default_rng(2)
    for p in (2.0, 2.5, 3.0, 4.0):
        constant = 2.0 ** (2.0 - p)
        for _ in range(50):
            v = _grid_vector(rng, 6)
            w = _grid_vector(rng, 6)
            lhs = convexity_defect_p_slack(v, w, 0.5, p, constant)
            rhs = clarkson_slack(v / 2.0, w / 2.0, p)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_defect_p_p2_slack_closed_form():
    # the p = 2 case is an identity: the slack equals (1-C) t(1-t) |v-w|^2,
    # which is why any constant above 1 must eventually go negative
    rng = np.random.default_rng(4)
    for constant in (0.5, 1.0, 2.0):
        for _ in range(50):
            v = _grid_vector(rng, 5)
            w = _grid_vector(rng, 5)
            slack = convexity_defect_p_slack(v, w, 0.5, 2.0, constant)
            gap = float(np.sum((v - w) ** 2))
            assert abs(slack - (1.0 - constant) * 0.25 * gap) <= 1e-12


def test_defect_p_constant_two_fails_at_p2():
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    assert convexity_defect_p_slack(v, w, 0.5, 2.0, 2.0) < -1e-3


def test_bcl_equality_cases():
    v = np.array([1.5, -0.5])
    assert bcl_slack(v, np.zeros(2), 1.5) == 0.0
    # p = 2 reduces to the parallelogram law again
    w = np.array([0.25, 0.75])
    assert abs(bcl_slack(v, w, 2.0)) <= 1e-12


def test_defect_2_sharp_constant_identity_at_p2():
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = _grid_vector(rng, 4)
        w = _grid_vector(rng, 4)
        assert abs(convexity_defect_2_slack(v, w, 0.25, 2.0)) <= 1e-12


def test_jensen_equality_when_amounts_match_gaps():
    gaps = np.array([0.25, 0.25, 0.5])
    times = np.concatenate(([0.0], np.cumsum(gaps)))
    for p in (1.5, 2.0, 3.0):
        assert abs(jensen_partition_slack(gaps, times, p)) <= 1e-12


def test_jensen_single_interval_is_tight():
    for p in (1.5, 2.0, 3.0):
        assert abs(jensen_partition_slack([2.0], [0.0, 0.5], p)) <= 1e-12


grid_dim = st.integers(min_value=1, max_value=6)
box = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(st.data(), grid_dim, st.sampled_from([2.0, 2.5, 3.0, 4.0]))
def test_clarkson_nonnegative_property(data, dim, p):
    v = np.array(data.draw(st.lists(box, min_size=dim, max_size=dim)))
    w = np.array(data.draw(st.lists(box, min_size=dim, max_size=dim)))
    assert clarkson_slack(v, w, p) >= -1e-9


@settings(max_examples=80, deadline=None)
@given(st.data(), grid_dim, st.sampled_from([1.1, 1.5, 2.0]))
def test_bcl_nonnegative_property(data, dim, p):
    v = np.array(data.draw(st.lists(box, min_size=dim, max_size=dim)))
    w = np.array(data.draw(st.lists(box, min_size=dim, max_size=dim)))
    assert bcl_slack(v, w, p) >= -1e-9


@settings(max_examples=80, deadline=None)
@given(st.data(), grid_dim,
       st.sampled_from([1.1, 1.5, 2.0]),
       st.sampled_from([0.125, 0.25, 0.5, 0.75, 0.875]))
def test_defect_2_nonnegative_property(data, dim, p, t):
    v = np.array(data.draw(st.lists(box, min_size=dim, max_size=dim)))
    w = np.array(data.draw(st.lists(box, min_size=dim, max_size=dim)))
    assert convexity_defect_2_slack(v, w, t, p) >= -1e-9


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=6), st.sampled_from([1.5, 2.0, 3.0]))
def test_jensen_nonnegative_property(data, count, p):
    gaps = np.array(data.draw(st.lists(
        st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
        min_size=count, max_size=count)))
    amounts = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        min_size=count, max_size=count)))
    times = np.concatenate(([0.0], np.cumsum(gaps)))
    assert jensen_partition_slack(amounts, times, p) >= -1e-9


def test_empirical_defect_constant_reports_p2_sharpness():
    rng = np.random.default_rng(8)
    constant = largest_empirical_defect_constant(0.25, 2.0, rng)
    # the p = 2 ratio is identically one
    assert constant == pytest.approx(1.0, abs=1e-9)
    constant = largest_empirical_defect_constant(0.25, 3.0, rng)
    assert constant > 0.0
