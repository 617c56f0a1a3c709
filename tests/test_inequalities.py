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
from pdg.verification import _grid_pair, _grid_vector, _grid_vectors, _random_dim


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
    for p in (1.5, math.inf):
        with pytest.raises(ParameterDomainError, match="p must lie in \\[2, inf\\)"):
            convexity_defect_p_slack(v, v, 0.5, p, 1.0)
        with pytest.raises(ParameterDomainError, match="p must lie in \\[2, inf\\)"):
            largest_empirical_defect_constant(0.5, p, np.random.default_rng(0))
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


def _empirical_defect_constant_loop(t, p, rng):
    # the pair-at-a-time form of largest_empirical_defect_constant: two draws
    # of 8 per pair and a generator of ** powers per norm
    def powsum(v):
        return math.fsum(abs(x) ** p for x in v.tolist())

    best = math.inf
    for _ in range(200):
        a = rng.uniform(-1.0, 1.0, size=8)
        b = rng.uniform(-1.0, 1.0, size=8)
        denom = t * (1.0 - t) * powsum(a - b)
        if denom <= 0.0:
            continue
        numer = t * powsum(a) + (1.0 - t) * powsum(b) - powsum(t * a + (1.0 - t) * b)
        best = min(best, numer / denom)
    return best


class _Served:
    """A generator stub whose uniform serves the doubles of values in turn."""

    def __init__(self, values):
        self._values = iter(np.ravel(values).tolist())

    def uniform(self, low, high, size):
        return np.fromiter(self._values, float, int(np.prod(size))).reshape(size)


@pytest.mark.parametrize("t, p", [(0.25, 2.0), (0.25, 3.0), (0.75, 2.5), (0.5, 4.0)])
def test_batched_empirical_defect_constant_is_the_loop_bitwise(t, p):
    # the batched draw must read the same doubles and leave the generator
    # where the loop leaves it, or the verify digests move
    for seed in range(20):
        batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        value = largest_empirical_defect_constant(t, p, batched)
        assert value.hex() == _empirical_defect_constant_loop(t, p, looped).hex(), seed
        assert batched.uniform() == looped.uniform(), seed
    # pairs with b equal to a bound no constant and are skipped by both forms;
    # where every pair is such, none is left and the constant is inf
    pairs = np.random.default_rng(0).uniform(-1.0, 1.0, size=(200, 2, 8))
    pairs[::3, 1] = pairs[::3, 0]
    value = largest_empirical_defect_constant(t, p, _Served(pairs))
    assert math.isfinite(value)
    assert value.hex() == _empirical_defect_constant_loop(t, p, _Served(pairs)).hex()
    pairs[:, 1] = pairs[:, 0]
    assert largest_empirical_defect_constant(t, p, _Served(pairs)) == math.inf
    assert _empirical_defect_constant_loop(t, p, _Served(pairs)) == math.inf


def test_grid_pair_reads_the_stream_of_two_grid_vector_draws():
    # one integers draw of 2 * dim against two of dim, for odd and even dim:
    # the vectors and the generator's next draw must agree
    for dim in (1, 2, 5, 8, 15, 16):
        for seed in range(10):
            joined, split = np.random.default_rng(seed), np.random.default_rng(seed)
            a, b = _grid_vectors(joined, dim)
            assert a.tolist() == _grid_vector(split, dim).tolist(), (dim, seed)
            assert b.tolist() == _grid_vector(split, dim).tolist(), (dim, seed)
            assert joined.integers(0, 2**31) == split.integers(0, 2**31), (dim, seed)
    dims = set()
    for seed in range(40):
        joined, split = np.random.default_rng(seed), np.random.default_rng(seed)
        a, b = _grid_pair(joined)
        dim = _random_dim(split)
        dims.add(dim % 2)
        assert a.tolist() == _grid_vector(split, dim).tolist(), seed
        assert b.tolist() == _grid_vector(split, dim).tolist(), seed
        assert joined.integers(0, 2**31) == split.integers(0, 2**31), seed
    assert dims == {0, 1}


# The oracles as numpy array expressions: each slack from whole-array sums,
# differences and mixes, kept here as the reference the float form must match
# bit for bit, and raise as, on every input.


def _ref_vector(v, name):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise StructuralError(f"{name} must be a nonempty 1-d vector")
    if not np.isfinite(arr).all():
        raise StructuralError(f"{name} holds non-finite entries")
    return arr


def _ref_pair(v, w):
    a = _ref_vector(v, "v")
    b = _ref_vector(w, "w")
    if a.shape != b.shape:
        raise StructuralError(f"vectors differ in length: {a.size} vs {b.size}")
    return a, b


def _ref_powsum(v, p):
    return math.fsum(x ** p for x in np.abs(v).tolist())


def _ref_sqnorm(v, p):
    return _ref_powsum(v, p) ** (2.0 / p)


def _ref_t(t):
    t = float(t)
    if not (0.0 < t < 1.0):
        raise ParameterDomainError(f"t must lie in (0, 1), got {t}")
    return t


def _ref_clarkson(v, w, p):
    if not (2.0 <= p < math.inf):
        raise ParameterDomainError(f"p must lie in [2, inf), got {p}")
    a, b = _ref_pair(v, w)
    return (2.0 ** (p - 1.0) * (_ref_powsum(a, p) + _ref_powsum(b, p))
            - _ref_powsum(a + b, p) - _ref_powsum(a - b, p))


def _ref_defect_p(v, w, t, p, constant):
    if not (2.0 <= p < math.inf):
        raise ParameterDomainError(f"p must lie in [2, inf), got {p}")
    t = _ref_t(t)
    a, b = _ref_pair(v, w)
    return (t * _ref_powsum(a, p) + (1.0 - t) * _ref_powsum(b, p)
            - t * (1.0 - t) * float(constant) * _ref_powsum(a - b, p)
            - _ref_powsum(t * a + (1.0 - t) * b, p))


def _ref_bcl(v, w, p):
    if not (1.0 < p <= 2.0):
        raise ParameterDomainError(f"p must lie in (1, 2], got {p}")
    a, b = _ref_pair(v, w)
    return (_ref_sqnorm(a + b, p) + _ref_sqnorm(a - b, p)
            - 2.0 * _ref_sqnorm(a, p) - 2.0 * (p - 1.0) * _ref_sqnorm(b, p))


def _ref_defect_2(v, w, t, p):
    if not (1.0 < p <= 2.0):
        raise ParameterDomainError(f"p must lie in (1, 2], got {p}")
    t = _ref_t(t)
    a, b = _ref_pair(v, w)
    return (t * _ref_sqnorm(a, p) + (1.0 - t) * _ref_sqnorm(b, p)
            - (p - 1.0) * t * (1.0 - t) * _ref_sqnorm(a - b, p)
            - _ref_sqnorm(t * a + (1.0 - t) * b, p))


def _ref_jensen(amounts, times, p):
    if not (1.0 < p < math.inf):
        raise ParameterDomainError(f"p must lie in (1, inf), got {p}")
    a = _ref_vector(amounts, "amounts")
    t = _ref_vector(times, "times")
    if t.size != a.size + 1:
        raise StructuralError(f"times must hold one more entry than amounts ({t.size} vs {a.size})")
    if np.any(a < 0.0):
        raise ParameterDomainError("amounts must be nonnegative")
    gaps = np.diff(t)
    if np.any(gaps <= 0.0):
        raise ParameterDomainError("times must be strictly increasing")
    lhs = math.fsum(a.tolist()) ** p / float(t[-1] - t[0]) ** (p - 1.0)
    rhs = math.fsum(x ** p / g ** (p - 1.0) for x, g in zip(a.tolist(), gaps.tolist()))
    return rhs - lhs


_ORACLES = (
    (clarkson_slack, _ref_clarkson),
    (convexity_defect_p_slack, _ref_defect_p),
    (bcl_slack, _ref_bcl),
    (convexity_defect_2_slack, _ref_defect_2),
    (jensen_partition_slack, _ref_jensen),
)

_CLARKSON_PS = (2.0, 2.5, 3.0, 4.0)
_BCL_PS = (1.1, 1.5, 2.0)
_JENSEN_PS = (1.5, 2.0, 3.0)
_TS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.0 ** -1022, 1e300, -1e300)


def _outcome(fn, *args):
    """The slack's bits, or the class and message of what it raised."""
    try:
        return fn(*args).hex()
    except Exception as exc:  # any refusal: its class and message are compared
        return type(exc), str(exc)


def _draw_vector(rng, dim):
    """One vector of dim entries: grid dyadics, uniform doubles, or uniform
    doubles salted with -0.0, subnormals and +-1e300."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return _grid_vector(rng, dim)
    v = rng.uniform(-10.0, 10.0, dim)
    if kind == 2:
        salt = rng.random(dim) < 0.3
        v[salt] = rng.choice(_SPECIALS, int(salt.sum()))
    return v


def _as_given(rng, v):
    """v as a list, a tuple, an int array or a float array."""
    form = int(rng.integers(0, 4))
    if form == 0:
        return v.tolist()
    if form == 1:
        return tuple(v.tolist())
    if form == 2:
        return np.trunc(np.clip(v, -1e18, 1e18)).astype(np.int64)
    return v


def _oracle_calls(rng):
    """Seeded calls of every public slack oracle on vectors of 1-16 entries."""
    dim = int(rng.integers(1, 17))
    v = _as_given(rng, _draw_vector(rng, dim))
    w = _as_given(rng, _draw_vector(rng, dim))
    t = _TS[int(rng.integers(0, len(_TS)))]
    for p in _CLARKSON_PS:
        yield 0, (v, w, p)
        for constant in (2.0 ** (2.0 - p), 0.5, 1.0, 2.0):
            yield 1, (v, w, t, p, constant)
    for p in _BCL_PS:
        yield 2, (v, w, p)
        yield 3, (v, w, t, p)
    count = int(rng.integers(1, 9))
    amounts = np.abs(_draw_vector(rng, count))
    gaps = np.abs(_draw_vector(rng, count))
    gaps[gaps == 0.0] = 1.0
    times = np.concatenate(([rng.uniform(-5.0, 5.0)], rng.uniform(-5.0, 5.0) + np.cumsum(gaps)))
    for p in _JENSEN_PS:
        yield 4, (_as_given(rng, amounts), _as_given(rng, times), p)


def test_slack_oracles_are_the_array_expressions_bitwise():
    seen = set()
    for seed in range(60):
        rng = np.random.default_rng([seed, 22])
        for _ in range(10):
            for which, args in _oracle_calls(rng):
                oracle, reference = _ORACLES[which]
                got = _outcome(oracle, *args)
                assert got == _outcome(reference, *args), (oracle.__name__, seed, args)
                seen.add((which, isinstance(got, str)))
    # every oracle gave values, and some draw (an overflowing power) raised
    assert {which for which, valued in seen if valued} == set(range(5))
    assert any(not valued for _, valued in seen)


def test_slack_oracles_refuse_bad_input_as_the_array_expressions_do():
    v, w = [1.0, -2.0], [0.5, 0.25]
    bad_pairs = [
        (v, [1.0, math.nan]), ([math.inf, 1.0], w), ([[1.0, 2.0]], [[1.0, 2.0]]),
        (v, np.ones((2, 2))), ([], []), (v, []), ([1.0], w), (np.zeros(3), np.zeros(2)),
        (np.array(1.0), np.array(1.0)),
    ]
    calls = []
    for a, b in bad_pairs + [(v, w)]:
        for p in (2.0, 3.0, 1.5, 1.0, math.inf, math.nan):
            calls += [(0, (a, b, p)), (2, (a, b, p))]
            for t in (0.5, 0.0, 1.0, -0.25, math.nan, 1.5):
                calls += [(1, (a, b, t, p, 1.0)), (3, (a, b, t, p))]
    bad_partitions = [
        ([1.0], [0.0, math.inf]), ([math.nan], [0.0, 1.0]), ([], [0.0]), ([1.0], []),
        ([1.0, 2.0], [0.0, 1.0]), ([1.0], [0.0, 1.0, 2.0]), ([-1.0], [0.0, 1.0]),
        ([1.0, -0.5], [0.0, 0.5, 1.0]), ([1.0], [1.0, 0.5]), ([1.0, 1.0], [0.0, 1.0, 1.0]),
        ([-1.0, 1.0], [0.0, 2.0, 1.0]), ([[1.0]], [[0.0, 1.0]]), ([1.0], [0.0, 1.0]),
    ]
    for a, t in bad_partitions:
        for p in (2.0, 1.0, 0.5, math.inf, math.nan):
            calls.append((4, (a, t, p)))
    refused = 0
    for which, args in calls:
        oracle, reference = _ORACLES[which]
        got = _outcome(oracle, *args)
        assert got == _outcome(reference, *args), (oracle.__name__, args)
        refused += not isinstance(got, str)
    assert refused > len(calls) // 2
