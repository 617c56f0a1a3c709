import functools
import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from pdg import (
    Coupling,
    Diagram,
    Matching,
    MetricParams,
    OtReport,
    Point,
    SizeGuardError,
    StructuralError,
    ValidationError,
    WrongSolverError,
    brute_force_distance,
    build_augmented_problem,
    classify_curve,
    diagonal_distance,
    distance,
    enumerate_optimal_matchings,
    ground_norm,
    matching_cost,
    matching_from_assignment,
    random_doubly_stochastic,
    sample_convex_combination,
    solve_assignment_bottleneck,
    solve_assignment_sum,
    transport_cost,
    verify_ot_equivalence,
)
from pdg.cli import main
from pdg.instances import GRID_P, GRID_Q, four_point_pair, index_twins, random_pair, single_tall_point
from pdg.matching import (
    BLOCKWISE_POWER_FROM,
    HYPOT_PORT_FROM,
    NUMPY_BUILD_FROM,
    _all_actions,
    _copy_rule,
    _exhaust,
    _hypot_port,
    _reduced_partners,
    _solved,
)
from test_cli import DIST_GRID_PAIRS

# augmented ground matrix for the four point configuration at q = 1: rows are
# the two off-diagonal points of X then one diagonal copy per point of Y,
# columns the same with the roles swapped
FOUR_POINT_GROUND_Q1 = np.array([
    [2.0, 2.0, 10.0, 10.0],
    [2.0, 2.0, 8.0, 8.0],
    [10.0, 8.0, 0.0, 0.0],
    [10.0, 8.0, 0.0, 0.0],
])


def random_sized_pair(rng, nx, ny):
    def draw(n):
        births = rng.uniform(-5.0, 5.0, n)
        deaths = births + rng.uniform(0.1, 4.0, n)
        return Diagram.from_pairs(list(zip(births.tolist(), deaths.tolist())))

    return draw(nx), draw(ny)


def geometric_action(matching, n_right_real):
    return tuple(
        j if j < n_right_real else -1
        for j in matching.assignment[: len(matching.assignment) // 2]
    )


def test_augmented_ground_matrix_frozen():
    x, y = four_point_pair()
    prob = build_augmented_problem(x, y, MetricParams(1.0, 1.0))
    assert prob.n == 4
    assert prob.n_left_real == 2
    assert prob.n_right_real == 2
    assert np.array_equal(prob.ground, FOUR_POINT_GROUND_Q1)


def scalar_ground(x, y, q):
    """The augmented ground matrix entry by entry from the public scalar norms."""
    nx, ny = len(x), len(y)
    ground = np.zeros((nx + ny, nx + ny))
    for i in range(nx + ny):
        for j in range(nx + ny):
            if i < nx and j < ny:
                a, b = x.points[i], y.points[j]
                ground[i, j] = ground_norm((a.birth - b.birth, a.death - b.death), q)
            elif i < nx:
                ground[i, j] = diagonal_distance(x.points[i], q)
            elif j < ny:
                ground[i, j] = diagonal_distance(y.points[j], q)
    return ground


#: Sizes on both sides of NUMPY_BUILD_FROM combined slots, where the ground
#: moves from Python floats to numpy broadcasts; of HYPOT_PORT_FROM real
#: entries, where q = 2 grounds move from math.hypot mapped over the lanes to
#: its numpy port; and of BLOCKWISE_POWER_FROM, where the cost's p-th power is
#: taken block by block.
ACROSS_THE_PORT = [(0, 0), (0, 3), (4, 0), (1, 1), (2, 5), (7, 3), (12, 9), (19, 21), (25, 25),
                   (30, 28), (40, 35), (60, 57)]


def sized_pairs(seed):
    """A random pair at each of ACROSS_THE_PORT's sizes, then a far-apart pair
    above each cut-over, whose +inf q = 2 grounds take the port's fallback,
    and one below NUMPY_BUILD_FROM, whose +inf grounds are Python floats."""
    rng = np.random.default_rng(seed)
    for cut in (HYPOT_PORT_FROM, BLOCKWISE_POWER_FROM):
        assert min(nx * ny for nx, ny in ACROSS_THE_PORT) < cut <= 30 * 28
    sizes = [nx + ny for nx, ny in ACROSS_THE_PORT]
    assert min(sizes) < NUMPY_BUILD_FROM <= max(sizes)
    # the Python build has no separate blocks to take the blockwise power of
    assert (NUMPY_BUILD_FROM // 2) ** 2 < BLOCKWISE_POWER_FROM
    assert 3 + 2 < NUMPY_BUILD_FROM <= 30 + 28
    return [random_sized_pair(rng, nx, ny) for nx, ny in ACROSS_THE_PORT] + [
        far_apart_pair(rng, 30, 28), far_apart_pair(rng, 3, 2)]


def test_ground_matrix_equals_the_scalar_oracle_bitwise():
    for x, y in sized_pairs(53):
        for q in (1.0, 1.5, 2.0, 3.0, math.inf):
            oracle = scalar_ground(x, y, q)
            for p in (2.0, math.inf):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    prob = build_augmented_problem(x, y, MetricParams(p, q))
                assert prob.ground.shape == oracle.shape
                assert (prob.ground == oracle).all()


def test_cost_matrix_is_the_scaled_ground_to_the_p_bitwise():
    # the build raises only the distinct grounds to the p-th power; its cost
    # must still be the whole square's (ground / scale) ** p, bit for bit,
    # scale the largest finite ground (or 1.0 where that is 0), at p = inf too,
    # where the cost is the ground itself and the scale prices the witness
    for x, y in sized_pairs(61):
        for q in (1.0, 1.5, 2.0, math.inf):
            for p in (1.0, 1.5, 2.0, 3.0, 64.0, math.inf):
                prob = build_augmented_problem(x, y, MetricParams(p, q))
                assert prob.scale == (prob.ground.max(where=prob.ground < math.inf, initial=0.0) or 1.0)
                expected = prob.ground if p == math.inf else (prob.ground / prob.scale) ** p
                assert prob.cost.tobytes() == expected.tobytes()


def extreme_pair(rng, nx, ny):
    """Points (-u 1e308, v 1e308) with u and v in [0.5, 1): persistences of
    1e308 to 2e308, so c * persistence overflows on some points at every q,
    and at q = 1 some diagonal distances exceed the float range."""
    def draw(n):
        return Diagram.from_pairs((rng.uniform(0.5, 1.0, (n, 2)) * (-1e308, 1e308)).tolist())

    return draw(nx), draw(ny)


def lattice_pair(rng, nx, ny):
    """integer_pair on the 0.1 lattice: many grounds tie, and differences round."""
    return tuple(d.scaled(0.1) for d in integer_pair(rng, nx, ny))


def test_the_python_and_numpy_ground_builds_agree_bitwise(monkeypatch):
    # every size the Python build runs at and beyond, built both ways: the
    # same ground, scale and cost bytes and the same p = inf witness, or the
    # same refusal of the same point
    rng = np.random.default_rng(71)
    pairs = [draw(rng, nx, ny) for nx in range(13) for ny in range(13 - nx)
             for draw in (random_sized_pair, lattice_pair, far_apart_pair, extreme_pair)]

    def built(x, y, params):
        try:
            prob = build_augmented_problem(x, y, params)
        except ValidationError as exc:
            return type(exc), str(exc)
        witness = solve_assignment_bottleneck(prob) if params.p == math.inf else None
        return prob.ground.tobytes(), prob.scale.hex(), prob.cost.tobytes(), witness

    refused = 0
    for q in (1.0, 1.5, 2.0, 3.0, math.inf):
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            params = MetricParams(p, q)
            for x, y in pairs:
                outcomes = []
                for switch in (0, 13):  # numpy, then Python floats, at every size here
                    monkeypatch.setattr("pdg.matching.NUMPY_BUILD_FROM", switch)
                    outcomes.append(built(x, y, params))
                assert outcomes[0] == outcomes[1], (len(x), len(y), p, q)
                refused += isinstance(outcomes[0][0], type)
    assert 0 < refused < 5 * len(pairs)  # refusals depend on q alone: each counts once per p


def test_the_hypot_port_is_math_hypot_bitwise():
    # 1.3 million pairs against math.hypot on this Python, none skipped: if a
    # Python's math.hypot differs, the port has to follow it
    rng = np.random.default_rng(67)
    n = 2 ** 17
    tiny, big = np.nextafter(0.0, 1.0), np.finfo(float).max
    specials = np.array([0.0, -0.0, tiny, 2.0 ** -1022, 1e-310, 1.0, 1e308, -1e308, big, math.inf])
    magnitudes = 10.0 ** rng.uniform(-323.5, 308.25, (2, n))
    lattice = rng.integers(0, 100, (2, n)) * 0.1
    steps = rng.integers(-30, 30, (4, n)) * 0.01
    multiples = rng.integers(1, 200, n) * (rng.integers(1, 100, n) * 0.1)
    with np.errstate(over="ignore"):
        blocks = [
            magnitudes,  # subnormal to near the float range, and either far larger
            np.abs(rng.standard_normal((2, n))) * 10.0 ** rng.uniform(-320, 308, n),  # alike in size
            lattice,
            steps[:2] - steps[2:],  # differences of a 0.01 lattice
            np.stack([lattice[0], lattice[0]]),  # exact ties
            # (3, 4) times a decimal, whose exact norm is nearly halfway
            # between two floats: a port that sums the same exact terms in
            # another order rounds about 1% of these the other way
            np.stack([3 * multiples, 4 * multiples]),
            np.stack([magnitudes[0], np.nextafter(magnitudes[0], math.inf)]),  # near-ties
            np.ldexp(rng.integers(0, 2 ** 30, (2, n)).astype(float), rng.integers(-1080, -1000, (2, n))),
            rng.uniform(0.05, 1.79, (2, n)) * 1e308,  # a norm beyond the float range is inf
            rng.choice(specials, (2, n)),
        ]
        a = np.abs(np.concatenate(blocks, axis=1))
        a[:, :64] = -0.0
        a[0, 64:128] = -0.0
        assert a.shape[1] >= 10 ** 6
        expected = np.fromiter(map(math.hypot, *a.tolist()), float, a.shape[1])
    mismatched = np.flatnonzero(_hypot_port(a[0], a[1]).view(np.int64) != expected.view(np.int64))
    assert mismatched.size == 0, a[:, mismatched[:5]].T.tolist()


def test_witness_reprices_bitwise_beyond_the_factorial_oracles():
    rng = np.random.default_rng(59)
    qs = iter((1.0, 2.0, math.inf, 1.5, 2.0, 3.0, math.inf, 1.0, 2.0, 1.0, 3.0, math.inf))
    for nx, ny in ((20, 23), (41, 35), (60, 57)):
        x, y = random_sized_pair(rng, nx, ny)
        for p in (1.0, 2.0, 3.3, math.inf):
            params = MetricParams(p, next(qs))
            value, witness = distance(x, y, params)
            assert matching_cost(x, y, witness, params) == value
            assert witness.total == value
            if p == math.inf:
                assert value in build_augmented_problem(x, y, params).ground


def integer_pair(rng, nx, ny):
    """Small integer coordinates, so that many matchings tie."""
    def draw(n):
        births = rng.integers(0, 4, n)
        deaths = births + rng.integers(1, 4, n)
        return Diagram.from_pairs(list(zip(births.tolist(), deaths.tolist())))

    return draw(nx), draw(ny)


def far_apart_pair(rng, nx, ny):
    """Points near -9.5e307 and +9.5e307: a pair across the two groups has a
    coordinate difference beyond the float range and is priced out, its
    cost +inf at every p.  The distance itself stays finite."""
    def draw(n):
        births = rng.choice([-9.5e307, 9.5e307], n) + rng.uniform(-1e306, 1e306, n)
        deaths = births + rng.uniform(1e305, 1e306, n)
        return Diagram.from_pairs(list(zip(births.tolist(), deaths.tolist())))

    return draw(nx), draw(ny)


def near_copy_pair(rng, n, extra):
    """y is x (plus extra points) with every point moved by 1e-12 to 1e-6 of
    its persistence and shuffled: each point of X has a partner in Y whose
    pair cost is far below both diagonal costs."""
    x = random_sized_pair(rng, n + extra, 0)[0]
    coords = x.geometry()
    shift = 10.0 ** rng.uniform(-12, -6, (n + extra, 1)) * (coords[:, 1:] - coords[:, :1])
    moved = coords + shift * rng.uniform(-1, 1, (n + extra, 2))
    return Diagram.from_pairs(coords[:n].tolist()), Diagram.from_pairs(rng.permutation(moved).tolist())


def cluster_pair(rng, nx, ny, width):
    """Every point within width of (0, 1) on both sides: the pair costs are
    far below the diagonal costs, and the near optimal matchings are many."""
    def draw(n):
        return Diagram.from_pairs((rng.uniform(0, width, (n, 2)) + (0.0, 1.0)).tolist())

    return draw(nx), draw(ny)


def canonical_copies(perms, nx, ny):
    """Which rows of the slot permutations perms place the diagonal copies by
    the copy rule: a point sent to the diagonal takes its own copy, an
    unmatched point of Y takes its own copy, and a real pair's partners'
    copies pair together."""
    perms = np.array(perms, dtype=np.int64, ndmin=2)
    ok = np.ones(len(perms), dtype=bool)
    copy_rows = np.tile(np.arange(ny), (len(perms), 1))
    for i in range(nx):
        real = perms[:, i] < ny
        ok &= real | (perms[:, i] == ny + i)
        copy_rows[real, perms[real, i]] = ny + i
    return ok & (perms[:, nx:] == copy_rows).all(axis=1)


def assert_canonical_copies(assignment, nx, ny):
    assert canonical_copies([assignment], nx, ny)[0], assignment


def test_reduced_solve_matches_the_square_solve():
    # solve_assignment_sum, and the reduction on its own at every size,
    # against linear_sum_assignment on the whole square cost matrix: the same
    # value to 1e-12 relative, bitwise wherever the two witnesses send the
    # same points to the same partners.  Near-coincident diagrams, where the
    # reduction rounds the close partners' costs together, must be refused.
    rng = np.random.default_rng(97)
    finite_p = GRID_P[:-1]
    pairs = [(random_sized_pair(rng, nx, ny), finite_p) for nx, ny in (
        (0, 6), (5, 0), (1, 1), (3, 8), (9, 2), (12, 10), (30, 47), (71, 40), (400, 380))]
    pairs += [(integer_pair(rng, nx, ny), finite_p) for nx, ny in ((0, 3), (6, 9), (40, 25))]
    pairs += [(far_apart_pair(rng, nx, ny), finite_p) for nx, ny in ((4, 0), (5, 7), (30, 22))]
    # with points that have no close partner, the value is no longer small
    pairs += [(pair, finite_p) for pair in (
        near_copy_pair(rng, 12, 1), cluster_pair(rng, 14, 11, 1e-7), cluster_pair(rng, 20, 23, 1e-4))]
    near = [near_copy_pair(rng, n, 0) for n in (2, 12, 40)]
    near += [cluster_pair(rng, n, n, width) for n, width in ((12, 1e-10), (16, 1e-7), (20, 1e-4))]
    near += [(Diagram.from_pairs([(0, 1), (3e-10, 1)]), Diagram.from_pairs([(4e-10, 1), (1e-10, 1)]))]
    cases = bitwise = same_action = priced_out = reduced = refused = 0
    for (x, y), ps, close in [(*case, False) for case in pairs] + [(pair, finite_p, True) for pair in near]:
        nx, ny = len(x), len(y)
        for p in ps:
            for q in GRID_Q:
                params = MetricParams(p, q)
                prob = build_augmented_problem(x, y, params)
                priced_out += not np.isfinite(prob.cost).all()
                reference = _solved(prob, linear_sum_assignment(prob.cost)[1])
                action = [j if j < ny else None for j in reference.assignment[:nx]]
                m = solve_assignment_sum(prob)
                witnesses = [m]
                if nx and ny:
                    partner = _reduced_partners(prob.cost, nx, ny)
                    if partner is None:
                        refused += 1
                    else:
                        assert not close
                        reduced += 1
                        witnesses.append(_solved(prob, _copy_rule(partner, nx, ny)))
                for w in witnesses:
                    assert_canonical_copies(w.assignment, nx, ny)
                    assert abs(w.total - reference.total) <= 1e-12 * reference.total
                    if [j if j < ny else None for j in w.assignment[:nx]] == action:
                        same_action += 1
                        assert w.total == reference.total
                value, witness = distance(x, y, params)
                assert value == m.total
                assert_canonical_copies(witness.assignment, nx, ny)
                assert matching_cost(x, y, witness, params) == value
                assert distance(y, x, params)[0] == value
                cases += 1
                bitwise += m.total == reference.total
    print(f"reduced solve: {bitwise} of {cases} values bitwise equal to the square solve's, "
          f"{same_action} witnesses with its action; the reduction ran {reduced} times "
          f"and was refused {refused} times")
    assert priced_out >= 6
    assert reduced >= 100


# distance(x, y, MetricParams(inf, q)) on random_sized_pair(default_rng(67), 20, 20):
# value (as float.hex) and witness assignment.  The values were frozen from
# a solver that binary-searched every distinct entry with a cold Kuhn pass per
# probe; the assignments are the least scaled ground sum under the value, its
# diagonal copies placed by _copy_rule
BOTTLENECK_WITNESS_20 = {
    1.0: ("0x1.2520fae72b76ap+1", (
        1, 13, 14, 5, 24, 10, 18, 16, 28, 19, 8, 11, 32, 15, 3, 2, 0, 4, 9, 39,
        36, 20, 35, 34, 37, 23, 6, 7, 30, 38, 25, 31, 12, 21, 22, 33, 27, 17, 26, 29,
    )),
    2.0: ("0x1.d2fcc7803d737p+0", (
        10, 8, 22, 16, 24, 4, 18, 5, 28, 19, 13, 11, 32, 15, 3, 2, 0, 1, 9, 39,
        36, 37, 35, 34, 25, 27, 6, 7, 21, 38, 20, 31, 12, 30, 14, 33, 23, 17, 26, 29,
    )),
    math.inf: ("0x1.75df832a8311cp+0", (
        10, 11, 22, 0, 24, 14, 18, 5, 28, 19, 16, 8, 32, 15, 3, 2, 4, 1, 13, 39,
        23, 37, 35, 34, 36, 27, 6, 7, 31, 9, 20, 21, 12, 38, 25, 33, 30, 17, 26, 29,
    )),
}


def test_bottleneck_witness_frozen():
    x, y = random_sized_pair(np.random.default_rng(67), 20, 20)
    for q, (value_hex, assignment) in BOTTLENECK_WITNESS_20.items():
        value, witness = distance(x, y, MetricParams(math.inf, q))
        assert value.hex() == value_hex
        assert witness.assignment == assignment


def test_bottleneck_value_is_the_smallest_feasible_entry():
    rng = np.random.default_rng(71)
    for nx, ny in ((20, 23), (48, 55), (100, 96)):
        x, y = random_sized_pair(rng, nx, ny)
        for q in GRID_Q:
            params = MetricParams(math.inf, q)
            value, witness = distance(x, y, params)
            prob = build_augmented_problem(x, y, params)
            assert value in prob.ground
            assert matching_cost(x, y, witness, params) == value
            assert_canonical_copies(witness.assignment, nx, ny)
            # no perfect matching uses only entries below the value
            below = maximum_bipartite_matching(csr_matrix(prob.ground < value), perm_type="column")
            assert (below < 0).any()


def test_bottleneck_prices_out_overflowed_ground_entries():
    # near the top of double range a coordinate difference overflows to inf,
    # and its l^q norm is +inf at q = 1.5 and 3 too, never NaN: an infinite
    # entry is never an edge, and scipy's minimum-sum assignment accepts it.
    # The coincident x_2 = y_0 pair with each other in the witness, the least
    # scaled ground sum under the value.
    x = Diagram.from_pairs([(-9.5e307, -9.4e307), (9.6e307, 9.9e307), (9.5e307, 9.8e307)])
    y = Diagram.from_pairs([(9.5e307, 9.8e307), (9.8e307, 1e308)])
    for q, value_hex in ((1.5, "0x1.b205c6136097cp+1017"), (3.0, "0x1.587be2c753d0cp+1017")):
        params = MetricParams(math.inf, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, witness = distance(x, y, params)
            ground = build_augmented_problem(x, y, params).ground
        assert not np.isnan(ground).any() and np.isinf(ground).any()
        assert value.hex() == value_hex
        assert witness.assignment == (2, 3, 0, 4, 1)
        assert matching_cost(x, y, witness, params) == value
    # 14 x 15 points: the lower bound fails, so the search takes its upper
    # bound from the reduced minimum-sum solve, over the infinite entries
    x, y = far_apart_pair(np.random.default_rng(12), 14, 15)
    for q in (1.0, 1.5, 3.0):
        params = MetricParams(math.inf, q)
        value, witness = distance(x, y, params)
        ground = build_augmented_problem(x, y, params).ground
        assert np.isinf(ground).any()
        assert value > max(ground.min(axis=0).max(), ground.min(axis=1).max())
        assert value in ground and matching_cost(x, y, witness, params) == value
        below = maximum_bipartite_matching(csr_matrix(ground < value), perm_type="column")
        assert (below < 0).any()


def test_matching_cost_rejects_a_non_permutation():
    x, y = four_point_pair()
    params = MetricParams(2.0, 2.0)
    with pytest.raises(StructuralError, match="covers 3 slots but the diagrams define 4"):
        matching_cost(x, y, Matching((0, 1, 2), (), 0.0), params)
    with pytest.raises(StructuralError, match="not a permutation of the right slots"):
        matching_cost(x, y, Matching((0, 1, 1, 3), (), 0.0), params)


def test_four_point_distance_is_four():
    x, y = four_point_pair()
    value, witness = distance(x, y, MetricParams(1.0, 1.0))
    assert abs(value - 4.0) <= 1e-12
    assert matching_cost(x, y, witness, MetricParams(1.0, 1.0)) == value


def test_single_point_against_empty_closed_form():
    for k in (1.0, 4.0, 10.0):
        x = single_tall_point(k)
        for q in GRID_Q:
            expected = 2.0 ** ((0.0 if q == math.inf else 1.0 / q) - 1.0) * k
            for p in GRID_P:
                value, witness = distance(x, Diagram(), MetricParams(p, q))
                assert abs(value - expected) <= 1e-12
                assert witness.assignment == (0,)


def test_index_twins_are_at_distance_zero():
    a, b = index_twins()
    for p in GRID_P:
        for q in GRID_Q:
            value, _ = distance(a, b, MetricParams(p, q))
            assert value == 0.0


def test_empty_empty():
    value, witness = distance(Diagram(), Diagram(), MetricParams(2.0, 2.0))
    assert value == 0.0
    assert witness.assignment == ()
    assert witness.total == 0.0


def test_an_empty_side_returns_the_solvers_matching_without_a_build(monkeypatch):
    # against the empty diagram every point goes to the diagonal: distance
    # returns that one matching directly, bitwise what the build and the
    # solver give, in both argument orders, refusals included
    rng = np.random.default_rng(79)
    sides = [random_sized_pair(rng, n, 0)[0] for n in [*range(13), 400]] + [
        Diagram.from_pairs([(0.0, 1.0), (-1.7e308, 1.7e308)]),  # refused at q = 1, 1.5, 2
        Diagram.from_pairs([(-0.8e308, 0.8e308 + k * 1e293) for k in range(4)]),  # total refused at p = 1.5
    ]
    grid = [MetricParams(p, q) for p in (1.0, 1.5, 2.0, 3.0, math.inf) for q in (1.0, 1.5, 2.0, 3.0, math.inf)]

    def outcome(call):
        try:
            value, m = call()
        except ValidationError as exc:
            return type(exc), str(exc)
        return value.hex(), m.assignment, [g.hex() for g in m.grounds], m.total.hex()

    def solved(y, params, swapped):
        prob = build_augmented_problem(Diagram(), y, params)
        m = solve_assignment_bottleneck(prob) if params.p == math.inf else solve_assignment_sum(prob)
        m = m.inverse() if swapped else m
        return m.total, m

    expected = {(i, params, swapped): outcome(lambda: solved(y, params, swapped))
                for i, y in enumerate(sides) for params in grid for swapped in (False, True)}
    refusals = [e[1] for e in expected.values() if e[0] is ValidationError]
    assert any(text.startswith("the diagonal distance of point") for text in refusals)
    assert any(text.startswith("the distance at p = 1.5") for text in refusals)

    def no_build(*args):
        raise AssertionError("built an augmented problem")

    monkeypatch.setattr("pdg.matching.build_augmented_problem", no_build)
    for i, y in enumerate(sides):
        for params in grid:
            assert outcome(lambda: distance(Diagram(), y, params)) == expected[i, params, False], (len(y), params)
            assert outcome(lambda: distance(y, Diagram(), params)) == expected[i, params, True], (len(y), params)
    # the exhaustive oracle still builds, so it checks the shortcut independently
    with pytest.raises(AssertionError, match="built an augmented problem"):
        brute_force_distance(Diagram(), sides[3], grid[0])


def test_a_swapped_order_returns_the_inverse_of_the_canonical_witness():
    # distance inverts the witness it built for the other order without
    # checking it again: exactly Matching.inverse(), assignment, grounds and
    # total, or the same refusal
    rng = np.random.default_rng(83)
    pairs = [tuple(map(Diagram.from_pairs, pair)) for pair in DIST_GRID_PAIRS]
    sizes = [(0, 0), (0, 7), (13, 40), (50, 50), *rng.integers(0, 51, (8, 2)).tolist()]
    pairs += [random_sized_pair(rng, nx, ny) for nx, ny in sizes]
    grid = [MetricParams(p, q) for p in (1.0, 1.5, 2.0, 3.0, math.inf) for q in (1.0, 1.5, 2.0, 3.0, math.inf)]
    for x, y in pairs:
        for params in grid:
            try:
                value, witness = distance(x, y, params)
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                    distance(y, x, params)
                continue
            back, inverse = distance(y, x, params)
            assert (back.hex(), inverse) == (value.hex(), witness.inverse()), (len(x), len(y), params)
            # and that inverse is the inverse permutation, repriced from the diagrams
            assert [witness.assignment[j] for j in inverse.assignment] == list(range(len(x) + len(y)))
            assert inverse.grounds == matching_from_assignment(y, x, inverse.assignment, params).grounds


def test_wrong_solver_raises():
    x, y = four_point_pair()
    with pytest.raises(WrongSolverError):
        solve_assignment_sum(build_augmented_problem(x, y, MetricParams(math.inf, 2.0)))
    with pytest.raises(WrongSolverError):
        solve_assignment_bottleneck(build_augmented_problem(x, y, MetricParams(2.0, 2.0)))


def test_bottleneck_value_is_a_ground_entry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = random_pair(rng, max_total=6)
        for q in GRID_Q:
            params = MetricParams(math.inf, q)
            value, _ = distance(x, y, params)
            prob = build_augmented_problem(x, y, params)
            if prob.n == 0:
                assert value == 0.0
            else:
                assert value in prob.ground


def test_solver_agrees_with_brute_force_on_fixed_pairs():
    x = Diagram.from_pairs([(0.0, 3.0), (1.0, 2.0), (-1.0, 0.5)])
    y = Diagram.from_pairs([(0.25, 2.5), (2.0, 4.0)])
    for p in GRID_P:
        for q in GRID_Q:
            params = MetricParams(p, q)
            value, _ = distance(x, y, params)
            assert value == pytest.approx(brute_force_distance(x, y, params), abs=1e-12)


def test_solver_agrees_with_brute_force_randomised():
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y = random_pair(rng, max_total=6)
        for p in (1.0, 2.0, math.inf):
            for q in GRID_Q:
                params = MetricParams(p, q)
                value, _ = distance(x, y, params)
                assert abs(value - brute_force_distance(x, y, params)) <= 1e-9


def test_enumeration_four_point_optima():
    x, y = four_point_pair()
    matchings = enumerate_optimal_matchings(x, y, MetricParams(1.0, 1.0))
    actions = {geometric_action(m, len(y)) for m in matchings}
    assert actions == {(0, 1), (1, 0)}
    # the squared ground breaks the tie in favour of the parallel matching
    matchings = enumerate_optimal_matchings(x, y, MetricParams(2.0, 2.0))
    actions = {geometric_action(m, len(y)) for m in matchings}
    assert actions == {(0, 1)}


def test_enumeration_identity_for_identical_singletons():
    x = single_tall_point(5.0)
    matchings = enumerate_optimal_matchings(x, x, MetricParams(2.0, 2.0))
    assert len(matchings) == 1
    assert matchings[0].assignment[0] == 0


def test_enumeration_empty():
    matchings = enumerate_optimal_matchings(Diagram(), Diagram(), MetricParams(2.0, 2.0))
    assert len(matchings) == 1
    assert matchings[0].total == 0.0
    for p in GRID_P:
        for q in GRID_Q:
            params = MetricParams(p, q)
            assert enumerate_optimal_matchings(Diagram(), Diagram(), params) == [Matching((), (), 0.0)]
            assert brute_force_distance(Diagram(), Diagram(), params) == 0.0


def test_size_guard():
    big = Diagram.from_pairs([(float(i), float(i) + 1.0) for i in range(5)])
    # the sum over k of C(5, k) * 5! / (5 - k)!, counted, not built
    text = r"would scan 1546 rows, one per geometric action of 5 \+ 5 points, and accepts at most 9 "
    with pytest.raises(SizeGuardError, match=rf"^brute_force_distance {text}"):
        brute_force_distance(big, big, MetricParams(2.0, 2.0))
    with pytest.raises(SizeGuardError, match=rf"^enumerate_optimal_matchings {text}"):
        enumerate_optimal_matchings(big, big, MetricParams(2.0, 2.0))
    # the empty pair is the smallest input the guard lets through
    assert brute_force_distance(Diagram(), Diagram(), MetricParams(2.0, 2.0)) == 0.0


@functools.lru_cache(maxsize=None)
def reference_permutations(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def reference_brute_force(x, y, params):
    """The exhaustive minimum, scanned on its own with its own empty case."""
    n = len(x) + len(y)
    if n == 0:
        return 0.0
    prob = build_augmented_problem(x, y, params)
    perms = reference_permutations(n)
    selected = prob.cost[np.arange(n)[None, :], perms]
    totals = selected.max(axis=1) if params.p == math.inf else selected.sum(axis=1)
    return matching_from_assignment(x, y, perms[int(np.argmin(totals))], params).total


def reference_optimal_matchings(x, y, params):
    """The tol-optimal matchings, scanned on their own: of each kept action
    the one permutation that places its copies by the copy rule, the actions
    in the order of their first permutation."""
    nx, ny = len(x), len(y)
    n = nx + ny
    if n == 0:
        return [Matching((), (), 0.0)]
    prob = build_augmented_problem(x, y, params)
    perms = reference_permutations(n)
    selected = prob.cost[np.arange(n)[None, :], perms]
    if params.p == math.inf:
        values = selected.max(axis=1)
    else:
        values = prob.scale * selected.sum(axis=1) ** (1.0 / params.p)
    best = float(values.min())
    kept = perms[(values - best <= params.tol * max(1.0, best)) & canonical_copies(perms, nx, ny)]
    return [matching_from_assignment(x, y, perm, params) for perm in kept]


def reference_transport_cost(prob, matrix, p):
    """transport_cost over the plan's support, gathered entry by entry."""
    support = [
        (float(prob.ground[i, j]), float(matrix[i, j]))
        for i in range(prob.n) for j in range(prob.n) if matrix[i, j] > 0.0
    ]
    if not support:
        return 0.0
    scale = max(g for g, _ in support)
    if scale == 0.0:
        return 0.0
    if p == 1.0:
        return math.fsum(g * w for g, w in support)
    return scale * math.fsum((g / scale) ** p * w for g, w in support) ** (1.0 / p)


def reference_ot(x, y, p, tol=1e-9):
    """verify_ot_equivalence with its own scan and its own permutation matrix."""
    params = MetricParams(p, 2.0, tol)
    value, _ = distance(x, y, params)
    n = len(x) + len(y)
    if n == 0:
        return OtReport(value, 0.0, abs(value) <= tol * max(1.0, value))
    prob = build_augmented_problem(x, y, params)
    perms = reference_permutations(n)
    best = perms[int(np.argmin(prob.cost[np.arange(n)[None, :], perms].sum(axis=1)))]
    matrix = np.zeros((n, n))
    matrix[np.arange(n), best] = 1.0
    coupling_min = reference_transport_cost(prob, matrix, p)
    return OtReport(value, coupling_min, abs(value - coupling_min) <= tol * max(1.0, value))


def test_exhaustive_oracles_match_independent_scans():
    # 0-7 slots, each at a random and at an even split; integer coordinates
    # give exact ties, where the first optimal action in lexicographic order
    # must win
    rng = np.random.default_rng(61)
    pairs = []
    for n in list(range(8)) * 2:
        for nx in sorted({int(rng.integers(0, n + 1)), n // 2}):
            pairs.append(random_sized_pair(rng, nx, n - nx))
            births = rng.integers(0, 3, n).astype(float)
            deaths = births + rng.integers(1, 3, n)
            rows = list(zip(births.tolist(), deaths.tolist()))
            pairs.append((Diagram.from_pairs(rows[:nx]), Diagram.from_pairs(rows[nx:])))
    for x, y in pairs:
        for p in GRID_P:
            for q in GRID_Q:
                params = MetricParams(p, q)
                assert brute_force_distance(x, y, params) == reference_brute_force(x, y, params)
                found = enumerate_optimal_matchings(x, y, params)
                assert found == reference_optimal_matchings(x, y, params)
                # every matching built from an action places its copies by one rule
                witness = distance(x, y, params)[1]
                for m in [*found, _exhaust(x, y, params, "test")[3], witness]:
                    assert_canonical_copies(m.assignment, len(x), len(y))
                for m in (witness.inverse(), distance(y, x, params)[1]):
                    assert_canonical_copies(m.assignment, len(y), len(x))
            if p == math.inf:
                continue
            assert verify_ot_equivalence(x, y, p) == reference_ot(x, y, p)
            prob = build_augmented_problem(x, y, MetricParams(p, 2.0))
            if prob.n:
                plan = random_doubly_stochastic(rng, prob.n)
                assert transport_cost(prob, plan) == reference_transport_cost(prob, plan.matrix, p)


def test_action_table_is_the_copy_rule_permutation_of_each_action():
    # the geometric action of a slot permutation: where each point of X goes,
    # a point of Y or the diagonal (-1).  Each action has one permutation
    # that places its copies by the copy rule, and the table holds it, the
    # actions in the order of their first permutation
    for n in range(9):
        perms = reference_permutations(n)
        for nx in range(n + 1):
            ny = n - nx
            actions = np.where(perms[:, :nx] < ny, perms[:, :nx], -1)
            unique, first = np.unique(actions, axis=0, return_index=True)
            expected = perms[canonical_copies(perms, nx, ny)]
            assert np.array_equal(np.where(expected[:, :nx] < ny, expected[:, :nx], -1),
                                  unique[np.argsort(first)]), (nx, ny)
            table = _all_actions(nx, ny)
            assert (table.dtype, table.shape) == (expected.dtype, expected.shape), (nx, ny)
            assert np.array_equal(table, expected), (nx, ny)


def test_the_exhaustive_oracles_gather_under_a_mebibyte_at_nine_points():
    # 501 geometric actions at 5 + 4 points, where a scan of all 9! slot
    # permutations gathers 27.7 MiB a call
    x, y = random_sized_pair(np.random.default_rng(7), 5, 4)
    for p in (2.0, math.inf):
        params = MetricParams(p, 2.0)
        brute_force_distance(x, y, params)  # the table is built once and cached
        for oracle in (brute_force_distance, enumerate_optimal_matchings):
            tracemalloc.start()
            try:
                oracle(x, y, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (oracle.__name__, p, peak)


def test_exhaustive_oracles_stay_quiet_near_the_float_range(tmp_path, capsys):
    # every permutation that sends a point to the diagonal costs about the
    # float range, and an l^p total of its objective would overflow: the
    # enumeration totals the rows in order of objective, and the first
    # total beyond the float range ends its scan, quietly
    rows = [(-8.5e307, 8.5e307)] * 2
    x, y = Diagram.from_pairs(rows), Diagram.from_pairs(rows)
    for p in GRID_P:
        for q in GRID_Q:
            params = MetricParams(p, q)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                found = enumerate_optimal_matchings(x, y, params)
                assert brute_force_distance(x, y, params) == 0.0
            assert [geometric_action(m, 2) for m in found] == [(0, 1), (1, 0)]
            assert [m.total for m in found] == [0.0, 0.0]
    frame = {"points": [list(row) for row in rows]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"times": [0.0, 0.5, 1.0], "frames": [frame] * 3}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", str(path), "--p", "2", "--q", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["kind"] == "convex-combination"


def test_the_optimum_is_kept_where_tol_is_below_the_rounding_gap():
    # at a scale of 5e7 the optimum sends both points to the diagonal with
    # objective fl(0.2) + fl(0.4) = 0.6000000000000001 at q = inf, above
    # fl(3e7 / 5e7) = 0.6: a cutoff taken from the total alone would drop it,
    # and classify would call the straight curve along it deviant
    x = Diagram.from_pairs([(0.0, 2e7)])
    y = Diagram.from_pairs([(3e7, 7e7)])
    for p in (1.0, 2.0):
        params = MetricParams(p, math.inf)
        found = enumerate_optimal_matchings(x, y, params)
        assert found == reference_optimal_matchings(x, y, params)
        assert [geometric_action(m, 1) for m in found] == [(-1,)]
        curve = sample_convex_combination(x, y, found[0], 9)
        assert classify_curve(curve, params).kind == "convex-combination"
    # on the 0.1 lattice, actions tied in exact arithmetic total apart by a
    # rounding; at tol = 1e-300, below it, the floor of p + 2n ulps over the
    # least objective keeps each of them, as the default tol does
    x = Diagram.from_pairs([(0, 3), (3, 6)]).scaled(0.1)
    y = Diagram.from_pairs([(0, 1), (2, 4)]).scaled(0.1)
    for p in (1.0, 1.5):
        found = [m.assignment for m in enumerate_optimal_matchings(x, y, MetricParams(p, math.inf, 1e-300))]
        assert found == [m.assignment for m in enumerate_optimal_matchings(x, y, MetricParams(p, math.inf))]
        assert len(found) > 1


def test_exact_ties_are_kept_at_any_scale():
    # integer coordinates times 2**24 give bitwise the same costs at q = 1
    # and q = inf, where tol is far below the objective's rounding: the same
    # permutations must be kept as at unit scale, the optimum's action and
    # every action tied with it
    rng = np.random.default_rng(89)
    for n in range(2, 8):
        x, y = integer_pair(rng, n // 2, n - n // 2)
        big = x.scaled(2.0**24), y.scaled(2.0**24)
        for p in GRID_P:
            for q in (1.0, math.inf):
                params = MetricParams(p, q)
                found = [m.assignment for m in enumerate_optimal_matchings(*big, params)]
                assert found == [m.assignment for m in enumerate_optimal_matchings(x, y, params)]


def test_a_tolerance_beyond_every_objective_keeps_every_finite_permutation():
    # tol * max(1, T) may exceed every total, and every action is optimal up
    # to such a tol; one whose real pair's ground overflows to +inf is not,
    # even where tol * max(1, T) overflows too
    x, y = random_sized_pair(np.random.default_rng(5), 2, 2)
    far = Diagram.from_pairs([(-9.5e307, -9.4e307)]), Diagram.from_pairs([(9.5e307, 9.8e307)])
    for p, tol in ((64.0, 1e5), (2.0, 1e300), (1.0, 1e300), (math.inf, 1e300)):
        params = MetricParams(p, 2.0, tol)
        found = enumerate_optimal_matchings(x, y, params)
        assert found == reference_optimal_matchings(x, y, params)
        assert len(found) == 7  # the partial matchings of two points against two
        assert [geometric_action(m, 1) for m in enumerate_optimal_matchings(*far, params)] == [(-1,)]


def test_bottleneck_witness_is_the_least_ground_sum_under_the_value():
    # the p = inf witness against every slot permutation: its largest ground
    # is the exhaustive bottleneck, and its ground sum the least of those
    # permutations that stay within it; integer coordinates give exact ties
    rng = np.random.default_rng(103)
    pairs = []
    for n in range(10):
        for nx in sorted({int(rng.integers(0, n + 1)), n // 2}):
            pairs += [random_sized_pair(rng, nx, n - nx), integer_pair(rng, nx, n - nx)]
    for x, y in pairs:
        nx, ny = len(x), len(y)
        for q in (1.0, 1.5, 2.0, 3.0, math.inf):
            params = MetricParams(math.inf, q)
            value, witness = distance(x, y, params)
            assert value == max(witness.grounds, default=0.0) == reference_brute_force(x, y, params)
            assert_canonical_copies(witness.assignment, nx, ny)
            if nx + ny:
                ground = build_augmented_problem(x, y, params).ground
                selected = ground[np.arange(nx + ny), reference_permutations(nx + ny)]
                least = selected.sum(axis=1)[selected.max(axis=1) <= value].min()
                assert abs(math.fsum(witness.grounds) - least) <= 1e-12 * least


def test_overflowing_coordinates_stay_quiet():
    x = Diagram.from_pairs([(-9.5e307, -9.4e307)])
    y = Diagram.from_pairs([(9.5e307, 9.8e307)])
    for p in (1.0, math.inf):
        for q in (2.0, 3.0):
            params = MetricParams(p, q)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value, witness = distance(x, y, params)
                # the real pair's difference overflows, and its norm is +inf at every q
                assert matching_cost(x, y, Matching((0, 1), (), value), params) == math.inf
            assert value == matching_cost(x, y, witness, params)
            assert math.isfinite(value)


def test_matching_through_an_overflowing_pair_costs_inf():
    # the overflowing pair (slot 1 -> slot 1) sits after a finite one, so a
    # NaN there would be skipped by max and poison only the sums
    x = Diagram.from_pairs([(0.0, 1.0), (-9.5e307, -9.4e307)])
    y = Diagram.from_pairs([(0.0, 1.0), (9.5e307, 9.8e307)])
    identity = Matching((0, 1, 2, 3), (), 0.0)
    for p in (1.0, 2.0, math.inf):
        for q in (1.5, 2.0, 3.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert matching_cost(x, y, identity, MetricParams(p, q)) == math.inf


def test_a_paired_point_beyond_the_diagonal_range_prices_to_its_total():
    # at q = 1 the tall point's diagonal distance exceeds the float range, so
    # no distance is taken; a matching that pairs it never prices that
    # distance, and one that sends it to the diagonal is refused naming it
    tall = (-1e308, 1e308)
    x = Diagram.from_pairs([(0.0, 1.0), tall])
    y = Diagram.from_pairs([(0.0, 2.0), (-5e307, 1e308)])
    params = MetricParams(2.0, 1.0)
    paired = matching_from_assignment(x, y, (0, 1, 2, 3), params)
    assert paired.grounds == (1.0, 5e307, 0.0, 0.0)
    # 1.0 vanishes beside the second ground in the l^2 sum
    assert paired.total == matching_cost(x, y, paired, params) == 5e307
    for refused in (lambda: distance(x, y, params), lambda: matching_cost(x, y, Matching((0, 3, 2, 1), (), 0.0), params)):
        with pytest.raises(ValidationError, match=r"^the diagonal distance of point \(-1e\+308, 1e\+308\) at q = 1 "):
            refused()


def test_overflowing_persistence_keeps_a_finite_diagonal_distance(tmp_path, capsys):
    # death - birth overflows, yet at q = 2 and inf c * death - c * birth fits;
    # the second point keeps the finite c * (death - birth)
    tall = Point(-1e308, 1e308, 0)
    x = Diagram((tall, Point(0.0, 1.0, 1)))
    for p in (1.0, math.inf):
        for q in (2.0, math.inf):
            params = MetricParams(p, q)
            grounds = [diagonal_distance(pt, q) for pt in x.points]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value, witness = distance(x, Diagram(), params)
                assert build_augmented_problem(x, Diagram(), params).ground[:, 0].tolist() == grounds
                assert value == (math.fsum(grounds) if p == 1.0 else max(grounds))
                assert matching_cost(x, Diagram(), witness, params) == value
                assert distance(Diagram(), x, params)[0] == value
            assert math.isfinite(value)
    assert diagonal_distance(tall, 2.0) == 2.0 ** -0.5 * 1e308 - 2.0 ** -0.5 * -1e308
    # the tall point's ground squared overflows, the distance does not: the
    # witness keeps the grounds, and only pdg dist, which prints their p-th
    # powers, refuses it
    params = MetricParams(2.0, 2.0)
    value, witness = distance(x, Diagram(), params)
    assert math.isfinite(value)
    assert value == matching_cost(x, Diagram(), witness, params) == distance(Diagram(), x, params)[0]
    tall_file = tmp_path / "tall.json"
    tall_file.write_text('{"points": [[-1e308, 1e308], [0, 1]]}')
    empty = tmp_path / "empty.json"
    empty.write_text('{"points": []}')
    assert main(["dist", str(tall_file), str(empty), "--p", "2"]) == 2
    assert "left slot 0 pairs with right slot" in capsys.readouterr().err


def test_a_total_beyond_the_float_range_is_refused_at_every_finite_p():
    # four diagonal distances of about 1.13e308 at q = 2: their l^p norm,
    # 4^(1/p) times that, exceeds the float range at p = 1, 1.5 and 2, and
    # fits at p = 3 (1.796e308)
    x = Diagram.from_pairs([(-0.8e308, 0.8e308 + k * 1e293) for k in range(4)])
    identity = Matching(tuple(range(4)), (), 0.0)
    for p in (1.0, 1.5, 2.0, 3.0):
        params = MetricParams(p, 2.0)
        prob = build_augmented_problem(x, Diagram(), params)
        totals = (
            lambda: distance(x, Diagram(), params)[0],
            lambda: distance(Diagram(), x, params)[0],
            lambda: matching_cost(x, Diagram(), identity, params),
            lambda: transport_cost(prob, Coupling(np.eye(4))),
        )
        if p == 3.0:
            values = {total() for total in totals}
            assert len(values) == 1 and 1.79e308 < values.pop() < math.inf
            continue
        for total in totals:
            with pytest.raises(ValidationError, match=f"the distance at p = {p:g} exceeds the float range"):
                total()


def test_unrepresentable_diagonal_distance_is_refused():
    # persistence 3.4e308: c * death - c * birth overflows too at q = 1, 1.5
    # and 2 (c = 1, 2^(-1/3), 2^(-1/2)), while at q = inf c = 1/2 and it fits
    x = Diagram.from_pairs([(0.0, 1.0), (-1.7e308, 1.7e308)])
    for q in (1.0, 1.5, 2.0):
        message = f"the diagonal distance of point (-1.7e+308, 1.7e+308) at q = {q:g} exceeds the float range"
        with pytest.raises(ValidationError, match=re.escape(message)):
            diagonal_distance(x.points[1], q)
        for p in GRID_P:
            with pytest.raises(ValidationError, match=re.escape(message)):
                build_augmented_problem(Diagram(), x, MetricParams(p, q))
    for p in (1.0, math.inf):
        assert math.isfinite(distance(x, Diagram(), MetricParams(p, math.inf))[0])


def test_symmetry_is_exact():
    rng = np.random.default_rng(23)
    for _ in range(30):
        x, y = random_pair(rng, max_total=7)
        for p, q in ((1.0, 1.0), (1.5, 2.0), (2.0, math.inf), (math.inf, 2.0)):
            params = MetricParams(p, q)
            forward, wf = distance(x, y, params)
            backward, wb = distance(y, x, params)
            assert forward == backward
            assert matching_cost(y, x, wb, params) == backward


def test_self_distance_is_exact_zero():
    rng = np.random.default_rng(29)
    for _ in range(20):
        x, _ = random_pair(rng, max_total=7)
        for p, q in ((1.0, 1.0), (2.0, 2.0), (math.inf, math.inf)):
            value, _ = distance(x, x, MetricParams(p, q))
            assert value == 0.0


def test_index_blindness_is_exact():
    rng = np.random.default_rng(31)
    for _ in range(20):
        x, y = random_pair(rng, max_total=6)
        relabeled = Diagram(tuple(
            Point(pt.birth, pt.death, 1000 + i) for i, pt in enumerate(reversed(y.points))
        ))
        for p, q in ((1.0, 2.0), (2.0, 2.0), (math.inf, 1.0)):
            params = MetricParams(p, q)
            assert distance(x, y, params)[0] == distance(x, relabeled, params)[0]


def test_triangle_inequality():
    rng = np.random.default_rng(37)
    for _ in range(25):
        x, y = random_pair(rng, max_total=5)
        z, _ = random_pair(rng, max_total=5)
        for p, q in ((1.0, 1.0), (2.0, 2.0), (3.0, 1.0), (math.inf, 2.0)):
            params = MetricParams(p, q)
            dxy, _ = distance(x, y, params)
            dxz, _ = distance(x, z, params)
            dzy, _ = distance(z, y, params)
            assert dxy <= dxz + dzy + 1e-9


def test_homogeneity_and_shift_invariance():
    rng = np.random.default_rng(41)
    for _ in range(15):
        x, y = random_pair(rng, max_total=6)
        for p, q in ((1.0, 1.0), (2.0, 2.0), (math.inf, math.inf)):
            params = MetricParams(p, q)
            base, _ = distance(x, y, params)
            c = float(rng.uniform(0.25, 4.0))
            scaled, _ = distance(x.scaled(c), y.scaled(c), params)
            assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-12)
            a = float(rng.uniform(-5.0, 5.0))
            shifted, _ = distance(x.shifted(a), y.shifted(a), params)
            assert shifted == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_monotonicity_in_p_and_q():
    rng = np.random.default_rng(43)
    for _ in range(15):
        x, y = random_pair(rng, max_total=6)
        for q in GRID_Q:
            bottleneck, _ = distance(x, y, MetricParams(math.inf, q))
            for p in GRID_P[:-1]:
                finite, _ = distance(x, y, MetricParams(p, q))
                assert bottleneck <= finite + 1e-12
        for p in GRID_P:
            values = [distance(x, y, MetricParams(p, q))[0] for q in GRID_Q]
            assert values[0] + 1e-12 >= values[1] >= values[2] - 1e-12


def test_witness_cost_recomputes_exactly():
    rng = np.random.default_rng(47)
    for _ in range(20):
        x, y = random_pair(rng, max_total=6)
        for p in GRID_P:
            for q in GRID_Q:
                params = MetricParams(p, q)
                value, witness = distance(x, y, params)
                assert matching_cost(x, y, witness, params) == value
                assert witness.total == value


def test_matching_inverse_round_trip():
    x, y = four_point_pair()
    params = MetricParams(2.0, 1.0)
    _, witness = distance(x, y, params)
    assert witness.inverse().inverse() == witness
    assert witness.inverse().total == witness.total
    # the inverse is, bitwise, the matching the diagrams give its assignment
    # from the other side
    rng = np.random.default_rng(71)
    for nx, ny in ((0, 3), (2, 0), (1, 1), (3, 4), (7, 5), (13, 16)):
        pair = random_sized_pair(rng, nx, ny)
        for x, y in (pair, pair[::-1]):
            for p in GRID_P:
                for q in GRID_Q:
                    params = MetricParams(p, q)
                    inverse = distance(x, y, params)[1].inverse()
                    rebuilt = matching_from_assignment(y, x, inverse.assignment, params)
                    assert inverse.assignment == rebuilt.assignment
                    assert [*map(float.hex, inverse.grounds)] == [*map(float.hex, rebuilt.grounds)]
                    assert inverse.total.hex() == rebuilt.total.hex()


small_coord = st.integers(min_value=-8, max_value=8)
small_diagram = st.lists(
    st.tuples(small_coord, st.integers(min_value=1, max_value=8)),
    max_size=3,
).map(lambda rows: Diagram.from_pairs([(float(b), float(b + gap)) for b, gap in rows]))


@settings(max_examples=60, deadline=None)
@given(small_diagram, small_diagram, st.sampled_from([1.0, 2.0, math.inf]), st.sampled_from(list(GRID_Q)))
def test_distance_matches_brute_force_property(x, y, p, q):
    params = MetricParams(p, q)
    value, witness = distance(x, y, params)
    assert abs(value - brute_force_distance(x, y, params)) <= 1e-9
    assert matching_cost(x, y, witness, params) == value
