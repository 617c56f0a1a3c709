import functools
import itertools
import math
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
    diagonal_distance,
    distance,
    enumerate_optimal_matchings,
    ground_norm,
    matching_cost,
    matching_from_assignment,
    random_doubly_stochastic,
    solve_assignment_bottleneck,
    solve_assignment_sum,
    transport_cost,
    verify_ot_equivalence,
)
from pdg.cli import main
from pdg.instances import GRID_P, GRID_Q, four_point_pair, index_twins, random_pair, single_tall_point
from pdg.matching import _copy_rule, _reduced_partners, _solved

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


def test_ground_matrix_equals_the_scalar_oracle_bitwise():
    rng = np.random.default_rng(53)
    sizes = [(0, 0), (0, 3), (4, 0), (1, 1), (2, 5), (7, 3), (12, 9)]
    for nx, ny in sizes:
        x, y = random_sized_pair(rng, nx, ny)
        for q in (1.0, 1.5, 2.0, 3.0, math.inf):
            for p in (2.0, math.inf):
                prob = build_augmented_problem(x, y, MetricParams(p, q))
                oracle = scalar_ground(x, y, q)
                assert prob.ground.shape == oracle.shape
                assert (prob.ground == oracle).all()


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


def assert_canonical_copies(assignment, nx, ny):
    """A point sent to the diagonal takes its own copy, an unmatched point of Y
    takes its own copy, and a real pair's partners' copies pair together."""
    partner = {}
    for i in range(nx):
        j = assignment[i]
        if j < ny:
            partner[j] = i
        else:
            assert j == ny + i
    for j in range(ny):
        assert assignment[nx + j] == (ny + partner[j] if j in partner else j)


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
    with pytest.raises(SizeGuardError, match=r"^brute_force_distance enumerates all 10! slot"):
        brute_force_distance(big, big, MetricParams(2.0, 2.0))
    with pytest.raises(SizeGuardError, match=r"^enumerate_optimal_matchings enumerates all 10! slot"):
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
    """The tol-optimal matchings, one per geometric action, scanned on their own."""
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
    cutoff = float(values.min()) + params.tol
    out, seen = [], set()
    for k in np.flatnonzero(values <= cutoff):
        action = tuple(int(j) if j < ny else -1 for j in perms[k][:nx])
        if action not in seen:
            seen.add(action)
            out.append(matching_from_assignment(x, y, perms[k], params))
    return out


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
        return OtReport(value, 0.0, abs(value) <= tol)
    prob = build_augmented_problem(x, y, params)
    perms = reference_permutations(n)
    best = perms[int(np.argmin(prob.cost[np.arange(n)[None, :], perms].sum(axis=1)))]
    matrix = np.zeros((n, n))
    matrix[np.arange(n), best] = 1.0
    coupling_min = reference_transport_cost(prob, matrix, p)
    return OtReport(value, coupling_min, abs(value - coupling_min) <= tol)


def test_exhaustive_oracles_match_independent_scans():
    # 0-7 slots, each at a random and at an even split; integer coordinates
    # give exact ties, where the first optimal permutation in lexicographic
    # order must win
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
                assert enumerate_optimal_matchings(x, y, params) == reference_optimal_matchings(x, y, params)
            if p == math.inf:
                continue
            assert verify_ot_equivalence(x, y, p) == reference_ot(x, y, p)
            prob = build_augmented_problem(x, y, MetricParams(p, 2.0))
            if prob.n:
                plan = random_doubly_stochastic(rng, prob.n)
                assert transport_cost(prob, plan) == reference_transport_cost(prob, plan.matrix, p)


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
    for p in GRID_P:
        for q in (1.0, 1.5, 2.0):
            with pytest.raises(ValidationError, match=r"point \(-1\.7e\+308, 1\.7e\+308\) at q = "):
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
