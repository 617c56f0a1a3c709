"""Optimal matchings between diagrams under the augmented assignment model.

Every distance query is phrased on a square (n_x + n_y) assignment problem:
left slots are the points of X followed by one diagonal copy per point of Y,
right slots are the points of Y followed by one diagonal copy per point of X.
A real pair costs the l^q norm of the coordinate difference, a real point
paired with a diagonal copy costs its perpendicular distance to the diagonal,
and two diagonal copies pair for free.  A point whose distance to the
diagonal exceeds the float range is refused, and a real pair whose norm
overflows costs +inf at every p and q.  The matrix is built by numpy
broadcasts over the two point arrays, each entry bitwise equal to the scalar
norm, and a solver reads its witness's grounds back from the matrix it
solved; matching_cost reprices a given matching from the diagrams alone.
Both total the grounds by one l^p sum, _aggregate, which refuses a finite
total beyond the float range at every finite p.

For finite p the solver minimizes the sum of p-th powers (a Hungarian-style
O(n^3) method).  From REDUCED_FROM points on each side it solves a reduced
problem: the smaller side's points as rows against the other side's points
and the diagonal, min(n_x, n_y) x (n_x + n_y) entries, so the zero block of
copy pairs never reaches the solver.  The reduction subtracts diagonal
costs from pair costs, so where the two diagrams nearly coincide it rounds
the close partners' costs together; its result is then refused and the
square matrix solved instead.  Timed against the square solve on four
random pairs per cell (births in [-5, 5], persistences in [0.1, 4], best of
3 on a shared 2-core Xeon), the reduced solve took 0.44-1.12x its time at
100 points per side, but at 400 per side with q = 1 it took 1.29-3.06x in
one series and 1.38-2.01x at p = 1.5 and 2 in another (0.56-0.85x at
p = 1); with q = 2 it took 0.86-1.43x there.  Either way the square
witness follows one canonical rule for the interchangeable diagonal copies:
a point sent to the diagonal takes its own copy, and so does an unmatched
point on the other side, and the copies of a real pair's two points pair
with each other.

For p = inf the solver minimizes the largest selected entry: the optimum is
the smallest entry whose threshold graph has a perfect matching, so the
reported bottleneck value is always an exact matrix entry.  Each threshold
is probed by one linear_sum_assignment with +inf above it, which scipy
refuses as infeasible where no perfect matching is left.  The search is
bracketed between the largest row or column minimum and the largest entry of
a minimum-sum assignment of the scaled ground (solved as for finite p),
tries the lower bound first, and binary-searches the distinct entries in
between.  The witness is, among the assignments whose entries all lie within
the optimum, one of least ground sum (scaled by the largest finite ground),
its diagonal copies placed by the finite-p rule.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from .diagram import Diagram, MetricParams, _qnorm
from .errors import SizeGuardError, StructuralError, ValidationError, WrongSolverError

#: Largest augmented problem size the factorial (enumeration) paths accept.
FACTORIAL_GUARD = 9


@dataclass(frozen=True)
class Matching:
    """A bijection between augmented slots together with its ground costs.

    ``assignment[i] = j`` pairs left slot i with right slot j at ground cost
    ``grounds[i]``.  The total is their l^p norm, (sum grounds^p)^(1/p) for
    finite p and their maximum for p = inf.
    """

    assignment: tuple[int, ...]
    grounds: tuple[float, ...]
    total: float

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.assignment)]

    def inverse(self) -> "Matching":
        """The same matching viewed from the other diagram's side."""
        inv = sorted(range(len(self.assignment)), key=self.assignment.__getitem__)
        return Matching(tuple(inv), tuple(self.grounds[i] for i in inv), self.total)


@dataclass(frozen=True, eq=False)
class AugmentedProblem:
    """The square cost model for one ordered pair of diagrams.

    ``ground`` holds raw l^q pair costs.  ``cost`` holds the solver objective:
    (ground / scale)^p for finite p (scale is the largest finite ground, which
    keeps powers bounded by one) and ground itself for p = inf.
    """

    x: Diagram
    y: Diagram
    params: MetricParams
    ground: np.ndarray
    cost: np.ndarray
    scale: float

    @property
    def n(self) -> int:
        return self.ground.shape[0]

    @property
    def n_left_real(self) -> int:
        return len(self.x)

    @property
    def n_right_real(self) -> int:
        return len(self.y)


#: math.hypot and _qnorm as ufuncs over object arrays.  np.hypot is not used
#: on purpose: it differs from math.hypot in the last bit on some entries,
#: and a ground entry must equal the scalar norm bitwise, so that a witness
#: reprices to its value exactly and a bottleneck value is found among the
#: entries of an independently built matrix.
_hypot = np.frompyfunc(math.hypot, 2, 1)
_qnorm_ufunc = np.frompyfunc(_qnorm, 3, 1)


def _real_grounds(xs: np.ndarray, ys: np.ndarray, q: float) -> np.ndarray:
    """Elementwise l^q norms of the differences of the (broadcast) coordinate
    rows xs - ys, each bitwise what _qnorm gives.  Near +-1e308 a difference
    overflows, and its norm is +inf at every q; the callers price it, and run
    this and _diagonal_grounds under one np.errstate that silences numpy's
    overflow warnings."""
    a = np.abs(xs - ys)
    ax = a[..., 0]
    ay = a[..., 1]
    if q == 1.0:
        return ax + ay
    if q == math.inf:
        return np.maximum(ax, ay)
    if q == 2.0:
        return _hypot(ax, ay).astype(float)
    return _qnorm_ufunc(ax, ay, q).astype(float)


def _diagonal_grounds(coords: np.ndarray, q: float) -> np.ndarray:
    """Elementwise diagonal_distance of the points with (n, 2) coordinates,
    bitwise: c * persistence, or c * death - c * birth where that overflows.
    A distance that overflows even so is beyond the float range: the point is
    refused, at every p alike."""
    c = 2.0 ** ((0.0 if q == math.inf else 1.0 / q) - 1.0)
    grounds = c * (coords[:, 1] - coords[:, 0])
    if math.inf in grounds.tolist():  # at a few points, cheaper than a numpy reduction
        over = np.isinf(grounds)
        grounds[over] = c * coords[over, 1] - c * coords[over, 0]
        if math.inf in grounds[over].tolist():
            birth, death = coords[np.isinf(grounds)][0].tolist()
            raise ValidationError(
                f"the diagonal distance of point ({birth}, {death}) at q = {q:g} "
                f"exceeds the float range"
            )
    return grounds


def _finite_scale(ground: np.ndarray) -> float:
    """The largest finite ground entry, or 1.0 where that is 0.  An overflowed
    norm is left out, so its scaled cost is +inf, which the solvers accept as
    priced out."""
    scale = float(ground.max()) if ground.size else 0.0
    if scale == math.inf:
        scale = float(ground.max(where=ground < math.inf, initial=0.0))
    return scale or 1.0


def build_augmented_problem(x: Diagram, y: Diagram, params: MetricParams) -> AugmentedProblem:
    nx = len(x)
    ny = len(y)
    n = nx + ny
    q = params.q
    xs = x.geometry()
    ys = y.geometry()
    ground = np.zeros((n, n), dtype=float)
    with np.errstate(over="ignore"):
        ground[:nx, :ny] = _real_grounds(xs[:, None], ys[None, :], q)
        ground[:nx, ny:] = _diagonal_grounds(xs, q)[:, None]
        ground[nx:, :ny] = _diagonal_grounds(ys, q)
    if params.p == math.inf:
        return AugmentedProblem(x, y, params, ground, ground, 1.0)
    scale = _finite_scale(ground)
    cost = (ground / scale) ** params.p
    return AugmentedProblem(x, y, params, ground, cost, scale)


def _check_assignment(x: Diagram, y: Diagram, assignment) -> None:
    n = len(x) + len(y)
    if len(assignment) != n:
        raise StructuralError(
            f"assignment covers {len(assignment)} slots but the diagrams define {n}"
        )
    if sorted(assignment) != list(range(n)):
        raise StructuralError("assignment is not a permutation of the right slots")


def _assignment_grounds(x: Diagram, y: Diagram, assignment, q: float) -> tuple[float, ...]:
    """The n selected entries of the ground matrix, computed without building it."""
    _check_assignment(x, y, assignment)
    nx = len(x)
    ny = len(y)
    xs = x.geometry()
    ys = y.geometry()
    cols = np.asarray(assignment, dtype=np.intp)
    grounds = np.zeros(len(cols))
    # a point of X goes to its partner in Y, or else to the diagonal
    partner = cols[:nx]
    real = partner < ny
    with np.errstate(over="ignore"):
        grounds[:nx] = _diagonal_grounds(xs, q)
        grounds[:nx][real] = _real_grounds(xs[real], ys[partner[real]], q)
        # a diagonal copy takes a point of Y to the diagonal, or else another copy
        partner = cols[nx:]
        real = partner < ny
        grounds[nx:][real] = _diagonal_grounds(ys[partner[real]], q)
    return tuple(grounds.tolist())


def _aggregate(grounds, p: float, weights=None) -> float:
    """The l^p norm of the grounds, each p-th power times its weight where
    weights are given: scale * (sum w * (g / scale)^p)^(1/p), scale the
    largest ground, and sum w * g at p = 1; their largest at p = inf.  It is
    +inf where a ground is, and a total of finite grounds beyond the float
    range is refused."""
    if not grounds:
        return 0.0
    scale = max(grounds)
    if p == math.inf or scale == 0.0 or scale == math.inf:
        return scale
    terms = grounds if p == 1.0 else [(g / scale) ** p for g in grounds]
    if weights is not None:
        terms = map(operator.mul, terms, weights)
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    if p != 1.0:
        total = scale * total ** (1.0 / p)
    if total == math.inf:
        raise ValidationError(f"the distance at p = {p:g} exceeds the float range")
    return total


def _solved(prob: AugmentedProblem, assignment) -> Matching:
    """The matching of a solved assignment, its grounds read from prob.ground."""
    if isinstance(assignment, np.ndarray):
        assignment = assignment.tolist()
    grounds = tuple(map(prob.ground.item, range(prob.n), assignment))
    return Matching(tuple(assignment), grounds, _aggregate(grounds, prob.params.p))


def matching_cost(x: Diagram, y: Diagram, m: Matching, params: MetricParams) -> float:
    """Cost of a given matching, recomputed from the diagrams."""
    grounds = _assignment_grounds(x, y, m.assignment, params.q)
    return _aggregate(grounds, params.p)


def matching_from_assignment(x: Diagram, y: Diagram, assignment, params: MetricParams) -> Matching:
    """Materialize a Matching (with costs) from a bare slot permutation."""
    grounds = _assignment_grounds(x, y, assignment, params.q)
    return Matching(tuple(map(int, assignment)), grounds, _aggregate(grounds, params.p))


def _copy_rule(partner: list[int], nx: int, ny: int) -> list[int]:
    """The square assignment that pairs x_i with y_partner[i] where
    partner[i] < ny, with the canonical rule for the interchangeable diagonal
    copies: a point of X sent to the diagonal takes its own copy
    (x_i -> ny + i), an unmatched point of Y takes its own copy
    (nx + j -> j), and the copies of a real pair's partners pair with each
    other (nx + j -> ny + i).  Every copy of one point costs the same, so
    the rule keeps any assignment's value."""
    assignment = [*range(ny, nx + ny), *range(ny)]
    for i, j in enumerate(partner):
        if j < ny:
            assignment[i] = j
            assignment[nx + j] = ny + i
    return assignment


#: The reduced solve runs from this many points on the smaller side.  Below
#: it the square solve is as fast or faster on random diagrams (births in
#: [-5, 5], persistences in [0.1, 4]): the reduced matrix's subtraction and
#: the refusal check cost more than the smaller matrix saves.
REDUCED_FROM = 12

#: The reduced solve's result stands when its rounding can lift the objective
#: above the optimum by at most this fraction of it.
REDUCED_SLACK = 2.0 ** -42


def _reduced_partners(cost: np.ndarray, nx: int, ny: int) -> list[int] | None:
    """Each point of X's partner (a column of cost, real where below ny) in a
    minimum-sum assignment of the square augmented matrix cost, solved on its
    min(nx, ny) x (nx + ny) reduction, or None where the reduction's rounding
    may have cost more than REDUCED_SLACK.

    Take the rows to be the points of X (transpose when nx > ny, so the
    smaller side is the rows).  Every diagonal-copy row holds the diagonal
    costs d_j of Y followed by zeros, so an assignment's sum is that of its
    X rows less each matched point's d_j, plus the sum of all d_j: the
    reduced cost is cost[:nx] - cost[nx], and the zero block never reaches
    the solver.  An entry c - d_j rounds by at most 2^-53 of its size.  For
    a pair that an optimum of either problem uses, that size is at most the
    larger diagonal cost of the two points, or else sending both to the
    diagonal would be cheaper; so the reduced optimum is within 2^-52 D of
    the true one, D the sum of all diagonal costs.  Where points of the two
    sides nearly coincide, c is far below d_j and the value far below D:
    the reduction cannot tell the close partners apart and is refused.
    """
    flip = nx > ny
    rows, reals = (ny, nx) if flip else (nx, ny)
    square = cost.T if flip else cost
    reduced = square[:rows] - square[rows]
    picked, cols = linear_sum_assignment(reduced)
    across = square[rows, :reals].sum()
    spread = square[:rows, reals].sum() + across
    value = reduced[picked, cols].sum() + across
    if not 2.0 ** -52 * spread <= REDUCED_SLACK * value:
        return None
    if not flip:
        return cols.tolist()
    partner = [ny] * nx
    for j, i in enumerate(cols.tolist()):
        if i < nx:
            partner[i] = j
    return partner


def _min_sum_assignment(cost: np.ndarray, nx: int, ny: int) -> list[int]:
    """A minimum-sum assignment of the square augmented matrix cost, on the
    reduced problem where it pays and stands, else on the square matrix, its
    copies placed by _copy_rule either way."""
    partner = None
    if nx >= REDUCED_FROM <= ny:
        partner = _reduced_partners(cost, nx, ny)
    if partner is None:
        partner = linear_sum_assignment(cost)[1][:nx].tolist()
    return _copy_rule(partner, nx, ny)


def solve_assignment_sum(prob: AugmentedProblem) -> Matching:
    """Minimum-sum assignment for finite p."""
    if prob.params.p == math.inf:
        raise WrongSolverError("p = inf requires solve_assignment_bottleneck")
    if prob.n == 0:
        return Matching((), (), 0.0)
    return _solved(prob, _min_sum_assignment(prob.cost, prob.n_left_real, prob.n_right_real))


def _cheapest_under(ground: np.ndarray, cost, tau: float):
    """The columns of an assignment that uses only ground entries <= tau and
    has the least sum of cost among those, or None where no such assignment
    exists (scipy reports an infeasible matrix).  cost may be the scalar 0.0:
    the probe is then a pure feasibility check."""
    try:
        return linear_sum_assignment(np.where(ground <= tau, cost, math.inf))[1]
    except ValueError:
        return None


def solve_assignment_bottleneck(prob: AugmentedProblem) -> Matching:
    """Minimum-bottleneck assignment for p = inf.

    The optimum d* is the smallest ground entry whose threshold graph has a
    perfect matching, so the total is exactly a matrix entry.  The lower
    bound (the largest row or column minimum) is probed first; if it fails, a
    binary search probes the distinct entries above it up to the largest
    entry of a minimum-sum assignment of the scaled ground.  The witness is
    the least scaled ground sum under d*: the minimum-sum assignment where its
    largest entry is d*, else one more probe at d*, priced.  Its diagonal
    copies are placed by _copy_rule, as at finite p.
    """
    if prob.params.p != math.inf:
        raise WrongSolverError("finite p requires solve_assignment_sum")
    if prob.n == 0:
        return Matching((), (), 0.0)
    ground = prob.ground
    nx, ny = prob.n_left_real, prob.n_right_real
    priced = ground / _finite_scale(ground)
    lower = max(ground.min(axis=1).max(), ground.min(axis=0).max())
    cols = _cheapest_under(ground, priced, lower)
    if cols is None:
        cols = np.array(_min_sum_assignment(priced, nx, ny))
        upper = ground[np.arange(prob.n), cols].max()
        entries = np.unique(ground[(ground > lower) & (ground <= upper)])
        lo, hi = 0, len(entries) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if _cheapest_under(ground, 0.0, entries[mid]) is not None:
                hi = mid
            else:
                lo = mid + 1
        if hi < len(entries) - 1:
            cols = _cheapest_under(ground, priced, entries[lo])
    return _solved(prob, _copy_rule(cols[:nx].tolist(), nx, ny))


def distance(x: Diagram, y: Diagram, params: MetricParams) -> tuple[float, Matching]:
    """Exact diagram distance and an optimal witness matching.

    The solve always runs on a canonical orientation of the pair, so the
    value is symmetric in its arguments down to the last bit.
    """
    if y.multiset_key() < x.multiset_key():
        value, witness = distance(y, x, params)
        return value, witness.inverse()
    prob = build_augmented_problem(x, y, params)
    if params.p == math.inf:
        m = solve_assignment_bottleneck(prob)
    else:
        m = solve_assignment_sum(prob)
    return m.total, m


@lru_cache(maxsize=None)
def _all_permutations(n: int) -> np.ndarray:
    """Every permutation of range(n), one per row of an (n!, n) array."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _exhaust(x: Diagram, y: Diagram, params: MetricParams,
             what: str) -> tuple[AugmentedProblem, np.ndarray, np.ndarray]:
    """The factorial oracle: the problem, all n! slot permutations and the
    solver objective of each (the sum of its cost entries for finite p, their
    maximum for p = inf).  what names the caller in the size guard's message.
    """
    n = len(x) + len(y)
    if n > FACTORIAL_GUARD:
        raise SizeGuardError(
            f"{what} enumerates all {n}! slot permutations and accepts at most "
            f"{FACTORIAL_GUARD} combined points (got {n})"
        )
    prob = build_augmented_problem(x, y, params)
    perms = _all_permutations(n)
    selected = prob.cost[np.arange(n), perms]
    if params.p == math.inf:
        return prob, perms, selected.max(axis=1, initial=0.0)
    return prob, perms, selected.sum(axis=1)


def brute_force_distance(x: Diagram, y: Diagram, params: MetricParams) -> float:
    """Ground-truth distance by exhausting every slot permutation."""
    prob, perms, objective = _exhaust(x, y, params, "brute_force_distance")
    return _solved(prob, perms[int(np.argmin(objective))]).total


def enumerate_optimal_matchings(x: Diagram, y: Diagram, params: MetricParams) -> list[Matching]:
    """All optimal matchings up to params.tol, deduplicated by geometric action.

    Permutations that differ only in how interchangeable diagonal copies are
    shuffled among themselves describe the same geometric transport and are
    reported once.
    """
    prob, perms, values = _exhaust(x, y, params, "enumerate_optimal_matchings")
    if params.p != math.inf:
        values = prob.scale * values ** (1.0 / params.p)
    cutoff = float(values.min()) + params.tol
    rows = np.flatnonzero(values <= cutoff)
    # a geometric action: 1 + the Y point each X point goes to, or 0 for the
    # diagonal, read as the digits of one integer (under 10**9 within the guard)
    actions = perms[rows, :len(x)] + 1
    actions[actions > len(y)] = 0
    keys = actions @ (len(y) + 1) ** np.arange(len(x))
    _, first = np.unique(keys, return_index=True)
    return [_solved(prob, perms[k]) for k in rows[np.sort(first)]]
