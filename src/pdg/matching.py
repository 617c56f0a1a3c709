"""Optimal matchings between diagrams under the augmented assignment model.

Every distance query is phrased on a square (n_x + n_y) assignment problem:
left slots are the points of X followed by one diagonal copy per point of Y,
right slots are the points of Y followed by one diagonal copy per point of X.
A real pair costs the l^q norm of the coordinate difference, a real point
paired with a diagonal copy costs its perpendicular distance to the diagonal,
and two diagonal copies pair for free.  The matrix is built by numpy
broadcasts over the two point arrays, each entry bitwise equal to the scalar
norm, and a solver reads its witness's pair costs back from the matrix it
solved; matching_cost reprices a given matching from the diagrams alone.

For finite p the solver minimizes the sum of p-th powers (a Hungarian-style
O(n^3) method); for p = inf it minimizes the largest selected entry by
binary-searching the sorted entry values with an augmenting-path perfect
matching feasibility check, so the reported bottleneck value is always an
exact matrix entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from .diagram import Diagram, MetricParams, _qnorm
from .errors import SizeGuardError, StructuralError, WrongSolverError

#: Largest augmented problem size the factorial (enumeration) paths accept.
FACTORIAL_GUARD = 9


@dataclass(frozen=True)
class Matching:
    """A bijection between augmented slots together with its cost breakdown.

    ``assignment[i] = j`` pairs left slot i with right slot j.  For finite p
    the pair costs are the p-th powers of the ground costs and the total is
    (sum pair_costs)^(1/p); for p = inf the pair costs are the ground costs
    themselves and the total is their maximum.
    """

    assignment: tuple[int, ...]
    pair_costs: tuple[float, ...]
    total: float

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.assignment)]

    def inverse(self) -> "Matching":
        """The same matching viewed from the other diagram's side."""
        n = len(self.assignment)
        inv = [0] * n
        costs = [0.0] * n
        for i, j in enumerate(self.assignment):
            inv[j] = i
            costs[j] = self.pair_costs[i]
        return Matching(tuple(inv), tuple(costs), self.total)


@dataclass(frozen=True, eq=False)
class AugmentedProblem:
    """The square cost model for one ordered pair of diagrams.

    ``ground`` holds raw l^q pair costs.  ``cost`` holds the solver objective:
    (ground / scale)^p for finite p (scale is the largest ground entry, which
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


def _real_grounds(diff: np.ndarray, q: float) -> np.ndarray:
    """Elementwise l^q norms of the coordinate differences in diff[..., 0:2],
    each bitwise what _qnorm gives."""
    a = np.abs(diff)
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
    """Elementwise diagonal_distance of the points with (n, 2) coordinates."""
    exponent = 0.0 if q == math.inf else 1.0 / q
    return 2.0 ** (exponent - 1.0) * (coords[:, 1] - coords[:, 0])


def build_augmented_problem(x: Diagram, y: Diagram, params: MetricParams) -> AugmentedProblem:
    nx = len(x)
    ny = len(y)
    n = nx + ny
    q = params.q
    xs = x.geometry()
    ys = y.geometry()
    ground = np.zeros((n, n), dtype=float)
    ground[:nx, :ny] = _real_grounds(xs[:, None] - ys[None, :], q)
    ground[:nx, ny:] = _diagonal_grounds(xs, q)[:, None]
    ground[nx:, :ny] = _diagonal_grounds(ys, q)
    if params.p == math.inf:
        return AugmentedProblem(x, y, params, ground, ground, 1.0)
    scale = float(ground.max()) if n else 0.0
    if scale == 0.0:
        scale = 1.0
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


def _assignment_grounds(x: Diagram, y: Diagram, assignment, q: float) -> list[float]:
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
    grounds[:nx] = _diagonal_grounds(xs, q)
    grounds[:nx][real] = _real_grounds(xs[real] - ys[partner[real]], q)
    # a diagonal copy takes a point of Y to the diagonal, or else another copy
    partner = cols[nx:]
    real = partner < ny
    grounds[nx:][real] = _diagonal_grounds(ys[partner[real]], q)
    return grounds.tolist()


def _aggregate(grounds, p: float) -> float:
    if not grounds:
        return 0.0
    if p == math.inf:
        return max(grounds)
    if p == 1.0:
        return math.fsum(grounds)
    scale = max(grounds)
    if scale == 0.0:
        return 0.0
    return scale * math.fsum((g / scale) ** p for g in grounds) ** (1.0 / p)


def _matching(assignment: tuple[int, ...], grounds: list[float], p: float) -> Matching:
    total = _aggregate(grounds, p)
    if p == math.inf:
        pair_costs = tuple(grounds)
    else:
        pair_costs = tuple(g ** p for g in grounds)
    return Matching(assignment, pair_costs, total)


def _solved(prob: AugmentedProblem, assignment) -> Matching:
    """The matching of a solved assignment, its pair grounds read from prob.ground."""
    cols = np.asarray(assignment, dtype=np.intp)
    grounds = prob.ground[np.arange(prob.n), cols].tolist()
    return _matching(tuple(cols.tolist()), grounds, prob.params.p)


def matching_cost(x: Diagram, y: Diagram, m: Matching, params: MetricParams) -> float:
    """Cost of a given matching, recomputed from the diagrams."""
    grounds = _assignment_grounds(x, y, m.assignment, params.q)
    return _aggregate(grounds, params.p)


def matching_from_assignment(x: Diagram, y: Diagram, assignment, params: MetricParams) -> Matching:
    """Materialize a Matching (with costs) from a bare slot permutation."""
    grounds = _assignment_grounds(x, y, assignment, params.q)
    return _matching(tuple(int(j) for j in assignment), grounds, params.p)


def solve_assignment_sum(prob: AugmentedProblem) -> Matching:
    """Minimum-sum assignment for finite p."""
    if prob.params.p == math.inf:
        raise WrongSolverError("p = inf requires solve_assignment_bottleneck")
    if prob.n == 0:
        return Matching((), (), 0.0)
    _, cols = linear_sum_assignment(prob.cost)
    return _solved(prob, cols)


def _perfect_matching_under(ground: np.ndarray, tau: float):
    """Perfect matching using only entries <= tau, or None."""
    n = ground.shape[0]
    adj = [np.flatnonzero(ground[i] <= tau) for i in range(n)]
    match_right = [-1] * n

    def try_augment(i: int, visited: list[bool]) -> bool:
        for j in adj[i]:
            if not visited[j]:
                visited[j] = True
                if match_right[j] < 0 or try_augment(match_right[j], visited):
                    match_right[j] = i
                    return True
        return False

    for i in range(n):
        if not try_augment(i, [False] * n):
            return None
    assignment = [-1] * n
    for j, i in enumerate(match_right):
        assignment[i] = j
    return tuple(assignment)


def solve_assignment_bottleneck(prob: AugmentedProblem) -> Matching:
    """Minimum-bottleneck assignment for p = inf.

    Binary search over the sorted distinct ground entries; the optimum is the
    smallest entry value admitting a perfect matching, hence the returned
    total is exactly one of the matrix entries.
    """
    if prob.params.p != math.inf:
        raise WrongSolverError("finite p requires solve_assignment_sum")
    if prob.n == 0:
        return Matching((), (), 0.0)
    entries = np.unique(prob.ground)
    lo, hi = 0, len(entries) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching_under(prob.ground, float(entries[mid])) is not None:
            hi = mid
        else:
            lo = mid + 1
    return _solved(prob, _perfect_matching_under(prob.ground, float(entries[lo])))


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
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _guard(n: int, what: str) -> None:
    if n > FACTORIAL_GUARD:
        raise SizeGuardError(
            f"{what} enumerates all {n}! slot permutations and accepts at most "
            f"{FACTORIAL_GUARD} combined points (got {n})"
        )


def brute_force_distance(x: Diagram, y: Diagram, params: MetricParams) -> float:
    """Ground-truth distance by exhausting every slot permutation."""
    n = len(x) + len(y)
    _guard(n, "brute_force_distance")
    if n == 0:
        return 0.0
    prob = build_augmented_problem(x, y, params)
    perms = _all_permutations(n)
    selected = prob.cost[np.arange(n)[None, :], perms]
    if params.p == math.inf:
        totals = selected.max(axis=1)
    else:
        totals = selected.sum(axis=1)
    return _solved(prob, perms[int(np.argmin(totals))]).total


def enumerate_optimal_matchings(x: Diagram, y: Diagram, params: MetricParams) -> list[Matching]:
    """All optimal matchings up to params.tol, deduplicated by geometric action.

    Permutations that differ only in how interchangeable diagonal copies are
    shuffled among themselves describe the same geometric transport and are
    reported once.
    """
    nx = len(x)
    ny = len(y)
    n = nx + ny
    _guard(n, "enumerate_optimal_matchings")
    if n == 0:
        return [Matching((), (), 0.0)]
    prob = build_augmented_problem(x, y, params)
    perms = _all_permutations(n)
    selected = prob.cost[np.arange(n)[None, :], perms]
    if params.p == math.inf:
        values = selected.max(axis=1)
    else:
        values = prob.scale * selected.sum(axis=1) ** (1.0 / params.p)
    cutoff = float(values.min()) + params.tol
    out: list[Matching] = []
    seen: set[tuple[int, ...]] = set()
    for k in np.flatnonzero(values <= cutoff):
        perm = perms[k]
        action = tuple(int(perm[i]) if perm[i] < ny else -1 for i in range(nx))
        if action in seen:
            continue
        seen.add(action)
        out.append(_solved(prob, perm))
    return out
