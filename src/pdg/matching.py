"""Optimal matchings between diagrams under the augmented assignment model.

Every distance query is phrased on a square (n_x + n_y) assignment problem:
left slots are the points of X followed by one diagonal copy per point of Y,
right slots are the points of Y followed by one diagonal copy per point of X.
A real pair costs the l^q norm of the coordinate difference, a real point
paired with a diagonal copy costs its perpendicular distance to the diagonal,
and two diagonal copies pair for free.  A point whose distance to the
diagonal exceeds the float range is refused, and a real pair whose norm
overflows costs +inf at every p and q.  Below NUMPY_BUILD_FROM combined
slots the matrix is built on Python floats (each real pair's _qnorm, each
point's diagram._diagonal_ground, the diagonal factor taken once) and
handed to numpy once; from there on by numpy broadcasts over one plane per
coordinate axis.  A pair with an empty side is never built: distance
returns its one matching, every point to the diagonal, directly.  Either
way each distinct entry is computed once and is bitwise the scalar norm: at
q = 2 the numpy build's real pairs go through math.hypot one lane at a
time, or from HYPOT_PORT_FROM pairs on through _hypot_port, a numpy port of
CPython's math.hypot that falls back to it on zero, infinite and subnormal
lanes.  At
finite p, from BLOCKWISE_POWER_FROM pairs on, the p-th power is taken over
the distinct costs only.  A solver reads its witness's grounds back from
the matrix it solved; matching_cost reprices a given matching from the
diagrams alone.  Both total the grounds by one l^p sum, _aggregate, which
refuses a finite total beyond the float range at every finite p.

For finite p the solver minimizes the sum of p-th powers (a Hungarian-style
O(n^3) method).  From REDUCED_FROM points on each side it solves a reduced
problem: the smaller side's points as rows against the other side's points
and the diagonal, min(n_x, n_y) x (n_x + n_y) entries, so the zero block of
copy pairs never reaches the solver.  The reduction subtracts diagonal
costs from pair costs, so where the two diagrams nearly coincide it rounds
the close partners' costs together; its result is then refused and the
square matrix solved instead.  The reduced solve is not the faster one at
every size and (p, q) (CHANGES.md gives the timings): the subtracted diagonal
costs make the tall points attractive to every row, which likely lengthens
the solver's augmenting paths.  Every matching built from an action (the
witness, each enumerated optimum and the exhaustive one) places the
interchangeable diagonal copies by _copy_rule: a point sent to the diagonal
takes its own copy, so does an unmatched point on the other side, and the
copies of a real pair's two points pair with each other.

For p = inf the solver minimizes the largest selected entry: the optimum is
the smallest entry whose threshold graph has a perfect matching, so the
reported bottleneck value is always an exact matrix entry.  Each threshold
is probed by one linear_sum_assignment with +inf above it, which scipy
refuses as infeasible where no perfect matching is left.  The search is
bracketed between the largest row or column minimum and the largest entry of
a minimum-sum assignment of ground / AugmentedProblem.scale (solved as for
finite p), tries the lower bound first, and binary-searches the distinct
entries in between, each feasible probe lowering the top to its own largest
entry.  The witness is, among the assignments whose entries all lie within
the optimum, one of least sum of ground / scale, the scale that prices every
finite p, its diagonal copies placed by the finite-p rule.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from .diagram import Diagram, MetricParams, _diagonal_factor, _diagonal_ground, _qnorm
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
        slots = _check_assignment(len(self.assignment), self.assignment)
        inv = [0] * len(slots)
        for i, j in enumerate(slots):
            inv[j] = i
        return Matching(tuple(inv), tuple(self.grounds[i] for i in inv), self.total)


@dataclass(frozen=True, eq=False)
class AugmentedProblem:
    """The square cost model for one ordered pair of diagrams.

    ``ground`` holds raw l^q pair costs and ``scale`` its largest finite entry
    (1.0 where that is 0).  ``cost`` holds the solver objective:
    (ground / scale)^p for finite p, which keeps powers bounded by one, and
    ground itself for p = inf, where the scale prices the witness.
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


def _lanes(norm, ax: np.ndarray, ay: np.ndarray, *rest) -> np.ndarray:
    """norm(x, y, *rest) over the lanes of two planes of one shape, x from ax
    and y from ay, as a float array of that shape: one map over the planes'
    two tolists, each lane taken on Python floats."""
    xs = ax.ravel().tolist()
    return np.fromiter(map(norm, xs, ay.ravel().tolist(), *rest), float, len(xs)).reshape(ax.shape)


#: q = 2 grounds go through _hypot_port from this many entries, and through
#: math.hypot lane by lane below it.  On the real block alone (births in
#: [-5, 5], persistences in [0.1, 4]; median of 7 rounds of best of 200 on a
#: shared 2-core host) the lanes took 66 us at 400 entries against the port's
#: 103, 122 against 123 at 784, 132 against 132 at 841 and 141 against 124 at
#: 900; a whole p = q = 2 distance took 233 against 263 us at 25 per side and
#: 321 against 322 at 30.
HYPOT_PORT_FROM = 800

#: At finite p, from this many real entries on, the cost is raised to the
#: p-th power block by block, on the nx * ny + nx + ny distinct entries
#: rather than the whole (nx + ny)^2 square.  Assembling the cost from its
#: blocks takes some ten more numpy calls (about 4 us): at p = 1.5 it cost
#: 9.6 against 5.8 us at 3 points per side, broke even at 15 and saved 56 us
#: at 50.  At p = 1 and 2, where numpy's power is a copy or a square, it
#: saved nothing even at 50 points per side.
BLOCKWISE_POWER_FROM = 400

#: Veltkamp's splitting constant for doubles, 2^27 + 1.
_SPLITTER = 134217729.0


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of x into hi + lo, each half as many bits wide, so
    that hi * hi, 2 * hi * lo and lo * lo are exact."""
    t = x * _SPLITTER
    hi = t - (t - x)
    return hi, x - hi


def _fast_two_sum(csum, x):
    """csum + x and its rounding error, exact where |csum| >= |x|."""
    total = csum + x
    return total, (csum - total) + x


def _hypot_port(ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """math.hypot(ax, ay) elementwise, bitwise, for arrays of non-negative
    coordinates: a port of the two-argument vector_norm of CPython 3.11
    (Modules/mathmodule.c), the Python this package is tested on.  Each step
    is one correctly rounded IEEE operation on whole arrays, in the order the
    C code takes them, so the result does not depend on which SIMD kernel
    numpy dispatches.

    The larger coordinate is scaled into [0.5, 1) by a power of two.  Each
    coordinate's square is split exactly into hi^2, 2 hi lo and lo^2; the
    first two are added to 1.0 by Fast2Sum, their rounding errors summed in
    frac1 and frac2, and lo^2 is summed in frac3.  The square root of the sum
    less 1.0 is corrected once, by the residual left after its own square is
    subtracted the same way.  A lane whose larger coordinate is 0, inf, NaN
    or subnormal (where vector_norm takes another path) yields NaN or a frexp
    exponent below -1021, and is recomputed by math.hypot.  A CPython whose
    math.hypot differs fails the bitwise differential test in
    tests/test_matching.py."""
    with np.errstate(all="ignore"):
        # ldexp by -e and by e round as the C code's product with, and
        # quotient by, scale = 2^-e do: both are one correctly rounded step
        e = np.frexp(np.maximum(ax, ay))[1]
        hi, lo = _split(np.ldexp(np.stack((ax, ay)), -e))
        csum = 1.0
        frac1 = frac2 = 0.0
        for square, cross in zip(hi * hi, 2.0 * hi * lo):
            csum, err = _fast_two_sum(csum, square)
            frac1 = frac1 + err
            csum, err = _fast_two_sum(csum, cross)
            frac2 = frac2 + err
        frac3 = lo[0] * lo[0] + lo[1] * lo[1]
        h = np.sqrt(csum - 1.0 + (frac1 + frac2 + frac3))
        hi, lo = _split(h)
        csum, err = _fast_two_sum(csum, -hi * hi)
        frac1 += err
        csum, err = _fast_two_sum(csum, -2.0 * hi * lo)
        frac2 += err
        csum, err = _fast_two_sum(csum, -lo * lo)
        frac3 += err
        h += (csum - 1.0 + (frac1 + frac2 + frac3)) / (2.0 * h)
        out = np.ldexp(h, e)
        special = np.isnan(out) | (e < -1021)
        if special.any():
            out[special] = _lanes(math.hypot, ax[special], ay[special])
    return out


def _real_grounds(xs: np.ndarray, ys: np.ndarray, q: float) -> np.ndarray:
    """Elementwise l^q norms of the differences of the (broadcast) coordinate
    rows xs - ys, each bitwise what _qnorm gives, taken on one contiguous
    plane per axis.  np.hypot is not used: it differs from math.hypot in the
    last bit on some entries, and a witness must reprice to its value exactly
    and a bottleneck value be an entry of an independently built matrix.
    Near +-1e308 a difference overflows, and its norm is +inf at every q; the
    callers price it, and run this and _diagonal_grounds under one
    np.errstate that silences numpy's overflow warnings."""
    ax = np.abs(xs[..., 0] - ys[..., 0])
    ay = np.abs(xs[..., 1] - ys[..., 1])
    if q == 1.0:
        return ax + ay
    if q == math.inf:
        return np.maximum(ax, ay)
    if q == 2.0:
        if ax.size >= HYPOT_PORT_FROM:
            return _hypot_port(ax, ay)
        return _lanes(math.hypot, ax, ay)
    return _lanes(_qnorm, ax, ay, itertools.repeat(q))


def _diagonal_grounds(coords: np.ndarray, q: float) -> np.ndarray:
    """Elementwise _diagonal_ground of the points with (n, 2) coordinates,
    bitwise: c * persistence, or c * death - c * birth where that overflows.
    A distance that overflows even so is beyond the float range: the point is
    refused, at every p alike."""
    c = _diagonal_factor(q)
    grounds = c * (coords[:, 1] - coords[:, 0])
    if math.inf in grounds.tolist():  # at a few points, cheaper than a numpy reduction
        over = np.isinf(grounds)
        grounds[over] = c * coords[over, 1] - c * coords[over, 0]
        if math.inf in grounds[over].tolist():
            _diagonal_ground(*coords[np.isinf(grounds)][0].tolist(), q, c)  # raises: the first refused point
    return grounds


def _python_ground(xs: list, ys: list, q: float) -> np.ndarray:
    """The augmented ground of the (birth, death) rows xs and ys, laid out as
    _augmented lays it out, built on Python floats and handed to numpy once:
    each real pair's _qnorm and each point's _diagonal_ground, bitwise the
    numpy build's entries."""
    nx = len(xs)
    ny = len(ys)
    c = _diagonal_factor(q)
    # X's diagonal grounds first, so a refused point is the one numpy names
    across = [_diagonal_ground(birth, death, q, c) for birth, death in xs]
    copies = [_diagonal_ground(birth, death, q, c) for birth, death in ys] + [0.0] * nx
    flat = []
    for (xb, xd), diagonal in zip(xs, across):
        if q == 2.0:  # bitwise _qnorm's math.hypot, which takes the absolute values itself
            flat += [math.hypot(xb - yb, xd - yd) for yb, yd in ys]
        else:
            flat += [_qnorm(xb - yb, xd - yd, q) for yb, yd in ys]
        flat += [diagonal] * nx
    flat += copies * ny
    n = nx + ny
    return np.fromiter(flat, float, n * n).reshape(n, n)


def _augmented(real: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """The square augmented matrix of an nx x ny real block and the nx + ny
    diagonal entries of the points of X then Y: x_i's down row i of the
    diagonal-copy columns, y_j's along column j of the diagonal-copy rows,
    and 0 where two copies pair."""
    nx, ny = real.shape
    out = np.zeros((nx + ny, nx + ny))
    out[:nx, :ny] = real
    out[:nx, ny:] = diagonal[:nx, None]
    out[nx:, :ny] = diagonal[nx:]
    return out


#: Augmented problems of fewer than this many combined slots (nx + ny) are
#: built on Python floats by _python_ground, larger ones by numpy broadcasts,
#: whose twenty-odd calls cost some 11-15 us whatever the size.  Counted in
#: slots, not real pairs, so a (0, 500) problem never takes the Python path,
#: and its real block, at most 16 entries, stays below BLOCKWISE_POWER_FROM.
#: A whole build (best of 7 x 1000 on a shared 2-core host, Python against
#: numpy) took 6.9 against 14.5 us at (0, 4) and 15.0 against 19.7 at (5, 5)
#: at p = q = 2; at q = 1 and inf the two met near 9 slots, and numpy won
#: from 10 (13.9 against 23.9 us at (5, 5), q = inf).
NUMPY_BUILD_FROM = 9


def build_augmented_problem(x: Diagram, y: Diagram, params: MetricParams) -> AugmentedProblem:
    """The augmented problem of x against y.  Each distinct ground (a real
    pair's, or one point's diagonal distance) is computed once: on Python
    floats below NUMPY_BUILD_FROM combined slots, where numpy's fixed cost
    per call outweighs the work, and by numpy broadcasts from there on.  So
    is each distinct cost, where p is neither 1 nor 2 and the real block has
    at least BLOCKWISE_POWER_FROM entries; either way each cost entry is
    bitwise (ground / scale)^p."""
    q = params.q
    xs = x.geometry()
    ys = y.geometry()
    if len(xs) + len(ys) < NUMPY_BUILD_FROM:
        ground = _python_ground(xs.tolist(), ys.tolist(), q)
    else:
        with np.errstate(over="ignore"):
            real = _real_grounds(xs[:, None], ys[None, :], q)
            diagonal = _diagonal_grounds(np.concatenate((xs, ys)), q)
        ground = _augmented(real, diagonal)
    # the largest finite ground, or 1.0 where that is 0: an overflowed norm is
    # left out, so its scaled cost is +inf, which the solvers price out
    scale = float(ground.max(initial=0.0))
    if scale == math.inf:
        scale = float(ground.max(where=ground < math.inf, initial=0.0))
    scale = scale or 1.0
    p = params.p
    if p == math.inf:
        cost = ground
    elif p in (1.0, 2.0) or len(xs) * len(ys) < BLOCKWISE_POWER_FROM:
        cost = (ground / scale) ** p
    else:
        cost = _augmented((real / scale) ** p, (diagonal / scale) ** p)
    return AugmentedProblem(x, y, params, ground, cost, scale)


def _check_assignment(n: int, assignment) -> tuple[int, ...]:
    """The slots of an assignment as a tuple of Python ints, refused unless it
    is a bijection of n slots onto n slots (the one rule every caller handed a
    matching or an assignment relies on) whose slots are ints or numpy
    integers: a bool, a float, a string or any other entry is refused."""
    if len(assignment) != n:
        raise StructuralError(f"matching covers {len(assignment)} slots but the diagrams define {n}")
    exact = {int}.issuperset(map(type, assignment))  # one pass; a bool's type is not int
    if exact or all(type(slot) is int or isinstance(slot, np.integer) for slot in assignment):
        slots = tuple(assignment if exact else map(int, assignment))
        if sorted(slots) == list(range(n)):
            return slots
    raise StructuralError("assignment is not a permutation of the right slots")


def _assignment_grounds(x: Diagram, y: Diagram, assignment, q: float) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The checked slots of an assignment and its n selected entries of the
    ground matrix, computed without building it."""
    nx = len(x)
    ny = len(y)
    slots = _check_assignment(nx + ny, assignment)
    xs = x.geometry()
    ys = y.geometry()
    cols = np.array(slots, dtype=np.intp)
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
    return slots, tuple(grounds.tolist())


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


def _solved(prob: AugmentedProblem, assignment: list[int]) -> Matching:
    """The matching of a solved assignment, its grounds read from prob.ground."""
    grounds = tuple(map(prob.ground.item, range(prob.n), assignment))
    return Matching(tuple(assignment), grounds, _aggregate(grounds, prob.params.p))


def matching_cost(x: Diagram, y: Diagram, m: Matching, params: MetricParams) -> float:
    """Cost of a given matching, recomputed from the diagrams."""
    _, grounds = _assignment_grounds(x, y, m.assignment, params.q)
    return _aggregate(grounds, params.p)


def matching_from_assignment(x: Diagram, y: Diagram, assignment, params: MetricParams) -> Matching:
    """Materialize a Matching (with costs) from a bare slot permutation."""
    slots, grounds = _assignment_grounds(x, y, assignment, params.q)
    return Matching(slots, grounds, _aggregate(grounds, params.p))


def _copy_rule(partner: list[int], nx: int, ny: int) -> list[int]:
    """The square assignment that pairs x_i with y_partner[i] where
    partner[i] < ny, with the canonical rule for the interchangeable diagonal
    copies: a point of X sent to the diagonal takes its own copy
    (x_i -> ny + i), an unmatched point of Y takes its own copy
    (nx + j -> j), and the copies of a real pair's partners pair with each
    other (nx + j -> ny + i).  Every copy of one point costs the same, so
    the rule keeps any assignment's value; it is closed under inversion."""
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
    entry of a minimum-sum assignment of ground / prob.scale; a feasible
    probe lowers the search's top to its own assignment's largest entry.  The
    witness is the least sum of ground / prob.scale under d*: the minimum-sum
    assignment where its largest entry is d*, else one more probe at d*,
    priced.  Its diagonal copies are placed by _copy_rule, as at finite p.
    """
    if prob.params.p != math.inf:
        raise WrongSolverError("finite p requires solve_assignment_sum")
    if prob.n == 0:
        return Matching((), (), 0.0)
    ground = prob.ground
    nx, ny = prob.n_left_real, prob.n_right_real
    priced = ground / prob.scale
    lower = max(ground.min(axis=1).max(), ground.min(axis=0).max())
    cols = _cheapest_under(ground, priced, lower)
    if cols is None:
        rows = np.arange(prob.n)
        cols = np.array(_min_sum_assignment(priced, nx, ny))
        upper = ground[rows, cols].max()
        entries = np.unique(ground[(ground > lower) & (ground <= upper)])
        lo, hi = 0, len(entries) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            found = _cheapest_under(ground, 0.0, entries[mid])
            if found is None:
                lo = mid + 1
            else:
                # the probe's own largest entry is feasible too; it exceeds
                # lower, whose probe failed, so it is one of the entries
                hi = int(entries.searchsorted(ground[rows, found].max()))
        if hi < len(entries) - 1:
            cols = _cheapest_under(ground, priced, entries[lo])
    return _solved(prob, _copy_rule(cols[:nx].tolist(), nx, ny))


def distance(x: Diagram, y: Diagram, params: MetricParams) -> tuple[float, Matching]:
    """Exact diagram distance and an optimal witness matching.

    The solve always runs on a canonical orientation of the pair, so the
    value is symmetric in its arguments down to the last bit.  The empty
    diagram orients first, and against it there is one matching, every point
    to the diagonal: it is returned as the solvers would return it, with no
    problem built.
    """
    if y.multiset_key() < x.multiset_key():
        value, witness = distance(y, x, params)
        return value, witness.inverse()
    if len(x) == 0:
        q = params.q
        c = _diagonal_factor(q)
        grounds = tuple(_diagonal_ground(birth, death, q, c) for birth, death in y.geometry().tolist())
        m = Matching(tuple(_copy_rule([], 0, len(y))), grounds, _aggregate(grounds, params.p))
        return m.total, m
    prob = build_augmented_problem(x, y, params)
    if params.p == math.inf:
        m = solve_assignment_bottleneck(prob)
    else:
        m = solve_assignment_sum(prob)
    return m.total, m


@lru_cache(maxsize=None)
def _all_actions(nx: int, ny: int) -> np.ndarray:
    """One row per geometric action, in lexicographic order of the actions
    (the diagonal last): its slot permutation by _copy_rule.  An action whose
    real targets repeat has no row."""
    actions = itertools.product(range(ny + 1), repeat=nx)  # ny: the diagonal
    return np.array([_copy_rule(action, nx, ny) for action in actions
                     if len(set(action) - {ny}) == nx - action.count(ny)], dtype=np.int64)


def _exhaust(x: Diagram, y: Diagram, params: MetricParams,
             what: str) -> tuple[AugmentedProblem, np.ndarray, np.ndarray, Matching]:
    """The exhaustive oracle: the problem, each geometric action's _copy_rule
    slot permutation (shuffling diagonal copies moves nothing), the solver
    objective of each (the sum of its cost entries for finite p, their
    maximum for p = inf) and the matching of the first that minimizes it.
    what names the caller in the size guard's message."""
    n = len(x) + len(y)
    if n > FACTORIAL_GUARD:
        raise SizeGuardError(
            f"{what} enumerates all {n}! slot permutations up to shuffles of the "
            f"diagonal copies and accepts at most {FACTORIAL_GUARD} combined points (got {n})"
        )
    prob = build_augmented_problem(x, y, params)
    actions = _all_actions(len(x), len(y))
    selected = prob.cost[np.arange(n), actions]
    objective = selected.max(axis=1, initial=0.0) if params.p == math.inf else selected.sum(axis=1)
    return prob, actions, objective, _solved(prob, actions[int(np.argmin(objective))].tolist())


def brute_force_distance(x: Diagram, y: Diagram, params: MetricParams) -> float:
    """Ground-truth distance by exhausting every geometric action."""
    return _exhaust(x, y, params, "brute_force_distance")[3].total


def enumerate_optimal_matchings(x: Diagram, y: Diagram, params: MetricParams) -> list[Matching]:
    """All optimal matchings up to params.tol, one per geometric action in
    lexicographic order, each its action's slot permutation by _copy_rule.  An
    action is kept where its objective is within the optimum's total plus tol,
    taken into the objective's units, or within the objective's own rounding
    (p + 2n ulps) of its least value."""
    prob, actions, objective, best = _exhaust(x, y, params, "enumerate_optimal_matchings")
    cutoff = best.total + params.tol
    if params.p != math.inf:
        # n costs of at most 1 a row: the cap at n keeps all rows and the power
        # finite; where tol is below the rounding, the floor keeps the optimum
        slack = 1.0 + (params.p + 2 * prob.n) * 2.0**-52
        cutoff = max(min(cutoff / prob.scale, prob.n) ** params.p, float(objective.min()) * slack)
    return [_solved(prob, row) for row in actions[objective <= cutoff].tolist()]
