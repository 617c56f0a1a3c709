"""Transport-plan view of the matching distance (Euclidean ground metric only).

Augmented diagrams carry uniform unit mass per slot, so admissible plans are
doubly stochastic matrices over the slots and permutation matrices are their
extreme points.  The infimal transport cost over all plans therefore equals
the optimal assignment value, which this module checks exhaustively on small
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagram import Diagram, MetricParams
from .errors import InvalidCouplingError, ParameterDomainError, StructuralError
from .matching import AugmentedProblem, Matching, _aggregate, _exhaust, _solved, distance

MARGINAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Coupling:
    """A transport plan between augmented slots with uniform marginals."""

    matrix: np.ndarray
    mass: float = 1.0

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidCouplingError(f"coupling matrix must be square, got shape {matrix.shape}")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise InvalidCouplingError(f"mass must be a positive real, got {self.mass}")
        # a failed >= 0 test, so that NaN, which fails every comparison, is caught
        # too; an infinite entry fails the marginal check below
        if matrix.size and not float(matrix.min()) >= 0.0:
            raise InvalidCouplingError("coupling entries must be nonnegative, and not NaN")
        rows = matrix.sum(axis=1)
        cols = matrix.sum(axis=0)
        for label, sums in (("row", rows), ("column", cols)):
            if sums.size:
                worst = float(np.max(np.abs(sums - self.mass)))
                if worst > MARGINAL_TOL:
                    raise InvalidCouplingError(
                        f"{label} sums deviate from mass {self.mass} by {worst:.3e} "
                        f"(tolerance {MARGINAL_TOL:.0e})"
                    )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "mass", float(self.mass))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def coupling_from_matching(m: Matching) -> Coupling:
    """The permutation plan that moves each slot onto its matched slot."""
    n = len(m.assignment)
    matrix = np.zeros((n, n), dtype=float)
    matrix[np.arange(n), m.assignment] = 1.0
    return Coupling(matrix, 1.0)


def transport_cost(prob: AugmentedProblem, coupling: Coupling, p: float) -> float:
    """(sum_ij ground_ij^p * gamma_ij)^(1/p) for the Euclidean ground metric.

    The matching total's l^p sum (_aggregate) over the support of the plan,
    each term weighted by its plan entry, so a permutation plan reproduces
    the matching total exactly and a total beyond the float range is refused
    alike.
    """
    if prob.params.q != 2.0:
        raise ParameterDomainError(
            f"transport costs are defined for q = 2 only, got q = {prob.params.q:g}"
        )
    if not (1.0 <= p < math.inf):
        raise ParameterDomainError(f"transport exponent p must lie in [1, inf), got {p}")
    if coupling.n != prob.n:
        raise StructuralError(
            f"coupling has {coupling.n} slots but the problem defines {prob.n}"
        )
    support = np.nonzero(coupling.matrix > 0.0)
    return _aggregate(prob.ground[support].tolist(), p, coupling.matrix[support].tolist())


@dataclass(frozen=True)
class OtReport:
    """Outcome of the exhaustive plan-versus-assignment comparison."""

    assignment_value: float
    coupling_min_value: float
    agree: bool


def verify_ot_equivalence(x: Diagram, y: Diagram, p: float, tol: float = 1e-9) -> OtReport:
    """Compare the assignment optimum with the infimum over permutation plans.

    Extreme points of the doubly stochastic polytope are permutations and the
    plan cost is monotone under convex combination at the p-th power level, so
    the exhaustive permutation minimum is the true infimum over all plans.
    """
    params = MetricParams(p, 2.0, tol)
    prob, perms, objective = _exhaust(x, y, params, "verify_ot_equivalence")
    assignment_value, _ = distance(x, y, params)
    best = _solved(prob, perms[int(np.argmin(objective))])
    coupling_min = transport_cost(prob, coupling_from_matching(best), p)
    return OtReport(assignment_value, coupling_min, abs(assignment_value - coupling_min) <= tol)


def random_doubly_stochastic(rng: np.random.Generator, n: int,
                             target: float = 5e-13, max_iter: int = 10000) -> Coupling:
    """A random interior plan via iterative proportional fitting.

    Alternating row and column normalization of a strictly positive random
    matrix converges to a doubly stochastic one; iteration stops once both
    marginals sit within the coupling tolerance.
    """
    if n <= 0:
        raise ParameterDomainError(f"plan size must be positive, got {n}")
    matrix = rng.uniform(0.05, 1.0, size=(n, n))
    for _ in range(max_iter):
        matrix /= matrix.sum(axis=1, keepdims=True)
        matrix /= matrix.sum(axis=0, keepdims=True)
        worst = max(
            float(np.max(np.abs(matrix.sum(axis=1) - 1.0))),
            float(np.max(np.abs(matrix.sum(axis=0) - 1.0))),
        )
        if worst <= target:
            return Coupling(matrix.copy(), 1.0)
    raise InvalidCouplingError(
        f"iterative fitting failed to reach marginal deviation {target:.0e} "
        f"within {max_iter} sweeps"
    )
