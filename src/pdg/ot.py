"""Transport-plan view of the matching distance (Euclidean ground metric only).

Augmented diagrams carry uniform unit mass per slot, so admissible plans are
doubly stochastic matrices over the slots and permutation matrices are their
extreme points.  The infimal transport cost over all plans therefore equals
the optimal assignment value, which this module checks exhaustively on small
instances.  ``random_doubly_stochastic`` builds on the same fact: it draws a
plan as a convex mixture of random permutation matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagram import DEFAULT_TOL, Diagram, MetricParams, _checked_count, _within
from .errors import InvalidCouplingError, ParameterDomainError, StructuralError
from .matching import AugmentedProblem, Matching, _aggregate, _check_assignment, _exhaust, distance

MARGINAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Coupling:
    """A transport plan between augmented slots with unit marginals."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidCouplingError(f"coupling matrix must be square, got shape {matrix.shape}")
        # a failed >= 0 test, so that NaN, which fails every comparison, is caught
        # too; an infinite entry fails the marginal check below
        if matrix.size and not float(matrix.min()) >= 0.0:
            raise InvalidCouplingError("coupling entries must be nonnegative, and not NaN")
        rows = matrix.sum(axis=1)
        cols = matrix.sum(axis=0)
        for label, sums in (("row", rows), ("column", cols)):
            if sums.size:
                worst = float(np.max(np.abs(sums - 1.0)))
                if worst > MARGINAL_TOL:
                    raise InvalidCouplingError(
                        f"{label} sums deviate from 1 by {worst:.3e} "
                        f"(tolerance {MARGINAL_TOL:.0e})"
                    )
        object.__setattr__(self, "matrix", matrix)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def coupling_from_matching(m: Matching) -> Coupling:
    """The permutation plan that moves each slot onto its matched slot."""
    n = len(m.assignment)
    slots = _check_assignment(n, m.assignment)
    matrix = np.zeros((n, n), dtype=float)
    matrix[np.arange(n), slots] = 1.0
    return Coupling(matrix)


def _check_transport_params(params: MetricParams) -> None:
    """ParameterDomainError unless params price a transport plan: q = 2 and
    finite p."""
    if params.q != 2.0:
        raise ParameterDomainError(f"transport costs are defined for q = 2 only, got q = {params.q:g}")
    if params.p == math.inf:
        raise ParameterDomainError("transport costs are defined for finite p only, got p = inf")


def transport_cost(prob: AugmentedProblem, coupling: Coupling) -> float:
    """(sum_ij ground_ij^p * gamma_ij)^(1/p) at the problem's own p, Euclidean ground.

    The matching total's l^p sum (_aggregate) over the support of the plan,
    each term weighted by its plan entry, so a permutation plan reproduces
    the matching total exactly and a total beyond the float range is refused
    alike.
    """
    _check_transport_params(prob.params)
    if coupling.n != prob.n:
        raise StructuralError(
            f"coupling has {coupling.n} slots but the problem defines {prob.n}"
        )
    support = np.nonzero(coupling.matrix > 0.0)
    return _aggregate(prob.ground[support].tolist(), prob.params.p, coupling.matrix[support].tolist())


@dataclass(frozen=True)
class OtReport:
    """Outcome of the exhaustive plan-versus-assignment comparison; agree is
    diagram._within(|difference|, assignment_value, DEFAULT_TOL)."""

    assignment_value: float
    coupling_min_value: float
    agree: bool


def verify_ot_equivalence(x: Diagram, y: Diagram, p: float) -> OtReport:
    """Compare the assignment optimum with the infimum over permutation plans.

    Permutations are the doubly stochastic polytope's extreme points and the
    p-th power cost is affine in the plan, so the least permutation plan, one
    per geometric action from the exhaustive scan, is the infimum over all plans.
    p = inf is refused, as transport_cost refuses it, before anything is built.
    """
    params = MetricParams(p, 2.0)
    _check_transport_params(params)
    prob, _, _, best = _exhaust(x, y, params, "verify_ot_equivalence")
    assignment_value, _ = distance(x, y, params)
    coupling_min = transport_cost(prob, coupling_from_matching(best))
    agree = _within(abs(assignment_value - coupling_min), assignment_value, DEFAULT_TOL)
    return OtReport(assignment_value, coupling_min, agree)


def random_doubly_stochastic(rng: np.random.Generator, n: int) -> Coupling:
    """A random plan: a mixture of n random permutation plans.

    Permutation matrices are the extreme points of the doubly stochastic
    polytope (Birkhoff-von Neumann), so any convex mixture of them is a plan.
    The weights are drawn uniform in [0.05, 1] and normalised to sum 1, which
    puts every row and column sum at 1 up to rounding.
    """
    n = _checked_count("plan size", n)
    if n <= 0:
        raise ParameterDomainError(f"plan size must be positive, got {n}")
    weights = rng.uniform(0.05, 1.0, size=n)
    weights /= weights.sum()
    matrix = np.zeros((n, n))
    for weight in weights:
        matrix[np.arange(n), rng.permutation(n)] += weight
    return Coupling(matrix)
