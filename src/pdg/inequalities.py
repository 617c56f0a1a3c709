"""Executable slack oracles for the l^p convexity estimates used by the audit.

Each oracle returns (large side) - (small side) of one inequality, so a value
greater than or equal to zero certifies the inequality on that input.  Norms
are finite-dimensional l^p norms; sums of component powers run through fsum
so that algebraically exact cases come out as exact zeros.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterDomainError, StructuralError


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise StructuralError(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise StructuralError(f"{name} holds non-finite entries")
    return arr


def _pair(v, w) -> tuple[np.ndarray, np.ndarray]:
    a = _as_vector(v, "v")
    b = _as_vector(w, "w")
    if a.shape != b.shape:
        raise StructuralError(f"vectors differ in length: {a.size} vs {b.size}")
    return a, b


def _powsum(v: np.ndarray, p: float) -> float:
    # ||v||_p^p
    return math.fsum(abs(x) ** p for x in v.tolist())


def _sqnorm(v: np.ndarray, p: float) -> float:
    # ||v||_p^2
    return _powsum(v, p) ** (2.0 / p)


def _check_interior_t(t: float) -> float:
    t = float(t)
    if not (0.0 < t < 1.0):
        raise ParameterDomainError(f"t must lie in (0, 1), got {t}")
    return t


def clarkson_slack(v, w, p: float) -> float:
    """2^(p-1)(|v|_p^p + |w|_p^p) - |v+w|_p^p - |v-w|_p^p, valid for p >= 2."""
    if not (2.0 <= p < math.inf):
        raise ParameterDomainError(f"p must lie in [2, inf), got {p}")
    a, b = _pair(v, w)
    return (
        2.0 ** (p - 1.0) * (_powsum(a, p) + _powsum(b, p))
        - _powsum(a + b, p)
        - _powsum(a - b, p)
    )


def convexity_defect_p_slack(v, w, t: float, p: float, constant: float) -> float:
    """Slack of t|v|^p + (1-t)|w|^p - t(1-t) C |v-w|^p >= |tv+(1-t)w|^p.

    The constant is supplied by the caller; at t = 1/2 the value 2^(2-p)
    follows from the p >= 2 parallelogram estimate.
    """
    if not (2.0 <= p < math.inf):
        raise ParameterDomainError(f"p must lie in [2, inf), got {p}")
    t = _check_interior_t(t)
    a, b = _pair(v, w)
    return (
        t * _powsum(a, p)
        + (1.0 - t) * _powsum(b, p)
        - t * (1.0 - t) * float(constant) * _powsum(a - b, p)
        - _powsum(t * a + (1.0 - t) * b, p)
    )


def bcl_slack(v, w, p: float) -> float:
    """|v+w|_p^2 + |v-w|_p^2 - 2|v|_p^2 - 2(p-1)|w|_p^2, valid for p in (1, 2]."""
    if not (1.0 < p <= 2.0):
        raise ParameterDomainError(f"p must lie in (1, 2], got {p}")
    a, b = _pair(v, w)
    return (
        _sqnorm(a + b, p)
        + _sqnorm(a - b, p)
        - 2.0 * _sqnorm(a, p)
        - 2.0 * (p - 1.0) * _sqnorm(b, p)
    )


def convexity_defect_2_slack(v, w, t: float, p: float) -> float:
    """Slack of t|v|^2 + (1-t)|w|^2 - (p-1)t(1-t)|v-w|^2 >= |tv+(1-t)w|^2.

    Squared l^p norms with the sharp two-point constant p - 1, for p in (1, 2].
    """
    if not (1.0 < p <= 2.0):
        raise ParameterDomainError(f"p must lie in (1, 2], got {p}")
    t = _check_interior_t(t)
    a, b = _pair(v, w)
    return (
        t * _sqnorm(a, p)
        + (1.0 - t) * _sqnorm(b, p)
        - (p - 1.0) * t * (1.0 - t) * _sqnorm(a - b, p)
        - _sqnorm(t * a + (1.0 - t) * b, p)
    )


def jensen_partition_slack(amounts, times, p: float) -> float:
    """Slack of the partitioned power-mean bound used for chained speeds.

    For nonnegative a_1..a_n and an increasing grid t_0 < ... < t_n,
    (sum a_i)^p / (t_n - t_0)^(p-1) <= sum a_i^p / (t_i - t_{i-1})^(p-1).
    """
    if not (1.0 < p < math.inf):
        raise ParameterDomainError(f"p must lie in (1, inf), got {p}")
    a = _as_vector(amounts, "amounts")
    t = _as_vector(times, "times")
    if t.size != a.size + 1:
        raise StructuralError(
            f"times must hold one more entry than amounts ({t.size} vs {a.size})"
        )
    if np.any(a < 0.0):
        raise ParameterDomainError("amounts must be nonnegative")
    gaps = np.diff(t)
    if np.any(gaps <= 0.0):
        raise ParameterDomainError("times must be strictly increasing")
    lhs = math.fsum(a.tolist()) ** p / float(t[-1] - t[0]) ** (p - 1.0)
    rhs = math.fsum(x ** p / g ** (p - 1.0) for x, g in zip(a.tolist(), gaps.tolist()))
    return rhs - lhs


def largest_empirical_defect_constant(t: float, p: float, rng: np.random.Generator) -> float:
    """Largest C that keeps the p >= 2 defect slack nonnegative on 200 pairs in [-1, 1]^8.

    Reported for inspection only; nothing here claims the value is sharp.
    """
    if not (2.0 <= p < math.inf):
        raise ParameterDomainError(f"p must lie in [2, inf), got {p}")
    t = _check_interior_t(t)
    best = math.inf
    for _ in range(200):
        a = rng.uniform(-1.0, 1.0, size=8)
        b = rng.uniform(-1.0, 1.0, size=8)
        denom = t * (1.0 - t) * _powsum(a - b, p)
        if denom <= 0.0:
            continue
        numer = (
            t * _powsum(a, p)
            + (1.0 - t) * _powsum(b, p)
            - _powsum(t * a + (1.0 - t) * b, p)
        )
        best = min(best, numer / denom)
    return best
