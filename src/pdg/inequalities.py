"""Executable slack oracles for the l^p convexity estimates used by the audit.

Each oracle returns (large side) - (small side) of one inequality, so a value
greater than or equal to zero certifies the inequality on that input.  Norms
are finite-dimensional l^p norms; sums of component powers run through fsum
so that algebraically exact cases come out as exact zeros.

Powers are taken with Python's ``pow``/``**`` on floats, never ``np.power``:
the two disagree in the last bit on some inputs, and the verify digests pin
these values.  A draw batched for speed must read the same stream as the
draws it replaces, so a seed's results do not move.

Each oracle reads its inputs as numpy arrays and checks their shape, then
converts each to a list once, checks that its entries are finite, and takes
the sums, differences, the mix t*x + (1-t)*y and the powered sums on Python
floats.  Each step is the IEEE operation numpy takes elementwise, so every
slack is the bits the array form gives.  Every caller passes vectors of 1 to
16 entries, where the float form saves numpy's per-call overhead; from about
100 entries on it is the slower one.  clarkson_slack, array form -> float
form, best of 5 on a shared 2-core host: 9.6 -> 4.0 us at 2 entries and
13.9 -> 11.1 at 16, but 41.3 -> 51.8 at 100 and 367 -> 500 at 1,000.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, sub

import numpy as np

from .errors import ParameterDomainError, StructuralError


def _as_vector(v, name: str) -> list[float]:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise StructuralError(f"{name} must be a nonempty 1-d vector")
    xs = arr.tolist()
    if not all(map(math.isfinite, xs)):
        raise StructuralError(f"{name} holds non-finite entries")
    return xs


def _pair(v, w) -> tuple[list[float], list[float]]:
    a = _as_vector(v, "v")
    b = _as_vector(w, "w")
    if len(a) != len(b):
        raise StructuralError(f"vectors differ in length: {len(a)} vs {len(b)}")
    return a, b


def _fsum_pow(magnitudes, p: float) -> float:
    # the sum of x ** p over the floats x, through the builtin pow, which is **
    return math.fsum(map(pow, magnitudes, repeat(p)))


def _powsum(xs, p: float) -> float:
    # ||x||_p^p over the floats xs
    return _fsum_pow(map(abs, xs), p)


def _sqnorm(xs, p: float) -> float:
    # ||x||_p^2 over the floats xs
    return _powsum(xs, p) ** (2.0 / p)


def _mix(a: list[float], b: list[float], t: float) -> list[float]:
    # t*a + (1-t)*b, entry by entry
    s = 1.0 - t
    return [t * x + s * y for x, y in zip(a, b)]


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
        - _powsum(map(add, a, b), p)
        - _powsum(map(sub, a, b), p)
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
        - t * (1.0 - t) * float(constant) * _powsum(map(sub, a, b), p)
        - _powsum(_mix(a, b, t), p)
    )


def bcl_slack(v, w, p: float) -> float:
    """|v+w|_p^2 + |v-w|_p^2 - 2|v|_p^2 - 2(p-1)|w|_p^2, valid for p in (1, 2]."""
    if not (1.0 < p <= 2.0):
        raise ParameterDomainError(f"p must lie in (1, 2], got {p}")
    a, b = _pair(v, w)
    return (
        _sqnorm(map(add, a, b), p)
        + _sqnorm(map(sub, a, b), p)
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
        - (p - 1.0) * t * (1.0 - t) * _sqnorm(map(sub, a, b), p)
        - _sqnorm(_mix(a, b, t), p)
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
    if len(t) != len(a) + 1:
        raise StructuralError(
            f"times must hold one more entry than amounts ({len(t)} vs {len(a)})"
        )
    if min(a) < 0.0:
        raise ParameterDomainError("amounts must be nonnegative")
    gaps = list(map(sub, t[1:], t))
    if min(gaps) <= 0.0:
        raise ParameterDomainError("times must be strictly increasing")
    lhs = math.fsum(a) ** p / (t[-1] - t[0]) ** (p - 1.0)
    rhs = math.fsum(x ** p / g ** (p - 1.0) for x, g in zip(a, gaps))
    return rhs - lhs


def largest_empirical_defect_constant(t: float, p: float, rng: np.random.Generator) -> float:
    """Largest C that keeps the p >= 2 defect slack nonnegative on 200 pairs in [-1, 1]^8.

    Reported for inspection only; nothing here claims the value is sharp.
    """
    if not (2.0 <= p < math.inf):
        raise ParameterDomainError(f"p must lie in [2, inf), got {p}")
    t = _check_interior_t(t)
    # one draw of 200 x 2 x 8 reads the same doubles as 400 draws of 8, a
    # then b for each pair in turn
    pairs = rng.uniform(-1.0, 1.0, size=(200, 2, 8))
    a, b = pairs[:, 0], pairs[:, 1]

    def row_sums(rows):
        # one pow over the family's 1,600 magnitudes, then one fsum per row
        # of 8: the same powers summed as _fsum_pow sums them row by row
        powers = list(map(pow, np.abs(rows).ravel().tolist(), repeat(p)))
        return [math.fsum(powers[k:k + 8]) for k in range(0, len(powers), 8)]

    gaps, lefts, rights, mixes = map(row_sums, (a - b, a, b, t * a + (1.0 - t) * b))
    best = math.inf
    for gap, left, right, mix in zip(gaps, lefts, rights, mixes):
        denom = t * (1.0 - t) * gap
        if denom <= 0.0:
            continue
        best = min(best, (t * left + (1.0 - t) * right - mix) / denom)
    return best
