"""Correctness checks that do not use pdg's own solvers.

Each check returns None when the result is right and a one-line reason when
it is not; the benchmark counts a reason as a failed operation.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

FINITE_RTOL = 1e-9


def ground_matrix(xs: np.ndarray, ys: np.ndarray, q: float) -> np.ndarray:
    """The augmented slot cost matrix for point arrays xs (nx, 2) and ys (ny, 2).

    Rows are the points of X then one diagonal copy per point of Y; columns
    are the points of Y then one diagonal copy per point of X.  For q = 2 the
    entries use math.hypot, so they are bitwise what a scalar l^2 norm gives
    and a bottleneck value can be looked up among them exactly.
    """
    nx, ny = len(xs), len(ys)
    n = nx + ny
    g = np.zeros((n, n))
    dx = np.abs(xs[:, None, 0] - ys[None, :, 0])
    dy = np.abs(xs[:, None, 1] - ys[None, :, 1])
    if q == 1.0:
        real = dx + dy
    elif q == 2.0:
        real = np.frompyfunc(math.hypot, 2, 1)(dx, dy).astype(float)
    elif q == math.inf:
        real = np.maximum(dx, dy)
    else:
        raise ValueError(f"the benchmark uses q in {{1, 2, inf}}, got {q}")
    factor = 2.0 ** ((0.0 if q == math.inf else 1.0 / q) - 1.0)
    g[:nx, :ny] = real
    g[:nx, ny:] = (factor * (xs[:, 1] - xs[:, 0]))[:, None]
    g[nx:, :ny] = (factor * (ys[:, 1] - ys[:, 0]))[None, :]
    return g


def check_finite(xs, ys, p: float, q: float, value: float, witness_cost: float) -> str | None:
    """Value agrees with scipy's assignment optimum; the witness reprices to it exactly."""
    g = ground_matrix(xs, ys, q)
    scale = float(g.max()) if g.size and g.max() > 0.0 else 1.0
    cost = (g / scale) ** p
    rows, cols = linear_sum_assignment(cost)
    reference = scale * float(cost[rows, cols].sum()) ** (1.0 / p)
    if not abs(value - reference) <= FINITE_RTOL * abs(reference):
        return f"value {value!r} differs from the independent optimum {reference!r}"
    if witness_cost != value:
        return f"witness reprices to {witness_cost!r}, not bitwise {value!r}"
    return None


def check_bottleneck(xs, ys, q: float, value: float, witness_cost: float) -> str | None:
    """Value is a matrix entry and no perfect matching uses only smaller entries."""
    g = ground_matrix(xs, ys, q)
    if not np.any(g == value):
        return f"value {value!r} is not an entry of the ground matrix"
    below = csr_matrix((g < value).astype(np.int8))
    if g.shape[0] and np.all(maximum_bipartite_matching(below, perm_type="column") >= 0):
        return f"a perfect matching uses only entries below {value!r}"
    if witness_cost != value:
        return f"witness reprices to {witness_cost!r}, not bitwise {value!r}"
    return None


def check_verify_output(code: int, text: str) -> str | None:
    """The verify subcommand exited 0 and reported zero failed checks."""
    if code != 0:
        return f"exit code {code}"
    report = json.loads(text)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    if report["failures"] != 0 or failed:
        return f"failed checks: {failed}"
    return None
