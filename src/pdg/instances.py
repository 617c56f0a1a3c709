"""Seeded instance generators and fixed reference configurations."""

from __future__ import annotations

import numpy as np

from .diagram import Diagram, Point

#: Exponent grids used by the verification suites.
GRID_P = (1.0, 1.5, 2.0, 3.0, float("inf"))
GRID_Q = (1.0, 2.0, float("inf"))

#: Lower bounds and widths of random_diagram's (birth, persistence) draws.
_LOW = np.array((-5.0, 0.1))
_SPAN = np.array((5.0, 4.0)) - _LOW
_LOW.flags.writeable = False
_SPAN.flags.writeable = False


def random_diagram(rng: np.random.Generator, count: int) -> Diagram:
    """count points, births uniform in [-5, 5] and persistences in [0.1, 4],
    drawn birth then persistence, point by point."""
    # rng.uniform(low, high) takes low + (high - low) * u for each standard
    # double u: the same doubles, without its per-call broadcast and checks
    coords = _LOW + _SPAN * rng.random((count, 2))
    coords[:, 1] += coords[:, 0]
    # a birth in [-5, 5) plus a persistence in [0.1, 4) is a finite death
    # above it, and range(count) holds no repeated index: nothing to check
    return Diagram._trusted(coords, tuple(range(count)))


def random_pair(rng: np.random.Generator, max_total: int = 6) -> tuple[Diagram, Diagram]:
    """Two random diagrams whose combined size stays within max_total."""
    first = int(rng.integers(0, max_total + 1))
    second = int(rng.integers(0, max_total - first + 1))
    return random_diagram(rng, first), random_diagram(rng, second)


def four_point_pair() -> tuple[Diagram, Diagram]:
    """The two-points-each configuration with matching cost 4 under p = q = 1."""
    x = Diagram((Point(0.0, 10.0, 0), Point(1.0, 9.0, 1)))
    y = Diagram((Point(1.0, 11.0, 0), Point(2.0, 10.0, 1)))
    return x, y


def single_tall_point(k: float) -> Diagram:
    return Diagram((Point(0.0, k, 0),))


def index_twins() -> tuple[Diagram, Diagram]:
    """Identical geometry, different indices; every distance must vanish."""
    return (
        Diagram((Point(0.0, 1.0, 1),)),
        Diagram((Point(0.0, 1.0, 2),)),
    )
