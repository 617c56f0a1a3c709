"""Finite persistence diagrams and the ground geometry of the half-plane.

A diagram is a finite multiset of points (birth, death) with death > birth,
each carrying an integer index used only to tell coincident points apart.
The diagonal {(a, a)} is implicit and never stored.  All distances in this
package ignore indices; they are bookkeeping, not geometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterDomainError, ParseError, ValidationError

DEFAULT_TOL = 1e-9

#: Exponent cap for the finite aggregation parameter.  Entries of the cost
#: matrix are normalized before exponentiation, which keeps powers up to this
#: cap well inside double range.
MAX_FINITE_P = 64.0


def parse_extended(text: str) -> float:
    """Parse a float that may be the literal ``inf``."""
    try:
        value = float(text)
    except (TypeError, ValueError) as exc:
        raise ParameterDomainError(f"not a number: {text!r}") from exc
    if math.isnan(value):
        raise ParameterDomainError("nan is not a valid exponent")
    return value


@dataclass(frozen=True)
class Point:
    """One off-diagonal point of a diagram."""

    birth: float
    death: float
    index: int = 0

    def __post_init__(self) -> None:
        try:
            birth = float(self.birth)
            death = float(self.death)
        except OverflowError as exc:
            raise ValidationError(f"point coordinates must fit in a float: {exc}") from exc
        if not (math.isfinite(birth) and math.isfinite(death)):
            raise ValidationError(
                f"point ({self.birth}, {self.death}) has non-finite coordinates"
            )
        if not death > birth:
            raise ValidationError(
                f"point ({birth}, {death}) is not strictly above the diagonal"
            )
        object.__setattr__(self, "birth", birth)
        object.__setattr__(self, "death", death)
        object.__setattr__(self, "index", int(self.index))

    @property
    def persistence(self) -> float:
        return self.death - self.birth

    def geometry(self) -> tuple[float, float]:
        return (self.birth, self.death)


@dataclass(frozen=True)
class Diagram:
    """An immutable finite multiset of off-diagonal points."""

    points: tuple[Point, ...] = ()

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        for p in pts:
            if not isinstance(p, Point):
                raise ValidationError(f"diagram entries must be Point, got {p!r}")
        seen: dict[tuple[float, float, int], int] = {}
        for p in pts:
            key = (p.birth, p.death, p.index)
            if key in seen:
                raise ValidationError(
                    f"points at ({p.birth}, {p.death}) share index {p.index}; "
                    "coincident points must carry distinct indices"
                )
            seen[key] = 1
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_pairs(cls, pairs) -> "Diagram":
        """Build a diagram from (birth, death) or (birth, death, index) rows."""
        pts = []
        for pos, row in enumerate(pairs):
            row = tuple(row)
            if len(row) == 2:
                pts.append(Point(row[0], row[1], pos))
            elif len(row) == 3:
                pts.append(Point(row[0], row[1], int(row[2])))
            else:
                raise ValidationError(f"row {pos} has {len(row)} entries, expected 2 or 3")
        return cls(tuple(pts))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def geometry(self) -> np.ndarray:
        """Point coordinates as an (n, 2) array, indices dropped."""
        if not self.points:
            return np.zeros((0, 2))
        return np.array([[p.birth, p.death] for p in self.points], dtype=float)

    def multiset_key(self) -> tuple:
        """Canonical geometric key: sorted coordinates, indices ignored."""
        return tuple(sorted((p.birth, p.death) for p in self.points))

    def scaled(self, c: float) -> "Diagram":
        return Diagram(tuple(Point(c * p.birth, c * p.death, p.index) for p in self.points))

    def shifted(self, a: float) -> "Diagram":
        """Translate along the diagonal direction (a, a)."""
        return Diagram(tuple(Point(p.birth + a, p.death + a, p.index) for p in self.points))


@dataclass(frozen=True)
class MetricParams:
    """Aggregation exponent p, ground exponent q, and comparison tolerance."""

    p: float
    q: float
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        p = float(self.p)
        q = float(self.q)
        tol = float(self.tol)
        if math.isnan(p) or p < 1.0:
            raise ParameterDomainError(f"p must lie in [1, inf], got {self.p}")
        if p != math.inf and p > MAX_FINITE_P:
            raise ParameterDomainError(
                f"finite p is capped at {MAX_FINITE_P:g} (got {p:g}); use p=inf for the bottleneck case"
            )
        if math.isnan(q) or q < 1.0:
            raise ParameterDomainError(f"q must lie in [1, inf], got {self.q}")
        if not (tol > 0.0 and math.isfinite(tol)):
            raise ParameterDomainError(f"tol must be a positive finite real, got {self.tol}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "tol", tol)

    @property
    def bottleneck(self) -> bool:
        return self.p == math.inf


def _qnorm(dx: float, dy: float, q: float) -> float:
    # Scalar l^q norm of a 2-vector, stable for large q.
    ax = abs(dx)
    ay = abs(dy)
    if q == math.inf:
        return ax if ax >= ay else ay
    if q == 1.0:
        return ax + ay
    if q == 2.0:
        return math.hypot(ax, ay)
    m = ax if ax >= ay else ay
    if m == 0.0:
        return 0.0
    return m * ((ax / m) ** q + (ay / m) ** q) ** (1.0 / q)


def ground_norm(v, q: float) -> float:
    """l^q norm of a 2-vector; q may be inf."""
    if math.isnan(q) or q < 1.0:
        raise ParameterDomainError(f"q must lie in [1, inf], got {q}")
    x, y = float(v[0]), float(v[1])
    return _qnorm(x, y, q)


def diagonal_projection(point: Point) -> tuple[float, float]:
    """Closest diagonal point, which for every q is the midpoint projection."""
    mid = 0.5 * (point.birth + point.death)
    return (mid, mid)


def diagonal_distance(point: Point, q: float) -> float:
    """Perpendicular l^q distance from a point to the diagonal.

    Equals 2^(1/q - 1) * persistence, where 1/q is read as 0 when q = inf.
    """
    if math.isnan(q) or q < 1.0:
        raise ParameterDomainError(f"q must lie in [1, inf], got {q}")
    exponent = 0.0 if q == math.inf else 1.0 / q
    return 2.0 ** (exponent - 1.0) * (point.death - point.birth)


def parse_diagram(data) -> Diagram:
    """Decode a diagram from JSON text of the form {"points": [[b, d(, i)], ...]}."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return diagram_from_dict(obj)


def diagram_from_dict(obj) -> Diagram:
    """Build a diagram from decoded diagram JSON; inverts diagram_to_dict exactly."""
    if not isinstance(obj, dict) or "points" not in obj:
        raise ParseError('diagram JSON must be an object with a "points" field')
    rows = obj["points"]
    if not isinstance(rows, list):
        raise ParseError('"points" must be a list of [birth, death] or [birth, death, index] rows')
    pts = []
    for pos, row in enumerate(rows):
        if not isinstance(row, list) or len(row) not in (2, 3):
            raise ParseError(f'"points" row {pos} must be [birth, death] or [birth, death, index]')
        for entry in row:
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ParseError(f'"points" row {pos} holds a non-numeric entry: {entry!r}')
        # is_integer() is False for inf and nan, which int() cannot take
        if len(row) == 3 and isinstance(row[2], float) and not row[2].is_integer():
            raise ParseError(f'"points" row {pos} has a non-integer index: {row[2]!r}')
        index = int(row[2]) if len(row) == 3 else pos
        try:
            pts.append(Point(row[0], row[1], index))
        except ValidationError as exc:
            raise ValidationError(f'"points" row {pos}: {exc}') from exc
    return Diagram(tuple(pts))


def diagram_to_dict(diagram: Diagram) -> dict:
    """Plain-JSON representation; indices are emitted only when they carry information."""
    positional = all(p.index == pos for pos, p in enumerate(diagram.points))
    if positional:
        rows = [[p.birth, p.death] for p in diagram.points]
    else:
        rows = [[p.birth, p.death, p.index] for p in diagram.points]
    return {"points": rows}


def serialize_diagram(diagram: Diagram) -> bytes:
    """Encode a diagram as JSON bytes; parse_diagram inverts this exactly."""
    return json.dumps(diagram_to_dict(diagram)).encode("utf-8")
