"""Finite persistence diagrams and the ground geometry of the half-plane.

A diagram is a finite multiset of points (birth, death) with death > birth,
each carrying an integer index used only to tell coincident points apart.
The diagonal {(a, a)} is implicit and never stored.  All distances in this
package ignore indices; they are bookkeeping, not geometry.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, ParseError, StructuralError, ValidationError

DEFAULT_TOL = 1e-9


def _within(excess: float, reference: float, tol: float) -> bool:
    """Whether excess is within tol of a quantity of size reference:
    excess <= tol * max(1, reference), so tol is absolute up to unit scale
    and relative above it.  Every tolerance verdict in the package is taken
    here.  An infinite or NaN excess fails it, even where the allowance
    overflows to inf."""
    return excess < math.inf and excess <= tol * max(1.0, reference)


#: Exponent cap for the finite aggregation parameter.  Entries of the cost
#: matrix are normalized before exponentiation, which keeps powers up to this
#: cap well inside double range.
MAX_FINITE_P = 64.0


def parse_extended(text: str) -> float:
    """Parse a float that may be the literal ``inf``; a finite literal beyond
    the float range is refused, not read as inf."""
    try:
        value = float(text)
        if math.isinf(value) and str(text).strip().lstrip("+-").lower() not in ("inf", "infinity"):
            raise OverflowError
    except OverflowError as exc:
        raise ParameterDomainError(f"{text!r} exceeds the float range; write inf for an infinite exponent") from exc
    except (TypeError, ValueError) as exc:
        raise ParameterDomainError(f"not a number: {text!r}") from exc
    if math.isnan(value):
        raise ParameterDomainError("nan is not a valid exponent")
    return value


def _check_point(birth, death) -> tuple[float, float]:
    """birth and death as floats; ValidationError unless they make a finite
    point strictly above the diagonal."""
    try:
        b = float(birth)
        d = float(death)
    except OverflowError as exc:
        raise ValidationError(f"point coordinates must fit in a float: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"point coordinates must be real numbers, got ({birth!r}, {death!r})") from exc
    if not (math.isfinite(b) and math.isfinite(d)):
        raise ValidationError(f"point ({birth}, {death}) has non-finite coordinates")
    if not d > b:
        raise ValidationError(f"point ({b}, {d}) is not strictly above the diagonal")
    return b, d


def _is_index(value) -> bool:
    """Whether value can index a point: an integer (operator.index takes it)
    that is no bool, or an integral float."""
    if isinstance(value, float):
        return value.is_integer()  # False for inf and nan
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def _first_invalid(coords: np.ndarray) -> int:
    """Position of the first row of an (n, 2) float array that _check_point
    rejects, or n when there is none."""
    ok = np.isfinite(coords).all(axis=1) & (coords[:, 1] > coords[:, 0])
    return len(ok) if ok.all() else int(ok.argmin())


def _check_distinct(coords: np.ndarray, indices: tuple[int, ...]) -> None:
    """ValidationError when two points share coordinates and index."""
    if len(set(indices)) == len(indices):
        return
    seen = set()
    for key in zip(*coords.T.tolist(), indices):
        if key in seen:
            raise ValidationError(
                f"points at ({key[0]}, {key[1]}) share index {key[2]}; "
                "coincident points must carry distinct indices"
            )
        seen.add(key)


@dataclass(frozen=True)
class Point:
    """One off-diagonal point of a diagram."""

    birth: float
    death: float
    index: int = 0

    def __post_init__(self) -> None:
        birth, death = _check_point(self.birth, self.death)
        if not _is_index(self.index):
            raise ValidationError(f"point index must be an integer, got {self.index!r}")
        object.__setattr__(self, "birth", birth)
        object.__setattr__(self, "death", death)
        object.__setattr__(self, "index", int(self.index))

    @property
    def persistence(self) -> float:
        return self.death - self.birth

    def geometry(self) -> tuple[float, float]:
        return (self.birth, self.death)


_GEOMETRY = operator.attrgetter("birth", "death")


class Diagram:
    """An immutable finite multiset of off-diagonal points.

    The coordinates are held in one read-only (n, 2) float array and the
    indices in a tuple.  Point objects are built only when .points is read,
    and a diagram made from Points keeps those.
    """

    __slots__ = ("_coords", "_indices", "_points", "_key")

    def __init__(self, points=()) -> None:
        pts = tuple(points)
        for p in pts:
            if not isinstance(p, Point):
                raise ValidationError(f"diagram entries must be Point, got {p!r}")
        flat = itertools.chain.from_iterable(map(_GEOMETRY, pts))
        coords = np.fromiter(flat, float, 2 * len(pts)).reshape(-1, 2)
        indices = tuple([p.index for p in pts])
        _check_distinct(coords, indices)
        self._set(coords, indices, pts)

    def _set(self, coords: np.ndarray, indices: tuple[int, ...], points) -> None:
        coords.flags.writeable = False
        self._coords = coords
        self._indices = indices
        self._points = points
        self._key = None

    @classmethod
    def _trusted(cls, coords: np.ndarray, indices: tuple[int, ...]) -> "Diagram":
        """A diagram over validated coordinates and indices, which it keeps."""
        diagram = cls.__new__(cls)
        diagram._set(coords, indices, None)
        return diagram

    @classmethod
    def from_pairs(cls, pairs) -> "Diagram":
        """Build a diagram from (birth, death) or (birth, death, index) rows."""
        pts = []
        for pos, row in enumerate(pairs):
            try:
                row = tuple(row)
            except TypeError:
                raise ValidationError(f"row {pos} is not a sequence: {row!r}") from None
            if len(row) not in (2, 3):
                raise ValidationError(f"row {pos} has {len(row)} entries, expected 2 or 3")
            pts.append(Point(*row) if len(row) == 3 else Point(*row, pos))
        return cls(tuple(pts))

    @property
    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            self._points = tuple(
                Point(b, d, i) for (b, d), i in zip(self._coords.tolist(), self._indices)
            )
        return self._points

    def __len__(self) -> int:
        return len(self._indices)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._indices == other._indices and np.array_equal(self._coords, other._coords)

    def __hash__(self) -> int:
        return hash((self._indices, *self._coords.ravel().tolist()))

    def __repr__(self) -> str:
        return f"Diagram(points={self.points!r})"

    def geometry(self) -> np.ndarray:
        """Point coordinates as a read-only (n, 2) array, indices dropped."""
        return self._coords

    def multiset_key(self) -> tuple:
        """Canonical geometric key: sorted coordinates, indices ignored."""
        if self._key is None:
            self._key = tuple(sorted(map(tuple, self._coords.tolist())))
        return self._key

    @classmethod
    def _checked(cls, coords: np.ndarray, indices: tuple[int, ...]) -> "Diagram":
        """A diagram of coordinates checked in bulk, raising as Diagram(points) does."""
        bad = _first_invalid(coords)
        if bad < len(coords):
            _check_point(*coords[bad].tolist())  # raises: the row failed the bulk check
        _check_distinct(coords, indices)
        return cls._trusted(coords, indices)

    def scaled(self, c: float) -> "Diagram":
        # a row that leaves the float range gets its ValidationError, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            return Diagram._checked(self._coords * c, self._indices)

    def shifted(self, a: float) -> "Diagram":
        """Translate along the diagonal direction (a, a)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return Diagram._checked(self._coords + a, self._indices)


def _checked_exponent(name: str, value) -> float:
    """The exponent called name (p or q) as a float, refused unless it is a
    number in [1, inf]."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if float(value) >= 1.0:  # NaN fails it
            return float(value)
    raise ParameterDomainError(f"{name} must lie in [1, inf], got {value}")


def _checked_count(name: str, value) -> int:
    """The count called name as an int, refused unless operator.index takes it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterDomainError(f"{name} must be an integer, got {value!r}") from None


def _checked_time(name: str, value, open_interval: bool = False) -> float:
    """The time called name as a float, refused unless it is a number in
    [0, 1], or in (0, 1) where open_interval is set."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        value = float(value)
        if 0.0 < value < 1.0 or not open_interval and 0.0 <= value <= 1.0:  # NaN fails both
            return value
    interval = "strictly inside (0, 1)" if open_interval else "in [0, 1]"
    raise ParameterDomainError(f"{name} must lie {interval}, got {value}")


@dataclass(frozen=True)
class MetricParams:
    """Aggregation exponent p, ground exponent q, and comparison tolerance
    tol, absolute up to unit scale and relative above it (see _within)."""

    p: float
    q: float
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        try:
            p, q, tol = float(self.p), float(self.q), float(self.tol)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterDomainError(f"p, q and tol must be real numbers: {exc}") from exc
        _checked_exponent("p", self.p)
        if p != math.inf and p > MAX_FINITE_P:
            raise ParameterDomainError(
                f"finite p is capped at {MAX_FINITE_P:g} (got {p:g}); use p=inf for the bottleneck case"
            )
        _checked_exponent("q", self.q)
        if not (tol > 0.0 and math.isfinite(tol)):
            raise ParameterDomainError(f"tol must be a positive finite real, got {self.tol}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "tol", tol)


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
    if m == 0.0 or m == math.inf:
        return m
    return m * ((ax / m) ** q + (ay / m) ** q) ** (1.0 / q)


def ground_norm(v, q: float) -> float:
    """l^q norm of a 2-vector of real numbers, inf where an entry is; q may
    be inf."""
    q = _checked_exponent("q", q)
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"ground vector entries must be real numbers: {exc}") from exc
    if arr.shape != (2,):
        raise StructuralError(f"a ground vector must have exactly 2 entries, not shape {arr.shape}")
    x, y = arr.tolist()
    if math.isnan(x) or math.isnan(y):
        raise ValidationError(f"ground vector ({x}, {y}) has a nan entry")
    return _qnorm(x, y, q)


def _midpoint(birth: float, death: float) -> float:
    """(birth + death) / 2: the halved sum where that is finite, and the sum of
    the halves where the sum overflows, so finite coordinates give a finite
    midpoint."""
    mid = 0.5 * (birth + death)
    return mid if math.isfinite(mid) else 0.5 * birth + 0.5 * death


def diagonal_projection(point: Point) -> tuple[float, float]:
    """Closest diagonal point, which for every q is the midpoint projection."""
    mid = _midpoint(point.birth, point.death)
    return (mid, mid)


def _diagonal_factor(q: float) -> float:
    """c = 2^(1/q - 1), with 1/q read as 0 when q = inf: a point's l^q
    distance to the diagonal is c times its persistence."""
    return 2.0 ** ((0.0 if q == math.inf else 1.0 / q) - 1.0)


def _diagonal_ground(birth: float, death: float, q: float, c: float) -> float:
    """c * (death - birth) with c = _diagonal_factor(q), taken once by the
    caller for all its points, or c * death - c * birth where the persistence
    overflows; ValidationError where that overflows too, the distance being
    beyond the float range."""
    value = c * (death - birth)
    if value == math.inf:
        value = c * death - c * birth
        if value == math.inf:
            raise ValidationError(
                f"the diagonal distance of point ({birth}, {death}) at q = {q:g} exceeds the float range"
            )
    return value


def diagonal_distance(point: Point, q: float) -> float:
    """Perpendicular l^q distance from a point to the diagonal, c times its
    persistence (see _diagonal_ground); ValidationError where that exceeds
    the float range."""
    q = _checked_exponent("q", q)
    return _diagonal_ground(point.birth, point.death, q, _diagonal_factor(q))


def _load_json(data):
    """Decode a JSON document from text or UTF-8 bytes, raising ParseError
    for every way it can fail to decode."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"document is not UTF-8: {exc}") from exc
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise ParseError("document is nested too deeply to decode") from None


def parse_diagram(data) -> Diagram:
    """Decode a diagram from JSON text or UTF-8 bytes of the form
    {"points": [[b, d(, i)], ...]}."""
    return diagram_from_dict(_load_json(data))


_NUMBER_TYPES = frozenset((int, float))


def _row_fault(pos: int, row) -> ParseError | None:
    """The ParseError of a row that is not 2 or 3 numbers with an integral
    index, or None."""
    if not isinstance(row, list) or len(row) not in (2, 3):
        return ParseError(f'"points" row {pos} must be [birth, death] or [birth, death, index]')
    for entry in row:
        # the exact types json decodes numbers to pass at once; bool is an
        # int subclass, and no number here
        if type(entry) not in _NUMBER_TYPES and (
            isinstance(entry, bool) or not isinstance(entry, (int, float))
        ):
            return ParseError(f'"points" row {pos} holds a non-numeric entry: {entry!r}')
    if len(row) == 3 and not _is_index(row[2]):
        return ParseError(f'"points" row {pos} has a non-integer index: {row[2]!r}')
    return None


def diagram_from_dict(obj) -> Diagram:
    """Build a diagram from decoded diagram JSON; inverts diagram_to_dict exactly.

    A malformed or invalid document raises the error of its first offending
    row: type and length checks run row by row, up to the first malformed
    row, and the coordinates of the rows before it are converted and checked
    in bulk.
    """
    if not isinstance(obj, dict) or "points" not in obj:
        raise ParseError('diagram JSON must be an object with a "points" field')
    rows = obj["points"]
    if not isinstance(rows, list):
        raise ParseError('"points" must be a list of [birth, death] or [birth, death, index] rows')
    stop, fault, explicit = len(rows), None, False
    for pos, row in enumerate(rows):
        if (type(row) is list and len(row) == 2
                and type(row[0]) in _NUMBER_TYPES and type(row[1]) in _NUMBER_TYPES):
            continue  # the common row, well formed at a glance
        fault = _row_fault(pos, row)
        if fault is not None:
            stop = pos
            break
        explicit |= len(row) == 3
    pairs = [row[:2] for row in rows[:stop]] if explicit else rows[:stop]
    try:
        flat = itertools.chain.from_iterable(pairs)
        coords = np.fromiter(flat, float, 2 * len(pairs)).reshape(-1, 2)
        bad = _first_invalid(coords)
    except OverflowError:  # an int too large for a float: walk from row 0 to the first bad row
        bad = 0
    for pos in range(bad, stop):  # raises at once where the bulk check found a bad row
        try:
            _check_point(*pairs[pos])
        except ValidationError as exc:
            raise ValidationError(f'"points" row {pos}: {exc}') from exc
    if fault is not None:
        raise fault
    if not explicit:
        return Diagram._trusted(coords, tuple(range(len(rows))))
    indices = tuple(int(row[2]) if len(row) == 3 else pos for pos, row in enumerate(rows))
    _check_distinct(coords, indices)
    return Diagram._trusted(coords, indices)


def diagram_to_dict(diagram: Diagram) -> dict:
    """Plain-JSON representation; indices are emitted only when they carry information."""
    rows = diagram.geometry().tolist()
    indices = diagram._indices
    if indices != tuple(range(len(rows))):
        rows = [[b, d, i] for (b, d), i in zip(rows, indices)]
    return {"points": rows}


def serialize_diagram(diagram: Diagram) -> bytes:
    """Encode a diagram as JSON bytes; parse_diagram inverts this exactly."""
    return json.dumps(diagram_to_dict(diagram)).encode("utf-8")
