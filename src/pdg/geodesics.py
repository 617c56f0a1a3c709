"""Sampled curves in diagram space: construction, certification, classification.

A sampled curve is a time grid on [0, 1] with one diagram per time.  A curve
is certified as a geodesic when every sampled pair of frames sits at distance
|t - s| times the endpoint distance.  Certified curves are then compared
against every straight-line interpolation of an optimal endpoint matching;
curves that pointwise match none of them are classified as deviant.  All
frame comparisons go through the diagram distance itself, never through set
equality, so indices and zero-length diagonal excursions cannot matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagram import (
    _NUMBER_TYPES, Diagram, MetricParams, _load_json, _midpoint, _qnorm,
    diagram_from_dict, diagram_to_dict,
)
from .errors import (
    ParameterDomainError,
    ParseError,
    SizeGuardError,
    StructuralError,
    UnsupportedRegimeError,
    ValidationError,
)
from .gallery import gallery_frame
from .matching import (
    Matching,
    distance,
    enumerate_optimal_matchings,
    matching_from_assignment,
)

DEFAULT_GRID = 33
#: The most samples a time grid may hold; odd, so verify's odd-grid rule reaches it.
MAX_GRID = 2**16 + 1


def uniform_grid(count: int = DEFAULT_GRID) -> tuple[float, ...]:
    """count evenly spaced times from 0 to 1 inclusive."""
    if count < 2:
        raise ParameterDomainError(f"a time grid needs at least 2 samples, got {count}")
    if count > MAX_GRID:
        raise SizeGuardError(f"a time grid of {count} samples exceeds the bound of {MAX_GRID}")
    return tuple(i / (count - 1) for i in range(count))


@dataclass(frozen=True)
class SampledCurve:
    """A curve known through finitely many (time, diagram) samples."""

    times: tuple[float, ...]
    frames: tuple[Diagram, ...]

    def __post_init__(self) -> None:
        try:
            times = tuple(float(t) for t in self.times)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"sample times must be real numbers: {exc}") from exc
        frames = tuple(self.frames)
        if len(times) != len(frames):
            raise StructuralError(
                f"{len(times)} times but {len(frames)} frames"
            )
        if len(times) < 2:
            raise ValidationError("a sampled curve needs at least 2 samples")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ValidationError("sample times must start at 0 and end at 1")
        if not all(a < b for a, b in zip(times, times[1:])):  # also rejects nan
            raise ValidationError("sample times must be strictly increasing")
        for frame in frames:
            if not isinstance(frame, Diagram):
                raise ValidationError(f"frames must be Diagram values, got {frame!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.times)

    def reversed(self) -> "SampledCurve":
        """The same path traversed from 1 to 0."""
        return SampledCurve(
            tuple(1.0 - t for t in reversed(self.times)),
            tuple(reversed(self.frames)),
        )

    def to_dict(self) -> dict:
        return {
            "times": list(self.times),
            "frames": [diagram_to_dict(f) for f in self.frames],
        }


def parse_curve(data) -> SampledCurve:
    """Decode {"times": [...], "frames": [<diagram>, ...]} JSON text or UTF-8 bytes."""
    obj = _load_json(data)
    if not isinstance(obj, dict) or "times" not in obj or "frames" not in obj:
        raise ParseError('curve JSON must be an object with "times" and "frames"')
    times = obj["times"]
    frames = obj["frames"]
    if not isinstance(times, list) or not isinstance(frames, list):
        raise ParseError('"times" and "frames" must be lists')
    for pos, t in enumerate(times):
        if type(t) not in _NUMBER_TYPES:  # as for diagram rows: no bool, no string
            raise ParseError(f'"times" entry {pos} is not a number: {t!r}')
    decoded = []
    for pos, frame in enumerate(frames):
        try:
            decoded.append(diagram_from_dict(frame))
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"frame {pos}: {exc}") from exc
    return SampledCurve(tuple(times), tuple(decoded))


# ---------------------------------------------------------------------------
# straight-line interpolation of a matching


def _legs(x: Diagram, y: Diagram, m: Matching) -> list:
    """The moving slots of the straight-line interpolation along m.

    One (start, end, source index, target index) row per X point in order,
    then one per Y point fed by a diagonal copy, in slot order.  A start or
    end on the diagonal is the point's projection, and its index is None.
    """
    nx = len(x)
    ny = len(y)
    if len(m.assignment) != nx + ny:
        raise StructuralError(
            f"matching covers {len(m.assignment)} slots but the diagrams define {nx + ny}"
        )
    xs = x.geometry().tolist()
    ys = y.geometry().tolist()
    legs = []
    for i, j in enumerate(m.assignment):
        if i < nx:
            a = xs[i]
            b, target = (ys[j], y._indices[j]) if j < ny else ([_midpoint(*a)] * 2, None)
            legs.append((a, b, x._indices[i], target))
        elif j < ny:
            legs.append(([_midpoint(*ys[j])] * 2, ys[j], None, y._indices[j]))
    return legs


def convex_combination(x: Diagram, y: Diagram, m: Matching, t: float) -> Diagram:
    """The time-t frame of the straight-line interpolation along a matching.

    Points travel at constant speed toward their matched partner or their
    diagonal projection; anything sitting on the diagonal is dropped.  Each
    traveling point keeps its source index for t < 1 and adopts the target
    index at t = 1; points emerging from the diagonal carry the target index.
    Coincident points that end up sharing an index are told apart by giving
    each later one the next index above the largest in the frame.
    """
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise ParameterDomainError(f"interpolation time must lie in [0, 1], got {t}")
    s = 1.0 - t
    coords = []
    raw = []
    for (sb, sd), (eb, ed), source, target in _legs(x, y, m):
        b = s * sb + t * eb
        d = s * sd + t * ed
        if d > b:
            coords.append((b, d))
            raw.append(target if t >= 1.0 or source is None else source)
    top = max(raw, default=-1)
    used = set()
    indices = []
    for (b, d), idx in zip(coords, raw):
        while (b, d, idx) in used:
            top += 1
            idx = top
        used.add((b, d, idx))
        indices.append(idx)
    return Diagram._checked(np.array(coords, dtype=float).reshape(-1, 2), tuple(indices))


def sample_convex_combination(x: Diagram, y: Diagram, m: Matching,
                              grid: int = DEFAULT_GRID) -> SampledCurve:
    times = uniform_grid(grid)
    return SampledCurve(times, tuple(convex_combination(x, y, m, t) for t in times))


def sample_gallery(name: str, grid: int = DEFAULT_GRID, **params) -> SampledCurve:
    times = uniform_grid(grid)
    return SampledCurve(times, tuple(gallery_frame(name, t, **params) for t in times))


# ---------------------------------------------------------------------------
# certification and classification


@dataclass(frozen=True)
class GeodesicCertificate:
    """Outcome of checking the constant-speed identity on all sampled pairs."""

    ok: bool
    endpoint_distance: float
    max_violation: float
    witness: tuple[float, float, float, float] | None  # (s, t, measured, expected)

    def to_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            s, t, measured, expected = self.witness
            witness = {"s": s, "t": t, "measured": measured, "expected": expected}
        return {
            "ok": self.ok,
            "endpoint_distance": self.endpoint_distance,
            "max_violation": self.max_violation,
            "witness": witness,
        }


def certify_geodesic(curve: SampledCurve, params: MetricParams) -> GeodesicCertificate:
    """Check |d(frame_s, frame_t) - |t - s| d(ends)| over every sampled pair.

    The witness is the first pair attaining the maximal violation.
    """
    endpoint, _ = distance(curve.frames[0], curve.frames[-1], params)
    worst = 0.0
    witness = None
    count = len(curve)
    for a in range(count):
        for b in range(a + 1, count):
            measured, _ = distance(curve.frames[a], curve.frames[b], params)
            expected = (curve.times[b] - curve.times[a]) * endpoint
            violation = abs(measured - expected)
            if violation > worst:
                worst = violation
                witness = (curve.times[a], curve.times[b], measured, expected)
    ok = worst <= params.tol * max(1.0, endpoint)
    return GeodesicCertificate(ok, endpoint, worst, witness)


def regime(p: float, q: float) -> str:
    """Where (p, q) falls relative to the structure results.

    "characterized": every geodesic is a straight-line interpolation.
    "counterexample": deviant or branching geodesics are known to exist.
    "open": neither statement is established.
    """
    if p == math.inf or (p == 1.0 and q == 1.0):
        return "counterexample"
    if p == q and p >= 2.0:
        return "characterized"
    if q == 2.0 and 1.0 < p < math.inf:
        return "characterized"
    return "open"


@dataclass(frozen=True)
class CurveClassification:
    """How a sampled curve relates to straight-line geodesics.

    kind is one of "convex-combination" (with the witnessing matching),
    "deviant" (with the time and size of the smallest achievable residual),
    or "not-geodesic" (with the failing certificate).
    """

    kind: str
    regime: str
    certificate: GeodesicCertificate
    matching: Matching | None = None
    witness_time: float | None = None
    residual: float | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "regime": self.regime,
            "matching": list(self.matching.pairs()) if self.matching else None,
            "witness_time": self.witness_time,
            "residual": self.residual,
            "certificate": self.certificate.to_dict(),
        }


def classify_curve(curve: SampledCurve, params: MetricParams) -> CurveClassification:
    """Certify the curve, then compare it with every optimal interpolation.

    A certified curve is convex-combination when some optimal endpoint
    matching interpolates to within tol of every sampled frame, and deviant
    otherwise; the deviant witness reports the best matching's worst frame.
    """
    x = curve.frames[0]
    y = curve.frames[-1]
    tag = regime(params.p, params.q)
    certificate = certify_geodesic(curve, params)
    if not certificate.ok:
        return CurveClassification("not-geodesic", tag, certificate)
    best_residual = None
    best_time = None
    for phi in enumerate_optimal_matchings(x, y, params):
        worst = 0.0
        worst_time = curve.times[0]
        for t, frame in zip(curve.times, curve.frames):
            measured, _ = distance(convex_combination(x, y, phi, t), frame, params)
            if measured > worst:
                worst = measured
                worst_time = t
        if worst <= params.tol:
            return CurveClassification("convex-combination", tag, certificate, matching=phi)
        if best_residual is None or worst < best_residual:
            best_residual = worst
            best_time = worst_time
    return CurveClassification(
        "deviant", tag, certificate, witness_time=best_time, residual=best_residual
    )


def detect_branching(a: SampledCurve, b: SampledCurve, params: MetricParams) -> float | None:
    """Largest sampled time up to which two geodesics agree before splitting.

    Returns None when the curves already differ at t = 0 or never differ at
    all; agreement is measured by the diagram distance against params.tol.
    """
    if a.times != b.times:
        raise StructuralError("curves must share one time grid to compare branching")
    split = None
    for pos, (fa, fb) in enumerate(zip(a.frames, b.frames)):
        measured, _ = distance(fa, fb, params)
        if measured > params.tol:
            split = pos
            break
    if split is None or split == 0:
        return None
    return a.times[split - 1]


# ---------------------------------------------------------------------------
# convexity audit along a matching


@dataclass(frozen=True)
class AuditReport:
    """Decomposition of the squeeze between a curve point and the endpoints.

    positive_part collects t|Q|^p + (1-t)|R|^p over all transport legs, defect
    collects t(1-t)|Q - R|^p, and bound is the p-th power of the endpoint
    distance; Q and R are the per-leg rates into and out of the midpoint.
    """

    t: float
    positive_part: float
    defect: float
    bound: float

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "positive_part": self.positive_part,
            "defect": self.defect,
            "bound": self.bound,
        }


def identity_psi(gamma_t: Diagram, mid: Diagram, params: MetricParams) -> Matching:
    """The slot-identity matching between an interpolated frame and a midpoint."""
    n = len(gamma_t) + len(mid)
    return matching_from_assignment(gamma_t, mid, tuple(range(n)), params)


def characterization_audit(x: Diagram, y: Diagram, m: Matching, mid: Diagram,
                           psi: Matching, t: float, params: MetricParams) -> AuditReport:
    """Audit the convexity bookkeeping for one midpoint candidate.

    Every transport leg of m runs from a source point (or a diagonal copy) to
    its target; psi matches the leg's time-t position to a point of mid.  The
    report sums the powered in/out rates and their disagreement.  Supported
    parameter ranges: p = q in [2, inf) and q = 2 with p in [2, inf).
    """
    p = params.p
    q = params.q
    p_q_branch = p == q and 2.0 <= p < math.inf
    euclid_branch = q == 2.0 and 2.0 <= p < math.inf
    if not (p_q_branch or euclid_branch):
        raise UnsupportedRegimeError(
            f"audit supports p = q in [2, inf) or q = 2 with p in [2, inf); got p = {p:g}, q = {q:g}"
        )
    t = float(t)
    if not (0.0 < t < 1.0):
        raise ParameterDomainError(f"audit time must lie strictly inside (0, 1), got {t}")

    legs = _legs(x, y, m)
    s = 1.0 - t
    positions = [(s * sb + t * eb, s * sd + t * ed) for (sb, sd), (eb, ed), _, _ in legs]
    gamma_size = sum(d > b for b, d in positions)
    mids = mid.geometry().tolist()
    n_psi = gamma_size + len(mids)
    if len(psi.assignment) != n_psi:
        raise StructuralError(
            f"psi covers {len(psi.assignment)} slots but the frame and midpoint define {n_psi}"
        )

    # (source, target, image) per transport leg: psi sends a leg's time-t
    # position to a point of mid or to that position's projection, and a leg
    # dropped on the diagonal stays where it is
    images = iter(psi.assignment)
    triples = []
    for (source, target, _, _), here in zip(legs, positions):
        image = here
        if here[1] > here[0]:
            j = next(images)
            image = mids[j] if j < len(mids) else [_midpoint(*here)] * 2
        triples.append((source, target, image))
    for j in images:
        if j < len(mids):
            # a midpoint point fed from the diagonal: its source and target
            # legs both start at its own projection
            foot = [_midpoint(*mids[j])] * 2
            triples.append((foot, foot, mids[j]))

    positive_terms = []
    defect_terms = []
    for leg, (source, target, image) in enumerate(triples):
        q_rate = ((source[0] - image[0]) / t, (source[1] - image[1]) / t)
        r_rate = ((image[0] - target[0]) / s, (image[1] - target[1]) / s)
        rates = (q_rate, r_rate, (q_rate[0] - r_rate[0], q_rate[1] - r_rate[1]))
        try:
            powers = [_qnorm(a, b, q) ** p for a, b in rates]
        except OverflowError:
            powers = [math.inf]
        if not all(map(math.isfinite, powers)):  # an overflowed rate is inf, as is its power
            raise ValidationError(
                f"audit leg {leg} at t = {t!r} has a rate whose p-th power (p = {p:g}) overflows a float"
            )
        positive_terms += (t * powers[0], s * powers[1])
        defect_terms.append(t * s * powers[2])
    endpoint, _ = distance(x, y, params)
    try:
        bound = endpoint ** p
    except OverflowError:
        raise ValidationError(
            f"the endpoint distance {endpoint!r} has a p-th power (p = {p:g}) that overflows a float"
        ) from None
    return AuditReport(t, math.fsum(positive_terms), math.fsum(defect_terms), bound)
