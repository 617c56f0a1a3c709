"""Named reference curves in diagram space.

Five parametric families, each a constant-speed path of diagrams on [0, 1]
built from a small number of moving points:

* ``mu_infty(k, j)``: a tall point slides from (0, k) to the diagonal while a
  low point starting at (0, j) is absorbed three times faster, vanishing at
  t = 1/3.  A bottleneck geodesic whenever 3j < k.
* ``nu_infty(k, l)``: the same shape with the low point starting at (0, l).
* ``omega_infty(k, j)``: the tall point slides to the diagonal while a second
  point emerges from the diagonal, climbs to (0, j) at t = 1/2, and sinks
  back, returning exactly at t = 1.
* ``mu_one(k)``: two points walk along axis-parallel segments to a common
  center (1, k), meeting at t = 1/2, then walk on to (1, k+1) and (2, k).
  As multisets its frames equal the interpolation along the crossing matching
  (0, k) -> (2, k), (1, k-1) -> (1, k+1), so at p = q = 1 it certifies and
  classifies as a convex combination.
* ``nu_r_one(k, r)``: both points are transported to (1, k) over [0, 1/2] and
  then travel together, first up by r and then right by 1 - r.  Members with
  different r share the first half and split afterwards.  These are the
  p = q = 1 geodesics that deviate: at t = 1/2 both points sit at (1, k),
  which no optimal interpolation reaches; the best residual there is 1.
"""

from __future__ import annotations

import math

from .diagram import Diagram, Point
from .errors import ParameterDomainError

GALLERY_NAMES = ("mu_infty", "nu_infty", "omega_infty", "mu_one", "nu_r_one")


def _check_time(t: float) -> float:
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise ParameterDomainError(f"curve time must lie in [0, 1], got {t}")
    return t


def _check_tall_low(k: float, low: float, low_name: str) -> tuple[float, float]:
    k = float(k)
    low = float(low)
    if not (low > 0.0):
        raise ParameterDomainError(f"requires {low_name} > 0, got {low_name} = {low:g}")
    # an infinite k would put the tall point's birth 0.5 k t at inf * 0 = NaN at t = 0
    if not (3.0 * low < k < math.inf):
        raise ParameterDomainError(
            f"requires a finite k > 3{low_name} (got k = {k:g}, {low_name} = {low:g})"
        )
    return k, low


def _alive(points: list[tuple[float, float, int]]) -> Diagram:
    return Diagram(tuple(Point(b, d, i) for b, d, i in points if d > b))


def _tall_track(k: float, t: float) -> tuple[float, float]:
    # from (0, k) to the diagonal midpoint (k/2, k/2) at unit rate
    return (0.5 * k * t, 0.5 * k * (2.0 - t))


def _absorbed_low(k: float, low: float, low_name: str, t: float) -> Diagram:
    k, low = _check_tall_low(k, low, low_name)
    t = _check_time(t)
    pts = [(*_tall_track(k, t), 0)]
    if t < 1.0 / 3.0:
        pts.append((1.5 * low * t, 0.5 * low * (2.0 - 3.0 * t), 1))
    return _alive(pts)


def mu_infty(k: float, j: float, t: float) -> Diagram:
    return _absorbed_low(k, j, "j", t)


def nu_infty(k: float, l: float, t: float) -> Diagram:
    return _absorbed_low(k, l, "l", t)


def omega_infty(k: float, j: float, t: float) -> Diagram:
    k, j = _check_tall_low(k, j, "j")
    t = _check_time(t)
    pts = [(*_tall_track(k, t), 0)]
    if t <= 0.5:
        pts.append((j * (0.5 - t), j * (0.5 + t), 1))
    else:
        pts.append((j * (t - 0.5), j * (1.5 - t), 1))
    return _alive(pts)


def _check_mu_one_k(k: float) -> float:
    k = float(k)
    if not 8.0 <= k < math.inf:
        raise ParameterDomainError(
            f"requires a finite k >= 8 so diagonal shortcuts never compete (got k = {k:g})"
        )
    return k


def mu_one(k: float, t: float) -> Diagram:
    k = _check_mu_one_k(k)
    t = _check_time(t)
    if t <= 0.5:
        pts = [(2.0 * t, k, 0), (1.0, k - 1.0 + 2.0 * t, 1)]
    else:
        pts = [(1.0, k + 2.0 * (t - 0.5), 0), (1.0 + 2.0 * (t - 0.5), k, 1)]
    return _alive(pts)


def nu_r_one(k: float, r: float, t: float) -> Diagram:
    k = _check_mu_one_k(k)
    r = float(r)
    if not (0.0 <= r <= 1.0):
        raise ParameterDomainError(f"requires r in [0, 1], got r = {r:g}")
    t = _check_time(t)
    if t <= 0.5:
        return mu_one(k, t)
    arc = 2.0 * (t - 0.5)
    if arc <= r:
        spot = (1.0, k + arc)
    else:
        spot = (1.0 + (arc - r), k + r)
    return _alive([(*spot, 0), (*spot, 1)])


def gallery_frame(name: str, t: float, *, k: float = 10.0, j: float = 3.0,
                  l: float = 1.0, r: float = 0.5) -> Diagram:
    """Evaluate one named curve at one time."""
    if name == "mu_infty":
        return mu_infty(k, j, t)
    if name == "nu_infty":
        return nu_infty(k, l, t)
    if name == "omega_infty":
        return omega_infty(k, j, t)
    if name == "mu_one":
        return mu_one(k, t)
    if name == "nu_r_one":
        return nu_r_one(k, r, t)
    raise ParameterDomainError(
        f"unknown gallery curve {name!r}; valid names: {', '.join(GALLERY_NAMES)}"
    )
