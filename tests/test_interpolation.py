"""Differential tests of the interpolation layer against a per-slot walk.

The reference below walks a matching slot by slot through Point objects, the
way the straight-line interpolation was first written.  convex_combination
and characterization_audit must agree with it bit for bit: coordinates,
indices, point order, report fields and exception types.
"""

import math
import random

import pytest

from pdg import (
    Diagram,
    MetricParams,
    Point,
    StructuralError,
    ValidationError,
    characterization_audit,
    convex_combination,
    diagonal_projection,
    distance,
    identity_psi,
    matching_from_assignment,
)
from pdg.diagram import _qnorm

COORDS = ((0.0, 4.0), (1.0, 3.0), (1.0, 5.0), (0.5, 2.25), (-2.0, 6.0), (3.0, 3.5))
INDICES = (0, 1, 2, 2**64, 2**64 + 1, 10**20)
TIMES = (0.0, 1.0, 0.5, 0.25, 0.75, 0.125, 0.625, 1e-300)
AUDIT_PARAMS = (MetricParams(2.0, 2.0), MetricParams(3.0, 3.0), MetricParams(3.0, 2.0))
PAIR_PARAMS = MetricParams(2.0, 2.0)


def _reference_trajectories(x, y, m):
    nx, ny = len(x), len(y)
    out = []
    for i, j in enumerate(m.assignment):
        if i < nx:
            a = x.points[i]
            if j < ny:
                out.append((a.geometry(), y.points[j].geometry(), a.index, y.points[j].index))
            else:
                mid = 0.5 * (a.birth + a.death)
                out.append((a.geometry(), (mid, mid), a.index, None))
        elif j < ny:
            b = y.points[j]
            mid = 0.5 * (b.birth + b.death)
            out.append(((mid, mid), b.geometry(), None, b.index))
    return out


def _reference_position(traj, t):
    source, target = traj[0], traj[1]
    return ((1.0 - t) * source[0] + t * target[0], (1.0 - t) * source[1] + t * target[1])


def _reference_frame(x, y, m, t):
    raw = []
    for traj in _reference_trajectories(x, y, m):
        b, d = _reference_position(traj, t)
        if d <= b:
            continue
        raw.append((b, d, traj[3] if t >= 1.0 or traj[2] is None else traj[2]))
    used = set()
    top = max((idx for _, _, idx in raw), default=-1)
    points = []
    for b, d, idx in raw:
        while (b, d, idx) in used:
            top += 1
            idx = top
        used.add((b, d, idx))
        points.append(Point(b, d, idx))
    return Diagram(tuple(points))


def _reference_audit(x, y, m, mid, psi, t, params):
    p, q = params.p, params.q
    trajectories = _reference_trajectories(x, y, m)
    positions = [_reference_position(traj, t) for traj in trajectories]
    alive = [pos for pos, (b, d) in enumerate(positions) if d > b]
    if len(psi.assignment) != len(alive) + len(mid):
        raise StructuralError("psi does not cover the frame and midpoint")
    legs = []
    for pos, traj in enumerate(trajectories):
        image = positions[pos]
        if pos in alive:
            target = psi.assignment[alive.index(pos)]
            if target < len(mid):
                image = mid.points[target].geometry()
            else:
                center = 0.5 * (image[0] + image[1])
                image = (center, center)
        legs.append((traj[0], traj[1], image))
    for target in psi.assignment[len(alive):]:
        if target < len(mid):
            point = mid.points[target]
            center = 0.5 * (point.birth + point.death)
            legs.append(((center, center), (center, center), point.geometry()))
    positive, defect = [], []
    for source, target, image in legs:
        qr = ((source[0] - image[0]) / t, (source[1] - image[1]) / t)
        rr = ((image[0] - target[0]) / (1.0 - t), (image[1] - target[1]) / (1.0 - t))
        positive.append(t * _qnorm(qr[0], qr[1], q) ** p)
        positive.append((1.0 - t) * _qnorm(rr[0], rr[1], q) ** p)
        defect.append(t * (1.0 - t) * _qnorm(qr[0] - rr[0], qr[1] - rr[1], q) ** p)
    endpoint, _ = distance(x, y, params)
    return (t, math.fsum(positive), math.fsum(defect), endpoint ** p)


def _random_diagram(rng, size):
    keys = set()
    while len(keys) < size:
        keys.add((*rng.choice(COORDS), rng.choice(INDICES)))
    points = [Point(*key) for key in keys]
    rng.shuffle(points)
    return Diagram(tuple(points))


def _random_matching(rng, x, y):
    assignment = list(range(len(x) + len(y)))
    rng.shuffle(assignment)
    return matching_from_assignment(x, y, assignment, PAIR_PARAMS)


def _bits(diagram):
    rows = diagram.geometry().tolist()
    return [(b.hex(), d.hex(), p.index) for (b, d), p in zip(rows, diagram.points)]


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the exception's type is part of the contract
        return type(exc)


def test_convex_combination_matches_the_per_slot_walk_bitwise():
    rng = random.Random(20)
    bumped = 0
    for _ in range(400):
        x = _random_diagram(rng, rng.randint(0, 5))
        y = _random_diagram(rng, rng.randint(0, 5))
        m = _random_matching(rng, x, y)
        for t in (*TIMES, rng.random()):
            frame = convex_combination(x, y, m, t)
            reference = _reference_frame(x, y, m, t)
            assert _bits(frame) == _bits(reference)
            bumped += any(p.index > max(INDICES) for p in frame.points)
    assert bumped > 0  # the coincident-point index rule was exercised


def test_characterization_audit_matches_the_per_slot_walk_bitwise():
    rng = random.Random(21)
    for _ in range(200):
        x = _random_diagram(rng, rng.randint(0, 4))
        y = _random_diagram(rng, rng.randint(0, 4))
        m = _random_matching(rng, x, y)
        mid = _random_diagram(rng, rng.randint(0, 3))
        t = rng.choice((0.5, 0.25, 0.875, rng.uniform(0.01, 0.99)))
        gamma = _reference_frame(x, y, m, t)
        psi = _random_matching(rng, gamma, mid)
        if rng.random() < 0.1:
            psi = _random_matching(rng, gamma, Diagram(()))  # wrong length
        for params in AUDIT_PARAMS:
            got = _outcome(lambda: characterization_audit(x, y, m, mid, psi, t, params))
            want = _outcome(lambda: _reference_audit(x, y, m, mid, psi, t, params))
            if isinstance(want, tuple):
                got = (got.t, got.positive_part, got.defect, got.bound)
                assert [v.hex() for v in got] == [v.hex() for v in want]
            else:
                assert got is want


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_interpolation_to_the_diagonal_near_the_float_range_end(p):
    # the midpoint 0.5 * (b + d) overflows here; the halves' sum does not
    x = Diagram.from_pairs([(9.5e307, 9.8e307)])
    y = Diagram(())
    _, m = distance(x, y, MetricParams(p, 2.0))
    assert convex_combination(x, y, m, 0.0) == x
    for t in (0.25, 0.5):
        frame = convex_combination(x, y, m, t)
        assert len(frame) == 1 and 9.5e307 < frame.points[0].birth < 9.65e307
    assert len(convex_combination(x, y, m, 1.0)) == 0
    assert diagonal_projection(Point(9.5e307, 9.8e307)) == (0.5 * 9.5e307 + 0.5 * 9.8e307,) * 2


@pytest.mark.parametrize("pq, t", [(64.0, 1e-5), (2.0, 1e-155), (2.0, 1e-160)])
def test_audit_rate_overflow_is_a_validation_error(pq, t):
    x = Diagram.from_pairs([(0.0, 4.0)])
    y = Diagram.from_pairs([(1.0, 6.0)])
    mid = Diagram.from_pairs([(50.0, 90.0)])
    params = MetricParams(pq, pq)
    _, m = distance(x, y, params)
    frame = convex_combination(x, y, m, t)
    psi = matching_from_assignment(frame, mid, (1, 0), params)
    with pytest.raises(ValidationError, match=r"audit leg 0 .*p = "):
        characterization_audit(x, y, m, mid, psi, t, params)
    if pq == 2.0:  # at p = 64 the psi below has a pair cost that overflows
        # the frame kept, and (0, 1e150) fed from the diagonal: at t = 1e-160
        # its rate is itself inf, whose p-th power raises nothing
        mid = Diagram.from_pairs([*frame.geometry().tolist(), (0.0, 1e150)])
        with pytest.raises(ValidationError, match=r"audit leg 1 .*p = "):
            characterization_audit(x, y, m, mid, identity_psi(frame, mid, params), t, params)


def test_audit_bound_overflow_is_a_validation_error():
    # every leg's powered rate fits, but the endpoint distance's square does not
    x = Diagram.from_pairs([(float(i), 1.5e154 + i) for i in range(4)])
    y = Diagram(())
    params = MetricParams(2.0, 2.0)
    _, m = distance(x, y, params)
    mid = convex_combination(x, y, m, 0.5)
    psi = matching_from_assignment(mid, mid, range(2 * len(mid)), params)
    with pytest.raises(ValidationError, match="endpoint distance"):
        characterization_audit(x, y, m, mid, psi, 0.5, params)
