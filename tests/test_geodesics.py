import json
import math

import numpy as np
import pytest

import pdg.geodesics
from pdg import (
    Diagram,
    MetricParams,
    ParameterDomainError,
    ParseError,
    SampledCurve,
    SizeGuardError,
    StructuralError,
    ValidationError,
    certify_geodesic,
    classify_curve,
    convex_combination,
    detect_branching,
    distance,
    matching_from_assignment,
    parse_curve,
    regime,
    sample_convex_combination,
    sample_gallery,
    uniform_grid,
)
from pdg.geodesics import _squeeze
from pdg.instances import GRID_P, GRID_Q, four_point_pair, random_diagram, random_pair


def geometry(diagram):
    return sorted(pt.geometry() for pt in diagram.points)


def test_uniform_grid():
    assert uniform_grid(2) == (0.0, 1.0)
    assert uniform_grid(5) == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ParameterDomainError):
        uniform_grid(1)


def test_sampled_curve_validation():
    frames = (Diagram(), Diagram())
    SampledCurve((0.0, 1.0), frames)
    with pytest.raises(ValidationError):
        SampledCurve((0.0, 0.5), frames)
    with pytest.raises(ValidationError):
        SampledCurve((0.5, 1.0), frames)
    with pytest.raises(ValidationError):
        SampledCurve((0.0, 0.0, 1.0), (Diagram(),) * 3)
    with pytest.raises(StructuralError):
        SampledCurve((0.0, 1.0), (Diagram(),))
    with pytest.raises(ValidationError, match="at least 2 samples"):
        SampledCurve((0.0,), (Diagram(),))
    with pytest.raises(ValidationError, match="frames must be Diagram values"):
        SampledCurve((0.0, 1.0), (Diagram(), {"points": []}))


def test_reversed_round_trip():
    curve = sample_gallery("mu_infty", 9, k=10.0, j=3.0)
    back = curve.reversed()
    assert back.times == curve.times
    assert geometry(back.frames[0]) == geometry(curve.frames[-1])
    again = back.reversed()
    assert [geometry(f) for f in again.frames] == [geometry(f) for f in curve.frames]


def test_convex_combination_endpoints():
    x, y = four_point_pair()
    params = MetricParams(2.0, 2.0)
    _, witness = distance(x, y, params)
    start = convex_combination(x, y, witness, 0.0)
    end = convex_combination(x, y, witness, 1.0)
    assert geometry(start) == geometry(x)
    assert geometry(end) == geometry(y)
    for t in (-0.25, 1.5, math.nan):
        with pytest.raises(ParameterDomainError, match="must lie in \\[0, 1\\]"):
            convex_combination(x, y, witness, t)
    with pytest.raises(StructuralError, match="matching covers 4 slots but the diagrams define 3"):
        convex_combination(x, Diagram(y.points[:1]), witness, 0.5)


def test_convex_combination_to_empty_passes_the_midpoint():
    x = Diagram.from_pairs([(0.0, 4.0)])
    params = MetricParams(2.0, 2.0)
    _, witness = distance(x, Diagram(), params)
    mid = convex_combination(x, Diagram(), witness, 0.5)
    # halfway to the diagonal projection (2, 2)
    assert geometry(mid) == [(1.0, 3.0)]
    gone = convex_combination(x, Diagram(), witness, 1.0)
    assert geometry(gone) == []


def test_convex_combination_from_empty_grows_points():
    y = Diagram.from_pairs([(0.0, 4.0)])
    params = MetricParams(2.0, 2.0)
    _, witness = distance(Diagram(), y, params)
    mid = convex_combination(Diagram(), y, witness, 0.5)
    assert geometry(mid) == [(1.0, 3.0)]


def test_sampled_convex_combination_certifies():
    rng = np.random.default_rng(19)
    for p, q in ((1.0, 1.0), (2.0, 2.0), (3.0, 1.0), (math.inf, 2.0)):
        params = MetricParams(p, q)
        for _ in range(5):
            x, y = random_pair(rng, max_total=5)
            _, witness = distance(x, y, params)
            curve = sample_convex_combination(x, y, witness, 9)
            cert = certify_geodesic(curve, params)
            assert cert.ok, (p, q, cert.witness)
            assert cert.max_violation <= 1e-9


def test_suboptimal_matching_does_not_certify():
    x = Diagram.from_pairs([(0.0, 10.0), (4.0, 14.0)])
    y = Diagram.from_pairs([(0.5, 10.5), (4.5, 14.5)])
    params = MetricParams(2.0, 2.0)
    crossed = matching_from_assignment(x, y, (1, 0, 2, 3), params)
    curve = sample_convex_combination(x, y, crossed, 9)
    cert = certify_geodesic(curve, params)
    assert not cert.ok
    assert cert.max_violation > 1.0


def test_constant_empty_curve_certifies():
    curve = SampledCurve((0.0, 0.5, 1.0), (Diagram(), Diagram(), Diagram()))
    cert = certify_geodesic(curve, MetricParams(2.0, 2.0))
    assert cert.ok
    assert cert.endpoint_distance == 0.0
    assert cert.witness is None


def test_classify_convex_combination_round_trip():
    rng = np.random.default_rng(27)
    params = MetricParams(2.0, 2.0)
    for _ in range(5):
        x, y = random_pair(rng, max_total=5)
        _, witness = distance(x, y, params)
        curve = sample_convex_combination(x, y, witness, 9)
        outcome = classify_curve(curve, params)
        assert outcome.kind == "convex-combination"
        assert outcome.matching is not None
        assert outcome.certificate.ok


def test_classify_flags_non_geodesics():
    x = Diagram.from_pairs([(0.0, 10.0), (4.0, 14.0)])
    y = Diagram.from_pairs([(0.5, 10.5), (4.5, 14.5)])
    params = MetricParams(2.0, 2.0)
    crossed = matching_from_assignment(x, y, (1, 0, 2, 3), params)
    curve = sample_convex_combination(x, y, crossed, 9)
    outcome = classify_curve(curve, params)
    assert outcome.kind == "not-geodesic"
    assert not outcome.certificate.ok
    assert outcome.matching is None


def test_classify_deviant_gallery():
    curve = sample_gallery("omega_infty", 17, k=10.0, j=3.0)
    outcome = classify_curve(curve, MetricParams(math.inf, 2.0))
    assert outcome.kind == "deviant"
    assert outcome.residual > 0.1
    assert 0.0 < outcome.witness_time < 1.0


GALLERY_KWARGS = {
    "mu_infty": {"k": 10.0, "j": 3.0},
    "nu_infty": {"k": 10.0, "l": 1.0},
    "omega_infty": {"k": 10.0, "j": 3.0},
    "mu_one": {"k": 10.0},
    "nu_r_one": {"k": 10.0, "r": 0.5},
}
CELLS = [MetricParams(p, q) for p in GRID_P for q in GRID_Q]


def _squeeze_corpus():
    """(curve, params, geodesic) triples: seeded convex combinations, the same
    with one interior frame moved by 1e-6, and the gallery curves, each also
    reversed; geodesic is None where the test does not know the answer."""
    rng = np.random.default_rng(2301)
    corpus = []
    for grid in (3, 9, 33):
        for params in CELLS:
            x = random_diagram(rng, int(rng.integers(1, 8)))
            y = random_diagram(rng, int(rng.integers(1, 8)))
            _, witness = distance(x, y, params)
            curve = sample_convex_combination(x, y, witness, grid)
            frames = list(curve.frames)
            frames[grid // 2] = Diagram.from_pairs(
                [(b, d + 1e-6) for b, d in frames[grid // 2].geometry().tolist()])
            corpus += [(curve, params, True), (SampledCurve(curve.times, tuple(frames)), params, False)]
    for name, kwargs in GALLERY_KWARGS.items():
        for grid in (3, 5, 9, 17, 33, 65):
            curve = sample_gallery(name, grid, **kwargs)
            corpus += [(curve, params, None) for params in CELLS]
    return corpus + [(curve.reversed(), params, geodesic) for curve, params, geodesic in corpus]


def test_the_squeeze_passes_only_where_the_exact_scan_does(monkeypatch):
    def outcome(curve, params):
        try:
            found = classify_curve(curve, params)
        except SizeGuardError as exc:  # the factorial enumeration's guard, past 9 points
            return str(exc)
        return found.kind, found.matching, found.witness_time, found.residual

    passed = 0
    for curve, params, geodesic in _squeeze_corpus():
        bound = _squeeze(curve, params)
        # a convex combination passes (its violations are rounding) and a
        # moved frame is refused; where the squeeze refuses, classify_curve
        # runs certify_geodesic itself, the code the patched call below runs
        assert geodesic is None or (bound is not None) == geodesic, (curve.times, params)
        if bound is None:
            continue
        passed += 1
        exact = certify_geodesic(curve, params)
        assert exact.ok and bound.witness is None
        assert bound.endpoint_distance == exact.endpoint_distance
        assert exact.max_violation <= bound.max_violation, (curve.times, params)
        fast = outcome(curve, params)
        # the squeeze patched out, classify reads the exact certificate above
        with monkeypatch.context() as patched:
            patched.setattr(pdg.geodesics, "_squeeze", lambda curve, params: None)
            patched.setattr(pdg.geodesics, "certify_geodesic", lambda curve, params: exact)
            assert outcome(curve, params) == fast
    assert passed >= 200


def test_certify_squeeze_and_classify_distance_calls(monkeypatch):
    calls = []
    real = pdg.geodesics.distance
    monkeypatch.setattr(pdg.geodesics, "distance", lambda *args: calls.append(1) or real(*args))

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    params = MetricParams(2.0, 2.0)
    x, y = four_point_pair()
    for grid in (2, 3, 9, 33):
        curve = sample_convex_combination(x, y, distance(x, y, params)[1], grid)
        assert count(certify_geodesic, curve, params) == grid * (grid - 1) // 2 + 1
        assert count(_squeeze, curve, params) == grid
    # a non-geodesic: the squeeze refuses, the exact scan runs, and classify
    # returns its not-geodesic verdict before it enumerates any matching
    def enumerate_nothing(*args):
        raise AssertionError("classify enumerated matchings for a non-geodesic")

    monkeypatch.setattr(pdg.geodesics, "enumerate_optimal_matchings", enumerate_nothing)
    curve = sample_gallery("omega_infty", 17, k=10.0, j=3.0)
    assert count(classify_curve, curve, params) == 17 + 17 * 16 // 2 + 1
    assert classify_curve(curve, params).kind == "not-geodesic"


def test_regime_tags():
    assert regime(math.inf, 2.0) == "counterexample"
    assert regime(1.0, 1.0) == "counterexample"
    assert regime(2.0, 2.0) == "characterized"
    assert regime(3.0, 3.0) == "characterized"
    assert regime(1.5, 2.0) == "characterized"
    assert regime(3.0, 2.0) == "characterized"
    assert regime(1.5, 1.5) == "open"
    assert regime(3.0, 1.0) == "open"
    # the finite-p cap of 64 is a solver limit, not the metric's domain
    assert regime(100.0, 100.0) == "characterized"
    for p, q in ((math.nan, 2.0), (0.5, 2.0), (2.0, 0.5), (2.0, math.nan)):
        with pytest.raises(ParameterDomainError, match=r"^[pq] must lie in \[1, inf\], got "):
            regime(p, q)


def test_detect_branching_none_for_identical_curves():
    curve = sample_gallery("mu_one", 17, k=10.0)
    assert detect_branching(curve, curve, MetricParams(1.0, 1.0)) is None


def test_detect_branching_none_when_apart_from_the_start():
    a = sample_gallery("mu_infty", 17, k=10.0, j=3.0)
    b = sample_gallery("omega_infty", 17, k=10.0, j=3.0)
    # distinct already at t = 0, so there is no branch time to report
    assert detect_branching(a, b, MetricParams(math.inf, 2.0)) is None


def test_detect_branching_requires_shared_grid():
    a = sample_gallery("mu_one", 17, k=10.0)
    b = sample_gallery("mu_one", 33, k=10.0)
    with pytest.raises(StructuralError):
        detect_branching(a, b, MetricParams(1.0, 1.0))


def test_parse_curve_round_trip():
    curve = sample_gallery("nu_r_one", 9, k=10.0, r=0.5)
    text = json.dumps(curve.to_dict())
    for again in (parse_curve(text), parse_curve(text.encode("utf-8"))):
        assert again.times == curve.times
        assert [geometry(f) for f in again.frames] == [geometry(f) for f in curve.frames]


def test_parse_curve_rejections():
    with pytest.raises(ParseError):
        parse_curve("[]")
    with pytest.raises(ParseError):
        parse_curve('{"times": [0.0, 1.0]}')
    for fields in ('"times": [0.0, 1.0], "frames": {}', '"times": "0 1", "frames": []'):
        with pytest.raises(ParseError, match='"times" and "frames" must be lists'):
            parse_curve("{%s}" % fields)
    with pytest.raises(ValidationError, match="frame 1"):
        parse_curve('{"times": [0.0, 1.0], "frames": [{"points": []}, {"points": [[3, 1]]}]}')
    with pytest.raises(ValidationError):
        parse_curve('{"times": [0.0, 2.0], "frames": [{"points": []}, {"points": []}]}')
    with pytest.raises(ValidationError, match="strictly increasing"):
        parse_curve('{"times": [0.0, NaN, 1.0], "frames": [{"points": []}, {"points": []}, {"points": []}]}')


def test_parse_curve_refuses_undecodable_documents():
    deep = "[" * 100_000 + "]" * 100_000  # far beyond the decoder's recursion limit
    for data in ('{"times": %s}' % deep, deep.encode()):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_curve(data)
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_curve(b'{"times": [0, 1], "frames": [], "note": "\xff"}')


@pytest.mark.parametrize("times, entry", [
    ("[false, true]", "entry 0 is not a number: False"),
    ('[0, "0.5", 1]', "entry 1 is not a number: '0.5'"),
    ("[0, null, 1]", "entry 1 is not a number: None"),
], ids=["bools", "string", "null"])
def test_parse_curve_times_are_json_numbers(times, entry):
    frames = ", ".join(['{"points": []}'] * len(json.loads(times)))
    with pytest.raises(ParseError, match=entry):
        parse_curve('{"times": %s, "frames": [%s]}' % (times, frames))


def test_parse_curve_time_beyond_the_float_range_is_invalid():
    with pytest.raises(ValidationError, match="sample times must be real numbers"):
        parse_curve('{"times": [0, %d, 1], "frames": [%s]}' % (10**400, ", ".join(['{"points": []}'] * 3)))


def test_certificate_serialization():
    curve = sample_gallery("omega_infty", 9, k=10.0, j=3.0)
    cert = certify_geodesic(curve, MetricParams(2.0, 2.0))
    payload = cert.to_dict()
    assert payload["ok"] is False
    assert set(payload["witness"]) == {"s", "t", "measured", "expected"}
    outcome = classify_curve(curve, MetricParams(2.0, 2.0))
    assert outcome.to_dict()["kind"] == "not-geodesic"
