import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize_scalar

from pdg import (
    Diagram,
    MetricParams,
    ParameterDomainError,
    ParseError,
    Point,
    StructuralError,
    ValidationError,
    diagonal_distance,
    diagonal_projection,
    diagram_to_dict,
    ground_norm,
    parse_diagram,
    parse_extended,
    serialize_diagram,
)
from pdg.diagram import diagram_from_dict

finite = st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e6, max_value=1e6)


def test_ground_norm_examples():
    assert ground_norm((3.0, 4.0), 2.0) == 5.0
    assert ground_norm((3.0, 4.0), 1.0) == 7.0
    assert ground_norm((3.0, 4.0), math.inf) == 4.0
    assert ground_norm((-3.0, 4.0), 1.0) == 7.0
    assert ground_norm((0.0, 0.0), 1.5) == 0.0
    # an overflowed coordinate difference: inf at every q, never NaN
    for q in (1.0, 1.5, 2.0, 3.0, 7.5, math.inf):
        assert ground_norm((math.inf, 1.0), q) == math.inf
        assert ground_norm((1.0, -math.inf), q) == math.inf
    # a q that is not a number is outside the domain too, as in MetricParams
    for q in (0.5, math.nan, "x", None, [2.0], 10 ** 400):
        with pytest.raises(ParameterDomainError, match="q must lie in \\[1, inf\\]"):
            ground_norm((3.0, 4.0), q)
        with pytest.raises(ParameterDomainError, match="q must lie in \\[1, inf\\]"):
            diagonal_distance(Point(0.0, 1.0), q)
    # a vector that is not two real numbers is refused, never truncated
    assert ground_norm(np.array([3, 4]), 2.0) == ground_norm([3.0, 4.0], 2.0) == 5.0
    for v in ((3.0, 4.0, 12.0), (3.0,), (), 5.0, "34", np.eye(2)):
        with pytest.raises(StructuralError, match="exactly 2 entries"):
            ground_norm(v, 2.0)
    for v in (("a", "b"), (10 ** 400, 1), (math.nan, 1.0), (1.0, math.nan), (None, 1.0)):
        with pytest.raises(ValidationError):
            ground_norm(v, 2.0)


def test_ground_norm_general_q_between_bounds():
    v = (2.0, 5.0)
    for q in (1.3, 2.7, 11.0):
        value = ground_norm(v, q)
        assert ground_norm(v, math.inf) <= value <= ground_norm(v, 1.0)
        direct = (abs(v[0]) ** q + abs(v[1]) ** q) ** (1.0 / q)
        assert value == pytest.approx(direct, rel=1e-12)


@given(finite, finite, st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_ground_norm_symmetry_and_scaling(a, b, q):
    assert ground_norm((a, b), q) == ground_norm((b, a), q)
    assert ground_norm((-a, b), q) == ground_norm((a, b), q)


def test_point_validation():
    with pytest.raises(ValidationError):
        Point(1.0, 1.0)
    with pytest.raises(ValidationError):
        Point(2.0, 1.0)
    with pytest.raises(ValidationError):
        Point(0.0, math.inf)
    with pytest.raises(ValidationError):
        Point(math.nan, 1.0)
    # an index is an integer that is no bool, or an integral float, as
    # parse_diagram requires; anything else is refused alike
    for index in (1.5, math.nan, math.inf, None, "a", [1], "3", True, np.True_):
        with pytest.raises(ValidationError, match="point index must be an integer"):
            Point(0.0, 1.0, index)
        with pytest.raises(ValidationError, match="point index must be an integer"):
            Diagram.from_pairs([(0.0, 1.0, index)])
    assert Point(0.0, 1.0, 2.0).index == 2
    assert Point(0.0, 1.0, np.int64(3)).index == 3 and type(Point(0.0, 1.0, np.int64(3)).index) is int
    assert Diagram.from_pairs([(0.0, 1.0, 2.0)]) == Diagram((Point(0.0, 1.0, 2),))
    with pytest.raises(ValidationError, match="diagram entries must be Point, got \\(0.0, 1.0\\)"):
        Diagram([(0.0, 1.0)])
    pt = Point(1.0, 3.0, 4)
    assert pt.persistence == 2.0
    assert pt.geometry() == (1.0, 3.0)


def test_diagram_rejects_coincident_points_with_equal_index():
    with pytest.raises(ValidationError):
        Diagram((Point(0.0, 1.0, 0), Point(0.0, 1.0, 0)))
    # same spot is fine when the indices differ
    d = Diagram((Point(0.0, 1.0, 0), Point(0.0, 1.0, 1)))
    assert len(d) == 2


def test_diagonal_projection_is_nearest_diagonal_point():
    # the projection must minimise the ground distance to the diagonal for
    # every q, which pins it to the midpoint
    pt = Point(1.0, 5.0)
    assert diagonal_projection(pt) == (3.0, 3.0)
    for q in (1.0, 1.7, 2.0, 4.0, math.inf):
        def off_diagonal_cost(s):
            return ground_norm((pt.birth - s, pt.death - s), q)
        best = minimize_scalar(off_diagonal_cost, bounds=(pt.birth, pt.death), method="bounded")
        assert off_diagonal_cost(3.0) <= best.fun + 1e-12
        if 1.0 < q < math.inf:
            # at q = 1 every diagonal point between birth and death ties, so
            # only strictly convex ground norms pin the argmin
            assert best.x == pytest.approx(3.0, abs=1e-5)


def test_diagonal_distance_matches_projection_cost():
    pt = Point(1.0, 5.0)
    for q in (1.0, 1.5, 2.0, 3.0, math.inf):
        direct = ground_norm((pt.birth - 3.0, pt.death - 3.0), q)
        assert diagonal_distance(pt, q) == pytest.approx(direct, rel=1e-12)
    # closed form: 2^(1/q - 1) (death - birth), with 1/inf read as zero
    assert diagonal_distance(pt, 1.0) == 4.0
    assert diagonal_distance(pt, 2.0) == pytest.approx(4.0 / math.sqrt(2.0))
    assert diagonal_distance(pt, math.inf) == 2.0


def test_parse_extended():
    assert parse_extended("2") == 2.0
    assert parse_extended("1.5") == 1.5
    assert parse_extended("inf") == math.inf
    assert parse_extended("Infinity") == math.inf
    assert parse_extended(3) == 3.0
    with pytest.raises(ParameterDomainError):
        parse_extended("two")
    with pytest.raises(ParameterDomainError, match="nan is not a valid exponent"):
        parse_extended("nan")
    assert parse_extended(" +INF ") == parse_extended(math.inf) == math.inf
    assert parse_extended("-infinity") == -math.inf
    assert parse_extended("1e308") == 1e308
    # a finite literal beyond the float range is no spelling of inf
    for text in ("1e400", "-1e400", " 1e999 ", 10 ** 400):
        with pytest.raises(ParameterDomainError, match="exceeds the float range"):
            parse_extended(text)


def test_metric_params_domain():
    MetricParams(1.0, 1.0)
    MetricParams(64.0, math.inf)
    assert MetricParams(math.inf, 2.0).p == math.inf
    with pytest.raises(ParameterDomainError):
        MetricParams(0.5, 2.0)
    with pytest.raises(ParameterDomainError):
        MetricParams(2.0, 0.9)
    with pytest.raises(ParameterDomainError):
        MetricParams(70.0, 2.0)
    with pytest.raises(ParameterDomainError):
        MetricParams(2.0, 2.0, tol=0.0)


def test_metric_params_refuses_non_numbers_as_a_domain_error():
    # float() would raise a bare ValueError, TypeError or OverflowError here,
    # none of them a PdgError; parse_extended maps the same text alike
    for args in (("x", 2), (2, "x"), (2, 2, "x"), (None, 2), (2, [2]), (10 ** 400, 2)):
        with pytest.raises(ParameterDomainError, match=r"^p, q and tol must be real numbers: "):
            MetricParams(*args)


def test_parse_rejects_malformed_documents():
    with pytest.raises(ParseError):
        parse_diagram("{")
    with pytest.raises(ParseError):
        parse_diagram('{"rows": []}')
    with pytest.raises(ParseError):
        parse_diagram('{"points": 3}')
    with pytest.raises(ParseError):
        parse_diagram('{"points": [[1]]}')
    with pytest.raises(ValidationError):
        parse_diagram('{"points": [[2, 1]]}')


def test_parse_error_names_the_offending_row():
    with pytest.raises(ParseError, match="row 1"):
        parse_diagram('{"points": [[0, 1], [1, "x"]]}')
    with pytest.raises(ValidationError, match="row 1"):
        parse_diagram('{"points": [[0, 1], [5, 4]]}')
    with pytest.raises(ParseError, match="row 1 has a non-integer index"):
        parse_diagram('{"points": [[0, 1], [0, 1, Infinity]]}')


DEEP = "[" * 100_000 + "]" * 100_000  # far beyond the decoder's recursion limit


@pytest.mark.parametrize("data", ['{"points": %s}' % DEEP, ('{"points": %s}' % DEEP).encode()],
                         ids=["text", "bytes"])
def test_parse_refuses_nesting_too_deep_to_decode(data):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_diagram(data)


def test_parse_refuses_bytes_that_are_not_utf8():
    for data in (b"\xff", b'{"points": [[0, 1]], "note": "\xe9"}'):
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_diagram(data)


def test_round_trip_simple():
    text = '{"points": [[0, 1], [2.5, 7]]}'
    d = parse_diagram(text)
    again = parse_diagram(serialize_diagram(d))
    assert again == d
    assert diagram_to_dict(d) == {"points": [[0.0, 1.0], [2.5, 7.0]]}


def test_round_trip_preserves_explicit_indices():
    d = parse_diagram('{"points": [[0, 1, 5], [0, 1, 9]]}')
    payload = diagram_to_dict(d)
    assert payload == {"points": [[0.0, 1.0, 5], [0.0, 1.0, 9]]}
    assert parse_diagram(json.dumps(payload)) == d


points_strategy = st.lists(
    st.tuples(finite, st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)),
    max_size=8,
)


@given(points_strategy)
def test_round_trip_random_diagrams(raw):
    d = Diagram.from_pairs([(b, b + gap) for b, gap in raw])
    assert parse_diagram(serialize_diagram(d)) == d


def test_equal_diagrams_hash_equal():
    parsed = parse_diagram('{"points": [[0, 1, 5], [2.5, 7]]}')
    built = Diagram.from_pairs([(0.0, 1.0, 5), (2.5, 7.0)])
    assert parsed == built and hash(parsed) == hash(built)
    assert parsed != 3 and parsed.__eq__(3) is NotImplemented
    assert len({parsed, built, Diagram.from_pairs([(0.0, 1.0), (2.5, 7.0)])}) == 2
    assert list(built) == [Point(0.0, 1.0, 5), Point(2.5, 7.0, 1)]
    assert repr(parsed) == (
        "Diagram(points=(Point(birth=0.0, death=1.0, index=5), Point(birth=2.5, death=7.0, index=1)))"
    )
    with pytest.raises(ValidationError, match="row 1 has 4 entries, expected 2 or 3"):
        Diagram.from_pairs([(0.0, 1.0), (0.0, 1.0, 2, 3)])


def test_geometry_array_shape():
    d = Diagram.from_pairs([(0.0, 1.0), (2.0, 5.0)])
    arr = d.geometry()
    assert arr.shape == (2, 2)
    assert np.array_equal(arr, np.array([[0.0, 1.0], [2.0, 5.0]]))
    assert Diagram().geometry().shape == (0, 2)


def test_scaled_and_shifted():
    d = Diagram.from_pairs([(1.0, 3.0)])
    assert d.scaled(2.0).points[0].geometry() == (2.0, 6.0)
    assert d.shifted(1.5).points[0].geometry() == (2.5, 4.5)
    for bad, message in (
        (lambda: d.scaled(0.0), r"^point \(0\.0, 0\.0\) is not strictly above the diagonal$"),
        (lambda: d.scaled(-1.0), r"^point \(-1\.0, -3\.0\) is not strictly above the diagonal$"),
        (lambda: d.shifted(math.inf), r"^point \(inf, inf\) has non-finite coordinates$"),
        (lambda: d.scaled(math.nan), r"^point \(nan, nan\) has non-finite coordinates$"),
    ):
        with pytest.raises(ValidationError, match=message):
            bad()


def test_scaled_and_shifted_refuse_a_row_beyond_the_float_range_quietly():
    # the product or sum overflows (or is inf * 0) in numpy before the bulk
    # check refuses the row: the first bad row's ValidationError, no warning
    d = Diagram.from_pairs([(0.0, 1.0), (1e308, 1.5e308)])
    for bad, message in (
        (lambda: d.scaled(10.0), r"^point \(inf, inf\) has non-finite coordinates$"),
        (lambda: Diagram.from_pairs([(0.0, 1.0)]).scaled(math.inf),
         r"^point \(nan, inf\) has non-finite coordinates$"),
        (lambda: d.shifted(1e308), r"^point \(1e\+308, 1e\+308\) is not strictly above the diagonal$"),
        (lambda: Diagram.from_pairs([(0.0, 1e300), (1e308, 1.5e308)]).shifted(1e308),
         r"^point \(inf, inf\) has non-finite coordinates$"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                bad()


def test_multiset_key_ignores_order_and_indices():
    a = Diagram((Point(0.0, 1.0, 0), Point(2.0, 3.0, 1)))
    b = Diagram((Point(2.0, 3.0, 7), Point(0.0, 1.0, 3)))
    assert a.multiset_key() == b.multiset_key()


def reference_parse(rows):
    """The row-by-row parse: type checks, then one validated Point per row,
    in row order, then the duplicate check."""
    pts = []
    for pos, row in enumerate(rows):
        if not isinstance(row, list) or len(row) not in (2, 3):
            raise ParseError(f'"points" row {pos} must be [birth, death] or [birth, death, index]')
        for entry in row:
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ParseError(f'"points" row {pos} holds a non-numeric entry: {entry!r}')
        if len(row) == 3 and isinstance(row[2], float) and not row[2].is_integer():
            raise ParseError(f'"points" row {pos} has a non-integer index: {row[2]!r}')
        index = int(row[2]) if len(row) == 3 else pos
        try:
            pts.append(Point(row[0], row[1], index))
        except ValidationError as exc:
            raise ValidationError(f'"points" row {pos}: {exc}') from exc
    seen = set()
    for p in pts:
        key = (p.birth, p.death, p.index)
        if key in seen:
            raise ValidationError(
                f"points at ({p.birth}, {p.death}) share index {p.index}; "
                "coincident points must carry distinct indices"
            )
        seen.add(key)
    return pts


def parse_outcome(parse, arg):
    try:
        return parse(arg)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


VALID_ROWS = [
    [0, 1], [0.5, 2.25], [-0.0, 1.0], [0.0, 1.0], [5e-324, 1e-323], [-1e-320, -0.0],
    [2**53 + 1, 2**54 + 3], [2**64, 2**64 + 2**12], [-(2**64), 3], [0, 1, 0], [0, 1, 7],
    [-0.0, 1, 7], [0.0, 1.0, 3.0], [0, 1, -3], [0, 1, 2**64], [0, 1, 10**400],
    [1e300, 1.5e300, 1e300],
]
BAD_ROWS = [
    # not a point
    [2, 1], [1, 1], [0, math.nan], [math.inf, 1], [-math.inf, 0], [10**400, 1], [0, 10**400],
    [-(10**400), 0], [math.nan, 10**400],
    # malformed
    [True, 1], [0, False], ["x", 1], [None, 1], [[0], 1], [0, [1]], [0, 1, 0.5], [0, 1, math.nan],
    [0, 1, math.inf], [0, 1, "i"], [0, 1, True], [0], [0, 1, 2, 3], [], "row", 3, None, {"a": 1},
]


def test_parse_matches_the_row_by_row_reference():
    cases = [
        [],
        [[2, 1], [0, "x"]],  # row 0 is below the diagonal, row 1 malformed: row 0 is named
        [[0, "x"], [2, 1]],
        [[0, 1], [0, 1, 0]],  # row 0 takes index 0 positionally
        [[0.0, 1, 4], [-0.0, 1.0, 4]],  # -0.0 and 0.0 coincide
        [[0, 1, 2**64], [0, 1, 2**64]],
        [[0, 1, 10**400], [0, 1, 10**400 + 1]],
        [[1, 2], [0, 10**400], [3, 2]],
        [[1, 2], [3, 2], [0, 10**400]],
        [[1, 2], [0, 10**400, 0.5]],
    ]
    rng = np.random.default_rng(83)
    for _ in range(3000):
        # mostly valid rows, so that later faults and duplicates are reached
        pools = [VALID_ROWS if rng.random() < 0.7 else BAD_ROWS for _ in range(rng.integers(0, 7))]
        cases.append([pool[rng.integers(len(pool))] for pool in pools])
    for rows in cases:
        expected = parse_outcome(reference_parse, rows)
        for got in (
            parse_outcome(lambda r: parse_diagram(json.dumps({"points": r})), rows),
            parse_outcome(lambda r: diagram_from_dict({"points": r}), rows),
        ):
            if isinstance(expected, tuple):
                assert got == expected, rows
                continue
            assert isinstance(got, Diagram), rows
            coords = np.array([(p.birth, p.death) for p in expected], dtype=float).reshape(-1, 2)
            assert got.geometry().tobytes() == coords.tobytes(), rows
            assert [p.index for p in got.points] == [p.index for p in expected], rows
            assert got == Diagram(tuple(expected))
