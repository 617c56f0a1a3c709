import pytest

from pdg import (
    MetricParams,
    ParameterDomainError,
    detect_branching,
    gallery_frame,
    sample_gallery,
)
from pdg.gallery import GALLERY_NAMES, mu_infty, mu_one, nu_infty, nu_r_one, omega_infty


def geometry(diagram):
    return sorted(pt.geometry() for pt in diagram.points)


def test_names():
    assert set(GALLERY_NAMES) == {"mu_infty", "nu_infty", "omega_infty", "mu_one", "nu_r_one"}


def test_mu_infty_frames():
    assert geometry(mu_infty(10.0, 3.0, 0.0)) == [(0.0, 3.0), (0.0, 10.0)]
    # the low point dies at t = 1/3 and the tall point walks up the diagonal
    assert geometry(mu_infty(10.0, 3.0, 0.5)) == [(2.5, 7.5)]
    assert geometry(mu_infty(10.0, 3.0, 1.0)) == []
    low = mu_infty(10.0, 3.0, 0.25)
    assert geometry(low) == [(1.125, 1.875), (1.25, 8.75)]


def test_nu_infty_frames():
    assert geometry(nu_infty(10.0, 1.0, 0.0)) == [(0.0, 1.0), (0.0, 10.0)]
    assert geometry(nu_infty(10.0, 1.0, 0.25)) == [(0.375, 0.625), (1.25, 8.75)]
    # after the low point dies the two curves coincide
    assert geometry(nu_infty(10.0, 1.0, 0.75)) == geometry(mu_infty(10.0, 3.0, 0.75))


def test_omega_infty_frames():
    assert geometry(omega_infty(10.0, 3.0, 0.0)) == [(0.0, 10.0)]
    assert geometry(omega_infty(10.0, 3.0, 0.5)) == [(0.0, 3.0), (2.5, 7.5)]
    # the freed point retraces its path back to the diagonal
    assert geometry(omega_infty(10.0, 3.0, 0.25)) == [(0.75, 2.25), (1.25, 8.75)]
    assert geometry(omega_infty(10.0, 3.0, 0.75)) == [(0.75, 2.25), (3.75, 6.25)]
    assert geometry(omega_infty(10.0, 3.0, 1.0)) == []


def test_mu_one_frames():
    assert geometry(mu_one(10.0, 0.0)) == [(0.0, 10.0), (1.0, 9.0)]
    assert geometry(mu_one(10.0, 0.5)) == [(1.0, 10.0), (1.0, 10.0)]
    assert geometry(mu_one(10.0, 1.0)) == [(1.0, 11.0), (2.0, 10.0)]
    indices = sorted(pt.index for pt in mu_one(10.0, 0.5).points)
    assert indices == [0, 1]


def test_nu_r_one_frames():
    # before the crossing every member agrees with the bent path
    for r in (0.0, 0.5, 1.0):
        assert geometry(nu_r_one(10.0, r, 0.25)) == geometry(mu_one(10.0, 0.25))
    # afterwards the doubled point climbs r units then slides right
    assert geometry(nu_r_one(10.0, 0.5, 0.625)) == [(1.0, 10.25), (1.0, 10.25)]
    assert geometry(nu_r_one(10.0, 0.5, 1.0)) == [(1.5, 10.5), (1.5, 10.5)]
    assert geometry(nu_r_one(10.0, 0.0, 1.0)) == [(2.0, 10.0), (2.0, 10.0)]
    assert geometry(nu_r_one(10.0, 1.0, 1.0)) == [(1.0, 11.0), (1.0, 11.0)]


def test_constraint_errors():
    with pytest.raises(ParameterDomainError, match="k > 3j"):
        mu_infty(9.0, 3.0, 0.5)
    with pytest.raises(ParameterDomainError):
        nu_infty(3.0, 1.0, 0.5)
    with pytest.raises(ParameterDomainError):
        mu_infty(10.0, 0.0, 0.5)
    with pytest.raises(ParameterDomainError):
        mu_one(7.0, 0.5)
    with pytest.raises(ParameterDomainError):
        nu_r_one(10.0, 1.5, 0.5)
    with pytest.raises(ParameterDomainError):
        mu_one(10.0, 1.5)
    with pytest.raises(ParameterDomainError):
        gallery_frame("no_such_curve", 0.5)


def test_gallery_frame_dispatch():
    a = gallery_frame("omega_infty", 0.5, k=10.0, j=3.0)
    assert geometry(a) == geometry(omega_infty(10.0, 3.0, 0.5))
    b = gallery_frame("nu_r_one", 1.0, k=10.0, r=0.25)
    assert geometry(b) == [(1.75, 10.25), (1.75, 10.25)]


def test_sample_gallery_grid():
    curve = sample_gallery("mu_infty", 17, k=10.0, j=3.0)
    assert len(curve.times) == 17
    assert curve.times[0] == 0.0
    assert curve.times[-1] == 1.0
    assert geometry(curve.frames[0]) == [(0.0, 3.0), (0.0, 10.0)]


def test_branching_between_family_members():
    one = MetricParams(1.0, 1.0)
    lo = sample_gallery("nu_r_one", 33, k=10.0, r=0.5)
    hi = sample_gallery("nu_r_one", 33, k=10.0, r=1.0)
    # the doubled points share the first half unit of ascent, so detection
    # lands on t = 1/2 + r/2 with r the smaller ascent
    assert detect_branching(lo, hi, one) == 0.75
    base = sample_gallery("nu_r_one", 33, k=10.0, r=0.0)
    assert detect_branching(base, hi, one) == 0.5
    assert detect_branching(base, lo, one) == 0.5


def test_branching_against_the_bent_path():
    one = MetricParams(1.0, 1.0)
    bent = sample_gallery("mu_one", 33, k=10.0)
    riser = sample_gallery("nu_r_one", 33, k=10.0, r=1.0)
    assert detect_branching(bent, riser, one) == 0.5
