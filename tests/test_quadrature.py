import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from reference import radial_integral_quad

from perco.models import catalog, mark_averaged_connection, phibar_breakpoints
from perco.ppp import sphere_surface, unit_ball_volume
from perco.quadrature import cap_fraction_outside, lens_volume, radial_integral


def test_radial_integral_finite_support_exact():
    # integral of rho^{d-1} * 1{rho <= 2} from 0 to support: 2^d/d
    for d in (1, 2, 3):
        res = radial_integral(lambda r: np.where(r <= 2.0, 1.0, 0.0), d, support=2.0, breakpoints=[2.0])
        assert res.verdict == "finite"
        assert res.value == pytest.approx(2.0**d / d, rel=1e-9)


def test_radial_integral_power_tail_exact():
    # f = min(1, rho^-3), d=2: integral rho^{d-1} f = 1/2 + log-free tail = 1/2 + 1
    res = radial_integral(lambda r: np.minimum(1.0, r**-3.0), 2, breakpoints=[1.0])
    assert res.verdict == "finite"
    assert res.value == pytest.approx(0.5 + 1.0, rel=1e-7)
    assert res.tail_exponent == pytest.approx(-2.0, abs=1e-6)


def test_radial_integral_divergent():
    res = radial_integral(lambda r: np.minimum(1.0, r**-2.0), 2, breakpoints=[1.0])
    assert res.verdict == "divergent"
    assert math.isinf(res.value)
    res2 = radial_integral(lambda r: np.minimum(1.0, r**-0.9), 1, breakpoints=[1.0])
    assert res2.verdict == "divergent"


def test_radial_integral_near_critical_band():
    # exponent just below -1: any finite fit is untrustworthy, so no silent pass
    res = radial_integral(lambda r: np.minimum(1.0, r**-1.02), 1, breakpoints=[1.0])
    assert res.verdict == "inconclusive"
    assert "boundary" in res.note


def test_radial_integral_lower_limit():
    # start above the support end -> exactly zero
    res = radial_integral(lambda r: np.where(r <= 1.0, 1.0, 0.0), 2, lower=2.0, support=1.0)
    assert res.value == 0.0
    # tail-only integral with lower inside the power-law zone
    res2 = radial_integral(lambda r: np.minimum(1.0, r**-4.0), 1, lower=3.0, breakpoints=[1.0])
    assert res2.value == pytest.approx(integrate.quad(lambda r: r**-4.0, 3.0, np.inf)[0], rel=1e-6)


# quad's roundoff warnings at the requested 1e-10 are judged by the assertion
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(catalog(1))),
    st.integers(1, 3),
    st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
    st.floats(0.01, 200.0),
)
def test_radial_integral_matches_segmentwise_quad(name, d, lower, width):
    # finite supports only: the fixed rule against adaptive quad on the same segments
    model = catalog(d)[name]
    support = lower + width
    bps = phibar_breakpoints(model)
    got = radial_integral(lambda rho: mark_averaged_connection(model, rho), d, lower, support, bps).value
    want = radial_integral_quad(lambda rho: mark_averaged_connection(model, rho), d, lower, support, bps)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


def test_radial_integral_inconclusive_on_oscillation():
    res = radial_integral(lambda r: (2.0 + np.sin(3 * np.log(r))) / r**1.5 / 3.0, 1)
    assert res.verdict == "inconclusive"
    assert res.note


def test_ball_overlap_closed_forms():
    # two balls of equal radius R
    # d=1: overlap of [-R,R] and [rho-R, rho+R] is 2R - rho
    assert lens_volume(1, 1.0, 1.0, 0.5) == pytest.approx(1.5)
    # d=2: lens area formula
    R, rho = 1.0, 0.8
    lens = 2 * R * R * math.acos(rho / (2 * R)) - 0.5 * rho * math.sqrt(4 * R * R - rho * rho)
    assert lens_volume(2, R, R, rho) == pytest.approx(lens, rel=1e-12)
    # d=3: standard sphere-sphere intersection
    R, rho = 2.0, 1.0
    cap = math.pi * (2 * R - rho) ** 2 * (rho**2 + 4 * rho * R) / 12.0
    assert lens_volume(3, R, R, rho) == pytest.approx(cap, rel=1e-12)
    assert lens_volume(2, 1.0, 1.0, 2.0) == 0.0
    assert lens_volume(2, 1.0, 1.0, 0.0) == pytest.approx(math.pi)


def test_lens_volume_closed_forms():
    # d=3: sphere-sphere intersection with unequal radii
    r1, r2, rho = 1.0, 2.0, 2.5
    exact = (
        math.pi * (r1 + r2 - rho) ** 2
        * (rho**2 + 2 * rho * r2 - 3 * r2**2 + 2 * rho * r1 + 6 * r1 * r2 - 3 * r1**2)
        / (12 * rho)
    )
    assert lens_volume(3, r1, r2, rho) == pytest.approx(exact, rel=1e-12)
    assert lens_volume(3, r2, r1, rho) == pytest.approx(exact, rel=1e-12)
    # d=1: overlap of [-r1, r1] and [rho - r2, rho + r2]
    assert lens_volume(1, 1.0, 2.0, 2.5) == pytest.approx(0.5, rel=1e-12)
    # nested and disjoint balls
    assert lens_volume(2, 0.5, 2.0, 1.0) == pytest.approx(math.pi * 0.25, rel=1e-15)
    assert lens_volume(2, 0.5, 2.0, 2.5) == 0.0


# quad's roundoff warnings at the requested 1e-12 are judged by the assertion
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8),
    st.floats(0.05, 3.0),
    st.floats(0.05, 3.0),
    st.floats(0.0, 7.0),
)
@example(d=2, ell=1.0, R=0.125, rho=5e-324)  # 2*s*rho once underflowed to 0 in cap_fraction_outside
@example(d=4, ell=2.900195904469502, R=2.00001, rho=0.0)  # pow(x, 2) on a scalar once rounded apart from x*x
def test_lens_complement_matches_cap_fraction_quadrature(d, ell, R, rho):
    # the part of B(0, ell) a shift by rho moves outside B(0, R), once from
    # the two-cap closed form and once as a shell integral of the sphere
    # fraction outside B(0, R)
    full = unit_ball_volume(d) * ell**d
    got = full - lens_volume(d, ell, R, rho)
    kinks = [p for p in (abs(R - rho), R + rho) if 0.0 < p < ell]
    shells = integrate.quad(
        lambda s: s ** (d - 1) * cap_fraction_outside(d, s, rho, R),
        0.0,
        ell,
        points=kinks or None,
        epsabs=0.0,
        epsrel=1e-12,
        limit=200,
    )[0]
    # near internal tangency the complement is a difference of nearly equal
    # volumes, so it is held to 1e-12 of the ball there, not to 1e-8 of itself
    assert got == pytest.approx(sphere_surface(d) * shells, rel=1e-8, abs=1e-12 * full)
    # the array call equals the scalar calls bit for bit, in every branch
    shifts = np.array([rho, 0.0, abs(ell - R), 0.5 * (ell + R), ell + R, ell + R + 1.0])
    assert lens_volume(d, ell, R, shifts).tolist() == [lens_volume(d, ell, R, x) for x in shifts.tolist()]


def test_cap_fraction_outside_monte_carlo():
    gen = np.random.default_rng(7)
    for d in (1, 2, 3, 4):
        for s, rho, R in [(0.5, 1.0, 1.2), (1.0, 0.5, 1.2), (0.2, 2.0, 1.0), (0.9, 0.2, 1.0)]:
            x = np.zeros(d)
            x[0] = s
            dirs = gen.normal(size=(200_000, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            frac = float(np.mean(np.linalg.norm(x + rho * dirs, axis=1) > R))
            got = cap_fraction_outside(d, s, rho, R)
            assert got == pytest.approx(frac, abs=0.005), (d, s, rho, R)
    assert cap_fraction_outside(3, 0.0, 0.5, 1.0) == 0.0
    assert cap_fraction_outside(3, 0.0, 1.5, 1.0) == 1.0


def test_set_covariance_ball():
    # the window B(0, 2) meets its rho-shift in a lens: its whole area at 0, nothing past its diameter
    assert lens_volume(2, 2.0, 2.0, 0.0) == pytest.approx(4 * math.pi)
    assert lens_volume(2, 2.0, 2.0, 4.0) == 0.0


def test_campbell_identity_ball():
    # integral over B x B of f(|x-y|) equals sigma_d * int rho^{d-1} f(rho) C(rho)
    # checked against a direct 2D Monte Carlo in d=1 where it is exact by symmetry
    R = 1.5

    def f(rho):
        return math.exp(-rho)

    val = integrate.quad(lambda rho: f(rho) * lens_volume(1, R, R, rho) * 2, 0, 2 * R)[0]
    brute = integrate.dblquad(lambda y, x: f(abs(x - y)), -R, R, -R, R)[0]
    assert val == pytest.approx(brute, rel=1e-6)
    assert unit_ball_volume(1) == pytest.approx(2.0)
