import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import reference
from reference import MarkedPoint, connection_prob, connection_prob_ctx

from perco import models
from perco.errors import ConfigurationError, ContractError
from perco.models import (
    Kernel,
    RadiusLaw,
    boolean_model,
    catalog,
    classical_model,
    custom_profile,
    demo_generalized,
    generalized_model,
    indicator_profile,
    mark_averaged_connection,
    max_range,
    pair_range,
    pairwise_prob,
    phibar_breakpoints,
    polynomial_profile,
    validate_framework,
    weight_from_mark,
)
from perco.rng import substream


def mp(pos, mark):
    return MarkedPoint(position=np.atleast_1d(np.asarray(pos, float)), mark=mark)


def test_weight_from_mark_values():
    assert weight_from_mark(0.25, 2.0) == pytest.approx(4.0)
    assert weight_from_mark(0.01, 3.0) == pytest.approx(10.0)
    assert weight_from_mark(1 - 1e-12, 5.0) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ConfigurationError):
        weight_from_mark(0.5, 1.0)
    with pytest.raises(ConfigurationError):
        weight_from_mark(0.0, 2.0)
    # Pareto tail: P(W > w) = w^{-(tau-1)}
    gen = substream(1, "w")
    u = gen.uniform(size=200_000).clip(1e-15, 1 - 1e-15)
    w = weight_from_mark(u, 3.0)
    assert np.mean(w > 2.0) == pytest.approx(2.0**-2, abs=0.003)
    assert np.all(w > 1.0)


def test_profiles():
    ind = indicator_profile(1.0)
    assert ind(1.0) == 1.0  # boundary included
    assert ind(1.0 + 1e-12) == 0.0
    assert list(ind(np.array([0.2, 0.999, 2.0]))) == [1.0, 1.0, 0.0]
    poly = polynomial_profile(1.5)
    assert poly(0.5) == 1.0
    assert poly(4.0) == pytest.approx(4.0**-1.5)
    assert poly(0.0) == 1.0
    cust = custom_profile([1.0, 2.0, 3.0], [1.0, 0.5, 0.25])
    assert cust(0.5) == 1.0
    assert cust(1.5) == pytest.approx(0.75)
    assert cust(3.0) == pytest.approx(0.25)
    assert cust(3.0 + 1e-9) == 0.0
    assert cust.support == 3.0
    with pytest.raises(ConfigurationError):
        polynomial_profile(1.0)
    with pytest.raises(ConfigurationError):
        custom_profile([1.0, 2.0], [0.5, 0.7])


def test_kernels_symmetric_positive():
    gen = substream(4, "k")
    w = weight_from_mark(gen.uniform(size=500).clip(1e-9, 1 - 1e-9), 2.5)
    v = weight_from_mark(gen.uniform(size=500).clip(1e-9, 1 - 1e-9), 2.5)
    for kind in ("plain", "product", "sum", "min"):
        k = Kernel(kind)
        assert np.array_equal(k(w, v), k(v, w))
        assert np.all(k(w, v) > 0)
        assert "g(w,v)" in k.formula


def test_boolean_connection_examples():
    m = boolean_model(2, RadiusLaw(kind="constant", radius=1.0))
    assert connection_prob(m, mp([0, 0], 0.5), mp([1.5, 0], 0.8)) == 1.0
    assert connection_prob(m, mp([0, 0], 0.5), mp([2.0, 0], 0.8)) == 0.0  # strict: 2.0 < 2 fails
    assert connection_prob(m, mp([0, 0], 0.5), mp([2.5, 0], 0.8)) == 0.0


def test_classical_plain_indicator_range():
    m = classical_model(2, Kernel("plain"), indicator_profile(1.0), beta=1.0)
    # connect iff |x-y|^2 <= 1, boundary included
    assert connection_prob(m, mp([0, 0], 0.2), mp([1.0, 0], 0.9)) == 1.0
    assert connection_prob(m, mp([0, 0], 0.2), mp([1.0 + 1e-9, 0], 0.9)) == 0.0
    assert max_range(m) == pytest.approx(1.0)


def test_polynomial_vanishes_at_infinity():
    m = classical_model(2, Kernel("product"), polynomial_profile(1.5), tau=2.0)
    a, b = mp([0, 0], 0.3), mp([1, 0], 0.7)
    vals = [connection_prob(m, a, mp([x, 0.0], 0.7)) for x in (1, 5, 25, 125, 625)]
    assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_connection_prob_contract_errors():
    gm = demo_generalized(2)
    with pytest.raises(ContractError):
        connection_prob(gm, mp([0, 0], 0.5), mp([1, 0], 0.5))
    with pytest.raises(ConfigurationError):
        connection_prob(catalog(2)["plain-indicator"], mp([0], 0.5), mp([1], 0.5))


def test_generalized_context_rules():
    gm = demo_generalized(2)
    a, b = mp([0, 0], 0.5), mp([0.8, 0], 0.5)
    base = connection_prob(gm.base, a, b)
    assert base == 1.0
    assert connection_prob_ctx(gm, a, b, np.empty((0, 2))) == base
    # midpoint (0.4, 0): two context points within distance 1, one outside
    ctx = np.array([[0.4, 0.5], [1.0, 0.0], [0.4, 3.0]])
    assert connection_prob_ctx(gm, a, b, ctx) == pytest.approx(base * 0.25)
    # classical models ignore context entirely
    cm = catalog(2)["plain-indicator"]
    assert connection_prob_ctx(cm, a, b, ctx) == connection_prob(cm, a, b)


def test_ctx_rigid_motion_invariance():
    gm = demo_generalized(2)
    gen = substream(9, "rigid")
    for _ in range(200):
        a = mp(gen.uniform(-2, 2, 2), float(gen.uniform(0.01, 0.99)))
        b = mp(gen.uniform(-2, 2, 2), float(gen.uniform(0.01, 0.99)))
        if np.allclose(a.position, b.position):
            continue
        ctx = gen.uniform(-3, 3, (6, 2))
        p0 = connection_prob_ctx(gm, a, b, ctx)
        ang = float(gen.uniform(0, 2 * math.pi))
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        shift = gen.uniform(-5, 5, 2)
        a2 = mp(rot @ a.position + shift, a.mark)
        b2 = mp(rot @ b.position + shift, b.mark)
        p1 = connection_prob_ctx(gm, a2, b2, ctx @ rot.T + shift)
        assert abs(p0 - p1) <= 1e-12


def test_symmetry_and_monotonicity_all_catalog():
    for name, model in catalog(2).items():
        rep = validate_framework(model, n_samples=4000, seed=11)
        assert rep.symmetric, name
        assert rep.monotone, name
        assert rep.in_range, name


def test_framework_integral_indicator_d2():
    # plain kernel, indicator(1), beta=1, d=2: integral over R^2 of 1{|z|<=1} = pi
    rep = validate_framework(catalog(2)["plain-indicator"], n_samples=2000, seed=1)
    assert rep.integral_verdict == "finite"
    assert rep.integral_value == pytest.approx(math.pi, rel=1e-6)


def test_framework_divergence_heavy_boolean():
    # E[R^d] = inf iff shape <= d
    div = boolean_model(2, RadiusLaw(kind="pareto", shape=1.5, scale=0.3))
    rep = validate_framework(div, n_samples=2000, seed=2)
    assert rep.integral_verdict == "divergent"
    # exactly critical shape = d: finite-range fits sit at the -1 boundary,
    # so anything but a confident "finite" is acceptable
    edge = boolean_model(2, RadiusLaw(kind="pareto", shape=2.0, scale=0.3))
    rep2 = validate_framework(edge, n_samples=500, seed=2)
    assert rep2.integral_verdict in ("divergent", "inconclusive")


def test_framework_boolean_finite_matches_moment():
    # integral of phibar over R^d equals v_d * E[(R1+R2)^d] (here via 2R moments)
    law = RadiusLaw(kind="pareto", shape=4.0, scale=0.3)
    m = boolean_model(1, law)
    rep = validate_framework(m, n_samples=500, seed=3)
    assert rep.integral_verdict == "finite"
    # d=1: integral_{R} P(R1+R2 > |z|) dz = 2 E[R1+R2] = 4 E[R]
    # E[R] = scale * shape / (shape - 1) for Pareto(shape) radii
    assert rep.integral_value == pytest.approx(4.0 * law.scale * law.shape / (law.shape - 1.0), rel=1e-4)


def test_framework_counterexample_asymmetric(monkeypatch):
    def bad_phi(model, s, t, r):
        return np.exp(-np.asarray(r)) * (1.0 + 0.1 * (np.asarray(s) - np.asarray(t))) / 1.2

    m = catalog(2)["plain-indicator"]
    monkeypatch.setattr(models, "pairwise_prob", bad_phi)
    rep = validate_framework(m, n_samples=2000, seed=5)
    assert not rep.symmetric
    assert rep.integral_verdict == "skipped"
    assert any("FAIL" in line for line in rep.lines())


def test_mark_average_monte_carlo_oracle():
    # discontinuous mark integrands: Monte Carlo over the mark square, 4 sigma band
    n = 2_000_000
    gen = substream(21, "phibar-mc")
    s = gen.uniform(size=n).clip(1e-15, 1 - 1e-15)
    t = gen.uniform(size=n).clip(1e-15, 1 - 1e-15)
    cases = [
        (catalog(2)["product-indicator"], [0.7, 1.0, 1.3, 2.5]),
        (catalog(2)["min-indicator"], [0.7, 1.1, 3.0]),
        (classical_model(2, Kernel("sum"), indicator_profile(1.0), tau=2.5), [0.5, 1.2, 2.0, 4.0]),
        (boolean_model(2, RadiusLaw(kind="pareto", shape=3.0, scale=0.4)), [0.5, 1.0, 2.0, 8.0]),
    ]
    for model, rhos in cases:
        for rho in rhos:
            p = np.asarray(pairwise_prob(model, s, t, np.full(n, rho)))
            est = float(p.mean())
            se = float(p.std(ddof=1)) / math.sqrt(n)
            got = mark_averaged_connection(model, rho)
            assert abs(got - est) <= 4 * se + 1e-9, (model.summary, rho, got, est)


def test_mark_average_smooth_vs_dblquad():
    # smooth (kinked but continuous) integrand: adaptive 2D quadrature oracle.
    # The profile's corner lies on the curve s * t = c in the mark square, so
    # the square is split there: s < c, then below and above t = c / s
    model = classical_model(1, Kernel("product"), polynomial_profile(1.8), tau=2.2)
    lo, hi = 1e-12, 1 - 1e-12
    for rho in (0.5, 1.5, 6.0):
        c = min(max((rho**model.d / model.beta) ** -(model.tau - 1.0), lo), hi)
        pieces = [
            (lo, c, lo, hi),
            (c, hi, lo, lambda s: c / s),
            (c, hi, lambda s: c / s, hi),
        ]
        val = sum(
            integrate.dblquad(
                lambda t, s: float(pairwise_prob(model, s, t, rho)),
                *piece,
                epsabs=1e-11,
                epsrel=1e-10,
            )[0]
            for piece in pieces
        )
        got = mark_averaged_connection(model, rho)
        assert got == pytest.approx(val, rel=1e-6, abs=1e-9), rho


def test_mark_average_poly_matches_nested_quad():
    # the survival-function mark average against direct nested quadrature
    # over both marks: polynomial profiles under every weight kernel, plus the
    # sum kernel under an indicator and each weight kernel under a custom
    # profile, all in d = 2; then the d = 1 product kernel out to rho = 6
    combos = [
        ("product", 2.5, polynomial_profile(1.5)),
        ("product", 3.0, polynomial_profile(2.0)),  # delta == tau - 1
        ("product", 2.0, polynomial_profile(3.0)),
        ("sum", 3.0, polynomial_profile(2.0)),
        ("sum", 2.5, polynomial_profile(1.2)),
        ("min", 2.0, polynomial_profile(1.5)),
        ("min", 2.2, polynomial_profile(4.0)),
        ("sum", 2.5, indicator_profile(1.0)),
    ]
    custom = custom_profile([0.4, 1.0, 1.5], [1.0, 0.6, 0.0])
    combos += [(kind, 2.5, custom) for kind in ("product", "sum", "min")]
    cases = [
        (classical_model(2, Kernel(kind), profile, tau=tau), (0.3, 0.8, 1.4, 1.9))
        for kind, tau, profile in combos
    ]
    cases.append((classical_model(1, Kernel("product"), polynomial_profile(1.8), tau=2.2), (0.5, 1.5, 6.0)))
    for m, rhos in cases:
        for rho in rhos:
            got = mark_averaged_connection(m, rho)
            ref = reference.phibar_nested_quad(m, rho)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-15), (m.summary, rho)
            assert 0.0 <= got <= 1.0


def test_pareto_sum_survival_closed_form_at_unit_shape():
    # for Pareto(1) variables P(W_1 + W_2 > y) = 2/y + 2 ln(y - 1)/y^2.  It is
    # phibar at y = rho/scale for Pareto boolean radii of shape 1, and at
    # y = rho (d = 1, beta = theta = 1) for the sum kernel at tau = 2
    y = np.geomspace(2.0 + 1e-9, 1e30, 400)
    closed = 2.0 / y + 2.0 * np.log(y - 1.0) / y**2
    heavy = boolean_model(2, RadiusLaw(kind="pareto", shape=1.0, scale=0.5))
    np.testing.assert_allclose(mark_averaged_connection(heavy, 0.5 * y), closed, rtol=1e-12, atol=0.0)
    summed = classical_model(1, Kernel("sum"), indicator_profile(1.0), tau=2.0)
    np.testing.assert_allclose(mark_averaged_connection(summed, y), closed, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 8]),
    st.sampled_from(sorted(catalog(2))),
    st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=40),
)
def test_mark_average_array_in_range_monotone_and_elementwise(d, name, log_rhos):
    model = catalog(d)[name]
    rhos = np.sort(10.0 ** np.asarray(log_rhos))
    vals = mark_averaged_connection(model, rhos)
    assert vals.shape == rhos.shape
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) <= 1e-12 * vals[:-1])
    scalar = np.array([mark_averaged_connection(model, float(r)) for r in rhos])
    np.testing.assert_allclose(vals, scalar, rtol=1e-12, atol=1e-300)


def test_framework_sum_poly_fast_and_finite():
    # heavy-tail sum kernel used to stall the radial probes; the reduced
    # path must keep the full validation well under a second
    start = time.time()
    rep = validate_framework(catalog(2)["sum-poly"], 10_000, seed=5)
    assert time.time() - start < 10.0
    assert rep.ok
    assert rep.integral_verdict == "finite"
    assert rep.symmetric and rep.monotone and rep.in_range


def test_mark_average_monotone_and_plain():
    m = catalog(2)["plain-poly"]
    rhos = np.geomspace(0.1, 50, 40)
    vals = mark_averaged_connection(m, rhos)
    assert np.all(np.diff(vals) <= 1e-15)
    assert vals[0] == 1.0
    assert mark_averaged_connection(m, 2.0) == pytest.approx((2.0**2) ** -1.5)
    assert np.array_equal(mark_averaged_connection(m, [-1.0, 0.0, math.nan]), [1.0, 1.0, math.nan], equal_nan=True)
    b = catalog(2)["boolean-fixed"]
    assert mark_averaged_connection(b, 0.99) == 1.0
    assert mark_averaged_connection(b, 1.0) == 0.0
    assert max_range(b) == pytest.approx(1.0)
    assert phibar_breakpoints(b) == [1.0]


def test_max_range():
    assert max_range(catalog(2)["boolean-fixed"]) == pytest.approx(1.0)
    assert max_range(catalog(2)["plain-indicator"]) == pytest.approx(1.0)
    assert math.isinf(max_range(catalog(2)["boolean-heavy"]))
    assert math.isinf(max_range(catalog(2)["plain-poly"]))
    assert math.isinf(max_range(catalog(2)["product-indicator"]))
    m = classical_model(3, Kernel("plain"), indicator_profile(2.0), beta=4.0)
    assert max_range(m) == pytest.approx(8.0 ** (1 / 3))
    assert max_range(demo_generalized(2)) == pytest.approx(1.0)


def test_custom_profile_support_ends_at_first_zero_knot():
    # the profile interpolates from 0.5 at t=2 down to 0 at t=3
    cust = custom_profile([1.0, 2.0, 3.0], [1.0, 0.5, 0.0])
    assert cust(2.5) == pytest.approx(0.25)
    assert cust.support == 3.0
    assert custom_profile([1.0], [0.0]).support == 0.0
    m = classical_model(2, Kernel("plain"), cust, beta=3.0)
    assert max_range(m) == pytest.approx(3.0)
    assert pairwise_prob(m, 0.5, 0.5, 2.9) > 0.0


def test_pair_range_formulas():
    marks_a = np.array([0.1, 0.5, 0.9])
    marks_b = np.array([0.3, 0.2, 0.7])
    law = RadiusLaw(kind="pareto", shape=1.5, scale=0.25)
    b = boolean_model(2, law)
    assert np.array_equal(pair_range(b, marks_a, marks_b), law.radii(marks_a) + law.radii(marks_b))
    m = classical_model(3, Kernel("product"), indicator_profile(2.0), tau=2.5, beta=4.0)
    w_a, w_b = weight_from_mark(marks_a, 2.5), weight_from_mark(marks_b, 2.5)
    assert pair_range(m, marks_a, marks_b) == pytest.approx((2.0 * 4.0 * w_a * w_b) ** (1 / 3))
    assert pair_range(m, 0.5, 0.5) == pytest.approx((8.0 * weight_from_mark(0.5, 2.5) ** 2) ** (1 / 3))
    assert np.array_equal(pair_range(generalized_model(m), marks_a, marks_b), pair_range(m, marks_a, marks_b))
    plain = classical_model(2, Kernel("plain"), indicator_profile(1.0))
    assert pair_range(plain, 0.3, 0.8) == max_range(plain)
    assert math.isinf(pair_range(catalog(2)["plain-poly"], 0.5, 0.5))
    assert math.isinf(pair_range(catalog(2)["sum-poly"], 0.5, 0.5))
    assert pair_range(classical_model(2, Kernel("min"), custom_profile([1.0], [0.0])), 0.5, 0.5) == 0.0


def test_pair_range_bounds_connection_and_shrinks_with_marks():
    gen = substream(11, "pair-range")
    models_ = [
        catalog(2)["boolean-heavy"],
        catalog(2)["product-indicator"],
        catalog(2)["min-indicator"],
        classical_model(2, Kernel("sum"), indicator_profile(0.7), tau=3.0),
        classical_model(2, Kernel("product"), custom_profile([0.5, 1.0, 2.0], [1.0, 0.4, 0.0]), tau=2.2),
    ]
    s = gen.uniform(size=2000).clip(1e-9, 1 - 1e-9)
    t = gen.uniform(size=2000).clip(1e-9, 1 - 1e-9)
    for m in models_:
        r = pair_range(m, s, t)
        assert np.all(np.asarray(pairwise_prob(m, s, t, r * (1 + 1e-9))) == 0.0), m.summary
        assert np.all(pair_range(m, s * 0.5, t) >= r), m.summary


def test_custom_profile_rejects_non_finite_knots_and_heights():
    # NaN passes every ordering check, and an infinite last knot passes the increasing one
    cases = [
        ([0.5, math.nan], [1.0, 0.5]),
        ([0.5, math.inf], [1.0, 0.5]),
        ([math.nan], [1.0]),
        ([0.5, 1.0], [1.0, math.nan]),
        ([0.5, 1.0], [math.nan, 0.5]),
        ([0.5, 1.0], [math.inf, 0.5]),
    ]
    for knots, heights in cases:
        with pytest.raises(ConfigurationError, match="must be finite"):
            custom_profile(knots, heights)


def test_model_validation_errors():
    with pytest.raises(ConfigurationError):
        boolean_model(0, RadiusLaw(kind="constant", radius=1.0))
    with pytest.raises(ConfigurationError):
        classical_model(2, Kernel("product"), indicator_profile(1.0), tau=1.0)
    with pytest.raises(ConfigurationError):
        RadiusLaw(kind="pareto", shape=-1.0)
    with pytest.raises(ConfigurationError):
        Kernel("exp")
    with pytest.raises(ConfigurationError):
        generalized_model(boolean_model(2, RadiusLaw(kind="constant", radius=1.0)))
    with pytest.raises(ContractError):
        mark_averaged_connection(demo_generalized(2), 1.0)
    with pytest.raises(ContractError):
        validate_framework(demo_generalized(2))
    for n_samples in (0, -1):
        with pytest.raises(ConfigurationError, match="at least one sample"):
            validate_framework(catalog(2)["plain-indicator"], n_samples=n_samples)


def test_values_past_the_float_range():
    # a radius or a sum of radii beyond the float range is inf, with no overflow warning
    huge = boolean_model(2, RadiusLaw(kind="constant", radius=1e308))
    assert pairwise_prob(huge, 0.5, 0.5, 1e300) == 1.0
    assert pair_range(huge, 0.5, 0.5) == math.inf
    light = RadiusLaw(kind="pareto", shape=0.01, scale=1.0)
    assert light.radii(1e-10) == math.inf
    assert pairwise_prob(boolean_model(1, light), [1e-10, 0.5], [0.5, 0.5], [1e300, 1e300]).tolist() == [1.0, 0.0]
    # the sum survival stays finite up to the largest shape, where the radius is all but constant
    at_cap = boolean_model(2, RadiusLaw(kind="pareto", shape=1000.0, scale=0.5))
    near, below, past = mark_averaged_connection(at_cap, np.array([0.5, 1.0, 1.1]))
    assert near == below == 1.0 and 0.0 <= past < 1e-50
    for shape in (1000.5, 1e308, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="pareto shape"):
            RadiusLaw(kind="pareto", shape=shape)
    # the same bound holds the weight exponent tau - 1 of every weight kernel
    heaviest = classical_model(2, Kernel("sum"), polynomial_profile(2.0), tau=1001.0)
    # weights all but 1, so the sum kernel is all but 1/2: the profile at 10^2 / 2
    assert mark_averaged_connection(heaviest, 10.0) == pytest.approx(50.0**-2, rel=1e-3)
    for tau in (1001.5, 5000.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="weight kernels need"):
            classical_model(2, Kernel("product"), indicator_profile(1.0), tau=tau)
