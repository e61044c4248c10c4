"""Renormalization table and intensity bracketing."""

import numpy as np
import pytest

import reference
from perco.errors import ConfigurationError, ContractError
from perco.estimators import replicate_seed
from perco.models import (
    Kernel,
    RadiusLaw,
    boolean_model,
    catalog,
    classical_model,
    custom_profile,
    demo_generalized,
)
from perco.renorm import (
    bracket_crossing_intensity,
    crossing_thresholds,
    default_probe_scale,
    fitted_constant,
    renorm_table,
)


def fixed_boolean(d, radius):
    return boolean_model(d=d, radius_law=RadiusLaw(kind="constant", radius=radius))


def test_fitted_constant_rules():
    value, flagged = fitted_constant(0.4, 0.5, 0.1)
    assert value == pytest.approx(0.3 / 0.25) and not flagged
    # lhs <= f: constant 0, even with zero crossing estimate
    assert fitted_constant(0.1, 0.0, 0.1) == (0.0, False)
    assert fitted_constant(0.0, 0.0, 0.0) == (0.0, False)
    # lhs > f with nothing in the denominator: undefined, flagged
    value, flagged = fitted_constant(0.2, 0.0, 0.1)
    assert value is None and flagged
    # mixing term enters the denominator
    value, flagged = fitted_constant(0.4, 0.0, 0.1, mixing=0.5)
    assert value == pytest.approx(0.6) and not flagged


def test_renorm_zero_intensity():
    model = catalog(d=2)["plain-indicator"]
    table = renorm_table(model, intensity=0.0, r_values=[0.5, 1.0], n=20, seed=1)
    for row in table.rows:
        assert row.lhs.hits == 0 and row.c_est.hits == 0 and row.f_est.hits == 0
        assert row.fitted_C == 0.0 and not row.flagged
    assert table.stable
    assert table.inclusion_violations == 0


def test_renorm_subcritical_boolean():
    model = fixed_boolean(2, 0.5)
    table = renorm_table(model, intensity=1.1, r_values=[1.0, 2.0], n=60, seed=7)
    for row in table.rows:
        # edges are shorter than 2R = 1 <= r, so the error event is impossible
        assert row.f_est.hits == 0
        assert row.g_est.hits <= row.c_est.hits  # local crossing implies crossing
        assert row.fitted_C is not None and row.fitted_C >= 0
    assert table.inclusion_violations == 0
    assert any("fitted constant" in line for line in table.lines())


def test_renorm_mixing_parameter_validation():
    classical = catalog(d=2)["plain-indicator"]
    with pytest.raises(ConfigurationError):
        renorm_table(classical, 1.0, [1.0], n=5, seed=0, c_mix=1.0, zeta=2.0)
    generalized = demo_generalized(d=2)
    with pytest.raises(ConfigurationError):
        renorm_table(generalized, 1.0, [1.0], n=5, seed=0)
    with pytest.raises(ConfigurationError):
        renorm_table(classical, 1.0, [], n=5, seed=0)
    with pytest.raises(ConfigurationError):
        renorm_table(classical, 1.0, [-1.0], n=5, seed=0)


def test_renorm_generalized_with_mixing():
    generalized = demo_generalized(d=2)
    table = renorm_table(generalized, 1.0, r_values=[0.1], n=25, seed=3, c_mix=0.5, zeta=1.0)
    row = table.rows[0]
    assert row.mixing_term == pytest.approx(0.5 * 1.0 * 0.1**-1.0)
    assert row.fitted_C is None or row.fitted_C >= 0


def test_bracket_zero_profile_never_crosses():
    model = classical_model(2, Kernel("plain"), custom_profile([1.0], [0.0]))
    result = bracket_crossing_intensity(
        model, lam_min=0.1, lam_max=2.0, r_probe=1.0, n=40, seed=5
    )
    assert result.never_crosses
    assert result.lam_lo == result.lam_hi == 2.0
    assert all(est.hits == 0 for _, est in result.evaluations)
    assert any("never reaches" in line for line in result.lines())


def test_bracket_crosses_below_lower_bound():
    # well above the percolation threshold already at lam_min
    model = catalog(d=2)["plain-indicator"]
    result = bracket_crossing_intensity(
        model, lam_min=4.0, lam_max=8.0, r_probe=2.0, n=60, seed=6
    )
    assert result.crosses_below_lo
    assert result.lam_lo == result.lam_hi == 4.0


def test_bracket_boolean_reference():
    model = fixed_boolean(2, 0.5)
    result = bracket_crossing_intensity(
        model, lam_min=0.2, lam_max=6.0, r_probe=2.0, n=120, seed=8, k_max=8
    )
    assert not result.never_crosses and not result.crosses_below_lo
    assert 0.2 <= result.lam_lo <= result.lam_hi <= 6.0
    assert result.lam_hi - result.lam_lo < 6.0 - 0.2  # at least one bisection step
    assert "finite-scale proxy" in result.note
    again = bracket_crossing_intensity(
        model, lam_min=0.2, lam_max=6.0, r_probe=2.0, n=120, seed=8, k_max=8
    )
    assert (again.lam_lo, again.lam_hi) == (result.lam_lo, result.lam_hi)


def test_bracket_monotone_evaluations():
    model = fixed_boolean(2, 0.5)
    result = bracket_crossing_intensity(
        model, lam_min=0.2, lam_max=6.0, r_probe=1.5, n=80, seed=9, k_max=6
    )
    by_lam = sorted(result.evaluations, key=lambda t: t[0])
    hits = [est.hits for _, est in by_lam]
    assert hits == sorted(hits)  # exact monotonicity on shared replicates


def test_bracket_validation_and_default_scale():
    model = catalog(d=2)["plain-indicator"]
    with pytest.raises(ConfigurationError):
        bracket_crossing_intensity(model, lam_min=2.0, lam_max=1.0, r_probe=1.0, n=10, seed=0)
    with pytest.raises(ConfigurationError):
        bracket_crossing_intensity(model, lam_min=0.0, lam_max=1.0, r_probe=1.0, p_threshold=1.5, n=10, seed=0)
    with pytest.raises(ContractError):
        bracket_crossing_intensity(demo_generalized(d=2), lam_min=0.0, lam_max=1.0, r_probe=1.0, n=10, seed=0)
    scale = default_probe_scale(model, lam_max=2.0)
    # window at that scale holds about the budgeted number of points
    expected_points = 2.0 * np.pi * (2.05 * scale) ** 2
    assert expected_points == pytest.approx(100_000, rel=1e-6)


def test_thresholds_reject_generalized_models():
    with pytest.raises(ContractError):
        crossing_thresholds(demo_generalized(d=2), lam_max=1.0, r_probe=1.0, n=10, seed=0)


@pytest.mark.parametrize("name", ["boolean-fixed", "product-indicator", "plain-poly"])
def test_thresholds_match_rebuilt_thinned_graphs(name):
    model = catalog(d=2)[name]
    lam_max, r_probe, n = 3.0, 1.5, 30
    for seed in (2, 3):
        thresholds = crossing_thresholds(model, lam_max, r_probe, n, seed)
        assert np.array_equal(crossing_thresholds(model, lam_max, r_probe, n, seed), thresholds)
        rep_seeds = [replicate_seed(seed, i) for i in range(n)]
        result = bracket_crossing_intensity(model, 0.1, lam_max, r_probe=r_probe, n=n, seed=seed, k_max=4)
        assert len(result.evaluations) >= 3
        for lam, est in result.evaluations:
            hits = reference.bracket_hits_by_rebuild(model, r_probe, lam, lam_max, rep_seeds)
            assert np.array_equal(hits, thresholds < lam / lam_max)
            assert est.hits == hits.sum()
        # at t* * lam_max, where the comparison must stay strict, next to it, and
        # clearly on either side of it
        finite = np.flatnonzero(np.isfinite(thresholds))[:4]
        assert finite.size
        for i in finite:
            at = thresholds[i] * lam_max
            below, above = at * (1 - 1e-9), min(lam_max, at * (1 + 1e-9))
            lams = [at, np.nextafter(at, 0.0), np.nextafter(at, np.inf), below, above]
            lams = [lam for lam in lams if lam <= lam_max]
            for lam in lams:
                (hit,) = reference.bracket_hits_by_rebuild(model, r_probe, lam, lam_max, [rep_seeds[i]])
                assert hit == (thresholds[i] < lam / lam_max)
            assert not reference.bracket_hits_by_rebuild(model, r_probe, below, lam_max, [rep_seeds[i]])[0]
            assert reference.bracket_hits_by_rebuild(model, r_probe, above, lam_max, [rep_seeds[i]])[0]


def test_bracket_comparison_is_strict_at_a_threshold():
    # With lam_max = 2 and lam_min = 4 t* - 2, the first bisection midpoint is
    # exactly t* * lam_max and its ratio exactly t*: a thinned graph there
    # keeps no vertex with weight t*, so replicate 0 must not cross.
    model = catalog(d=2)["product-indicator"]
    lam_max, r_probe = 2.0, 1.5
    seed = next(s for s in range(100) if 0.5 <= crossing_thresholds(model, lam_max, r_probe, 1, s)[0] < 1.0)
    t = crossing_thresholds(model, lam_max, r_probe, 1, seed)[0]
    result = bracket_crossing_intensity(model, 4 * t - 2, lam_max, r_probe=r_probe, n=1, seed=seed)
    lams = [lam for lam, _ in result.evaluations]
    assert lams[2] == t * lam_max and lams[2] / lam_max == t
    for lam, est in result.evaluations:
        (hit,) = reference.bracket_hits_by_rebuild(model, r_probe, lam, lam_max, [replicate_seed(seed, 0)])
        assert est.hits == hit
    assert result.evaluations[2][1].hits == 0
