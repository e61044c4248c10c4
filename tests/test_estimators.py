"""Estimation layer: Wilson intervals, trend verdicts, Campbell oracles, coverings."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import perco
from perco import coupling, estimators
from perco.coupling import check_thinning_bounds
from perco.errors import ConfigurationError, InternalConsistencyError, ResourceError
from perco.estimators import (
    Covering,
    _slope_fit,
    campbell_long_edges,
    campbell_total_edges,
    check_covering_inequality,
    covering_number,
    estimate_event,
    estimate_mixing_cov,
    fold,
    make_estimate,
    probe_long_edge_persistence,
    replicate_seed,
    run_replicates,
    truncation_bound,
    wilson_interval,
)
from perco.events import crossing_spec, long_edge_spec
from perco.models import (
    Kernel,
    RadiusLaw,
    boolean_model,
    catalog,
    classical_model,
    indicator_profile,
    mark_averaged_connection,
    polynomial_profile,
)
from perco.ppp import ball_window, sample_ppp, sphere_surface, unit_ball_volume
from perco.renorm import bracket_crossing_intensity, crossing_thresholds, renorm_table

from reference import naive_edges


def fixed_boolean(d, radius):
    return boolean_model(d=d, radius_law=RadiusLaw(kind="constant", radius=radius))


# ---------------------------------------------------------------- Wilson


def test_wilson_basic_shape():
    for hits, trials in [(0, 10), (3, 10), (10, 10), (250, 1000)]:
        lo, hi = wilson_interval(hits, trials)
        p = hits / trials
        assert 0.0 <= lo <= p <= hi <= 1.0
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0


def test_wilson_shrinks_with_trials():
    lo1, hi1 = wilson_interval(10, 40)
    lo2, hi2 = wilson_interval(100, 400)
    assert hi2 - lo2 < hi1 - lo1


def test_wilson_coverage():
    # empirical coverage of the 95% interval within [0.93, 0.97]
    rng = np.random.default_rng(20240517)
    trials = 1000
    for p in (0.01, 0.1, 0.5):
        draws = rng.binomial(trials, p, size=10_000)
        covered = 0
        for hits in draws:
            lo, hi = wilson_interval(int(hits), trials)
            covered += lo <= p <= hi
        rate = covered / 10_000
        assert 0.93 <= rate <= 0.97, (p, rate)


@pytest.mark.parametrize(
    "hits, trials, confidence",
    [(7, 5, 0.95), (-1, 10, 0.95), (3, 10, 1.5), (3, 10, math.nan), (3, 10, 0.0)],
)
def test_wilson_rejects_out_of_range_inputs(hits, trials, confidence):
    with pytest.raises(ConfigurationError):
        wilson_interval(hits, trials, confidence)
    with pytest.raises(ConfigurationError):
        make_estimate(hits, trials, confidence)


def test_wilson_matches_scipy_stats_normal_quantile():
    # the interval takes its normal quantile from special.ndtri, which must
    # give the same bits as stats.norm.ppf
    for confidence in (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-9):
        z = stats.norm.ppf(0.5 + confidence / 2.0)
        for hits, trials in [(0, 10), (3, 10), (10, 10), (250, 1000), (1, 100_000)]:
            p = hits / trials
            denom = 1.0 + z * z / trials
            center = (p + z * z / (2.0 * trials)) / denom
            half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
            want = min(max(0.0, center - half), p), max(min(1.0, center + half), p)
            assert wilson_interval(hits, trials, confidence) == want


def test_importing_perco_leaves_scipy_stats_unloaded():
    # the tests import scipy.stats and scipy.integrate themselves, so only a fresh
    # process can tell; it imports perco from where this process did, whatever the
    # working directory.  scipy.integrate would also load scipy.optimize.
    code = (
        "import perco, sys; "
        "loaded = [m for m in ('scipy.stats', 'scipy.integrate', 'scipy.optimize') if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    src = os.path.dirname(os.path.dirname(perco.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


# ---------------------------------------------------------------- trend slope


def _slope_fit_scipy_stats(r_values, estimates):
    """The trend fit as stats.linregress and stats.t.ppf compute it."""
    xs = [math.log(r) for r, e in zip(r_values, estimates) if e.hits > 0]
    ys = [math.log(e.p_hat) for e in estimates if e.hits > 0]
    if len(xs) < 2 or len(set(xs)) < 2:
        return math.nan, (math.nan, math.nan)
    if len(xs) == 2:
        return (ys[1] - ys[0]) / (xs[1] - xs[0]), (math.nan, math.nan)
    fit = stats.linregress(xs, ys)
    tcrit = stats.t.ppf(0.975, len(xs) - 2)
    return fit.slope, (fit.slope - tcrit * fit.stderr, fit.slope + tcrit * fit.stderr)


def _bits(x):
    return "nan" if math.isnan(x) else float(x).hex()


@st.composite
def trend_fits(draw):
    """(kind, r_values, hits, trials) over 3 to 8 geometric scales."""
    k = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(("random", "equal", "collinear", "two-point")))
    r_min = draw(st.floats(1e-3, 1e3))
    if kind == "collinear":
        # p_hat doubles with r: the log-log points lie on a line of slope 1
        base = draw(st.integers(1, 5))
        trials = base * 2 ** (k - 1) * draw(st.integers(1, 3))
        return kind, [r_min * 2.0**i for i in range(k)], [base * 2**i for i in range(k)], trials
    ratio = draw(st.floats(1.01, 10.0))
    r_values = [r_min * ratio**i for i in range(k)]
    trials = draw(st.integers(1, 2000))
    if kind == "random":
        hits = draw(st.lists(st.integers(0, trials), min_size=k, max_size=k))
    elif kind == "equal":
        hits = [draw(st.integers(1, trials))] * k
    else:
        nonzero = draw(st.sets(st.integers(0, k - 1), min_size=2, max_size=2))
        hits = [draw(st.integers(1, trials)) if i in nonzero else 0 for i in range(k)]
    return kind, r_values, hits, trials


@settings(max_examples=300, deadline=None)
@given(trend_fits())
def test_slope_fit_matches_linregress_bitwise(fit):
    kind, r_values, hits, trials = fit
    estimates = [make_estimate(h, trials) for h in hits]
    slope, (lo, hi) = _slope_fit(r_values, estimates)
    nonzero = [h for h in hits if h > 0]
    if len(nonzero) >= 2 and len(set(nonzero)) == 1:
        # every nonzero p_hat is equal: exactly flat, with no interval, where
        # linregress leaves the rounding of the mean as a tiny slope and interval
        assert [_bits(v) for v in (slope, lo, hi)] == [_bits(0.0), "nan", "nan"]
    else:
        assert kind != "equal"
        want_slope, (want_lo, want_hi) = _slope_fit_scipy_stats(r_values, estimates)
        assert [_bits(v) for v in (slope, lo, hi)] == [_bits(v) for v in (want_slope, want_lo, want_hi)]
    if kind == "two-point":
        assert math.isnan(lo) and math.isnan(hi) and not math.isnan(slope)
    elif kind == "collinear":
        # r rounds to within an ulp or two of 1 (or is clipped to it), and
        # the square root in the stderr turns that into an interval ~1e-7 wide
        assert slope == pytest.approx(1.0, rel=1e-12)
        assert lo <= hi < lo + 1e-5


# ---------------------------------------------------------------- replicate loop


def test_run_replicates_shape_and_thread_independence():
    def pair(rep_seed):
        return rep_seed % 2 == 0, rep_seed % 3 == 0

    def block(seeds, pairs):
        return pairs

    rows = run_replicates(pair, block, 40, seed=17)
    assert rows.shape == (40, 2) and rows.dtype == bool
    assert np.array_equal(run_replicates(pair, block, 40, seed=17), rows)
    expected = [pair(replicate_seed(17, i)) for i in range(40)]
    assert rows.tolist() == [list(row) for row in expected]
    single = run_replicates(pair, lambda seeds, _: [s % 2 == 0 for s in seeds], 40, seed=17)
    assert single.shape == (40, 1)
    assert np.array_equal(single[:, 0], rows[:, 0])
    assert [e.hits for e in fold(rows)] == [int(rows[:, 0].sum()), int(rows[:, 1].sum())]
    for n in (0, -3):
        with pytest.raises(ConfigurationError):
            run_replicates(pair, block, n, seed=17)


@pytest.mark.parametrize("seed", [0, -1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 64, 65, 1000])
def test_run_replicates_hands_decide_each_replicate_seed(seed, n):
    # run_replicates derives its seeds in one array pass; each must be the int replicate_seed gives
    sampled, decided = [], []

    def decide(seeds, samples):
        decided.extend(seeds)
        return [True] * len(seeds)

    run_replicates(lambda s: sampled.append(s) or s, decide, n, seed, points=lambda _: 1)
    want = [replicate_seed(seed, i) for i in range(n)]
    assert decided == want and sampled == want
    assert all(type(s) is int for s in decided)


def test_run_replicates_needs_one_row_per_replicate():
    # a decision with too many or too few rows is an error, not recut into n rows
    def one(rep_seed):
        return (rep_seed,)

    with pytest.raises(InternalConsistencyError):
        run_replicates(one, lambda seeds, _: [True] * (2 * len(seeds)), 10, seed=0)
    with pytest.raises(InternalConsistencyError):
        run_replicates(one, lambda seeds, _: np.ones((len(seeds) // 2, 2), dtype=bool), 10, seed=0)
    with pytest.raises(InternalConsistencyError):
        run_replicates(one, lambda seeds, _: np.ones((len(seeds), 1, 2), dtype=bool), 10, seed=0)


class _Rows(Exception):
    """Carries a check's replicate rows out of it, once its loop has returned."""


# each check with parameters whose clouds straddle the shared-screen size (graph._TILE_ROWS
# points), on models whose edges mostly hang on their uniforms, so a pair screened under
# another replicate's key changes the rows
_SOFT = classical_model(2, Kernel("plain"), polynomial_profile(2.0), beta=0.1)
_SOFT_WEIGHTED = classical_model(2, Kernel("product"), indicator_profile(1.0), tau=2.5, beta=0.3)
_LOOPS = {
    "estimate_event": (estimators, lambda n: estimate_event(_SOFT, 8.0, crossing_spec(0.5), n, 3)),
    "check_covering_inequality": (
        estimators,
        lambda n: check_covering_inequality(_SOFT, 1.5, 0.5, 1.0, 2.0, n, 4),
    ),
    "estimate_mixing_cov": (
        estimators,
        lambda n, threads=1: estimate_mixing_cov(_SOFT, 2.8, 0.2, [1.3, 0.0], n, 5, threads),
    ),
    "check_thinning_bounds": (
        coupling,
        lambda n, threads=1: check_thinning_bounds(_SOFT, 1.2, 2.4, 1.0, n, 6, threads),
    ),
    "renorm_table": (estimators, lambda n: renorm_table(_SOFT, 2.5, [0.1], n, 7)),
    "crossing_thresholds": (estimators, lambda n: crossing_thresholds(_SOFT_WEIGHTED, 2.4, 1.0, n, 8)),
}
# the two checks that still take a threads keyword, which changes nothing
_THREADED = ("estimate_mixing_cov", "check_thinning_bounds")


@pytest.mark.parametrize("loop", sorted(_LOOPS))
def test_replicate_rows_independent_of_blocks_and_threads(loop, monkeypatch):
    module, check = _LOOPS[loop]
    real = estimators.run_replicates

    def rows_of(n, **threads):
        with pytest.raises(_Rows) as caught:
            check(n, **threads)
        return caught.value.args[0]

    def capture(sample, decide, n, seed, points=len):
        raise _Rows(real(sample, decide, n, seed, points))

    monkeypatch.setattr(module, "run_replicates", capture)
    monkeypatch.setattr(estimators, "MIN_COV_TRIALS", 1)
    block = estimators._BLOCK
    with monkeypatch.context() as alone:
        alone.setattr(estimators, "_BLOCK", 1)  # every replicate in a block of its own
        want = rows_of(block + 1)
    assert want.shape[0] == block + 1
    for threads in [{}] + ([{"threads": t} for t in (1, 2, 3)] if loop in _THREADED else []):
        for n in (1, block - 1, block, block + 1):
            rows = rows_of(n, **threads)
            assert rows.dtype == want.dtype and np.array_equal(rows, want[:n]), (threads, n)
    monkeypatch.setattr(estimators, "_GROUP_POINTS", 40)  # a block built a cloud or two at a time
    assert np.array_equal(rows_of(block + 1), want)


def test_sampling_entry_points_start_no_thread(monkeypatch):
    # replicates run in the calling thread; a rerun, or check_thinning_bounds' threads
    # keyword, changes nothing
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    calls = {
        "estimate_event": [lambda: estimate_event(_SOFT, 8.0, crossing_spec(0.5), 70, 3)] * 2,
        "check_thinning_bounds": [lambda t=t: check_thinning_bounds(_SOFT, 1.2, 2.4, 1.0, 70, 6, t) for t in (1, 4)],
        "crossing_thresholds": [lambda: crossing_thresholds(_SOFT_WEIGHTED, 2.4, 1.0, 70, 8)] * 2,
    }
    for name, (first, second) in calls.items():
        want, got = first(), second()
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want, name


def test_blocks_sample_and_build_a_group_at_a_time(monkeypatch):
    # a block of large clouds must not be held in memory all at once
    built = []
    real = estimators.build_graphs

    def spy(clouds, model, seeds):
        built.append([len(cloud) for cloud in clouds])
        return real(clouds, model, seeds)

    monkeypatch.setattr(estimators, "build_graphs", spy)
    monkeypatch.setattr(estimators, "_GROUP_POINTS", 200)
    estimate_event(_SOFT, 5.0, crossing_spec(1.0), n=70, seed=2)
    assert sum(map(len, built)) == 70 and len(built) > 10
    # a group closes with the cloud that takes it to 200 points, or at the end of its block
    assert all(sum(sizes[:-1]) < 200 for sizes in built)


def test_replicate_loops_golden_hit_counts():
    # hit counts recorded before the six loops moved onto run_replicates/fold
    cat = catalog(d=2)
    est = estimate_event(cat["plain-poly"], 0.8, crossing_spec(1.0), n=48, seed=5)
    assert est.hits == 16
    cover = check_covering_inequality(cat["boolean-heavy"], 0.25, r=2.0, c=1.0, c_prime=2.0, n=40, seed=61)
    assert (cover.lhs.hits, cover.rhs.hits, cover.union_bound_violations) == (22, 26, 0)
    mixing = estimate_mixing_cov(cat["plain-indicator"], 1.2, r=0.4, x=[2.8, 0.0], n=1000, seed=73)
    assert (mixing.near.hits, mixing.far.hits) == (374, 393)
    assert mixing.covariance == -0.0009829829829829907
    thin = check_thinning_bounds(cat["boolean-heavy"], 0.1, 0.2, r=2.0, n=50, seed=6)
    assert (thin.low.hits, thin.high.hits, thin.exact_upper_violations) == (2, 18, 0)
    table = renorm_table(cat["plain-indicator"], 1.5, [0.25, 0.5], n=10, seed=8)
    counts = [(row.lhs.hits, row.g_est.hits, row.c_est.hits, row.f_est.hits) for row in table.rows]
    assert counts == [(10, 2, 3, 10), (10, 8, 8, 10)] and table.inclusion_violations == 0
    bracket = bracket_crossing_intensity(cat["plain-indicator"], 0.2, 2.0, r_probe=0.8, n=12, seed=9, k_max=2)
    assert [(lam, e.hits) for lam, e in bracket.evaluations] == [(2.0, 4), (0.2, 0), (1.1, 2), (1.55, 3)]


# ---------------------------------------------------------------- estimate_event


def test_estimate_zero_intensity():
    model = catalog(d=2)["plain-indicator"]
    est = estimate_event(model, intensity=0.0, event=crossing_spec(1.0), n=25, seed=3)
    assert est.hits == 0 and est.trials == 25 and est.p_hat == 0.0 and est.ci_low == 0.0


def test_estimate_probability_one_event():
    # connection probability 1 across the whole window, dense points
    model = classical_model(2, Kernel("plain"), indicator_profile(1.0), beta=1e6)
    # widen the window so the target annulus cannot come up empty
    est = estimate_event(
        model, intensity=4.0, event=crossing_spec(1.0), n=40, seed=9, window=ball_window(4.0, d=2)
    )
    assert est.p_hat == 1.0 and est.ci_high == 1.0 and est.ci_low < 1.0


def test_estimate_matches_naive_implementation_per_replicate():
    # same seeds, slow direct pair loop as the reference
    model = fixed_boolean(2, 0.5)
    r, c = 2.0, 0.2
    event = long_edge_spec(r, c)
    window = event.window(2)
    n = 150
    fast = estimate_event(model, intensity=0.6, event=event, n=n, seed=77)
    hits = 0
    for i in range(n):
        rep_seed = replicate_seed(77, i)
        cloud = sample_ppp(intensity=0.6, window=window, seed=rep_seed)
        edges = naive_edges(cloud, model, rep_seed)
        pos = cloud.positions
        hit = False
        for a, b in edges:
            length = float(np.linalg.norm(pos[a] - pos[b]))
            if length > c * r and (np.linalg.norm(pos[a]) < r or np.linalg.norm(pos[b]) < r):
                hit = True
                break
        hits += hit
    assert fast.hits == hits
    assert fast.ci_low <= hits / n <= fast.ci_high


def test_estimate_thread_determinism():
    model = catalog(d=2)["plain-poly"]
    event = crossing_spec(1.0)
    base = estimate_event(model, intensity=0.8, event=event, n=48, seed=5)
    again = estimate_event(model, intensity=0.8, event=event, n=48, seed=5)
    assert again == base
    other = estimate_event(model, intensity=0.8, event=event, n=48, seed=6)
    assert other.hits != base.hits or other is not base  # seed matters statistically


# ---------------------------------------------------------------- trend probe


def test_probe_bounded_boolean_vanishing():
    model = fixed_boolean(2, 0.5)
    report = probe_long_edge_persistence(
        model, intensity=1.0, c=1.0, r_min=1.2, k=4, n=30, seed=11
    )
    assert report.verdict == "vanishing"
    assert all(e.hits == 0 for e in report.estimates)
    assert all(v == 0.0 for v in report.campbell_means)
    assert any("finite-scale" in line for line in report.lines())


def test_probe_polynomial_persistent():
    # expected long-edge count grows like r^(2d - d*delta) = r here
    model = catalog(d=2)["plain-poly"]
    report = probe_long_edge_persistence(
        model, intensity=0.7, c=1.0, r_min=0.5, k=5, n=120, seed=21
    )
    assert report.verdict == "persistent"
    camp = report.campbell_means
    assert camp[-1] > camp[0]


def test_probe_intensity_halving_agreement():
    model = catalog(d=2)["plain-poly"]
    kwargs = dict(c=1.0, r_min=0.5, k=4, n=100)
    a = probe_long_edge_persistence(model, intensity=0.8, seed=31, **kwargs)
    b = probe_long_edge_persistence(model, intensity=0.4, seed=32, **kwargs)
    # verdicts may soften to inconclusive but must not contradict
    assert {a.verdict, b.verdict} != {"persistent", "vanishing"}


def test_probe_undersampled_caveat():
    model = catalog(d=2)["plain-poly"]
    report = probe_long_edge_persistence(
        model, intensity=1e-3, c=1.0, r_min=0.5, k=4, n=15, seed=41
    )
    assert all(e.hits == 0 for e in report.estimates)
    assert report.verdict == "vanishing"
    assert report.undersampled
    assert max(report.campbell_means) * 15 < 0.1


def test_probe_grid_validation():
    model = catalog(d=2)["plain-poly"]
    with pytest.raises(ConfigurationError):
        probe_long_edge_persistence(model, intensity=1.0, c=1.0, r_min=1.0, k=3, n=5, seed=0)
    with pytest.raises(ConfigurationError):
        probe_long_edge_persistence(model, intensity=1.0, c=1.0, r_min=2.0, r_max=1.0, k=4, n=5, seed=0)
    with pytest.raises(ConfigurationError, match="r_max must be finite"):
        probe_long_edge_persistence(model, intensity=1.0, c=1.0, r_min=2.0, r_max=math.inf, k=4, n=5, seed=0)


def test_probe_thresholds_validation():
    # the first scale has hits, where a decrease factor of 0 once divided by zero
    model = boolean_model(1, RadiusLaw(kind="pareto", shape=0.5, scale=0.25))
    probe = dict(intensity=1.0, c=1.0, r_min=1.0, k=4, n=30, seed=0)
    bad = [(1.0, 4.0), (-0.1, 4.0), (math.nan, 4.0), (0.05, 0.0), (0.05, -1.0), (0.05, 0.5), (0.05, math.inf),
           (0.05, math.nan)]
    for floor, factor in bad:
        with pytest.raises(ConfigurationError, match="floor" if factor == 4.0 else "factor"):
            probe_long_edge_persistence(model, **probe, persistent_floor=floor, vanishing_factor=factor)
    report = probe_long_edge_persistence(model, **probe, persistent_floor=0.0, vanishing_factor=1.0)
    assert report.estimates[0].hits > 0 and report.verdict == "persistent"


# ---------------------------------------------------------------- Campbell formulas


def test_campbell_zero_profile():
    from perco.models import custom_profile

    model = classical_model(1, Kernel("plain"), custom_profile([1.0], [0.0]))
    assert campbell_long_edges(model, intensity=2.0, r=1.0, c=0.5) == 0.0


def test_campbell_support_below_threshold_is_zero():
    model = catalog(d=2)["plain-indicator"]  # connection range 1
    assert campbell_long_edges(model, intensity=3.0, r=2.0, c=1.0) == 0.0


def test_campbell_frozen_reference_value():
    # d=1, phibar(rho) = min(1, rho^-2), r=1, c=2: inner integral over the
    # far set is 2 * int_2^inf rho^-2 = 1 independent of x, so the double
    # integral is the ball volume 2.  Frozen reference: 2 * intensity^2.
    model = classical_model(1, Kernel("plain"), polynomial_profile(2.0))
    value = campbell_long_edges(model, intensity=1.0, r=1.0, c=2.0)
    assert value == pytest.approx(2.0, rel=1e-9)
    assert campbell_long_edges(model, intensity=3.0, r=1.0, c=2.0) == pytest.approx(18.0, rel=1e-9)

    # independent 2D quadrature of the same double integral
    brute = 2.0 * integrate.dblquad(
        lambda y, x: (y - x) ** -2.0, -1.0, 1.0, lambda x: x + 2.0, np.inf
    )[0]
    assert value == pytest.approx(brute, rel=1e-6)


def test_campbell_divergent_tail_gives_inf():
    heavy = catalog(d=2)["boolean-heavy"]  # radius tail exponent 1.5 < d
    assert campbell_long_edges(heavy, intensity=1.0, r=1.0, c=1.0) == math.inf
    borderline = catalog(d=2)["product-indicator"]
    # tau = 2.5 keeps the tail integrable; tau = 2 does not
    log_heavy = classical_model(2, Kernel("product"), indicator_profile(1.0), tau=2.0)
    assert campbell_long_edges(log_heavy, intensity=1.0, r=1.0, c=1.0) == math.inf
    assert math.isfinite(campbell_long_edges(borderline, intensity=1.0, r=1.0, c=1.0))


def test_campbell_hard_cutoff():
    model = catalog(d=2)["plain-poly"]
    lam, r, c, upper = 0.9, 1.0, 1.0, 10.0
    got = campbell_long_edges(model, lam, r, c, upper=upper)
    ref = integrate.quad(lambda rho: rho * mark_averaged_connection(model, rho), c * r, upper)[0]
    ref *= lam**2 * unit_ball_volume(2) * r**2 * sphere_surface(2)
    assert got == pytest.approx(ref, rel=1e-8)
    assert got < campbell_long_edges(model, lam, r, c)
    with pytest.raises(ConfigurationError):
        campbell_long_edges(model, lam, r, c, upper=0.5)


def test_campbell_long_edges_matches_empirical_counts():
    # boolean model with deterministic radii: count endpoint incidences
    model = fixed_boolean(2, 0.5)
    lam, r, c, upper = 1.5, 1.0, 0.3, 2.0
    expected = campbell_long_edges(model, lam, r, c, upper=upper)
    window = ball_window(r + upper + 0.05, d=2)
    from perco.graph import build_graph

    counts = []
    for i in range(300):
        seed = replicate_seed(404, i)
        cloud = sample_ppp(intensity=lam, window=window, seed=seed)
        graph = build_graph(cloud, model, seed=seed)
        if graph.n_edges == 0:
            counts.append(0)
            continue
        lengths = graph.edge_lengths()
        ok = (lengths > c * r) & (lengths <= upper)
        pos = graph.cloud.positions
        e = graph.edges[ok]
        inside0 = np.sum(pos[e[:, 0]] ** 2, axis=1) < r * r
        inside1 = np.sum(pos[e[:, 1]] ** 2, axis=1) < r * r
        counts.append(int(inside0.sum() + inside1.sum()))
    mean = np.mean(counts)
    sigma = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - expected) < 4 * sigma, (mean, expected, sigma)


def test_markov_bound_on_long_edge_probability():
    model = catalog(d=2)["plain-poly"]
    lam, r, c = 0.1, 1.0, 1.0
    bound = campbell_long_edges(model, lam, r, c)
    assert bound < 1.0  # regime where the bound is informative
    est = estimate_event(model, lam, long_edge_spec(r, c), n=400, seed=55)
    sigma = math.sqrt(max(est.p_hat * (1 - est.p_hat), 1e-12) / est.trials)
    assert est.p_hat <= bound + 3 * sigma


def test_campbell_total_edges_against_pair_sampling():
    # E[edges] = (lambda^2/2) * vol^2 * E[phibar(|X-Y|)] for X, Y uniform
    model = catalog(d=2)["plain-poly"]
    window = ball_window(2.0, d=2)
    lam = 1.3
    expected = campbell_total_edges(model, lam, window)
    rng = np.random.default_rng(777)
    m = 400_000
    pts = rng.uniform(-2.0, 2.0, size=(4 * m, 2, 2))
    keep = np.all(np.sum(pts**2, axis=2) <= 4.0, axis=1)
    pairs = pts[keep][:m]
    rho = np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1)
    vals = mark_averaged_connection(model, rho[:50_000])
    vol = window.volume()
    mc = 0.5 * lam**2 * vol**2 * vals.mean()
    se = 0.5 * lam**2 * vol**2 * vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(expected - mc) < 4 * se, (expected, mc, se)


# ---------------------------------------------------------------- truncation bound


def test_truncation_zero_cases():
    model = fixed_boolean(2, 0.5)
    window = ball_window(5.0, d=2)
    assert truncation_bound(model, 1.0, window, 0.0) == 0.0
    # bounded connection range 1, every point of B(0,1) is 4 away from the boundary
    assert truncation_bound(model, 1.0, window, 1.0) == 0.0


def test_truncation_bound_against_monte_carlo():
    # fat window pair-sampling estimate of the same expectation
    model = classical_model(2, Kernel("plain"), polynomial_profile(2.5))
    lam, r_win, ell = 1.0, 3.0, 2.0
    bound = truncation_bound(model, lam, ball_window(r_win, d=2), ell)
    assert 0 < bound < math.inf
    rng = np.random.default_rng(31415)
    m = 300_000
    # x uniform in B(0, ell), y uniform in the annulus 3 < |y| < 12
    x = rng.uniform(-ell, ell, size=(3 * m, 2))
    x = x[np.sum(x**2, axis=1) <= ell**2][:m]
    y = rng.uniform(-12.0, 12.0, size=(8 * m, 2))
    ny = np.sum(y**2, axis=1)
    y = y[(ny > r_win**2) & (ny <= 144.0)][:m]
    rho = np.linalg.norm(x - y, axis=1)
    vals = mark_averaged_connection(model, rho[:60_000])
    area_x = math.pi * ell**2
    area_y = math.pi * (144.0 - r_win**2)
    mc = lam**2 * area_x * area_y * vals.mean()
    se = lam**2 * area_x * area_y * vals.std(ddof=1) / math.sqrt(len(vals))
    # the annulus stops at 12; the neglected tail is tiny for delta=2.5
    assert abs(bound - mc) < max(4 * se, 0.02 * bound), (bound, mc, se)


def test_truncation_bound_frozen_closed_form_d1():
    # radius-1 boolean discs connect within distance 2.  A point x of [-1, 1]
    # reaches |x| of the exterior of [-2, 2], so the bound is
    # intensity^2 * int_{-1}^{1} |x| dx = intensity^2.
    model = fixed_boolean(1, 1.0)
    window = ball_window(2.0, d=1)
    assert truncation_bound(model, 1.0, window, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert truncation_bound(model, 1.7, window, 1.0) == pytest.approx(1.7**2, rel=1e-12)


def test_truncation_bound_catalog_values():
    # values of the earlier shell-by-shell double quadrature on the r=0.25
    # crossing window; inf marks the divergent radial tails
    frozen = {
        "boolean-fixed": 1.8193645224156338,
        "boolean-heavy": math.inf,
        "plain-indicator": 1.8193645224156338,
        "plain-poly": 6.754125429459218,
        "product-indicator": 21.566367235489604,
        "sum-poly": 19.091134475996984,
        "min-indicator": math.inf,
    }
    spec = crossing_spec(0.25)
    window, ell = spec.window(2), spec.truncation_radius()
    for name, model in catalog(d=2).items():
        got = truncation_bound(model, 1.0, window, ell)
        if math.isinf(frozen[name]):
            assert got == math.inf, name
        else:
            assert got == pytest.approx(frozen[name], rel=1e-6), name


def test_truncation_bound_validation():
    model = catalog(d=2)["plain-poly"]
    with pytest.raises(ConfigurationError):
        truncation_bound(model, 1.0, ball_window(2.0, d=2), 3.0)


def test_oracles_reject_a_window_of_another_dimension():
    # the integrals would otherwise run, or broadcast, in the window's dimension instead of the model's
    plain = catalog(d=2)["plain-indicator"]
    cases = [
        lambda: campbell_total_edges(plain, 1.0, ball_window(5.0, d=1)),
        lambda: campbell_total_edges(plain, 1.0, ball_window(5.0, d=3)),
        lambda: campbell_total_edges(plain, 1.0, ball_window(1.5, d=1)),
        lambda: truncation_bound(catalog(d=1)["plain-indicator"], 1.0, ball_window(1.5, d=2), 1.0),
        lambda: truncation_bound(plain, 1.0, ball_window(5.0, d=3), 1.0),
        lambda: truncation_bound(plain, 1.0, ball_window(5.0, d=3), 0.0),
    ]
    for case in cases:
        with pytest.raises(ConfigurationError, match="dimension"):
            case()


# ---------------------------------------------------------------- coverings


def test_covering_trivial_and_line():
    one = covering_number(1.0, 3)
    assert one.count == 1 and np.allclose(one.centers, 0.0)
    line = covering_number(3.0, 1)
    assert line.count <= 3
    assert sorted(np.round(line.centers.ravel(), 9).tolist()) == [-2.0, 0.0, 2.0]
    with pytest.raises(ConfigurationError):
        covering_number(0.5, 2)


def test_covering_rejects_unbounded_ratios_and_oversized_lattices(monkeypatch):
    for q in (math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="finite"):
            covering_number(q, 2)
    with pytest.raises(ResourceError, match="COVERING_LATTICE_BUDGET"):
        covering_number(1e308, 2)
    with pytest.raises(ResourceError):
        covering_number(3.0, 8)  # 11^8 lattice points
    # the cap is read at every call, and a lattice of exactly the cap passes
    monkeypatch.setattr(estimators, "COVERING_LATTICE_BUDGET", 25)
    assert covering_number(2.0, 2).count > 1  # a 5 x 5 lattice
    with pytest.raises(ResourceError, match="7\\^2 points"):
        covering_number(3.0, 2)
    model = catalog(d=2)["boolean-heavy"]
    with pytest.raises(ConfigurationError, match="r must be positive and finite"):
        check_covering_inequality(model, 0.3, r=math.inf, c=1.0, c_prime=2.0, n=10, seed=0)


def test_covering_dense_sample_validity():
    rng = np.random.default_rng(2718)
    for d in (1, 2, 3):
        for q in (1.5, 2.0, 3.0, 5.0):
            cov = covering_number(q, d)
            assert isinstance(cov, Covering)
            # centers stay inside the covered ball after projection
            assert np.all(np.linalg.norm(cov.centers, axis=1) <= q + 1e-12)
            pts = rng.uniform(-q, q, size=(60_000, d))
            pts = pts[np.sum(pts**2, axis=1) <= q * q][:20_000]
            diff = pts[:, None, :] - cov.centers[None, :, :]
            dmin = np.sqrt(np.sum(diff**2, axis=2)).min(axis=1)
            assert dmin.max() <= 1.0 + 1e-9, (d, q, dmin.max())


def test_covering_check_exact_union_bound():
    model = catalog(d=2)["boolean-heavy"]
    report = check_covering_inequality(
        model, intensity=0.25, r=2.0, c=1.0, c_prime=2.0, n=150, seed=61
    )
    assert report.union_bound_violations == 0
    assert report.rhs.hits > 0  # nonvacuous
    assert not report.statistically_violated
    assert report.covering.count >= 1
    assert any("not violated" in line for line in report.lines())


def test_covering_check_equal_ratios_tight():
    model = catalog(d=2)["boolean-heavy"]
    report = check_covering_inequality(
        model, intensity=0.3, r=1.5, c=1.0, c_prime=1.0, n=80, seed=62
    )
    assert report.covering.count == 1
    assert report.lhs.hits == report.rhs.hits
    with pytest.raises(ConfigurationError):
        check_covering_inequality(model, 0.3, 1.5, c=2.0, c_prime=1.0, n=10, seed=0)


# ---------------------------------------------------------------- mixing


def test_mixing_zero_intensity():
    model = catalog(d=2)["plain-indicator"]
    rep = estimate_mixing_cov(model, intensity=0.0, r=0.5, x=[4.0, 0.0], n=1000, seed=71)
    assert rep.covariance == 0.0
    assert rep.ci_low == 0.0 and rep.ci_high == 0.0


def test_mixing_classical_ci_contains_zero():
    model = catalog(d=2)["plain-indicator"]
    r = 0.4
    rep = estimate_mixing_cov(model, intensity=1.2, r=r, x=[7 * r, 0.0], n=1500, seed=73)
    assert rep.ci_low <= 0.0 <= rep.ci_high
    assert rep.near.hits > 0 and rep.far.hits > 0  # nondegenerate indicators


def test_mixing_preconditions():
    model = catalog(d=2)["plain-indicator"]
    with pytest.raises(ConfigurationError):
        estimate_mixing_cov(model, 1.0, r=0.5, x=[2.9, 0.0], n=1000, seed=0)
    with pytest.raises(ConfigurationError):
        estimate_mixing_cov(model, 1.0, r=0.5, x=[4.0, 0.0], n=500, seed=0)
    with pytest.raises(ConfigurationError):
        estimate_mixing_cov(model, 1.0, r=0.5, x=[4.0], n=1000, seed=0)


def test_mixing_thread_determinism():
    model = catalog(d=2)["plain-indicator"]
    r = 0.3
    a = estimate_mixing_cov(model, 0.9, r=r, x=[7 * r, 0.0], n=1000, seed=75, threads=1)
    b = estimate_mixing_cov(model, 0.9, r=r, x=[7 * r, 0.0], n=1000, seed=75, threads=4)
    assert a.covariance == b.covariance
    assert a.near == b.near and a.far == b.far


def test_make_estimate_consistency():
    est = make_estimate(7, 50)
    assert est.p_hat == pytest.approx(0.14)
    assert est.ci_low < est.p_hat < est.ci_high
