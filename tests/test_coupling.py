"""Thinning coupling: exactness, distribution of the thinned cloud, bounds."""

import math

import numpy as np
import pytest
from scipy import stats

from reference import ball_of_volume

from perco.coupling import check_thinning_bounds, coupled_graphs, induced_edges, thin_pair
from perco.errors import ConfigurationError, ContractError
from perco.events import crossing_spec, long_edge_spec, renorm_long_edge_spec
from perco.models import catalog, demo_generalized
from perco.ppp import ball_window


def test_thin_pair_equal_intensities():
    pair = thin_pair(ball_of_volume(25.0, 2), 2.0, 2.0, seed=1)
    assert pair.retained.all()
    assert np.array_equal(pair.low.positions, pair.high.positions)
    assert np.array_equal(pair.low.ids, pair.high.ids)
    assert pair.low.intensity == 2.0


def test_thin_pair_zero_low():
    pair = thin_pair(ball_of_volume(25.0, 2), 0.0, 2.0, seed=2)
    assert len(pair.low) == 0
    assert not pair.retained.any()


def test_thin_pair_validation():
    with pytest.raises(ConfigurationError):
        thin_pair(ball_of_volume(1.0, 2), 2.0, 1.0, seed=0)
    with pytest.raises(ConfigurationError):
        thin_pair(ball_of_volume(1.0, 2), -1.0, 1.0, seed=0)


def test_thin_pair_rejects_nan_and_infinite_intensities():
    # NaN fails every comparison, so an ordering check alone lets it through
    window = ball_window(3.0, d=2)
    for lam_low, lam_high in ((math.nan, 2.0), (1.0, math.nan), (math.nan, math.nan), (1.0, math.inf)):
        with pytest.raises(ConfigurationError, match="0 <= lam_low <= lam_high < inf"):
            thin_pair(window, lam_low, lam_high, seed=1)


def test_thin_pair_half_retention_fraction():
    # ~10^4 points, retained fraction within 3 binomial sigmas of 1/2
    window = ball_of_volume(10_000.0, 2)
    pair = thin_pair(window, 0.5, 1.0, seed=3)
    n = len(pair.high)
    assert n > 9000
    k = int(pair.retained.sum())
    assert abs(k - 0.5 * n) < 3 * np.sqrt(n * 0.25)


def test_thin_pair_deterministic():
    window = ball_window(6.0, d=2)
    a = thin_pair(window, 0.7, 1.4, seed=44)
    b = thin_pair(window, 0.7, 1.4, seed=44)
    assert np.array_equal(a.high.positions, b.high.positions)
    assert np.array_equal(a.retained, b.retained)
    c = thin_pair(window, 0.7, 1.4, seed=45)
    assert len(a.high) != len(c.high) or not np.array_equal(a.high.positions, c.high.positions)


def test_thinned_counts_poisson_chi2():
    # retained counts over replicates vs Poisson(lam_low * vol) at level 0.01
    window = ball_of_volume(16.0, 2)
    lam_low, lam_high = 0.75, 1.5
    mean = lam_low * window.volume()  # 12
    counts = [int(thin_pair(window, lam_low, lam_high, seed=1000 + i).retained.sum()) for i in range(600)]
    counts = np.array(counts)
    edges = [0, 7, 9, 11, 13, 15, 18, np.inf]
    obs = np.histogram(counts, bins=edges)[0]
    probs = []
    for a, b in zip(edges[:-1], edges[1:]):
        hi = stats.poisson.cdf(b - 1, mean) if np.isfinite(b) else 1.0
        lo = stats.poisson.cdf(a - 1, mean) if a > 0 else 0.0
        probs.append(hi - lo)
    chi2 = np.sum((obs - len(counts) * np.array(probs)) ** 2 / (len(counts) * np.array(probs)))
    crit = stats.chi2.ppf(0.99, df=len(obs) - 1)
    assert chi2 < crit, (chi2, crit)


@pytest.mark.parametrize("name", ["plain-poly", "product-indicator", "boolean-heavy"])
def test_induced_subgraph_identity(name):
    model = catalog(d=2)[name]
    window = ball_window(4.0, d=2)
    for rep in range(40):
        pair = thin_pair(window, 0.6, 1.2, seed=2000 + rep)
        low_graph, high_graph = coupled_graphs(pair, model, seed=2000 + rep)
        expect = induced_edges(high_graph, pair.retained)
        assert np.array_equal(low_graph.edges, expect), f"rep {rep}"


def test_equal_intensities_identical_graphs():
    model = catalog(d=2)["plain-poly"]
    pair = thin_pair(ball_window(4.0, d=2), 1.0, 1.0, seed=77)
    low_graph, high_graph = coupled_graphs(pair, model, seed=77)
    assert np.array_equal(low_graph.edges, high_graph.edges)


def test_monotone_events_per_replicate():
    model = catalog(d=2)["boolean-heavy"]
    r = 0.2
    window = ball_window(21.05 * r, d=2)  # covers the renorm event, hence all three
    low_hits = 0
    for rep in range(60):
        pair = thin_pair(window, 0.5, 1.0, seed=3000 + rep)
        low_graph, high_graph = coupled_graphs(pair, model, seed=3000 + rep)
        for evaluate in (long_edge_spec(r, 1.0).evaluate, crossing_spec(r).evaluate, renorm_long_edge_spec(r).evaluate):
            low_hit, high_hit = evaluate(low_graph), evaluate(high_graph)
            assert high_hit or not low_hit  # low implies high
            low_hits += low_hit
    assert low_hits > 10  # implications were exercised, not vacuous


def test_generalized_model_rejected():
    pair = thin_pair(ball_window(2.0, d=2), 0.5, 1.0, seed=5)
    with pytest.raises(ContractError):
        coupled_graphs(pair, demo_generalized(d=2), seed=5)


def test_check_thinning_bounds_report():
    model = catalog(d=2)["boolean-heavy"]
    report = check_thinning_bounds(model, lam_low=0.05, lam_high=0.1, r=4.0, n=300, seed=9)
    assert report.exact_upper_violations == 0
    assert not report.violated
    assert report.low.p_hat <= report.high.p_hat  # observed monotone
    assert report.high.hits > 0
    assert not report.lower_violated and not report.upper_violated


def test_check_thinning_bounds_validation():
    model = catalog(d=2)["plain-poly"]
    with pytest.raises(ConfigurationError):
        check_thinning_bounds(model, lam_low=1.0, lam_high=0.5, r=1.0, n=10, seed=0)
    with pytest.raises(ConfigurationError):
        check_thinning_bounds(model, lam_low=0.0, lam_high=0.5, r=1.0, n=10, seed=0)
