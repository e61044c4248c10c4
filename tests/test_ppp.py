import math

import numpy as np
import pytest
from scipy import stats

from perco.errors import ConfigurationError, ResourceError
from perco.ppp import (
    PointCloud,
    ball_window,
    box_window,
    point_budget,
    sample_ppp,
    unit_ball_volume,
)


def test_window_volumes_closed_form():
    assert box_window([0, 0, 0], [1, 1, 1]).volume() == pytest.approx(1.0)
    assert ball_window(2.0, d=2).volume() == pytest.approx(4 * math.pi)
    assert ball_window(1.0, d=3).volume() == pytest.approx(4 * math.pi / 3)
    assert ball_window(1.0, d=1).volume() == pytest.approx(2.0)
    # d-ball volume recursion v_d = v_{d-2} * 2 pi / d
    for d in range(3, 9):
        assert unit_ball_volume(d) == pytest.approx(unit_ball_volume(d - 2) * 2 * math.pi / d)


def test_zero_intensity_gives_empty_cloud():
    cloud = sample_ppp(ball_window(3.0, d=2), 0.0, seed=7)
    assert len(cloud) == 0
    assert cloud.positions.shape == (0, 2)
    assert cloud.marks.shape == (0,)


def test_reproducibility_and_seed_sensitivity():
    w = box_window([-1, -1], [1, 1])
    a = sample_ppp(w, 20.0, seed=123)
    b = sample_ppp(w, 20.0, seed=123)
    c = sample_ppp(w, 20.0, seed=124)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.marks, b.marks)
    assert np.array_equal(a.ids, b.ids)
    assert a.positions.shape != c.positions.shape or not np.array_equal(a.positions, c.positions)


def test_mean_count_ball_d2():
    # lam=10 on a unit disc: mean count 10*pi
    w = ball_window(1.0, d=2)
    reps = 400
    counts = np.array([len(sample_ppp(w, 10.0, seed=1000 + k)) for k in range(reps)])
    mean = 10 * math.pi
    se = math.sqrt(mean / reps)
    assert abs(counts.mean() - mean) < 3 * se
    # variance should match the mean for Poisson counts (loose factor-2 band)
    assert mean / 2 < counts.var() < mean * 2


def test_count_distribution_chi2_box_d1():
    # counts on [0,1] at lam=5 follow Poisson(5); chi-square GOF at level 0.01
    w = box_window([0.0], [1.0])
    reps = 2000
    counts = np.array([len(sample_ppp(w, 5.0, seed=77000 + k)) for k in range(reps)])
    kmax = 12
    edges = list(range(kmax + 1))
    observed = np.array([(counts == k).sum() for k in edges] + [(counts > kmax).sum()], dtype=float)
    pmf = stats.poisson.pmf(edges, 5.0)
    expected = np.append(pmf, 1.0 - pmf.sum()) * reps
    keep = expected >= 5.0
    chi2 = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    dof = int(keep.sum()) - 1
    pval = stats.chi2.sf(chi2, dof)
    assert pval > 0.01


def test_positions_uniform_in_ball():
    # radial cdf in a d-ball is (r/R)^d; KS test on pooled samples
    for d in (2, 3):
        w = ball_window(2.0, d=d)
        cloud = sample_ppp(w, 2000.0 / w.volume(), seed=40 + d)
        radii = np.linalg.norm(cloud.positions, axis=1)
        stat = stats.kstest(radii, lambda r: (np.asarray(r) / 2.0) ** d)
        assert stat.pvalue > 0.01
        assert np.all(radii <= 2.0)


def test_positions_uniform_in_box_and_marks_independent():
    w = box_window([0.0, -2.0], [4.0, 2.0])
    cloud = sample_ppp(w, 500.0 / w.volume(), seed=99)
    for axis, (lo, hi) in enumerate([(0.0, 4.0), (-2.0, 2.0)]):
        stat = stats.kstest(cloud.positions[:, axis], stats.uniform(lo, hi - lo).cdf)
        assert stat.pvalue > 0.01
    stat = stats.kstest(cloud.marks, "uniform")
    assert stat.pvalue > 0.01
    assert np.all((cloud.marks > 0) & (cloud.marks < 1))
    # marks must not depend on position
    rho, pval = stats.spearmanr(np.linalg.norm(cloud.positions, axis=1), cloud.marks)
    assert pval > 0.005


def test_ids_fresh_cloud_and_subset_inheritance():
    w = box_window([0.0], [10.0])
    cloud = sample_ppp(w, 30.0, seed=5)
    assert np.array_equal(cloud.ids, np.arange(len(cloud), dtype=np.uint64))
    keep = cloud.marks < 0.5
    sub = cloud.subset(keep)
    assert np.array_equal(sub.ids, cloud.ids[keep])
    assert np.array_equal(sub.positions, cloud.positions[keep])
    # immutability guards
    with pytest.raises(ValueError):
        cloud.positions[0, 0] = 0.0
    with pytest.raises(ValueError):
        cloud.marks[0] = 0.5


def test_budget_enforced(monkeypatch):
    w = box_window([0.0], [1.0])
    with pytest.raises(ResourceError):
        sample_ppp(w, 1e12, seed=0)
    monkeypatch.setenv("PERCO_BUDGET_POINTS", "50")
    assert point_budget() == 50
    with pytest.raises(ResourceError):
        sample_ppp(w, 100.0, seed=0)
    assert len(sample_ppp(w, 10.0, seed=0)) >= 0
    monkeypatch.setenv("PERCO_BUDGET_POINTS", "abc")
    with pytest.raises(ConfigurationError):
        point_budget()


def test_subwindow_counts_poisson():
    # restriction of a PPP to a sub-window is again Poisson with the sub-volume mean
    big = box_window([0.0, 0.0], [4.0, 4.0])
    reps = 1500
    lam = 2.0
    sub_counts = np.empty(reps, dtype=int)
    for k in range(reps):
        cloud = sample_ppp(big, lam, seed=31000 + k)
        inside = np.all((cloud.positions >= 1.0) & (cloud.positions <= 2.0), axis=1)
        sub_counts[k] = int(inside.sum())
    kmax = 8
    observed = np.array([(sub_counts == k).sum() for k in range(kmax)] + [(sub_counts >= kmax).sum()], dtype=float)
    pmf = stats.poisson.pmf(np.arange(kmax), lam)
    expected = np.append(pmf, 1.0 - pmf.sum()) * reps
    keep = expected >= 5.0
    chi2 = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    pval = stats.chi2.sf(chi2, int(keep.sum()) - 1)
    assert pval > 0.01


def test_marked_point():
    from perco.ppp import MarkedPoint

    p = MarkedPoint(position=[1.0, 2.0], mark=0.3)
    assert p.dimension == 2
    with pytest.raises(ConfigurationError):
        MarkedPoint(position=[0.0], mark=0.0)
    with pytest.raises(ConfigurationError):
        MarkedPoint(position=[0.0], mark=1.0)
    cloud = sample_ppp(box_window([0.0], [5.0]), 4.0, seed=3)
    if len(cloud):
        q = cloud.point(0)
        assert q.position[0] == cloud.positions[0, 0]
        assert q.mark == cloud.marks[0]


def test_window_validation():
    with pytest.raises(ConfigurationError):
        ball_window(-1.0, d=2)
    with pytest.raises(ConfigurationError):
        box_window([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ConfigurationError):
        box_window([0.0] * 9, [1.0] * 9)
    with pytest.raises(ConfigurationError):
        sample_ppp(box_window([0.0], [1.0]), -1.0, seed=0)


def test_contains_and_contains_ball():
    w = ball_window(2.0, d=2)
    pts = np.array([[0.0, 0.0], [1.9, 0.0], [2.1, 0.0]])
    assert list(w.contains(pts)) == [True, True, False]
    assert w.contains_ball([0.5, 0.0], 1.0)
    assert not w.contains_ball([1.5, 0.0], 1.0)
    b = box_window([0.0, 0.0], [4.0, 4.0])
    assert b.contains_ball([2.0, 2.0], 2.0)
    assert not b.contains_ball([1.0, 2.0], 1.5)
