import math
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from reference import sample_ppp_fresh_generator

from perco.coupling import thin_pair
from perco.errors import ConfigurationError, ResourceError
from perco import ppp
from perco.ppp import (
    PointCloud,
    ball_window,
    box_window,
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
    # the thinned cloud is the one sub-cloud perco makes
    pair = thin_pair(w, 15.0, 30.0, seed=5)
    keep = pair.retained
    assert np.array_equal(pair.high.positions, cloud.positions) and 0 < keep.sum() < len(cloud)
    assert np.array_equal(pair.low.ids, cloud.ids[keep])
    assert np.array_equal(pair.low.positions, cloud.positions[keep])
    # immutability guards
    with pytest.raises(ValueError):
        cloud.positions[0, 0] = 0.0
    with pytest.raises(ValueError):
        cloud.marks[0] = 0.5


def test_budget_enforced(monkeypatch):
    w = box_window([0.0], [1.0])
    with pytest.raises(ResourceError):
        sample_ppp(w, 1e12, seed=0)
    monkeypatch.setattr(ppp, "DEFAULT_POINT_BUDGET", 50)  # read at every call
    with pytest.raises(ResourceError, match="point cap DEFAULT_POINT_BUDGET is 50"):
        sample_ppp(w, 100.0, seed=0)
    assert len(sample_ppp(w, 10.0, seed=0)) >= 0


def test_window_volume_past_the_float_range_is_inf():
    # radius**d overflows a float; the volume is inf, past every point cap
    w = ball_window(1e308, d=2)
    assert w.volume() == math.inf
    with pytest.raises(ResourceError, match="point cap DEFAULT_POINT_BUDGET"):
        sample_ppp(w, 1e-300, seed=0)
    assert len(sample_ppp(w, 0.0, seed=0)) == 0
    box = box_window([-1e308, 0.0], [1e308, 1.0])
    assert box.volume() == math.inf
    with pytest.raises(ResourceError, match="point cap DEFAULT_POINT_BUDGET"):
        sample_ppp(box, 1e-300, seed=0)
    # no point is drawn, so the box's width, inf here, is never formed
    assert sample_ppp(box, 0.0, seed=0).positions.shape == (0, 2)


def _same_cloud(a, b):
    return (
        a.positions.shape == b.positions.shape
        and a.positions.tobytes() == b.positions.tobytes()
        and a.marks.tobytes() == b.marks.tobytes()
        and np.array_equal(a.ids, b.ids)
    )


@pytest.mark.parametrize("d", range(1, 9))
def test_sample_ppp_matches_a_fresh_substream_bit_for_bit(d):
    # sample_ppp rekeys one generator per thread; a new substream(seed) must draw the same cloud
    windows = [ball_window(1.3, d), box_window(-0.7 * np.arange(1, d + 1), np.full(d, 1.1))]
    seeds = list(range(200)) + [-1, 2**63, 2**64 - 1]
    for w in windows:
        for mean in (0.0, 2.0, 12.0):
            lam = mean / w.volume()
            for seed in seeds:
                got, want = sample_ppp(w, lam, seed), sample_ppp_fresh_generator(w, lam, seed)
                assert _same_cloud(got, want), (w.kind, mean, seed)


def test_sample_ppp_in_concurrent_threads_matches_a_serial_run():
    w = ball_window(2.5, 2)
    seeds = list(range(300))
    serial = [sample_ppp(w, 1.5, s) for s in seeds]
    got = [None] * len(seeds)
    start = threading.Barrier(3)

    def work(offset):
        start.wait()
        for k in range(offset, len(seeds), 3):
            got[k] = sample_ppp(w, 1.5, seeds[k])

    workers = [threading.Thread(target=work, args=(t,)) for t in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside sample_ppp calls, not only between them
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert all(_same_cloud(a, b) for a, b in zip(got, serial))


def test_point_cloud_rejects_bad_marks_positions_and_counts():
    w = box_window([0.0, 0.0], [1.0, 1.0])
    good = np.array([[0.2, 0.3], [0.4, 0.5]])
    PointCloud(window=w, intensity=1.0, positions=good, marks=[0.1, 0.9], seed=0)
    for bad in (0.0, 1.0, math.nan, -0.1):
        with pytest.raises(ConfigurationError, match="marks must lie strictly inside"):
            PointCloud(window=w, intensity=1.0, positions=good, marks=[0.5, bad], seed=0)
    for bad in (math.inf, -math.inf, math.nan):
        positions = good.copy()
        positions[1, 0] = bad
        with pytest.raises(ConfigurationError, match="positions must be finite"):
            PointCloud(window=w, intensity=1.0, positions=positions, marks=[0.1, 0.9], seed=0)
    with pytest.raises(ConfigurationError, match="positions and marks disagree"):
        PointCloud(window=w, intensity=1.0, positions=good, marks=[0.1, 0.5, 0.9], seed=0)
    with pytest.raises(ConfigurationError, match="ids and positions disagree"):
        PointCloud(window=w, intensity=1.0, positions=good, marks=[0.1, 0.9], seed=0, ids=[0, 1, 2])


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
    from reference import MarkedPoint

    p = MarkedPoint(position=[1.0, 2.0], mark=0.3)
    assert p.dimension == 2
    with pytest.raises(ConfigurationError):
        MarkedPoint(position=[0.0], mark=0.0)
    with pytest.raises(ConfigurationError):
        MarkedPoint(position=[0.0], mark=1.0)
    # tests/reference.py makes a MarkedPoint of each cloud row
    cloud = sample_ppp(box_window([0.0], [5.0]), 4.0, seed=3)
    if len(cloud):
        q = MarkedPoint(position=cloud.positions[0], mark=float(cloud.marks[0]))
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
    # a center of another dimension raises instead of broadcasting
    for window in (w, b):
        for center in ([0.5], [0.5, 0.5, 0.5]):
            with pytest.raises(ConfigurationError, match="2 coordinates"):
                window.contains_ball(center, 0.1)
