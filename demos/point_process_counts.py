# Sanity-check the marked Poisson sampler: over many replicates the point
# count in a window must be Poisson(intensity * volume), so the empirical
# mean and variance should agree with each other and with the target, and
# the attached marks must look uniform on (0, 1).
#
# Run with `python3 demos/point_process_counts.py`.

import numpy as np

from perco import ball_window, box_window, sample_ppp
from perco.rng import mix


def count_stats(window, intensity, n_reps, seed):
    counts = np.empty(n_reps)
    mark_mean = 0.0
    total = 0
    for i in range(n_reps):
        cloud = sample_ppp(window, intensity, seed=int(mix(seed, "rep", i)))
        counts[i] = cloud.positions.shape[0]
        mark_mean += cloud.marks.sum()
        total += cloud.marks.size
    target = intensity * window.volume()
    return target, counts.mean(), counts.var(ddof=1), mark_mean / max(total, 1)


if __name__ == "__main__":
    cases = [
        ("box [0,4]^2", box_window(np.zeros(2), np.full(2, 4.0)), 1.5),
        ("ball r=2, d=3", ball_window(2.0, 3), 0.8),
        ("box [0,10], d=1", box_window(np.zeros(1), np.full(1, 10.0)), 5.0),
    ]
    print(f"{'window':>14s} {'target':>8s} {'mean':>8s} {'var':>8s} {'mark avg':>9s}")
    for label, window, lam in cases:
        target, mean, var, marks = count_stats(window, lam, n_reps=400, seed=7)
        print(f"{label:>14s} {target:8.3f} {mean:8.3f} {var:8.3f} {marks:9.4f}")
    print()
    print("mean and var should both sit near the target (Poisson), mark avg near 0.5")
