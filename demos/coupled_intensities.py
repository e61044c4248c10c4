# Monotone coupling across intensities: the low-intensity cloud is an exact
# thinning of the high-intensity one, and because pair randomness is indexed
# by point identity, the low graph is the vertex-induced subgraph of the high
# graph. Monotone events (long edge, crossing) can then only gain from extra
# points, replicate by replicate, not just on average.
#
# Run with `python3 demos/coupled_intensities.py`.

import numpy as np

from perco import (
    ball_window,
    catalog,
    coupled_graphs,
    crossing_spec,
    induced_edges,
    long_edge_spec,
    thin_pair,
)
from perco.rng import mix


if __name__ == "__main__":
    model = catalog(2)["plain-indicator"]
    window = ball_window(3.0, 2)
    lam_low, lam_high = 0.5, 1.0
    n_reps = 300

    mismatches = 0
    event_downgrades = 0
    low_hits = high_hits = 0
    for i in range(n_reps):
        pair = thin_pair(window, lam_low, lam_high, seed=int(mix(99, "pair", i)))
        g_low, g_high = coupled_graphs(pair, model, seed=int(mix(99, "graph", i)))
        expected = induced_edges(g_high, pair.retained)
        if g_low.edges.shape != expected.shape or not np.array_equal(g_low.edges, expected):
            mismatches += 1
        for event in (long_edge_spec(1.0, 0.5).evaluate, crossing_spec(0.8).evaluate):
            a, b = event(g_low), event(g_high)
            low_hits += a
            high_hits += b
            if a and not b:
                event_downgrades += 1

    print(f"replicates: {n_reps}  (low {lam_low}, high {lam_high})")
    print(f"induced-subgraph mismatches: {mismatches}")
    print(f"monotone events lost when adding points: {event_downgrades}")
    print(f"event hits at low intensity: {low_hits}, at high intensity: {high_hits}")
    print()
    print("both failure counters must be exactly zero; the coupling is pathwise")
