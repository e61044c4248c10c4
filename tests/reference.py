"""Slow, obviously-correct reference implementations used as test oracles.

Everything here is written as direct loops with no spatial indexing or
vectorized screening, sharing only the pair-uniform convention with the fast
engine (which is the convention under test elsewhere).
"""

import math
from collections import deque

import numpy as np
from scipy import integrate

from perco.models import connection_prob_ctx, pairwise_prob
from perco.ppp import MarkedPoint
from perco.rng import pair_uniforms


def naive_edges(cloud, model, seed):
    """All-pairs double loop using the scalar context-aware probability."""
    n = len(cloud)
    edges = []
    for i in range(n):
        a = MarkedPoint(position=cloud.positions[i], mark=float(cloud.marks[i]))
        for j in range(i + 1, n):
            b = MarkedPoint(position=cloud.positions[j], mark=float(cloud.marks[j]))
            others = np.ones(n, dtype=bool)
            others[[i, j]] = False
            p = connection_prob_ctx(model, a, b, cloud.positions[others])
            u = float(pair_uniforms(seed, int(cloud.ids[i]), int(cloud.ids[j])))
            if u < p:
                edges.append((i, j))
    return sorted(edges)


def bfs_components(n, edges):
    """Component labels by plain breadth-first search over an adjacency list."""
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    labels = [-1] * n
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        queue = deque([start])
        labels[start] = current
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if labels[w] == -1:
                    labels[w] = current
                    queue.append(w)
        current += 1
    return labels


def same_partition(labels_a, labels_b) -> bool:
    """Whether two labelings induce the same partition of the vertex set."""
    seen = {}
    for a, b in zip(labels_a, labels_b):
        if a in seen:
            if seen[a] != b:
                return False
        else:
            seen[a] = b
    values = list(seen.values())
    return len(values) == len(set(values))


def bfs_path_exists(n, edges, sources, targets, allowed):
    """Whether a path from sources to targets exists within the allowed set."""
    allowed = set(allowed)
    sources = [s for s in sources if s in allowed]
    targets = set(t for t in targets if t in allowed)
    if not sources or not targets:
        return False
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        if i in allowed and j in allowed:
            adj[i].append(j)
            adj[j].append(i)
    seen = set(sources)
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        if v in targets:
            return True
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return bool(targets & seen)


def phibar_nested_quad(model, rho):
    """Mark average of ``pairwise_prob`` at distance rho for a weighted classical model.

    Nested adaptive quadrature over both marks.  The profile argument
    g(w, v) * rho^d / beta crosses a corner argument of the profile (a kink
    or jump) along a curve in the weight plane; the inner integral over the
    second mark is split where it meets that curve, and the outer integral
    where the curve leaves the weight range v > 1.
    """
    alpha = model.tau - 1.0
    scale = rho**model.d / model.beta
    kind = model.kernel.kind
    levels = [c / scale for c in model.profile.corner_args]  # kernel values at the corners

    def second_weight(w, a):
        # the v with g(w, v) = a; for the min kernel no v reaches a once w >= 1/a
        if kind == "product":
            return 1.0 / (a * w)
        if kind == "sum":
            return 1.0 / a - w
        return math.inf if w >= 1.0 / a else 1.0 / a

    def marks_of(weights):
        return sorted(v**-alpha for v in weights if 1.0 < v < math.inf)

    def inner(s):
        w = s ** (-1.0 / alpha)
        kinks = [second_weight(w, a) for a in levels]
        if kind == "min":
            kinks.append(w)  # max(w, v) turns at v = w
        val, _ = integrate.quad(
            lambda t: float(pairwise_prob(model, s, t, rho)),
            0.0,
            1.0,
            points=marks_of(kinks) or None,
            epsabs=1e-12,
            epsrel=1e-10,
            limit=200,
        )
        return val

    # second_weight(w, a) = 1 at w = 1/a - 1 (sum) or w = 1/a (product, min)
    outer_kinks = marks_of(1.0 / a - (kind == "sum") for a in levels)
    out, _ = integrate.quad(inner, 0.0, 1.0, points=outer_kinks or None, epsabs=1e-10, epsrel=1e-8, limit=200)
    return out


def radial_integral_quad(fn, d, lower, support, breakpoints=()):
    """Integral of rho^{d-1} fn(rho) over [lower, support], both finite.

    Adaptive QUADPACK on each segment between the breakpoints inside
    (lower, support), with fn called one scalar rho at a time: an
    independent check of the fixed-rule segment sum in perco.quadrature.
    """
    pts = sorted({lower, support, *(float(b) for b in breakpoints if lower < b < support)})
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = integrate.quad(lambda rho: rho ** (d - 1) * fn(rho), a, b, epsabs=1e-13, epsrel=1e-10, limit=200)
        total += val
    return total
