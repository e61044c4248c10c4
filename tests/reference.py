"""Slow, obviously-correct reference implementations used as test oracles.

Everything here is written as direct loops with no spatial indexing or
vectorized screening, sharing only the pair-uniform convention with the fast
engine (which is the convention under test elsewhere).
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from perco.coupling import thin_pair
from perco.errors import ConfigurationError, ContractError
from perco.events import _Block, _require_ball, crossing_spec
from perco.graph import build_graph
from perco.models import ModelSpec, pairwise_prob
from perco.ppp import MAX_DIMENSION, PointCloud, Window, ball_window, unit_ball_volume
from perco.rng import pair_uniforms, substream


@dataclass(frozen=True)
class MarkedPoint:
    """A position in R^d with a mark in the open interval (0,1)."""

    position: np.ndarray
    mark: float

    def __post_init__(self):
        position = np.atleast_1d(np.asarray(self.position, dtype=float))
        if position.ndim != 1 or not (1 <= position.size <= MAX_DIMENSION):
            raise ConfigurationError(f"position must have 1..{MAX_DIMENSION} coordinates")
        if not np.all(np.isfinite(position)):
            raise ConfigurationError("position must be finite")
        if not (0.0 < self.mark < 1.0):
            raise ConfigurationError(f"mark must lie strictly in (0,1), got {self.mark}")
        position.flags.writeable = False
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "mark", float(self.mark))

    @property
    def dimension(self) -> int:
        return self.position.size


def connection_prob(model: ModelSpec, a: MarkedPoint, b: MarkedPoint) -> float:
    """Two-point connection probability; symmetric, nonincreasing in distance."""
    if model.variant == "generalized":
        raise ContractError(
            "generalized models are context-dependent; use connection_prob_ctx"
        )
    if a.dimension != model.d or b.dimension != model.d:
        raise ConfigurationError("point dimension does not match model dimension")
    dist = float(np.linalg.norm(a.position - b.position))
    return float(pairwise_prob(model, a.mark, b.mark, dist))


def connection_prob_ctx(model: ModelSpec, a: MarkedPoint, b: MarkedPoint, context) -> float:
    """Connection probability given the surrounding configuration.

    ``context`` is a PointCloud or position array excluding a and b.  For
    boolean/classical models the context is ignored.
    """
    if model.variant != "generalized":
        return connection_prob(model, a, b)
    base_p = connection_prob(model.base, a, b)
    positions = context.positions if isinstance(context, PointCloud) else context
    positions = np.asarray(positions, dtype=float).reshape(-1, model.d)
    # context points within damping_radius of the pair midpoint
    d2 = np.sum((positions - 0.5 * (a.position + b.position)) ** 2, axis=1)
    n_close = int(np.count_nonzero(d2 <= model.damping_radius**2))
    return base_p * model.damping_factor**n_close


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


def bracket_hits_by_rebuild(model, r_probe, lam, lam_max, rep_seeds):
    """Crossing indicator at r_probe of each replicate thinned to ``lam``, from a rebuilt graph.

    The bisection loop before per-replicate thresholds: every replicate
    resamples its lam_max cloud, thins it to lam and builds the thinned graph.
    """
    event = crossing_spec(r_probe)
    window = event.window(model.d)
    hits = []
    for rep_seed in rep_seeds:
        pair = thin_pair(window, lam, lam_max, rep_seed)
        hits.append(event.evaluate(build_graph(pair.low, model, seed=rep_seed)))
    return np.array(hits, dtype=bool)


def renorm_long_edge_endpoint_first(graphs, r):
    """The renorm long edge on each graph, decided endpoint first.

    The points strictly inside B(0, 20r), the edges with an end among them,
    and of those the edges whose squared length exceeds r*r.  The engine
    decides the event through ``long_edge_hits``, long edges first, and
    compares lengths rather than their squares.
    """
    graphs = list(graphs)
    if not graphs:
        return np.zeros(0, dtype=bool)
    block = _Block(graphs)
    _require_ball(block.windows, block.origin, 21.0 * r, "renorm long-edge event")
    near = np.sum(block.positions**2, axis=1) < (20.0 * r) ** 2
    e = block.edges[near[block.edges[:, 0]] | near[block.edges[:, 1]]]
    diff = block.positions[e[:, 0]] - block.positions[e[:, 1]]
    return block._any(e[np.sum(diff * diff, axis=1) > r * r, 0])


def serialize_config(cfg) -> str:
    """A parsed config's normalized form: sorted keys, single spaces around '='."""
    return "".join(f"{key} = {cfg.values[key]}\n" for key in sorted(cfg.values))


def ball_of_volume(volume: float, d: int) -> Window:
    """The window B(0, R) whose volume is ``volume``, up to the rounding of R."""
    return ball_window((volume / unit_ball_volume(d)) ** (1.0 / d), d)


def sample_ppp_fresh_generator(window: Window, intensity: float, seed: int) -> PointCloud:
    """sample_ppp's cloud drawn from a new ``substream(seed)``: gen.uniform candidates, np.sum acceptance.

    The draws are the count, then the positions, rejected in chunks from the
    cube [-R, R]^d about the window's zero centre, then the marks, redrawn
    while any is 0.
    """
    expected = intensity * window.volume() if intensity > 0 else 0.0
    gen = substream(seed)
    count = int(gen.poisson(expected))
    d, radius = window.dimension, window.radius
    center = np.zeros(d)
    accept_rate = unit_ball_volume(d) / 2.0**d
    positions = np.empty((count, d))
    filled = 0
    while filled < count:
        need = count - filled
        draw = max(32, int(need / accept_rate * 1.2) + 16)
        cand = gen.uniform(-radius, radius, size=(draw, d))
        good = cand[np.sum((cand - center) ** 2, axis=1) <= radius**2]
        take = min(need, good.shape[0])
        positions[filled : filled + take] = good[:take]
        filled += take
    marks = gen.uniform(0.0, 1.0, size=count)
    while np.any(marks <= 0.0):
        redraw = marks <= 0.0
        marks[redraw] = gen.uniform(0.0, 1.0, size=int(redraw.sum()))
    return PointCloud(window=window, intensity=intensity, positions=positions, marks=marks, seed=seed)
