"""Random connection graphs on sampled point clouds.

Each unordered pair (i, j) carries a uniform variate keyed by (seed, id_i,
id_j); the edge is present iff that variate falls below the pair's connection
probability.  Because the variate depends on inherited point ids rather than
array order, a thinned sub-cloud reproduces exactly the induced subgraph of
its parent (see the coupling module).

Two candidate enumerations feed the same pair screen, so they produce
identical edge sets:

* ``"exact"``: a blocked O(n^2) sweep over all pairs.
* ``"grid"``: a mark-layered kd-tree search, the layered sampling of
  geometric inhomogeneous random graphs (Bringmann, Keusch & Lengler, TCS
  760, 2019).  Points go into dyadic mark classes, one kd-tree each; every
  pair of classes is searched within the connection range at the two
  classes' smallest marks (``models.pair_range``), which bounds every pair
  between them because connection probability does not increase with a
  mark.  A mark-independent range uses a single class.  The search only
  enumerates candidates; the keyed uniforms decide each edge, so sampling
  stays exact and thinning still gives induced subgraphs.

``"auto"`` takes ``"grid"`` above 2000 points when every pair of marks has a
finite range: boolean models (Pareto radii included) and indicator or custom
profiles under any kernel.  Polynomial profiles keep the exact sweep: every
pair connects with positive probability and is decided by its own keyed
uniform, so no exact sampler can skip a pair without evaluating it.  Both
paths are deterministic and thread-schedule independent.

Connectivity has one routine, ``_meeting_level``: a union-find over the edge
array, in order of edge level, with each endpoint set collapsed into one
super-node (Newman & Ziff, PRL 85, 2000).  It answers both plain region
connectivity and the bottleneck level over vertex weights that
``events.crossing_threshold`` needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigurationError, ResourceError
from .models import ModelSpec, max_range, pair_range, pairwise_prob
from .ppp import PointCloud
from .rng import pair_uniforms

DEFAULT_PAIR_BUDGET = 200_000_000
_CHUNK = 2_000_000  # pair-array block size, bounds peak memory
# candidate ranges are widened by this relative margin so that rounding at a
# tie never drops a pair; _screen_pairs decides every candidate exactly
_RANGE_PAD = 1e-9


@dataclass(frozen=True)
class Region:
    """A ball, or the complement of a ball, used as a connectivity endpoint set."""

    kind: str  # "ball" | "ball_complement"
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.kind not in ("ball", "ball_complement"):
            raise ConfigurationError(f"unknown region kind {self.kind!r}")
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if self.radius <= 0 or not math.isfinite(self.radius):
            raise ConfigurationError(f"region radius must be positive, got {self.radius}")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    def contains(self, positions: np.ndarray) -> np.ndarray:
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        d2 = np.sum((positions - self.center) ** 2, axis=1)
        if self.kind == "ball":
            return d2 <= self.radius**2
        return d2 > self.radius**2


def ball_region(center, radius: float) -> Region:
    return Region(kind="ball", center=center, radius=radius)


def complement_region(center, radius: float) -> Region:
    """Everything strictly outside the closed ball (within the window)."""
    return Region(kind="ball_complement", center=center, radius=radius)


@dataclass(frozen=True)
class GeomGraph:
    """Immutable graph on a cloud: the points and the sorted, read-only edge array."""

    cloud: PointCloud
    seed: int
    edges: np.ndarray  # (m, 2) int64, i < j, lexicographically sorted

    def __post_init__(self):
        self.edges.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return len(self.cloud)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def edge_lengths(self) -> np.ndarray:
        pos = self.cloud.positions
        if self.n_edges == 0:
            return np.empty(0)
        diff = pos[self.edges[:, 0]] - pos[self.edges[:, 1]]
        return np.sqrt(np.sum(diff * diff, axis=1))


def _finalize_graph(cloud: PointCloud, seed: int, ii: np.ndarray, jj: np.ndarray) -> GeomGraph:
    ii = ii.astype(np.int64, copy=False)
    jj = jj.astype(np.int64, copy=False)
    # pairs are distinct with i < j < n, so i * n + j orders them lexicographically
    order = np.argsort(ii * len(cloud) + jj)
    return GeomGraph(cloud=cloud, seed=seed, edges=np.stack([ii[order], jj[order]], axis=1))


def _screen_pairs(cloud, model, seed, ii, jj, context_tree):
    """Resolve candidate pairs to kept edges; exact for every model variant."""
    pos = cloud.positions
    diff = pos[ii] - pos[jj]
    dists = np.sqrt(np.sum(diff * diff, axis=1))
    probs = np.asarray(pairwise_prob(model, cloud.marks[ii], cloud.marks[jj], dists))
    u = pair_uniforms(seed, cloud.ids[ii], cloud.ids[jj])
    keep = u < probs
    if model.variant == "generalized" and np.any(keep):
        # damping only lowers probabilities, so the base screen is a superset
        ki, kj, ku = ii[keep], jj[keep], u[keep]
        mids = 0.5 * (pos[ki] + pos[kj])
        hits = cKDTree(mids).sparse_distance_matrix(context_tree, model.damping_radius, output_type="ndarray")
        # the pair's own endpoints are dropped by index: recomputing the tree's
        # distance test can round the other way at ties
        own = (hits["j"] == ki[hits["i"]]) | (hits["j"] == kj[hits["i"]])
        ctx = np.bincount(hits["i"][~own], minlength=ki.size)
        damped = probs[keep] * model.damping_factor**ctx
        final = ku < damped
        return ki[final], kj[final]
    return ii[keep], jj[keep]


def _bounded(model: ModelSpec) -> bool:
    """Whether every pair of marks has a finite connection range; it does iff one pair has."""
    return math.isfinite(pair_range(model, 0.5, 0.5))


def _sweep_blocks(cloud: PointCloud, cutoff: float, budget: int):
    """Candidate pairs (i < j) of the exact sweep, in row blocks of about _CHUNK pairs.

    A finite ``cutoff`` prefilters each block by distance.
    """
    n = len(cloud)
    total = n * (n - 1) // 2
    if total > budget:
        raise ResourceError(
            f"exact pair sweep needs {total} pair evaluations, budget is {budget}; "
            "shrink the window, lower the intensity, or pass a larger pair_budget to build_graph"
        )
    pos = cloud.positions
    reach2 = (cutoff * (1.0 + _RANGE_PAD)) ** 2
    i0 = 0
    while i0 < n - 1:
        i1 = i0 + max(1, min(n - 1 - i0, _CHUNK // max(1, n - 1 - i0)))
        rows = np.arange(i0, i1)
        counts = n - 1 - rows
        ii = np.repeat(rows, counts)
        # row i's pairs sit at block offsets s_i .. s_i + counts_i - 1 with
        # s_i = cumsum(counts)_i - counts_i, and the pair at offset k has j = i + 1 + k - s_i
        jj = np.arange(ii.size) - np.repeat(np.cumsum(counts) - counts - rows - 1, counts)
        if math.isfinite(cutoff):
            diff = pos[ii] - pos[jj]
            near = np.sum(diff * diff, axis=1) <= reach2
            ii, jj = ii[near], jj[near]
        yield ii, jj
        i0 = i1


def _layered_blocks(cloud: PointCloud, model: ModelSpec, cutoff: float, budget: int):
    """Candidate pairs (i < j) from one kd-tree per dyadic mark class.

    Class k holds the marks in [2^-(k+1), 2^-k).  The connection range does
    not grow with the marks, so the range at the two classes' smallest marks
    covers every pair between them.  A mark-independent (finite) ``cutoff``
    puts every point in one class.
    """
    n = len(cloud)
    if n < 2:
        return
    pos = cloud.positions
    if math.isfinite(cutoff):
        klass = np.zeros(n, dtype=np.int64)
        ranges = np.array([[cutoff]])
    else:
        klass = -np.frexp(cloud.marks)[1].astype(np.int64)
        lowest = np.ldexp(1.0, -(np.unique(klass) + 1))
        ranges = pair_range(model, lowest[:, None], lowest[None, :])
    ranges = ranges * (1.0 + _RANGE_PAD)
    order = np.argsort(klass, kind="stable")
    starts = np.flatnonzero(np.diff(klass[order])) + 1
    members = np.split(order, starts)
    trees = [cKDTree(pos[m]) for m in members]
    links = [(a, b) for a in range(len(members)) for b in range(a, len(members))]
    if n * (n - 1) // 2 > budget:  # otherwise no count can exceed the budget
        n_candidates = 0
        for a, b in links:
            found = int(trees[a].count_neighbors(trees[b], ranges[a, b]))
            n_candidates += found if a != b else (found - members[a].size) // 2
        if n_candidates > budget:
            raise ResourceError(
                f"range search finds {n_candidates} candidate pairs, budget is {budget}; "
                "shrink the window, lower the intensity, or pass a larger pair_budget to build_graph"
            )
    # class pairs are gathered into blocks of about _CHUNK pairs, so the
    # screen runs a few times per build rather than once per class pair
    pending_i, pending_j, size = [], [], 0
    for a, b in links:
        if a == b:
            local = trees[a].query_pairs(ranges[a, a], output_type="ndarray")
            ii, jj = members[a][local[:, 0]], members[a][local[:, 1]]
        else:
            hits = trees[a].sparse_distance_matrix(trees[b], ranges[a, b], output_type="ndarray")
            ii, jj = members[a][hits["i"]], members[b][hits["j"]]
        pending_i.append(np.minimum(ii, jj))
        pending_j.append(np.maximum(ii, jj))
        size += ii.size
        if size >= _CHUNK or (a, b) == links[-1]:
            ii, jj = np.concatenate(pending_i), np.concatenate(pending_j)
            for k0 in range(0, ii.size, _CHUNK):
                yield ii[k0 : k0 + _CHUNK], jj[k0 : k0 + _CHUNK]
            pending_i, pending_j, size = [], [], 0


def build_graph(
    cloud: PointCloud,
    model: ModelSpec,
    seed: int,
    method: str = "auto",
    pair_budget: int | None = None,
) -> GeomGraph:
    """Build the connection graph; deterministic given (cloud, model, seed).

    method "exact" sweeps all pairs.  "grid" enumerates kd-tree candidates
    within each pair of mark classes' connection range; it needs a finite
    range for every pair of marks (boolean models, indicator and custom
    profiles).  "auto" takes "grid" for such models above 2000 points and
    "exact" otherwise.  Both paths give identical edge sets whenever "grid"
    applies.
    """
    if model.d != cloud.dimension:
        raise ConfigurationError("model dimension does not match cloud dimension")
    if method not in ("auto", "exact", "grid"):
        raise ConfigurationError(f"unknown build method {method!r}")
    budget = DEFAULT_PAIR_BUDGET if pair_budget is None else int(pair_budget)
    n = len(cloud)
    if method == "auto":
        method = "grid" if (n > 2000 and _bounded(model)) else "exact"
    elif method == "grid" and not _bounded(model):
        raise ConfigurationError(
            "grid enumeration requires a finite connection range for every pair of marks"
        )

    cutoff = max_range(model)
    if method == "exact":
        blocks = _sweep_blocks(cloud, cutoff, budget)
    else:
        blocks = _layered_blocks(cloud, model, cutoff, budget)
    context_tree = None
    if model.variant == "generalized" and n:
        context_tree = cKDTree(cloud.positions)

    kept_i: list[np.ndarray] = []
    kept_j: list[np.ndarray] = []
    for ii, jj in blocks:
        if ii.size:
            ki, kj = _screen_pairs(cloud, model, seed, ii, jj, context_tree)
            kept_i.append(ki)
            kept_j.append(kj)
    ii = np.concatenate(kept_i) if kept_i else np.empty(0, dtype=np.int64)
    jj = np.concatenate(kept_j) if kept_j else np.empty(0, dtype=np.int64)
    return _finalize_graph(cloud, seed, ii, jj)


def _meeting_level(n: int, edges: np.ndarray, in_a: np.ndarray, in_b: np.ndarray, weights=None) -> float:
    """Least edge level at which an in_a vertex and an in_b vertex share a component; inf if never.

    An edge's level is the larger weight of its two endpoints (0 without
    ``weights``); a vertex in both sets meets at its own weight.  Edges are
    merged in order of level, with each set collapsed into one super-node, so
    the result is the bottleneck, over paths from in_a to in_b, of the largest
    weight on the path (Pollack, Oper. Res. 8, 1960).  The super-nodes are
    vertices 0 and 1, the others are shifted by 2; a union points the larger
    root at the smaller, so 0 and 1 stay roots until the edge that joins them.
    """
    if not (in_a.any() and in_b.any()):
        return math.inf
    w = np.zeros(n) if weights is None else np.asarray(weights, dtype=float)
    both = in_a & in_b
    best = float(w[both].min()) if both.any() else math.inf
    levels = np.maximum(w[edges[:, 0]], w[edges[:, 1]])
    order = np.argsort(levels)  # how ties are ordered cannot change the result
    order = order[levels[order] < best]
    node = np.arange(2, n + 2)
    node[in_a] = 0
    node[in_b] = 1
    parent = list(range(n + 2))
    # the loop runs on Python ints with the root search inlined, which keeps it fast
    for k, (a, b) in enumerate(zip(*node[edges.take(order, axis=0)].T.tolist())):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a + b == 1:
            return float(levels[order[k]])
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    return best


def connected_regions(graph: GeomGraph, region_a: Region, region_b: Region) -> bool:
    """Whether some component holds a vertex in each region."""
    pos = graph.cloud.positions
    in_a = region_a.contains(pos)
    in_b = region_b.contains(pos)
    return _meeting_level(graph.n_vertices, graph.edges, in_a, in_b) < math.inf


def connected_regions_restricted(
    graph: GeomGraph, region_a: Region, region_b: Region, through: Region
) -> bool:
    """Whether a path from region_a to region_b exists using only vertices in ``through``.

    Only edges with both endpoints in ``through`` count; vertices outside it
    are then isolated and belong to neither region.
    """
    pos = graph.cloud.positions
    in_s = through.contains(pos)
    in_a = region_a.contains(pos) & in_s
    in_b = region_b.contains(pos) & in_s
    if not (in_a.any() and in_b.any()):  # common on small windows; skips the edge filter
        return False
    e = graph.edges
    return _meeting_level(graph.n_vertices, e[in_s[e[:, 0]] & in_s[e[:, 1]]], in_a, in_b) < math.inf


def dump_graph(graph: GeomGraph, stream) -> None:
    """Plain-text dump: a point table then one edge per line.

    Header documents the columns; floats carry 17 significant digits so the
    dump round-trips bit-exactly.
    """
    d = graph.cloud.dimension
    stream.write("# geometric graph dump\n")
    stream.write(f"# points {graph.n_vertices} dim {d} (columns: index, {d} coordinates, mark)\n")
    for i in range(graph.n_vertices):
        coords = " ".join(f"{c:.17g}" for c in graph.cloud.positions[i])
        stream.write(f"{i} {coords} {graph.cloud.marks[i]:.17g}\n")
    stream.write(f"# edges {graph.n_edges} (columns: index i, index j)\n")
    for i, j in graph.edges:
        stream.write(f"{i} {j}\n")
