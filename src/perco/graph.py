"""Random connection graphs on sampled point clouds.

Each unordered pair (i, j) carries a uniform variate keyed by (seed, id_i,
id_j); the edge is present iff that variate falls below the pair's connection
probability.  Because the variate depends on inherited point ids rather than
array order, a thinned sub-cloud reproduces exactly the induced subgraph of
its parent (see the coupling module).

Every path lists pairs and one routine, ``_coins``, draws their coins: the
keyed uniform (``pair_uniforms``) and the base probability (``pairwise_prob``)
of each pair.  The screens keep the pairs whose uniform is below their
probability and return edges only, so every path gives the same edge set:

* ``"exact"``: an O(n^2) sweep over all pairs in row tiles.  Rows i0:i1
  meet columns i0:n as views that broadcast, so nothing is gathered per
  pair, and entries at or below the diagonal are dropped after the screen.
  There is no distance prefilter: beyond a finite connection range the
  probability is exactly 0 and every uniform is positive.
* ``"grid"``: a mark-layered kd-tree search, the layered sampling of
  geometric inhomogeneous random graphs (Bringmann, Keusch & Lengler, TCS
  760, 2019).  Points go into dyadic mark classes, one kd-tree each; every
  pair of classes is searched within the connection range at the two
  classes' smallest marks (``models.pair_range``), which bounds every pair
  between them because connection probability does not increase with a
  mark.  A mark-independent range uses a single class.  The search only
  lists candidates; their coins decide each edge, so sampling stays exact
  and thinning still gives induced subgraphs.

``build_graphs`` builds a block of clouds, each with its own seed, and
``build_graph`` is its one-cloud case.  Two or more clouds on the exact path
that fit in one tile (at most ``_TILE_ROWS`` points) share one screen: their
within-cloud pairs are listed by index arithmetic over the concatenated
points, and each pair keeps its own cloud's seed and ids, so every edge is
the one a tile would give.  Larger clouds keep their own sweep or search.

A generalized model's damping factor is applied once per cloud to the edges
that pass the base screen on any path (``_damped``), which draws those edges'
coins again: the coins are keyed, so they are the ones the screen compared.

``"auto"`` takes ``"grid"`` above 2000 points when every pair of marks has a
finite range: boolean models (Pareto radii included) and indicator or custom
profiles under any kernel.  Polynomial profiles keep the exact sweep: every
pair connects with positive probability and is decided by its own keyed
uniform, so no exact sampler can skip a pair without evaluating it.  Both
paths are deterministic and thread-schedule independent.

Connectivity has one routine, ``_meeting_level``: a union-find over the edge
array, in order of edge level, with each endpoint set collapsed into one
super-node (Newman & Ziff, PRL 85, 2000).  It answers both plain region
connectivity, restricted to the paths through a vertex set, and the
bottleneck level over vertex weights that the crossing thresholds
(``events.EventSpec.thresholds_many``) need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigurationError, ResourceError
from .models import ModelSpec, max_range, pair_range, pairwise_prob
from .ppp import PointCloud, in_closed_ball
from .rng import _MASK64, pair_uniforms

DEFAULT_PAIR_BUDGET = 200_000_000  # the pair cap: pair evaluations or candidates one build may take, read per call
_CHUNK = 2_000_000  # kd-tree candidate block size, bounds peak memory
_TILE_ROWS = 32  # rows per tile of the exact sweep
_MERGE_BLOCK = 256  # edges converted to Python ints at a time by _meeting_level
# kd-tree ranges are widened by this relative margin so that rounding at a
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
        if self.center.size != positions.shape[1]:
            raise ConfigurationError(f"region center has {self.center.size} coordinates, not {positions.shape[1]}")
        inside = in_closed_ball(positions, self.center, self.radius)
        return inside if self.kind == "ball" else ~inside


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


def _coins(coords, marks, ids, model, seed, a, b):
    """The keyed uniforms and base connection probabilities of the pairs (a, b), in their broadcast shape.

    ``coords`` is (d, n); ``seed`` is one int or one per pair.  ``a`` and ``b``
    are equal-shape index arrays of listed pairs, or a tile's row and column
    slices ``np.s_[i0:i1, None]`` and ``np.s_[None, i0:]``, whose views broadcast.
    """
    dists = np.sqrt(_sum_squares([x[a] - x[b] for x in coords]))
    return pair_uniforms(seed, ids[a], ids[b]), pairwise_prob(model, marks[a], marks[b], dists)


def _damped(model: ModelSpec, cloud: PointCloud, seed: int, edges: np.ndarray) -> np.ndarray:
    """The base-kept edges that survive the generalized damping factor, their coins drawn again.

    Damping only lowers probabilities, so the base screen is a superset.
    """
    pos = cloud.positions
    ii, jj = edges[:, 0], edges[:, 1]
    u, probs = _coins(pos.T, cloud.marks, cloud.ids, model, seed, ii, jj)
    mids = 0.5 * (pos[ii] + pos[jj])
    hits = cKDTree(mids).sparse_distance_matrix(cKDTree(pos), model.damping_radius, output_type="ndarray")
    # the pair's own endpoints are dropped by index: recomputing the tree's
    # distance test can round the other way at ties
    own = (hits["j"] == ii[hits["i"]]) | (hits["j"] == jj[hits["i"]])
    ctx = np.bincount(hits["i"][~own], minlength=ii.size)
    return edges[u < probs * model.damping_factor**ctx]


def _screen_pairs(coords, marks, ids, model, seed, ii, jj):
    """The listed pairs (ii, jj) that pass the base screen; arguments as for ``_coins``."""
    u, probs = _coins(coords, marks, ids, model, seed, ii, jj)
    keep = u < probs
    return ii[keep], jj[keep]


def _bounded(model: ModelSpec) -> bool:
    """Whether every pair of marks has a finite connection range; it does iff one pair has."""
    return math.isfinite(pair_range(model, 0.5, 0.5))


def _sum_squares(diffs: list) -> np.ndarray:
    """Squared distances from per-coordinate differences, each squared in place.

    The coordinate terms are added in the order numpy's ``np.sum(diff * diff,
    axis=1)`` adds them, so every entry is bit-identical to it: left to right
    below 8 coordinates, pairwise at 8.
    """
    terms = [np.multiply(t, t, out=t) for t in diffs]
    if len(terms) == 8:
        return ((terms[0] + terms[1]) + (terms[2] + terms[3])) + ((terms[4] + terms[5]) + (terms[6] + terms[7]))
    total = terms[0]
    for t in terms[1:]:
        total += t
    return total


def _check_pair_budget(n: int) -> None:
    total = n * (n - 1) // 2
    if total > DEFAULT_PAIR_BUDGET:
        raise ResourceError(
            f"exact pair sweep needs {total} pair evaluations, the pair cap DEFAULT_PAIR_BUDGET is "
            f"{DEFAULT_PAIR_BUDGET}; shrink the window or lower the intensity"
        )


def _sweep_tiles(cloud: PointCloud, model: ModelSpec, seed: int):
    """The exact sweep: pairs (i < j) that pass the base screen, one tile of _TILE_ROWS rows at a time.

    Tile rows i0:i0+_TILE_ROWS meet columns i0:n as views that broadcast, so
    every pair i < j is in exactly one tile and nothing is gathered per pair;
    the entries at or below the diagonal are evaluated and then dropped.
    """
    n = len(cloud)
    _check_pair_budget(n)
    coords = np.ascontiguousarray(cloud.positions.T)
    for i0 in range(0, n - 1, _TILE_ROWS):
        rows, cols = np.s_[i0 : i0 + _TILE_ROWS, None], np.s_[None, i0:]
        u, probs = _coins(coords, cloud.marks, cloud.ids, model, seed, rows, cols)
        r, c = np.nonzero(u < probs)
        upper = c > r
        yield r[upper] + i0, c[upper] + i0


def _layered_blocks(cloud: PointCloud, model: ModelSpec):
    """Candidate pairs (i < j) from one kd-tree per dyadic mark class.

    Class k holds the marks in [2^-(k+1), 2^-k).  The connection range does
    not grow with the marks, so the range at the two classes' smallest marks
    covers every pair between them.  A mark-independent (finite) range,
    ``max_range``, puts every point in one class.
    """
    n = len(cloud)
    if n < 2:
        return
    pos = cloud.positions
    cutoff = max_range(model)
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
    if n * (n - 1) // 2 > DEFAULT_PAIR_BUDGET:  # otherwise no count can exceed the cap
        n_candidates = 0
        for a, b in links:
            found = int(trees[a].count_neighbors(trees[b], ranges[a, b]))
            n_candidates += found if a != b else (found - members[a].size) // 2
        if n_candidates > DEFAULT_PAIR_BUDGET:
            raise ResourceError(
                f"range search finds {n_candidates} candidate pairs, the pair cap DEFAULT_PAIR_BUDGET is "
                f"{DEFAULT_PAIR_BUDGET}; shrink the window or lower the intensity"
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


def _screen_shared(clouds: list, model: ModelSpec, seeds: list) -> list:
    """The exact screen of clouds that each fit in one tile, run once over all of them.

    The clouds are concatenated and every within-cloud pair i < j is listed by
    index arithmetic, row by row, so each cloud's kept pairs come out in
    lexicographic order.  Every pair keeps its own cloud's seed and ids, and
    ``_screen_pairs`` evaluates it exactly as a tile would.  Returns each
    cloud's edges, in its own indexing.
    """
    sizes = np.array([len(cloud) for cloud in clouds], dtype=np.int64)
    for n in sizes.tolist():
        _check_pair_budget(n)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    owner = np.repeat(np.arange(len(clouds)), sizes)  # the cloud of each point
    row = ends[owner] - np.arange(ends[-1]) - 1  # partners after each point in its cloud
    ii = np.repeat(np.arange(ends[-1]), row)
    row_start = np.cumsum(row) - row
    jj = ii + 1 + np.arange(ii.size) - np.repeat(row_start, row)
    cloud_seeds = np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)  # mix's own reduction
    pair_seeds = np.repeat(cloud_seeds, sizes * (sizes - 1) // 2)
    coords = np.ascontiguousarray(np.concatenate([cloud.positions for cloud in clouds]).T)
    marks = np.concatenate([cloud.marks for cloud in clouds])
    ids = np.concatenate([cloud.ids for cloud in clouds])
    ii, jj = _screen_pairs(coords, marks, ids, model, pair_seeds, ii, jj)
    cut = np.searchsorted(ii, ends).tolist()  # kept pairs stay grouped by cloud
    edges = np.stack([ii, jj], axis=1) - starts[owner[ii]][:, None]
    return [edges[a:b] for a, b in zip([0, *cut[:-1]], cut)]


def _screen_alone(cloud: PointCloud, model: ModelSpec, seed: int, method: str) -> np.ndarray:
    """One cloud's base-screened edges, in lexicographic order.

    The tile sweep yields its pairs in that order; the kd-tree candidates
    are screened and then sorted.
    """
    if method == "exact":
        screened = _sweep_tiles(cloud, model, seed)
    else:
        coords = np.ascontiguousarray(cloud.positions.T)
        screened = (
            _screen_pairs(coords, cloud.marks, cloud.ids, model, seed, ii, jj)
            for ii, jj in _layered_blocks(cloud, model)
        )
    edges = np.concatenate([np.empty((0, 2), dtype=np.int64), *(np.stack(pair, axis=1) for pair in screened)])
    if method != "exact":
        # pairs are distinct with i < j < n, so i * n + j orders them lexicographically
        edges = edges[np.argsort(edges[:, 0] * len(cloud) + edges[:, 1])]
    return edges


def build_graphs(clouds, model: ModelSpec, seeds, method: str = "auto") -> list:
    """Build the connection graph of each cloud with its own seed; one GeomGraph per cloud, in order.

    Each graph is exactly ``build_graph(cloud, model, seed, method)``.  Two
    or more clouds on the exact path that each fit in one tile (at most
    _TILE_ROWS points) share one screen over their within-cloud pairs, which
    spares small replicates the per-call cost of a sweep each; other clouds
    keep their own tile sweep or kd-tree search.
    Damping is applied per cloud, since another cloud's points are no
    context.
    """
    if method not in ("auto", "exact", "grid"):
        raise ConfigurationError(f"unknown build method {method!r}")
    clouds, seeds = list(clouds), list(seeds)
    if len(clouds) != len(seeds):
        raise ConfigurationError("build_graphs needs one seed per cloud")
    paths = [_build_path(cloud, model, method) for cloud in clouds]
    # a lone small cloud is one tile, which costs less than listing its pairs
    shared = [k for k, path in enumerate(paths) if path == "exact" and len(clouds[k]) <= _TILE_ROWS]
    screens = {}
    if len(shared) > 1:
        together = _screen_shared([clouds[k] for k in shared], model, [seeds[k] for k in shared])
        screens = dict(zip(shared, together))
    graphs = []
    for k, (cloud, seed, path) in enumerate(zip(clouds, seeds, paths)):
        edges = screens.pop(k) if k in screens else _screen_alone(cloud, model, seed, path)
        if model.variant == "generalized" and edges.size:
            edges = _damped(model, cloud, seed, edges)
        graphs.append(GeomGraph(cloud=cloud, seed=seed, edges=edges))
    return graphs


def _build_path(cloud: PointCloud, model: ModelSpec, method: str) -> str:
    """The build method a cloud takes, "exact" or "grid", after the checks on model and method."""
    if model.d != cloud.dimension:
        raise ConfigurationError("model dimension does not match cloud dimension")
    if method == "auto":
        method = "grid" if (len(cloud) > 2000 and _bounded(model)) else "exact"
    elif method == "grid" and not _bounded(model):
        raise ConfigurationError(
            "grid enumeration requires a finite connection range for every pair of marks"
        )
    return method


def build_graph(cloud: PointCloud, model: ModelSpec, seed: int, method: str = "auto") -> GeomGraph:
    """Build the connection graph; deterministic given (cloud, model, seed).

    method "exact" screens all pairs, _TILE_ROWS rows of the upper triangle
    at a time, with no distance prefilter.  "grid" enumerates kd-tree candidates
    within each pair of mark classes' connection range; it needs a finite
    range for every pair of marks (boolean models, indicator and custom
    profiles).  "auto" takes "grid" for such models above 2000 points and
    "exact" otherwise.  Both paths give identical edge sets whenever "grid"
    applies.  This is the one-cloud case of ``build_graphs``.
    """
    return build_graphs([cloud], model, [seed], method)[0]


def _meeting_level(n: int, edges: np.ndarray, in_a, in_b, weights=None, through=None) -> float:
    """Least edge level at which an in_a vertex and an in_b vertex share a component; inf if never.

    An edge's level is the larger weight of its two endpoints (0 without
    ``weights``); a vertex in both sets meets at its own weight.  Given
    ``through``, only edges with both ends in it count (in_a and in_b must
    lie in it): the one restricted-edge filter.  Edges are merged in order of
    level, with each set collapsed into one super-node, so the result is the
    bottleneck, over paths from in_a to in_b, of the largest weight on the
    path (Pollack, Oper. Res. 8, 1960).  The super-nodes are vertices 0 and
    1, the others are shifted by 2; a union points the larger root at the
    smaller, so 0 and 1 stay roots until the edge that joins them.
    """
    if not (in_a.any() and in_b.any()):  # common on small windows; skips the edge filter
        return math.inf
    if through is not None:
        edges = edges[through[edges[:, 0]] & through[edges[:, 1]]]
    both = in_a & in_b
    if weights is None:
        if both.any():
            return 0.0
        best, levels = math.inf, None  # every edge has level 0, so their order is free
    else:
        w = np.asarray(weights, dtype=float)
        best = float(w[both].min()) if both.any() else math.inf
        levels = np.maximum(w[edges[:, 0]], w[edges[:, 1]])
        order = np.argsort(levels)  # how ties are ordered cannot change the result
        levels = levels[order]
        below = levels < best
        edges, levels = edges[order[below]], levels[below]
    node = np.arange(2, n + 2)
    node[in_a] = 0
    node[in_b] = 1
    parent = list(range(n + 2))
    # the loop runs on Python ints with the root search inlined, which keeps it
    # fast; the edges are converted a block at a time because most crossings
    # are decided after a small share of them
    for k0 in range(0, edges.shape[0], _MERGE_BLOCK):
        ends = node[edges[k0 : k0 + _MERGE_BLOCK]].T.tolist()
        for k, (a, b) in enumerate(zip(*ends), k0):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a + b == 1:
                return 0.0 if levels is None else float(levels[k])
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
    return _meeting_level(graph.n_vertices, graph.edges, in_a, in_b, through=in_s) < math.inf


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
