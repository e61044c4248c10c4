"""Exact event detection on built graphs, plus the window policy.

Events at scale r:

* long edge: some edge with an endpoint at |x| < r and length > c*r.
* crossing: the ball B(0,r) connects to the complement of B(0,2r).
* local crossing: the same crossing around a center x, using only vertices
  inside B(x,3r) (no dependence on anything farther away, hence no
  truncation bias).
* renorm long edge: an edge with an endpoint in B(0,20r) and length > r;
  identical to the long-edge event at (20r, 1/20).

Each kind has one evaluator, ``EventSpec.evaluate_many``, which decides the
event on every graph of a block of replicates at once; ``EventSpec.evaluate``
and the ``*_event`` functions are its one-graph case.

``crossing_threshold`` reduces a graph whose vertices carry retention
uniforms to the level at which the crossing first holds on the retained
vertices, so one build answers the crossing at every thinning of its cloud.
It runs the same union-find as the crossing events, with the uniforms as
vertex weights.

Windows are balls with an additive safety margin; evaluating an event on a
graph whose window is too small raises WindowCoverageError rather than
silently returning a biased answer.  Truncation (edges to points beyond any
finite window) biases probabilities downward; the estimators module reports a
Campbell-formula bound on the expected number of such edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, WindowCoverageError
from .graph import GeomGraph, _meeting_level, ball_region, complement_region
from .ppp import Window, ball_window, unit_ball_volume

WINDOW_MARGIN = 0.05

LONG_EDGE = "long_edge"
CROSSING = "crossing"
LOCAL_CROSSING = "local_crossing"
RENORM_LONG_EDGE = "renorm_long_edge"

_KINDS = (LONG_EDGE, CROSSING, LOCAL_CROSSING, RENORM_LONG_EDGE)


@dataclass(frozen=True)
class EventSpec:
    """An event kind with its scale r, length ratio c, and optional center."""

    kind: str
    r: float
    c: float = 1.0
    center: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown event kind {self.kind!r}")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ConfigurationError(f"event scale r must be positive, got {self.r}")
        if self.kind == LONG_EDGE and not (self.c > 0 and math.isfinite(self.c)):
            raise ConfigurationError(f"length ratio c must be positive, got {self.c}")
        if self.center is not None:
            center = np.atleast_1d(np.asarray(self.center, dtype=float))
            center.flags.writeable = False
            object.__setattr__(self, "center", center)

    def window(self, d: int, margin: float = WINDOW_MARGIN) -> Window:
        """Simulation window implied by the policy for this event."""
        if self.kind == LONG_EDGE:
            return long_edge_window(1.0, self.c, self.r, d, margin)
        if self.kind == CROSSING:
            radius = (2.0 + margin) * self.r
        elif self.kind == LOCAL_CROSSING:
            shift = float(np.linalg.norm(self.center)) if self.center is not None else 0.0
            radius = shift + (3.0 + margin) * self.r
        else:
            radius = (21.0 + margin) * self.r
        return ball_window(radius, d=d)

    def truncation_radius(self) -> float:
        """Radius of the ball whose edges to the window exterior can bias the event.

        Zero means the event is decided entirely inside its policy window
        (the local crossing reads only B(x,3r), which the window contains).
        """
        if self.kind == LONG_EDGE:
            return self.r
        if self.kind == CROSSING:
            return 2.0 * self.r
        if self.kind == LOCAL_CROSSING:
            return 0.0
        return 20.0 * self.r

    def evaluate(self, graph: GeomGraph) -> bool:
        """The event on one graph: the one-graph case of ``evaluate_many``."""
        return bool(self.evaluate_many([graph])[0])

    def evaluate_many(self, graphs) -> np.ndarray:
        """The event on each graph of a block, as a bool array in the graphs' order.

        Region masks and edge tests run once over the block's concatenated
        points and edges; a crossing then runs ``graph._meeting_level`` on
        each graph whose two endpoint sets are both nonempty.
        """
        graphs = list(graphs)
        if not graphs:
            return np.zeros(0, dtype=bool)
        block = _Block(graphs)
        if self.kind == LONG_EDGE:
            _require_ball(block.windows, block.origin, (1.0 + self.c) * self.r, "long-edge event")
            near = np.sum(block.positions**2, axis=1) < self.r * self.r
            e = block.edges[block.edge_lengths() > self.c * self.r]
            return block.any_edge(e[near[e[:, 0]] | near[e[:, 1]]])
        if self.kind == RENORM_LONG_EDGE:
            # endpoint-first, so its identity with the (20r, 1/20) long-edge event is a real cross-check
            _require_ball(block.windows, block.origin, 21.0 * self.r, "renorm long-edge event")
            near = np.sum(block.positions**2, axis=1) < (20.0 * self.r) ** 2
            e = block.edges[near[block.edges[:, 0]] | near[block.edges[:, 1]]]
            diff = block.positions[e[:, 0]] - block.positions[e[:, 1]]
            return block.any_edge(e[np.sum(diff * diff, axis=1) > self.r * self.r])
        if self.kind == CROSSING:
            _require_ball(block.windows, block.origin, 2.0 * self.r, "crossing event")
            _require_exterior(block.windows, 2.0 * self.r, "crossing event")
            in_a = ball_region(block.origin, self.r).contains(block.positions)
            in_b = complement_region(block.origin, 2.0 * self.r).contains(block.positions)
            return block.meet(in_a, in_b)
        center = block.origin if self.center is None else self.center
        _require_ball(block.windows, center, 3.0 * self.r, "local crossing event")
        in_s = ball_region(center, 3.0 * self.r).contains(block.positions)
        in_a = ball_region(center, self.r).contains(block.positions) & in_s
        in_b = complement_region(center, 2.0 * self.r).contains(block.positions) & in_s
        return block.meet(in_a, in_b, through=in_s)


class _Block:
    """The graphs of a block of replicates, with their points and edges concatenated."""

    def __init__(self, graphs: list):
        self.graphs = graphs
        self.windows = list({id(g.cloud.window): g.cloud.window for g in graphs}.values())
        self.origin = np.zeros(graphs[0].cloud.dimension)
        sizes = np.array([g.n_vertices for g in graphs])
        self.ends = np.cumsum(sizes)
        self.starts = self.ends - sizes
        self.owner = np.repeat(np.arange(len(graphs)), sizes)  # the graph of each point
        self.positions = np.concatenate([g.cloud.positions for g in graphs])

    @cached_property
    def edges(self) -> np.ndarray:
        """Every graph's edges in block indexing; only the long-edge kinds need them."""
        n_edges = [g.n_edges for g in self.graphs]
        return np.concatenate([g.edges for g in self.graphs]) + np.repeat(self.starts, n_edges)[:, None]

    def edge_lengths(self) -> np.ndarray:
        diff = self.positions[self.edges[:, 0]] - self.positions[self.edges[:, 1]]
        return np.sqrt(np.sum(diff * diff, axis=1))

    def _any(self, points: np.ndarray) -> np.ndarray:
        """Which graphs own at least one of ``points`` (block indices)."""
        return np.bincount(self.owner[points], minlength=len(self.graphs)) > 0

    def any_edge(self, edges: np.ndarray) -> np.ndarray:
        """Which graphs hold at least one of ``edges`` (block indexing)."""
        return self._any(edges[:, 0])

    def meet(self, in_a: np.ndarray, in_b: np.ndarray, through: np.ndarray | None = None) -> np.ndarray:
        """Which graphs join an in_a vertex to an in_b vertex, using only ``through`` vertices if given."""
        out = np.zeros(len(self.graphs), dtype=bool)
        starts, ends = self.starts.tolist(), self.ends.tolist()
        for k in np.flatnonzero(self._any(in_a) & self._any(in_b)).tolist():
            g, lo, hi = self.graphs[k], starts[k], ends[k]
            e = g.edges
            if through is not None:
                keep = through[lo:hi]
                e = e[keep[e[:, 0]] & keep[e[:, 1]]]
            out[k] = _meeting_level(g.n_vertices, e, in_a[lo:hi], in_b[lo:hi]) < math.inf
        return out


def long_edge_spec(r: float, c: float) -> EventSpec:
    return EventSpec(kind=LONG_EDGE, r=r, c=c)


def crossing_spec(r: float) -> EventSpec:
    return EventSpec(kind=CROSSING, r=r)


def local_crossing_spec(r: float, center=None) -> EventSpec:
    return EventSpec(kind=LOCAL_CROSSING, r=r, center=center)


def renorm_long_edge_spec(r: float) -> EventSpec:
    return EventSpec(kind=RENORM_LONG_EDGE, r=r)


def _require_ball(windows, center, radius: float, what: str) -> None:
    for window in windows:
        if not window.contains_ball(center, radius):
            raise WindowCoverageError(
                f"{what} needs the window to contain the ball of radius {radius:g} "
                f"around {np.asarray(center).tolist()}; the cloud's window is too small"
            )


def _require_exterior(windows, radius: float, what: str) -> None:
    for window in windows:
        if window.volume() <= unit_ball_volume(window.dimension) * radius**window.dimension * (1 + 1e-12):
            raise WindowCoverageError(
                f"{what} needs window volume beyond the ball of radius {radius:g}; "
                "the complement region would be empty"
            )


def long_edge_event(graph: GeomGraph, r: float, c: float) -> bool:
    """Some edge has an endpoint with |x| < r and length > c*r."""
    return long_edge_spec(r, c).evaluate(graph)


def long_edge_ends(graph: GeomGraph, length: float) -> np.ndarray:
    """Positions of both endpoints of every edge longer than ``length``, one per row."""
    return graph.cloud.positions[graph.edges[graph.edge_lengths() > length].reshape(-1)]


def long_edge_within(ends: np.ndarray, center: np.ndarray, r: float, closed: bool = False) -> bool:
    """Some long-edge endpoint (a row of ``long_edge_ends``) lies within r of center.

    The ball is open unless ``closed``; the caller checks window coverage.
    """
    if ends.size == 0:
        return False
    d2 = np.sum((ends - center) ** 2, axis=1)
    return bool(np.any(d2 <= r * r)) if closed else bool(np.any(d2 < r * r))


def long_edge_window(reach: float, c: float, r: float, d: int, margin: float = WINDOW_MARGIN) -> Window:
    """Window for edges longer than c*r with an endpoint within reach*r of the origin: radius (reach + c + margin)*r."""
    return ball_window((reach + c + margin) * r, d=d)


def crossing_event(graph: GeomGraph, r: float) -> bool:
    """B(0,r) connects to the window part of the complement of B(0,2r)."""
    return crossing_spec(r).evaluate(graph)


def crossing_threshold(graph: GeomGraph, r: float, weights: np.ndarray) -> float:
    """Least t such that the crossing holds on the vertices weighted below s, for every s > t.

    Vertex i carries ``weights[i]``.  The crossing event holds on the subgraph
    induced by {i : weights[i] < s} exactly when the result is below s: the
    result is the bottleneck, over paths from B(0,r) to outside B(0,2r), of
    the largest weight on the path (Pollack 1960), found by the union-find that
    decides every crossing (``graph._meeting_level``).  It is inf when no path
    exists.  The window checks are those of crossing_event.
    """
    origin = np.zeros(graph.cloud.dimension)
    _require_ball([graph.cloud.window], origin, 2.0 * r, "crossing event")
    _require_exterior([graph.cloud.window], 2.0 * r, "crossing event")
    pos = graph.cloud.positions
    in_a = ball_region(origin, r).contains(pos)
    in_b = complement_region(origin, 2.0 * r).contains(pos)
    return _meeting_level(graph.n_vertices, graph.edges, in_a, in_b, weights)


def local_crossing_event(graph: GeomGraph, r: float, center=None) -> bool:
    """Crossing around ``center`` using only vertices within B(center, 3r)."""
    return local_crossing_spec(r, center).evaluate(graph)


def renorm_long_edge_event(graph: GeomGraph, r: float) -> bool:
    """Some edge has an endpoint in B(0, 20r) and length > r.

    Implemented endpoint-first (not by delegating to the long-edge event) so
    the identity with the (20r, 1/20) long-edge event is a meaningful
    cross-check.
    """
    return renorm_long_edge_spec(r).evaluate(graph)
