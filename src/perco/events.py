"""Exact event detection on built graphs, plus the window policy.

Events at scale r:

* long edge: some edge with an endpoint at |x| < r and length > c*r.
* crossing: the ball B(0,r) connects to the complement of B(0,2r).
* local crossing: the same crossing around a center x, using only vertices
  inside B(x,3r) (no dependence on anything farther away, hence no
  truncation bias).
* renorm long edge: an edge with an endpoint in B(0,20r) and length > r;
  the long edge with reach 20 and length ratio 1, which is the long-edge
  event at (20r, 1/20).

Two predicates decide every check, each in one routine over a block of
graphs at once.  "A long edge has an end in a ball" is ``long_edge_hits``,
one column per open or closed ball; both long-edge kinds are its one-ball
case, with the reach and length ratio of ``EventSpec._long_edge``.  "A ball
connects to the outside of a larger ball" is ``EventSpec._crossing_levels``:
window checks, endpoint masks and the local crossing's restriction, then
``graph._meeting_level`` per graph.
``evaluate_many`` reads its levels as the event, and ``thresholds_many``
reads them under vertex weights: with retention uniforms as weights, one
build answers the crossing at every thinning of its cloud.  The one-graph
case is ``EventSpec.evaluate``.

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
from .graph import GeomGraph, _meeting_level, _sum_squares
from .ppp import Window, ball_window, in_closed_ball, unit_ball_volume

WINDOW_MARGIN = 0.05
_HIT_CELLS = 1 << 18  # (end, ball) pairs per chunk of long_edge_hits, which bounds its memory

LONG_EDGE = "long_edge"
CROSSING = "crossing"
LOCAL_CROSSING = "local_crossing"
RENORM_LONG_EDGE = "renorm_long_edge"

EVENT_KINDS = (LONG_EDGE, CROSSING, LOCAL_CROSSING, RENORM_LONG_EDGE)
_LONG_EDGE_KINDS = (LONG_EDGE, RENORM_LONG_EDGE)


@dataclass(frozen=True)
class EventSpec:
    """An event kind with its scale r, length ratio c, and optional center."""

    kind: str
    r: float
    c: float = 1.0
    center: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(f"unknown event kind {self.kind!r}")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ConfigurationError(f"event scale r must be positive, got {self.r}")
        if self.kind == LONG_EDGE and not (self.c > 0 and math.isfinite(self.c)):
            raise ConfigurationError(f"length ratio c must be positive, got {self.c}")
        if self.kind != LONG_EDGE and self.c != 1.0:
            raise ConfigurationError(f"only a long-edge event takes a length ratio, not a {self.kind} event")
        if self.center is not None:
            if self.kind != LOCAL_CROSSING:
                raise ConfigurationError(f"only a local crossing takes a center, not a {self.kind} event")
            center = np.atleast_1d(np.asarray(self.center, dtype=float))
            center.flags.writeable = False
            object.__setattr__(self, "center", center)

    def window(self, d: int, margin: float = WINDOW_MARGIN) -> Window:
        """Simulation window implied by the policy for this event."""
        if self.kind in _LONG_EDGE_KINDS:
            return long_edge_window(*self._long_edge(), self.r, d, margin)
        if self.kind == CROSSING:
            return ball_window((2.0 + margin) * self.r, d=d)
        shift = float(np.linalg.norm(self._center(d)))
        return ball_window(shift + (3.0 + margin) * self.r, d=d)

    def truncation_radius(self) -> float:
        """Radius of the ball whose edges to the window exterior can bias the event.

        Zero means the event is decided entirely inside its policy window
        (the local crossing reads only B(x,3r), which the window contains).
        """
        if self.kind in _LONG_EDGE_KINDS:
            return self._long_edge()[0] * self.r
        return 2.0 * self.r if self.kind == CROSSING else 0.0

    def _long_edge(self) -> tuple[float, float]:
        """(reach, c) of a long-edge kind: an edge longer than c*r with an end within reach*r of the origin."""
        return (1.0, self.c) if self.kind == LONG_EDGE else (20.0, 1.0)

    def evaluate(self, graph: GeomGraph) -> bool:
        """The event on one graph: the one-graph case of ``evaluate_many``."""
        return bool(self.evaluate_many([graph])[0])

    def evaluate_many(self, graphs) -> np.ndarray:
        """The event on each graph of a block, as a bool array in the graphs' order.

        Masks and edge tests run once over the block's concatenated points and
        edges; a crossing holds where its meeting level is finite.
        """
        graphs = list(graphs)
        if not graphs:
            return np.zeros(0, dtype=bool)
        block = _Block(graphs)
        if self.kind in _LONG_EDGE_KINDS:
            reach, c = self._long_edge()
            what = "long-edge event" if self.kind == LONG_EDGE else "renorm long-edge event"
            _require_ball(block.windows, block.origin, (reach + c) * self.r, what)
            return block.long_edge_hits(c * self.r, [(block.origin, reach * self.r, False)])[:, 0]
        return self._crossing_levels(block) < math.inf

    def thresholds_many(self, graphs, weights) -> np.ndarray:
        """Each graph's crossing threshold under ``weights``, one array per graph with one weight per vertex.

        The crossing holds on the vertices weighted below s iff the threshold is below s: the bottleneck,
        over the crossing's paths, of the largest weight on the path (Pollack 1960); inf without a path.
        """
        if self.kind not in (CROSSING, LOCAL_CROSSING):
            raise ConfigurationError(f"thresholds are defined for the crossing kinds, not {self.kind!r}")
        graphs, weights = list(graphs), [np.asarray(w, dtype=float) for w in weights]
        if len(weights) != len(graphs) or any(w.shape != (g.n_vertices,) for g, w in zip(graphs, weights)):
            raise ConfigurationError("crossing thresholds need one weight per vertex of each graph")
        if not graphs:
            return np.zeros(0)
        weights = np.concatenate(weights)
        if np.isnan(weights).any():
            raise ConfigurationError("crossing threshold weights must not be NaN")
        return self._crossing_levels(_Block(graphs), weights)

    def _crossing_levels(self, block: _Block, weights=None) -> np.ndarray:
        """Each graph's meeting level of B(x, r) and the outside of B(x, 2r); x and B(x, 3r) for the local kind."""
        if self.kind == CROSSING:
            _require_ball(block.windows, block.origin, 2.0 * self.r, "crossing event")
            _require_exterior(block.windows, 2.0 * self.r, "crossing event")
            in_a = in_closed_ball(block.positions, block.origin, self.r)
            in_b = ~in_closed_ball(block.positions, block.origin, 2.0 * self.r)
            return block.meet(in_a, in_b, weights=weights)
        center = self._center(block.origin.size)
        _require_ball(block.windows, center, 3.0 * self.r, "local crossing event")
        in_s = in_closed_ball(block.positions, center, 3.0 * self.r)
        in_a = in_closed_ball(block.positions, center, self.r) & in_s
        in_b = ~in_closed_ball(block.positions, center, 2.0 * self.r) & in_s
        return block.meet(in_a, in_b, through=in_s, weights=weights)

    def _center(self, d: int) -> np.ndarray:
        """The local crossing's center in R^d; the origin when none was given."""
        if self.center is None:
            return np.zeros(d)
        if self.center.shape != (d,):
            raise ConfigurationError(f"local crossing center needs {d} coordinates, got {self.center.size}")
        return self.center


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

    def _any(self, points: np.ndarray) -> np.ndarray:
        """Which graphs own at least one of ``points`` (block indices)."""
        return np.bincount(self.owner[points], minlength=len(self.graphs)) > 0

    def long_edge_hits(self, length: float, balls) -> np.ndarray:
        """Which graphs have an edge longer than ``length`` with an end in each of one or more balls.

        Per chunk of balls, one (ends, balls) array of squared distances, each entry np.sum((x - c) ** 2)
        bit for bit (``graph._sum_squares`` adds in its order).
        """
        diff = self.positions[self.edges[:, 0]] - self.positions[self.edges[:, 1]]
        ends = np.unique(self.edges[np.sqrt(np.sum(diff * diff, axis=1)) > length])
        coords = self.positions[ends].T
        centers, radii, closed = (np.array(column) for column in zip(*balls))
        hits = np.zeros((len(self.graphs), len(balls)), dtype=bool)
        step = max(1, _HIT_CELLS // max(ends.size, 1))
        for k0 in range(0, len(balls), step):
            part = slice(k0, k0 + step)
            d2 = _sum_squares([np.subtract.outer(x, c[part]) for x, c in zip(coords, centers.T)])
            r2 = radii[part] * radii[part]
            rows, cols = np.nonzero(np.where(closed[part], d2 <= r2, d2 < r2))
            hits[self.owner[ends[rows]], cols + k0] = True
        return hits

    def meet(self, in_a: np.ndarray, in_b: np.ndarray, through=None, weights=None) -> np.ndarray:
        """Each graph's ``graph._meeting_level`` of in_a and in_b; ``through`` and ``weights`` are per point."""
        levels = np.full(len(self.graphs), math.inf)
        starts, ends = self.starts.tolist(), self.ends.tolist()
        for k in np.flatnonzero(self._any(in_a) & self._any(in_b)).tolist():
            g, part = self.graphs[k], slice(starts[k], ends[k])
            w = None if weights is None else weights[part]
            s = None if through is None else through[part]
            levels[k] = _meeting_level(g.n_vertices, g.edges, in_a[part], in_b[part], w, s)
        return levels


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


def long_edge_hits(graphs, length: float, balls) -> np.ndarray:
    """Whether each graph (row) has an edge longer than ``length`` with an end in each ball (column).

    ``balls`` lists (center, radius, closed) triples, open unless ``closed``;
    the caller checks window coverage.
    """
    graphs, balls = list(graphs), [(np.asarray(c, dtype=float), radius, closed) for c, radius, closed in balls]
    if not (graphs and balls):
        return np.zeros((len(graphs), len(balls)), dtype=bool)
    block = _Block(graphs)
    if any(c.shape != block.origin.shape for c, _, _ in balls):
        raise ConfigurationError(f"every ball center needs {block.origin.size} coordinates")
    return block.long_edge_hits(length, balls)


def long_edge_window(reach: float, c: float, r: float, d: int, margin: float = WINDOW_MARGIN) -> Window:
    """Window for edges longer than c*r with an endpoint within reach*r of the origin: radius (reach + c + margin)*r."""
    return ball_window((reach + c + margin) * r, d=d)

