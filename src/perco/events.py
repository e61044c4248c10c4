"""Exact event detection on built graphs, plus the window policy.

Events at scale r:

* long edge: some edge with an endpoint at |x| < r and length > c*r.
* crossing: the ball B(0,r) connects to the complement of B(0,2r).
* local crossing: the same crossing around a center x, using only vertices
  inside B(x,3r) (no dependence on anything farther away, hence no
  truncation bias).
* renorm long edge: an edge with an endpoint in B(0,20r) and length > r;
  identical to the long-edge event at (20r, 1/20).

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

import numpy as np

from .errors import ConfigurationError, WindowCoverageError
from .graph import (
    GeomGraph,
    _meeting_level,
    ball_region,
    complement_region,
    connected_regions,
    connected_regions_restricted,
)
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
            radius = (1.0 + self.c + margin) * self.r
        elif self.kind == CROSSING:
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
        if self.kind == LONG_EDGE:
            return long_edge_event(graph, self.r, self.c)
        if self.kind == CROSSING:
            return crossing_event(graph, self.r)
        if self.kind == LOCAL_CROSSING:
            return local_crossing_event(graph, self.r, center=self.center)
        return renorm_long_edge_event(graph, self.r)


def long_edge_spec(r: float, c: float) -> EventSpec:
    return EventSpec(kind=LONG_EDGE, r=r, c=c)


def crossing_spec(r: float) -> EventSpec:
    return EventSpec(kind=CROSSING, r=r)


def local_crossing_spec(r: float, center=None) -> EventSpec:
    return EventSpec(kind=LOCAL_CROSSING, r=r, center=center)


def renorm_long_edge_spec(r: float) -> EventSpec:
    return EventSpec(kind=RENORM_LONG_EDGE, r=r)


def _require_ball(graph: GeomGraph, center, radius: float, what: str) -> None:
    if center is None:
        center = np.zeros(graph.cloud.dimension)
    if not graph.cloud.window.contains_ball(center, radius):
        raise WindowCoverageError(
            f"{what} needs the window to contain the ball of radius {radius:g} "
            f"around {np.asarray(center).tolist()}; the cloud's window is too small"
        )


def _require_exterior(graph: GeomGraph, radius: float, what: str) -> None:
    window = graph.cloud.window
    d = window.dimension
    if window.volume() <= unit_ball_volume(d) * radius**d * (1 + 1e-12):
        raise WindowCoverageError(
            f"{what} needs window volume beyond the ball of radius {radius:g}; "
            "the complement region would be empty"
        )


def long_edge_event(graph: GeomGraph, r: float, c: float) -> bool:
    """Some edge has an endpoint with |x| < r and length > c*r."""
    _require_ball(graph, None, (1.0 + c) * r, "long-edge event")
    return long_edge_within(long_edge_ends(graph, c * r), np.zeros(graph.cloud.dimension), r)


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


def crossing_event(graph: GeomGraph, r: float) -> bool:
    """B(0,r) connects to the window part of the complement of B(0,2r)."""
    _require_ball(graph, None, 2.0 * r, "crossing event")
    _require_exterior(graph, 2.0 * r, "crossing event")
    d = graph.cloud.dimension
    origin = np.zeros(d)
    return connected_regions(graph, ball_region(origin, r), complement_region(origin, 2.0 * r))


def crossing_threshold(graph: GeomGraph, r: float, weights: np.ndarray) -> float:
    """Least t such that the crossing holds on the vertices weighted below s, for every s > t.

    Vertex i carries ``weights[i]``.  The crossing event holds on the subgraph
    induced by {i : weights[i] < s} exactly when the result is below s: the
    result is the bottleneck, over paths from B(0,r) to outside B(0,2r), of
    the largest weight on the path (Pollack 1960), found by the union-find that
    decides every crossing (``graph._meeting_level``).  It is inf when no path
    exists.  The window checks are those of crossing_event.
    """
    _require_ball(graph, None, 2.0 * r, "crossing event")
    _require_exterior(graph, 2.0 * r, "crossing event")
    origin = np.zeros(graph.cloud.dimension)
    pos = graph.cloud.positions
    in_a = ball_region(origin, r).contains(pos)
    in_b = complement_region(origin, 2.0 * r).contains(pos)
    return _meeting_level(graph.n_vertices, graph.edges, in_a, in_b, weights)


def local_crossing_event(graph: GeomGraph, r: float, center=None) -> bool:
    """Crossing around ``center`` using only vertices within B(center, 3r)."""
    d = graph.cloud.dimension
    center = np.zeros(d) if center is None else np.atleast_1d(np.asarray(center, dtype=float))
    _require_ball(graph, center, 3.0 * r, "local crossing event")
    return connected_regions_restricted(
        graph,
        ball_region(center, r),
        complement_region(center, 2.0 * r),
        ball_region(center, 3.0 * r),
    )


def renorm_long_edge_event(graph: GeomGraph, r: float) -> bool:
    """Some edge has an endpoint in B(0, 20r) and length > r.

    Deliberately implemented endpoint-first (not by delegating to
    long_edge_event) so the identity with the (20r, 1/20) long-edge event is a
    meaningful cross-check.
    """
    _require_ball(graph, None, 21.0 * r, "renorm long-edge event")
    if graph.n_edges == 0:
        return False
    pos = graph.cloud.positions
    e = graph.edges
    near = (np.sum(pos[e[:, 0]] ** 2, axis=1) < (20.0 * r) ** 2) | (
        np.sum(pos[e[:, 1]] ** 2, axis=1) < (20.0 * r) ** 2
    )
    if not near.any():
        return False
    sel = e[near]
    diff = pos[sel[:, 0]] - pos[sel[:, 1]]
    return bool(np.any(np.sum(diff * diff, axis=1) > r * r))
