"""Marked Poisson point processes in ball windows about the origin.

Every event perco checks is read inside a ball about the origin, so a
window has one shape: the closed ball B(0, R) in R^d (1 <= d <= 8), built by
``ball_window(R, d)``.  Points carry an independent uniform(0,1) mark.
Weights and radii used by the connection models are deterministic transforms
of the mark, so a cloud fully determines the vertex data of a graph.
``sample_ppp`` raises ``ResourceError`` past the point cap, the module constant
``DEFAULT_POINT_BUDGET`` on the expected point count, read at every call.

Each call draws from the calling thread's one Philox generator, rekeyed to
start exactly where ``rng.substream(seed)`` starts, so a cloud is the same
as one drawn from a fresh substream at a fraction of the set-up cost.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ResourceError
from .rng import mix

MAX_DIMENSION = 8
DEFAULT_POINT_BUDGET = 5_000_000  # the point cap: expected points one replicate may sample, read per call


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d."""
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1} in R^d."""
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


def in_closed_ball(positions: np.ndarray, center, radius: float) -> np.ndarray:
    """Which rows of ``positions`` (n, d) lie in the closed ball; regions and events share it."""
    return np.sum((positions - center) ** 2, axis=1) <= float(radius) ** 2


@dataclass(frozen=True)
class Window:
    """Finite observation window: the closed ball B(0, radius) in R^d."""

    radius: float
    dimension: int

    def __post_init__(self):
        d = operator.index(self.dimension)
        if not (1 <= d <= MAX_DIMENSION):
            raise ConfigurationError(f"window dimension must be 1..{MAX_DIMENSION}, got {d}")
        if not math.isfinite(self.radius) or self.radius <= 0:
            raise ConfigurationError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "dimension", d)

    def volume(self) -> float:
        """Lebesgue volume; inf past the float range, which the point cap then rejects."""
        try:
            return unit_ball_volume(self.dimension) * self.radius**self.dimension
        except OverflowError:
            return math.inf

    def contains_ball(self, center, radius: float) -> bool:
        """Whether the closed ball B(center, radius) lies inside the window."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.dimension,):
            raise ConfigurationError(f"ball center needs {self.dimension} coordinates, got {center.size}")
        return float(np.linalg.norm(center)) + radius <= self.radius


def ball_window(radius: float, d: int) -> Window:
    return Window(radius=radius, dimension=d)


@dataclass(frozen=True)
class PointCloud:
    """An immutable sample of a marked PPP restricted to a window.

    ``ids`` label points for pair-indexed edge randomness.  A freshly sampled
    cloud uses 0..n-1; a thinned sub-cloud inherits the ids of the parent, so
    edge uniforms agree between the two graphs.
    """

    window: Window
    intensity: float
    positions: np.ndarray  # (n, d)
    marks: np.ndarray  # (n,)
    seed: int
    ids: np.ndarray = field(default=None)  # (n,) uint64

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float).reshape(-1, self.window.dimension)
        marks = np.asarray(self.marks, dtype=float).reshape(-1)
        if marks.shape[0] != positions.shape[0]:
            raise ConfigurationError("positions and marks disagree on point count")
        # NaN fails both comparisons
        if marks.size and not (marks.min() > 0.0 and marks.max() < 1.0):
            raise ConfigurationError("marks must lie strictly inside (0, 1)")
        if positions.size and not np.isfinite(positions).all():
            raise ConfigurationError("positions must be finite")
        ids = self.ids
        if ids is None:
            ids = np.arange(positions.shape[0], dtype=np.uint64)
        else:
            ids = np.asarray(ids, dtype=np.uint64).reshape(-1)
            if ids.shape[0] != positions.shape[0]:
                raise ConfigurationError("ids and positions disagree on point count")
        for arr in (positions, marks, ids):
            arr.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "intensity", float(self.intensity))

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.window.dimension


class _ThreadGenerator(threading.local):
    """One Philox generator per thread, and the state ``Philox(key=k)`` starts in, k going in ``key[0]``."""

    def __init__(self):
        self.gen = np.random.Generator(np.random.Philox())
        self.key = np.zeros(2, dtype=np.uint64)
        zeros = np.zeros(4, dtype=np.uint64)
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": self.key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekeyed(self, seed: int) -> np.random.Generator:
        """This thread's generator, reset to draw what a fresh ``substream(seed)`` draws."""
        self.key[0] = mix(seed)
        self.gen.bit_generator.state = self.state
        return self.gen


_thread_generator = _ThreadGenerator()


def _uniform_in_window(window: Window, count: int, gen: np.random.Generator) -> np.ndarray:
    d, radius = window.dimension, window.radius
    if count == 0:  # no draw, so a radius past the float range needs no width
        return np.empty((0, d))
    # Rejection from the cube [-R, R]^d.  Acceptance rate is the ball/cube
    # volume ratio, ~0.08 at d=6, so chunks are oversized a bit.  The
    # candidates are gen.uniform(-R, R)'s, -R + 2R * u, scaled in place.
    accept_rate = unit_ball_volume(d) / 2.0**d
    out = np.empty((count, d))
    filled = 0
    while filled < count:
        need = count - filled
        draw = max(32, int(need / accept_rate * 1.2) + 16)
        cand = gen.random((draw, d))
        cand *= 2.0 * radius
        cand -= radius
        good = cand[np.square(cand).sum(axis=1) <= radius**2]
        take = min(need, good.shape[0])
        out[filled : filled + take] = good[:take]
        filled += take
    return out


def sample_ppp(window: Window, intensity: float, seed: int) -> PointCloud:
    """Sample a marked PPP of the given intensity inside the window.

    The count is Poisson(intensity * volume), positions are uniform in the
    window, marks are uniform(0,1), and the result is a deterministic function
    of (window, intensity, seed).
    """
    if intensity < 0 or not math.isfinite(intensity):
        raise ConfigurationError(f"intensity must be finite and >= 0, got {intensity}")
    volume = window.volume()
    if volume <= 0:
        raise ConfigurationError("window has nonpositive volume")
    expected = intensity * volume if intensity > 0 else 0.0  # an unbounded window at zero intensity is empty
    if expected > DEFAULT_POINT_BUDGET:
        raise ResourceError(
            f"expected point count {expected:.3g} (intensity={intensity:.6g}, volume={volume:.6g}), "
            f"the point cap DEFAULT_POINT_BUDGET is {DEFAULT_POINT_BUDGET}; shrink the window or lower the intensity"
        )
    gen = _thread_generator.rekeyed(seed)
    count = int(gen.poisson(expected))
    if count > 4 * DEFAULT_POINT_BUDGET:  # Poisson fluctuation guard, effectively unreachable
        raise ResourceError(f"sampled point count {count} exceeds hard cap {4 * DEFAULT_POINT_BUDGET}")
    positions = _uniform_in_window(window, count, gen)
    marks = gen.random(count)  # gen.uniform(0.0, 1.0)'s draws: 0.0 + 1.0 * u is u
    # open-interval marks: the generator can emit exactly 0.0
    while (marks <= 0.0).any():
        redraw = marks <= 0.0
        marks[redraw] = gen.random(int(redraw.sum()))
    return PointCloud(window=window, intensity=intensity, positions=positions, marks=marks, seed=seed)
