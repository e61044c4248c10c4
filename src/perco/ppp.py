"""Marked Poisson point processes in finite observation windows.

Points live in R^d (1 <= d <= 8) and carry an independent uniform(0,1) mark.
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
    """Which rows of ``positions`` (n, d) lie in the closed ball; windows, regions and events share it."""
    return np.sum((positions - center) ** 2, axis=1) <= float(radius) ** 2


@dataclass(frozen=True)
class Window:
    """Finite observation window: a ball or an axis-aligned box in R^d."""

    kind: str  # "ball" or "box"
    center: np.ndarray | None = None
    radius: float | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "ball":
            center = np.atleast_1d(np.asarray(self.center, dtype=float))
            if center.ndim != 1 or not (1 <= center.size <= MAX_DIMENSION):
                raise ConfigurationError(f"ball center must have 1..{MAX_DIMENSION} coordinates")
            if not np.all(np.isfinite(center)):
                raise ConfigurationError("ball center must be finite")
            if self.radius is None or not math.isfinite(self.radius) or self.radius <= 0:
                raise ConfigurationError(f"ball radius must be positive, got {self.radius}")
            center.flags.writeable = False
            object.__setattr__(self, "center", center)
            object.__setattr__(self, "radius", float(self.radius))
        elif self.kind == "box":
            lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
            upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
            if lower.shape != upper.shape or lower.ndim != 1:
                raise ConfigurationError("box corners must be vectors of equal length")
            if not (1 <= lower.size <= MAX_DIMENSION):
                raise ConfigurationError(f"box dimension must be 1..{MAX_DIMENSION}")
            if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
                raise ConfigurationError("box corners must be finite")
            if not np.all(lower < upper):
                raise ConfigurationError("box requires lower < upper coordinatewise")
            lower.flags.writeable = False
            upper.flags.writeable = False
            object.__setattr__(self, "lower", lower)
            object.__setattr__(self, "upper", upper)
        else:
            raise ConfigurationError(f"unknown window kind {self.kind!r}")

    @property
    def dimension(self) -> int:
        return self.center.size if self.kind == "ball" else self.lower.size

    def volume(self) -> float:
        """Lebesgue volume; inf past the float range, which the point cap then rejects."""
        if self.kind == "ball":
            try:
                return unit_ball_volume(self.dimension) * self.radius**self.dimension
            except OverflowError:
                return math.inf
        with np.errstate(over="ignore"):
            return float(np.prod(self.upper - self.lower))

    def contains(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask of positions (n, d) lying inside the window."""
        positions = np.atleast_2d(positions)
        if self.kind == "ball":
            return in_closed_ball(positions, self.center, self.radius)
        return np.all((positions >= self.lower) & (positions <= self.upper), axis=1)

    def contains_ball(self, center, radius: float) -> bool:
        """Whether the closed ball B(center, radius) lies inside the window."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.dimension,):
            raise ConfigurationError(f"ball center needs {self.dimension} coordinates, got {center.size}")
        if self.kind == "ball":
            return float(np.linalg.norm(center - self.center)) + radius <= self.radius
        return bool(np.all(center - radius >= self.lower) and np.all(center + radius <= self.upper))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "ball":
            return self.center - self.radius, self.center + self.radius
        return self.lower, self.upper


def ball_window(radius: float, d: int) -> Window:
    return Window(kind="ball", center=np.zeros(d), radius=radius)


def box_window(lower, upper) -> Window:
    return Window(kind="box", lower=lower, upper=upper)


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
    d = window.dimension
    if count == 0:  # no draw, so a box past the float range needs no width
        return np.empty((0, d))
    lower, upper = window.bounding_box()
    if window.kind == "box":
        return gen.uniform(lower, upper, size=(count, d))
    # Ball: rejection from the bounding box.  Acceptance rate is the
    # ball/box volume ratio, ~0.08 at d=6, so chunks are oversized a bit.
    # The candidates are gen.uniform(lower, upper)'s, lower + width * u,
    # scaled in place.
    accept_rate = unit_ball_volume(d) / 2.0**d
    width = upper - lower
    out = np.empty((count, d))
    filled = 0
    while filled < count:
        need = count - filled
        draw = max(32, int(need / accept_rate * 1.2) + 16)
        cand = gen.random((draw, d))
        cand *= width
        cand += lower
        offset = cand - window.center
        offset *= offset
        good = cand[offset.sum(axis=1) <= window.radius**2]
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
