"""Monte Carlo estimation of event probabilities and analytic oracles.

Replicates are independent: each gets a fresh point cloud and fresh edge
randomness derived from (master seed, replicate index), so results do not
depend on the order in which replicates run.  ``run_replicates(sample,
decide, ...)`` is the one replicate loop: it derives every replicate seed,
samples each replicate on its own seed, and hands the samples to ``decide``
in groups that close at ``_GROUP_POINTS`` points, at every ``_BLOCK``-th
replicate and at the last one, so that memory stays bounded; it returns
what each replicate computes (event indicators, or a threshold) as an
(n, k) array in replicate-index order.  ``fold`` turns indicator columns
into Wilson estimates.  Every Monte Carlo check goes through the pair.  The
graph checks sample through ``graph_rows``, which builds each group of
clouds with one shared screen (``graph.build_graphs``), so that a decision
takes each event or ball once over them (``EventSpec.evaluate_many``,
``events.long_edge_hits``).

Replicates run in the calling thread.  ``estimate_mixing_cov`` and
``coupling.check_thinning_bounds`` still accept a ``threads`` keyword in its
old place, as the config still accepts ``run.threads`` (validated as at least
1); neither changes how or where replicates run, or any result.

The Campbell-formula routines compute expected edge counts as deterministic
integrals against intensity^2; they power calibration tests, the Markov
sanity bound p(long edge event) <= expected long-edge count, and the window
truncation bound.

Quantiles come from scipy.special, which scipy.stats itself calls, so that
perco never imports scipy.stats: ``special.ndtri`` is the normal quantile
behind ``norm.ppf`` and ``special.stdtrit`` Student's t quantile behind
``t.ppf``.  The trend slope uses ``linregress``'s closed form.  Each gives
the scipy.stats result bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigurationError, ContractError, InternalConsistencyError, ResourceError
from .events import EventSpec, local_crossing_spec, long_edge_hits, long_edge_spec, long_edge_window
from .graph import _TILE_ROWS, GeomGraph, build_graph, build_graphs
from .models import ModelSpec, mark_averaged_connection, max_range, phibar_breakpoints
from .ppp import Window, sample_ppp, sphere_surface, unit_ball_volume
from .quadrature import DIVERGENT, INCONCLUSIVE, lens_volume, radial_integral
from .rng import _absorb, mix

DEFAULT_CONFIDENCE = 0.95
PERSISTENT_FLOOR = 0.05
VANISHING_FACTOR = 4.0
MIN_COV_TRIALS = 1000
COVERING_LATTICE_BUDGET = 1_000_000  # lattice points one covering may enumerate
# a group of replicates shares one graph screen and one pass per event; a group
# closes at every _BLOCK-th replicate
_BLOCK = 64
# ... or once it holds this many points: _BLOCK clouds small enough to share a
# screen (at most graph._TILE_ROWS points each) are one group, while large clouds
# are held in memory a few replicates at a time
_GROUP_POINTS = _BLOCK * _TILE_ROWS


@dataclass(frozen=True)
class Estimate:
    """Bernoulli estimate with a Wilson confidence interval."""

    hits: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float
    confidence: float = DEFAULT_CONFIDENCE


def wilson_interval(hits: int, trials: int, confidence: float = DEFAULT_CONFIDENCE):
    """Wilson score interval; well behaved at p_hat near 0 and 1."""
    if trials <= 0:
        raise ConfigurationError("need at least one trial")
    if not 0 <= hits <= trials:
        raise ConfigurationError(f"hits must lie in [0, {trials}], got {hits}")
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must lie in (0, 1), got {confidence}")
    z = special.ndtri(0.5 + confidence / 2.0)
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # rounding must not push the interval off the point estimate
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def make_estimate(hits: int, trials: int, confidence: float = DEFAULT_CONFIDENCE) -> Estimate:
    lo, hi = wilson_interval(hits, trials, confidence)
    return Estimate(hits=hits, trials=trials, p_hat=hits / trials, ci_low=lo, ci_high=hi, confidence=confidence)


def replicate_seed(seed: int, index: int) -> int:
    """Per-replicate seed; a function of (seed, index) alone."""
    return int(mix(seed, "rep", index))


def run_replicates(sample, decide, n: int, seed: int, points=len) -> np.ndarray:
    """Replicates 0..n-1 as an (n, k) array of rows in replicate-index order.

    Replicate i draws ``sample(replicate_seed(seed, i))``.  The samples
    gather in groups, and ``decide(seeds, samples)`` returns one row per
    sample of a group, with one value or k values in a row: event
    indicators give a bool array, per-replicate thresholds a float one.  A
    group closes once it holds _GROUP_POINTS points, counted by
    ``points(sample)``, at every _BLOCK-th replicate, and at the last one;
    so a run of large replicates holds a group or two of samples, and what
    is built from them, at a time.
    """
    if n < 1:
        raise ConfigurationError("need at least one replicate")
    # replicate_seed(seed, i) for every i at once: mix(seed, "rep") absorbs each index as mix absorbs a word
    seeds = np.full(n, mix(seed, "rep"), dtype=np.uint64)
    with np.errstate(over="ignore"):
        _absorb(seeds, np.arange(n, dtype=np.uint64))
    seeds = seeds.tolist()
    rows, group, samples, total = [], [], [], 0
    for i, s in enumerate(seeds, 1):
        group.append(s)
        samples.append(sample(s))
        total += points(samples[-1])
        if total >= _GROUP_POINTS or i % _BLOCK == 0 or i == n:
            decided = np.asarray(decide(group, samples))
            if decided.ndim not in (1, 2) or len(decided) != len(group):
                raise InternalConsistencyError(
                    f"a decision returned shape {decided.shape} for {len(group)} replicates; need one row each"
                )
            rows.append(decided.reshape(len(group), -1))
            group, samples, total = [], [], 0
    return np.concatenate(rows)


def graph_rows(model: ModelSpec, intensity: float, window: Window, decide, n: int, seed: int):
    """run_replicates over graphs: ``decide(seeds, graphs)`` on each group of replicate clouds, built together."""
    return run_replicates(
        lambda s: sample_ppp(intensity=intensity, window=window, seed=s),
        lambda seeds, clouds: decide(seeds, build_graphs(clouds, model, seeds)),
        n, seed,
    )


def fold(indicators: np.ndarray, confidence: float = DEFAULT_CONFIDENCE) -> list[Estimate]:
    """One Wilson estimate per column of an (n, k) indicator array."""
    trials = len(indicators)
    return [make_estimate(int(hits), trials, confidence) for hits in np.count_nonzero(indicators, axis=0)]


def sample_event_graph(model: ModelSpec, intensity: float, window: Window, rep_seed: int) -> GeomGraph:
    cloud = sample_ppp(intensity=intensity, window=window, seed=rep_seed)
    return build_graph(cloud, model, seed=rep_seed)


def estimate_event(
    model: ModelSpec,
    intensity: float,
    event: EventSpec,
    n: int,
    seed: int,
    window: Window | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> Estimate:
    """Estimate the event probability over n independent replicates."""
    if window is None:
        window = event.window(model.d)
    rows = graph_rows(model, intensity, window, lambda _, graphs: event.evaluate_many(graphs), n, seed)
    return fold(rows, confidence)[0]


@dataclass(frozen=True)
class TrendReport:
    """Finite-scale trend of long-edge probabilities along a geometric r-grid.

    The verdict is a finite-scale proxy for the limiting statement "the
    probabilities do not vanish as r grows"; no finite run decides the limit,
    so the thresholds are explicit and repeated in the printed report.
    """

    r_values: tuple
    estimates: tuple
    slope: float
    slope_ci: tuple
    verdict: str
    persistent_floor: float
    vanishing_factor: float
    campbell_means: tuple
    undersampled: bool
    note: str = "finite-scale proxy; the limiting property is not decidable from any finite run"

    def lines(self):
        out = [
            f"trend verdict: {self.verdict} "
            f"(floor={self.persistent_floor:g}, decrease factor={self.vanishing_factor:g})",
            f"note: {self.note}",
        ]
        if self.undersampled:
            out.append("caveat: all-zero hit counts with expected counts far below 1/n; undersampled")
        slope_txt = "n/a" if math.isnan(self.slope) else f"{self.slope:.4g}"
        lo, hi = self.slope_ci
        ci_txt = "n/a" if math.isnan(lo) else f"[{lo:.4g}, {hi:.4g}]"
        out.append(f"log-log slope: {slope_txt}  ci: {ci_txt}")
        for r, est, camp in zip(self.r_values, self.estimates, self.campbell_means):
            camp_txt = "n/a" if camp is None or math.isnan(camp) else f"{camp:.6g}"
            out.append(
                f"r={r:.6g}  hits={est.hits}/{est.trials}  p={est.p_hat:.6g} "
                f"ci=[{est.ci_low:.6g}, {est.ci_high:.6g}]  expected_count={camp_txt}"
            )
        return out


def geometric_grid(r_min: float, r_max: float | None, k: int):
    if k < 4:
        raise ConfigurationError("trend grid needs at least 4 scales")
    if not (r_min > 0):
        raise ConfigurationError("r_min must be positive")
    if r_max is None:
        return tuple(r_min * 2.0**i for i in range(k))
    if not r_min < r_max < math.inf:
        raise ConfigurationError("r_max must be finite and exceed r_min")
    return tuple(np.geomspace(r_min, r_max, k))


def _slope_fit(r_values, estimates):
    """Fitted slope of log p_hat vs log r over the nonzero estimates."""
    xs = [math.log(r) for r, e in zip(r_values, estimates) if e.hits > 0]
    ys = [math.log(e.p_hat) for e in estimates if e.hits > 0]
    if len(xs) < 2 or len(set(xs)) < 2:
        return math.nan, (math.nan, math.nan)
    if len(set(ys)) == 1:
        # a flat trend; the fit below would leave the rounding of the mean as a slope and interval
        return 0.0, (math.nan, math.nan)
    if len(xs) == 2:
        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        return slope, (math.nan, math.nan)
    # least squares by linregress's closed form, operation for operation
    ssxm, ssxym, _, ssym = np.cov(xs, ys, bias=1).flat
    slope = ssxym / ssxm
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    df = len(xs) - 2
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / df)
    tcrit = special.stdtrit(df, 0.975)
    return slope, (slope - tcrit * stderr, slope + tcrit * stderr)


def probe_long_edge_persistence(
    model: ModelSpec,
    intensity: float,
    c: float,
    r_min: float,
    r_max: float | None = None,
    k: int = 6,
    n: int = 200,
    seed: int = 0,
    persistent_floor: float = PERSISTENT_FLOOR,
    vanishing_factor: float = VANISHING_FACTOR,
) -> TrendReport:
    """Estimate long-edge probabilities along a geometric r-grid and classify the trend."""
    if not 0 <= persistent_floor < 1:
        raise ConfigurationError(f"persistent floor must lie in [0, 1), got {persistent_floor}")
    if not (math.isfinite(vanishing_factor) and vanishing_factor >= 1):
        raise ConfigurationError(f"vanishing factor must be finite and at least 1, got {vanishing_factor}")
    r_values = geometric_grid(r_min, r_max, k)
    estimates = []
    campbell = []
    for j, r in enumerate(r_values):
        event = long_edge_spec(r, c)
        estimates.append(estimate_event(model, intensity, event, n, replicate_seed(seed, j)))
        campbell.append(_campbell_or_nan(model, intensity, r, c))

    slope, slope_ci = _slope_fit(r_values, estimates)

    all_zero = all(e.hits == 0 for e in estimates)
    last_third = estimates[-max(1, math.ceil(len(estimates) / 3)) :]
    persistent = all(e.ci_low > persistent_floor for e in last_third)
    if all_zero:
        vanishing = True
    else:
        first_p, final_p = estimates[0].p_hat, estimates[-1].p_hat
        decayed = first_p > 0 and final_p <= first_p / vanishing_factor
        vanishing = (not math.isnan(slope_ci[1])) and slope_ci[1] < 0 and decayed

    if persistent and not vanishing:
        verdict = "persistent"
    elif vanishing and not persistent:
        verdict = "vanishing"
    else:
        verdict = "inconclusive"

    finite_camp = [v for v in campbell if not math.isnan(v)]
    undersampled = all_zero and bool(finite_camp) and max(finite_camp) * n < 0.1

    return TrendReport(
        r_values=tuple(r_values),
        estimates=tuple(estimates),
        slope=slope,
        slope_ci=slope_ci,
        verdict=verdict,
        persistent_floor=persistent_floor,
        vanishing_factor=vanishing_factor,
        campbell_means=tuple(campbell),
        undersampled=undersampled,
    )


def _campbell_or_nan(model: ModelSpec, intensity: float, r: float, c: float) -> float:
    base = model.base if model.variant == "generalized" else model
    try:
        return campbell_long_edges(base, intensity, r, c)
    except (ContractError, ConfigurationError):
        return math.nan


def _phibar_integral(
    model: ModelSpec, weight, lower: float = 0.0, support: float = math.inf, breakpoints=()
) -> float:
    """Integral of rho^{d-1} phibar(rho) weight(rho) over [lower, support).

    The one quadrature behind the Campbell counts: inf when the tail
    diverges, ConfigurationError when it cannot be classified.  The weight's
    ``breakpoints`` join the model's; the largest also sets the distance
    beyond which radial_integral extrapolates an infinite tail.
    """
    result = radial_integral(
        lambda rho: mark_averaged_connection(model, rho) * weight(rho),
        d=model.d,
        lower=lower,
        support=min(support, max_range(model)),
        breakpoints=[*phibar_breakpoints(model), *breakpoints],
    )
    if result.verdict == DIVERGENT:
        return math.inf
    if result.verdict == INCONCLUSIVE:
        raise ConfigurationError(
            "tail integral could not be classified as convergent or divergent; "
            f"note: {result.note}"
        )
    return result.value


def campbell_long_edges(
    model: ModelSpec,
    intensity: float,
    r: float,
    c: float,
    upper: float | None = None,
) -> float:
    """Expected number of (point-in-ball, long-edge) incidences.

    Counts ordered pairs: one endpoint strictly inside B(0,r), the other at
    distance > c*r.  An edge with both endpoints in the ball contributes
    twice, so the empirical counterpart must count endpoint incidences, not
    edges.  Returns inf when the tail integral diverges; raises when the tail
    behavior cannot be classified.

    ``upper`` imposes a hard cutoff on the edge length (count only lengths in
    (c*r, upper]), which makes the value directly comparable to counts on a
    finite window containing B(0, r + upper), with no truncation bias.
    """
    if model.variant == "generalized":
        raise ContractError("expected-count formulas need a pairwise connection function")
    d = model.d
    lower = c * r
    if upper is not None and not upper > lower:
        raise ConfigurationError("length cutoff must exceed c*r")
    value = _phibar_integral(model, lambda _: 1.0, lower, math.inf if upper is None else upper)
    return intensity**2 * unit_ball_volume(d) * r**d * sphere_surface(d) * value


def campbell_total_edges(model: ModelSpec, intensity: float, window: Window) -> float:
    """Expected number of edges with both endpoints in the window."""
    if model.variant == "generalized":
        raise ContractError("expected-count formulas need a pairwise connection function")
    if window.dimension != model.d:
        raise ConfigurationError("model dimension does not match window dimension")
    # the window's set covariance, its lens with its rho-shift, vanishes beyond its diameter
    R = window.radius
    value = _phibar_integral(model, lambda rho: lens_volume(model.d, R, R, rho), support=2.0 * R)
    return 0.5 * intensity**2 * sphere_surface(model.d) * value


def truncation_bound(model: ModelSpec, intensity: float, window: Window, ell: float) -> float:
    """Expected number of edges from B(0, ell) to the window exterior.

    Events decided by paths inside B(0, ell) can only be affected by
    truncation if such an edge exists, so this expectation bounds the bias of
    estimating them on the finite window (Markov inequality).  A shift by rho
    moves the part of B(0, ell) outside the lens with B(rho u, R) out of the
    window, whatever the direction u, so by the Campbell formula the bound is
    intensity^2 * sigma_d * integral of rho^{d-1} phibar(rho) *
    (|B(0, ell)| - lens(ell, R, rho)) over rho > R - ell.  Returns 0 exactly
    for ell = 0.
    """
    eff = model.base if model.variant == "generalized" else model
    if window.dimension != eff.d:
        raise ConfigurationError("model dimension does not match window dimension")
    if ell == 0.0:
        return 0.0
    if ell < 0 or not window.contains_ball(np.zeros(eff.d), ell):
        raise ConfigurationError("ell must be nonnegative and inside the window")
    d, r_win = eff.d, window.radius
    ball = unit_ball_volume(d) * ell**d
    # the weight rises from 0 at R - ell to |B(0, ell)| at R + ell; splitting
    # at R keeps the tail cutoff on the window's scale
    value = _phibar_integral(
        eff, lambda rho: ball - lens_volume(d, ell, r_win, rho), lower=r_win - ell, breakpoints=(r_win,)
    )
    return intensity**2 * sphere_surface(d) * value


@dataclass(frozen=True)
class Covering:
    """Centers of unit balls covering B(0, q), from a cubic lattice."""

    q: float
    d: int
    centers: np.ndarray

    @property
    def count(self) -> int:
        return len(self.centers)


def covering_number(q: float, d: int) -> Covering:
    """Unit-ball covering of B(0, q) with explicit centers; valid, not minimal.

    Lattice spacing 2/sqrt(d) gives cubic cells of circumradius exactly 1, so
    the cell centers cover space with unit balls.  Cells farther than q from
    the origin are dropped; points of B(0, q) on a dropped cell's boundary
    also lie in a kept neighboring cell, so coverage of the closed ball
    survives the strict cutoff.  Centers outside the ball are projected onto
    it, which only shrinks distances to covered points.
    """
    if not (q >= 1 and math.isfinite(q)):
        raise ConfigurationError(f"covering ratio must be finite and >= 1, got {q}")
    if not 1 <= d <= 8:
        raise ConfigurationError("dimension must be between 1 and 8")
    if q <= 1.0:
        return Covering(q=q, d=d, centers=np.zeros((1, d)))
    h = 2.0 / math.sqrt(d)
    # lattice points per axis, held against the cap's d-th root so that no count overflows
    side = 2.0 * (q // h) + 3.0
    if side > COVERING_LATTICE_BUDGET ** (1.0 / d):
        raise ResourceError(f"covering B(0, {q:g}) in d={d} takes a lattice of {side:.6g}^{d} points, the "
                            f"lattice cap COVERING_LATTICE_BUDGET is {COVERING_LATTICE_BUDGET}; lower c'/c")
    k_max = int(math.floor(q / h)) + 1
    axes = [np.arange(-k_max, k_max + 1) * h] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    # distance from the origin to the closed cell around each lattice point
    nearest = np.clip(np.abs(grid) - h / 2.0, 0.0, None)
    cell_dist = np.sqrt(np.sum(nearest**2, axis=1))
    keep = grid[cell_dist < q]
    norms = np.linalg.norm(keep, axis=1)
    outside = norms > q
    scale = np.ones(len(keep))
    scale[outside] = q / norms[outside]
    centers = keep * scale[:, None]
    return Covering(q=q, d=d, centers=centers)


@dataclass(frozen=True)
class CoveringCheck:
    """Union-bound comparison of long-edge events at two ball radii."""

    covering: Covering
    lhs: Estimate
    rhs: Estimate
    union_bound_violations: int
    statistically_violated: bool

    def lines(self):
        n = self.covering.count
        return [
            f"covering count n({self.covering.q:g}) = {n} (d={self.covering.d})",
            f"small-ball event: p={self.lhs.p_hat:.6g} ci=[{self.lhs.ci_low:.6g}, {self.lhs.ci_high:.6g}]",
            f"large-ball event: p={self.rhs.p_hat:.6g} ci=[{self.rhs.ci_low:.6g}, {self.rhs.ci_high:.6g}]",
            f"per-replicate union-bound violations: {self.union_bound_violations}",
            "statistical check: " + ("VIOLATED" if self.statistically_violated else "not violated"),
        ]


def check_covering_inequality(
    model: ModelSpec,
    intensity: float,
    r: float,
    c: float,
    c_prime: float,
    n: int,
    seed: int,
) -> CoveringCheck:
    """Check count(q) * P(small-ball long edge) >= P(large-ball long edge), q = c'/c.

    Both events demand edge length > c'*r; the small event restricts an
    endpoint to B(0, r), the large one to B(0, q*r).  Per replicate the union
    bound is exact: when the large event holds, its witness endpoint lies
    within one of the covering balls, so the event translated to that center
    holds (closed balls here, matching the covering guarantee).  The CI
    comparison is statistical on top of that.
    """
    if not (c_prime >= c > 0):
        raise ConfigurationError("need c' >= c > 0")
    if not 0 < r < math.inf:
        raise ConfigurationError(f"r must be positive and finite, got {r}")
    q = c_prime / c
    d = model.d
    cover = covering_number(q, d)
    scaled_centers = cover.centers * r
    length = c_prime * r
    # long edges with an endpoint in any covering ball, which reaches (q + 1) r from the origin
    window = long_edge_window(q + 1.0, c_prime, r, d)
    origin = np.zeros(d)
    # columns: the small ball, the large ball, then every covering ball, closed
    balls = [(origin, r, False), (origin, q * r, False), *((center, r, True) for center in scaled_centers)]

    def decide(_, graphs):
        hits = long_edge_hits(graphs, length, balls)
        return np.stack([hits[:, 0], hits[:, 1], hits[:, 1] & hits[:, 2:].any(axis=1)], axis=1)

    rows = graph_rows(model, intensity, window, decide, n, seed)
    lhs_est, rhs_est = fold(rows[:, :2])
    violations = int(np.sum(rows[:, 1] & ~rows[:, 2]))
    stat_violated = cover.count * lhs_est.ci_high < rhs_est.ci_low
    return CoveringCheck(
        covering=cover,
        lhs=lhs_est,
        rhs=rhs_est,
        union_bound_violations=violations,
        statistically_violated=stat_violated,
    )


@dataclass(frozen=True)
class MixingReport:
    """Sample covariance of two local crossing indicators on shared graphs."""

    covariance: float
    ci_low: float
    ci_high: float
    trials: int
    near: Estimate
    far: Estimate
    r: float
    separation: float

    def lines(self):
        return [
            f"cov = {self.covariance:.6g}  ci=[{self.ci_low:.6g}, {self.ci_high:.6g}]  n={self.trials}",
            f"origin-crossing p = {self.near.p_hat:.6g}, shifted-crossing p = {self.far.p_hat:.6g}",
            f"r = {self.r:g}, center separation = {self.separation:g}",
        ]


def estimate_mixing_cov(
    model: ModelSpec,
    intensity: float,
    r: float,
    x,
    n: int,
    seed: int,
    threads: int = 1,
) -> MixingReport:
    """Covariance of the local crossing indicators at the origin and at x.

    Both indicators are evaluated on the same graph per replicate.  The CI is
    a normal approximation from the influence values, adequate for bounded
    indicators at the enforced n >= 1000.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.d,):
        raise ConfigurationError(f"center must have {model.d} coordinates")
    sep = float(np.linalg.norm(x))
    if not sep > 6.0 * r:
        raise ConfigurationError("centers must be separated by more than 6r")
    if n < MIN_COV_TRIALS:
        raise ConfigurationError(f"covariance CI needs at least {MIN_COV_TRIALS} replicates")
    near_event = local_crossing_spec(r)
    far_event = local_crossing_spec(r, center=x)
    window = far_event.window(model.d)

    def decide(_, graphs):
        return np.stack([near_event.evaluate_many(graphs), far_event.evaluate_many(graphs)], axis=1)

    rows = graph_rows(model, intensity, window, decide, n, seed)
    near, far = fold(rows)
    a, b = rows.astype(float).T
    a_bar, b_bar = a.mean(), b.mean()
    cov = float(np.sum((a - a_bar) * (b - b_bar)) / (n - 1))
    influence = (a - a_bar) * (b - b_bar) - cov
    se = float(np.std(influence, ddof=1) / math.sqrt(n))
    z = special.ndtri(0.975)
    return MixingReport(
        covariance=cov,
        ci_low=cov - z * se,
        ci_high=cov + z * se,
        trials=n,
        near=near,
        far=far,
        r=r,
        separation=sep,
    )
