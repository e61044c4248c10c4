"""Monotone coupling across intensities via thinning.

A lower-intensity process is realized as an independent Bernoulli-retained
subset of a higher-intensity one.  Because point ids are inherited by the
retained sub-cloud and edge randomness is keyed by id pairs, the low graph is
exactly the subgraph of the high graph induced by the retained points, on
every run.  That makes the monotone events (long edge, crossing, renorm long
edge) pathwise monotone in the intensity for models whose edge probabilities
ignore the surrounding configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ContractError
from .events import long_edge_spec
from .graph import GeomGraph, build_graphs
from .models import ModelSpec
from .ppp import PointCloud, Window, sample_ppp
from .rng import mix, point_uniforms

from .estimators import Estimate, fold, run_replicates


@dataclass(frozen=True)
class CoupledPair:
    """A PPP at lam_high and its Bernoulli(lam_low/lam_high)-thinned subset."""

    high: PointCloud
    retained: np.ndarray
    low: PointCloud

    def __post_init__(self):
        self.retained.flags.writeable = False


def retention_uniforms(cloud: PointCloud, seed: int) -> np.ndarray:
    """The thinning draw of each point: at ratio q, thin_pair retains exactly the points below q."""
    return point_uniforms(mix(seed, "thin"), cloud.ids)


def thin_pair(window: Window, lam_low: float, lam_high: float, seed: int) -> CoupledPair:
    """Sample the high-intensity cloud and retain each point independently.

    Retention uses per-point uniforms keyed by point id, so the same id is
    retained or dropped consistently across any nested thinnings with
    decreasing ratios and the same seed.
    """
    if not (0 <= lam_low <= lam_high < math.inf):  # NaN fails every comparison
        raise ConfigurationError(f"thinning needs 0 <= lam_low <= lam_high < inf, got {lam_low}, {lam_high}")
    high = sample_ppp(intensity=lam_high, window=window, seed=seed)
    if lam_high == 0.0:
        ratio = 0.0
    else:
        ratio = lam_low / lam_high
    retained = retention_uniforms(high, seed) < ratio
    low = replace(high, intensity=lam_low, positions=high.positions[retained], marks=high.marks[retained],
                  ids=high.ids[retained])
    return CoupledPair(high=high, retained=retained, low=low)


def coupled_graphs(pair: CoupledPair, model: ModelSpec, seed: int):
    """Build both graphs with shared pair-indexed randomness.

    Returns (low graph, high graph).  The low graph equals the subgraph of
    the high graph induced by the retained points -- exactly, because both
    builds draw the same uniform for any pair of inherited ids.
    """
    (low_graph,), (high_graph,) = _coupled_blocks([pair], model, [seed])
    return low_graph, high_graph


def _coupled_blocks(pairs: list, model: ModelSpec, seeds: list):
    """The low and the high graphs of each coupled pair, all built together; coupled_graphs is the one-pair case."""
    if model.variant == "generalized":
        raise ContractError(
            "coupling is only exact when edge probabilities ignore the surrounding "
            "configuration; context-dependent models are not supported"
        )
    graphs = build_graphs([p.low for p in pairs] + [p.high for p in pairs], model, seeds + seeds)
    return graphs[: len(pairs)], graphs[len(pairs) :]


def induced_edges(high_graph: GeomGraph, retained: np.ndarray) -> np.ndarray:
    """Edges of the high graph with both endpoints retained, in low-graph indexing."""
    e = high_graph.edges
    if len(e) == 0:
        return e.copy()
    keep = retained[e[:, 0]] & retained[e[:, 1]]
    sub = e[keep]
    new_index = np.cumsum(retained) - 1
    remapped = new_index[sub]
    remapped.sort(axis=1)
    order = np.lexsort((remapped[:, 1], remapped[:, 0]))
    return remapped[order]


@dataclass(frozen=True)
class ThinningReport:
    """Two-sided intensity-monotonicity check on the long-edge event L(r, 1)."""

    lam_low: float
    lam_high: float
    r: float
    low: Estimate
    high: Estimate
    exact_upper_violations: int
    lower_violated: bool
    upper_violated: bool

    @property
    def violated(self) -> bool:
        return self.lower_violated or self.upper_violated or self.exact_upper_violations > 0

    def lines(self):
        ratio_sq = (self.lam_low / self.lam_high) ** 2 if self.lam_high > 0 else 0.0
        return [
            f"intensities: {self.lam_low:g} <= {self.lam_high:g}, event scale r={self.r:g}",
            f"low  p={self.low.p_hat:.6g} ci=[{self.low.ci_low:.6g}, {self.low.ci_high:.6g}]",
            f"high p={self.high.p_hat:.6g} ci=[{self.high.ci_low:.6g}, {self.high.ci_high:.6g}]",
            f"lower bound ratio^2*p_high = {ratio_sq * self.high.p_hat:.6g}: "
            + ("VIOLATED" if self.lower_violated else "not violated"),
            f"upper bound, exact per-replicate violations: {self.exact_upper_violations}"
            + ("" if self.exact_upper_violations == 0 else " (VIOLATED)"),
            "upper bound, statistical: " + ("VIOLATED" if self.upper_violated else "not violated"),
        ]


def check_thinning_bounds(
    model: ModelSpec,
    lam_low: float,
    lam_high: float,
    r: float,
    n: int,
    seed: int,
    threads: int = 1,
) -> ThinningReport:
    """Estimate P(L(r,1)) at both intensities on coupled replicates.

    Checks ratio^2 * P_high <= P_low <= P_high: the upper bound exactly per
    replicate (subgraph monotonicity), both bounds statistically via the
    Wilson intervals.
    """
    if not (0 < lam_low < lam_high):
        raise ConfigurationError("need 0 < lam_low < lam_high")
    event = long_edge_spec(r, 1.0)
    window = event.window(model.d)

    def sample(rep_seed: int) -> CoupledPair:
        return thin_pair(window, lam_low, lam_high, rep_seed)

    def decide(seeds, pairs):
        low_graphs, high_graphs = _coupled_blocks(pairs, model, seeds)
        # a low-only hit would contradict the induced-subgraph construction;
        # it is counted, not raised, so full runs report every violation
        return np.stack([event.evaluate_many(low_graphs), event.evaluate_many(high_graphs)], axis=1)

    rows = run_replicates(sample, decide, n, seed, points=lambda p: len(p.high) + len(p.low))
    low_est, high_est = fold(rows)
    exact_violations = int(np.sum(rows[:, 0] & ~rows[:, 1]))
    ratio_sq = (lam_low / lam_high) ** 2
    lower_violated = ratio_sq * high_est.ci_low > low_est.ci_high
    upper_violated = low_est.ci_low > high_est.ci_high
    return ThinningReport(
        lam_low=lam_low,
        lam_high=lam_high,
        r=r,
        low=low_est,
        high=high_est,
        exact_upper_violations=exact_violations,
        lower_violated=lower_violated,
        upper_violated=upper_violated,
    )
