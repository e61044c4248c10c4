"""Scale-renormalization diagnostics and a finite-scale crossing-intensity bracket.

The central inequality bounds the crossing probability at scale 10r by a
constant times the square of the crossing probability at scale r, plus the
probability of a long edge near the origin (the error event), plus, for
context-dependent models, a user-supplied mixing term.  The constant is not
pinned down analytically, so each row reports the fitted constant that makes
the inequality tight at that scale; stability of that constant across scales
is the diagnostic.

The bracket routine bisects the intensity against a crossing-probability
threshold.  All intensities are realized by thinning the same master clouds,
sampled at the largest intensity, so the empirical crossing frequency is
exactly nondecreasing in the intensity and bisection is sound.  Each
replicate's master graph is built once and reduced to its exact crossing
threshold: the thinned graph at intensity lam crosses iff that threshold is
below lam / lam_max.  Every bisection step is then a count over the
thresholds, with no resampling and no rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import retention_uniforms
from .errors import ConfigurationError, ContractError
from .estimators import Estimate, fold, graph_rows, replicate_seed
from .events import crossing_spec, local_crossing_spec, renorm_long_edge_spec
from .models import ModelSpec
from .ppp import unit_ball_volume

BRACKET_POINT_BUDGET = 100_000
BRACKET_MAX_ITER = 12


@dataclass(frozen=True)
class RenormRow:
    """Shared-replicate estimates of the four scale-r quantities."""

    r: float
    lhs: Estimate  # crossing at scale 10r
    g_est: Estimate  # local crossing at scale r
    c_est: Estimate  # crossing at scale r
    f_est: Estimate  # long-edge error event at scale r
    mixing_term: float
    fitted_C: float | None
    flagged: bool


def fitted_constant(lhs_p: float, c_p: float, f_p: float, mixing: float = 0.0):
    """Minimal constant making lhs <= C * (c^2 + mixing) + f, or None if undefined.

    When lhs <= f the inequality already holds with C = 0, including the
    degenerate c = 0 case; only lhs > f with a zero denominator is flagged.
    """
    if lhs_p <= f_p:
        return 0.0, False
    denom = c_p * c_p + mixing
    if denom == 0.0:
        return None, True
    return (lhs_p - f_p) / denom, False


@dataclass(frozen=True)
class RenormTable:
    rows: tuple
    stable: bool
    inclusion_violations: int

    def lines(self):
        out = []
        for row in self.rows:
            fitted = "undefined" if row.fitted_C is None else f"{row.fitted_C:.6g}"
            flag = "  [flagged: lhs > f with zero crossing estimate]" if row.flagged else ""
            out.append(
                f"r={row.r:.6g}  p(cross 10r)={row.lhs.p_hat:.6g}  p(local r)={row.g_est.p_hat:.6g}  "
                f"p(cross r)={row.c_est.p_hat:.6g}  p(long-edge err)={row.f_est.p_hat:.6g}  "
                f"mixing={row.mixing_term:.3g}  fitted_C={fitted}{flag}"
            )
        out.append(f"fitted constant stable within factor 2: {'yes' if self.stable else 'no'}")
        out.append(f"per-replicate inclusion violations (local => crossing): {self.inclusion_violations}")
        return out


def renorm_table(
    model: ModelSpec,
    intensity: float,
    r_values,
    n: int,
    seed: int,
    c_mix: float | None = None,
    zeta: float | None = None,
) -> RenormTable:
    """Estimate all four probabilities per scale on shared replicates.

    Context-free models drop the mixing term; context-dependent ones must
    supply (c_mix, zeta), contributing c_mix * intensity * r^-zeta to the
    denominator of the fitted constant.
    """
    r_values = [float(r) for r in r_values]
    if not r_values or any(r <= 0 for r in r_values):
        raise ConfigurationError("scales must be positive")
    if model.variant == "generalized":
        if c_mix is None or zeta is None:
            raise ConfigurationError(
                "context-dependent models need explicit mixing parameters (c_mix, zeta)"
            )
    elif c_mix is not None or zeta is not None:
        raise ConfigurationError("mixing parameters only apply to context-dependent models")

    rows = []
    violations = 0
    for j, r in enumerate(r_values):
        f_event = renorm_long_edge_spec(r)
        window = f_event.window(model.d)  # also covers C(10r), G(r) and C(r)
        specs = (crossing_spec(10.0 * r), local_crossing_spec(r), crossing_spec(r), f_event)

        def decide(_, graphs):
            return np.stack([spec.evaluate_many(graphs) for spec in specs], axis=1)

        outcomes = graph_rows(model, intensity, window, decide, n, replicate_seed(seed, j))
        violations += int(np.sum(outcomes[:, 1] & ~outcomes[:, 2]))
        lhs_est, g_est, c_est, f_est = fold(outcomes)
        mixing = 0.0 if c_mix is None else c_mix * intensity * r ** -zeta
        fitted, flagged = fitted_constant(lhs_est.p_hat, c_est.p_hat, f_est.p_hat, mixing)
        rows.append(
            RenormRow(
                r=r,
                lhs=lhs_est,
                g_est=g_est,
                c_est=c_est,
                f_est=f_est,
                mixing_term=mixing,
                fitted_C=fitted,
                flagged=flagged,
            )
        )

    defined = [row.fitted_C for row in rows if row.fitted_C is not None]
    positive = [v for v in defined if v > 0]
    if any(row.flagged for row in rows):
        stable = False
    elif not positive:
        stable = True  # inequality holds with C = 0 at every scale
    elif len(positive) < len(defined):
        stable = False  # zero and positive fitted constants cannot be within a factor 2
    else:
        stable = max(positive) / min(positive) <= 2.0
    return RenormTable(rows=tuple(rows), stable=stable, inclusion_violations=violations)


@dataclass(frozen=True)
class BracketResult:
    """Finite-scale bisection bracket for the crossing-threshold intensity."""

    lam_lo: float
    lam_hi: float
    r_probe: float
    threshold: float
    never_crosses: bool
    crosses_below_lo: bool
    evaluations: tuple  # (intensity, Estimate), in evaluation order
    note: str

    def lines(self):
        out = [
            f"bracket: [{self.lam_lo:.6g}, {self.lam_hi:.6g}]  ({self.note})",
            f"threshold p = {self.threshold:g} on the annulus-crossing event at r = {self.r_probe:.6g}",
        ]
        if self.never_crosses:
            out.append("flag: crossing probability never reaches the threshold on the search range")
        if self.crosses_below_lo:
            out.append("flag: crossing probability already exceeds the threshold at the lower search bound")
        for lam, est in self.evaluations:
            out.append(
                f"  intensity={lam:.6g}  hits={est.hits}/{est.trials}  "
                f"p={est.p_hat:.6g} ci=[{est.ci_low:.6g}, {est.ci_high:.6g}]"
            )
        return out


def default_probe_scale(model: ModelSpec, lam_max: float) -> float:
    """Largest scale whose crossing window stays within the point budget at lam_max."""
    if lam_max <= 0:
        raise ConfigurationError("lam_max must be positive")
    d = model.d
    window_factor = crossing_spec(1.0).window(d).radius  # the crossing window's radius over r
    return (BRACKET_POINT_BUDGET / (lam_max * unit_ball_volume(d))) ** (1.0 / d) / window_factor


def crossing_thresholds(model: ModelSpec, lam_max: float, r_probe: float, n: int, seed: int) -> np.ndarray:
    """Each replicate's crossing threshold at r_probe, as a float array of length n.

    Replicate i samples its master cloud at lam_max and builds its graph once.
    Thinned to intensity lam by ``coupling.thin_pair``, the same replicate
    crosses iff its threshold is below lam / lam_max; inf means no thinning
    crosses.
    """
    if model.variant == "generalized":
        raise ContractError("a thinned context-dependent graph is not the induced subgraph of its master graph")
    spec = crossing_spec(r_probe)
    window = spec.window(model.d)

    def decide(seeds, graphs):
        return spec.thresholds_many(graphs, [retention_uniforms(g.cloud, s) for s, g in zip(seeds, graphs)])

    return graph_rows(model, lam_max, window, decide, n, seed)[:, 0]


def bracket_crossing_intensity(
    model: ModelSpec,
    lam_min: float,
    lam_max: float,
    r_probe: float | None = None,
    p_threshold: float = 0.5,
    n: int = 200,
    seed: int = 0,
    k_max: int = BRACKET_MAX_ITER,
) -> BracketResult:
    """Bisect the intensity against p(crossing at r_probe) = p_threshold.

    Every intensity is realized by thinning the same master clouds (sampled
    at lam_max), so per replicate the crossing indicator is nondecreasing in
    the intensity.  Each replicate samples and builds its master graph once
    and reduces it to its crossing threshold (``EventSpec.thresholds_many``
    of its retention uniforms); the thinned graph at lam crosses iff the
    threshold is below lam / lam_max, the strict comparison thin_pair makes.
    Each visited intensity is then a count over the n thresholds.  Results
    are labeled as a finite-scale proxy: the bracketed quantity depends on
    r_probe.
    """
    if model.variant == "generalized":
        raise ContractError("bisection needs intensity-monotone crossing probabilities")
    if not (0 <= lam_min < lam_max):
        raise ConfigurationError("need 0 <= lam_min < lam_max")
    if not (0 < p_threshold < 1):
        raise ConfigurationError("threshold must be in (0, 1)")
    if r_probe is None:
        r_probe = default_probe_scale(model, lam_max)
    thresholds = crossing_thresholds(model, lam_max, r_probe, n, seed)
    evaluations = []

    def estimate_at(lam: float) -> Estimate:
        est = fold(thresholds[:, None] < lam / lam_max)[0]
        evaluations.append((lam, est))
        return est

    never_crosses = bool(estimate_at(lam_max).ci_high < p_threshold)
    crosses_below_lo = not never_crosses and bool(estimate_at(lam_min).ci_low > p_threshold)
    if never_crosses:
        lo = hi = lam_max
    elif crosses_below_lo:
        lo = hi = lam_min
    else:
        lo, hi = lam_min, lam_max
        for _ in range(k_max):
            mid = 0.5 * (lo + hi)
            est = estimate_at(mid)
            if est.ci_low > p_threshold:
                hi = mid
            elif est.ci_high < p_threshold:
                lo = mid
            else:
                # the CI straddles the threshold: more replicates, not more
                # bisection steps, would be needed to resolve further
                break
    return BracketResult(
        lam_lo=lo,
        lam_hi=hi,
        r_probe=r_probe,
        threshold=p_threshold,
        never_crosses=never_crosses,
        crosses_below_lo=crosses_below_lo,
        evaluations=tuple(evaluations),
        note=f"finite-scale proxy at r = {r_probe:.6g}",
    )
