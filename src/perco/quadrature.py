"""Radial integration with tail extrapolation, plus ball geometry.

The recurring quantity is I = integral of rho^{d-1} * f(rho) over [lower, inf)
for a nonincreasing nonnegative f.  perco has one quadrature rule, a fixed
composite Gauss-Legendre rule: ``_log_rule`` spreads its panels evenly in
ln rho, and the mark average in ``models`` integrates over the weights with
it too.  Finite-support integrands are summed segment by segment, one array
call of f per segment; infinite tails are extrapolated by a power-law fit
over the last decade, with an explicit divergence / inconclusive verdict
instead of silent truncation.  ``lens_volume``, the overlap of two balls,
takes rho arrays as well; with equal radii R it is the set covariance of
the window B(0, R), which the Campbell totals integrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigurationError
from .ppp import unit_ball_volume

FINITE = "finite"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

_FIT_POINTS = 17
_FIT_RESIDUAL_TOL = 0.05
# fitted exponents this close to the -1 boundary cannot be trusted either way
_CRITICAL_BAND = 0.05
_FP_SLACK = 1e-6
_ZERO_PANELS = 4  # panels in rho on a segment that starts at 0
_LOG_PANELS = 4  # panels per unit of ln rho on every other segment


@dataclass(frozen=True)
class RadialIntegral:
    """Value plus an honesty verdict for a radial tail integral."""

    value: float
    verdict: str  # finite | divergent | inconclusive
    tail_exponent: float | None = None
    note: str = ""


def _segments(lower: float, upper: float, breakpoints) -> list[float]:
    pts = [lower, upper]
    for b in breakpoints:
        if lower < b < upper:
            pts.append(float(b))
    return sorted(set(pts))


def _unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_PANEL_RULE = _unit_rule(10)


def _panels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """_PANEL_RULE repeated on n equal panels of [0, 1]."""
    x = ((np.arange(n)[:, None] + _PANEL_RULE[0]) / n).reshape(-1)
    return x, np.tile(_PANEL_RULE[1] / n, n)


def _log_rule(lo, hi, per_unit: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights w such that sum(w * f(y), axis=-1) integrates f(y) dy/y over [lo, hi].

    Composite Gauss-Legendre in ln y with per_unit panels for every unit the
    widest interval has; lo and hi broadcast, the nodes run along a new last axis.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    span = np.log(np.asarray(hi, dtype=float)[..., None] / lo)
    x, w = _panels(per_unit * max(1, math.ceil(np.max(span, initial=0.0))))
    return lo * np.exp(span * x), span * w


def _segment_sum(h, pts: list[float]) -> float:
    """Integral of h over [pts[0], pts[-1]], one fixed rule and one call of h per segment.

    A segment from 0 gets _ZERO_PANELS panels in rho; every other one gets
    _log_rule panels in ln rho, which follow a power-law decay over decades.
    """
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if a == 0.0:
            x, w = _panels(_ZERO_PANELS)
            rho, w = b * x, b * w
        else:
            rho, w = _log_rule(a, b, per_unit=_LOG_PANELS)
            w = w * rho  # d rho = rho d(ln rho)
        total += float(w @ h(rho))
    return total


def radial_integral(
    fn,
    d: int,
    lower: float = 0.0,
    support: float = math.inf,
    breakpoints=(),
) -> RadialIntegral:
    """Integral of rho^{d-1} fn(rho) drho over [lower, support or infinity).

    fn maps an array of rho to an array of values and must be nonnegative
    and nonincreasing.  Each segment between consecutive breakpoints is
    summed on a fixed composite Gauss-Legendre rule, so fn should be smooth
    between its breakpoints.  For infinite support the integral runs up to
    rho_max = 1e3 * max(1, lower, finite breakpoints), and the tail beyond
    is extrapolated from a log-log fit on the decade below rho_max: fitted
    exponent >= -1 gives a divergent verdict, a poor fit gives inconclusive
    (the finite part is still reported).
    """
    if lower < 0:
        raise ConfigurationError(f"lower limit must be >= 0, got {lower}")

    def h(rho):
        return rho ** (d - 1) * fn(rho)

    if math.isfinite(support):
        if support <= lower:
            return RadialIntegral(value=0.0, verdict=FINITE)
        value = _segment_sum(h, _segments(lower, support, breakpoints))
        return RadialIntegral(value=value, verdict=FINITE)

    rho_max = 1e3 * max([1.0, lower, *[b for b in breakpoints if math.isfinite(b)]])
    body = _segment_sum(h, _segments(lower, rho_max, breakpoints))

    grid = np.geomspace(rho_max / 10.0, rho_max, _FIT_POINTS)
    hv = h(grid)
    if hv[-1] <= 0.0:
        # fn is nonincreasing, so a zero at rho_max means the tail vanishes
        return RadialIntegral(value=body, verdict=FINITE)
    if np.any(hv <= 0.0):
        return RadialIntegral(
            value=body, verdict=INCONCLUSIVE, note="integrand vanishes inside the fit decade"
        )
    logr = np.log(grid)
    logh = np.log(hv)
    slope, intercept = np.polyfit(logr, logh, 1)
    resid = float(np.max(np.abs(logh - (slope * logr + intercept))))
    if resid > _FIT_RESIDUAL_TOL:
        return RadialIntegral(
            value=body,
            verdict=INCONCLUSIVE,
            tail_exponent=float(slope),
            note=f"tail not power-law within tolerance (max log-residual {resid:.3g})",
        )
    if slope >= -1.0 - _FP_SLACK:
        return RadialIntegral(
            value=math.inf,
            verdict=DIVERGENT,
            tail_exponent=float(slope),
            note=f"fitted tail exponent {slope:.4g} >= -1",
        )
    if slope > -1.0 - _CRITICAL_BAND:
        return RadialIntegral(
            value=body,
            verdict=INCONCLUSIVE,
            tail_exponent=float(slope),
            note=f"fitted tail exponent {slope:.4g} too close to the -1 boundary to decide",
        )
    h_end = math.exp(intercept + slope * logr[-1])
    tail = h_end * rho_max / (-slope - 1.0)
    return RadialIntegral(value=body + tail, verdict=FINITE, tail_exponent=float(slope))


def _cap_volume(d: int, radius: float, a):
    """Volume of the part of B(0, radius) beyond a hyperplane at signed distance a (an array)."""
    full = unit_ball_volume(d) * radius**d
    q = np.minimum(np.square(a / radius), 1.0)  # square, not pow: arrays and scalars round alike
    # plane near the center: the symmetric form keeps a small q exact
    central = 0.5 * full * (1.0 - np.copysign(special.betainc(0.5, (d + 1) / 2.0, q), a))
    cap = 0.5 * full * special.betainc((d + 1) / 2.0, 0.5, 1.0 - q)
    return np.where(q < 0.5, central, np.where(a >= 0.0, cap, full - cap))


def lens_volume(d: int, r1: float, r2: float, rho):
    """Volume of the intersection of balls of radii r1, r2 with centers rho apart.

    Two spherical caps cut off by the radical hyperplane, which lies at
    signed distance (rho^2 + r1^2 - r2^2) / (2 rho) from the first center
    (exactly rho / 2 for equal radii).  Vectorised over a rho array; a
    scalar rho gives a float.
    """
    rho = np.asarray(rho, dtype=float)
    apart = rho >= r1 + r2
    nested = rho <= abs(r1 - r2)
    # where the balls are apart or nested the caps are not used; r1 + r2 keeps them finite
    shift = np.where(apart | nested, r1 + r2, rho)
    a1 = 0.5 * (shift + (r1 - r2) * (r1 + r2) / shift)
    caps = _cap_volume(d, r1, a1) + _cap_volume(d, r2, shift - a1)
    out = np.where(apart, 0.0, np.where(nested, unit_ball_volume(d) * min(r1, r2) ** d, caps))
    return float(out) if out.ndim == 0 else out


def cap_fraction_outside(d: int, s: float, rho: float, R: float) -> float:
    """Fraction of the sphere S(x, rho), |x| = s, lying outside B(0, R)."""
    if rho <= 0.0:
        return 0.0 if s <= R else 1.0
    if s + rho <= R:
        return 0.0
    if d == 1:
        return 0.5 * (float(abs(s + rho) > R) + float(abs(s - rho) > R))
    if s == 0.0:
        return 1.0 if rho > R else 0.0
    if abs(s - rho) >= R:
        # the whole sphere is outside; also keeps 2*s*rho below from underflowing
        return 1.0
    t0 = (R * R - s * s - rho * rho) / (2.0 * s * rho)
    if t0 >= 1.0:
        return 0.0
    if t0 <= -1.0:
        return 1.0
    a = (d - 1) / 2.0
    return 1.0 - float(special.betainc(a, a, 0.5 * (1.0 + t0)))
