"""Connection models for marked point clouds.

Three variants:

* ``boolean``: points carry radii R(u) derived from the mark; x and y connect
  iff |x-y| < R_x + R_y.
* ``classical``: pairwise probability profile(kernel(W_x, W_y) * |x-y|^d / beta)
  with weights W = u^{-1/(tau-1)}.  The probability depends only on the two
  endpoints, so edges can be coupled across intensities.
* ``generalized``: a classical base probability damped by the surrounding
  configuration (demo rule: factor damping_factor per context point within
  damping_radius of the pair midpoint).

``mark_averaged_connection`` integrates the mark dependence out, giving the
radial function phibar that all Campbell-formula oracles are built on.  For a
classical model phibar(rho) = E[profile(G s)] with s = rho^d / beta and
G = g(W_1, W_2), which is the survival function S(y) = P(1/G >= y)
integrated against the profile's decrease: S(s / theta) for an indicator
profile, one fixed composite rule in ln y for a polynomial or custom one.  S
is closed form for the product and min kernels; for the sum kernel it is the
survival of a sum of two Paretos, which is also the Pareto boolean model's
P(R_1 + R_2 > rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .ppp import sphere_surface
from .quadrature import DIVERGENT, FINITE, _log_rule, _unit_rule, radial_integral
from .rng import substream


def weight_from_mark(u, tau: float):
    """Pareto weight W = u^{-1/(tau-1)}; W > 1 for u < 1, tail exponent tau-1."""
    if tau <= 1.0:
        raise ConfigurationError(f"weight exponent tau must exceed 1, got {tau}")
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ConfigurationError("marks must lie strictly in (0,1)")
    out = u ** (-1.0 / (tau - 1.0))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Profile:
    """Nonincreasing [0,1]-valued function of the dimensionless argument t.

    kinds: indicator(theta) = 1{t <= theta}; polynomial(delta) = min(1, t^-delta)
    with delta > 1; custom = linear interpolation of tabulated knots, 0 beyond
    the last knot.
    """

    kind: str
    theta: float = 1.0
    delta: float = 2.0
    knots: np.ndarray | None = None
    heights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "indicator":
            if not (self.theta > 0 and math.isfinite(self.theta)):
                raise ConfigurationError(f"indicator threshold must be positive, got {self.theta}")
        elif self.kind == "polynomial":
            if not (self.delta > 1 and math.isfinite(self.delta)):
                raise ConfigurationError(f"polynomial decay needs delta > 1, got {self.delta}")
        elif self.kind == "custom":
            knots = np.asarray(self.knots, dtype=float).reshape(-1)
            heights = np.asarray(self.heights, dtype=float).reshape(-1)
            if knots.size < 1 or knots.shape != heights.shape:
                raise ConfigurationError("custom profile needs matching knot/height arrays")
            # NaN passes every comparison below, and an infinite knot every one but this
            if not (np.isfinite(knots).all() and np.isfinite(heights).all()):
                raise ConfigurationError("custom knots and heights must be finite")
            if np.any(knots <= 0) or np.any(np.diff(knots) <= 0):
                raise ConfigurationError("custom knots must be positive and strictly increasing")
            if np.any(heights < 0) or np.any(heights > 1) or np.any(np.diff(heights) > 0):
                raise ConfigurationError("custom heights must be nonincreasing within [0,1]")
            knots.flags.writeable = False
            heights.flags.writeable = False
            object.__setattr__(self, "knots", knots)
            object.__setattr__(self, "heights", heights)
        else:
            raise ConfigurationError(f"unknown profile kind {self.kind!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "indicator":
            out = np.where(t <= self.theta, 1.0, 0.0)
        elif self.kind == "polynomial":
            # every t <= 0 is clamped to 1e-300, whose power is >= 1, so the min gives 1 there
            out = np.maximum(t, 1e-300, out=np.empty_like(t))
            with np.errstate(over="ignore"):
                np.power(out, -self.delta, out=out)
            np.minimum(out, 1.0, out=out)
        else:
            out = np.interp(t, self.knots, self.heights, left=self.heights[0], right=0.0)
            out = np.where(t > self.knots[-1], 0.0, out)
        return float(out) if out.ndim == 0 else out

    @property
    def support(self) -> float:
        """Argument beyond which the value is zero (inf for polynomial decay).

        A custom profile interpolates down to its first zero height, so its
        support ends at that knot, not at the last knot with a nonzero height.
        """
        if self.kind == "indicator":
            return self.theta
        if self.kind == "polynomial":
            return math.inf
        nonzero = np.count_nonzero(self.heights > 0)  # heights are nonincreasing
        if nonzero == 0:
            return 0.0
        return float(self.knots[min(nonzero, self.knots.size - 1)])

    @property
    def corner_args(self) -> tuple[float, ...]:
        """Arguments where the profile has kinks or jumps (quadrature hints)."""
        if self.kind == "indicator":
            return (self.theta,)
        if self.kind == "polynomial":
            return (1.0,)
        return tuple(float(k) for k in self.knots)


def indicator_profile(theta: float = 1.0) -> Profile:
    return Profile(kind="indicator", theta=theta)


def polynomial_profile(delta: float) -> Profile:
    return Profile(kind="polynomial", delta=delta)


def custom_profile(knots, heights) -> Profile:
    return Profile(kind="custom", knots=np.asarray(knots, float), heights=np.asarray(heights, float))


_KERNEL_FORMULAS = {
    "plain": "g(w,v) = 1",
    "product": "g(w,v) = 1/(w*v)",
    "sum": "g(w,v) = 1/(w+v)",
    "min": "g(w,v) = 1/max(w,v)",
}
# the kind names a config may give, in the order its error messages list them
MODEL_VARIANTS = ("boolean", "classical", "generalized")
KERNEL_KINDS = tuple(_KERNEL_FORMULAS)
PROFILE_KINDS = ("indicator", "polynomial", "custom")
RADIUS_KINDS = ("constant", "pareto")
# the largest Pareto exponent, radius shape or weight tau - 1: past it 2^exponent,
# the bound of the sum survival's integrand, leaves the float range
_MAX_PARETO_SHAPE = 1000.0


@dataclass(frozen=True)
class Kernel:
    """Symmetric positive weight kernel g(w,v) applied to Pareto weights."""

    kind: str

    def __post_init__(self):
        if self.kind not in _KERNEL_FORMULAS:
            raise ConfigurationError(f"unknown kernel kind {self.kind!r}")

    def __call__(self, w, v):
        w = np.asarray(w, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.kind == "plain":
            out = np.ones(np.broadcast(w, v).shape)
        elif self.kind == "product":
            out = 1.0 / (w * v)
        elif self.kind == "sum":
            out = 1.0 / (w + v)
        else:
            out = 1.0 / np.maximum(w, v)
        return float(out) if out.ndim == 0 else out

    @property
    def formula(self) -> str:
        return _KERNEL_FORMULAS[self.kind]

    @property
    def uses_weights(self) -> bool:
        return self.kind != "plain"

    @property
    def floor(self) -> float:
        """Least value of 1/g over weights >= 1: w + v >= 2 for the sum kernel, 1 otherwise."""
        return 2.0 if self.kind == "sum" else 1.0


@dataclass(frozen=True)
class RadiusLaw:
    """Radius attached to a mark for boolean models.

    constant: R(u) = radius.  pareto: R(u) = scale * u^{-1/shape}, so R has a
    Pareto(shape) tail and E[R^p] is finite iff p < shape.
    """

    kind: str
    radius: float = 1.0
    shape: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind == "constant":
            if not (self.radius > 0 and math.isfinite(self.radius)):
                raise ConfigurationError(f"constant radius must be positive, got {self.radius}")
        elif self.kind == "pareto":
            if not 0 < self.shape <= _MAX_PARETO_SHAPE:
                raise ConfigurationError(f"pareto shape must lie in (0, {_MAX_PARETO_SHAPE:g}], got {self.shape}")
            if not (self.scale > 0 and math.isfinite(self.scale)):
                raise ConfigurationError(f"pareto scale must be positive, got {self.scale}")
        else:
            raise ConfigurationError(f"unknown radius law {self.kind!r}")

    def radii(self, marks):
        marks = np.asarray(marks, dtype=float)
        if self.kind == "constant":
            out = np.full(marks.shape, self.radius)
        else:
            with np.errstate(over="ignore"):  # a radius past the float range is inf
                out = self.scale * marks ** (-1.0 / self.shape)
        return float(out) if out.ndim == 0 else out

    def reach(self, marks_a, marks_b) -> np.ndarray:
        """R(u_a) + R(u_b), below which two balls meet; inf past the float range."""
        with np.errstate(over="ignore"):
            return np.asarray(self.radii(marks_a) + self.radii(marks_b))

    @property
    def bound(self) -> float:
        return self.radius if self.kind == "constant" else math.inf


@dataclass(frozen=True)
class ModelSpec:
    """A connection model in dimension d.

    variant selects which parameter block applies: boolean uses radius_law;
    classical uses kernel/profile/tau/beta; generalized wraps a classical base
    with the midpoint-damping rule.
    """

    variant: str
    d: int
    radius_law: RadiusLaw | None = None
    kernel: Kernel | None = None
    profile: Profile | None = None
    tau: float = 2.0
    beta: float = 1.0
    base: "ModelSpec | None" = None
    damping_radius: float = 1.0
    damping_factor: float = 0.5

    def __post_init__(self):
        if not (isinstance(self.d, int) and 1 <= self.d <= 8):
            raise ConfigurationError(f"dimension must be an integer in 1..8, got {self.d}")
        if self.variant == "boolean":
            if self.radius_law is None:
                raise ConfigurationError("boolean model needs a radius law")
        elif self.variant == "classical":
            if self.kernel is None or self.profile is None:
                raise ConfigurationError("classical model needs kernel and profile")
            if not (self.beta > 0 and math.isfinite(self.beta)):
                raise ConfigurationError(f"amplitude beta must be positive, got {self.beta}")
            if self.kernel.uses_weights and not 1.0 < self.tau <= 1.0 + _MAX_PARETO_SHAPE:
                raise ConfigurationError(f"weight kernels need 1 < tau <= {1.0 + _MAX_PARETO_SHAPE:g}, got {self.tau}")
        elif self.variant == "generalized":
            if self.base is None or self.base.variant != "classical":
                raise ConfigurationError("generalized model needs a classical base")
            if self.base.d != self.d:
                raise ConfigurationError("generalized base dimension mismatch")
            if not (self.damping_radius > 0 and math.isfinite(self.damping_radius)):
                raise ConfigurationError("damping radius must be positive")
            if not (0.0 < self.damping_factor <= 1.0):
                raise ConfigurationError("damping factor must lie in (0,1]")
        else:
            raise ConfigurationError(f"unknown model variant {self.variant!r}")

    @property
    def summary(self) -> str:
        if self.variant == "boolean":
            law = self.radius_law
            desc = f"R = {law.radius:g}" if law.kind == "constant" else (
                f"R(u) = {law.scale:g} * u^(-1/{law.shape:g})"
            )
            return f"boolean d={self.d}, connect iff |x-y| < R_x + R_y, {desc}"
        if self.variant == "classical":
            prof = self.profile
            if prof.kind == "indicator":
                pdesc = f"indicator(theta={prof.theta:g})"
            elif prof.kind == "polynomial":
                pdesc = f"min(1, t^-{prof.delta:g})"
            else:
                pdesc = f"custom({prof.knots.size} knots)"
            tdesc = f", tau={self.tau:g}" if self.kernel.uses_weights else ""
            return (
                f"classical d={self.d}, p = rho({self.kernel.formula.split(' = ')[1]}"
                f" * r^{self.d} / {self.beta:g}), rho = {pdesc}{tdesc}"
            )
        return (
            f"generalized d={self.d}, base [{self.base.summary}] damped by "
            f"{self.damping_factor:g}^(#context points within {self.damping_radius:g} of the midpoint)"
        )


def boolean_model(d: int, radius_law: RadiusLaw) -> ModelSpec:
    return ModelSpec(variant="boolean", d=d, radius_law=radius_law)


def classical_model(d: int, kernel: Kernel, profile: Profile, tau: float = 2.0, beta: float = 1.0) -> ModelSpec:
    return ModelSpec(variant="classical", d=d, kernel=kernel, profile=profile, tau=tau, beta=beta)


def generalized_model(base: ModelSpec, damping_radius: float = 1.0, damping_factor: float = 0.5) -> ModelSpec:
    return ModelSpec(
        variant="generalized",
        d=base.d,
        base=base,
        damping_radius=damping_radius,
        damping_factor=damping_factor,
    )


def _kernel_value(model: ModelSpec, marks_a, marks_b) -> np.ndarray:
    """Kernel value g(W_a, W_b) of a classical model, in the broadcast shape of the two mark arrays."""
    if not model.kernel.uses_weights:
        return np.ones(np.broadcast(marks_a, marks_b).shape)
    return np.asarray(model.kernel(weight_from_mark(marks_a, model.tau), weight_from_mark(marks_b, model.tau)))


def pairwise_prob(model: ModelSpec, marks_a, marks_b, dists):
    """Vectorized two-point connection probability (boolean/classical only).

    For a generalized model this is the context-free base probability; the
    graph builder applies the damping factor on top of it.
    """
    if model.variant == "generalized":
        return pairwise_prob(model.base, marks_a, marks_b, dists)
    marks_a = np.asarray(marks_a, dtype=float)
    marks_b = np.asarray(marks_b, dtype=float)
    dists = np.asarray(dists, dtype=float)
    if model.variant == "boolean":
        out = np.where(dists < model.radius_law.reach(marks_a, marks_b), 1.0, 0.0)
        return float(out) if out.ndim == 0 else out
    scaled = dists**model.d
    if model.kernel.uses_weights:
        scaled = _kernel_value(model, marks_a, marks_b) * scaled
    else:  # g = 1 leaves the product unchanged, but not its broadcast shape
        shape = np.broadcast_shapes(marks_a.shape, marks_b.shape, scaled.shape)
        if scaled.shape != shape:
            scaled = np.broadcast_to(scaled, shape)
    return model.profile(scaled / model.beta)


def pair_range(model: ModelSpec, marks_a, marks_b):
    """Vectorized largest distance at which ``pairwise_prob`` can be positive.

    Boolean: R(u_a) + R(u_b).  Classical: (support * beta / g(w_a, w_b))^(1/d),
    infinite for polynomial profiles.  Generalized: the base model's range.
    The range does not grow with either mark, so the range at the smallest
    marks of two sets bounds every pair drawn from them.
    """
    if model.variant == "generalized":
        return pair_range(model.base, marks_a, marks_b)
    marks_a = np.asarray(marks_a, dtype=float)
    marks_b = np.asarray(marks_b, dtype=float)
    if model.variant == "boolean":
        out = model.radius_law.reach(marks_a, marks_b)
    else:
        g = _kernel_value(model, marks_a, marks_b)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (model.profile.support * model.beta / g) ** (1.0 / model.d)
        # g underflows to 0 only for weights beyond float range: 0/0 is an all-zero profile
        out = np.nan_to_num(out, nan=0.0, posinf=math.inf)
    return float(out) if out.ndim == 0 else out


def max_range(model: ModelSpec) -> float:
    """Distance beyond which the connection probability is identically zero.

    Infinite when no such deterministic cutoff exists (heavy-tailed radii or
    kernels that can be arbitrarily small).
    """
    if model.variant == "boolean":
        return 2.0 * model.radius_law.bound
    if model.variant == "generalized":
        return max_range(model.base)
    if model.kernel.uses_weights:
        return math.inf
    return (model.profile.support * model.beta) ** (1.0 / model.d)


_SUM_RULE = _unit_rule(32)
_RHO_BLOCK = 16  # rho values per vectorised block, which bounds the node arrays


def _pareto_sum_survival(alpha: float, y) -> np.ndarray:
    """P(W_1 + W_2 > y) for independent Pareto(alpha) variables W >= 1.

    Splitting on the smaller variable (Ramsay 2006) gives (y/2)^{-2 alpha} +
    2 y^{-alpha} int_0^{ln(y/2)} alpha e^{-alpha u} (1 - e^u / y)^{-alpha} du.
    The integrand is smooth and at most alpha 2^alpha e^{-alpha u}, so one
    Gauss-Legendre rule on [0, min(ln(y/2), 40/alpha)] evaluates it.
    """
    y = np.maximum(np.asarray(y, dtype=float), 2.0)
    top = np.minimum(np.log(0.5 * y), 40.0 / alpha)
    u = top[..., None] * _SUM_RULE[0]
    f = np.exp(-alpha * (u + np.log1p(-np.exp(u) / y[..., None])))
    return (0.5 * y) ** (-2.0 * alpha) + 2.0 * alpha * y**-alpha * top * (f @ _SUM_RULE[1])


def _kernel_survival(model: ModelSpec, y) -> np.ndarray:
    """S(y) = P(1/G >= y) for G = g(W_1, W_2) and Pareto(tau - 1) weights W."""
    alpha = model.tau - 1.0
    if model.kernel.kind == "sum":
        return _pareto_sum_survival(alpha, y)
    ly = np.log(np.maximum(y, 1.0))
    x = np.exp(-alpha * ly)
    if model.kernel.kind == "product":  # ln W_1 + ln W_2 is Gamma(2, alpha)
        return x * (1.0 + alpha * ly)
    return x * (2.0 - x)  # min kernel: P(max(W_1, W_2) >= y)


def _classical_phibar(model: ModelSpec, s: np.ndarray) -> np.ndarray:
    """E[profile(G s)] as the integral of S(s/t) d(-profile)(t), for s = rho^d / beta > 0."""
    prof = model.profile
    if not model.kernel.uses_weights:
        return prof(s)
    if prof.kind == "indicator":  # one atom at theta
        return _kernel_survival(model, s / prof.theta)
    floor = model.kernel.floor  # S = 1 up to it
    if prof.kind == "polynomial":  # density delta t^{-delta-1} on t > 1, and y = s/t
        top = np.maximum(s, floor)
        y, w = _log_rule(floor, top)
        tail = np.sum(w * (y / top[:, None]) ** prof.delta * _kernel_survival(model, y), axis=-1)
        return (floor / top) ** prof.delta + prof.delta * tail
    # custom: the slope of each linear piece, split where S(s/t) reaches 1, and the last knot's jump
    a, b = prof.knots[:-1], prof.knots[1:]
    cut = np.clip(s[:, None] / floor, a, b)
    t, w = _log_rule(a, cut)
    below = np.sum(w * t * _kernel_survival(model, s[:, None, None] / t), axis=-1)
    pieces = -np.diff(prof.heights) / (b - a) * (b - cut + below)
    return pieces.sum(axis=-1) + prof.heights[-1] * _kernel_survival(model, s / prof.knots[-1])


def _phibar(model: ModelSpec, rho: np.ndarray) -> np.ndarray:
    if model.variant == "classical":
        return _classical_phibar(model, rho**model.d / model.beta)
    law = model.radius_law
    if law.kind == "constant":
        return np.where(rho < 2.0 * law.radius, 1.0, 0.0)
    return _pareto_sum_survival(law.shape, rho / law.scale)  # P(R_1 + R_2 > rho), R = scale * W


def mark_averaged_connection(model: ModelSpec, rho):
    """phibar(rho): the connection probability averaged over both marks.

    Vectorised over a rho array.  Only defined for boolean/classical models
    (a generalized model's average depends on the ambient intensity).
    """
    if model.variant == "generalized":
        raise ContractError("mark average is undefined for generalized models; average the base instead")
    flat = np.asarray(rho, dtype=float).reshape(-1)
    out = np.where(np.isnan(flat), np.nan, 1.0)  # phibar = 1 at rho <= 0
    pos = np.flatnonzero(flat > 0.0)
    for lo in range(0, pos.size, _RHO_BLOCK):
        idx = pos[lo : lo + _RHO_BLOCK]
        out[idx] = np.clip(_phibar(model, flat[idx]), 0.0, 1.0)
    return float(out[0]) if np.ndim(rho) == 0 else out.reshape(np.shape(rho))


def phibar_breakpoints(model: ModelSpec) -> list[float]:
    """Distances where the mark-averaged connection may kink (quadrature hints)."""
    if model.variant == "generalized":
        return phibar_breakpoints(model.base)
    if model.variant == "boolean":
        law = model.radius_law
        return [2.0 * law.radius] if law.kind == "constant" else [2.0 * law.scale]
    # 1/G >= floor, so the profile argument G s stays below a corner c until s = floor c
    corners = [c for c in model.profile.corner_args if math.isfinite(c) and c > 0]
    return sorted({(model.kernel.floor * c * model.beta) ** (1.0 / model.d) for c in corners})


@dataclass(frozen=True)
class FrameworkReport:
    """Outcome of the structural checks a connection model must satisfy."""

    symmetric: bool
    monotone: bool
    in_range: bool
    integral_value: float | None
    integral_verdict: str  # finite | divergent | inconclusive | skipped
    tail_exponent: float | None
    model_summary: str
    n_samples: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.symmetric and self.monotone and self.in_range and self.integral_verdict != "inconclusive"

    def lines(self) -> list[str]:
        out = [
            f"model: {self.model_summary}",
            f"symmetry over {self.n_samples} random mark/distance triples: "
            + ("pass" if self.symmetric else "FAIL"),
            f"distance monotonicity over {self.n_samples} random rays: "
            + ("pass" if self.monotone else "FAIL"),
            "probabilities within [0,1]: " + ("pass" if self.in_range else "FAIL"),
        ]
        if self.integral_verdict == "skipped":
            out.append("integrability: skipped")
        elif self.integral_verdict == DIVERGENT:
            out.append(
                "integrability: DIVERGENT"
                + (f" (tail exponent {self.tail_exponent:.4g})" if self.tail_exponent is not None else "")
            )
        elif self.integral_verdict == FINITE:
            out.append(f"integrability: finite, integral = {self.integral_value:.9g}")
        else:
            out.append(f"integrability: inconclusive ({self.note})")
        return out


def validate_framework(model: ModelSpec, n_samples: int = 10_000, seed: int = 0) -> FrameworkReport:
    """Check symmetry, distance monotonicity, range, and integrability of the model's ``pairwise_prob``.

    The three sampled checks compare pairwise_prob at n_samples random
    (marks, distance) draws: swapped marks, a distance up to ten times
    larger, and the range [0, 1].  The integral of phibar over R^d is
    computed only when all three pass; otherwise it is reported as skipped.
    """
    if model.variant == "generalized":
        raise ContractError("validate the classical base of a generalized model")
    if n_samples < 1:
        raise ConfigurationError(f"need at least one sample, got {n_samples}")
    gen = substream(seed, "framework")
    scale = max(phibar_breakpoints(model) or [1.0])
    s = gen.uniform(size=n_samples).clip(1e-12, 1 - 1e-12)
    t = gen.uniform(size=n_samples).clip(1e-12, 1 - 1e-12)
    r = scale * np.exp(gen.uniform(math.log(1e-3), math.log(1e3), size=n_samples))
    p_ab = np.asarray(pairwise_prob(model, s, t, r), dtype=float)
    p_ba = np.asarray(pairwise_prob(model, t, s, r), dtype=float)
    symmetric = bool(np.array_equal(p_ab, p_ba))
    r2 = r * np.exp(gen.uniform(math.log(1.0), math.log(10.0), size=n_samples))
    p_far = np.asarray(pairwise_prob(model, s, t, r2), dtype=float)
    monotone = bool(np.all(p_ab >= p_far))
    in_range = bool(np.all((p_ab >= 0) & (p_ab <= 1)) and np.all((p_far >= 0) & (p_far <= 1)))
    checks = dict(symmetric=symmetric, monotone=monotone, in_range=in_range, n_samples=n_samples)
    if not (symmetric and monotone and in_range):
        return FrameworkReport(
            **checks, integral_value=None, integral_verdict="skipped", tail_exponent=None, model_summary=model.summary
        )
    res = radial_integral(
        lambda rho: mark_averaged_connection(model, rho),
        model.d,
        support=max_range(model),
        breakpoints=phibar_breakpoints(model),
    )
    value = sphere_surface(model.d) * res.value if math.isfinite(res.value) else res.value
    return FrameworkReport(
        **checks,
        integral_value=value,
        integral_verdict=res.verdict,
        tail_exponent=res.tail_exponent,
        model_summary=model.summary,
        note=res.note,
    )


def catalog(d: int = 2) -> dict[str, ModelSpec]:
    """Named boolean/classical models exercising every kernel and profile kind.

    The heavy-tail boolean entry has radius tail shape d - 1/2, so the d-th
    radius moment diverges and long edges persist at every scale; the
    fixed-radius entry is its bounded counterpart.
    """
    heavy_shape = max(d - 0.5, 0.4)
    return {
        "boolean-fixed": boolean_model(d, RadiusLaw(kind="constant", radius=0.5)),
        "boolean-heavy": boolean_model(d, RadiusLaw(kind="pareto", shape=heavy_shape, scale=0.25)),
        "plain-indicator": classical_model(d, Kernel("plain"), indicator_profile(1.0)),
        "plain-poly": classical_model(d, Kernel("plain"), polynomial_profile(1.5)),
        "product-indicator": classical_model(d, Kernel("product"), indicator_profile(1.0), tau=2.5),
        "sum-poly": classical_model(d, Kernel("sum"), polynomial_profile(2.0), tau=3.0),
        "min-indicator": classical_model(d, Kernel("min"), indicator_profile(1.0), tau=2.0),
    }


def demo_generalized(d: int = 2) -> ModelSpec:
    """The context-damped demo model over a plain indicator base."""
    return generalized_model(
        classical_model(d, Kernel("plain"), indicator_profile(1.0)),
        damping_radius=1.0,
        damping_factor=0.5,
    )
