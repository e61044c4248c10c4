"""Flat key = value experiment configs.

One assignment per line, dotted keys for grouping ("model.profile.delta =
1.5"), '#' comments, blank lines ignored.  Parsing records the line number of
every key so validation errors point at the offending line.  Keys are tracked
as they are consumed; anything left over after a runner has read its
parameters is reported as unknown or inapplicable (ensure_all_used), before
any sampling starts.  That is the one rule for keys a subcommand does not
read: a model.* or event.* key that the chosen variant, profile, radius law
or event kind does not take is left over like a misspelt one.  A
ConfigurationError from a model, profile, radius-law or event constructor is
re-raised at the lines of the keys that constructor read (ParsedConfig.at).

Each subcommand reads only the run.* keys it uses: run.seed and run.threads
everywhere (read_seed), run.trials in the seven sampling subcommands
(read_run_settings), run.intensity wherever one intensity is sampled
(read_intensity), and run.intensities, run.confidence and run.margin in
estimate alone.  Any other run.* key is reported like an unknown key.
run.threads is accepted and validated (at least 1), but does not change how
or where replicates run: they all run in the calling thread.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .models import (
    KERNEL_KINDS,
    MODEL_VARIANTS,
    PROFILE_KINDS,
    RADIUS_KINDS,
    Kernel,
    ModelSpec,
    Profile,
    RadiusLaw,
    boolean_model,
    classical_model,
    custom_profile,
    generalized_model,
    indicator_profile,
    polynomial_profile,
)


@dataclass
class ParsedConfig:
    path: str
    values: dict = field(default_factory=dict)
    lines: dict = field(default_factory=dict)
    used: set = field(default_factory=set)

    def _where(self, keys) -> str:
        lines = sorted(self.lines[key] for key in keys if key in self.lines)
        return f"{self.path}:{','.join(map(str, lines))}" if lines else self.path

    def error(self, key: str, message: str) -> ConfigurationError:
        return ConfigurationError(f"{self._where((key,))}: {message}")

    @contextmanager
    def at(self, *keys: str):
        """Re-raise a ConfigurationError from the block at the lines of ``keys`` that are set."""
        try:
            yield
        except ConfigurationError as exc:
            raise ConfigurationError(f"{self._where(keys)}: {exc}") from None

    def has(self, key: str) -> bool:
        return key in self.values

    def _raw(self, key: str, default, required: bool):
        if key not in self.values:
            if required:
                raise ConfigurationError(f"{self.path}: missing required key '{key}'")
            return default, False
        self.used.add(key)
        return self.values[key], True

    def get_str(self, key: str, default: str | None = None, choices=None, required: bool = False):
        value, present = self._raw(key, default, required)
        if present and choices is not None and value not in choices:
            raise self.error(key, f"'{key}' must be one of {', '.join(choices)}; got '{value}'")
        return value

    def _parsed(self, key: str, default, required: bool, convert, expects: str):
        value, present = self._raw(key, default, required)
        if not present:
            return value
        try:
            return convert(value)
        except ValueError:
            raise self.error(key, f"'{key}' expects {expects}; got '{value}'") from None

    def get_float(self, key: str, default: float | None = None, required: bool = False):
        return self._parsed(key, default, required, float, "a number")

    def get_int(self, key: str, default: int | None = None, required: bool = False):
        return self._parsed(key, default, required, int, "an integer")

    def get_floats(self, key: str, default=None, required: bool = False):
        return self._parsed(
            key, default, required, lambda text: [float(tok) for tok in text.split()], "space-separated numbers"
        )

    def ensure_all_used(self):
        for key in self.values:
            if key not in self.used:
                raise self.error(key, f"unknown or inapplicable key '{key}'")


def parse_config_text(text: str, path: str = "<config>") -> ParsedConfig:
    cfg = ParsedConfig(path=path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigurationError(f"{path}:{lineno}: missing key before '='")
        if not value:
            raise ConfigurationError(f"{path}:{lineno}: missing value for '{key}'")
        if key in cfg.values:
            first = cfg.lines[key]
            raise ConfigurationError(f"{path}:{lineno}: duplicate key '{key}' (first set on line {first})")
        cfg.values[key] = value
        cfg.lines[key] = lineno
    return cfg


def parse_config_file(path: str) -> ParsedConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, path=path)


def _build_profile(cfg: ParsedConfig) -> Profile:
    kind = cfg.get_str("model.profile.kind", choices=PROFILE_KINDS, required=True)
    if kind == "indicator":
        theta = cfg.get_float("model.profile.theta", default=1.0)
        with cfg.at("model.profile.theta"):
            return indicator_profile(theta)
    if kind == "polynomial":
        delta = cfg.get_float("model.profile.delta", required=True)
        with cfg.at("model.profile.delta"):
            return polynomial_profile(delta)
    knots = cfg.get_floats("model.profile.knots", required=True)
    heights = cfg.get_floats("model.profile.heights", required=True)
    if len(knots) != len(heights):
        raise cfg.error("model.profile.heights", "knots and heights must have the same length")
    with cfg.at("model.profile.knots", "model.profile.heights"):
        return custom_profile(knots, heights)


def build_model(cfg: ParsedConfig) -> ModelSpec:
    """Construct and validate the model before anything is sampled.

    A constructor's ConfigurationError is re-raised at the lines of the keys it read.
    """
    variant = cfg.get_str("model.variant", choices=MODEL_VARIANTS, required=True)
    d = cfg.get_int("model.d", required=True)
    if variant == "boolean":
        kind = cfg.get_str("model.radius.kind", choices=RADIUS_KINDS, required=True)
        if kind == "constant":
            radius = cfg.get_float("model.radius.value", required=True)
            with cfg.at("model.radius.value"):
                law = RadiusLaw(kind="constant", radius=radius)
        else:
            shape = cfg.get_float("model.radius.shape", required=True)
            scale = cfg.get_float("model.radius.scale", required=True)
            with cfg.at("model.radius.shape", "model.radius.scale"):
                law = RadiusLaw(kind="pareto", shape=shape, scale=scale)
        with cfg.at("model.d"):
            return boolean_model(d=d, radius_law=law)

    kernel = Kernel(cfg.get_str("model.kernel", choices=KERNEL_KINDS, required=True))
    profile = _build_profile(cfg)
    tau = cfg.get_float("model.tau", default=2.0)
    beta = cfg.get_float("model.beta", default=1.0)
    with cfg.at("model.d", "model.tau", "model.beta"):
        base = classical_model(d, kernel, profile, tau=tau, beta=beta)
    if variant == "classical":
        return base
    damping_radius = cfg.get_float("model.damping.radius", default=1.0)
    damping_factor = cfg.get_float("model.damping.factor", default=0.5)
    with cfg.at("model.damping.radius", "model.damping.factor"):
        return generalized_model(base, damping_radius=damping_radius, damping_factor=damping_factor)


@dataclass(frozen=True)
class RunSettings:
    trials: int
    seed: int


def read_seed(cfg: ParsedConfig) -> int:
    """run.seed, after validating run.threads: the two run keys every subcommand accepts."""
    seed = cfg.get_int("run.seed", default=0)
    if cfg.get_int("run.threads", default=1) < 1:
        raise cfg.error("run.threads", "run.threads must be at least 1")
    return seed


def read_run_settings(cfg: ParsedConfig) -> RunSettings:
    trials = cfg.get_int("run.trials", default=200)
    if trials < 1:
        raise cfg.error("run.trials", "run.trials must be at least 1")
    return RunSettings(trials=trials, seed=read_seed(cfg))


def _checked_intensities(cfg: ParsedConfig, key: str, intensities: tuple) -> tuple:
    if any(lam < 0 or not np.isfinite(lam) for lam in intensities):
        raise cfg.error(key, "intensities must be finite and nonnegative")
    return intensities


def read_intensity(cfg: ParsedConfig) -> float:
    """The required run.intensity of a subcommand that samples at one intensity."""
    return _checked_intensities(cfg, "run.intensity", (cfg.get_float("run.intensity", required=True),))[0]


def read_intensities(cfg: ParsedConfig) -> tuple:
    """run.intensities, or else the single required run.intensity."""
    if not cfg.has("run.intensities"):
        return (read_intensity(cfg),)
    if cfg.has("run.intensity"):
        raise cfg.error("run.intensities", "give either run.intensity or run.intensities, not both")
    return _checked_intensities(cfg, "run.intensities", tuple(cfg.get_floats("run.intensities")))
