"""Command-line front end.

Every analysis subcommand takes a config file (flat key = value lines) plus
optional --seed/--out overrides, prints a human summary to stdout,
and writes a machine-readable result file.  Result files start with a
"# generated <timestamp>" line, then deterministic "# key = value" metadata
comments, then a CSV header and rows with floats at 9 significant digits.
Everything after the timestamp line depends only on the config and seed, so
reruns are byte-identical there.  run.threads is accepted and validated (at
least 1), but does not change how or where replicates run.

Exit codes: 0 success, 2 configuration or contract errors (message on
stderr, prefixed file:line: when a config line is at fault), 3 resource
limits, 1 internal consistency failures.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

import numpy as np

from .config import (
    ParsedConfig,
    build_model,
    parse_config_file,
    read_intensities,
    read_intensity,
    read_run_settings,
    read_seed,
)
from .coupling import check_thinning_bounds
from .errors import (
    ConfigurationError,
    ContractError,
    InternalConsistencyError,
    ResourceError,
    WindowCoverageError,
)
from .estimators import (
    DEFAULT_CONFIDENCE,
    PERSISTENT_FLOOR,
    VANISHING_FACTOR,
    check_covering_inequality,
    estimate_event,
    estimate_mixing_cov,
    probe_long_edge_persistence,
    truncation_bound,
)
from .events import (
    EVENT_KINDS,
    WINDOW_MARGIN,
    EventSpec,
    crossing_spec,
    local_crossing_spec,
    long_edge_spec,
    renorm_long_edge_spec,
)
from .graph import build_graph, dump_graph
from .models import validate_framework
from .ppp import ball_window, sample_ppp
from .renorm import BRACKET_MAX_ITER, bracket_crossing_intensity, renorm_table
from .rng import mix

def fmt(value) -> str:
    """One CSV cell.  Floats at 9 significant digits, bools as true/false."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.9g" % float(value)
    return str(value)


def write_result(path: str, comments, header, rows) -> None:
    """Timestamp line, metadata comments, CSV header, CSV rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).strftime('%Y-%m-%dT%H:%M:%SZ')}\n")
        for key, value in comments:
            fh.write(f"# {key} = {fmt(value)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(cell) for cell in row) + "\n")


def _estimate_cells(est):
    return [est.trials, est.hits, est.p_hat, est.ci_low, est.ci_high]

ESTIMATE_COLS = ["trials", "hits", "p_hat", "ci_low", "ci_high"]


def _event_from_config(cfg: ParsedConfig, d: int) -> EventSpec:
    kind = cfg.get_str("event.kind", choices=EVENT_KINDS, required=True)
    r = cfg.get_float("event.r", required=True)
    if kind == "long_edge":
        c = cfg.get_float("event.c", required=True)
        with cfg.at("event.r", "event.c"):
            return long_edge_spec(r, c)
    if kind == "local_crossing":
        center = cfg.get_floats("event.center")
        if center is not None and len(center) != d:
            raise cfg.error("event.center", f"event.center needs {d} coordinates")
        with cfg.at("event.r", "event.center"):
            return local_crossing_spec(r, center=center)
    with cfg.at("event.r"):
        return crossing_spec(r) if kind == "crossing" else renorm_long_edge_spec(r)


def cmd_estimate(cfg: ParsedConfig, out: str) -> list:
    model = build_model(cfg)
    intensities = read_intensities(cfg)
    run = read_run_settings(cfg)
    confidence = cfg.get_float("run.confidence", default=DEFAULT_CONFIDENCE)
    if not 0 < confidence < 1:
        raise cfg.error("run.confidence", "run.confidence must be in (0, 1)")
    margin = cfg.get_float("run.margin", default=WINDOW_MARGIN)
    if not (np.isfinite(margin) and margin > 0):
        raise cfg.error("run.margin", "run.margin must be finite and positive")
    event = _event_from_config(cfg, model.d)
    cfg.ensure_all_used()
    window = event.window(model.d, margin=margin)
    ell = event.truncation_radius()
    unit_bias = truncation_bound(model, 1.0, window, ell)
    rows = []
    for j, lam in enumerate(intensities):
        est = estimate_event(
            model,
            lam,
            event,
            n=run.trials,
            seed=int(mix(run.seed, "intensity", j)),
            window=window,
            confidence=confidence,
        )
        bias = 0.0 if lam == 0 else unit_bias * lam * lam
        rows.append([lam, event.kind, event.r, event.c] + _estimate_cells(est) + [bias])
    comments = [
        ("subcommand", "estimate"),
        ("event", event.kind),
        ("window_radius", window.radius),
        ("confidence", confidence),
    ]
    header = ["intensity", "event", "r", "c"] + ESTIMATE_COLS + ["truncation_bound"]
    write_result(out, comments, header, rows)
    return [f"estimated P({event.kind}) at {len(rows)} intensity value(s)"]


def cmd_probe_h(cfg: ParsedConfig, out: str) -> list:
    model = build_model(cfg)
    intensity = read_intensity(cfg)
    run = read_run_settings(cfg)
    r_min = cfg.get_float("grid.r_min", required=True)
    r_max = cfg.get_float("grid.r_max")
    k = cfg.get_int("grid.count", default=6)
    c = cfg.get_float("probe.c", default=1.0)
    floor = cfg.get_float("probe.floor", default=PERSISTENT_FLOOR)
    if not 0 <= floor < 1:
        raise cfg.error("probe.floor", "probe.floor must be in [0, 1)")
    factor = cfg.get_float("probe.factor", default=VANISHING_FACTOR)
    if not (np.isfinite(factor) and factor >= 1):
        raise cfg.error("probe.factor", "probe.factor must be finite and at least 1")
    cfg.ensure_all_used()
    report = probe_long_edge_persistence(
        model,
        intensity,
        c=c,
        r_min=r_min,
        r_max=r_max,
        k=k,
        n=run.trials,
        seed=run.seed,
        persistent_floor=floor,
        vanishing_factor=factor,
    )
    comments = [
        ("subcommand", "probe-h"),
        ("verdict", report.verdict),
        ("slope", report.slope),
        ("slope_ci_low", report.slope_ci[0]),
        ("slope_ci_high", report.slope_ci[1]),
        ("persistent_floor", report.persistent_floor),
        ("vanishing_factor", report.vanishing_factor),
        ("undersampled", report.undersampled),
        ("note", report.note),
    ]
    header = ["r"] + ESTIMATE_COLS + ["expected_long_edges"]
    rows = [
        [r] + _estimate_cells(est) + [mean]
        for r, est, mean in zip(report.r_values, report.estimates, report.campbell_means)
    ]
    write_result(out, comments, header, rows)
    return report.lines()


def cmd_check_lemma1(cfg: ParsedConfig, out: str) -> list:
    model = build_model(cfg)
    intensity = read_intensity(cfg)
    run = read_run_settings(cfg)
    r = cfg.get_float("lemma1.r", required=True)
    c = cfg.get_float("lemma1.c", required=True)
    c_prime = cfg.get_float("lemma1.c_prime", required=True)
    cfg.ensure_all_used()
    check = check_covering_inequality(
        model, intensity, r=r, c=c, c_prime=c_prime, n=run.trials, seed=run.seed,
    )
    ok = check.union_bound_violations == 0 and not check.statistically_violated
    comments = [
        ("subcommand", "check-lemma1"),
        ("covering_count", check.covering.count),
        ("q", check.covering.q),
        ("union_bound_violations", check.union_bound_violations),
        ("statistically_violated", check.statistically_violated),
        ("ok", ok),
    ]
    header = ["side", "ball_radius", "length_cut"] + ESTIMATE_COLS
    rows = [
        ["small", r, c_prime * r] + _estimate_cells(check.lhs),
        ["large", check.covering.q * r, c_prime * r] + _estimate_cells(check.rhs),
    ]
    write_result(out, comments, header, rows)
    return check.lines()


def cmd_check_lemma2(cfg: ParsedConfig, out: str) -> list:
    model = build_model(cfg)
    run = read_run_settings(cfg)
    lam_low = cfg.get_float("lemma2.lam_low", required=True)
    lam_high = cfg.get_float("lemma2.lam_high", required=True)
    r = cfg.get_float("lemma2.r", required=True)
    cfg.ensure_all_used()
    report = check_thinning_bounds(model, lam_low, lam_high, r=r, n=run.trials, seed=run.seed)
    comments = [
        ("subcommand", "check-lemma2"),
        ("ratio_squared", (lam_low / lam_high) ** 2),
        ("exact_upper_violations", report.exact_upper_violations),
        ("lower_violated", report.lower_violated),
        ("upper_violated", report.upper_violated),
        ("ok", not report.violated),
    ]
    header = ["side", "intensity"] + ESTIMATE_COLS
    rows = [
        ["low", lam_low] + _estimate_cells(report.low),
        ["high", lam_high] + _estimate_cells(report.high),
    ]
    write_result(out, comments, header, rows)
    return report.lines()


def cmd_mixing_cov(cfg: ParsedConfig, out: str) -> list:
    model = build_model(cfg)
    intensity = read_intensity(cfg)
    run = read_run_settings(cfg)
    r = cfg.get_float("mixing.r", required=True)
    x = cfg.get_floats("mixing.x", required=True)
    if len(x) != model.d:
        raise cfg.error("mixing.x", f"mixing.x needs {model.d} coordinates")
    cfg.ensure_all_used()
    report = estimate_mixing_cov(model, intensity, r=r, x=x, n=run.trials, seed=run.seed)
    comments = [
        ("subcommand", "mixing-cov"),
        ("ci_contains_zero", report.ci_low <= 0.0 <= report.ci_high),
    ]
    header = [
        "r", "separation", "trials", "covariance", "ci_low", "ci_high",
        "origin_p", "shifted_p",
    ]
    rows = [[
        report.r, report.separation, report.trials,
        report.covariance, report.ci_low, report.ci_high,
        report.near.p_hat, report.far.p_hat,
    ]]
    write_result(out, comments, header, rows)
    return report.lines()


def cmd_renorm_table(cfg: ParsedConfig, out: str) -> list:
    model = build_model(cfg)
    intensity = read_intensity(cfg)
    run = read_run_settings(cfg)
    scales = cfg.get_floats("renorm.scales", required=True)
    c_mix = cfg.get_float("renorm.c_mix")
    zeta = cfg.get_float("renorm.zeta")
    cfg.ensure_all_used()
    table = renorm_table(
        model, intensity, scales,
        n=run.trials, seed=run.seed, c_mix=c_mix, zeta=zeta,
    )
    comments = [
        ("subcommand", "renorm-table"),
        ("stable", table.stable),
        ("inclusion_violations", table.inclusion_violations),
    ]
    if c_mix is not None:
        comments += [("c_mix", c_mix), ("zeta", zeta)]
    header = ["r"]
    for name in ("big_cross", "local_cross", "cross", "long_edge"):
        header += [f"{name}_p", f"{name}_lo", f"{name}_hi"]
    header += ["mixing_term", "fitted_c", "flagged"]
    rows = []
    for row in table.rows:
        cells = [row.r]
        for est in (row.lhs, row.g_est, row.c_est, row.f_est):
            cells += [est.p_hat, est.ci_low, est.ci_high]
        cells += [row.mixing_term, row.fitted_C, row.flagged]
        rows.append(cells)
    write_result(out, comments, header, rows)
    return table.lines()


def cmd_bracket_lambda(cfg: ParsedConfig, out: str) -> list:
    model = build_model(cfg)
    run = read_run_settings(cfg)
    lam_min = cfg.get_float("bracket.lam_min", required=True)
    lam_max = cfg.get_float("bracket.lam_max", required=True)
    r_probe = cfg.get_float("bracket.r_probe")
    threshold = cfg.get_float("bracket.threshold", default=0.5)
    k_max = cfg.get_int("bracket.k_max", default=BRACKET_MAX_ITER)
    cfg.ensure_all_used()
    result = bracket_crossing_intensity(
        model, lam_min, lam_max,
        r_probe=r_probe, p_threshold=threshold,
        n=run.trials, seed=run.seed, k_max=k_max,
    )
    comments = [
        ("subcommand", "bracket-lambda"),
        ("lam_lo", result.lam_lo),
        ("lam_hi", result.lam_hi),
        ("r_probe", result.r_probe),
        ("threshold", result.threshold),
        ("never_crosses", result.never_crosses),
        ("crosses_below_lo", result.crosses_below_lo),
        ("note", result.note),
    ]
    header = ["step", "intensity"] + ESTIMATE_COLS
    rows = [
        [step, lam] + _estimate_cells(est)
        for step, (lam, est) in enumerate(result.evaluations)
    ]
    write_result(out, comments, header, rows)
    return result.lines()


def cmd_validate_model(cfg: ParsedConfig, out: str) -> list:
    model = build_model(cfg)
    n_samples = cfg.get_int("validate.samples", default=10_000)
    if n_samples < 1:
        raise cfg.error("validate.samples", "validate.samples must be at least 1")
    seed = read_seed(cfg)
    cfg.ensure_all_used()
    report = validate_framework(model, n_samples=n_samples, seed=seed)
    comments = [
        ("subcommand", "validate-model"),
        ("model", report.model_summary),
        ("ok", report.ok),
        ("note", report.note),
    ]
    header = [
        "symmetric", "monotone", "in_range",
        "integral_value", "integral_verdict", "tail_exponent", "n_samples",
    ]
    rows = [[
        report.symmetric, report.monotone, report.in_range,
        report.integral_value, report.integral_verdict,
        report.tail_exponent, report.n_samples,
    ]]
    write_result(out, comments, header, rows)
    return report.lines()


def cmd_dump_graph(cfg: ParsedConfig, out: str) -> list:
    model = build_model(cfg)
    intensity = read_intensity(cfg)
    seed = read_seed(cfg)
    radius = cfg.get_float("dump.radius", required=True)
    cfg.ensure_all_used()
    if not (np.isfinite(radius) and radius > 0):
        raise cfg.error("dump.radius", "dump.radius must be finite and positive")
    window = ball_window(radius, d=model.d)
    cloud = sample_ppp(intensity=intensity, window=window, seed=seed)
    graph = build_graph(cloud, model, seed=seed)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).strftime('%Y-%m-%dT%H:%M:%SZ')}\n")
        dump_graph(graph, fh)
    return [f"dumped {graph.n_vertices} points and {graph.n_edges} edges"]


COMMANDS = {
    "estimate": cmd_estimate,
    "probe-h": cmd_probe_h,
    "check-lemma1": cmd_check_lemma1,
    "check-lemma2": cmd_check_lemma2,
    "mixing-cov": cmd_mixing_cov,
    "renorm-table": cmd_renorm_table,
    "bracket-lambda": cmd_bracket_lambda,
    "validate-model": cmd_validate_model,
    "dump-graph": cmd_dump_graph,
}

_ESTIMATE_Y = ("p_hat", "ci_low", "ci_high")

# source subcommand -> its series, each (fixed label, label column, x column, y columns):
# a series takes its label from the label column when there is one, else the fixed label
_PLOT_SERIES = {
    "estimate": [(None, "event", "intensity", _ESTIMATE_Y)],
    "probe-h": [("long_edge", None, "r", _ESTIMATE_Y)],
    "check-lemma1": [(None, "side", "ball_radius", _ESTIMATE_Y)],
    "check-lemma2": [(None, "side", "intensity", _ESTIMATE_Y)],
    "mixing-cov": [("covariance", None, "separation", ("covariance", "ci_low", "ci_high"))],
    "renorm-table": [
        (name, None, "r", (f"{name}_p", f"{name}_lo", f"{name}_hi"))
        for name in ("big_cross", "local_cross", "cross", "long_edge")
    ],
    "bracket-lambda": [("crossing", None, "intensity", _ESTIMATE_Y)],
}


def _read_result(path: str):
    """The ``# subcommand = ...`` value (None without one), the CSV header and the rows."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise ConfigurationError(f"cannot read result file {path}: {exc}") from None
    subcommand = next((ln.split(" = ", 1)[1] for ln in lines if ln.startswith("# subcommand = ")), None)
    data = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not data:
        raise ConfigurationError(f"{path}: no CSV header found")
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ConfigurationError(f"{path}: row {i + 1} has {len(row)} fields, header has {len(header)}")
    return subcommand, header, rows


def emit_plot_data(result_path: str, out: str) -> list:
    """Reshape a result CSV into tidy (series, x, y, y_lo, y_hi) rows.

    The series follow from the file's ``# subcommand = ...`` line.
    """
    subcommand, header, rows = _read_result(result_path)
    if subcommand is None:
        raise ConfigurationError(f"{result_path}: no plottable series: the file has no '# subcommand = ...' line")
    if subcommand not in _PLOT_SERIES:
        raise ConfigurationError(f"{result_path}: no plottable series in a {subcommand} result")
    series = _PLOT_SERIES[subcommand]
    cols = {name: i for i, name in enumerate(header)}
    needed = {name for _, label_col, x_col, y_cols in series for name in (label_col, x_col, *y_cols)}
    missing = sorted(needed - set(cols) - {None})
    if missing:
        raise ConfigurationError(f"{result_path}: a {subcommand} result needs column(s) {', '.join(missing)}")
    series_rows = [
        (
            row[cols[label_col]] if label_col else label,
            float(row[cols[x_col]]),
            *(float(row[cols[y]]) for y in y_cols),
        )
        for row in rows
        for label, label_col, x_col, y_cols in series
    ]
    series_rows.sort(key=lambda t: (t[0], t[1]))
    write_result(out, [("subcommand", "plot-data"), ("source_columns", " ".join(header))],
                 ["series", "x", "y", "y_lo", "y_hi"], series_rows)
    return [f"wrote {len(series_rows)} plot row(s) across {len({t[0] for t in series_rows})} series"]


def _default_out(subcommand: str) -> str:
    return "dump-graph.txt" if subcommand == "dump-graph" else f"{subcommand}.csv"


def run(subcommand: str, config_path: str, seed=None, out=None) -> int:
    """Programmatic entry point; raises on errors instead of exiting."""
    if subcommand == "plot-data":
        target = out if out is not None else _default_out("plot-data")
        summary = emit_plot_data(config_path, target)
    else:
        cfg = parse_config_file(config_path)
        if seed is not None:
            cfg.values["run.seed"] = str(seed)
        cfg_out = cfg.get_str("out.results", default=None)
        if out is None:
            out = cfg_out
        target = out if out is not None else _default_out(subcommand)
        summary = COMMANDS[subcommand](cfg, target)
    for line in summary:
        print(line)
    print(f"wrote {target}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perco",
        description="Monte Carlo estimation and consistency checks for "
        "weight-dependent random connection models",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in list(COMMANDS) + ["plot-data"]:
        p = sub.add_parser(name)
        if name == "plot-data":
            p.add_argument("result", help="result CSV produced by another subcommand")
        else:
            p.add_argument("config", help="experiment config file (key = value lines)")
            p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--out", default=None, help="output file path")
    args = parser.parse_args(argv)
    path = args.result if args.subcommand == "plot-data" else args.config
    seed = getattr(args, "seed", None)
    try:
        return run(args.subcommand, path, seed=seed, out=args.out)
    except (ConfigurationError, WindowCoverageError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
