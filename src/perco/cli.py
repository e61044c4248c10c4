"""Command-line front end.

Every analysis subcommand takes a config file (flat key = value lines) plus
optional --seed/--threads/--out overrides, prints a human summary to stdout,
and writes a machine-readable result file.  Result files start with a
"# generated <timestamp>" line, then deterministic "# key = value" metadata
comments, then a CSV header and rows with floats at 9 significant digits.
Everything after the timestamp line depends only on the config and seed, so
reruns are byte-identical there regardless of thread count.

Exit codes: 0 success, 2 configuration or contract errors (message on
stderr, prefixed file:line: when a config line is at fault), 3 resource
limits, 1 internal consistency failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .config import ParsedConfig, build_model, parse_config_file, read_run_settings
from .coupling import check_thinning_bounds
from .errors import (
    ConfigurationError,
    ContractError,
    InternalConsistencyError,
    ResourceError,
    WindowCoverageError,
)
from .estimators import (
    check_covering_inequality,
    estimate_event,
    estimate_mixing_cov,
    probe_long_edge_persistence,
    truncation_bound,
)
from .events import (
    EventSpec,
    crossing_spec,
    local_crossing_spec,
    long_edge_spec,
    renorm_long_edge_spec,
)
from .graph import build_graph, dump_graph
from .models import validate_framework
from .ppp import ball_window, sample_ppp
from .renorm import bracket_crossing_intensity, renorm_table
from .rng import mix

EVENT_KINDS = ("long_edge", "crossing", "local_crossing", "renorm_long_edge")


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
        cfg.forbid("event.center", "only local crossings take a center")
        return long_edge_spec(r, cfg.get_float("event.c", required=True))
    cfg.forbid("event.c", "only long-edge events take a length factor")
    if kind == "crossing":
        cfg.forbid("event.center", "only local crossings take a center")
        return crossing_spec(r)
    if kind == "renorm_long_edge":
        cfg.forbid("event.center", "only local crossings take a center")
        return renorm_long_edge_spec(r)
    center = cfg.get_floats("event.center") if cfg.has("event.center") else None
    if center is not None and len(center) != d:
        raise cfg.error("event.center", f"event.center needs {d} coordinates")
    return local_crossing_spec(r, center=center)


def cmd_estimate(cfg: ParsedConfig, out: str) -> list:
    model = build_model(cfg)
    run = read_run_settings(cfg)
    event = _event_from_config(cfg, model.d)
    cfg.ensure_all_used()
    window = event.window(model.d, margin=run.margin)
    ell = event.truncation_radius()
    unit_bias = truncation_bound(model, 1.0, window, ell)
    rows = []
    for j, lam in enumerate(run.intensities):
        est = estimate_event(
            model,
            lam,
            event,
            n=run.trials,
            seed=int(mix(run.seed, "intensity", j)),
            threads=run.threads,
            window=window,
            confidence=run.confidence,
        )
        bias = 0.0 if lam == 0 else unit_bias * lam * lam
        rows.append([lam, event.kind, event.r, event.c] + _estimate_cells(est) + [bias])
    comments = [
        ("subcommand", "estimate"),
        ("event", event.kind),
        ("window_radius", window.radius),
        ("confidence", run.confidence),
    ]
    header = ["intensity", "event", "r", "c"] + ESTIMATE_COLS + ["truncation_bound"]
    write_result(out, comments, header, rows)
    return [f"estimated P({event.kind}) at {len(rows)} intensity value(s)"]


def cmd_probe_h(cfg: ParsedConfig, out: str) -> list:
    model = build_model(cfg)
    run = read_run_settings(cfg)
    r_min = cfg.get_float("grid.r_min", required=True)
    r_max = cfg.get_float("grid.r_max") if cfg.has("grid.r_max") else None
    k = cfg.get_int("grid.count", default=6)
    c = cfg.get_float("probe.c", default=1.0)
    floor = cfg.get_float("probe.floor", default=0.05)
    factor = cfg.get_float("probe.factor", default=4.0)
    cfg.ensure_all_used()
    if len(run.intensities) != 1:
        raise ConfigurationError(f"{cfg.path}: probe-h needs exactly one run.intensity")
    report = probe_long_edge_persistence(
        model,
        run.intensities[0],
        c=c,
        r_min=r_min,
        r_max=r_max,
        k=k,
        n=run.trials,
        seed=run.seed,
        threads=run.threads,
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
    run = read_run_settings(cfg)
    r = cfg.get_float("lemma1.r", required=True)
    c = cfg.get_float("lemma1.c", required=True)
    c_prime = cfg.get_float("lemma1.c_prime", required=True)
    cfg.ensure_all_used()
    if len(run.intensities) != 1:
        raise ConfigurationError(f"{cfg.path}: check-lemma1 needs exactly one run.intensity")
    check = check_covering_inequality(
        model, run.intensities[0], r=r, c=c, c_prime=c_prime,
        n=run.trials, seed=run.seed, threads=run.threads,
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
    run = read_run_settings(cfg, need_intensity=False)
    lam_low = cfg.get_float("lemma2.lam_low", required=True)
    lam_high = cfg.get_float("lemma2.lam_high", required=True)
    r = cfg.get_float("lemma2.r", required=True)
    cfg.ensure_all_used()
    if run.intensities:
        raise ConfigurationError(f"{cfg.path}: check-lemma2 takes lemma2.lam_low/lam_high, not run.intensity")
    report = check_thinning_bounds(
        model, lam_low, lam_high, r=r, n=run.trials, seed=run.seed, threads=run.threads,
    )
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
    run = read_run_settings(cfg)
    r = cfg.get_float("mixing.r", required=True)
    x = cfg.get_floats("mixing.x", required=True)
    if len(x) != model.d:
        raise cfg.error("mixing.x", f"mixing.x needs {model.d} coordinates")
    cfg.ensure_all_used()
    if len(run.intensities) != 1:
        raise ConfigurationError(f"{cfg.path}: mixing-cov needs exactly one run.intensity")
    report = estimate_mixing_cov(
        model, run.intensities[0], r=r, x=x, n=run.trials, seed=run.seed, threads=run.threads,
    )
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
    run = read_run_settings(cfg)
    scales = cfg.get_floats("renorm.scales", required=True)
    c_mix = cfg.get_float("renorm.c_mix") if cfg.has("renorm.c_mix") else None
    zeta = cfg.get_float("renorm.zeta") if cfg.has("renorm.zeta") else None
    cfg.ensure_all_used()
    if len(run.intensities) != 1:
        raise ConfigurationError(f"{cfg.path}: renorm-table needs exactly one run.intensity")
    table = renorm_table(
        model, run.intensities[0], scales,
        n=run.trials, seed=run.seed, threads=run.threads, c_mix=c_mix, zeta=zeta,
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
    run = read_run_settings(cfg, need_intensity=False)
    lam_min = cfg.get_float("bracket.lam_min", required=True)
    lam_max = cfg.get_float("bracket.lam_max", required=True)
    r_probe = cfg.get_float("bracket.r_probe") if cfg.has("bracket.r_probe") else None
    threshold = cfg.get_float("bracket.threshold", default=0.5)
    k_max = cfg.get_int("bracket.k_max", default=12)
    cfg.ensure_all_used()
    if run.intensities:
        raise ConfigurationError(f"{cfg.path}: bracket-lambda takes bracket.lam_min/lam_max, not run.intensity")
    result = bracket_crossing_intensity(
        model, lam_min, lam_max,
        r_probe=r_probe, p_threshold=threshold,
        n=run.trials, seed=run.seed, threads=run.threads, k_max=k_max,
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
    seed = cfg.get_int("run.seed", default=0)
    # validation is one vectorized pass; the global thread knob is accepted
    # for flag uniformity but cannot change the result
    threads = cfg.get_int("run.threads", default=1)
    if threads < 1:
        raise cfg.error("run.threads", "must be at least 1")
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
    run = read_run_settings(cfg)
    radius = cfg.get_float("dump.radius", required=True)
    cfg.ensure_all_used()
    if len(run.intensities) != 1:
        raise ConfigurationError(f"{cfg.path}: dump-graph needs exactly one run.intensity")
    if radius <= 0:
        raise cfg.error("dump.radius", "dump.radius must be positive")
    window = ball_window(radius, d=model.d)
    cloud = sample_ppp(intensity=run.intensities[0], window=window, seed=run.seed)
    graph = build_graph(cloud, model, seed=run.seed)
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

# header signature -> (x column, series column or fixed label, y columns)
_PLOT_RULES = [
    ({"intensity", "event", "p_hat"}, "intensity", ("column", "event"), ("p_hat", "ci_low", "ci_high")),
    ({"r", "expected_long_edges"}, "r", ("fixed", "long_edge"), ("p_hat", "ci_low", "ci_high")),
    ({"side", "ball_radius"}, "ball_radius", ("column", "side"), ("p_hat", "ci_low", "ci_high")),
    ({"side", "intensity"}, "intensity", ("column", "side"), ("p_hat", "ci_low", "ci_high")),
    ({"separation", "covariance"}, "separation", ("fixed", "covariance"), ("covariance", "ci_low", "ci_high")),
    ({"step", "intensity"}, "intensity", ("fixed", "crossing"), ("p_hat", "ci_low", "ci_high")),
]

_RENORM_SERIES = ("big_cross", "local_cross", "cross", "long_edge")


def _read_result(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise ConfigurationError(f"cannot read result file {path}: {exc}") from None
    data = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not data:
        raise ConfigurationError(f"{path}: no CSV header found")
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ConfigurationError(f"{path}: row {i + 1} has {len(row)} fields, header has {len(header)}")
    return header, rows


def emit_plot_data(result_path: str, out: str) -> list:
    """Reshape a result CSV into tidy (series, x, y, y_lo, y_hi) rows."""
    header, rows = _read_result(result_path)
    cols = {name: i for i, name in enumerate(header)}
    series_rows = []
    if "big_cross_p" in cols:
        for row in rows:
            for name in _RENORM_SERIES:
                series_rows.append((
                    name,
                    float(row[cols["r"]]),
                    float(row[cols[f"{name}_p"]]),
                    float(row[cols[f"{name}_lo"]]),
                    float(row[cols[f"{name}_hi"]]),
                ))
    else:
        for signature, x_col, series_rule, y_cols in _PLOT_RULES:
            if signature <= set(header):
                break
        else:
            raise ConfigurationError(f"{result_path}: no plottable series in columns {', '.join(header)}")
        for row in rows:
            label = row[cols[series_rule[1]]] if series_rule[0] == "column" else series_rule[1]
            series_rows.append((
                label,
                float(row[cols[x_col]]),
                float(row[cols[y_cols[0]]]),
                float(row[cols[y_cols[1]]]),
                float(row[cols[y_cols[2]]]),
            ))
    series_rows.sort(key=lambda t: (t[0], t[1]))
    write_result(out, [("subcommand", "plot-data"), ("source_columns", " ".join(header))],
                 ["series", "x", "y", "y_lo", "y_hi"], series_rows)
    return [f"wrote {len(series_rows)} plot row(s) across {len({t[0] for t in series_rows})} series"]


def _default_out(subcommand: str) -> str:
    return "dump-graph.txt" if subcommand == "dump-graph" else f"{subcommand}.csv"


def run(subcommand: str, config_path: str, seed=None, threads=None, out=None) -> int:
    """Programmatic entry point; raises on errors instead of exiting."""
    if subcommand == "plot-data":
        target = out if out is not None else _default_out("plot-data")
        summary = emit_plot_data(config_path, target)
    else:
        cfg = parse_config_file(config_path)
        if seed is not None:
            cfg.values["run.seed"] = str(seed)
            cfg.lines.setdefault("run.seed", 0)
        if threads is not None:
            cfg.values["run.threads"] = str(threads)
            cfg.lines.setdefault("run.threads", 0)
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
            p.add_argument("--threads", type=int, default=None, help="override run.threads")
        p.add_argument("--out", default=None, help="output file path")
    args = parser.parse_args(argv)
    path = args.result if args.subcommand == "plot-data" else args.config
    seed = getattr(args, "seed", None)
    threads = getattr(args, "threads", None)
    try:
        return run(args.subcommand, path, seed=seed, threads=threads, out=args.out)
    except (ConfigurationError, WindowCoverageError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        print(
            "hint: shrink the window or intensity, or raise the cap via the "
            "PERCO_BUDGET_POINTS environment variable "
            f"(currently {os.environ.get('PERCO_BUDGET_POINTS', 'unset')})",
            file=sys.stderr,
        )
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
