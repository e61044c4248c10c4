"""Which perco functions the traced run wraps, and the per-layer numbers it reports.

Every per-layer value is per timed pass (totals divided by the number of
traced passes), so it does not depend on how many passes fit in a run.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import SpanTable

LAYERS = ("ppp", "rng", "models", "graph", "events", "quadrature", "estimators", "coupling", "renorm", "cli", "config")

# spans reported as <name>.calls and <name>.self_s
COUNTED = (
    "graph.build_graph",
    "graph.connected_regions",
    "graph.connected_regions_restricted",
    "rng.mix",
    "rng.substream",
    "rng.pair_uniforms",
    "ppp.sample_ppp",
    "events.evaluate",
    "models.pairwise_prob",
    "models.mark_averaged_connection",
    "quadrature.radial_integral",
    "quadrature.cap_fraction_outside",
    "coupling.thin_pair",
)


def trace_targets() -> list:
    """(span name, owner, attribute, work count of the result) for every traced function."""
    from perco import cli, config, coupling, estimators, events, graph, models, ppp, quadrature, renorm, rng

    return [
        ("ppp.sample_ppp", ppp, "sample_ppp", len),
        ("rng.mix", rng, "mix", None),
        ("rng.substream", rng, "substream", None),
        ("rng.pair_uniforms", rng, "pair_uniforms", np.size),
        ("rng.point_uniforms", rng, "point_uniforms", np.size),
        ("models.pairwise_prob", models, "pairwise_prob", np.size),
        ("models.mark_averaged_connection", models, "mark_averaged_connection", np.size),
        ("models.validate_framework", models, "validate_framework", None),
        ("quadrature.radial_integral", quadrature, "radial_integral", None),
        ("quadrature.cap_fraction_outside", quadrature, "cap_fraction_outside", None),
        ("graph.build_graph", graph, "build_graph", lambda g: g.n_edges),
        ("graph.connected_regions", graph, "connected_regions", None),
        ("graph.connected_regions_restricted", graph, "connected_regions_restricted", None),
        ("events.evaluate", events.EventSpec, "evaluate", bool),
        ("estimators.run_replicates", estimators, "run_replicates", len),
        ("estimators.estimate_mixing_cov", estimators, "estimate_mixing_cov", None),
        ("estimators.truncation_bound", estimators, "truncation_bound", None),
        ("estimators.campbell_long_edges", estimators, "campbell_long_edges", None),
        ("estimators.campbell_total_edges", estimators, "campbell_total_edges", None),
        ("coupling.thin_pair", coupling, "thin_pair", None),
        ("coupling.check_thinning_bounds", coupling, "check_thinning_bounds", None),
        ("renorm.bracket", renorm, "bracket_crossing_intensity", lambda result: len(result.evaluations)),
        ("config.parse_config_file", config, "parse_config_file", None),
        ("config.build_model", config, "build_model", None),
        ("config.read_run_settings", config, "read_run_settings", None),
        ("cli.run", cli, "run", None),
        ("cli.write_result", cli, "write_result", None),
    ]


def layer_metrics(table: SpanTable, pass_s: list, timers: dict, timer_names: list) -> dict:
    """Per-layer metrics of one traced phase; see BENCHMARK.json's per_layer list."""
    passes = len(pass_s)
    m = {}
    for name in COUNTED:
        m[f"{name}.calls"] = table.calls(name) / passes
        m[f"{name}.self_s"] = table.self_s(name) / passes
    m["graph.build_graph.total_s"] = table.total_s("graph.build_graph") / passes
    build_ms = table.durations("graph.build_graph") * 1e3
    m["graph.build_graph.p50_ms"] = float(np.percentile(build_ms, 50)) if build_ms.size else 0.0
    m["graph.build_graph.p99_ms"] = float(np.percentile(build_ms, 99)) if build_ms.size else 0.0
    m["ppp.sample_ppp.points"] = table.work_sum("ppp.sample_ppp") / passes
    m["events.evaluate.hits"] = table.work_sum("events.evaluate") / passes
    m["estimators.run_replicates.self_s"] = table.self_s("estimators.run_replicates") / passes
    m["estimators.truncation_bound.total_s"] = table.total_s("estimators.truncation_bound") / passes
    m["rng.pair_uniforms.pairs"] = table.work_sum("rng.pair_uniforms") / passes
    screened = table.work_sum("models.pairwise_prob", parent="graph.build_graph")
    kept = table.work_sum("graph.build_graph")
    m["graph.pairs_screened"] = screened / passes
    m["graph.edges_kept"] = kept / passes
    m["graph.keep_ratio"] = kept / screened if screened else 0.0
    m["renorm.bracket.evaluations"] = table.work_sum("renorm.bracket") / passes
    m["renorm.bracket.builds"] = table.calls_within("graph.build_graph", "renorm.bracket") / passes
    m["renorm.bracket.self_s"] = table.self_s("renorm.bracket") / passes
    m["cli.run.self_s"] = table.self_s("cli.run") / passes
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = table.layer_self_s(layer) / passes
    # time inside the timed passes that no traced perco call covers
    m["layer.bench.self_s"] = (sum(pass_s) - table.top_level_time) / passes
    for name in timer_names:
        m[name] = statistics.median(timers[name]) if timers.get(name) else 0.0
    m["trace.spans"] = len(table.name_id) / passes
    return m
