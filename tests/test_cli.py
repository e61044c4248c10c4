import math
import os

import numpy as np
import pytest

from perco import cli, graph, ppp
from perco.config import build_model, parse_config_text
from perco.errors import ConfigurationError
from reference import serialize_config
from test_acceptance import DETERMINISM_CONFIGS


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_body(path):
    """Result file minus the timestamp line."""
    lines = open(path).read().splitlines(keepends=True)
    assert lines[0].startswith("# generated ")
    return "".join(lines[1:])


def read_rows(path):
    lines = [ln for ln in open(path).read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


BOOLEAN_CFG = """
model.variant = boolean
model.d = 2
model.radius.kind = constant
model.radius.value = 0.5
"""
CLASSICAL_INDICATOR_CFG = "model.variant = classical\nmodel.d = 2\nmodel.kernel = plain\nmodel.profile.kind = indicator\n"


class TestParsing:
    def test_round_trip_identity_on_normalized_form(self):
        text = "# comment\nb.key = 2\n\na.key =  hello world \n"
        once = serialize_config(parse_config_text(text))
        twice = serialize_config(parse_config_text(once))
        assert once == twice
        assert once == "a.key = hello world\nb.key = 2\n"

    def test_round_trip_random_configs(self):
        gen = np.random.default_rng(7)
        alphabet = list("abcdefghij.")
        for _ in range(50):
            n = int(gen.integers(1, 8))
            keys = set()
            lines = []
            while len(keys) < n:
                key = "k" + "".join(gen.choice(alphabet, size=5)).strip(".")
                if key in keys:
                    continue
                keys.add(key)
                value = "%.6g" % gen.uniform(-10, 10)
                lines.append(f"{key}={value}")
            text = "\n".join(lines)
            once = serialize_config(parse_config_text(text))
            assert serialize_config(parse_config_text(once)) == once

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ConfigurationError, match=r"f\.cfg:2: expected 'key = value'"):
            parse_config_text("a = 1\nbroken line\n", path="f.cfg")
        with pytest.raises(ConfigurationError, match=r"f\.cfg:3: duplicate key 'a' \(first set on line 1\)"):
            parse_config_text("a = 1\n\na = 2\n", path="f.cfg")
        with pytest.raises(ConfigurationError, match=r"f\.cfg:1: missing value for 'a'"):
            parse_config_text("a = \n", path="f.cfg")
        with pytest.raises(ConfigurationError, match=r"f\.cfg:1: missing key"):
            parse_config_text("= 3\n", path="f.cfg")

    def test_typed_getters(self):
        cfg = parse_config_text("x = 1.5\nn = nope\nlist = 1 2 3\n", path="t.cfg")
        assert cfg.get_float("x") == 1.5
        assert cfg.get_floats("list") == [1.0, 2.0, 3.0]
        with pytest.raises(ConfigurationError, match=r"t\.cfg:2: 'n' expects an integer"):
            cfg.get_int("n")
        with pytest.raises(ConfigurationError, match="missing required key 'absent'"):
            cfg.get_str("absent", required=True)

    def test_unused_key_reported_with_line(self):
        cfg = parse_config_text(BOOLEAN_CFG + "model.typo = 3\n", path="u.cfg")
        build_model(cfg)
        with pytest.raises(ConfigurationError, match=r"u\.cfg:6: unknown or inapplicable key 'model.typo'"):
            cfg.ensure_all_used()


class TestBuildModel:
    def test_boolean_and_classical_and_generalized(self):
        assert build_model(parse_config_text(BOOLEAN_CFG)).variant == "boolean"
        classical = build_model(parse_config_text(
            "model.variant = classical\nmodel.d = 3\nmodel.kernel = product\n"
            "model.profile.kind = polynomial\nmodel.profile.delta = 2.0\n"
            "model.tau = 2.5\nmodel.beta = 0.7\n"
        ))
        assert classical.variant == "classical" and classical.d == 3
        assert classical.tau == 2.5 and classical.beta == 0.7
        generalized = build_model(parse_config_text(
            "model.variant = generalized\nmodel.d = 1\nmodel.kernel = plain\n"
            "model.profile.kind = indicator\nmodel.damping.radius = 2.0\n"
            "model.damping.factor = 0.25\n"
        ))
        assert generalized.variant == "generalized"
        assert generalized.damping_radius == 2.0

    def test_cross_variant_keys_rejected_at_their_line(self):
        cfg = parse_config_text(BOOLEAN_CFG + "model.kernel = plain\n", path="m.cfg")
        build_model(cfg)
        with pytest.raises(ConfigurationError, match=r"m\.cfg:6: unknown or inapplicable key 'model.kernel'"):
            cfg.ensure_all_used()
        cfg = parse_config_text(
            "model.variant = classical\nmodel.d = 2\nmodel.kernel = plain\n"
            "model.profile.kind = indicator\nmodel.radius.value = 1\n",
            path="m.cfg",
        )
        build_model(cfg)
        with pytest.raises(ConfigurationError, match=r"m\.cfg:5: unknown or inapplicable key 'model.radius.value'"):
            cfg.ensure_all_used()

    def test_profile_parameter_consistency(self):
        base = "model.variant = classical\nmodel.d = 2\nmodel.kernel = plain\n"
        cfg = parse_config_text(base + "model.profile.kind = indicator\nmodel.profile.delta = 2\n")
        build_model(cfg)
        with pytest.raises(ConfigurationError, match="unknown or inapplicable key 'model.profile.delta'"):
            cfg.ensure_all_used()
        with pytest.raises(ConfigurationError, match="missing required key 'model.profile.delta'"):
            build_model(parse_config_text(base + "model.profile.kind = polynomial\n"))
        with pytest.raises(ConfigurationError, match="same length"):
            build_model(parse_config_text(
                base + "model.profile.kind = custom\n"
                "model.profile.knots = 1 2\nmodel.profile.heights = 0.5\n"
            ))

    def test_pareto_radius_keys(self):
        cfg = parse_config_text(
            "model.variant = boolean\nmodel.d = 2\nmodel.radius.kind = pareto\n"
            "model.radius.shape = 1.5\nmodel.radius.scale = 0.25\n"
        )
        model = build_model(cfg)
        assert model.radius_law.kind == "pareto"
        bad = parse_config_text(
            "model.variant = boolean\nmodel.d = 2\nmodel.radius.kind = constant\n"
            "model.radius.value = 1\nmodel.radius.shape = 2\n"
        )
        build_model(bad)
        with pytest.raises(ConfigurationError, match="unknown or inapplicable key 'model.radius.shape'"):
            bad.ensure_all_used()

    def test_run_settings_validation(self, tmp_path, capsys):
        for run_lines, where, message in [
            ("run.intensity = 1\nrun.intensities = 1 2\n", "r.cfg:7", "not both"),
            ("run.intensity = -1\n", "r.cfg:6", "nonnegative"),
            ("run.intensity = 1\nrun.confidence = 1.5\n", "r.cfg:7", "run.confidence"),
            ("run.intensity = 1\nrun.threads = 0\n", "r.cfg:7", "run.threads must be at least 1"),
        ]:
            cfg = write_config(tmp_path, BOOLEAN_CFG + run_lines + "event.kind = crossing\nevent.r = 1\n", name="r.cfg")
            assert cli.main(["estimate", cfg, "--out", str(tmp_path / "x.csv")]) == 2
            err = capsys.readouterr().err
            assert where in err and message in err


class TestSubcommands:
    def test_estimate_writes_rows_and_zero_intensity_row(self, tmp_path):
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.intensities = 0 0.8\nrun.trials = 30\nrun.seed = 5\n"
            "event.kind = long_edge\nevent.r = 1\nevent.c = 0.5\n"
        ))
        out = str(tmp_path / "est.csv")
        assert cli.main(["estimate", cfg, "--out", out]) == 0
        header, rows = read_rows(out)
        assert header[:4] == ["intensity", "event", "r", "c"]
        assert len(rows) == 2
        zero = rows[0]
        assert float(zero[0]) == 0.0
        assert zero[5] == "0" and float(zero[6]) == 0.0
        assert float(zero[-1]) == 0.0
        busy = rows[1]
        assert 0.0 <= float(busy[6]) <= 1.0
        assert float(busy[-1]) >= 0.0

    def test_estimate_respects_out_results_key(self, tmp_path):
        target = tmp_path / "named.csv"
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            f"run.intensity = 0.2\nrun.trials = 5\n"
            f"event.kind = crossing\nevent.r = 0.6\nout.results = {target}\n"
        ))
        os.chdir(tmp_path)
        assert cli.main(["estimate", cfg]) == 0
        assert target.exists()

    def test_validate_model_reports_disc_area(self, tmp_path):
        cfg = write_config(tmp_path, BOOLEAN_CFG + "validate.samples = 2000\n")
        out = str(tmp_path / "val.csv")
        assert cli.main(["validate-model", cfg, "--out", out]) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, rows[0]))
        assert row["symmetric"] == "true"
        assert row["monotone"] == "true"
        assert row["in_range"] == "true"
        assert row["integral_verdict"] == "finite"
        assert math.isclose(float(row["integral_value"]), math.pi, rel_tol=1e-6)

    def test_probe_h_vanishing_for_bounded_ranges(self, tmp_path):
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.intensity = 0.3\nrun.trials = 25\nrun.seed = 3\n"
            "grid.r_min = 1.2\ngrid.count = 4\nprobe.c = 1\n"
        ))
        out = str(tmp_path / "probe.csv")
        assert cli.main(["probe-h", cfg, "--out", out]) == 0
        body = read_body(out)
        assert "# verdict = vanishing" in body
        header, rows = read_rows(out)
        rs = [float(r[0]) for r in rows]
        assert rs == sorted(rs) and len(rs) == 4
        assert all(r[header.index("hits")] == "0" for r in rows)

    def test_check_lemma2_smoke(self, tmp_path):
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.trials = 60\nrun.seed = 11\n"
            "lemma2.lam_low = 0.05\nlemma2.lam_high = 0.1\nlemma2.r = 4\n"
        ))
        out = str(tmp_path / "lem2.csv")
        assert cli.main(["check-lemma2", cfg, "--out", out]) == 0
        body = read_body(out)
        assert "# exact_upper_violations = 0" in body
        assert "# ok = true" in body
        header, rows = read_rows(out)
        assert [r[0] for r in rows] == ["low", "high"]

    def test_check_lemma1_smoke(self, tmp_path):
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.intensity = 0.25\nrun.trials = 40\nrun.seed = 2\n"
            "lemma1.r = 2\nlemma1.c = 1\nlemma1.c_prime = 2\n"
        ))
        out = str(tmp_path / "lem1.csv")
        assert cli.main(["check-lemma1", cfg, "--out", out]) == 0
        body = read_body(out)
        assert "# union_bound_violations = 0" in body
        header, rows = read_rows(out)
        assert [r[0] for r in rows] == ["small", "large"]
        assert float(rows[1][1]) == pytest.approx(4.0)

    def test_renorm_table_and_plot_series(self, tmp_path):
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.intensity = 0.5\nrun.trials = 12\nrun.seed = 9\n"
            "renorm.scales = 0.4 0.8\n"
        ))
        out = str(tmp_path / "renorm.csv")
        assert cli.main(["renorm-table", cfg, "--out", out]) == 0
        header, rows = read_rows(out)
        assert header[0] == "r" and "fitted_c" in header
        assert len(rows) == 2
        series_out = str(tmp_path / "renorm_series.csv")
        assert cli.main(["plot-data", out, "--out", series_out]) == 0
        sh, srows = read_rows(series_out)
        assert sh == ["series", "x", "y", "y_lo", "y_hi"]
        assert len(srows) == 8
        assert {r[0] for r in srows} == {"big_cross", "local_cross", "cross", "long_edge"}

    def test_bracket_lambda_smoke(self, tmp_path):
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.trials = 20\nrun.seed = 4\n"
            "bracket.lam_min = 0.1\nbracket.lam_max = 4\n"
            "bracket.r_probe = 1.5\nbracket.k_max = 3\n"
        ))
        out = str(tmp_path / "bracket.csv")
        assert cli.main(["bracket-lambda", cfg, "--out", out]) == 0
        body = read_body(out)
        assert "# lam_lo = " in body and "# lam_hi = " in body
        header, rows = read_rows(out)
        assert header[0] == "step"
        assert len(rows) >= 2

    def test_mixing_cov_smoke(self, tmp_path):
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.intensity = 0.4\nrun.trials = 1000\nrun.seed = 8\n"
            "mixing.r = 0.3\nmixing.x = 2.2 0\n"
        ))
        out = str(tmp_path / "mix.csv")
        assert cli.main(["mixing-cov", cfg, "--out", out]) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, rows[0]))
        assert float(row["separation"]) == pytest.approx(2.2)
        assert float(row["ci_low"]) <= float(row["covariance"]) <= float(row["ci_high"])

    def test_dump_graph_writes_points_and_edges(self, tmp_path):
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.intensity = 1.5\nrun.seed = 6\ndump.radius = 3\n"
        ))
        out = str(tmp_path / "graph.txt")
        assert cli.main(["dump-graph", cfg, "--out", out]) == 0
        text = open(out).read()
        assert text.startswith("# generated ")
        assert "# points " in text and "# edges " in text


class TestCliErrors:
    def test_unknown_key_exits_2_with_location(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.intensity = 1\nevent.kind = crossing\nevent.r = 1\nmystery = 1\n"
        ), name="bad.cfg")
        assert cli.main(["estimate", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "bad.cfg:9" in err and "mystery" in err

    def test_event_requires_its_parameters(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.intensity = 1\nevent.kind = long_edge\nevent.r = 1\n"
        ))
        assert cli.main(["estimate", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "event.c" in capsys.readouterr().err

    def test_unknown_event_kind_lists_the_kinds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BOOLEAN_CFG + "run.intensity = 1\nevent.kind = bridge\nevent.r = 1\n")
        assert cli.main(["estimate", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "'event.kind' must be one of long_edge, crossing, local_crossing, renorm_long_edge; got 'bridge'" in err

    def test_non_finite_custom_profile_exits_2(self, tmp_path, capsys):
        base = (
            "model.variant = classical\nmodel.d = 2\nmodel.kernel = plain\nmodel.profile.kind = custom\n"
            "run.intensity = 1\nevent.kind = crossing\nevent.r = 1\n"
        )
        for knots, heights in (("0.5 nan", "1 0.5"), ("0.5 inf", "1 0.5"), ("0.5 1", "nan 0.5")):
            cfg = write_config(tmp_path, base + f"model.profile.knots = {knots}\nmodel.profile.heights = {heights}\n")
            assert cli.main(["estimate", cfg, "--out", str(tmp_path / "x.csv")]) == 2, (knots, heights)
            assert "custom knots and heights must be finite" in capsys.readouterr().err

    def test_model_and_event_errors_exit_2_at_the_lines_they_read(self, tmp_path, capsys):
        event = "run.intensity = 1\nevent.kind = crossing\nevent.r = 1\n"
        cases = [
            (CLASSICAL_INDICATOR_CFG + "model.profile.theta = -1\n" + event,
             "5", "indicator threshold must be positive, got -1.0"),
            (CLASSICAL_INDICATOR_CFG.replace("indicator", "custom") + "model.profile.knots = 2 1\n"
             "model.profile.heights = 1 0.5\n" + event,
             "5,6", "custom knots must be positive and strictly increasing"),
            (BOOLEAN_CFG.replace("value = 0.5", "value = -1") + event, "5", "constant radius must be positive, got -1.0"),
            (CLASSICAL_INDICATOR_CFG.replace("plain", "product") + "model.tau = 0.5\n" + event,
             "2,5", "weight kernels need 1 < tau"),
            (BOOLEAN_CFG.replace("model.d = 2", "model.d = 9") + event, "3", "dimension must be an integer in 1..8, got 9"),
            (CLASSICAL_INDICATOR_CFG.replace("classical", "generalized") + "model.damping.factor = 2\n" + event,
             "5", "damping factor must lie in (0,1]"),
            (BOOLEAN_CFG + event.replace("event.r = 1", "event.r = -1"), "8", "event scale r must be positive, got -1.0"),
        ]
        for text, where, message in cases:
            cfg = write_config(tmp_path, text, name="bad.cfg")
            assert cli.main(["estimate", cfg, "--out", str(tmp_path / "x.csv")]) == 2, message
            assert f"bad.cfg:{where}: {message}" in capsys.readouterr().err, message

    def test_budget_exceeded_exits_3_with_hint(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ppp, "DEFAULT_POINT_BUDGET", 500)
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.intensity = 10\nrun.trials = 3\nevent.kind = crossing\nevent.r = 5\n"
        ))
        assert cli.main(["estimate", cfg, "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert "point cap DEFAULT_POINT_BUDGET is 500" in err

    def test_trend_thresholds_and_sample_count_exit_2_at_their_line(self, tmp_path, capsys):
        cases = [("probe-h", "probe.floor", v, "must be in [0, 1)") for v in ("1", "-0.1", "nan")]
        cases += [("probe-h", "probe.factor", v, "must be finite and at least 1") for v in ("0", "-1", "0.5", "inf", "nan")]
        cases += [("validate-model", "validate.samples", v, "must be at least 1") for v in ("0", "-1")]
        for subcommand, key, value, message in cases:
            kept = [ln for ln in DETERMINISM_CONFIGS[subcommand].splitlines() if not ln.startswith(key + " ")]
            cfg = write_config(tmp_path, "\n".join(kept) + f"\n{key} = {value}\n", name="bad.cfg")
            assert cli.main([subcommand, cfg, "--out", str(tmp_path / "x.csv")]) == 2, (key, value)
            assert f"bad.cfg:{len(kept) + 1}: {key} {message}" in capsys.readouterr().err, (key, value)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("subcommand, key", [("estimate", "run.margin"), ("dump-graph", "dump.radius")])
    def test_non_finite_window_size_exits_2_at_its_line(self, tmp_path, capsys, subcommand, key, value):
        kept = [ln for ln in DETERMINISM_CONFIGS[subcommand].splitlines() if not ln.startswith(key + " ")]
        cfg = write_config(tmp_path, "\n".join(kept) + f"\n{key} = {value}\n", name="bad.cfg")
        assert cli.main([subcommand, cfg, "--out", str(tmp_path / "x.out")]) == 2
        assert f"bad.cfg:{len(kept) + 1}: {key} must be" in capsys.readouterr().err

    def test_pair_budget_exceeded_exits_3_without_point_budget_hint(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graph, "DEFAULT_PAIR_BUDGET", 10)
        cfg = write_config(tmp_path, (
            "model.variant = classical\nmodel.d = 2\nmodel.kernel = plain\n"
            "model.profile.kind = polynomial\nmodel.profile.delta = 2.5\n"
            "run.intensity = 1\ndump.radius = 3\n"
        ))
        assert cli.main(["dump-graph", cfg, "--out", str(tmp_path / "g.txt")]) == 3
        err = capsys.readouterr().err
        assert "pair cap DEFAULT_PAIR_BUDGET" in err and "DEFAULT_POINT_BUDGET" not in err

    def test_plot_data_rejects_unplottable_and_malformed(self, tmp_path, capsys):
        val = tmp_path / "val.csv"
        val.write_text("# generated now\nsymmetric,monotone\ntrue,true\n")
        assert cli.main(["plot-data", str(val), "--out", str(tmp_path / "s.csv")]) == 2
        assert "no plottable series" in capsys.readouterr().err
        # the subcommand line, not the columns, picks the series
        val.write_text("# generated now\n# subcommand = validate-model\nsymmetric,monotone\ntrue,true\n")
        assert cli.main(["plot-data", str(val), "--out", str(tmp_path / "s.csv")]) == 2
        assert "no plottable series in a validate-model result" in capsys.readouterr().err
        unnamed = tmp_path / "unnamed.csv"
        unnamed.write_text("intensity,event,p_hat,ci_low,ci_high\n1,crossing,0.5,0.4,0.6\n")
        assert cli.main(["plot-data", str(unnamed), "--out", str(tmp_path / "s.csv")]) == 2
        assert "no '# subcommand = ...' line" in capsys.readouterr().err
        short = tmp_path / "short.csv"
        short.write_text("# subcommand = estimate\nintensity,event,p_hat\n1,crossing,0.5\n")
        assert cli.main(["plot-data", str(short), "--out", str(tmp_path / "s.csv")]) == 2
        assert "needs column(s) ci_high, ci_low" in capsys.readouterr().err
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("r,p_hat,ci_low,ci_high,expected_long_edges\n1,0.5,0.4\n")
        assert cli.main(["plot-data", str(ragged), "--out", str(tmp_path / "s.csv")]) == 2
        missing = tmp_path / "void.csv"
        missing.write_text("# only comments\n")
        assert cli.main(["plot-data", str(missing), "--out", str(tmp_path / "s.csv")]) == 2

    def test_plot_data_empty_table_emits_header_only(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("# subcommand = probe-h\nr,p_hat,ci_low,ci_high,expected_long_edges\n")
        out = str(tmp_path / "series.csv")
        assert cli.main(["plot-data", str(src), "--out", out]) == 0
        header, rows = read_rows(out)
        assert header == ["series", "x", "y", "y_lo", "y_hi"]
        assert rows == []


# each plottable subcommand's x column and the series labels its plot data carries
PLOT_SERIES = {
    "estimate": ("intensity", {"crossing"}),
    "probe-h": ("r", {"long_edge"}),
    "check-lemma1": ("ball_radius", {"small", "large"}),
    "check-lemma2": ("intensity", {"low", "high"}),
    "mixing-cov": ("separation", {"covariance"}),
    "renorm-table": ("r", {"big_cross", "local_cross", "cross", "long_edge"}),
    "bracket-lambda": ("intensity", {"crossing"}),
}


@pytest.mark.parametrize("subcommand", sorted(PLOT_SERIES))
def test_plot_data_series_follow_the_subcommand_line(tmp_path, subcommand):
    out, series_out = str(tmp_path / "result.csv"), str(tmp_path / "series.csv")
    assert cli.main([subcommand, write_config(tmp_path, DETERMINISM_CONFIGS[subcommand]), "--out", out]) == 0
    assert cli.main(["plot-data", out, "--out", series_out]) == 0
    header, rows = read_rows(out)
    _, series_rows = read_rows(series_out)
    x_col, labels = PLOT_SERIES[subcommand]
    assert {row[0] for row in series_rows} == labels
    assert {float(row[1]) for row in series_rows} == {float(row[header.index(x_col)]) for row in rows}
    assert len(series_rows) == len(rows) * (4 if subcommand == "renorm-table" else 1)


# the run.* keys each subcommand reads; every other run.* key is rejected at its line
RUN_KEY_VALUES = {
    "run.intensity": "0.5",
    "run.intensities": "0.5 1",
    "run.trials": "5",
    "run.seed": "1",
    "run.threads": "2",
    "run.confidence": "0.5",
    "run.margin": "1.0",
}
SAMPLING_KEYS = {"run.trials", "run.seed", "run.threads"}
RUN_KEYS_READ = {
    "estimate": set(RUN_KEY_VALUES),
    "probe-h": SAMPLING_KEYS | {"run.intensity"},
    "check-lemma1": SAMPLING_KEYS | {"run.intensity"},
    "check-lemma2": SAMPLING_KEYS,
    "mixing-cov": SAMPLING_KEYS | {"run.intensity"},
    "renorm-table": SAMPLING_KEYS | {"run.intensity"},
    "bracket-lambda": SAMPLING_KEYS,
    "validate-model": {"run.seed", "run.threads"},
    "dump-graph": {"run.seed", "run.threads", "run.intensity"},
}


@pytest.mark.parametrize("subcommand", sorted(DETERMINISM_CONFIGS))
def test_subcommands_reject_run_keys_they_do_not_read(tmp_path, capsys, subcommand):
    base = DETERMINISM_CONFIGS[subcommand]
    line = base.count("\n") + 1
    for key in sorted(set(RUN_KEY_VALUES) - RUN_KEYS_READ[subcommand]):
        cfg = write_config(tmp_path, base + f"{key} = {RUN_KEY_VALUES[key]}\n", name="extra.cfg")
        assert cli.main([subcommand, cfg, "--out", str(tmp_path / "x.out")]) == 2, key
        err = capsys.readouterr().err
        assert f"extra.cfg:{line}: unknown or inapplicable key '{key}'" in err
    cfg = write_config(tmp_path, base + "run.threads = 2\n", name="threads.cfg")
    assert cli.main([subcommand, cfg, "--out", str(tmp_path / "x.out")]) == 0


EVENT_CFG = BOOLEAN_CFG + "run.intensity = 1\nevent.r = 1\n"


@pytest.mark.parametrize("subcommand, base, extra", [
    pytest.param("validate-model", BOOLEAN_CFG, "model.kernel = plain", id="boolean-kernel"),
    pytest.param("validate-model", BOOLEAN_CFG, "model.damping.radius = 1", id="boolean-damping"),
    pytest.param("validate-model", CLASSICAL_INDICATOR_CFG, "model.radius.value = 1", id="classical-radius"),
    pytest.param("validate-model", CLASSICAL_INDICATOR_CFG, "model.damping.factor = 0.5", id="classical-damping"),
    pytest.param("validate-model", CLASSICAL_INDICATOR_CFG, "model.profile.delta = 2", id="indicator-delta"),
    pytest.param("validate-model", CLASSICAL_INDICATOR_CFG.replace("indicator", "polynomial")
                 + "model.profile.delta = 2.5\n", "model.profile.theta = 1", id="polynomial-theta"),
    pytest.param("validate-model", BOOLEAN_CFG, "model.radius.shape = 2", id="constant-radius-shape"),
    pytest.param("validate-model", BOOLEAN_CFG.replace("constant\nmodel.radius.value = 0.5", "pareto\n"
                 "model.radius.shape = 1.5\nmodel.radius.scale = 0.25"), "model.radius.value = 1", id="pareto-radius-value"),
    pytest.param("estimate", EVENT_CFG + "event.kind = crossing\n", "event.c = 1", id="crossing-c"),
    pytest.param("estimate", EVENT_CFG + "event.kind = long_edge\nevent.c = 1\n", "event.center = 0 0",
                 id="long-edge-center"),
])
def test_model_and_event_keys_not_read_exit_2_at_their_line(tmp_path, capsys, subcommand, base, extra):
    cfg = write_config(tmp_path, base + extra + "\n", name="extra.cfg")
    assert cli.main([subcommand, cfg, "--out", str(tmp_path / "x.out")]) == 2
    key = extra.split(" = ")[0]
    assert f"extra.cfg:{base.count(chr(10)) + 1}: unknown or inapplicable key '{key}'" in capsys.readouterr().err


class TestDeterminism:
    def test_bodies_identical_across_thread_counts(self, tmp_path, capsys):
        text = BOOLEAN_CFG + (
            "run.intensity = 0.8\nrun.trials = 40\nrun.seed = 12\n"
            "event.kind = long_edge\nevent.r = 1\nevent.c = 1\n"
        )
        bodies = []
        for threads in (1, 2, 8):
            cfg = write_config(tmp_path, text + f"run.threads = {threads}\n", name=f"t{threads}.cfg")
            out = str(tmp_path / f"t{threads}.csv")
            assert cli.main(["estimate", cfg, "--out", out]) == 0
            bodies.append(read_body(out))
        assert bodies[0] == bodies[1] == bodies[2]
        # the flag is gone: argparse rejects it with its usage error
        with pytest.raises(SystemExit) as exited:
            cli.main(["estimate", cfg, "--threads", "2", "--out", out])
        assert exited.value.code == 2 and "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_seed_override_changes_draws(self, tmp_path):
        cfg = write_config(tmp_path, BOOLEAN_CFG + (
            "run.intensity = 1.5\nrun.seed = 12\ndump.radius = 3\n"
        ))
        out1 = str(tmp_path / "a.txt")
        out2 = str(tmp_path / "b.txt")
        out3 = str(tmp_path / "c.txt")
        assert cli.main(["dump-graph", cfg, "--out", out1]) == 0
        assert cli.main(["dump-graph", cfg, "--seed", "12", "--out", out2]) == 0
        assert cli.main(["dump-graph", cfg, "--seed", "99", "--out", out3]) == 0
        assert read_body(out1) == read_body(out2)
        assert read_body(out1) != read_body(out3)


# probe-h on a model whose first scale has hits: probe.factor = 0 once divided by zero there
PARETO_PROBE_CFG = (
    "model.variant = boolean\nmodel.d = 1\n"
    "model.radius.kind = pareto\nmodel.radius.shape = 0.5\nmodel.radius.scale = 0.25\n"
    "run.intensity = 1\nrun.trials = 30\ngrid.r_min = 1\ngrid.count = 4\n"
)
CONTRACT_BASES = {**{sub: (sub, text) for sub, text in DETERMINISM_CONFIGS.items()},
                  "probe-h-pareto": ("probe-h", PARETO_PROBE_CFG)}
# numeric keys the bases leave at their defaults, added to the subcommands that read them
DEFAULTED_NUMERIC_KEYS = {
    "estimate": ("run.margin", "run.confidence"),
    "probe-h": ("probe.floor", "probe.factor", "grid.r_max"),
}
EXTREME_VALUES = ("0", "-1", "nan", "inf", "1e308")


def _is_numeric(value: str) -> bool:
    try:
        [float(token) for token in value.split()]
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("base", sorted(CONTRACT_BASES))
def test_extreme_values_exit_cleanly(tmp_path, capsys, base):
    # each numeric key at each extreme value: success, a configuration error or a
    # resource limit, never an exception out of main nor an internal failure; the
    # suite turns RuntimeWarnings into errors, so a numpy overflow fails here too
    subcommand, text = CONTRACT_BASES[base]
    values = parse_config_text(text).values
    keys = [k for k, v in values.items() if _is_numeric(v)] + list(DEFAULTED_NUMERIC_KEYS.get(subcommand, ()))
    assert len(set(keys)) == len(keys)
    assert len(keys) >= 4
    codes = {}
    for key in keys:
        kept = "".join(f"{k} = {v}\n" for k, v in values.items() if k != key)
        for value in EXTREME_VALUES:
            cfg = write_config(tmp_path, kept + f"{key} = {value}\n", name="extreme.cfg")
            codes[key, value] = cli.main([subcommand, cfg, "--out", str(tmp_path / "x.out")])
    capsys.readouterr()
    assert {case: code for case, code in codes.items() if code not in (0, 2, 3)} == {}
