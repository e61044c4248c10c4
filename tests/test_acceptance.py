"""End-to-end acceptance gates for the whole toolkit.

Each test covers one numbered criterion and prints a single PASS/FAIL line
straight to the terminal (bypassing capture) so a full run leaves an
auditable checklist.  Statistical gates run on pinned seeds; tolerances are
3-sigma or CI-aware so that a correct implementation passes with large
margin and a broken invariant cannot hide.
"""

import hashlib
import math

import numpy as np
from scipy import stats

from reference import ball_of_volume

from perco import cli
from perco.coupling import check_thinning_bounds, coupled_graphs, induced_edges, thin_pair
from perco.estimators import (
    campbell_long_edges,
    campbell_total_edges,
    check_covering_inequality,
    estimate_mixing_cov,
    probe_long_edge_persistence,
    replicate_seed,
    sample_event_graph,
)
from perco.events import (
    crossing_spec,
    local_crossing_spec,
    long_edge_spec,
    renorm_long_edge_spec,
)
from perco.graph import build_graphs
from perco.models import catalog, validate_framework
from perco.ppp import ball_window, sample_ppp
from perco.renorm import renorm_table
from perco.rng import mix

CAT2 = catalog(2)


def report(num: int, label: str, ok: bool, detail: str = ""):
    """One checklist line per criterion; run with -s to stream them live."""
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {label}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def wald_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


# ---------------------------------------------------------------- criterion 1

def poisson_bins(mean: float, n_reps: int, min_expected: float = 5.0):
    """Contiguous count bins with expected occupancy >= min_expected each."""
    edges = []
    probs = []
    acc_p = 0.0
    lo = 0
    ceil = int(stats.poisson.ppf(1.0 - 1e-9, mean)) + 1
    for k in range(ceil + 1):
        acc_p += stats.poisson.pmf(k, mean)
        if acc_p * n_reps >= min_expected:
            edges.append((lo, k))
            probs.append(acc_p)
            lo = k + 1
            acc_p = 0.0
    edges.append((lo, None))
    probs.append(max(1.0 - sum(probs), 0.0))
    return edges, np.array(probs)


def test_criterion_01_ppp_counts_chi_square():
    cases = [
        (1, 2.0, ball_of_volume(5.0, 1)),
        (2, 0.5, ball_of_volume(16.0, 2)),
        (2, 1.5, ball_window(2.0, d=2)),
        (3, 0.3, ball_of_volume(27.0, 3)),
        (3, 1.0, ball_window(1.5, d=3)),
        (5, 0.8, ball_window(1.2, d=5)),
    ]
    n_reps = 800
    p_values = []
    for case_idx, (d, lam, window) in enumerate(cases):
        mean = lam * window.volume()
        bins, probs = poisson_bins(mean, n_reps)
        counts = np.zeros(len(bins))
        for i in range(n_reps):
            seed = int(mix(42, "ppp-gof", case_idx, i))
            n = len(sample_ppp(window=window, intensity=lam, seed=seed))
            for b, (lo, hi) in enumerate(bins):
                if n >= lo and (hi is None or n <= hi):
                    counts[b] += 1
                    break
        assert counts.sum() == n_reps
        _, p = stats.chisquare(counts, probs * n_reps)
        p_values.append(p)
    ok = all(p > 0.01 for p in p_values)
    report(1, "PPP count distribution (chi-square, 6 cases)", ok,
           "min p-value %.3f over %d cases x %d reps" % (min(p_values), len(cases), n_reps))


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_framework_conditions():
    failures = []
    indicator_integral = None
    heavy_verdict = None
    for name, model in sorted(CAT2.items()):
        rep = validate_framework(model, n_samples=10_000, seed=5)
        if not (rep.symmetric and rep.monotone and rep.in_range):
            failures.append(name)
        if name == "plain-indicator":
            indicator_integral = rep.integral_value
            if rep.integral_verdict != "finite":
                failures.append(name + ":verdict")
        if name == "boolean-heavy":
            heavy_verdict = rep.integral_verdict
    pi_ok = indicator_integral is not None and math.isclose(
        indicator_integral, math.pi, rel_tol=1e-6)
    heavy_ok = heavy_verdict == "divergent"
    ok = not failures and pi_ok and heavy_ok
    report(2, "framework validation on the catalog", ok,
           "indicator integral %.9f vs pi, heavy-radius verdict %s, exceptions %s"
           % (indicator_integral if indicator_integral else float("nan"),
              heavy_verdict, failures or "none"))


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_campbell_calibration():
    lam = 1.0
    window = ball_window(3.0, d=2)
    r, c, upper = 1.0, 0.3, 2.0
    n_reps = 2000
    details = []
    ok = True
    for name in ("boolean-fixed", "plain-indicator", "plain-poly"):
        model = CAT2[name]
        oracle_total = campbell_total_edges(model, lam, window)
        oracle_incid = campbell_long_edges(model, lam, r=r, c=c, upper=upper)
        totals = np.zeros(n_reps)
        incids = np.zeros(n_reps)
        for i in range(n_reps):
            g = sample_event_graph(model, lam, window, replicate_seed(11, i))
            totals[i] = g.n_edges
            if g.n_edges:
                pos = g.cloud.positions
                a = pos[g.edges[:, 0]]
                b = pos[g.edges[:, 1]]
                length = np.linalg.norm(a - b, axis=1)
                sel = (length > c * r) & (length <= upper)
                incids[i] = int(((np.linalg.norm(a, axis=1) < r) & sel).sum()
                                + ((np.linalg.norm(b, axis=1) < r) & sel).sum())
        for kind, values, oracle in (("edges", totals, oracle_total),
                                     ("long-edge incidences", incids, oracle_incid)):
            se = values.std(ddof=1) / math.sqrt(n_reps)
            z = abs(values.mean() - oracle) / se
            details.append(f"{name} {kind}: mean {values.mean():.3f} vs {oracle:.3f} ({z:.2f} sigma)")
            if z > 3.0:
                ok = False
    report(3, "Campbell-formula calibration (3 models, %d reps)" % n_reps, ok,
           "; ".join(details))


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_exact_event_inclusions():
    r = 0.2
    window = ball_window(21.05 * r, d=2)
    configs = [
        ("boolean-heavy", 1.2),
        ("plain-poly", 1.0),
        ("plain-indicator", 1.5),
        ("boolean-fixed", 0.1),
    ]
    events = {
        "l3": long_edge_spec(r, 3.0),
        "cross": crossing_spec(r),
        "local": local_crossing_spec(r),
        "f": renorm_long_edge_spec(r),
        "f_alias": long_edge_spec(20 * r, 1 / 20),
        "l05": long_edge_spec(r, 0.5),
        "l1": long_edge_spec(r, 1.0),
        "l2": long_edge_spec(r, 2.0),
    }
    reps_per_config = 2500
    violations = 0
    positives = {k: 0 for k in events}
    f_negatives = 0
    for cfg_idx, (name, lam) in enumerate(configs):
        model = CAT2[name]
        # blocks of 64 graphs, built together, each event decided once per block
        for start in range(0, reps_per_config, 64):
            seeds = [int(mix(7, "incl", cfg_idx, i)) for i in range(start, min(start + 64, reps_per_config))]
            graphs = build_graphs([sample_ppp(intensity=lam, window=window, seed=s) for s in seeds], model, seeds)
            v = {k: ev.evaluate_many(graphs) for k, ev in events.items()}
            for k, val in v.items():
                positives[k] += int(val.sum())
            f_negatives += int(np.sum(~v["f"]))
            violations += int(np.sum(v["l3"] & ~v["cross"]))
            violations += int(np.sum(v["local"] & ~v["cross"]))
            violations += int(np.sum(v["f"] != v["f_alias"]))
            violations += int(np.sum(~((v["l05"] >= v["l1"]) & (v["l1"] >= v["l2"]) & (v["l2"] >= v["l3"]))))
    nonvacuous = (positives["l3"] >= 100 and positives["local"] >= 50
                  and positives["cross"] >= 200 and positives["f"] >= 100
                  and f_negatives >= 100)
    ok = violations == 0 and nonvacuous
    report(4, "exact event inclusions over 10^4 graphs", ok,
           "violations %d; positives l3=%d local=%d cross=%d f=%d (f absent %d times)"
           % (violations, positives["l3"], positives["local"], positives["cross"],
              positives["f"], f_negatives))


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_coupling_exactness():
    model = CAT2["plain-indicator"]
    window = ball_window(3.0, d=2)
    pairs = [(0.3, 0.6), (0.6, 1.2), (1.0, 1.2)]
    events = [long_edge_spec(1.0, 0.5), crossing_spec(0.8)]
    mismatches = 0
    monotone_violations = 0
    low_positives = 0
    for pair_idx, (lam_low, lam_high) in enumerate(pairs):
        for i in range(500):
            seed = int(mix(19, "couple", pair_idx, i))
            pair = thin_pair(window, lam_low, lam_high, seed)
            low_graph, high_graph = coupled_graphs(pair, model, seed)
            if not np.array_equal(induced_edges(high_graph, pair.retained), low_graph.edges):
                mismatches += 1
            for ev in events:
                lo, hi = ev.evaluate(low_graph), ev.evaluate(high_graph)
                low_positives += lo
                if lo and not hi:
                    monotone_violations += 1
    ok = mismatches == 0 and monotone_violations == 0 and low_positives >= 30
    report(5, "thinning coupling exactness (500 reps x 3 pairs)", ok,
           "subgraph mismatches %d, monotonicity violations %d, low-intensity hits %d"
           % (mismatches, monotone_violations, low_positives))


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_intensity_bounds_grid():
    model = CAT2["boolean-heavy"]
    lam_high = 0.8
    ratios = (0.5, 0.75, 0.9)
    r_values = (0.5, 1.0, 2.0)
    exact_violations = 0
    stat_violations = 0
    min_high_hits = None
    for gi, ratio in enumerate(ratios):
        for gj, r in enumerate(r_values):
            rep = check_thinning_bounds(
                model, ratio * lam_high, lam_high, r=r,
                n=4000, seed=int(mix(23, "lemma2", gi, gj)),
            )
            exact_violations += rep.exact_upper_violations
            stat_violations += rep.lower_violated + rep.upper_violated
            hits = rep.high.hits
            min_high_hits = hits if min_high_hits is None else min(min_high_hits, hits)
    ok = exact_violations == 0 and stat_violations == 0 and min_high_hits >= 50
    report(6, "two-sided intensity bounds on a 3x3 grid (n=4000)", ok,
           "exact upper violations %d, statistical violations %d, min high-side hits %d"
           % (exact_violations, stat_violations, min_high_hits))


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_covering_union_bound():
    combos = []
    for d, lam in ((1, 0.4), (2, 0.3)):
        model = catalog(d)["boolean-heavy"]
        for c, c_prime in ((1.0, 2.0), (1.0, 3.0)):
            combos.append((d, lam, model, c, c_prime))
    union_violations = 0
    stat_violations = 0
    min_rhs_hits = None
    for idx, (d, lam, model, c, c_prime) in enumerate(combos):
        check = check_covering_inequality(
            model, lam, r=1.0, c=c, c_prime=c_prime,
            n=2000, seed=int(mix(29, "cover", idx)),
        )
        union_violations += check.union_bound_violations
        stat_violations += check.statistically_violated
        hits = check.rhs.hits
        min_rhs_hits = hits if min_rhs_hits is None else min(min_rhs_hits, hits)
    ok = union_violations == 0 and stat_violations == 0 and min_rhs_hits >= 30
    report(7, "covering union bound, exact per replicate (2000 reps x 4)", ok,
           "union-bound violations %d, statistical violations %d, min large-ball hits %d"
           % (union_violations, stat_violations, min_rhs_hits))


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_mixing_covariance_classical():
    r = 0.3
    x = [2.1, 0.0]  # separation 7r
    lam = 0.8
    results = []
    ok = True
    for name in ("plain-indicator", "plain-poly", "product-indicator"):
        model = CAT2[name]
        contains = 0
        for rep in range(20):
            mx = estimate_mixing_cov(
                model, lam, r=r, x=x, n=1000,
                seed=int(mix(31, "mixing", name, rep)),
            )
            contains += mx.ci_low <= 0.0 <= mx.ci_high
        results.append(f"{name} {contains}/20")
        if contains < 19:
            ok = False
    report(8, "mixing: covariance CI contains 0 at separation 7r", ok,
           ", ".join(results))


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_long_edge_dichotomy():
    bounded = probe_long_edge_persistence(
        CAT2["boolean-fixed"], 1.0, c=1.0, r_min=1.2, k=5, n=100,
        seed=37,
    )
    bounded_ok = (
        bounded.verdict == "vanishing"
        and all(est.hits == 0 for est in bounded.estimates)
        and all(m == 0.0 for m in bounded.campbell_means)
    )
    heavy = probe_long_edge_persistence(
        CAT2["boolean-heavy"], 0.5, c=1.0, r_min=1.0, k=5, n=100,
        seed=41,
    )
    heavy_ok = (
        heavy.verdict == "persistent"
        and all(np.isposinf(m) for m in heavy.campbell_means)
        and min(est.ci_low for est in heavy.estimates[-2:]) > heavy.persistent_floor
    )
    ok = bounded_ok and heavy_ok
    report(9, "long-edge dichotomy (bounded vs heavy-tail radii)", ok,
           "bounded verdict %s (max hits %d), heavy verdict %s (min p %.3f, divergent mean count)"
           % (bounded.verdict, max(est.hits for est in bounded.estimates),
              heavy.verdict, min(est.p_hat for est in heavy.estimates)))


# --------------------------------------------------------------- criterion 10

def test_criterion_10_renormalization_behavior():
    model = CAT2["boolean-fixed"]  # 2 * R_max = 1.0
    lam = 0.7
    scales = [1.2, 2.4]
    n = 500
    table = renorm_table(model, lam, scales, n=n, seed=43)
    f_zero = all(row.f_est.hits == 0 for row in table.rows)
    decrease_ok = True
    for row in table.rows[-2:]:
        gap = row.c_est.p_hat - row.lhs.p_hat
        se = math.sqrt(wald_se(row.c_est.p_hat, n) ** 2 + wald_se(row.lhs.p_hat, n) ** 2)
        if not gap > 3.0 * se:
            decrease_ok = False
    no_flags = not any(row.flagged for row in table.rows)
    ok = (f_zero and decrease_ok and table.stable
          and table.inclusion_violations == 0 and no_flags)
    report(10, "renormalization table on the subcritical reference", ok,
           "long-edge hits %s, crossing p %s vs 10x-scale p %s, stable=%s"
           % ([row.f_est.hits for row in table.rows],
              ["%.3f" % row.c_est.p_hat for row in table.rows],
              ["%.3f" % row.lhs.p_hat for row in table.rows],
              table.stable))


# --------------------------------------------------------------- criterion 11

BASE_MODEL_CFG = (
    "model.variant = boolean\nmodel.d = 2\n"
    "model.radius.kind = constant\nmodel.radius.value = 0.5\n"
)
HEAVY_MODEL_CFG = (
    "model.variant = boolean\nmodel.d = 2\n"
    "model.radius.kind = pareto\nmodel.radius.shape = 1.5\nmodel.radius.scale = 0.25\n"
)

DETERMINISM_CONFIGS = {
    "estimate": BASE_MODEL_CFG + (
        "run.intensity = 0.5\nrun.trials = 30\nrun.seed = 3\n"
        "event.kind = crossing\nevent.r = 0.8\n"
    ),
    "probe-h": BASE_MODEL_CFG + (
        "run.intensity = 0.3\nrun.trials = 10\nrun.seed = 4\n"
        "grid.r_min = 1.1\ngrid.count = 4\nprobe.c = 1\n"
    ),
    "check-lemma1": HEAVY_MODEL_CFG + (
        "run.intensity = 0.2\nrun.trials = 40\nrun.seed = 5\n"
        "lemma1.r = 1\nlemma1.c = 1\nlemma1.c_prime = 2\n"
    ),
    "check-lemma2": HEAVY_MODEL_CFG + (
        "run.trials = 50\nrun.seed = 6\n"
        "lemma2.lam_low = 0.1\nlemma2.lam_high = 0.2\nlemma2.r = 2\n"
    ),
    "mixing-cov": BASE_MODEL_CFG + (
        "run.intensity = 0.3\nrun.trials = 1000\nrun.seed = 7\n"
        "mixing.r = 0.2\nmixing.x = 1.5 0\n"
    ),
    "renorm-table": BASE_MODEL_CFG + (
        "run.intensity = 0.4\nrun.trials = 10\nrun.seed = 8\n"
        "renorm.scales = 0.25 0.5\n"
    ),
    "bracket-lambda": BASE_MODEL_CFG + (
        "run.trials = 12\nrun.seed = 9\n"
        "bracket.lam_min = 0.2\nbracket.lam_max = 2\n"
        "bracket.r_probe = 0.8\nbracket.k_max = 2\n"
    ),
    "validate-model": BASE_MODEL_CFG + "validate.samples = 2000\nrun.seed = 10\n",
    "dump-graph": BASE_MODEL_CFG + "run.intensity = 1\nrun.seed = 11\ndump.radius = 2\n",
}


def result_body(path) -> str:
    lines = open(path).read().splitlines(keepends=True)
    assert lines and lines[0].startswith("# generated ")
    return "".join(lines[1:])


def test_criterion_11_determinism_across_threads(tmp_path):
    unstable = []
    estimate_out = None
    for sub, text in DETERMINISM_CONFIGS.items():
        bodies = []
        for tag, threads in (("a", 1), ("b", 2), ("c", 8), ("rerun", 1)):
            cfg = tmp_path / f"{sub}-{tag}.cfg"
            cfg.write_text(text + f"run.threads = {threads}\n")
            out = tmp_path / f"{sub}-{tag}.out"
            code = cli.run(sub, str(cfg), out=str(out))
            assert code == 0
            bodies.append(result_body(out))
        if len(set(bodies)) != 1:
            unstable.append(sub)
        if sub == "estimate":
            estimate_out = tmp_path / "estimate-a.out"
    plot_bodies = []
    for tag in ("a", "rerun"):
        out = tmp_path / f"plot-{tag}.out"
        assert cli.run("plot-data", str(estimate_out), out=str(out)) == 0
        plot_bodies.append(result_body(out))
    if len(set(plot_bodies)) != 1:
        unstable.append("plot-data")
    ok = not unstable
    report(11, "byte-identical result bodies at 1/2/8 threads", ok,
           "all 10 subcommands stable" if ok else "unstable: " + ", ".join(unstable))


# first 16 hex digits of the sha256 of each DETERMINISM_CONFIGS result body; a change
# that alters a body on purpose edits its digest here and lists old -> new in CHANGES.md
BODY_DIGESTS = {
    "estimate": "75d43f18df064f2b",
    "probe-h": "1d8a143c218cf2e7",
    "check-lemma1": "1dd781bb40d95d91",
    "check-lemma2": "20eac9a8e40ae81f",
    "mixing-cov": "1796d2f1bc17d1ef",
    "renorm-table": "66462211cf8a1049",
    "bracket-lambda": "6d01997701afed81",
    "validate-model": "53df7615741907c3",
    "dump-graph": "1568fd84d28c4eff",
}


def test_result_bodies_match_recorded_digests(tmp_path):
    assert set(BODY_DIGESTS) == set(DETERMINISM_CONFIGS)
    got = {}
    for sub, text in DETERMINISM_CONFIGS.items():
        for threads in (1, 3):
            cfg = tmp_path / f"{sub}-{threads}.cfg"
            cfg.write_text(text + f"run.threads = {threads}\n")
            out = tmp_path / f"{sub}-{threads}.out"
            assert cli.run(sub, str(cfg), out=str(out)) == 0
            got[sub, threads] = hashlib.sha256(result_body(out).encode()).hexdigest()[:16]
    assert got == {(sub, t): digest for sub, digest in BODY_DIGESTS.items() for t in (1, 3)}
