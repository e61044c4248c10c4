"""The benchmark's four workloads, driven through perco's public API.

One caller runs a closed loop with ``threads=1``.  Each workload makes its
inputs from the workload seed, runs one pass per ``run_pass`` call (the timed
unit), checks every pass right after it, outside the timed interval
(``check_pass``), and keeps pass 0 for the heavier checks of ``check_run``
after the timed phase.  Calls go through module attributes
(``estimators.truncation_bound``, not a name bound at import time) so a
traced run sees every one of them.

Pinned values (``pins.json``, regenerated by ``pin.py``) belong to the
workload seed ``pins["seed"]``; the analytic oracles do not depend on the
seed, so their pins are checked at every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from collections import defaultdict
from time import perf_counter

import numpy as np

from perco import cli, config, coupling, estimators, events, graph, models, ppp, rng


def edges_digest(edges: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(edges, dtype="<i8").tobytes()).hexdigest()


def _roots(n: int, edges: np.ndarray) -> list:
    """Component representative of every vertex (union-find, independent of perco.graph)."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges.tolist():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return [find(a) for a in range(n)]


def crossing_oracle(g, center, r: float, through: float | None = None) -> bool:
    """B(center, r) joined to the outside of B(center, 2r), optionally inside B(center, through)."""
    d2 = np.sum((g.cloud.positions - np.asarray(center, dtype=float)) ** 2, axis=1)
    keep = np.ones(d2.shape, dtype=bool) if through is None else d2 <= through * through
    edges = g.edges[keep[g.edges[:, 0]] & keep[g.edges[:, 1]]] if g.n_edges else g.edges
    roots = _roots(len(d2), edges)
    inner = {roots[i] for i in np.flatnonzero(keep & (d2 <= r * r))}
    return any(roots[i] in inner for i in np.flatnonzero(keep & (d2 > 4.0 * r * r)))


def compare_pins(got: dict, want: dict, rel: float) -> list:
    """Problems where a value differs from its pin; floats within ``rel``, inf must stay inf."""
    problems = []
    for key, pinned in want.items():
        value = got.get(key)
        if isinstance(pinned, float) and value is not None:
            value = float(value)
            if math.isinf(pinned) or math.isinf(value):
                same = value == pinned
            else:
                same = abs(value - pinned) <= rel * abs(pinned)
        else:
            same = value == pinned
        if not same:
            problems.append(f"{key} = {value!r}, pinned {pinned!r}")
    return problems


class Workload:
    name = ""
    pins_every_seed = False
    clock = staticmethod(perf_counter)  # for the timers; a traced run swaps in the tracer's clock

    def __init__(self, seed: int, out_dir, pins: dict | None = None):
        self.seed = seed
        self.out_dir = out_dir
        applies = pins is not None and (self.pins_every_seed or seed == pins["seed"])
        self.pinned = pins[self.name] if applies else None
        self.first = None  # pass-0 result, kept for check_run
        self.timers = defaultdict(list)  # per-layer timings the benchmark takes itself

    def pass_seed(self, k: int) -> int:
        digest = hashlib.sha256(f"{self.name}/{self.seed}/{k}".encode()).digest()
        return int.from_bytes(digest[:8], "little") >> 1

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, k: int):
        """Run pass k; return (replicates done, result)."""
        raise NotImplementedError

    def check_pass(self, k: int, result) -> list:
        return []

    def check_run(self) -> list:
        return []

    def pin_values(self) -> dict:
        raise NotImplementedError

    def check_pins(self) -> list:
        if self.pinned is None or self.first is None:
            return []
        return compare_pins(self.pin_values(), self.pinned, rel=1e-6)


class McSmall(Workload):
    """Criterion-08-like mixing covariance plus criterion-06-like coupled thinning."""

    name = "mc-small"
    MIX_LAMBDA, MIX_R, MIX_X, MIX_N = 0.8, 0.3, (2.1, 0.0), 1000
    THIN_LOW, THIN_HIGH, THIN_R, THIN_N = 0.4, 0.8, 1.0, 500
    SPOT_REPLICATES = 10

    def __init__(self, seed, out_dir, pins=None):
        super().__init__(seed, out_dir, pins)
        cat = models.catalog(2)
        self.mix_model = cat["plain-indicator"]
        self.thin_model = cat["boolean-heavy"]
        sep = math.hypot(*self.MIX_X)
        # the window estimate_mixing_cov builds for these parameters
        self.mix_window = ppp.ball_window(sep + (3.0 + events.WINDOW_MARGIN) * self.MIX_R, d=2)
        self.thin_window = events.long_edge_spec(self.THIN_R, 1.0).window(2)

    def warm_up(self):
        g = estimators.sample_event_graph(self.mix_model, self.MIX_LAMBDA, self.mix_window, self.seed)
        events.local_crossing_spec(self.MIX_R).evaluate(g)
        coupling.check_thinning_bounds(
            self.thin_model, self.THIN_LOW, self.THIN_HIGH, r=self.THIN_R, n=20, seed=self.seed, threads=1
        )

    def run_pass(self, k):
        s = self.pass_seed(k)
        mixing = estimators.estimate_mixing_cov(
            self.mix_model, self.MIX_LAMBDA, r=self.MIX_R, x=self.MIX_X, n=self.MIX_N, seed=s, threads=1
        )
        thinning = coupling.check_thinning_bounds(
            self.thin_model, self.THIN_LOW, self.THIN_HIGH, r=self.THIN_R, n=self.THIN_N, seed=s, threads=1
        )
        return self.MIX_N + self.THIN_N, (s, mixing, thinning)

    def check_pass(self, k, result):
        _, mixing, thinning = result
        problems = []
        if thinning.exact_upper_violations:
            problems.append(f"{thinning.exact_upper_violations} exact thinning violations")
        if thinning.low.trials != self.THIN_N or thinning.high.trials != self.THIN_N:
            problems.append("thinning trial count")
        if not 0 <= thinning.low.hits <= thinning.high.hits <= self.THIN_N:
            problems.append("thinning hits not monotone")
        if mixing.trials != self.MIX_N or not (
            0 <= mixing.near.hits <= self.MIX_N and 0 <= mixing.far.hits <= self.MIX_N
        ):
            problems.append("mixing trial or hit count")
        if not mixing.ci_low <= mixing.covariance <= mixing.ci_high:
            problems.append("mixing covariance outside its own interval")
        return [f"pass {k}: {p}" for p in problems]

    def check_run(self):
        s = self.first[0]
        problems = []
        near = events.local_crossing_spec(self.MIX_R)
        far = events.local_crossing_spec(self.MIX_R, center=self.MIX_X)
        for i in range(self.SPOT_REPLICATES):
            rep = estimators.replicate_seed(s, i)
            g = estimators.sample_event_graph(self.mix_model, self.MIX_LAMBDA, self.mix_window, rep)
            for spec, center in ((near, (0.0, 0.0)), (far, self.MIX_X)):
                if spec.evaluate(g) != crossing_oracle(g, center, self.MIX_R, through=3.0 * self.MIX_R):
                    problems.append(f"local crossing at {center} differs from the oracle, replicate {i}")
            pair = coupling.thin_pair(self.thin_window, self.THIN_LOW, self.THIN_HIGH, rep)
            low, high = coupling.coupled_graphs(pair, self.thin_model, rep)
            kept = set(pair.high.ids[pair.retained].tolist())
            low_ids = {tuple(sorted(e)) for e in low.cloud.ids[low.edges].tolist()}
            induced = {
                tuple(sorted(e)) for e in high.cloud.ids[high.edges].tolist() if e[0] in kept and e[1] in kept
            }
            if low_ids != induced:
                problems.append(f"thinned graph is not the induced subgraph, replicate {i}")
        return problems

    def pin_values(self):
        _, mixing, thinning = self.first
        return {
            "mixing_near_hits": mixing.near.hits,
            "mixing_far_hits": mixing.far.hits,
            "mixing_covariance": float(mixing.covariance),
            "thinning_low_hits": thinning.low.hits,
            "thinning_high_hits": thinning.high.hits,
        }


class LargeBuild(Workload):
    """One lambda=1 cloud per pass, built once per catalog model plus the generalized demo."""

    name = "large-build"
    RADIUS = 28.0  # n ~ 2460 points: above the 2000-point switch to the kd-tree path
    INTENSITY = 1.0
    SPOT_CENTERS = 150
    SPOT_RANDOM_PAIRS = 3000

    def __init__(self, seed, out_dir, pins=None, method="auto"):
        super().__init__(seed, out_dir, pins)
        self.models = dict(models.catalog(2))
        self.models["demo-generalized"] = models.demo_generalized(2)
        self.window = ppp.ball_window(self.RADIUS, d=2)
        self.crossing = events.crossing_spec(self.RADIUS / (2.0 + events.WINDOW_MARGIN))
        self.method = method  # pin.py pins the edge sets from "exact" builds

    def warm_up(self):
        cloud = ppp.sample_ppp(ppp.ball_window(4.0, d=2), self.INTENSITY, seed=self.seed)
        for model in self.models.values():
            graph.build_graph(cloud, model, seed=self.seed)

    def run_pass(self, k):
        s = self.pass_seed(k)
        cloud = ppp.sample_ppp(self.window, self.INTENSITY, seed=s)
        built = {}
        for name, model in self.models.items():
            t0 = self.clock()
            g = graph.build_graph(cloud, model, seed=s, method=self.method)
            self.timers[f"graph.build_s.{name}"].append(self.clock() - t0)
            built[name] = (g, self.crossing.evaluate(g))
        return len(built), (s, cloud, built)

    def check_pass(self, k, result):
        _, cloud, built = result
        problems = []
        for name, (g, _) in built.items():
            e = g.edges
            ordered = e.shape[0] < 2 or bool(np.all(np.diff(e[:, 0] * len(cloud) + e[:, 1]) > 0))
            if g.n_vertices != len(cloud) or (e.size and not (np.all(e[:, 0] < e[:, 1]) and ordered)):
                problems.append(f"{name}: malformed edge array")
        gen = self.models["demo-generalized"]
        g = built["demo-generalized"][0]
        if g.n_edges:
            gap = np.abs(0.5 * g.edge_lengths() - gen.damping_radius)
            if float(gap.min()) <= 1e-9:
                problems.append("demo-generalized: a kept pair sits at the damping-radius tie")
        return [f"pass {k}: {p}" for p in problems]

    def _spot_pairs(self, cloud, gen: np.random.Generator):
        """Every pair within distance 3 of some random points, plus uniformly random pairs."""
        pos = cloud.positions
        n = len(cloud)
        ii, jj = [], []
        for i in gen.choice(n, size=min(self.SPOT_CENTERS, n), replace=False):
            near = np.flatnonzero(np.sum((pos - pos[i]) ** 2, axis=1) < 9.0)
            near = near[near != i]
            ii.append(np.full(near.shape, i))
            jj.append(near)
        a = gen.integers(0, n, size=self.SPOT_RANDOM_PAIRS)
        b = gen.integers(0, n, size=self.SPOT_RANDOM_PAIRS)
        ii.append(a[a != b])
        jj.append(b[a != b])
        i, j = np.concatenate(ii), np.concatenate(jj)
        return np.minimum(i, j), np.maximum(i, j)

    def _expected_edges(self, cloud, model, s, i, j):
        """Edge decisions for pairs (i, j) straight from the pair rule, damping counted by brute force."""
        pos = cloud.positions
        dist = np.sqrt(np.sum((pos[i] - pos[j]) ** 2, axis=1))
        p = np.asarray(models.pairwise_prob(model, cloud.marks[i], cloud.marks[j], dist), dtype=float)
        if model.variant == "generalized":
            mids = 0.5 * (pos[i] + pos[j])
            others = np.empty(len(i), dtype=np.int64)
            for k in range(len(i)):
                close = np.sum((pos - mids[k]) ** 2, axis=1) <= model.damping_radius**2
                close[[i[k], j[k]]] = False
                others[k] = int(close.sum())
            p = p * model.damping_factor**others
        return rng.pair_uniforms(s, cloud.ids[i], cloud.ids[j]) < p

    def check_run(self):
        s, cloud, built = self.first
        problems = []
        spot = np.random.default_rng(s)
        i, j = self._spot_pairs(cloud, spot)
        n = len(cloud)
        for name, (g, crossing) in built.items():
            model = self.models[name]
            if self.method != "exact" and math.isfinite(models.max_range(model)):
                exact = graph.build_graph(cloud, model, seed=s, method="exact")
                if not np.array_equal(exact.edges, g.edges):
                    problems.append(f"{name}: kd-tree edges differ from the exact sweep")
            present = np.isin(i * n + j, g.edges[:, 0] * n + g.edges[:, 1])
            if not np.array_equal(present, self._expected_edges(cloud, model, s, i, j)):
                problems.append(f"{name}: edges disagree with the pair rule on spot-checked pairs")
            if crossing != crossing_oracle(g, (0.0, 0.0), self.crossing.r):
                problems.append(f"{name}: crossing differs from the union-find oracle")
        return problems

    def pin_values(self):
        _, cloud, built = self.first
        values = {"points": len(cloud)}
        for name, (g, crossing) in built.items():
            values[f"{name}/edges"] = g.n_edges
            values[f"{name}/edges_sha256"] = edges_digest(g.edges)
            values[f"{name}/crossing"] = crossing
        return values


class Oracles(Workload):
    """The analytic prelude of ``perco estimate``: no graph is built."""

    name = "oracles"
    pins_every_seed = True  # the seed only drives validate_framework's sampled checks
    R = 0.25
    VALIDATE_SAMPLES = 2000

    def __init__(self, seed, out_dir, pins=None):
        super().__init__(seed, out_dir, pins)
        self.models = models.catalog(2)
        spec = events.crossing_spec(self.R)
        self.window = spec.window(2)
        self.ell = spec.truncation_radius()

    def warm_up(self):
        estimators.campbell_long_edges(self.models["plain-indicator"], 1.0, self.R, 1.0)

    def run_pass(self, k):
        s = self.pass_seed(k)
        values, flags = {}, {}
        for name, model in self.models.items():
            t0 = self.clock()
            values[f"truncation_bound/{name}"] = estimators.truncation_bound(model, 1.0, self.window, self.ell)
            self.timers[f"estimators.truncation_bound.total_s.{name}"].append(self.clock() - t0)
        t0 = self.clock()
        for name, model in self.models.items():
            values[f"campbell_long_edges/{name}"] = estimators.campbell_long_edges(model, 1.0, self.R, 1.0)
            values[f"campbell_total_edges/{name}"] = estimators.campbell_total_edges(model, 1.0, self.window)
        self.timers["estimators.campbell.total_s"].append(self.clock() - t0)
        for name, model in self.models.items():
            report = models.validate_framework(model, n_samples=self.VALIDATE_SAMPLES, seed=s)
            values[f"framework_integral/{name}"] = report.integral_value
            flags[name] = report.ok
        return len(values), (s, values, flags)

    def check_pass(self, k, result):
        _, values, flags = result
        problems = [f"{name}: framework checks fail" for name, ok in flags.items() if not ok]
        if self.pinned is not None:
            problems += compare_pins(values, self.pinned, rel=1e-6)
        return [f"pass {k}: {p}" for p in problems]

    def check_pins(self):
        return []  # check_pass already holds every pass to the pins

    def pin_values(self):
        return {key: float(v) for key, v in self.first[1].items()}


class Bracket(Workload):
    """``perco bracket-lambda`` through ``perco.cli.run`` on a config file."""

    name = "bracket"
    TRIALS = 200
    CONFIG = (
        "model.variant = classical\n"
        "model.d = 2\n"
        "model.kernel = product\n"
        "model.profile.kind = indicator\n"
        "model.profile.theta = 1.0\n"
        "model.tau = 2.5\n"
        "run.trials = {trials}\n"
        "run.threads = 1\n"
        "bracket.lam_min = 0.1\n"
        "bracket.lam_max = 3.0\n"
        "bracket.r_probe = 2.0\n"
        # the first two bisection steps land far from p = 0.5 and never end the search
        # early, so every pass makes the same 5 evaluations
        "bracket.k_max = 3\n"
    )

    def __init__(self, seed, out_dir, pins=None):
        super().__init__(seed, out_dir, pins)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = out_dir / "bracket.cfg"
        self.warm_path = out_dir / "bracket-warm.cfg"
        self.result_path = out_dir / "bracket-result.csv"
        self.config_path.write_text(self.CONFIG.format(trials=self.TRIALS))
        self.warm_path.write_text(self.CONFIG.format(trials=5))
        config.build_model(config.parse_config_file(str(self.config_path)))

    def _run(self, path, s):
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            cli.run("bracket-lambda", str(path), seed=s, out=str(self.result_path))
        text = self.result_path.read_text(encoding="utf-8")
        return text.split("\n", 1)[1], printed.getvalue()

    def warm_up(self):
        self._run(self.warm_path, self.seed)

    def run_pass(self, k):
        s = self.pass_seed(k)
        body, printed = self._run(self.config_path, s)
        return self.TRIALS * len(_csv_rows(body)), (s, body, printed)

    def check_pass(self, k, result):
        _, body, printed = result
        meta = dict(line[2:].split(" = ", 1) for line in body.splitlines() if line.startswith("# "))
        rows = sorted((float(r["intensity"]), int(r["hits"]), int(r["trials"])) for r in _csv_rows(body))
        problems = []
        if not printed.endswith(f"wrote {self.result_path}\n"):
            problems.append("cli.run did not report the result file")
        if meta.get("subcommand") != "bracket-lambda" or not rows:
            problems.append("result file lacks the bracket metadata or rows")
        elif any(trials != self.TRIALS for _, _, trials in rows):
            problems.append("trial count")
        elif any(a[1] > b[1] for a, b in zip(rows, rows[1:])):
            problems.append("hits not monotone in the intensity")
        elif not 0.1 <= float(meta["lam_lo"]) <= float(meta["lam_hi"]) <= 3.0:
            problems.append("bracket outside the search range")
        return [f"pass {k}: {p}" for p in problems]

    def check_run(self):
        s, body, _ = self.first
        again, _ = self._run(self.config_path, s)
        return [] if again == body else ["rerun at the same seed changed the result body"]

    def pin_values(self):
        return {"body_sha256": hashlib.sha256(self.first[1].encode("utf-8")).hexdigest()}


def _csv_rows(body: str) -> list:
    lines = [ln for ln in body.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


WORKLOADS = {w.name: w for w in (McSmall, LargeBuild, Oracles, Bracket)}


def timer_names() -> list:
    """Every timer any workload fills; a workload that fills none reports 0 for it."""
    names = list(models.catalog(2))
    return (
        [f"graph.build_s.{name}" for name in names + ["demo-generalized"]]
        + [f"estimators.truncation_bound.total_s.{name}" for name in names]
        + ["estimators.campbell.total_s"]
    )
