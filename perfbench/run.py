#!/usr/bin/env python3
"""perco benchmark: one workload per run, measured end to end or traced by layer.

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 10 --trace 0

Run it from the root of a perco checkout; it imports perco from ``src/``.
The workloads are in ``workloads.py`` and listed, with their metrics, in
``BENCHMARK.json``.

A run sets up the workload (import, model and config construction, one
warm-up call) in the benchmark process and, for ``setup_s``, again in
``SETUP_REPEATS`` fresh processes.  It then runs passes of the workload back
to back until ``--seconds`` have passed, always at least one whole pass,
checks every pass outside its timed interval, and runs the heavier output
checks after the timed phase.

Times are reported at a reference machine speed: while a pass or a set-up
runs, ``speed.py`` samples a small kernel's speed on the same core, and the
measured time is scaled by how much slower than its reference time the
kernel ran.  The host this was built on slows down by up to 1.9x in spells
of seconds to minutes, and the scaled times are several times steadier than
the raw ones.  The raw times are in the result file.  ``wall_s`` is the
median scaled pass time, ``replicates_per_s`` the replicates of all passes
over their summed scaled time, and ``setup_s`` the median scaled time of the
set-up processes.

``--trace 0`` reports BENCHMARK.json's end-to-end metrics.  ``--trace 1``
runs the same untraced phase, then the same passes again with every layer's
public functions wrapped in spans (``layers.py``), and reports the per-layer
metrics plus the tracing overhead: the traced minus the untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
summarise the run for a reader.  A full record, with the environment, every
pass time and every problem found, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# thread pools of the BLAS and OpenMP runtimes numpy and scipy may load; set before numpy is imported
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment(blas_threads: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "blas_threads": blas_threads,
    }


def set_up(name: str, seed: int, pins: dict | None):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, OUT_DIR, pins=pins)
    workload.warm_up()
    return workload


def time_setups(name: str, seed: int) -> list:
    """(raw, scaled) wall times of SETUP_REPEATS fresh processes that import perco and set up.

    Each process runs a speed probe over its own set-up and reports it on its last output line.
    """
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr}")
        samples, busy = json.loads(proc.stdout.strip().splitlines()[-1])
        net = wall - busy
        times.append((wall, net * speed.REFERENCE_S * samples / busy))
    return times


class Phase:
    """Closed loop of passes for at least ``seconds``; each pass checked after its timed interval.

    With a speed probe, every pass also gets a net time (probe time taken
    out) and a time scaled to the reference speed; without one, both equal
    the raw time.
    """

    def __init__(self, workload, seconds: float, probe=None):
        self.pass_s: list = []
        self.net_s: list = []
        self.scaled_s: list = []
        self.replicates: list = []
        self.attempted = 0
        self.failed_passes: set = set()
        self.problems: list = []
        start = perf_counter()
        k = 0
        while k == 0 or perf_counter() - start < seconds:
            self.attempted += 1
            since = probe.mark() if probe else None
            t0 = perf_counter()
            try:
                count, result = workload.run_pass(k)
            except Exception:
                self.failed_passes.add(k)
                self.problems.append(f"pass {k} raised:\n{traceback.format_exc()}")
                break
            wall = perf_counter() - t0
            net, scaled = probe.scale(wall, since) if probe else (wall, wall)
            self.pass_s.append(wall)
            self.net_s.append(net)
            self.scaled_s.append(scaled)
            self.replicates.append(count)
            if workload.first is None:
                workload.first = result
            found = workload.check_pass(k, result)
            if found:
                self.failed_passes.add(k)
                self.problems += found
            k += 1


def end_to_end_metrics(phase: Phase, setup_s: list, peak_rss_kib: int) -> dict:
    """Times at the reference speed; see the module docstring."""
    return {
        "setup_s": statistics.median(scaled for _, scaled in setup_s),
        "wall_s": statistics.median(phase.scaled_s),
        "replicates_per_s": sum(phase.replicates) / sum(phase.scaled_s),
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "perco" / "__init__.py").is_file():
        print(f"error: no perco sources under {ROOT / 'src'}; run from a perco checkout", file=sys.stderr)
        return 2
    blas_threads = {var: "1" for var in BLAS_THREAD_VARS}
    os.environ.update(blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workload_names)}", file=sys.stderr)
        return 2
    if args.setup_only:
        import speed

        with speed.SpeedProbe() as probe:
            set_up(args.workload, args.seed, pins=None)
        print(json.dumps([probe.samples, probe.busy_s]))
        return 0

    import perco

    if not Path(perco.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported perco from {perco.__file__}, not from this checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    workload = set_up(args.workload, args.seed, pins)
    setup_s = time_setups(args.workload, args.seed)

    import speed

    with speed.SpeedProbe() as probe:
        phases = [Phase(workload, args.seconds, probe)]
    if not phases[0].pass_s:
        print("error: no pass completed\n" + "\n".join(phases[0].problems), file=sys.stderr)
        return 1
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = end_to_end_metrics(phases[0], setup_s, peak_rss_kib)
    if args.trace:
        import layers
        import tracing
        from workloads import timer_names

        with speed.SpeedProbe() as probe:
            # span times leave out the probe's handler, wherever it interrupts
            tracer = tracing.Tracer(clock=lambda: perf_counter() - probe.busy_s)
            workload.clock = tracer.clock
            workload.timers.clear()
            undo = tracing.install(tracer, layers.trace_targets())
            try:
                phases.append(Phase(workload, args.seconds, probe))
            finally:
                tracing.uninstall(undo)
        if not phases[1].pass_s:
            print("error: no traced pass completed\n" + "\n".join(phases[1].problems), file=sys.stderr)
            return 1
        table = tracing.SpanTable(tracer)
        metrics.update(layers.layer_metrics(table, phases[1].net_s, workload.timers, timer_names()))
        metrics["trace.overhead_s"] = statistics.median(phases[1].scaled_s) - metrics["wall_s"]
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / metrics["wall_s"]
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")

    if workload.first is not None:
        try:
            run_problems = workload.check_run() + workload.check_pins()
        except Exception:
            run_problems = [f"output checks raised:\n{traceback.format_exc()}"]
        if run_problems:
            # these checks look at pass 0, so a problem fails that pass
            phases[0].failed_passes.add(0)
            phases[0].problems += run_problems
    problems = [p for phase in phases for p in phase.problems]
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(len(phase.failed_passes) for phase in phases)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not computed: {', '.join(missing)}")
    reported = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(blas_threads),
        "setup_s": setup_s,  # (raw, at reference speed) per set-up process
        "pass_s": [phase.pass_s for phase in phases],
        "pass_s_net_of_probe": [phase.net_s for phase in phases],
        "pass_s_at_reference_speed": [phase.scaled_s for phase in phases],
        "replicates": [phase.replicates for phase in phases],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    }
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(phases[0].pass_s)}  result file {result_path}")
    print(f"  error_rate = {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
    for name, entry in reported.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if args.trace:
        print(hot_layers(metrics, table, sum(phases[1].net_s)))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


def hot_layers(metrics: dict, table, traced_s: float) -> str:
    """Where the traced passes spent their time: by layer, by span, by top-level call."""
    import layers

    names = list(layers.LAYERS) + ["bench"]
    total = sum(metrics[f"layer.{n}.self_s"] for n in names)
    shares = sorted(((metrics[f"layer.{n}.self_s"] / total, n) for n in names), reverse=True)
    spans = sorted(
        (metrics[f"{n}.self_s"], n) for n in layers.COUNTED + ("estimators.run_replicates", "renorm.bracket", "cli.run")
    )
    calls = table.top_level_totals()
    return (
        f"  tracing overhead {metrics['trace.overhead_s']:+.4g} s per pass ({metrics['trace.overhead_share']:+.1%})\n"
        "  self time by layer: " + ", ".join(f"{n} {s:.1%}" for s, n in shares if s >= 0.001) + "\n"
        f"  largest span self time: {spans[-1][1]} ({spans[-1][0] / total:.1%} of traced pass time)\n"
        "  top-level calls: " + ", ".join(f"{n} {t / traced_s:.1%}" for n, t in calls.items())
    )


if __name__ == "__main__":
    sys.exit(main())
