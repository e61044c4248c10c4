#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly, each run with another seed.

    python3 perfbench/steady.py --workload mc-small --runs 10
    python3 perfbench/steady.py --workload all --runs 1

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  A spread under a third of the bound is
marked steady.  It also prints the error rate, failed over attempted
operations.  The summary, with the environment record of the runs, goes to
``perfbench/out/steady-<workload>.json``.  Exits 1 if any run fails or
reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, OUT_DIR, ROOT

RUN_TIMEOUT_S = 300


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return {"seed": seed, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(seed=seed, exit=0)
    return result


def summarise(values: list, bound: float) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def check_workload(workload: str, runs: int, first_seed: int, seconds: float, spec: dict) -> bool:
    results = []
    for seed in range(first_seed, first_seed + runs):
        results.append(one_run(workload, seed, seconds))
        print(f"  {workload} seed {seed}: "
              + ("ok" if results[-1].get("correct") else f"FAILED {results[-1]}"), flush=True)
    good = [r for r in results if r["exit"] == 0]
    ok = len(good) == len(results) and all(r["correct"] and r["failed"] == 0 for r in good)
    summary = {"workload": workload, "runs": results, "metrics": {}}
    attempted = sum(r["attempted"] for r in good)
    summary["error_rate"] = sum(r["failed"] for r in good) / attempted if attempted else None
    print(f"{workload}: {len(good)}/{len(results)} runs completed, error_rate = {summary['error_rate']}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in good]
        if not values:
            continue
        s = summarise(values, metric["bound"])
        summary["metrics"][name] = s
        line = f"  {name:18s} median {s['median']:.6g} {metric['unit']}"
        if "spread" in s:
            line += (f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.2%}"
                     f"  bound {metric['bound']:.0%}  {'steady' if s['steady'] else 'NOT steady'}")
        print(line)
    last = OUT_DIR / f"result-{workload}-seed{first_seed + runs - 1}-trace0.json"
    if last.is_file():
        summary["environment"] = json.loads(last.read_text())["environment"]
    (OUT_DIR / f"steady-{workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json's run_seconds")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in names:
        ok &= check_workload(name, args.runs, args.first_seed, seconds, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
