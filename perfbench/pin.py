#!/usr/bin/env python3
"""Regenerate pins.json: the pass-0 outputs of every workload at the pinned seed.

    python3 perfbench/pin.py

The large-build edge sets are pinned from method="exact" builds, so the
automatic method choice is held to the exhaustive sweep.  Regenerate only
when a change to perco's outputs is intended, and record why.
"""

from __future__ import annotations

import json
import os
import sys

from run import BENCH_DIR, BLAS_THREAD_VARS, OUT_DIR, ROOT

PIN_SEED = 0


def main() -> int:
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, LargeBuild

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    pins = {"seed": PIN_SEED}
    for name, cls in WORKLOADS.items():
        kwargs = {"method": "exact"} if cls is LargeBuild else {}
        workload = cls(PIN_SEED, OUT_DIR, **kwargs)
        _, workload.first = workload.run_pass(0)
        pins[name] = workload.pin_values()
        print(f"pinned {name}", flush=True)
    (BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
