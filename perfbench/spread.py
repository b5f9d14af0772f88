"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload pn-dense --seeds 1-10

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``; it is printed next to the metric's
bound from BENCHMARK.json.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shown = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(f"seed {seed} ({wall:.0f} s): attempted {result['attempted']}, failed {result['failed']}: {shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<28} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "  > bound/3" if bound is not None and not spread < bound / 3 else ""
        print(f"{name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {bound if bound is not None else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
