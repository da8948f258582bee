"""The ROADMAP baseline table, measured without a profiler.

Runs the traced ``explore_flat`` and ``explore_sharded`` workloads on one
seed and prints their per-route client-side medians side by side (flat
vs 4-shard), with the layer self times that explain the difference.
Run from the repository root::

    python3 perfbench/baseline_table.py --seed 7 --seconds 10
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROUTES = ("cohort", "timeline", "density", "flow", "patient")
LAYERS = ("cohort.summarize_ms", "query.select_ms", "shard.scatter_ms",
          "shard.materialize_ms", "sketch.fold_ms", "viz.timeline_ms",
          "viz.density_ms", "viz.patient_html_ms")


def traced(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} failed:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} wrong answers")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    flat = traced("explore_flat", args.seed, args.seconds)
    sharded = traced("explore_sharded", args.seed, args.seconds)
    print(f"route medians (cold, traced, seed {args.seed}, "
          f"{os.cpu_count()} cpus)")
    print(f"| {'route':<16} | {'flat ms':>10} | {'4-shard ms':>10} |")
    print(f"|{'-' * 18}|{'-' * 12}|{'-' * 12}|")
    for route in ROUTES:
        name = f"route.{route}_ms"
        print(f"| {route:<16} | {flat[name]:10.1f} | {sharded[name]:10.1f} |")
    print()
    print(f"| {'layer (per call)':<22} | {'flat ms':>10} | "
          f"{'4-shard ms':>10} |")
    print(f"|{'-' * 24}|{'-' * 12}|{'-' * 12}|")
    for name in LAYERS:
        print(f"| {name:<22} | {flat[name]:10.1f} | {sharded[name]:10.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
