"""Measure the baseline: every workload over ten seeds, then one traced run.

    python3 perfbench/baseline.py

Runs run.py once per seed with the run length from BENCHMARK.json, and
writes perfbench/baseline.json: the environment (Python version, CPU count,
git SHA), and per workload and end-to-end metric the ten values, their
median, quartiles (statistics.quantiles, n=4) and the quartile spread as a
share of the median, next to the metric's bound; then the per-layer
metrics of one traced run.

Exits 1 when an op failed or when a spread exceeds its metric's bound.  The
spread of setup_s is exempt, as in the acceptance rule for the benchmark:
only its median is compared between sets of runs.  A spread at or above a
third of its bound, the steadiness aimed for, is flagged in the output but
does not fail the script.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import run
import workloads

BENCHMARK = run.ROOT / "BENCHMARK.json"
BASELINE = run.HERE / "baseline.json"
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    print(proc.stdout, end="", flush=True)
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    baseline = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "machine": platform.machine(),
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    ok = True
    for workload in workloads.WORKLOADS:
        seeds = list(SEEDS)
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        ok &= all(r["correct"] for r in results)
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s" and spread > bound:
                ok = False
            end_to_end[name] = {
                "unit": results[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                "samples": len(values), "spread": spread, "bound": bound, "values": values,
            }
            print(f"{workload:10s} {name:14s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.2%} (bound {bound:.0%}"
                  f"{', above a third of it' if spread >= bound / 3 else ''})", flush=True)
        traced = run_once(workload, seeds[0], seconds, 1)
        ok &= traced["correct"]
        baseline["workloads"][workload] = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "per_layer": {"seed": seeds[0], **{k: v["value"] for k, v in traced["metrics"].items()}},
        }
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
