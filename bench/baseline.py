"""Run the benchmark on several seeds and summarize it.

    python3 bench/baseline.py

For each workload: RUNS untraced runs on seeds 1, 2, ..., then one traced
run on seed 1.  For every end-to-end metric it reports the median over the
runs, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median; for the traced run, every per-layer metric.  Runs go
one at a time.  The summary is written to bench/baseline.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS

RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["samples"] = int(proc.stderr.split(" timed,")[0].rsplit(" ", 1)[1])
    marker = "known defect failed: "
    result["known_defects"] = [line.split(marker)[1] for line in proc.stderr.splitlines() if marker in line]
    return result


def summarize(runs: list) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return out


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    summary = {"run_seconds": seconds, "workloads": {}}
    seeds = list(range(1, RUNS + 1))
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], seconds, 1)
        summary["workloads"][workload] = {
            "seeds": seeds,
            "samples_per_run": [r["samples"] for r in runs],
            "attempted_per_run": [r["attempted"] for r in runs],
            "failed_per_run": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "known_defects_failed": sorted({name for r in runs for name in r["known_defects"]}),
            "end_to_end": summarize(runs),
            "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(workload, json.dumps(summary["workloads"][workload]["end_to_end"], indent=1), file=sys.stderr)
    with open(BENCH / "baseline.json", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
