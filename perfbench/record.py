"""Record one point of the benchmark trajectory.

    python3 perfbench/record.py --out perfbench/baseline.json

Runs every registered workload once on each of seeds 1 to 10 with tracing off, one traced
run per workload, and the cli-hostile slice, all with the run length of
BENCHMARK.json, then writes the medians, quartiles and spreads
(interquartile range over median) of every metric together with the
machine context: Python version, nproc, commit and the start time of a
bare interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def bare_start_ms(n: int = 10) -> float:
    samples = []
    for _ in range(n):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append((perf_counter() - t0) * 1000)
    return statistics.median(samples)


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    record = {
        "context": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "machine": platform.machine(), "commit": commit(),
                    "bare_interpreter_start_ms": bare_start_ms(),
                    "run_seconds": seconds, "seeds": SEEDS},
        "workloads": {},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        traced = run(workload, SEEDS[0], seconds, 1)
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "lines": runs[0]["lines"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_lines": traced["lines"],
        }
        for name, m in metrics.items():
            print(f"{workload} {name}: median {m['median']:.6g} spread {m['spread']:.4f} "
                  f"values {[round(v, 6) for v in m['values']]}", flush=True)
    hostile = run("cli-hostile", 0, seconds, 0)
    record["cli-hostile"] = {"attempted": hostile["attempted"],
                             "failed": hostile["failed"], "lines": hostile["lines"]}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
