"""Determinism self-check: the same seed must give the same request list and
the same verdict list on every run.

    python3 perfbench/selfcheck.py

Runs each registered workload twice, briefly, on the held-out seed and
compares the pass-0 digests that run.py prints.  Exits 0 when every pair agrees and every run is correct.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import os

HELD_OUT_SEED = 9973
DIGESTS = re.compile(r"pass-0 digests requests=(\w+) verdicts=(\w+)")


def run_once(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return None, False
    lines = proc.stdout.strip().splitlines()
    found = [m.groups() for m in map(DIGESTS.search, lines) if m]
    return (found[0] if found else None), json.loads(lines[-1])["correct"]


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        registered = [w["name"] for w in json.load(fh)["workloads"]]
    ok = True
    for workload in registered:
        first, c1 = run_once(workload, HELD_OUT_SEED)
        second, c2 = run_once(workload, HELD_OUT_SEED)
        same = first is not None and first == second
        ok = ok and same and c1 and c2
        print(f"{workload}: seed {HELD_OUT_SEED} requests={first and first[0]} "
              f"verdicts={first and first[1]} "
              f"{'identical' if same else 'DIFFERENT'} on two runs; "
              f"correct {c1} and {c2}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
