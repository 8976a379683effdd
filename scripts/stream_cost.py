#!/usr/bin/env python3
"""Time sample-stream generation: microseconds per element of ``stream`` on
every registered instance, and of the carrier stream on each of the four
standard discrete valuation structures, at SampleSpec(1, 1000, 50), best of
three runs.

Each run draws under its own salt, so no run can reuse an earlier stream.
The output is a timing, so it changes from machine to machine.

Usage: python scripts/stream_cost.py
"""

from functools import partial
from time import perf_counter

from semival.dvs import standard_dvs_structures
from semival.instances import ALL_REGISTERED_IDS, get_instance
from semival.reports import SampleSpec
from semival.sampling import stream

SPEC = SampleSpec(1, 1000, 50)
RUNS = 3


def best_us_per_element(draw) -> float:
    best = float("inf")
    for run in range(RUNS):
        t0 = perf_counter()
        draw(SPEC, f"cost-{run}")
        best = min(best, perf_counter() - t0)
    return 1e6 * best / SPEC.count


def main() -> None:
    rows = [(sid, partial(stream, get_instance(sid))) for sid in ALL_REGISTERED_IDS]
    rows += [(f"carrier: {D.name}", D.sample_carrier)
             for D in standard_dvs_structures()]
    print(f"== stream cost (seed={SPEC.seed}, count={SPEC.count}, "
          f"size_bound={SPEC.size_bound}, best of {RUNS})")
    header = f"{'stream':<36} {'us/element':>10}"
    print(header)
    print("-" * len(header))
    for label, draw in rows:
        print(f"{label:<36} {best_us_per_element(draw):>10.2f}")


if __name__ == "__main__":
    main()
