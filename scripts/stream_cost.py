#!/usr/bin/env python3
"""Time sample-stream generation and the payload arithmetic on what it
draws: microseconds per payload of ``stream`` on every registered instance,
on the four fractions over a semifield that the extension-axioms checks
draw from, and of the carrier stream (``stream`` kept by
``DVSStructure.in_carrier``, the draw under ``sample_carrier``) on each of
the four standard discrete valuation structures, at SampleSpec(1, 1000,
50); then microseconds per
payload ``_add``, ``_mul`` and ``_eq`` over the stream's consecutive pairs
(on the ambient instance for a carrier). Every figure is the best of three
runs.

Each stream run draws under its own salt, so no run can reuse an earlier
stream. The output is a timing, so it changes from machine to machine.

A second table gives the tracemalloc peak, in KB above what was allocated
before, of one pair law (the min-property of vp:5 on qnn) and one triple law
(the semiring axioms of poly(nat)) at SampleSpec(1, 10000, 50). Sampled laws
draw their streams lazily, so these peaks do not grow with the count.

Usage: python scripts/stream_cost.py
"""

import gc
import tracemalloc
from functools import partial
from time import perf_counter

from semival.dvs import standard_dvs_structures
from semival.instances import ALL_REGISTERED_IDS, get_instance
from semival.laws import check_semiring_axioms
from semival.reports import SampleSpec
from semival.sampling import stream
from semival.valuation import check_min_property, get_valuation

SPEC = SampleSpec(1, 1000, 50)
# the sources of the extension-axioms checks on semifield sources
EXTENSION_SOURCES = ("fractions(qnn)", "fractions(tropical-int)",
                     "fractions(fractions(poly(nat)))", "fractions(fractions(ideals-z))")
RUNS = 3
LAW_SPEC = SampleSpec(1, 10_000, 50)


def best_us_per_element(draw) -> float:
    best = float("inf")
    for run in range(RUNS):
        t0 = perf_counter()
        draw(SPEC, f"cost-{run}")
        best = min(best, perf_counter() - t0)
    return 1e6 * best / SPEC.count


def best_us_per_op(op, pairs) -> float:
    best = float("inf")
    for _ in range(RUNS):
        t0 = perf_counter()
        for p, q in pairs:
            op(p, q)
        best = min(best, perf_counter() - t0)
    return 1e6 * best / len(pairs)


def peak_kb(check) -> float:
    """The tracemalloc peak of one call, in KB above the memory traced
    before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        check()
        return (tracemalloc.get_traced_memory()[1] - before) / 1024
    finally:
        tracemalloc.stop()


def law_memory() -> None:
    laws = (
        ("min-property vp:5@qnn (pairs)", partial(
            check_min_property, get_valuation("vp:5", get_instance("qnn")), LAW_SPEC)),
        ("axioms poly(nat) (triples)", partial(
            check_semiring_axioms, get_instance("poly(nat)"), LAW_SPEC)),
    )
    print(f"== sampled-law memory (seed={LAW_SPEC.seed}, count={LAW_SPEC.count}, "
          f"size_bound={LAW_SPEC.size_bound})")
    header = f"{'law':<36} {'peak KB':>10}"
    print(header)
    print("-" * len(header))
    for label, check in laws:
        print(f"{label:<36} {peak_kb(check):>10.1f}")


def main() -> None:
    rows = [(sid, partial(stream, get_instance(sid)), get_instance(sid))
            for sid in ALL_REGISTERED_IDS + EXTENSION_SOURCES]
    rows += [(f"carrier: {D.name}", partial(stream, D.ambient, keep=D.in_carrier),
              D.ambient) for D in standard_dvs_structures()]
    print(f"== stream cost (seed={SPEC.seed}, count={SPEC.count}, "
          f"size_bound={SPEC.size_bound}, best of {RUNS})")
    header = (f"{'stream':<36} {'us/element':>10} {'us/_add':>8} {'us/_mul':>8} "
              f"{'us/_eq':>8}")
    print(header)
    print("-" * len(header))
    for label, draw, inst in rows:
        per_element = best_us_per_element(draw)
        payloads = draw(SPEC, "cost-ops")
        pairs = list(zip(payloads, payloads[1:]))
        ops = (best_us_per_op(op, pairs) for op in (inst._add, inst._mul, inst._eq))
        print(f"{label:<36} {per_element:>10.2f} " + " ".join(f"{t:>8.2f}" for t in ops))
    print()
    law_memory()


if __name__ == "__main__":
    main()
