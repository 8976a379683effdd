#!/usr/bin/env python3
"""Survey the whole instance catalogue: semiring axioms, cancellation and
zero-divisor probes, and per-rule valuation laws, printed as one table.

Usage: python scripts/law_survey.py [--samples N] [--seed N]
"""

import argparse

from semival.instances import ALL_REGISTERED_IDS, get_instance
from semival.laws import check_semiring_axioms, probe_mc_entire
from semival.reports import SampleSpec
from semival.valuation import (
    REGISTERED_VALUATIONS,
    check_min_property,
    check_valuation_axioms,
    get_valuation,
    units_vs_zeroset,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=600)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = SampleSpec(args.seed, args.samples, 20)

    print(f"== instance laws (seed={spec.seed}, samples={spec.count}, "
          f"size_bound={spec.size_bound})")
    header = f"{'instance':<24} {'axioms':<8} {'mc':<16} {'entire':<8} flags"
    print(header)
    print("-" * len(header))
    for sid in ALL_REGISTERED_IDS:
        inst = get_instance(sid)
        axioms = check_semiring_axioms(inst, spec)
        mc, entire = probe_mc_entire(inst, spec)
        mc_text = mc.verdict + ("*" if mc.analytic else "")
        flags = []
        if inst.semifield:
            flags.append("semifield")
        elif inst.mc:
            flags.append("mc")
        if inst.zerosumfree:
            flags.append("zerosumfree")
        print(f"{sid:<24} {axioms.verdict:<8} {mc_text:<16} "
              f"{entire.verdict:<8} {','.join(flags)}")
    print("   (* = analytic verdict, no sampling needed)")

    print()
    print("== valuation rules")
    header = f"{'rule @ source':<36} {'axioms':<8} {'min-property':<16} units=zeroset"
    print(header)
    print("-" * len(header))
    for rule, sid in REGISTERED_VALUATIONS:
        v = get_valuation(rule, get_instance(sid))
        axioms = check_valuation_axioms(v, spec)
        minp = check_min_property(v, spec)
        uz = units_vs_zeroset(v, spec)
        extra = ""
        if not minp.holds:
            extra = f"  [min fails at ({minp.x}, {minp.y})]"
        print(f"{rule + ' @ ' + sid:<36} {axioms.verdict:<8} "
              f"{minp.verdict:<16} {uz.verdict}{extra}")


if __name__ == "__main__":
    main()
