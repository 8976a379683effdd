#!/usr/bin/env python3
"""Walk the four discrete valuation carriers: normal forms, Euclidean
division, the shrinking chain of uniformizer powers, and the split between
the content-multiplicative carriers and the degree-difference one.

Usage: python scripts/dvs_tour.py
"""

from semival.content import content, cp_mul, gaussian_check
from semival.dvs import (
    dvs_ideal_of,
    dvs_normal_form,
    euclidean_divide,
    intersection_probe,
    standard_dvs_structures,
)
from semival.ideals import is_subtractive_bounded, positive_ideal
from semival.reports import SampleSpec
from semival.valuation import valuate


def main() -> None:
    spec = SampleSpec(1, 400, 12)
    for D in standard_dvs_structures():
        print(f"== {D.name}  (uniformizer t = {D.uniformizer})")
        xs = D.sample_carrier(SampleSpec(1, 14, 9), nonzero=True)
        for x in xs[2:5]:
            unit, n = dvs_normal_form(D, x)
            print(f"   {x}  =  ({unit}) * t^{n}")
        a, b = xs[5], xs[6]
        q, r = euclidean_divide(D, a, b)
        print(f"   divmod({a}, {b}) -> q = {q}, r = {r}")
        probe = intersection_probe(D, xs[3], valuate(D.valuation, xs[3]).value + 1)
        print(f"   chain probe at {xs[3]}: {probe.detail}")
        subt = is_subtractive_bounded(positive_ideal(D.valuation), spec)
        gauss = gaussian_check(D, spec, max_degree=2)
        print(f"   maximal ideal subtractive: {subt.verdict};"
              f" content multiplicative: {gauss.verdict}")
        if not gauss.holds:
            f, g = gauss.witness[0], gauss.witness[1]
            print(f"   failing pair: f = {f}   g = {g}")
            cf, cg = dvs_ideal_of(D, content(f, D)), dvs_ideal_of(D, content(g, D))
            cfg = dvs_ideal_of(D, content(cp_mul(f, g), D))
            print(f"   c(f)c(g) has value {cf + cg} but c(fg) has value {cfg}")
        print()


if __name__ == "__main__":
    main()
