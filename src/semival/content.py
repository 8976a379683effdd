"""Polynomial content ideals in a fresh indeterminate Y over any
oracle-equipped instance, with the product-content identity checks.

The content of a polynomial is the ideal generated by its coefficients.
Ideal equality is decided by mutual generator membership, which is exact
for finitely generated ideals with oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import chain, islice, product

from .dvs import DVSStructure
from .extended import _uniform
from .ideals import (
    FinGenIdeal,
    ideal_power,
    ideal_product,
    ideal_subset,
    make_ideal,
)
from .instances import FractionSemiring
from .reports import LawReport, SampleSpec, law_counterexample, law_holds
from .sampling import stream
from .semiring import Element, Semiring


@dataclass(frozen=True)
class ContentPolynomial:
    """Coefficient list over one instance, index = exponent of Y; trailing
    zero coefficients are stripped and the zero polynomial is empty."""

    instance: Semiring
    coeffs: tuple[Element, ...]

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                terms.append(f"({c})")
            elif k == 1:
                terms.append(f"({c})*Y")
            else:
                terms.append(f"({c})*Y^{k}")
        return " + ".join(terms) if terms else "0"


def make_content_poly(instance: Semiring, coeffs) -> ContentPolynomial:
    coeffs = list(coeffs)
    for c in coeffs:
        instance._claim(c)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return ContentPolynomial(instance, tuple(coeffs))


def cp_add(f: ContentPolynomial, g: ContentPolynomial) -> ContentPolynomial:
    inst = f.instance
    n = max(len(f.coeffs), len(g.coeffs))
    out = []
    for k in range(n):
        a = f.coeffs[k] if k < len(f.coeffs) else inst.zero
        b = g.coeffs[k] if k < len(g.coeffs) else inst.zero
        out.append(inst.add(a, b))
    return make_content_poly(inst, out)


def cp_mul(f: ContentPolynomial, g: ContentPolynomial) -> ContentPolynomial:
    inst = f.instance
    if f.is_zero() or g.is_zero():
        return ContentPolynomial(inst, ())
    out = [inst.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = inst.add(out[i + j], inst.mul(a, b))
    return make_content_poly(inst, out)


def _carrier_parts(carrier) -> tuple[Semiring, DVSStructure | None]:
    if isinstance(carrier, DVSStructure):
        return carrier.ambient, carrier
    return carrier, None


def content(f: ContentPolynomial, dvs: DVSStructure | None = None) -> FinGenIdeal:
    """The ideal generated by the nonzero coefficients; (0) for the zero
    polynomial."""
    gens = [c for c in f.coeffs if not c.is_zero()]
    if not gens:
        gens = [f.instance.zero]
    return make_ideal(f.instance, gens, dvs=dvs)


def _equal_ideals(law: str, pair: tuple, I: FinGenIdeal, J: FinGenIdeal,
                  escapes: tuple[str, str], spec: SampleSpec | None) -> LawReport:
    """I = J by generator inclusion both ways, I in J first.  A generator
    that escapes follows the pair in the witness, and the detail names the
    failing direction."""
    for A, B, detail in ((I, J, escapes[0]), (J, I, escapes[1])):
        sub = ideal_subset(A, B)
        if not sub.holds:
            return law_counterexample(law, pair + sub.witness, spec, detail)
    return law_holds(law, spec)


def dedekind_mertens_sides(f: ContentPolynomial, g: ContentPolynomial,
                           dvs: DVSStructure | None) -> tuple[FinGenIdeal, FinGenIdeal]:
    """The sides c(f)^(m+1) c(g) and c(f)^m c(fg), m = deg g, for nonzero f, g."""
    m = g.degree()
    cf = content(f, dvs)
    return (ideal_product(ideal_power(cf, m + 1), content(g, dvs)),
            ideal_product(ideal_power(cf, m), content(cp_mul(f, g), dvs)))


def dedekind_mertens_check(f: ContentPolynomial, g: ContentPolynomial,
                           dvs: DVSStructure | None = None,
                           spec: SampleSpec | None = None) -> LawReport:
    """Verify c(f)^(m+1) c(g) = c(f)^m c(fg) with m = deg g, as mutual
    generator membership of the two ideal products."""
    law = f"dedekind-mertens[{f.instance.sid}]"
    if f.is_zero() or g.is_zero():
        return law_holds(law, spec, "one side is zero")
    lhs, rhs = dedekind_mertens_sides(f, g, dvs)
    return _equal_ideals(law, (f, g), lhs, rhs, (
        "left side escapes the right", "right side escapes the left"), spec)


def gaussian_defect(f: ContentPolynomial, g: ContentPolynomial,
                    dvs: DVSStructure | None = None) -> LawReport:
    """Check c(fg) = c(f) c(g) for one pair.  The inclusion of c(fg) in the
    product always holds; the reverse direction can fail."""
    law = f"gaussian[{f.instance.sid}]"
    prod = ideal_product(content(f, dvs), content(g, dvs))
    cfg = content(cp_mul(f, g), dvs)
    return _equal_ideals(law, (f, g), cfg, prod, (
        "coefficient of fg escapes c(f)c(g)", "c(f)c(g) escapes c(fg)"), None)


def sample_content_polys(carrier, spec: SampleSpec,
                         max_degree: int = 4) -> list[ContentPolynomial]:
    """Deterministic content polynomials: small combinations of the
    coefficient preamble first, then random coefficient lists."""
    instance, dvs = _carrier_parts(carrier)
    keep = dvs.contains if dvs is not None else None
    # fraction coefficients stay small (numerator/denominator bound 2) so the
    # downstream membership equalities remain fast
    bound = min(spec.size_bound, 2) if isinstance(instance, FractionSemiring) \
        else spec.size_bound
    coeffs = stream(instance, SampleSpec(spec.seed, max(spec.count * 3, 64),
                                         bound),
                    salt="content", keep=keep)
    pre = [c for c in (coeffs[:8] if coeffs else []) if not c.is_zero()][:3]
    polys: list[ContentPolynomial] = [ContentPolynomial(instance, ())]
    for c in pre:
        polys.append(make_content_poly(instance, [c]))
    for c0, c1 in product(pre, pre):
        polys.append(make_content_poly(instance, [c0, c1]))
    idx = 0
    rng = random.Random(f"{spec.seed}:{instance.sid}:degrees")
    degree = _uniform(rng, 0, max_degree)
    while len(polys) < spec.count and idx + max_degree < len(coeffs):
        deg = degree()
        polys.append(make_content_poly(instance, coeffs[idx: idx + deg + 1]))
        idx += deg + 1
    return polys[: spec.count]


def content_pairs(carrier, spec: SampleSpec) -> list[tuple[ContentPolynomial,
                                                           ContentPolynomial]]:
    """At most spec.count pairs: 2 * spec.count polynomials are sampled and
    the first half is paired with the second."""
    polys = sample_content_polys(carrier, SampleSpec(spec.seed, 2 * spec.count,
                                                     spec.size_bound))
    half = len(polys) // 2
    return list(zip(polys[:half], polys[half:]))


def gaussian_check(carrier, spec: SampleSpec,
                   max_degree: int = 4) -> LawReport:
    """Sampled search over polynomial pairs for a content-product failure."""
    instance, dvs = _carrier_parts(carrier)
    law = f"gaussian[{instance.sid}]"
    polys = sample_content_polys(carrier, spec, max_degree=max_degree)
    half = max(len(polys) // 2, 1)
    pairs = chain(product(polys[:8], polys[:8]), zip(polys[:half], polys[half:]))
    for f, g in islice(pairs, spec.count):
        verdict = gaussian_defect(f, g, dvs)
        if not verdict.holds:
            return replace(verdict, bound=spec)
    return law_holds(law, spec)
