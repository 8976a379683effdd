"""The ideal operations on payloads against their element-level definitions.

The references below work on elements, the way the operations were written
before they ran on payloads: reduce an element list by the carrier's rule,
multiply generators with ``instance.mul``, and test inclusion generator by
generator with ``contains``.  Generator payloads, verdicts, witnesses and
details must come out equal on every carrier with an ideal rule.
"""

import math
import random
from itertools import zip_longest

import pytest

from semival.content import (
    content,
    cp_add,
    cp_mul,
    dedekind_mertens_sides,
    make_content_poly,
)
from semival.dvs import standard_dvs_structures
from semival.ideals import (
    _bool_poly_oracle,
    ideal_power,
    ideal_product,
    ideal_subset,
    ideal_sum,
    ideals_comparable,
    make_ideal,
)
from semival.instances import get_instance
from semival.reports import SampleSpec
from semival.sampling import stream
from semival.semiring import Element, UnsupportedOperationError

PLAIN = ("nat", "ideals-z", "bool-poly", "tropical-nat", "fuzzy", "qnn",
         "tropical-int", "fractions(nat)", "poly(nat)")
DVS = ("qnn at 5", "tropical naturals", "degree-bounded fractions",
       "integer ideals at (5)")


def _first_least(gens, key):
    # the first generator of least key, None (inf) above every value
    keys = [key(g) for g in gens]
    order = [(k is None, k if k is not None else 0) for k in keys]
    return [gens[order.index(min(order))]]


def _shape(g):
    return frozenset(e - min(g.payload) for e in g.payload)


def ref_reduce(inst, gens, D):
    """The reduced generator list of gens, as elements."""
    if D is not None:
        return _first_least(gens, lambda g: D.valuation.payload_fn(g.payload))
    sid = inst.sid
    if sid == "nat":
        kept = []
        for v in sorted({g.payload for g in gens if g.payload > 0}):
            if all(v % w for w in kept):
                kept.append(v)
        return [inst.element(v) for v in kept] or [inst.zero]
    if sid == "ideals-z":
        return [inst.element(math.gcd(*(g.payload for g in gens)))]
    if sid == "bool-poly":
        # per shape, in the order shapes first appear, the least shift
        nonzero = [g for g in gens if not g.is_zero()]
        shapes = []
        for g in nonzero:
            if _shape(g) not in shapes:
                shapes.append(_shape(g))
        kept = [min((g for g in nonzero if _shape(g) == s),
                    key=lambda g: min(g.payload)) for s in shapes]
        # then, one at a time, drop each generator the others kept generate
        for g in list(kept):
            others = [h.payload for h in kept if h is not g]
            if _bool_poly_oracle(others)(g.payload):
                kept.remove(g)
        return kept or [inst.zero]
    if sid == "tropical-nat":
        return _first_least(gens, lambda g: g.payload)
    if sid == "fuzzy":
        return _first_least(gens, lambda g: -g.payload)
    if inst.semifield:
        return _first_least(gens, lambda g: g.is_zero())
    unique = []
    for g in gens:
        if all(g.payload != u.payload for u in unique):
            unique.append(g)
    return unique


def ref_product(inst, I, J, D):
    return ref_reduce(inst, [inst.mul(a, b) for a in I for b in J], D)


def ref_power(inst, I, n, D):
    result = ref_reduce(inst, [inst.one], D)
    for _ in range(n):
        result = ref_product(inst, result, I, D)
    return result


def ref_subset(gens, J):
    """(witness, detail) of the first of the generators outside J, or None."""
    for g in gens:
        if not J.contains(g):
            return (g,), f"{g} not in {J}"
    return None


def _carrier(name):
    spec = SampleSpec(11, 40, 8)
    if name in DVS:
        D = next(D for D in standard_dvs_structures() if D.name == name)
        return D.ambient, D, D.sample_carrier(spec, salt="payload-ops")
    inst = get_instance(name)
    return inst, None, [inst.element(p) for p in stream(inst, spec, salt="payload-ops")]


def _payloads(gens):
    return [g.payload for g in gens]


@pytest.mark.parametrize("name", PLAIN + DVS)
def test_payload_operations_match_the_element_definitions(name):
    inst, D, pool = _carrier(name)
    rng = random.Random(f"payload-ops:{name}")
    lists = [[inst.zero]] + [rng.sample(pool, rng.randint(1, 3)) for _ in range(8)]
    verdicts = set()
    if name == "bool-poly":
        # shifted copies of a generator share its shape
        x = inst.indeterminate()
        lists += [[inst.mul(x, g), g, inst.mul(inst.mul(x, x), g)] for g in pool[:3]]
    for gens, others in zip(lists, lists[1:] + lists[:1]):
        I, J = make_ideal(inst, gens, dvs=D), make_ideal(inst, others, dvs=D)
        rI, rJ = ref_reduce(inst, gens, D), ref_reduce(inst, others, D)
        assert _payloads(I.generators) == list(I.payloads) == _payloads(rI)
        assert str(I) == "ideal[" + ", ".join(map(str, rI)) + "]"
        assert list(ideal_sum(I, J).payloads) == _payloads(ref_reduce(inst, rI + rJ, D))
        assert list(ideal_product(I, J).payloads) == _payloads(ref_product(inst, rI, rJ, D))
        for n in (0, 1, 3):
            assert list(ideal_power(I, n).payloads) == _payloads(ref_power(inst, rI, n, D))
        if name == "poly(nat)":
            # no oracle: inclusion needs membership, which is refused
            with pytest.raises(UnsupportedOperationError, match="no ideal membership oracle"):
                ideal_subset(I, J)
            continue
        fwd, bwd = ref_subset(rI, J), ref_subset(rJ, I)
        for report, ref in ((ideal_subset(I, J), fwd), (ideal_subset(J, I), bwd)):
            assert report.holds == (ref is None)
            verdicts.add(report.holds)
            if ref is not None:
                assert _payloads(report.witness) == _payloads(ref[0])
                assert report.detail == ref[1]
        report = ideals_comparable(I, J)
        assert report.holds == (fwd is None or bwd is None)
        if not report.holds:
            assert _payloads(report.witness) == _payloads(fwd[0] + bwd[0])
    assert verdicts in ({True, False}, set())


def ref_poly(coeffs):
    """The element coefficients with trailing zeros stripped."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def ref_text(coeffs):
    terms = [f"({c})" + ("" if k == 0 else "*Y" if k == 1 else f"*Y^{k}")
             for k, c in enumerate(coeffs) if not c.is_zero()]
    return " + ".join(terms) or "0"


def _elements(inst, f):
    assert not any(isinstance(c, Element) for c in f.coeffs)
    return [Element(inst, c) for c in f.coeffs]


@pytest.mark.parametrize("name", PLAIN + DVS)
def test_content_matches_the_element_definition(name):
    inst, D, pool = _carrier(name)
    rng = random.Random(f"payload-content:{name}")
    polys = []
    for _ in range(12):
        coeffs = [rng.choice(pool + [inst.zero]) for _ in range(rng.randint(0, 4))]
        f, ref = make_content_poly(inst, coeffs), ref_poly(coeffs)
        assert _elements(inst, f) == ref
        assert str(f) == ref_text(ref)
        nonzero = [c for c in ref if not c.is_zero()] or [inst.zero]
        C = content(f, D)
        assert list(C.payloads) == _payloads(ref_reduce(inst, nonzero, D))
        assert all(isinstance(g, Element) and g.semiring is inst for g in C.generators)
        polys.append((f, ref))
    # sums and products against coefficientwise element arithmetic
    for (f, rf), (g, rg) in zip(polys, polys[1:] + polys[:1]):
        total = [inst.add(a, b) for a, b in zip_longest(rf, rg, fillvalue=inst.zero)]
        assert _elements(inst, cp_add(f, g)) == ref_poly(total)
        prod = [inst.zero] * max(len(rf) + len(rg) - 1, 0)
        for i, a in enumerate(rf):
            for j, b in enumerate(rg):
                prod[i + j] = inst.add(prod[i + j], inst.mul(a, b))
        assert _elements(inst, cp_mul(f, g)) == ref_poly(prod)
        assert str(cp_mul(f, g)) == ref_text(ref_poly(prod))


def test_dedekind_mertens_left_side_is_the_power_times_one_more_factor():
    # c(f)^m c(f) is how ideal_power builds c(f)^(m+1): same generator list
    nat = get_instance("nat")
    rng = random.Random("dm-sides")
    for _ in range(30):
        f = make_content_poly(nat, [nat.element(rng.randint(1, 12))
                                    for _ in range(rng.randint(1, 4))])
        g = make_content_poly(nat, [nat.element(rng.randint(1, 12))
                                    for _ in range(rng.randint(1, 3))])
        lhs, _ = dedekind_mertens_sides(f, g, None)
        direct = ideal_product(ideal_power(content(f), g.degree() + 1), content(g))
        assert lhs.payloads == direct.payloads
