import pytest
from hypothesis import given, strategies as st

from semival.extended import ExtendedValue
from semival.fracfield import (
    DifferencePair,
    embed_in_fractions,
    extend_valuation,
    frac_arith,
    gp_embed,
    gp_ops,
)
from semival.instances import get_instance
from semival.reports import SampleSpec
from semival.sampling import stream
from semival.valuation import check_valuation_axioms, get_valuation, valuate

nonneg = st.integers(min_value=0, max_value=200)


def test_fraction_arithmetic_examples():
    frn = get_instance("fractions(nat)")
    nat = frn.base

    def q(a, b):
        return frn.fraction(nat.element(a), nat.element(b))

    assert frac_arith("add", q(1, 2), q(1, 3)) == q(5, 6)
    assert frac_arith("mul", q(2, 3), q(3, 4)) == q(1, 2)
    assert frac_arith("inv", q(2, 5)) == q(5, 2)
    with pytest.raises(Exception):
        frac_arith("inv", q(0, 1))

    fpn = get_instance("fractions(poly(nat))")
    poly = fpn.base
    x = poly.indeterminate()
    x1 = poly.add(poly.one, x)
    assert frac_arith("inv", fpn.fraction(x, x1)) == fpn.fraction(x1, x)

    fri = get_instance("fractions(ideals-z)")
    idz = fri.base
    assert fri.fraction(idz.element(4), idz.element(6)) == \
        fri.fraction(idz.element(2), idz.element(3))
    assert fri.fraction(idz.element(4), idz.element(6)).payload == (2, 3)


def test_frac_arith_respects_equivalence():
    fpn = get_instance("fractions(poly(nat))")
    poly = fpn.base
    spec = SampleSpec(3, 40, 8)
    elems = [x for x in stream(fpn, spec) if True]
    x = poly.indeterminate()
    for a in elems[:12]:
        num, den = a.payload
        scaled = fpn.element((poly._mul(num, x.payload), poly._mul(den, x.payload)))
        assert scaled == a
        for b in elems[:12]:
            assert frac_arith("add", scaled, b) == frac_arith("add", a, b)
            assert frac_arith("mul", scaled, b) == frac_arith("mul", a, b)


def test_gp_examples():
    assert gp_ops("leq", DifferencePair(2, 5), DifferencePair(4, 1))
    assert DifferencePair(3, 1) == DifferencePair(5, 3)
    assert gp_ops("add", gp_embed(4), gp_embed(1)) == DifferencePair(5, 0)
    assert gp_ops("embed", 7) == DifferencePair(7, 0)


@given(nonneg, nonneg, nonneg, nonneg)
def test_gp_of_naturals_is_order_isomorphic_to_integers(x1, x2, y1, y2):
    a, b = DifferencePair(x1, x2), DifferencePair(y1, y2)
    s = a + b
    assert (a == b) == (x1 - x2 == y1 - y2)
    assert (a <= b) == (x1 - x2 <= y1 - y2)
    assert s.pos - s.neg == (x1 - x2) + (y1 - y2)


@given(nonneg, nonneg)
def test_gp_embedding_preserves_order(x, y):
    assert (gp_embed(x) <= gp_embed(y)) == (x <= y)
    assert (DifferencePair(0, 0) <= gp_embed(x)) == (0 <= x)


def test_extension_values():
    nat = get_instance("nat")
    v = get_valuation("vp:5", nat)
    ext = extend_valuation(v)
    frs = ext.source
    assert frs.sid == "fractions(nat)"
    assert ext.domain == "Z"

    def q(a, b):
        return frs.fraction(nat.element(a), nat.element(b))

    assert valuate(ext, q(2, 5)) == ExtendedValue("Z", -1)
    # well-definedness on equivalence classes: 10/2 is 5/1
    assert valuate(ext, q(10, 2)) == ExtendedValue("Z", 1)
    assert valuate(ext, q(0, 3)).is_inf

    poly = get_instance("poly(nat)")
    vlow = get_valuation("low-order", poly)
    extlow = extend_valuation(vlow)
    fpn = extlow.source
    x2 = poly.power(poly.indeterminate(), 2)
    x1 = poly.add(poly.one, poly.indeterminate())
    assert valuate(extlow, fpn.fraction(x2, x1)) == ExtendedValue("Z", 2)


def test_extension_is_a_valuation_and_embeds_the_base():
    nat = get_instance("nat")
    v = get_valuation("vp:5", nat)
    ext = extend_valuation(v)
    assert check_valuation_axioms(ext, SampleSpec(1, 800, 30)).holds
    frs = ext.source
    for z in stream(nat, SampleSpec(1, 200, 40)):
        lifted = valuate(ext, embed_in_fractions(frs, z))
        base = valuate(v, z)
        assert lifted.is_inf == base.is_inf
        if not base.is_inf:
            assert lifted.value == base.value


def test_extension_requires_cancellative_source():
    with pytest.raises(ValueError):
        extend_valuation(get_valuation("trivial", get_instance("fuzzy")))


def test_semifield_halves():
    # outside the nonnegative part, the inverse lies inside
    v = get_valuation("deg-frac", get_instance("fractions(poly(nat))"))
    frs = v.source
    zero = v.zero_value
    for x in stream(frs, SampleSpec(2, 150, 8)):
        if x.is_zero():
            continue
        if not valuate(v, x) >= zero:
            assert valuate(v, frs.inv(x)) >= zero
