import random
import time
from fractions import Fraction

import pytest

from semival.extended import ExtendedValue, _check_scalar
from semival.fracfield import extend_valuation
from semival.instances import get_instance
from semival.reports import SampleSpec
from semival.sampling import pair_stream, stream
from semival.valuation import (
    REGISTERED_VALUATIONS,
    _is_prime,
    _padic_exponent,
    check_min_property,
    check_valuation_axioms,
    get_valuation,
    in_valuation_semiring,
    level_membership,
    registered_valuations,
    units_vs_zeroset,
    valuate,
)

SPEC = SampleSpec(1, 600, 25)
fin = ExtendedValue.fin


def _vp5_oracle(n: int) -> int:
    # independent oracle: repeated division
    count = 0
    while n % 5 == 0:
        n //= 5
        count += 1
    return count


def test_vp5_values_match_repeated_division():
    nat = get_instance("nat")
    v = get_valuation("vp:5", nat)
    assert valuate(v, nat.element(50)) == fin("N0", _vp5_oracle(50))
    assert valuate(v, nat.element(50)) == fin("N0", 2)
    assert valuate(v, nat.element(0)).is_inf
    for n in range(1, 400):
        assert valuate(v, nat.element(n)) == fin("N0", _vp5_oracle(n))
    qnn = get_instance("qnn")
    vq = get_valuation("vp:5", qnn)
    assert valuate(vq, qnn.element(Fraction(50, 3))) == fin("Z", 2)
    assert valuate(vq, qnn.element(Fraction(3, 50))) == fin("Z", -2)


def test_low_order_and_deg_high_values():
    lau = get_instance("laurent(nat)")
    vlow = get_valuation("low-order", lau)
    vhigh = get_valuation("deg-high", lau)
    e = lau.element([(-2, 1), (1, 3)])  # X^-2 + 3X
    assert valuate(vlow, e) == fin("Z", -2)
    assert valuate(vhigh, e) == fin("Z", 1)
    assert valuate(vlow, lau.zero).is_inf
    assert valuate(vhigh, lau.one) == fin("Z", 0)


def test_tropical_identity_values():
    ti = get_instance("tropical-int")
    v = get_valuation("tropical-id", ti)
    assert valuate(v, ti.element(-4)) == fin("Z", -4)
    assert valuate(v, ti.infinity()).is_inf


def test_deg_frac_values():
    frs = get_instance("fractions(poly(nat))")
    v = get_valuation("deg-frac", frs)
    poly = frs.base
    x = poly.indeterminate()
    x1 = poly.add(poly.one, x)
    assert valuate(v, frs.fraction(x, x1)) == fin("Z", 0)
    assert valuate(v, frs.fraction(poly.power(x, 3), x1)) == fin("Z", 2)
    assert valuate(v, frs.zero).is_inf


def test_vm_idz_values():
    frs = get_instance("fractions(ideals-z)")
    idz = frs.base
    v = get_valuation("vm-idz:5", frs)
    assert valuate(v, frs.fraction(idz.element(50), idz.element(3))) == fin("Z", 2)
    assert valuate(v, frs.fraction(idz.element(3), idz.element(25))) == fin("Z", -2)


def test_fraction_rules_are_well_defined_on_equivalence_classes():
    # scaling numerator and denominator by the same nonzero element changes
    # the payload but never the value
    frs = get_instance("fractions(poly(nat))")
    poly = frs.base
    v = get_valuation("deg-frac", frs)
    x = poly.indeterminate()
    scalers = [x, poly.add(poly.one, x), poly.element([(2, 3)])]
    for a in stream(frs, SampleSpec(4, 60, 8)):
        num, den = a.payload
        for s in scalers:
            scaled = frs.element((poly._mul(num, s.payload),
                                  poly._mul(den, s.payload)))
            assert scaled == a
            assert valuate(v, scaled) == valuate(v, a)


def test_rule_source_validation():
    with pytest.raises(ValueError):
        get_valuation("vp:4", get_instance("nat"))  # 4 is not prime
    with pytest.raises(ValueError):
        get_valuation("vp:5", get_instance("fuzzy"))
    with pytest.raises(ValueError):
        get_valuation("deg-frac", get_instance("fractions(nat)"))
    with pytest.raises(ValueError):
        get_valuation("no-such-rule", get_instance("nat"))
    with pytest.raises(ValueError):
        get_valuation("deg-high", get_instance("poly(nat)"))  # needs Z exponents


@pytest.mark.parametrize("rule,sid", REGISTERED_VALUATIONS)
def test_axioms_for_each_registered_rule(rule, sid):
    v = get_valuation(rule, get_instance(sid))
    report = check_valuation_axioms(v, SPEC)
    assert report.holds, str(report)


@pytest.mark.parametrize("rule,sid", REGISTERED_VALUATIONS)
def test_rule_values_pass_domain_validation(rule, sid):
    # rule results skip validation; the validation they skip is the oracle
    v = get_valuation(rule, get_instance(sid))
    for w in (v, extend_valuation(v)):
        src = w.source
        for x, y in pair_stream(src, SampleSpec(1, 1000, 50), salt="rule-values"):
            for z in (x, src.add(x, y), src.mul(x, y)):
                val = w.fn(z)
                assert val.domain == w.domain
                if val.value is not None:
                    assert _check_scalar(val.domain, val.value) == val.value
                assert ExtendedValue(val.domain, val.value) == val


@pytest.mark.parametrize("rule,sid", REGISTERED_VALUATIONS)
def test_infinite_fiber_is_exactly_zero_on_entire_sources(rule, sid):
    v = get_valuation(rule, get_instance(sid))
    source = v.source
    assert source.caps.entire
    for x in stream(source, SPEC, salt="fiber"):
        assert valuate(v, x).is_inf == x.is_zero()


@pytest.mark.parametrize("rule,sid", [
    ("vp:5", "qnn"), ("tropical-id", "tropical-int"),
    ("deg-frac", "fractions(poly(nat))"), ("vm-idz:5", "fractions(ideals-z)"),
])
def test_inverse_negates_value_on_semifields(rule, sid):
    v = get_valuation(rule, get_instance(sid))
    source = v.source
    for x in stream(source, SPEC, salt="invneg"):
        if x.is_zero():
            continue
        assert valuate(v, source.inv(x)).value == -valuate(v, x).value


@pytest.mark.parametrize("rule,sid,expected", [
    ("vp:5", "qnn", True),
    ("low-order", "monoid(nat,N0)", True),
    ("vm-idz:5", "fractions(ideals-z)", True),
    ("tropical-id", "tropical-int", True),
    ("trivial", "qnn", True),
    ("deg-frac", "fractions(poly(nat))", False),
    ("deg-high", "laurent(nat)", False),
])
def test_min_property_verdicts(rule, sid, expected):
    v = get_valuation(rule, get_instance(sid))
    report = check_min_property(v, SPEC)
    assert report.holds == expected, str(report)
    if not report.holds:
        vx, vy = valuate(v, report.x), valuate(v, report.y)
        vsum = valuate(v, v.source.add(report.x, report.y))
        assert vx != vy
        assert vsum == report.vsum != min(vx, vy)


def test_deg_frac_min_property_witness_is_one_and_x():
    frs = get_instance("fractions(poly(nat))")
    v = get_valuation("deg-frac", frs)
    report = check_min_property(v, SPEC)
    assert not report.holds
    assert frs.eq(report.x, frs.one)
    assert frs.eq(report.y, frs.indeterminate())
    assert (report.vx, report.vy, report.vsum) == (fin("Z", 0), fin("Z", 1), fin("Z", 1))


def test_level_membership():
    nat = get_instance("nat")
    v = get_valuation("vp:5", nat)
    zero = fin("N0", 0)
    # 2 has value 0, so it sits in the weak level set at v(2) inside the carrier
    assert level_membership(v, nat.element(2), zero, strict=False, within_sv=True)
    assert not level_membership(v, nat.element(2), zero, strict=True)
    # zero has value inf and lies in every level set
    assert level_membership(v, nat.zero, fin("N0", 7), strict=True)
    frs = get_instance("fractions(poly(nat))")
    vd = get_valuation("deg-frac", frs)
    assert level_membership(vd, frs.indeterminate(), fin("Z", 0), strict=True)
    with pytest.raises(ValueError):
        level_membership(v, nat.element(2), ExtendedValue.inf("N0"))


@pytest.mark.parametrize("rule,sid", REGISTERED_VALUATIONS)
def test_zero_value_is_built_once(rule, sid):
    v = get_valuation(rule, get_instance(sid))
    assert v.zero_value is v.zero_value
    assert v.zero_value == fin(v.domain, 0)


def test_nonnegative_filter_validates_no_value(monkeypatch):
    # every element is compared with the valuation's 0; rule results skip
    # validation and that 0 is built once, so the filter validates nothing
    qnn = get_instance("qnn")
    v = get_valuation("vp:5", qnn)
    elements = stream(qnn, SampleSpec(1, 1000, 50), salt="zero-value")
    assert v.zero_value == fin("Z", 0)
    checked = []
    validate = ExtendedValue.__post_init__
    monkeypatch.setattr(ExtendedValue, "__post_init__",
                        lambda self: (checked.append(self), validate(self))[1])
    inside = sum(in_valuation_semiring(v, x) for x in elements)
    assert 0 < inside < len(elements) == 1000
    assert checked == []


def test_units_vs_zeroset_agreement_and_gap():
    qnn = get_instance("qnn")
    assert units_vs_zeroset(get_valuation("vp:5", qnn), SPEC).holds
    assert units_vs_zeroset(get_valuation("trivial", qnn), SPEC).holds
    ti = get_instance("tropical-int")
    assert units_vs_zeroset(get_valuation("tropical-id", ti), SPEC).holds
    lau = get_instance("laurent(nat)")
    report = units_vs_zeroset(get_valuation("low-order", lau), SPEC)
    assert not report.holds
    assert lau.eq(report.witness[0], lau.add(lau.one, lau.indeterminate()))


def test_low_order_is_stable_on_equal_values_over_zerosumfree_coefficients():
    # with coefficients that cannot cancel, the least exponent survives
    # addition even when both operands share it
    mon = get_instance("monoid(nat,N0)")
    v = get_valuation("low-order", mon)
    for f, g in pair_stream(mon, SPEC, salt="minstable"):
        vf, vg = valuate(v, f), valuate(v, g)
        if vf == vg:
            assert valuate(v, mon.add(f, g)) == vf


def test_deg_high_addition_is_max_over_zerosumfree_coefficients():
    lau = get_instance("laurent(nat)")
    v = get_valuation("deg-high", lau)
    for f, g in pair_stream(lau, SPEC, salt="degmax"):
        if f.is_zero() or g.is_zero():
            continue
        expected = max(valuate(v, f), valuate(v, g))
        assert valuate(v, lau.add(f, g)) == expected


def test_surjectivity_constructors():
    for v in registered_valuations():
        if v.element_with_value is None or v.domain == "trivial":
            continue
        values = [0, 1, 2] if v.domain == "N0" else [-2, -1, 0, 1, 2]
        for m in values:
            e = v.element_with_value(m)
            assert valuate(v, e) == fin(v.domain, m)


def test_infinite_fiber_is_a_prime_ideal():
    # closure under + and absorption, and primality, on sampled pairs
    for rule, sid in REGISTERED_VALUATIONS:
        v = get_valuation(rule, get_instance(sid))
        source = v.source
        zero = source.zero
        for a, b in pair_stream(source, SampleSpec(1, 150, 10), salt="fiberlaws"):
            ainf = valuate(v, a).is_inf
            binf = valuate(v, b).is_inf
            if ainf and binf:
                assert valuate(v, source.add(a, b)).is_inf
            if ainf:
                assert valuate(v, source.mul(a, b)).is_inf
            if valuate(v, source.mul(a, b)).is_inf:
                assert ainf or binf


def test_level_chain_inclusions():
    # strict descending chain of level sets under a surjective rule
    qnn = get_instance("qnn")
    v = get_valuation("vp:5", qnn)
    elems = stream(qnn, SampleSpec(1, 300, 40), salt="chain",
                   keep=lambda x: in_valuation_semiring(v, x))
    for alpha, beta in ((0, 2), (1, 3), (0, 1)):
        a, b = fin("Z", alpha), fin("Z", beta)
        for x in elems:
            if level_membership(v, x, b, strict=True, within_sv=True):
                assert level_membership(v, x, b, strict=False, within_sv=True)
            if level_membership(v, x, b, strict=False, within_sv=True):
                assert level_membership(v, x, a, strict=True, within_sv=True)
            if level_membership(v, x, a, strict=True, within_sv=True):
                assert level_membership(v, x, a, strict=False, within_sv=True)
        # strictness witnesses exist by surjectivity
        assert level_membership(v, v.element_with_value(beta), b, strict=False,
                                within_sv=True)
        assert not level_membership(v, v.element_with_value(beta), b, strict=True)
        if beta > alpha + 1:
            mid = v.element_with_value(alpha + 1)
            assert level_membership(v, mid, a, strict=True, within_sv=True)
            assert not level_membership(v, mid, b, strict=False)


def _trial_division_prime(p: int) -> bool:
    # reference: trial division by every candidate up to the square root
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_primality_agrees_with_trial_division():
    assert all(_is_prime(p) == _trial_division_prime(p) for p in range(-3, 10**5))


def test_primality_of_large_parameters():
    t0 = time.perf_counter()
    assert _is_prime(1_000_000_000_000_000_003)
    assert not _is_prime(561)  # Carmichael: Fermat liars for every base
    assert not _is_prime(1_000_000_000_000_000_001)
    assert not _is_prime(2**89)  # a small factor decides any size
    with pytest.raises(ValueError, match="cannot be certified prime"):
        _is_prime(2**89 - 1)  # prime, but above the deterministic limit
    assert time.perf_counter() - t0 < 1


def _naive_padic_exponent(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def test_padic_exponent_agrees_with_repeated_division():
    rng = random.Random(7)
    primes = (2, 3, 5, 7, 11, 13, 97, 1_000_003)
    for _ in range(2000):
        p = rng.choice(primes)
        n = p ** rng.randint(0, 70) * rng.randint(1, 10**12)
        assert _padic_exponent(n, p) == _naive_padic_exponent(n, p), (n, p)


def test_padic_exponent_of_a_high_power_is_fast():
    n = 5**100000
    t0 = time.perf_counter()
    assert valuate(get_valuation("vp:5", get_instance("nat")),
                   get_instance("nat").element(n)) == fin("N0", 100000)
    assert time.perf_counter() - t0 < 2
