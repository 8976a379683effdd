import hashlib
import json
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from semival.dvs import standard_dvs_structures, value_group_valuation
from semival.extended import (
    MONOIDS,
    DomainMismatchError,
    ExtendedValue,
    ext_add,
    ext_compare,
    ext_min,
)
from semival.fracfield import extend_valuation
from semival.instances import TropicalSemiring, get_instance
from semival.reports import SampleSpec
from semival.sampling import pair_stream, stream
from semival.valuation import (
    REGISTERED_VALUATIONS,
    Valuation,
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


def _elements(inst, pairs):
    """The payload pairs of a stream as element pairs."""
    return ((inst.element(p), inst.element(q)) for p, q in pairs)
fin = ExtendedValue


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
    for a in map(frs.element, stream(frs, SampleSpec(4, 60, 8))):
        num, den = a.payload
        for s in scalers:
            scaled = frs.element((poly._mul(num, s.payload),
                                  poly._mul(den, s.payload)))
            assert scaled == a
            assert valuate(v, scaled) == valuate(v, a)


def test_rule_source_validation():
    with pytest.raises(ValueError, match=r"^vp parameter must be prime, got 4$"):
        get_valuation("vp:4", get_instance("nat"))
    with pytest.raises(ValueError, match=r"^vp:5 is defined on nat and qnn, not fuzzy$"):
        get_valuation("vp:5", get_instance("fuzzy"))
    with pytest.raises(ValueError, match=r"^vp:5 is defined on nat and qnn, "
                                         r"not fractions\(ideals-z\)$"):
        get_valuation("vp:5", get_instance("fractions(ideals-z)"))
    with pytest.raises(ValueError, match=r"^vm-idz parameter must be prime, got 4$"):
        get_valuation("vm-idz:4", get_instance("fractions(ideals-z)"))
    with pytest.raises(ValueError, match=r"^deg-frac is defined on fractions\(poly\(nat\)\)$"):
        get_valuation("deg-frac", get_instance("fractions(nat)"))
    with pytest.raises(ValueError, match=r"^unknown valuation rule 'no-such-rule'$"):
        get_valuation("no-such-rule", get_instance("nat"))
    with pytest.raises(ValueError, match=r"^deg-high is defined on Laurent-style sources$"):
        get_valuation("deg-high", get_instance("poly(nat)"))  # needs Z exponents
    with pytest.raises(ValueError, match=r"^low-order needs a polynomial-style source$"):
        get_valuation("low-order", get_instance("nat"))


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
        for x, y in _elements(src, pair_stream(src, SampleSpec(1, 1000, 50),
                                               salt="rule-values")):
            for z in (x, src.add(x, y), src.mul(x, y)):
                val = w.fn(z)
                assert val.domain == w.domain
                if val.value is not None:
                    assert MONOIDS[val.domain].check(val.value) == val.value
                assert ExtendedValue(val.domain, val.value) == val


@pytest.mark.parametrize("rule,sid", REGISTERED_VALUATIONS)
def test_infinite_fiber_is_exactly_zero_on_entire_sources(rule, sid):
    v = get_valuation(rule, get_instance(sid))
    source = v.source
    assert source.entire
    for x in map(source.element, stream(source, SPEC, salt="fiber")):
        assert valuate(v, x).is_inf == x.is_zero()


@pytest.mark.parametrize("rule,sid", [
    ("vp:5", "qnn"), ("tropical-id", "tropical-int"),
    ("deg-frac", "fractions(poly(nat))"), ("vm-idz:5", "fractions(ideals-z)"),
])
def test_inverse_negates_value_on_semifields(rule, sid):
    v = get_valuation(rule, get_instance(sid))
    source = v.source
    for x in map(source.element, stream(source, SPEC, salt="invneg")):
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
        x, y = report.witness
        vx, vy = valuate(v, x), valuate(v, y)
        vsum = valuate(v, v.source.add(x, y))
        assert vx != vy
        assert vsum != min(vx, vy)
        assert report.detail == f"v(x)={vx} v(y)={vy} v(x+y)={vsum}"


def test_deg_frac_min_property_witness_is_one_and_x():
    frs = get_instance("fractions(poly(nat))")
    v = get_valuation("deg-frac", frs)
    report = check_min_property(v, SPEC)
    assert not report.holds
    x, y = report.witness
    assert frs.eq(x, frs.one)
    assert frs.eq(y, frs.indeterminate())
    assert report.detail == "v(x)=0 v(y)=1 v(x+y)=1"
    assert (valuate(v, x), valuate(v, y), valuate(v, frs.add(x, y))) == (
        fin("Z", 0), fin("Z", 1), fin("Z", 1))


def test_level_membership():
    nat = get_instance("nat")
    v = get_valuation("vp:5", nat)
    # 2 has value 0: in the level set at 0, not in the one at 1
    assert level_membership(v, nat.element(2), fin("N0", 0))
    assert not level_membership(v, nat.element(2), fin("N0", 1))
    assert level_membership(v, nat.element(50), fin("N0", 2))
    # zero has value inf and lies in every level set
    assert level_membership(v, nat.zero, fin("N0", 7))
    frs = get_instance("fractions(poly(nat))")
    vd = get_valuation("deg-frac", frs)
    x = frs.indeterminate()
    assert level_membership(vd, x, fin("Z", 0))
    # below 0 the level set is S_v itself: 1/X has value -1 >= -1 but lies
    # outside S_v, while 1 and X lie inside
    minus_one = fin("Z", -1)
    assert not level_membership(vd, frs.inv(x), minus_one)
    assert level_membership(vd, frs.one, minus_one)
    assert level_membership(vd, x, minus_one)
    with pytest.raises(ValueError, match="finite values"):
        level_membership(v, nat.element(2), ExtendedValue("N0", None))
    with pytest.raises(DomainMismatchError):
        level_membership(v, nat.element(2), fin("Z", 0))


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
    elements = [qnn.element(p) for p in stream(qnn, SampleSpec(1, 1000, 50),
                                               salt="zero-value")]
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
    for f, g in _elements(mon, pair_stream(mon, SPEC, salt="minstable")):
        vf, vg = valuate(v, f), valuate(v, g)
        if vf == vg:
            assert valuate(v, mon.add(f, g)) == vf


def test_deg_high_addition_is_max_over_zerosumfree_coefficients():
    lau = get_instance("laurent(nat)")
    v = get_valuation("deg-high", lau)
    for f, g in _elements(lau, pair_stream(lau, SPEC, salt="degmax")):
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
        for a, b in _elements(source, pair_stream(source, SampleSpec(1, 150, 10),
                                                  salt="fiberlaws")):
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
    elems = [qnn.element(p) for p in stream(
        qnn, SampleSpec(1, 300, 40), salt="chain",
        keep=lambda p: in_valuation_semiring(v, qnn.element(p)))]
    for alpha, beta in ((0, 2), (1, 3), (0, 1)):
        a, b = fin("Z", alpha), fin("Z", beta)
        for x in elems:
            assert level_membership(v, x, b) == (valuate(v, x) >= b)
            if level_membership(v, x, b):
                assert level_membership(v, x, a)
        # strictness witnesses exist by surjectivity
        for gamma in range(alpha, beta):
            below = v.element_with_value(gamma)
            assert level_membership(v, below, a)
            assert not level_membership(v, below, b)
        assert level_membership(v, v.element_with_value(beta), b)


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


def test_padic_exponent_of_two_counts_trailing_zero_bits_as_division_does():
    rng = random.Random(2)
    ns = list(range(1, 4097)) + [2 ** rng.randint(0, 300) * rng.randrange(1, 10**40)
                                 for _ in range(2000)]
    for n in ns:
        assert _padic_exponent(n, 2) == _naive_padic_exponent(n, 2), n


def test_padic_exponent_of_a_high_power_is_fast():
    n = 5**100000
    t0 = time.perf_counter()
    assert valuate(get_valuation("vp:5", get_instance("nat")),
                   get_instance("nat").element(n)) == fin("N0", 100000)
    assert time.perf_counter() - t0 < 2


def _all_rules():
    """Every registered rule, its extension to fractions, and the value-group
    valuation of each standard discrete structure."""
    out = []
    for rule, sid in REGISTERED_VALUATIONS:
        v = get_valuation(rule, get_instance(sid))
        out += [v, extend_valuation(v)]
    return out + [value_group_valuation(D) for D in standard_dvs_structures()]


# sha256 (first 16 hex digits) of the value texts over each rule's sample
# below, recorded before the rules were rewritten as payload functions
VALUE_DIGESTS = {
    "trivial@qnn": "04c204a3964d7ff7",
    "ext(trivial)@fractions(qnn)": "d450affe8c82093c",
    "vp:5@nat": "1e8c5c527d904c7a",
    "ext(vp:5)@fractions(nat)": "4ad039a7b47e2676",
    "vp:5@qnn": "6b385b7debd2707f",
    "ext(vp:5)@fractions(qnn)": "bc92884d641524df",
    "low-order@poly(nat)": "d2b69dc08d7bf985",
    "ext(low-order)@fractions(poly(nat))": "cd65ac6eb7b14869",
    "low-order@laurent(nat)": "20175c952b6d679a",
    "ext(low-order)@fractions(laurent(nat))": "22f979dfffe43cb3",
    "low-order@monoid(nat,N0)": "7a8619a4976dbb36",
    "ext(low-order)@fractions(monoid(nat,N0))": "21c4d64d2cfbeda8",
    "deg-high@laurent(nat)": "d7fcc12aa521a4c1",
    "ext(deg-high)@fractions(laurent(nat))": "a1822174e9198c34",
    "tropical-id@tropical-nat": "2e7a60f5c1465a3b",
    "ext(tropical-id)@fractions(tropical-nat)": "6906ddd6ce04ad43",
    "tropical-id@tropical-int": "4de7bf068c06553e",
    "ext(tropical-id)@fractions(tropical-int)": "545ee21a1a9f10e6",
    "deg-frac@fractions(poly(nat))": "94084a0e2db30d12",
    "ext(deg-frac)@fractions(fractions(poly(nat)))": "ccbb42ca26b5144f",
    "vm-idz:5@fractions(ideals-z)": "a661e21c39bbcf9d",
    "ext(vm-idz:5)@fractions(fractions(ideals-z))": "1cb6413c28f02c7a",
    "value-group(qnn at 5)@qnn": "6b385b7debd2707f",
    "value-group(tropical naturals)@tropical-int": "4de7bf068c06553e",
    "value-group(degree-bounded fractions)@fractions(poly(nat))": "94084a0e2db30d12",
    "value-group(integer ideals at (5))@fractions(ideals-z)": "a661e21c39bbcf9d",
}


def test_payload_rules_agree_with_valuate_and_send_zero_to_inf():
    digests = {}
    for v in _all_rules():
        src = v.source
        xs = [*map(src.element, [*src.preamble, *stream(src, SampleSpec(1, 200, 50),
                                                         salt="payload-rule")]),
              src.zero]
        values = []
        for x in xs:
            raw = v.payload_fn(x.payload)
            # the checked constructor validates the raw value against the domain
            assert valuate(v, x) == ExtendedValue(v.domain, raw), (v.rule, str(x))
            assert (raw is None) == x.is_zero(), (v.rule, str(x))
            values.append(str(valuate(v, x)))
        digests[f"{v.rule}@{src.sid}"] = hashlib.sha256(
            json.dumps(values).encode()).hexdigest()[:16]
    assert digests == VALUE_DIGESTS


# sha256 (first 16 hex digits) of each rule's unit test over the sample of
# the test above and of its elements of the values in VALUE_RANGES, recorded
# before deg-frac and vm-idz were derived from the fraction extension
UNIT_AND_ELEMENT_DIGESTS = {
    "trivial@qnn": "97772ea2046244d5",
    "ext(trivial)@fractions(qnn)": "cb439b165c366541",
    "vp:5@nat": "00c2a17e346e7984",
    "ext(vp:5)@fractions(nat)": "89867e8aebe635cf",
    "vp:5@qnn": "5baa80655d6b4221",
    "ext(vp:5)@fractions(qnn)": "a6ad144d4b3a678b",
    "low-order@poly(nat)": "73975f0fe80da00c",
    "ext(low-order)@fractions(poly(nat))": "1195d46f4aa9ad53",
    "low-order@laurent(nat)": "dc500d6f55fb9d82",
    "ext(low-order)@fractions(laurent(nat))": "0135b82c93e31d93",
    "low-order@monoid(nat,N0)": "73975f0fe80da00c",
    "ext(low-order)@fractions(monoid(nat,N0))": "d194eb3d3ea39f8d",
    "deg-high@laurent(nat)": "dc500d6f55fb9d82",
    "ext(deg-high)@fractions(laurent(nat))": "e7c014d5a4f4fda3",
    "tropical-id@tropical-nat": "6c6198858c5a2bd6",
    "ext(tropical-id)@fractions(tropical-nat)": "594b413db00266f5",
    "tropical-id@tropical-int": "c4709bed840600ce",
    "ext(tropical-id)@fractions(tropical-int)": "8b022b22695405e0",
    "deg-frac@fractions(poly(nat))": "0bf7c4acc82ccce1",
    "ext(deg-frac)@fractions(fractions(poly(nat)))": "b83d441672ade329",
    "vm-idz:5@fractions(ideals-z)": "631f299144601153",
    "ext(vm-idz:5)@fractions(fractions(ideals-z))": "5c4fbe6b54c7db94",
    "value-group(qnn at 5)@qnn": "5baa80655d6b4221",
    "value-group(tropical naturals)@tropical-int": "c4709bed840600ce",
    "value-group(degree-bounded fractions)@fractions(poly(nat))": "0bf7c4acc82ccce1",
    "value-group(integer ideals at (5))@fractions(ideals-z)": "631f299144601153",
}
VALUE_RANGES = {"trivial": range(0, 1), "N0": range(0, 5), "Z": range(-4, 5)}


def test_unit_tests_and_value_elements_are_pinned():
    digests = {}
    for v in _all_rules():
        src = v.source
        xs = [*map(src.element, [*src.preamble, *stream(src, SampleSpec(1, 200, 50),
                                                         salt="payload-rule")]),
              src.zero]
        units = [v.unit_in_sv(x) for x in xs]
        elements = []
        for m in VALUE_RANGES[v.domain]:
            x = v.element_with_value(m)
            assert valuate(v, x) == fin(v.domain, m), (v.rule, m)
            elements.append(str(x))
        digests[f"{v.rule}@{src.sid}"] = hashlib.sha256(
            json.dumps([units, elements]).encode()).hexdigest()[:16]
    assert digests == UNIT_AND_ELEMENT_DIGESTS


def test_axioms_refute_a_finite_sum_of_two_infinite_values():
    # inf on the multiples of 2 or 3: products stay consistent and v(1) = 0,
    # but v(2 + 3) = 0 lies below min(inf, inf)
    nat = get_instance("nat")

    def ewv(m):
        if m != 0:
            raise ValueError("0 is the only finite value")
        return nat.one

    v = Valuation("inf-on-2-or-3", nat, "N0",
                  lambda n: None if n % 2 == 0 or n % 3 == 0 else 0,
                  payload_unit=nat._is_unit, element_with_value=ewv)
    report = check_valuation_axioms(v, SPEC)
    assert not report.holds
    assert report.detail == "v(x+y) < min"
    x, y = report.witness
    assert valuate(v, x).is_inf and valuate(v, y).is_inf
    assert not valuate(v, nat.add(x, y)).is_inf


def test_units_vs_zeroset_values_each_element_once():
    qnn = get_instance("qnn")
    v = get_valuation("vp:5", qnn)
    calls = []

    def counting(p):
        calls.append(p)
        return v.payload_fn(p)

    assert units_vs_zeroset(replace(v, payload_fn=counting), SPEC).holds
    tried = []
    stream(qnn, SPEC, salt="uz:vp:5",
           keep=lambda p: tried.append(p) or in_valuation_semiring(v, qnn.element(p)))
    assert calls == tried


@pytest.mark.parametrize("rule,sid", REGISTERED_VALUATIONS)
def test_extension_units_are_its_value_zero_set(rule, sid):
    # on a semifield x is a unit of the nonnegative part iff v(x) = 0, since
    # v(1/x) = -v(x)
    ext = extend_valuation(get_valuation(rule, get_instance(sid)))
    report = units_vs_zeroset(ext, SPEC)
    assert report.holds, str(report)


# Broken valuations, one for each branch of check_valuation_axioms, then one
# for the min-property and two for units against the zero set.  Each passes
# every branch checked before its own.  A rule with v(1) != 0 or a finite
# v(0) cannot stay multiplicative (v(1) = v(1*1) = 2 v(1), v(0) = v(0*x) =
# v(0) + v(x)), so those two break products as well, which their branch,
# checked first, reports.  Each test checks the message, the witness arity,
# and that the witness fails the same branch again through valuate.

_VP5 = get_valuation("vp:5", get_instance("nat")).payload_fn


def _refutes_one(v, x):
    return v.source.eq(x, v.source.one) and valuate(v, x) != v.zero_value


def _refutes_zero(v, x):
    return x.is_zero() and not valuate(v, x).is_inf


def _refutes_product(v, x, y):
    return valuate(v, v.source.mul(x, y)) != ext_add(valuate(v, x), valuate(v, y))


def _refutes_min(v, x, y):
    return ext_compare(valuate(v, v.source.add(x, y)),
                       ext_min(valuate(v, x), valuate(v, y))) < 0


@pytest.mark.parametrize("domain, rule, detail, refuted", [
    ("N0", lambda n: 1 if n == 1 else _VP5(n), "v(1) != 0", _refutes_one),
    ("N0", lambda n: _VP5(n) if n else 0, "v(0) != inf", _refutes_zero),
    # capped at 1: v(x+y) >= min still holds, but v(25) = 1 < v(5) + v(5)
    ("N0", lambda n: None if n == 0 else min(_VP5(n), 1), "v(xy) != v(x)+v(y)",
     _refutes_product),
    # negated: products still add, but v(5 + 20) = -2 < min(-1, -1)
    ("Z", lambda n: None if n == 0 else -_VP5(n), "v(x+y) < min", _refutes_min),
], ids=["one", "zero", "product", "min"])
def test_valuation_axioms_refute_broken_rules(domain, rule, detail, refuted):
    nat = get_instance("nat")
    v = Valuation("broken", nat, domain, rule, payload_unit=nat._is_unit,
                  element_with_value=nat.element)
    report = check_valuation_axioms(v, SPEC)
    assert not report.holds
    assert report.detail == detail
    assert all(x.semiring is nat for x in report.witness)
    assert len(report.witness) == refuted.__code__.co_argcount - 1
    assert refuted(v, *report.witness)


class _MaxPlus(TropicalSemiring):
    """N0 under max and +, None the additive zero -inf, here only to carry
    a rule: the values themselves, None read as inf, add under products and
    never fall below the min under sums, but a sum of unequal values takes
    the larger one."""

    def __init__(self):
        super().__init__("maxplus-nat", "N0")

    @staticmethod
    def _add(p, q):
        return q if p is None else p if q is None else max(p, q)


def test_min_property_refutes_a_valuation_on_max_plus():
    inst = _MaxPlus()
    v = Valuation("identity", inst, "N0", lambda p: p, payload_unit=inst._is_unit,
                  element_with_value=inst.element)
    assert check_valuation_axioms(v, SPEC).holds
    report = check_min_property(v, SPEC)
    assert not report.holds
    assert len(report.witness) == 2 and (report.x, report.y) == report.witness
    x, y = report.witness
    vx, vy, vsum = valuate(v, x), valuate(v, y), valuate(v, inst.add(x, y))
    assert vx != vy and vsum != ext_min(vx, vy)
    assert report.detail == f"v(x)={vx} v(y)={vy} v(x+y)={vsum}"


@pytest.mark.parametrize("unit, detail", [
    (lambda q: q == 1, "v = 0 but not a unit"),
    (lambda q: q != 0, "unit with v != 0"),
], ids=["too-few-units", "too-many-units"])
def test_units_vs_zeroset_refutes_a_broken_unit_test(unit, detail):
    qnn = get_instance("qnn")
    v = replace(get_valuation("vp:5", qnn), payload_unit=unit)
    assert check_valuation_axioms(v, SPEC).holds
    report = units_vs_zeroset(v, SPEC)
    assert not report.holds
    assert report.detail == detail
    (x,) = report.witness
    assert x.semiring is qnn and in_valuation_semiring(v, x)
    assert v.unit_in_sv(x) != (valuate(v, x) == v.zero_value)
    assert v.unit_in_sv(x) == (detail == "unit with v != 0")
