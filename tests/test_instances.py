import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semival.extended import MONOIDS, ExtendedValue
from semival.instances import (
    ALL_REGISTERED_IDS,
    FractionSemiring,
    MonoidSemiring,
    _uniform,
    get_instance,
)
from semival.laws import check_semiring_axioms
from semival.reports import SampleSpec
from semival.sampling import pair_stream, triple_stream
from semival.semiring import InstanceMismatchError, UnsupportedOperationError
from semival.valuation import get_valuation


def test_registry_resolves_each_id_once():
    for sid in ALL_REGISTERED_IDS:
        assert get_instance(sid) is get_instance(sid)
        assert get_instance(sid).sid == sid
    with pytest.raises(ValueError):
        get_instance("no-such-semiring")
    with pytest.raises(ValueError):
        get_instance("fractions(fuzzy)")  # fuzzy is not cancellative


# composite descriptors that resolve without being registered: their flags
# are derived from the base's
UNREGISTERED_IDS = ("poly(qnn)", "laurent(fractions(nat))", "fractions(poly(qnn))",
                    "monoid(ideals-z,Q)", "poly(bool-poly)")


def test_capability_consistency():
    for sid in ALL_REGISTERED_IDS + UNREGISTERED_IDS:
        inst = get_instance(sid)
        if inst.semifield:
            assert inst.mc, sid
        if inst.mc:
            assert inst.entire, sid


def test_tropical_examples():
    trop = get_instance("tropical-int")
    assert str(trop.add(trop.element(3), trop.element(5))) == "3"
    assert str(trop.mul(trop.element(3), trop.element(5))) == "8"
    assert trop.add(trop.infinity(), trop.element(4)) == trop.element(4)
    assert trop.mul(trop.infinity(), trop.element(4)) == trop.infinity()
    assert trop.zero == trop.infinity()
    assert trop.one == trop.element(0)


def test_ideals_z_examples():
    idz = get_instance("ideals-z")
    assert idz.add(idz.element(4), idz.element(6)) == idz.element(2)
    assert idz.mul(idz.element(4), idz.element(6)) == idz.element(24)
    assert idz.add(idz.element(0), idz.element(7)) == idz.element(7)


def test_fuzzy_examples():
    fz = get_instance("fuzzy")
    half, threq = fz.element(Fraction(1, 2)), fz.element(Fraction(3, 4))
    assert fz.add(half, threq) == threq
    assert fz.mul(half, threq) == half
    with pytest.raises(ValueError):
        fz.element(Fraction(5, 4))


def test_bool_poly_idempotent_addition():
    bp = get_instance("bool-poly")
    x = bp.indeterminate()
    assert bp.eq(bp.add(x, x), x)
    one = bp.one
    assert bp.mul(bp.add(one, x), bp.add(one, x)) == bp.element({0, 1, 2})
    assert str(bp.add(one, x)) == "1 + X"


def test_monoid_semiring_negative_exponents():
    lau = get_instance("laurent(nat)")
    x = lau.indeterminate()
    xinv = lau.inv(x)
    assert lau.mul(x, xinv) == lau.one
    poly = get_instance("poly(nat)")
    with pytest.raises(UnsupportedOperationError):
        poly.inv(poly.indeterminate())
    monq = get_instance("monoid(nat,Q)")
    half_x = monq.element(monq.monomial_payload(Fraction(1, 2), 1))
    assert monq.mul(half_x, half_x) == monq.indeterminate()


TROPICAL = {"N0": "tropical-nat", "Z": "tropical-int"}


@pytest.mark.parametrize("name, member, non_member", [
    ("trivial", 0, 1), ("N0", 3, -1), ("Z", -2, Fraction(1, 2)),
    ("Q", Fraction(-1, 2), 0.5)])
def test_one_membership_test_per_monoid(name, member, non_member):
    # values, monoid exponents and tropical values: the same test
    makers = [lambda v: ExtendedValue(name, v).value]
    if name != "trivial":
        mon = get_instance(f"monoid(nat,{name})")
        makers.append(lambda v: mon.element({v: 1}).payload[0][0])
    if name in TROPICAL:
        makers.append(lambda v: get_instance(TROPICAL[name]).element(v).payload)
    for make in makers:
        assert make(member) == member
        with pytest.raises(ValueError) as refused:
            make(non_member)
        assert str(refused.value) == f"{non_member!r} is not in {name}"


@pytest.mark.parametrize("name", ["N0", "Z", "Q"])
def test_inverse_flag_agrees_with_x_being_a_unit(name):
    mon = get_instance(f"monoid(nat,{name})")
    assert mon.is_unit(mon.indeterminate()) == MONOIDS[name].inverses


@pytest.mark.parametrize("name", sorted(TROPICAL))
def test_tropical_carriers_read_their_monoid(name):
    trop = get_instance(TROPICAL[name])
    assert trop.semifield == MONOIDS[name].inverses
    assert get_valuation("tropical-id", trop).domain == name


@pytest.mark.parametrize("exponents", ["R", "trivial", "n0"])
def test_unregistered_exponent_monoids_are_refused(exponents):
    with pytest.raises(ValueError, match=rf"^unsupported exponent monoid '{exponents}'$"):
        get_instance(f"monoid(nat,{exponents})")


def test_unit_closed_forms():
    nat = get_instance("nat")
    assert nat.is_unit(nat.one) and not nat.is_unit(nat.element(2))
    qnn = get_instance("qnn")
    assert qnn.is_unit(qnn.element(Fraction(7, 3)))
    assert not qnn.is_unit(qnn.zero)
    tn = get_instance("tropical-nat")
    assert tn.is_unit(tn.element(0)) and not tn.is_unit(tn.element(1))
    ti = get_instance("tropical-int")
    assert ti.is_unit(ti.element(-3)) and not ti.is_unit(ti.infinity())
    poly = get_instance("poly(nat)")
    assert poly.is_unit(poly.one)
    assert not poly.is_unit(poly.add(poly.one, poly.indeterminate()))
    idz = get_instance("ideals-z")
    assert idz.is_unit(idz.one) and not idz.is_unit(idz.element(5))
    frs = get_instance("fractions(poly(nat))")
    assert frs.is_unit(frs.indeterminate()) and not frs.is_unit(frs.zero)


def test_semifield_inverses_multiply_to_one():
    rng = random.Random("inverses")
    for sid in ALL_REGISTERED_IDS:
        inst = get_instance(sid)
        if not inst.semifield:
            continue
        for _ in range(100):
            a = inst.sample(rng, 20)
            if a.is_zero():
                continue
            assert inst.mul(a, inst.inv(a)) == inst.one, (sid, str(a))


# the checks trust these flags: probe_mc and probe_entire answer a semifield
# from them without sampling, so each true flag is sampled here
FLAG_SPEC = SampleSpec(1, 400, 12)


def _flagged(flag):
    return [sid for sid in ALL_REGISTERED_IDS if getattr(get_instance(sid), flag)]


def _elements(inst, tuples):
    """The payload tuples of a stream as element tuples."""
    return (tuple(map(inst.element, t)) for t in tuples)


@pytest.mark.parametrize("sid", _flagged("zerosumfree"))
def test_zerosumfree_flag_holds_on_samples(sid):
    inst = get_instance(sid)
    for a, b in _elements(inst, pair_stream(inst, FLAG_SPEC, salt="zerosumfree")):
        if inst.add(a, b).is_zero():
            assert a.is_zero() and b.is_zero(), (str(a), str(b))


@pytest.mark.parametrize("sid", _flagged("mc"))
def test_mc_flag_holds_on_samples(sid):
    inst = get_instance(sid)
    for a, b, c in _elements(inst, triple_stream(inst, FLAG_SPEC, salt="mc")):
        if not a.is_zero() and b != c:
            assert inst.mul(a, b) != inst.mul(a, c), (str(a), str(b), str(c))


@pytest.mark.parametrize("sid", _flagged("entire"))
def test_entire_flag_holds_on_samples(sid):
    inst = get_instance(sid)
    for a, b in _elements(inst, pair_stream(inst, FLAG_SPEC, salt="entire")):
        if not a.is_zero() and not b.is_zero():
            assert not inst.mul(a, b).is_zero(), (str(a), str(b))


@pytest.mark.parametrize("sid, non_unit", [("nat", 2), ("ideals-z", 6),
                                           ("fuzzy", Fraction(1, 2)),
                                           ("bool-poly", {0, 1})])
def test_only_one_is_invertible_off_semifields(sid, non_unit):
    inst = get_instance(sid)
    assert inst.inv(inst.one) == inst.one
    with pytest.raises(UnsupportedOperationError,
                       match=rf"^{sid}: only 1 is invertible$"):
        inst.inv(inst.element(non_unit))
    with pytest.raises(UnsupportedOperationError):
        inst.inv(inst.zero)


def test_fraction_cross_multiplication_equality():
    frn = get_instance("fractions(nat)")
    nat = frn.base
    assert frn.fraction(nat.element(2), nat.element(4)) == \
        frn.fraction(nat.element(1), nat.element(2))
    fpn = get_instance("fractions(poly(nat))")
    poly = fpn.base
    x = poly.indeterminate()
    x1 = poly.add(x, poly.one)
    # X*(X+1) / (X+1) = X / 1 by cross multiplication, not by reduction
    lhs = fpn.fraction(poly.mul(x, x1), x1)
    rhs = fpn.fraction(x, poly.one)
    assert lhs == rhs
    assert lhs.payload != rhs.payload
    with pytest.raises(ZeroDivisionError):
        fpn.fraction(x, poly.zero)


def test_element_inequality_inverts_equality():
    nat, qnn = get_instance("nat"), get_instance("qnn")
    assert nat.element(2) != nat.element(3)
    assert not nat.element(2) != nat.element(2)
    # unequal payloads, equal by cross multiplication
    fpn = get_instance("fractions(poly(nat))")
    poly = fpn.base
    x = poly.indeterminate()
    a, b = fpn.fraction(poly.mul(x, x), x), fpn.fraction(x, poly.one)
    assert a.payload != b.payload
    assert not a != b
    assert fpn.fraction(x, x) != b
    # elements of two instances, and an element and a plain number
    assert nat.element(1) != qnn.element(1)
    assert nat.element(1) != 1 and 1 != nat.element(1)


def test_instance_mismatch_raises():
    nat, qnn = get_instance("nat"), get_instance("qnn")
    with pytest.raises(InstanceMismatchError):
        nat.add(nat.element(1), qnn.element(1))
    assert not nat.element(1) == qnn.element(1)


@pytest.mark.parametrize("sid", ALL_REGISTERED_IDS)
@pytest.mark.parametrize("seed", [1, 7])
def test_semiring_axioms_hold_everywhere(sid, seed):
    count = 150 if "(" in sid else 400
    report = check_semiring_axioms(get_instance(sid), SampleSpec(seed, count, 12))
    assert report.holds, str(report)


@pytest.mark.parametrize("sid", ALL_REGISTERED_IDS)
def test_canonicalization_idempotent(sid):
    inst = get_instance(sid)
    rng = random.Random(f"canon:{sid}")
    for _ in range(150):
        a = inst.sample(rng, 15)
        again = inst.element(a.payload)
        assert again.payload == a.payload
        assert again == a


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_nat_matches_integer_arithmetic(a, b):
    nat = get_instance("nat")
    assert nat.add(nat.element(a), nat.element(b)).payload == a + b
    assert nat.mul(nat.element(a), nat.element(b)).payload == a * b


@settings(max_examples=60)
@given(st.fractions(min_value=0, max_value=100), st.fractions(min_value=0, max_value=100))
def test_qnn_matches_fraction_arithmetic(a, b):
    qnn = get_instance("qnn")
    assert qnn.add(qnn.element(a), qnn.element(b)).payload == a + b
    assert qnn.mul(qnn.element(a), qnn.element(b)).payload == a * b


def test_polynomial_text_and_payload_order():
    lau = get_instance("laurent(nat)")
    e = lau.element([(3, 2), (-2, 1), (0, 7)])
    assert [exp for exp, _ in e.payload] == [-2, 0, 3]
    assert str(e) == "X^-2 + 7 + 2*X^3"
    assert str(lau.zero) == "0"


poly_dicts = st.dictionaries(st.integers(min_value=-4, max_value=4),
                             st.integers(min_value=1, max_value=30),
                             max_size=4)


def _dict_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _dict_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@settings(max_examples=120)
@given(poly_dicts, poly_dicts)
def test_laurent_arithmetic_matches_dict_convolution(p, q):
    # independent oracle: plain dict convolution over integer coefficients
    lau = get_instance("laurent(nat)")
    a, b = lau.element(p), lau.element(q)
    assert dict(lau.add(a, b).payload) == _dict_add(p, q)
    assert dict(lau.mul(a, b).payload) == _dict_mul(p, q)


def test_concurrent_resolution_yields_one_instance(monkeypatch):
    # four threads miss the cache together and each builds its own object;
    # all of them must get back the one that was published first
    import threading
    import time

    from semival import instances

    sid = "laurent(fuzzy)"  # resolved by no other test, so never cached yet
    monkeypatch.delitem(instances._CACHE, sid, raising=False)
    real_build = instances._build

    def slow_build(key):
        inst = real_build(key)
        time.sleep(0.05)
        return inst

    monkeypatch.setattr(instances, "_build", slow_build)
    start = threading.Barrier(4, timeout=30)
    got = []

    def resolve():
        start.wait()
        got.append(get_instance(sid))

    threads = [threading.Thread(target=resolve) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert len(got) == 4
    assert all(inst is got[0] for inst in got)
    assert get_instance(sid) is got[0]
    x = got[1].indeterminate()
    assert got[2].mul(x, got[3].one) == x


def _widths():
    yield from (1, 2, 3, 5)
    for k in range(1, 71):
        yield from (2 ** k - 1, 2 ** k, 2 ** k + 1)


@pytest.mark.parametrize("a", [0, 7, -3, -(2 ** 40)])
def test_randint_consumes_the_generator_like_the_stdlib(a):
    for n in _widths():
        r1, r2, r3 = (random.Random(f"randint:{a}:{n}") for _ in range(3))
        b = a + n - 1
        draw = _uniform(r3, a, b)
        for _ in range(20):
            expected = r2.randint(a, b)
            assert _uniform(r1, a, b)() == expected
            assert draw() == expected
        assert r1.getstate() == r2.getstate() == r3.getstate()


def test_randint_matches_the_stdlib_over_many_seeded_draws():
    r1, r2 = random.Random(20261018), random.Random(20261018)
    widths = [1, 2, 3, 5, 6, 12, 51, 101, 2 ** 16 + 1]
    for i in range(10 ** 4):
        n = widths[i % len(widths)]
        a = -n // 2 if i % 3 else 0
        assert _uniform(r1, a, a + n - 1)() == r2.randint(a, a + n - 1)
    assert r1.getstate() == r2.getstate()


def test_building_a_sampler_draws_nothing():
    for sid in ALL_REGISTERED_IDS:
        inst = get_instance(sid)
        rng = random.Random(f"sampler:{sid}")
        state = rng.getstate()
        inst._sampler(rng, 50)
        inst._nonzero_sampler(rng, 50)
        assert rng.getstate() == state, sid


def test_power_squares_once_per_exponent_bit_below_the_top(monkeypatch):
    # power multiplies payloads: count the instance's payload products
    nat = get_instance("nat")
    calls = []
    mul = nat._mul

    def counting_mul(p, q):
        calls.append(1)
        return mul(p, q)

    monkeypatch.setattr(nat, "_mul", counting_mul)
    for k in range(8):
        calls.clear()
        assert nat.power(nat.element(3), 2 ** k) == nat.element(3 ** 2 ** k)
        assert len(calls) == k + 1
    calls.clear()
    assert nat.power(nat.element(3), 0) == nat.one and not calls


def _measured_size(inst, p):
    """The bits and the terms of a payload, counted through its parts."""
    if isinstance(inst, MonoidSemiring):
        parts = [_measured_size(inst.base, c) for _, c in p]
        return sum(b for b, _ in parts), len(p) + sum(t for _, t in parts)
    if isinstance(inst, FractionSemiring):
        (nb, nt), (db, dt) = (_measured_size(inst.base, q) for q in p)
        return nb + db, nt + dt
    if inst.sid in ("nat", "ideals-z"):
        return p.bit_length(), 0
    if inst.sid == "qnn":
        return p.numerator.bit_length() + p.denominator.bit_length(), 0
    if inst.sid == "bool-poly":
        return 0, len(p)
    return 0, 0


@pytest.mark.parametrize("sid", ALL_REGISTERED_IDS + ("poly(poly(nat))", "poly(qnn)"))
def test_power_size_estimates_are_lower_bounds(sid):
    # power refuses on these estimates, so one above the real size would
    # refuse a power that fits its budget
    inst = get_instance(sid)
    rng = random.Random(f"power-size:{sid}")
    for _ in range(60):
        a = inst.sample(rng, 6)
        for n in range(5):
            bits, terms = inst._power_size(a.payload, n)
            real_bits, real_terms = _measured_size(inst, inst.power(a, n).payload)
            assert bits <= real_bits and terms <= real_terms, (str(a), n)
