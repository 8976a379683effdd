from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from semival.dvs import (
    ascending_chain_probe,
    carrier_ideal,
    carrier_principal,
    dvs_ideal_of,
    dvs_normal_form,
    dvs_structure,
    euclidean_divide,
    integral_check,
    intersection_probe,
    standard_dvs_structures,
    value_group_valuation,
)
from semival.extended import ExtendedValue
from semival.instances import get_instance
from semival.reports import SampleSpec
from semival.valuation import valuate

SPEC = SampleSpec(1, 400, 20)
fin = ExtendedValue


@pytest.fixture(scope="module")
def structures():
    return {D.name: D for D in standard_dvs_structures()}


@pytest.fixture(scope="module")
def qnn5(structures):
    return structures["qnn at 5"]


def test_structure_validation():
    with pytest.raises(ValueError):
        dvs_structure("vp:5", get_instance("nat"))  # not a semifield
    with pytest.raises(ValueError):
        dvs_structure("trivial", get_instance("qnn"))  # values not in Z


def test_structure_checks_the_domain_before_building_the_uniformizer():
    # the trivial rule has no element of value 1 to offer
    with pytest.raises(ValueError, match="^a discrete structure needs integer values$"):
        dvs_structure("trivial", get_instance("qnn"))


def test_normal_form_examples(qnn5, structures):
    qnn = get_instance("qnn")
    unit, n = dvs_normal_form(qnn5, qnn.element(Fraction(50, 3)))
    assert (unit.payload, n) == (Fraction(2, 3), 2)
    unit, n = dvs_normal_form(qnn5, qnn5.uniformizer)
    assert (unit.payload, n) == (Fraction(1), 1)
    trop = structures["tropical naturals"]
    unit, n = dvs_normal_form(trop, trop.ambient.element(7))
    assert (unit.payload, n) == (0, 7)
    with pytest.raises(ValueError):
        dvs_normal_form(qnn5, qnn.zero)


def test_normal_form_round_trip_everywhere():
    for D in standard_dvs_structures():
        amb = D.ambient
        for x in D.sample_carrier(SPEC, salt="t-nf", nonzero=True):
            unit, n = dvs_normal_form(D, x)
            assert valuate(D.valuation, unit) == fin("Z", 0)
            assert amb.eq(amb.mul(unit, amb.power(D.uniformizer, n)), x)
            assert D.valuation.unit_in_sv(unit)


def test_irreducibles_are_uniformizer_associates():
    for D in standard_dvs_structures():
        amb = D.ambient
        for x in D.sample_carrier(SPEC, salt="irr", nonzero=True):
            if valuate(D.valuation, x) != fin("Z", 1):
                continue
            unit, n = dvs_normal_form(D, x)
            assert n == 1 and D.valuation.unit_in_sv(unit)


def test_dvs_ideal_of(qnn5):
    qnn = get_instance("qnn")
    I = carrier_ideal(qnn5, [qnn.element(50), qnn.element(15)])
    assert dvs_ideal_of(qnn5, I) == 1
    one = carrier_ideal(qnn5, [qnn.one])
    assert dvs_ideal_of(qnn5, one) == 0
    for k in (1, 2, 5):
        power = carrier_ideal(qnn5, [qnn5.ambient.power(qnn5.uniformizer, k)])
        assert dvs_ideal_of(qnn5, power) == k
    with pytest.raises(ValueError):
        dvs_ideal_of(qnn5, carrier_ideal(qnn5, [qnn.zero]))


def test_generators_outside_the_carrier_are_refused(qnn5):
    from semival.ideals import FinGenIdeal, make_ideal
    qnn = get_instance("qnn")
    fifth = qnn.element(Fraction(1, 5))
    for build in (lambda: carrier_ideal(qnn5, [qnn.element(5), fifth]),
                  lambda: carrier_principal(qnn5, fifth),
                  lambda: make_ideal(qnn, [fifth], dvs=qnn5),
                  lambda: FinGenIdeal(qnn, (qnn.one, fifth), qnn5)):
        with pytest.raises(ValueError, match="^1/5 lies outside the carrier$"):
            build()


def test_carrier_rule_values_each_generator_once(qnn5):
    calls = []
    rule = qnn5.valuation.payload_fn

    def counting(p):
        calls.append(str(p))
        return rule(p)

    D = replace(qnn5, valuation=replace(qnn5.valuation, payload_fn=counting))
    qnn = get_instance("qnn")
    I = carrier_ideal(D, [qnn.element(50), qnn.element(15), qnn.element(3)])
    assert calls == ["50", "15", "3"]  # one value each: carrier test and threshold
    assert [str(g) for g in I.generators] == ["3"]


def test_ideal_rule_and_power_caches_fill_once_per_structure():
    D = dvs_structure("vp:5", get_instance("qnn"))
    assert D.ideal_rule is D.ideal_rule
    assert D.power_ideal(3) is D.power_ideal(3)
    assert str(D.power_ideal(3)) == "ideal[125]"
    assert D.power_payload(-2) == Fraction(1, 25)
    other = dvs_structure("vp:5", get_instance("qnn"))
    assert other.ideal_rule is not D.ideal_rule
    assert other.power_ideal(3) is not D.power_ideal(3)


def test_euclidean_division_examples(qnn5):
    qnn = get_instance("qnn")
    q, r = euclidean_divide(qnn5, qnn.element(Fraction(10, 3)), qnn.element(Fraction(2, 7)))
    assert (q.payload, r.payload) == (Fraction(35, 3), Fraction(0))
    q, r = euclidean_divide(qnn5, qnn.element(2), qnn.element(5))
    assert (q.payload, r.payload) == (Fraction(0), Fraction(2))
    q, r = euclidean_divide(qnn5, qnn.zero, qnn.element(5))
    assert q.is_zero() and r.is_zero()
    with pytest.raises(ZeroDivisionError):
        euclidean_divide(qnn5, qnn.one, qnn.zero)


def test_euclidean_postcondition_everywhere():
    for D in standard_dvs_structures():
        amb = D.ambient
        dividends = D.sample_carrier(SPEC, salt="ta")
        divisors = D.sample_carrier(SPEC, salt="tb", nonzero=True)
        for a, b in zip(dividends, divisors):
            q, r = euclidean_divide(D, a, b)
            assert amb.eq(amb.add(amb.mul(q, b), r), a)
            assert r.is_zero() or valuate(D.valuation, r) < valuate(D.valuation, b)
            assert D.contains(q)


def test_intersection_probe_examples(qnn5, structures):
    qnn = get_instance("qnn")
    report = intersection_probe(qnn5, qnn.element(Fraction(50, 3)), 10)
    assert report.holds and report.detail == "escapes at n=3"
    report = intersection_probe(qnn5, qnn.one, 10)
    assert report.detail == "escapes at n=1"
    trop = structures["tropical naturals"]
    report = intersection_probe(trop, trop.ambient.element(4), 10)
    assert report.detail == "escapes at n=5"
    report = intersection_probe(qnn5, qnn.element(125), 2)
    assert not report.holds  # v = 3 needs bound >= 4


def test_ascending_chain_stabilises(qnn5):
    qnn = get_instance("qnn")
    report = ascending_chain_probe(qnn5, qnn.element(Fraction(50, 3)), 10)
    assert report.holds and report.detail == "stabilises after 2 steps"
    report = ascending_chain_probe(qnn5, qnn.element(125), 2)
    assert not report.holds
    for D in standard_dvs_structures():
        for x in D.sample_carrier(SampleSpec(1, 80, 10), salt="accp",
                                  nonzero=True):
            n = valuate(D.valuation, x).value
            report = ascending_chain_probe(D, x, n + 1)
            assert report.holds
            assert report.detail == f"stabilises after {n} steps"
    with pytest.raises(ValueError):
        ascending_chain_probe(qnn5, qnn.zero, 5)


def test_carrier_ideal_membership_via_values(qnn5):
    qnn = get_instance("qnn")
    I = carrier_ideal(qnn5, [qnn.element(25)])
    assert I.contains(qnn.element(Fraction(50, 3)))  # value 2 >= 2
    assert not I.contains(qnn.element(5))            # value 1 < 2
    assert I.contains(qnn.zero)


def test_ideal_pairs_are_comparable_and_oracle_matches_divisibility(qnn5):
    from semival.ideals import ideals_comparable
    qnn = get_instance("qnn")
    pool = qnn5.sample_carrier(SampleSpec(2, 40, 15), salt="pool", nonzero=True)
    ideals = [carrier_ideal(qnn5, pool[i:i + 2]) for i in range(0, 38, 2)]
    for I, J in zip(ideals, ideals[1:]):
        assert ideals_comparable(I, J).holds
    # divisibility in the carrier mirrors value comparison
    for a, b in zip(pool[:15], pool[15:30]):
        divides = qnn5.contains(qnn.div(b, a))
        assert divides == (valuate(qnn5.valuation, a) <= valuate(qnn5.valuation, b))


def brute_integral_witness(u: Fraction, pool, degree_bound):
    # direct exhaustive re-implementation over plain Fractions
    for n in range(1, degree_bound + 1):
        for a_tuple in product(pool, repeat=n):
            lhs = u ** n + sum(a * u ** (n - 1 - i) for i, a in enumerate(a_tuple))
            for b_tuple in product(pool, repeat=n):
                rhs = sum(b * u ** (n - 1 - i) for i, b in enumerate(b_tuple))
                if lhs == rhs:
                    return n
    return None


def test_integral_check_matches_brute_force(qnn5):
    qnn = get_instance("qnn")
    pool_values = [Fraction(0), Fraction(1), Fraction(2), Fraction(5), Fraction(1, 2)]
    pool = [qnn.element(v) for v in pool_values]
    u = Fraction(1, 5)
    assert brute_integral_witness(u, pool_values, 3) is None
    report = integral_check(qnn5, qnn.element(u), 3, pool)
    assert report.holds
    report = integral_check(qnn5, qnn.element(5), 3, pool)
    assert not report.holds and "degree 1" in report.detail
    # a non-carrier element whose witness exists at degree 1: u + a = b has
    # no pool solution for u = 2/5 either
    assert brute_integral_witness(Fraction(2, 5), pool_values, 2) is None
    assert integral_check(qnn5, qnn.element(Fraction(2, 5)), 2, pool).holds
    with pytest.raises(ValueError):
        integral_check(qnn5, qnn.element(u), 2, [qnn.element(Fraction(1, 5))])


def test_value_group_valuation_agrees(qnn5):
    vg = value_group_valuation(qnn5)
    qnn = get_instance("qnn")
    assert valuate(vg, qnn.element(Fraction(50, 3))) == fin("Z", 2)
    assert valuate(vg, qnn.zero).is_inf
    for x in qnn5.sample_carrier(SampleSpec(1, 500, 30), salt="vg", nonzero=True):
        assert valuate(vg, x) == valuate(qnn5.valuation, x)
    for D in standard_dvs_structures():
        vgd = value_group_valuation(D)
        for x in D.sample_carrier(SampleSpec(1, 60, 10), salt="vg2", nonzero=True):
            assert valuate(vgd, x) == valuate(D.valuation, x)
