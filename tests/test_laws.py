from itertools import product

import pytest

from semival.instances import NatSemiring, get_instance
from semival.laws import check_semiring_axioms, probe_mc_entire
from semival.reports import SampleSpec

SPEC = SampleSpec(1, 500, 15)


def test_fuzzy_probe_reports_mc_counterexample_and_entirety():
    fuzzy = get_instance("fuzzy")
    mc, entire = probe_mc_entire(fuzzy, SPEC)
    assert not mc.holds
    a, b, c = mc.witness
    assert fuzzy.eq(fuzzy.mul(a, b), fuzzy.mul(a, c))
    assert not fuzzy.eq(b, c) and not a.is_zero()
    assert entire.holds


def test_semifield_probes_are_analytic():
    for sid in ("qnn", "tropical-int", "fractions(nat)"):
        mc, entire = probe_mc_entire(get_instance(sid), SPEC)
        assert mc.holds and mc.analytic
        assert entire.holds and entire.analytic


def test_tropical_nat_cancellation_exhaustively():
    # independent oracle: every payload triple up to the bound, inf included
    trop = get_instance("tropical-nat")
    carrier = [None] + list(range(0, 9))
    for a, b, c in product(carrier, carrier, carrier):
        if a is None or b == c:
            continue
        ab = None if (a is None or b is None) else a + b
        ac = None if (a is None or c is None) else a + c
        assert ab != ac, (a, b, c)
    mc, entire = probe_mc_entire(trop, SPEC)
    assert mc.holds and entire.holds


def test_nat_probe_holds():
    mc, entire = probe_mc_entire(get_instance("nat"), SPEC)
    assert mc.holds and entire.holds


def test_bool_poly_is_not_cancellative():
    bp = get_instance("bool-poly")
    mc, entire = probe_mc_entire(bp, SampleSpec(1, 3000, 6))
    # (1+X)(1+X+X^2) = (1+X)(1+X^2); the sampled search must find some triple
    a = bp.add(bp.one, bp.indeterminate())
    b = bp.element({0, 1, 2})
    c = bp.element({0, 2})
    assert bp.eq(bp.mul(a, b), bp.mul(a, c)) and not bp.eq(b, c)
    assert not mc.holds
    assert entire.holds


# Broken variants of nat.  The law loops run on payloads, so these check that
# they still refute, and that each witness re-verifies through the
# element-level add/mul/eq of the same instance.

class _NonAssociativeAdd(NatSemiring):
    sid = "nat-nonassoc-add"

    def _add(self, p, q):
        # commutative with identity 0, but (2+2)+3 = 8 and 2+(2+3) = 7
        return p + q + (p >= 3 and q >= 3)


class _NonAssociativeMul(NatSemiring):
    sid = "nat-nonassoc-mul"

    def _mul(self, p, q):
        # commutative, unital and absorbing, but (2*2)*3 = 13 and 2*(2*3) = 12
        return p * q + (p >= 3 and q >= 3)


class _AddWithoutZero(NatSemiring):
    sid = "nat-shifted-add"

    def _add(self, p, q):
        # commutative and associative, but a+0 = a+1
        return p + q + 1


class _ZeroDivisors(NatSemiring):
    sid = "nat-mod6"

    def _mul(self, p, q):
        return p * q % 6


@pytest.mark.parametrize("broken, detail, refuted", [
    (_NonAssociativeAdd, "(a+b)+c != a+(b+c)",
     lambda s, a, b, c: not s.eq(s.add(s.add(a, b), c), s.add(a, s.add(b, c)))),
    (_NonAssociativeMul, "(a*b)*c != a*(b*c)",
     lambda s, a, b, c: not s.eq(s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c)))),
    (_AddWithoutZero, "a+0 != a", lambda s, a: not s.eq(s.add(a, s.zero), a)),
])
def test_axioms_refute_broken_operations(broken, detail, refuted):
    inst = broken()
    report = check_semiring_axioms(inst, SampleSpec(1, 200, 20))
    assert not report.holds
    assert report.detail == detail
    assert all(x.semiring is inst for x in report.witness)
    assert refuted(inst, *report.witness)


def test_probes_refute_a_multiplication_with_zero_divisors():
    inst = _ZeroDivisors()
    mc, entire = probe_mc_entire(inst, SampleSpec(1, 200, 20))
    assert not mc.holds and not entire.holds
    assert all(x.semiring is inst for x in mc.witness + entire.witness)
    a, b, c = mc.witness
    assert not inst.eq(a, inst.zero) and not inst.eq(b, c)
    assert inst.eq(inst.mul(a, b), inst.mul(a, c))
    a, b = entire.witness
    assert not inst.eq(a, inst.zero) and not inst.eq(b, inst.zero)
    assert inst.eq(inst.mul(a, b), inst.zero)
