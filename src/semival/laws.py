"""Bounded law checkers for the semiring axioms and structural probes."""

from __future__ import annotations

from .reports import LawReport, SampleSpec, law_counterexample, law_holds
from .sampling import first_counterexample, pair_stream, triple_stream
from .semiring import Semiring


def check_semiring_axioms(instance: Semiring, spec: SampleSpec) -> LawReport:
    """Sampled check of the semiring axioms: commutative monoids (S,+,0) and
    (S,*,1) with 1 != 0, distributivity, and a*0 = 0."""
    law = f"semiring-axioms[{instance.sid}]"
    eq, add, mul = instance._eq, instance._add, instance._mul
    z, u = instance._zero(), instance._one()
    if eq(z, u):
        return law_counterexample(law, (instance.zero, instance.one), spec, "1 = 0")

    def test(p, q, r):
        total = add(p, q)
        if not eq(total, add(q, p)):
            return 2, "a+b != b+a"
        if not eq(add(total, r), add(p, add(q, r))):
            return 3, "(a+b)+c != a+(b+c)"
        if not eq(add(p, z), p):
            return 1, "a+0 != a"
        prod = mul(p, q)
        if not eq(prod, mul(q, p)):
            return 2, "a*b != b*a"
        if not eq(mul(prod, r), mul(p, mul(q, r))):
            return 3, "(a*b)*c != a*(b*c)"
        if not eq(mul(p, u), p):
            return 1, "a*1 != a"
        if not eq(mul(p, add(q, r)), add(prod, mul(p, r))):
            return 3, "a*(b+c) != a*b+a*c"
        if not eq(mul(p, z), z):
            return 1, "a*0 != 0"

    triples = triple_stream(instance, spec, salt="axioms")
    return first_counterexample(law, instance, triples, test, spec)


def probe_mc(instance: Semiring, spec: SampleSpec) -> LawReport:
    """Sampled search for a cancellation failure a*b = a*c with a != 0 and
    b != c.  Semifields are cancellative by construction, so their verdict
    is returned analytically without sampling."""
    law = f"mc[{instance.sid}]"
    if instance.semifield:
        return law_holds(law, spec, "semifield", analytic=True)
    eq, mul, z = instance._eq, instance._mul, instance._zero()

    def test(p, q, r):
        if not (eq(p, z) or eq(q, r)) and eq(mul(p, q), mul(p, r)):
            return 3, "a*b = a*c with a != 0, b != c"

    return first_counterexample(law, instance, triple_stream(instance, spec, salt="mc"),
                                test, spec)


def probe_entire(instance: Semiring, spec: SampleSpec) -> LawReport:
    """Sampled search for zero divisors a*b = 0 with a, b != 0.  Semifields
    are entire by construction, so their verdict is returned analytically
    without sampling."""
    law = f"entire[{instance.sid}]"
    if instance.semifield:
        return law_holds(law, spec, "semifield", analytic=True)
    eq, mul, z = instance._eq, instance._mul, instance._zero()

    def test(p, q):
        if not (eq(p, z) or eq(q, z)) and eq(mul(p, q), z):
            return 2, "a*b = 0 with a, b != 0"

    return first_counterexample(law, instance, pair_stream(instance, spec, salt="entire"),
                                test, spec)


def probe_mc_entire(instance: Semiring,
                    spec: SampleSpec) -> tuple[LawReport, LawReport]:
    """Both probes: (probe_mc, probe_entire)."""
    return probe_mc(instance, spec), probe_entire(instance, spec)
