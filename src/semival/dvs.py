"""Discrete valuation structures: a surjective integer-valued valuation on a
semifield, its nonnegative carrier, and the operations the carrier supports
exactly (normal forms, Euclidean division, chain and integrality probes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from .extended import ExtendedValue, _nonnegative, _raw_lt
from .instances import get_instance
from .reports import LawReport, SampleSpec, law_counterexample, law_holds
from .semiring import Element, Semiring
from .valuation import Valuation, get_valuation, valuate

# normal forms and division need neither .ideals nor .sampling: a structure
# imports .ideals once, on its first ideal, and carrier_payloads .sampling
if TYPE_CHECKING:
    from .ideals import FinGenIdeal

_VALUE_SEARCH_LIMIT = 4096


@dataclass(frozen=True)
class DVSStructure:
    """A discrete valuation semiring presented inside its ambient semifield.

    The carrier is the set of ambient elements with nonnegative value.  The
    valuation supplies the uniformizer, its element of value exactly 1, and
    ``unit_in_sv``, its closed-form unit predicate for the carrier, which
    never consults the value.

    Each structure fills three caches lazily, and none changes an answer:
    the payloads of the uniformizer powers, the principal ideals (t^n), and
    the threshold rule that reduces and decides its ideals.
    """

    name: str
    valuation: Valuation
    uniformizer: Element = field(init=False)

    def __post_init__(self):
        v = self.valuation
        if v.domain != "Z":
            raise ValueError(f"a discrete structure needs values in Z; {v.rule} on "
                             f"{v.source.sid} takes values in {v.domain}")
        if not v.source.semifield:
            raise ValueError("the ambient instance must be a semifield with a "
                             "surjective valuation")
        object.__setattr__(self, "uniformizer", v.element_with_value(1))
        if valuate(v, self.uniformizer) != ExtendedValue("Z", 1):
            raise ValueError("the uniformizer must have value 1")
        if v.unit_in_sv(self.uniformizer):
            raise ValueError("the uniformizer cannot be a unit")

    @property
    def ambient(self) -> Semiring:
        return self.valuation.source

    def contains(self, x: Element) -> bool:
        self.ambient._claim(x)
        return self.in_carrier(x.payload)

    def in_carrier(self, p) -> bool:
        """The carrier test on payloads, which sampled carrier streams keep by."""
        return _nonnegative(self.valuation.payload_fn(p))

    def carrier_payloads(self, spec: SampleSpec, salt: str, nonzero: bool) -> Iterator:
        """The sampled carrier stream, as payloads drawn lazily."""
        from .sampling import iter_stream

        amb, in_carrier = self.ambient, self.in_carrier
        eq, zero = amb._eq, amb._zero()
        keep = (lambda p: not eq(p, zero) and in_carrier(p)) if nonzero else in_carrier
        return iter_stream(amb, spec, salt, keep)

    def sample_carrier(self, spec: SampleSpec, salt: str = "",
                       nonzero: bool = False) -> list[Element]:
        """The sampled carrier stream as a list of elements, for callers that
        slice it or iterate it more than once."""
        amb = self.ambient
        return [Element(amb, p) for p in self.carrier_payloads(spec, salt, nonzero)]

    # -- payload helpers under the element-level operations --------------------

    @cached_property
    def _powers(self) -> dict:
        return {}

    def power_payload(self, n: int):
        """The payload of t^n, any integer n; computed once per n."""
        powers = self._powers
        if n not in powers:
            powers[n] = self.ambient.power(self.uniformizer, n).payload
        return powers[n]

    @cached_property
    def _power_ideals(self) -> dict:
        return {}

    def power_ideal(self, n: int) -> FinGenIdeal:
        """The principal ideal (t^n) of the carrier, n >= 0; built once per n."""
        ideals = self._power_ideals
        if n not in ideals:
            ideals[n] = self._ideals.FinGenIdeal(self.ambient, (self.power_payload(n),),
                                                 self)
        return ideals[n]

    @cached_property
    def _ideals(self):
        """The ideals module, imported on the first ideal of the structure,
        so that no import runs per ideal built."""
        from . import ideals

        return ideals

    @cached_property
    def ideal_rule(self):
        """The threshold rule of the carrier's ideals, keyed on the raw value
        of a generator's payload (None, inf, for zero); a negative key lies
        outside the carrier."""
        return self._ideals._threshold(self.valuation.payload_fn, text=self.ambient._text)

    def normal_form_payload(self, p) -> tuple[object, int]:
        """(unit, n) with p = unit * t^n and n = v(p), for nonzero p."""
        n = self.valuation.payload_fn(p)
        return self.ambient._mul(p, self.power_payload(-n)), n

    def divide_payloads(self, a, b) -> tuple[object, object]:
        """(q, r) with a = q*b + r, for nonzero b: q = 0 and r = a when
        v(a) < v(b), else a*b^-1 and 0."""
        amb, raw = self.ambient, self.valuation.payload_fn
        if _raw_lt(raw(a), raw(b)):
            return amb._zero(), a
        return amb._mul(a, amb._inv(b)), amb._zero()

    def __str__(self) -> str:
        return f"{self.name} (t = {self.uniformizer})"


def dvs_structure(rule: str, source: Semiring, name: str | None = None) -> DVSStructure:
    return DVSStructure(name or f"{source.sid}@{rule}", get_valuation(rule, source))


def standard_dvs_structures() -> list[DVSStructure]:
    """The four discrete structures exercised by the law suite."""
    return [
        dvs_structure("vp:5", get_instance("qnn"), "qnn at 5"),
        dvs_structure("tropical-id", get_instance("tropical-int"),
                      "tropical naturals"),
        dvs_structure("deg-frac", get_instance("fractions(poly(nat))"),
                      "degree-bounded fractions"),
        dvs_structure("vm-idz:5", get_instance("fractions(ideals-z)"),
                      "integer ideals at (5)"),
    ]


def dvs_normal_form(D: DVSStructure, x: Element) -> tuple[Element, int]:
    """Write nonzero x as unit * t^n with n = v(x), computed in the ambient
    semifield; the unit has value 0."""
    D.ambient._claim(x)
    if x.is_zero():
        raise ValueError("zero has no normal form")
    unit, n = D.normal_form_payload(x.payload)
    return Element(D.ambient, unit), n


def dvs_ideal_of(D: DVSStructure, I: FinGenIdeal) -> int:
    """The n with I = (t^n), read off the one generator the carrier's rule
    keeps (the one of least value) and verified by mutual inclusion against
    the principal ideal of t^n."""
    if I.dvs is not D:
        raise ValueError("the ideal does not live in this structure")
    if I.is_zero():
        raise ValueError("the zero ideal is not a uniformizer power")
    (g,) = I.payloads
    n = D.valuation.payload_fn(g)
    power = D.power_ideal(n)
    if not D._ideals.ideal_equal(I, power):
        raise AssertionError(f"normalisation of {I} failed at n={n}")
    return n


def euclidean_divide(D: DVSStructure, a: Element, b: Element) -> tuple[Element, Element]:
    """Division with remainder, degree function v: when v(a) < v(b) the
    quotient is 0 and the remainder a; otherwise a*b^-1 divides exactly.
    Ties take the exact-division branch."""
    amb = D.ambient
    amb._claim(a)
    amb._claim(b)
    if b.is_zero():
        raise ZeroDivisionError("division by zero")
    q, r = D.divide_payloads(a.payload, b.payload)
    return Element(amb, q), Element(amb, r)


def intersection_probe(D: DVSStructure, x: Element, bound: int) -> LawReport:
    """Find the least n <= bound with x outside (t^n); for nonzero x this is
    v(x) + 1, witnessing that the uniformizer powers intersect in zero."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if x.is_zero():
        raise ValueError("zero lies in every uniformizer power")
    law = f"intersection-chain[{D.name}]"
    for n in range(1, bound + 1):
        if not D.power_ideal(n).contains(x):
            return law_holds(law, detail=f"escapes at n={n}")
    return law_counterexample(law, (x,), detail=f"still inside at n={bound}")


def integral_check(D: DVSStructure, u: Element, degree_bound: int,
                   pool: list[Element]) -> LawReport:
    """Bounded search for an integrality witness
    u^n + a1 u^(n-1) + ... + an = b1 u^(n-1) + ... + bn
    with coefficients from the pool.  "holds" means no witness was found,
    which supports (never proves) that u is not integral over the carrier.

    Carrier elements are integral outright: u = b1 is a degree-1 witness, so
    they short-circuit without consulting the pool.
    """
    law = f"integral-witness[{D.name}]"
    amb = D.ambient
    if D.contains(u):
        return law_counterexample(law, (u,), detail="degree 1: u + 0 = u")
    for a in pool:
        if not D.contains(a):
            raise ValueError(f"pool element {a} lies outside the carrier")
    add, mul, eq, structural = amb._add, amb._mul, amb._eq, amb.structural_eq
    x, cs = u.payload, [a.payload for a in pool]
    powers = [amb._one()]
    for n in range(1, degree_bound + 1):
        powers.append(mul(powers[-1], x))
        # all sums c1 u^(n-1) + ... + cn over pool tuples, built positionwise
        sums = [amb._zero()]
        for i in range(n):
            terms = [mul(c, powers[n - 1 - i]) for c in cs]
            sums = [add(s, t) for s in sums for t in terms]
        # a set lookup where payloads are canonical, pairwise _eq otherwise
        rights = set(sums) if structural else sums
        for s in sums:
            left = add(powers[n], s)
            if left in rights if structural else any(eq(left, r) for r in rights):
                return law_counterexample(law, (u, Element(amb, left)),
                                          detail=f"degree {n} witness")
    return law_holds(law, detail=f"no witness up to degree {degree_bound}")


def ascending_chain_probe(D: DVSStructure, x: Element, bound: int) -> LawReport:
    """Probe the ascending chain condition on principal ideals: divide x by
    the uniformizer while it divides exactly; the chain of principal ideals
    (x) within (x/t) within ... must stabilise at a unit within the bound.
    For nonzero x it stabilises after exactly v(x) steps."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if x.is_zero():
        raise ValueError("zero generates the minimal principal ideal")
    law = f"ascending-chain[{D.name}]"
    amb = D.ambient
    current = x
    for step in range(bound + 1):
        if D.valuation.unit_in_sv(current):
            return law_holds(law, detail=f"stabilises after {step} steps")
        nxt = amb.div(current, D.uniformizer)
        if not D.contains(nxt):
            return law_counterexample(law, (x, current),
                                      detail="chain left the carrier")
        # strict ascent: current = t * nxt, and t is not a unit
        current = nxt
    return law_counterexample(law, (x, current),
                              detail=f"still ascending after {bound} steps")


def value_group_valuation(D: DVSStructure) -> Valuation:
    """The valuation recovered from the unit classes of the carrier: x maps
    to the unique n with x * t^-n a carrier unit, found by the closed-form
    unit test rather than by reading the defining valuation."""
    amb, unit = D.ambient, D.valuation.payload_unit
    zero = amb._zero()

    def raw(p):
        if amb._eq(p, zero):
            return None
        for n in range(_VALUE_SEARCH_LIMIT):
            for cand in ((n, -n) if n else (0,)):
                if unit(amb._mul(p, D.power_payload(-cand))):
                    return cand
        raise ValueError(f"no unit class found for {amb._text(p)}")

    return Valuation(f"value-group({D.name})", amb, "Z", raw,
                     payload_unit=unit,
                     element_with_value=D.valuation.element_with_value)


def carrier_principal(D: DVSStructure, x: Element) -> FinGenIdeal:
    return D._ideals.principal(D.ambient, x, dvs=D)


def carrier_ideal(D: DVSStructure, generators) -> FinGenIdeal:
    """Raises ValueError for a generator outside the carrier."""
    return D._ideals.make_ideal(D.ambient, generators, dvs=D)
