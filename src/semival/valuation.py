"""Valuation maps: named evaluation rules from an instance into an ordered
value domain, together with their law checkers and level sets.

A valuation sends products to sums, sums to at least the minimum value,
the multiplicative identity to 0 and zero to inf.  Each registered rule is
total on its source carrier and comes with a closed-form unit test for the
nonnegative subsemiring (never a search) plus, for surjective rules, a
constructor producing an element of any prescribed value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .extended import EQ, ExtendedValue, ext_add, ext_compare, ext_min
from .instances import MonoidSemiring, TropicalSemiring, get_instance
from .reports import LawReport, SampleSpec, law_counterexample, law_holds
from .sampling import pair_stream, stream
from .semiring import Element, Semiring

# rule results lie in their domain by construction, so they skip validation
_value = ExtendedValue._unchecked


@dataclass(frozen=True)
class Valuation:
    """A named, total evaluation rule from one instance into one domain."""

    rule: str
    source: Semiring
    domain: str
    surjective: bool
    fn: Callable[[Element], ExtendedValue] = field(repr=False, compare=False)
    # closed-form test for "unit of the nonnegative subsemiring"
    unit_in_sv: Callable[[Element], bool] | None = field(
        default=None, repr=False, compare=False)
    # for surjective rules: an element of the prescribed finite value
    element_with_value: Callable = field(default=None, repr=False, compare=False)

    def __call__(self, x: Element) -> ExtendedValue:
        return valuate(self, x)

    @cached_property
    def zero_value(self) -> ExtendedValue:
        # built once per valuation: membership filters compare against it
        # once per element
        return ExtendedValue.fin(self.domain, 0)

    def __str__(self) -> str:
        return f"{self.rule} on {self.source.sid} -> {self.domain}"


@dataclass(frozen=True)
class MinPropertyReport:
    """Verdict of the min-property search; a counterexample carries the pair
    and all three values so it re-checks by evaluation."""

    verdict: str
    bound: SampleSpec | None = None
    x: Element | None = None
    y: Element | None = None
    vx: ExtendedValue | None = None
    vy: ExtendedValue | None = None
    vsum: ExtendedValue | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def __str__(self) -> str:
        if self.holds:
            return "min-property: holds"
        return (f"min-property: counterexample x={self.x} y={self.y} "
                f"v(x)={self.vx} v(y)={self.vy} v(x+y)={self.vsum}")


def valuate(v: Valuation, x: Element) -> ExtendedValue:
    v.source._claim(x)
    return v.fn(x)


def in_valuation_semiring(v: Valuation, x: Element) -> bool:
    """Membership in the subsemiring of nonnegative values (0 included,
    since its value inf exceeds 0)."""
    return valuate(v, x) >= v.zero_value


def in_positive_ideal(v: Valuation, x: Element) -> bool:
    """Membership in the prime ideal of strictly positive values."""
    return valuate(v, x) > v.zero_value


def level_membership(v: Valuation, x: Element, alpha: ExtendedValue,
                     strict: bool = False, within_sv: bool = False) -> bool:
    """Membership in the level set at alpha: value > alpha when strict,
    value >= alpha otherwise; within_sv additionally requires value >= 0."""
    if alpha.is_inf:
        raise ValueError("level sets are indexed by finite values")
    val = valuate(v, x)
    ok = val > alpha if strict else val >= alpha
    if within_sv:
        ok = ok and val >= v.zero_value
    return ok


def check_valuation_axioms(v: Valuation, spec: SampleSpec) -> LawReport:
    """Sampled check of multiplicativity, the min inequality, v(1) = 0 and
    v(0) = inf."""
    law = f"valuation-axioms[{v.rule}@{v.source.sid}]"
    zero_val = v.zero_value
    if valuate(v, v.source.one) != zero_val:
        return law_counterexample(law, (v.source.one,), spec, "v(1) != 0")
    if not valuate(v, v.source.zero).is_inf:
        return law_counterexample(law, (v.source.zero,), spec, "v(0) != inf")
    src, fn = v.source, v.fn
    add, mul = src._add, src._mul
    for x, y in pair_stream(src, spec, salt=f"vax:{v.rule}"):
        vx, vy = fn(x), fn(y)
        if fn(Element(src, mul(x.payload, y.payload))) != ext_add(vx, vy):
            return law_counterexample(law, (x, y), spec, "v(xy) != v(x)+v(y)")
        if fn(Element(src, add(x.payload, y.payload))) < ext_min(vx, vy):
            return law_counterexample(law, (x, y), spec, "v(x+y) < min")
    return law_holds(law, spec)


def check_min_property(v: Valuation, spec: SampleSpec) -> MinPropertyReport:
    """Search sampled pairs with v(x) != v(y) for v(x+y) != min{v(x),v(y)}."""
    src, fn = v.source, v.fn
    add = src._add
    for x, y in pair_stream(src, spec, salt=f"minp:{v.rule}"):
        vx, vy = fn(x), fn(y)
        if ext_compare(vx, vy) == EQ:
            continue
        vsum = fn(Element(src, add(x.payload, y.payload)))
        if vsum != ext_min(vx, vy):
            return MinPropertyReport("counterexample", spec, x, y, vx, vy, vsum)
    return MinPropertyReport("holds", spec)


def units_vs_zeroset(v: Valuation, spec: SampleSpec) -> LawReport:
    """Compare, over sampled elements of the nonnegative subsemiring, the
    closed-form unit test against the predicate v(x) = 0."""
    law = f"units-zeroset[{v.rule}@{v.source.sid}]"
    if v.unit_in_sv is None:
        raise ValueError(f"{v.rule}: no unit test for the nonnegative part")
    for x in stream(v.source, spec, salt=f"uz:{v.rule}",
                    keep=lambda e: in_valuation_semiring(v, e)):
        is_u = v.unit_in_sv(x)
        is_z = valuate(v, x) == v.zero_value
        if is_u != is_z:
            side = "unit with v != 0" if is_u else "v = 0 but not a unit"
            return law_counterexample(law, (x,), spec, side)
    return law_holds(law, spec)


# -- rule registry --------------------------------------------------------------

# Miller-Rabin with these bases is exact for every p below the limit
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; a p at or above _PRIME_LIMIT that has no
    small factor cannot be decided exactly and raises ValueError."""
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    if p >= _PRIME_LIMIT:
        raise ValueError(f"{p} cannot be certified prime: exact primality "
                         f"is decided below {_PRIME_LIMIT}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _padic_exponent(n: int, p: int) -> int:
    """Exponent of p in n > 0.  Divides out p, p^2, p^4, ... while each
    divides and starts again from p when one does not, so the number of
    divisions grows with the squared logarithm of the exponent."""
    e, pk, step = 0, p, 1
    while n % p == 0:
        q, r = divmod(n, pk)
        if r:
            pk, step = p, 1
            continue
        n, e = q, e + step
        pk, step = pk * pk, step * 2
    return e


def _make_trivial(source: Semiring) -> Valuation:
    if not source.caps.entire:
        raise ValueError("the trivial valuation needs an entire source")
    zero = source.zero

    def fn(x):
        if source._eq(x.payload, zero.payload):
            return _value("trivial", None)
        return _value("trivial", 0)

    def ewv(m):
        if m != 0:
            raise ValueError("trivial domain only contains 0")
        return source.one

    return Valuation("trivial", source, "trivial", True, fn,
                     unit_in_sv=source.is_unit, element_with_value=ewv)


def _make_padic(p: int, source: Semiring) -> Valuation:
    if not _is_prime(p):
        raise ValueError(f"vp parameter must be prime, got {p}")
    rule = f"vp:{p}"
    if source.sid == "nat":
        def fn(x):
            n = x.payload
            if n == 0:
                return _value("N0", None)
            return _value("N0", _padic_exponent(n, p))

        return Valuation(rule, source, "N0", True, fn,
                         unit_in_sv=lambda x: x.payload == 1,
                         element_with_value=lambda m: source.element(p ** m))
    if source.sid == "qnn":
        def fn(x):
            q = x.payload
            if q == 0:
                return _value("Z", None)
            return _value(
                "Z", _padic_exponent(q.numerator, p) - _padic_exponent(q.denominator, p))

        def unit_in_sv(x):
            q = x.payload
            return q != 0 and q.numerator % p != 0 and q.denominator % p != 0

        return Valuation(rule, source, "Z", True, fn, unit_in_sv=unit_in_sv,
                         element_with_value=lambda m: source.element(Fraction(p) ** m))
    raise ValueError(f"{rule} is defined on nat and qnn, not {source.sid}")


def _make_low_order(source: Semiring) -> Valuation:
    if not isinstance(source, MonoidSemiring):
        raise ValueError("low-order needs a polynomial-style source")
    if not source.base.caps.entire:
        raise ValueError("low-order needs an entire coefficient base")
    dom = source.exponents

    def fn(x):
        e = source.low_order(x.payload)
        if e is None:
            return _value(dom, None)
        return _value(dom, e)

    def unit_in_sv(x):
        # inside the nonnegative part only exponent-zero monomials with unit
        # coefficients are invertible, whatever the ambient exponent monoid
        p = x.payload
        return len(p) == 1 and p[0][0] == 0 and source.base._is_unit(p[0][1])

    def ewv(m):
        return source.element(source.monomial_payload(m, source.base._one()))

    return Valuation("low-order", source, dom, True, fn,
                     unit_in_sv=unit_in_sv, element_with_value=ewv)


def _make_deg_high(source: Semiring) -> Valuation:
    if not isinstance(source, MonoidSemiring) or source.exponents != "Z":
        raise ValueError("deg-high is defined on Laurent-style sources")
    if not (source.base.caps.entire and source.base.caps.zerosumfree):
        raise ValueError("deg-high needs an entire zerosumfree coefficient base")

    def fn(x):
        e = source.high_order(x.payload)
        if e is None:
            return _value("Z", None)
        return _value("Z", e)

    def unit_in_sv(x):
        p = x.payload
        return len(p) == 1 and p[0][0] == 0 and source.base._is_unit(p[0][1])

    def ewv(m):
        return source.element(source.monomial_payload(m, source.base._one()))

    return Valuation("deg-high", source, "Z", True, fn,
                     unit_in_sv=unit_in_sv, element_with_value=ewv)


def _make_tropical_id(source: Semiring) -> Valuation:
    if not isinstance(source, TropicalSemiring):
        raise ValueError("tropical-id is defined on the tropical instances")
    dom = "Z" if source.values == "int" else "N0"

    def fn(x):
        if x.payload is None:
            return _value(dom, None)
        return _value(dom, x.payload)

    return Valuation("tropical-id", source, dom, True, fn,
                     unit_in_sv=lambda x: x.payload == 0,
                     element_with_value=lambda m: source.element(m))


def _make_deg_frac(source: Semiring) -> Valuation:
    """Degree difference on fractions of nat polynomials: v(f/g) is
    deg f - deg g.  A surjective discrete valuation on a semifield that
    violates the min-property, since nat coefficients never cancel."""
    if source.sid != "fractions(poly(nat))":
        raise ValueError("deg-frac is defined on fractions(poly(nat))")
    poly = source.base

    def fn(x):
        num, den = x.payload
        if not num:
            return _value("Z", None)
        return _value("Z", poly.high_order(num) - poly.high_order(den))

    def unit_in_sv(x):
        num, den = x.payload
        return bool(num) and poly.high_order(num) == poly.high_order(den)

    def ewv(m):
        x_pow = poly.monomial_payload(max(m, 0), poly.base._one())
        d_pow = poly.monomial_payload(max(-m, 0), poly.base._one())
        return source.element((x_pow, d_pow))

    return Valuation("deg-frac", source, "Z", True, fn,
                     unit_in_sv=unit_in_sv, element_with_value=ewv)


def _make_vm_idz(p: int, source: Semiring) -> Valuation:
    """Order of the maximal ideal (p) in fractions of the ideals of Z."""
    if source.sid != "fractions(ideals-z)":
        raise ValueError("vm-idz is defined on fractions(ideals-z)")
    if not _is_prime(p):
        raise ValueError(f"vm-idz parameter must be prime, got {p}")
    rule = f"vm-idz:{p}"

    def fn(x):
        num, den = x.payload
        if num == 0:
            return _value("Z", None)
        return _value("Z", _padic_exponent(num, p) - _padic_exponent(den, p))

    def unit_in_sv(x):
        num, den = x.payload
        return num != 0 and num % p != 0 and den % p != 0

    def ewv(m):
        return source.element((p ** max(m, 0), p ** max(-m, 0)))

    return Valuation(rule, source, "Z", True, fn,
                     unit_in_sv=unit_in_sv, element_with_value=ewv)


def get_valuation(rule: str, source: Semiring) -> Valuation:
    """Resolve a stable rule identifier against a source instance."""
    rule = rule.strip()
    if rule == "trivial":
        return _make_trivial(source)
    if rule.startswith("vp:"):
        return _make_padic(int(rule[3:]), source)
    if rule == "low-order":
        return _make_low_order(source)
    if rule == "deg-high":
        return _make_deg_high(source)
    if rule == "tropical-id":
        return _make_tropical_id(source)
    if rule == "deg-frac":
        return _make_deg_frac(source)
    if rule.startswith("vm-idz:"):
        return _make_vm_idz(int(rule[7:]), source)
    raise ValueError(f"unknown valuation rule {rule!r}")


# Every (rule, source) pair exercised by the law suite.
REGISTERED_VALUATIONS: tuple[tuple[str, str], ...] = (
    ("trivial", "qnn"),
    ("vp:5", "nat"),
    ("vp:5", "qnn"),
    ("low-order", "poly(nat)"),
    ("low-order", "laurent(nat)"),
    ("low-order", "monoid(nat,N0)"),
    ("deg-high", "laurent(nat)"),
    ("tropical-id", "tropical-nat"),
    ("tropical-id", "tropical-int"),
    ("deg-frac", "fractions(poly(nat))"),
    ("vm-idz:5", "fractions(ideals-z)"),
)

# The surjective rules whose source is a semifield; for these the
# min-property is equivalent to subtractivity of the positive ideal.
SEMIFIELD_SURJECTIVE: tuple[tuple[str, str], ...] = (
    ("trivial", "qnn"),
    ("vp:5", "qnn"),
    ("tropical-id", "tropical-int"),
    ("deg-frac", "fractions(poly(nat))"),
    ("vm-idz:5", "fractions(ideals-z)"),
)


def registered_valuations() -> list[Valuation]:
    return [get_valuation(rule, get_instance(sid))
            for rule, sid in REGISTERED_VALUATIONS]
