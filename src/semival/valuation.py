"""Valuation maps: named evaluation rules from an instance into an ordered
value domain, together with their law checkers and level sets.

A valuation sends products to sums, sums to at least the minimum value,
the multiplicative identity to 0 and zero to inf.  Each registered rule is
total on its source carrier and comes with a closed-form unit test for the
nonnegative subsemiring (never a search) plus a constructor producing an
element of any prescribed value.

A rule is defined once, on payloads: it returns a raw value, an int or a
Fraction, or None for inf.  ``valuate`` lifts it to elements and extended
values; the law loops and membership tests call it on payloads directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .extended import (
    MONOIDS,
    DomainMismatchError,
    ExtendedValue,
    Raw,
    _nonnegative,
    _raw_add,
    _raw_lt,
    _raw_min,
)
from .instances import FractionSemiring, MonoidSemiring, TropicalSemiring, get_instance
from .reports import LawReport, SampleSpec, law_counterexample, law_holds
from .semiring import Element, Semiring

# valuate never samples: the three sampled checks import .sampling as they run


@dataclass(frozen=True)
class Valuation:
    """A named, total evaluation rule from one instance into one domain.

    ``payload_fn`` is the rule on payloads; ``fn``, its lift to elements and
    extended values, is derived from it unless given.
    """

    rule: str
    source: Semiring
    domain: str
    payload_fn: Callable[[object], Raw] = field(repr=False, compare=False)
    # closed-form test on payloads for "unit of the nonnegative subsemiring"
    payload_unit: Callable[[object], bool] = field(repr=False, compare=False)
    # an element of the prescribed finite value
    element_with_value: Callable = field(repr=False, compare=False)
    fn: Callable[[Element], ExtendedValue] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.fn is None:
            domain, raw = self.domain, self.payload_fn
            object.__setattr__(
                self, "fn", lambda x: ExtendedValue(domain, raw(x.payload)))

    def unit_in_sv(self, x: Element) -> bool:
        """The closed-form unit test of the nonnegative subsemiring."""
        return self.payload_unit(x.payload)

    @cached_property
    def zero_value(self) -> ExtendedValue:
        return ExtendedValue(self.domain, 0)

    def __str__(self) -> str:
        return f"{self.rule} on {self.source.sid} -> {self.domain}"


@dataclass(frozen=True)
class MinPropertyReport(LawReport):
    """A min-property report; a counterexample's witness is the pair (x, y),
    also kept in the fields ``x`` and ``y`` that perfbench/ reads, and its
    detail gives v(x), v(y) and v(x+y) so it re-checks by evaluation."""

    x: Element | None = None
    y: Element | None = None


def valuate(v: Valuation, x: Element) -> ExtendedValue:
    v.source._claim(x)
    return v.fn(x)


def _raw_of(v: Valuation, x: Element) -> Raw:
    v.source._claim(x)
    return v.payload_fn(x.payload)


def in_valuation_semiring(v: Valuation, x: Element) -> bool:
    """Membership in the subsemiring of nonnegative values (0 included,
    since its value inf exceeds 0)."""
    return _nonnegative(_raw_of(v, x))


def in_positive_ideal(v: Valuation, x: Element) -> bool:
    """Membership in the prime ideal of strictly positive values."""
    r = _raw_of(v, x)
    return r is None or r > 0


def level_membership(v: Valuation, x: Element, alpha: ExtendedValue) -> bool:
    """Membership in the level set {v >= alpha} of the nonnegative
    subsemiring."""
    if alpha.is_inf:
        raise ValueError("level sets are indexed by finite values")
    if alpha.domain != v.domain:
        raise DomainMismatchError(
            f"domains differ: {alpha.domain!r} vs {v.domain!r}")
    r = _raw_of(v, x)
    return r is None or r >= max(alpha.value, 0)


def check_valuation_axioms(v: Valuation, spec: SampleSpec) -> LawReport:
    """Sampled check of multiplicativity, the min inequality, v(1) = 0 and
    v(0) = inf."""
    from .sampling import first_counterexample, pair_stream

    law = f"valuation-axioms[{v.rule}@{v.source.sid}]"
    src, raw = v.source, v.payload_fn
    if raw(src._one()) != 0:
        return law_counterexample(law, (src.one,), spec, "v(1) != 0")
    if raw(src._zero()) is not None:
        return law_counterexample(law, (src.zero,), spec, "v(0) != inf")
    add, mul = src._add, src._mul

    def test(p, q):
        vx, vy = raw(p), raw(q)
        if raw(mul(p, q)) != _raw_add(vx, vy):
            return 2, "v(xy) != v(x)+v(y)"
        if _raw_lt(raw(add(p, q)), _raw_min(vx, vy)):
            return 2, "v(x+y) < min"

    return first_counterexample(law, src, pair_stream(src, spec, salt=f"vax:{v.rule}"),
                                test, spec)


def check_min_property(v: Valuation, spec: SampleSpec) -> MinPropertyReport:
    """Search sampled pairs with v(x) != v(y) for v(x+y) != min{v(x),v(y)}."""
    from .sampling import first_counterexample, pair_stream

    src, raw, dom, add = v.source, v.payload_fn, v.domain, v.source._add

    def test(p, q):
        vx, vy = raw(p), raw(q)
        if vx != vy and (vsum := raw(add(p, q))) != _raw_min(vx, vy):
            vx, vy, vsum = (ExtendedValue(dom, r) for r in (vx, vy, vsum))
            return 2, f"v(x)={vx} v(y)={vy} v(x+y)={vsum}"

    r = first_counterexample("min-property", src,
                             pair_stream(src, spec, salt=f"minp:{v.rule}"), test, spec)
    x, y = r.witness or (None, None)
    return MinPropertyReport(r.law, r.verdict, spec, r.witness, r.detail, x=x, y=y)


def units_vs_zeroset(v: Valuation, spec: SampleSpec) -> LawReport:
    """Compare, over sampled elements of the nonnegative subsemiring, the
    closed-form unit test against the predicate v(x) = 0."""
    from .sampling import first_counterexample, stream

    law = f"units-zeroset[{v.rule}@{v.source.sid}]"
    raw, unit, values = v.payload_fn, v.payload_unit, []

    def keep(p) -> bool:
        values.append(raw(p))
        return _nonnegative(values[-1])

    def test(p, r):
        is_u = unit(p)
        if is_u != (r == 0):
            return 1, "unit with v != 0" if is_u else "v = 0 but not a unit"

    # keep records every value; the nonnegative ones belong to the kept payloads
    kept = stream(v.source, spec, salt=f"uz:{v.rule}", keep=keep)
    return first_counterexample(law, v.source, zip(kept, filter(_nonnegative, values)),
                                test, spec)


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


def _padic_unit(p: int) -> Callable[[int, int], bool]:
    """The closed-form unit test of the nonnegative part of the p-adic order
    of a fraction, on its numerator and denominator."""
    return lambda num, den: num != 0 and num % p != 0 and den % p != 0


def _make_trivial(source: Semiring) -> Valuation:
    if not source.entire:
        raise ValueError("the trivial valuation needs an entire source")
    zero = source._zero()

    def raw(p):
        return None if source._eq(p, zero) else 0

    def ewv(m):
        if m != 0:
            raise ValueError("trivial domain only contains 0")
        return source.one

    return Valuation("trivial", source, "trivial", raw,
                     payload_unit=source._is_unit, element_with_value=ewv)


def _padic_integers(p: int, source: Semiring) -> Valuation:
    """The p-adic order on an instance whose payloads are natural numbers."""
    def raw(n):
        return None if n == 0 else _padic_exponent(n, p)

    return Valuation(f"vp:{p}", source, "N0", raw,
                     payload_unit=lambda n: n == 1,
                     element_with_value=lambda m: source.element(p ** m))


def _make_padic(p: int, source: Semiring) -> Valuation:
    if not _is_prime(p):
        raise ValueError(f"vp parameter must be prime, got {p}")
    rule = f"vp:{p}"
    if source.sid == "nat":
        return _padic_integers(p, source)
    if source.sid == "qnn":
        def raw(q):
            num, den = q.as_integer_ratio()
            if num == 0:
                return None
            return _padic_exponent(num, p) - _padic_exponent(den, p)

        unit = _padic_unit(p)
        return Valuation(rule, source, "Z", raw,
                         payload_unit=lambda q: unit(*q.as_integer_ratio()),
                         element_with_value=lambda m: source.element(Fraction(p) ** m))
    raise ValueError(f"{rule} is defined on nat and qnn, not {source.sid}")


def _monomial_order(rule: str, source: MonoidSemiring, raw: Callable) -> Valuation:
    """A rule reading one end of a polynomial-style element's exponents,
    valued in the exponent monoid."""
    def unit(p):
        # inside the nonnegative part only exponent-zero monomials with unit
        # coefficients are invertible, whatever the ambient exponent monoid
        return len(p) == 1 and p[0][0] == 0 and source.base._is_unit(p[0][1])

    def ewv(m):
        return source.element(source.monomial_payload(m, source.base._one()))

    return Valuation(rule, source, source.exponents.name, raw,
                     payload_unit=unit, element_with_value=ewv)


def _make_low_order(source: Semiring) -> Valuation:
    if not isinstance(source, MonoidSemiring):
        raise ValueError("low-order needs a polynomial-style source")
    if not source.base.entire:
        raise ValueError("low-order needs an entire coefficient base")
    return _monomial_order("low-order", source, source.low_order)


def _make_deg_high(source: Semiring) -> Valuation:
    if not isinstance(source, MonoidSemiring) or source.exponents.name != "Z":
        raise ValueError("deg-high is defined on Laurent-style sources")
    if not (source.base.entire and source.base.zerosumfree):
        raise ValueError("deg-high needs an entire zerosumfree coefficient base")
    return _monomial_order("deg-high", source, source.high_order)


def _make_tropical_id(source: Semiring) -> Valuation:
    if not isinstance(source, TropicalSemiring):
        raise ValueError("tropical-id is defined on the tropical instances")
    # the payload is the value itself, None standing for inf
    return Valuation("tropical-id", source, source.values.name, lambda p: p,
                     payload_unit=lambda p: p == 0,
                     element_with_value=lambda m: source.element(m))


def fraction_extension(rule: str, v: Valuation, frs: FractionSemiring) -> Valuation:
    """The extension of v to the fractions of its source: x/y maps to
    v(x) - v(y) in the group completion of the value domain (inf when x = 0,
    as v(0) is), and is a unit of the nonnegative part when v(x) = v(y)."""
    base_raw = v.payload_fn

    def raw(p):
        num_p, den_p = p
        vn = base_raw(num_p)
        # a difference of two domain values lies in the group completion
        return None if vn is None else vn - base_raw(den_p)

    def unit(p) -> bool:
        num_p, den_p = p
        return base_raw(num_p) == base_raw(den_p)

    def ewv(g):
        num = v.element_with_value(g if g >= 0 else 0)
        den = v.element_with_value(-g if g < 0 else 0)
        return Element(frs, frs._canon((num.payload, den.payload)))

    return Valuation(rule, frs, MONOIDS[v.domain].completion, raw,
                     payload_unit=unit, element_with_value=ewv)


def _make_deg_frac(source: Semiring) -> Valuation:
    """The extension of the degree on nat polynomials: v(f/g) is
    deg f - deg g.  A surjective discrete valuation on a semifield that
    violates the min-property, since nat coefficients never cancel."""
    if source.sid != "fractions(poly(nat))":
        raise ValueError("deg-frac is defined on fractions(poly(nat))")
    poly = source.base
    degree = _monomial_order("degree", poly, poly.high_order)
    return fraction_extension("deg-frac", degree, source)


def _make_vm_idz(p: int, source: Semiring) -> Valuation:
    """Order of the maximal ideal (p) in fractions of the ideals of Z: the
    extension of the p-adic order of a generator."""
    if source.sid != "fractions(ideals-z)":
        raise ValueError("vm-idz is defined on fractions(ideals-z)")
    if not _is_prime(p):
        raise ValueError(f"vm-idz parameter must be prime, got {p}")
    unit = _padic_unit(p)
    ext = fraction_extension(f"vm-idz:{p}", _padic_integers(p, source.base), source)
    # the closed-form unit test, kept apart from the value comparison
    return replace(ext, payload_unit=lambda p: unit(*p))


# rule name -> maker; a name ending in ":" takes a prime parameter
_RULES = {
    "trivial": _make_trivial,
    "vp:": _make_padic,
    "low-order": _make_low_order,
    "deg-high": _make_deg_high,
    "tropical-id": _make_tropical_id,
    "deg-frac": _make_deg_frac,
    "vm-idz:": _make_vm_idz,
}


def get_valuation(rule: str, source: Semiring) -> Valuation:
    """Resolve a stable rule identifier against a source instance."""
    rule = rule.strip()
    name, colon, param = rule.partition(":")
    make = _RULES.get(name + colon)
    if make is None:
        raise ValueError(f"unknown valuation rule {rule!r}")
    if colon and not param.isdecimal():  # digits as the element grammar reads them
        raise ValueError(f"{name} parameter must be a prime integer, got {param!r}")
    return make(int(param), source) if colon else make(source)


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


def registered_valuations() -> list[Valuation]:
    return [get_valuation(rule, get_instance(sid))
            for rule, sid in REGISTERED_VALUATIONS]
