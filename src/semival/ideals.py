"""Finitely generated ideals with per-instance membership oracles.

There is no generic decision procedure for semiring ideal membership;
each oracle below is exact on its own instance.  The first five are the
builders of ``_ORACLES``, which turn generator payloads into a predicate
on payloads:

  nat           x is a nonnegative integer combination of the generators
                (numerical semigroup membership; see _NatSemigroup)
  bool-poly     addition is idempotent and degrees only grow, so x is a sum
                of shifted generators iff the union of all generator shifts
                contained in x equals x
  ideals-z      the ideal generated by (g1),...,(gk) is every multiple of
                gcd(g1,...,gk)
  fuzzy         every ideal is an interval [0,a] or [0,a); a generated one
                is [0, largest generator], so membership is an order test
  tropical-nat  y is in (g) iff y >= g, so membership is y >= min generator
  semifields    only the zero ideal and the whole carrier exist
  DVS carriers  membership is v(x) >= min generator value (every nonzero
                ideal is a uniformizer power)

An ideal builds its predicate on the first ``contains`` and keeps it, so
the generators are reduced, or valued, once per ideal.  Instances with
none of these oracles raise UnsupportedOperationError on that first query.

Subset of finitely generated ideals is exact via generator membership;
subtractivity and primality quantify over the carrier and stay sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from heapq import heappop, heappush
from typing import Callable

from .extended import ExtendedValue
from .instances import get_instance
from .reports import LawReport, SampleSpec, law_counterexample, law_holds
from .sampling import pair_stream
from .semiring import Element, Semiring, UnsupportedOperationError
from .valuation import Valuation, in_valuation_semiring, level_membership, valuate

_APERY_BUDGET = 150_000


@lru_cache(maxsize=2048)
def _nat_semigroup(gens: tuple[int, ...]) -> "_NatSemigroup":
    return _NatSemigroup(gens)


class _NatSemigroup:
    """Membership in {sum s_i * g_i : s_i >= 0} for fixed positive generators.

    After factoring out the gcd, either the smallest generator is modest and
    a shortest-path table over its residue classes decides every query in
    O(1), or all generators are large and a congruence-pruned search over
    the (then small) multiplier ranges terminates quickly.  Both routes are
    exact.
    """

    def __init__(self, gens: tuple[int, ...]):
        self.gcd = reduce(math.gcd, gens)
        scaled = tuple(sorted(g // self.gcd for g in gens))
        self.scaled = scaled
        self.apery = None
        if scaled[0] * len(scaled) <= _APERY_BUDGET:
            self.apery = self._residue_table(scaled)
        else:
            self.desc = tuple(sorted(scaled, reverse=True))
            suffix = [0] * (len(self.desc) + 1)
            for i in range(len(self.desc) - 1, -1, -1):
                suffix[i] = math.gcd(self.desc[i], suffix[i + 1])
            self.suffix_gcd = suffix
            self.memo: dict = {}

    @staticmethod
    def _residue_table(gens: tuple[int, ...]) -> list:
        # dist[r] = least semigroup element congruent to r modulo gens[0]
        a = gens[0]
        dist: list = [None] * a
        dist[0] = 0
        heap = [(0, 0)]
        rest = gens[1:]
        while heap:
            d, r = heappop(heap)
            if dist[r] is not None and d > dist[r]:
                continue
            for g in rest:
                nr = (r + g) % a
                nd = d + g
                if dist[nr] is None or nd < dist[nr]:
                    dist[nr] = nd
                    heappush(heap, (nd, nr))
        return dist

    def member(self, x: int) -> bool:
        if x == 0:
            return True
        if x % self.gcd:
            return False
        y = x // self.gcd
        if self.apery is not None:
            d = self.apery[y % self.scaled[0]]
            return d is not None and d <= y
        return self._search(y, 0)

    def _search(self, x: int, i: int) -> bool:
        if x == 0:
            return True
        desc = self.desc
        if i == len(desc) - 1:
            return x % desc[i] == 0
        key = (x, i)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        g = desc[i]
        result = False
        if x % g == 0:
            result = True
        else:
            m = self.suffix_gcd[i + 1]
            r = x % m
            gm = g % m
            d = math.gcd(gm, m)
            if r % d == 0:
                step = m // d
                if step > 1:
                    s = (pow(gm // d, -1, step) * (r // d)) % step
                else:
                    s = 0
                while s * g <= x:
                    if self._search(x - s * g, i + 1):
                        result = True
                        break
                    s += step
        self.memo[key] = result
        return result


def _reduce_nat_generators(values: list[int]) -> tuple[int, ...]:
    vals = sorted({v for v in values if v > 0})
    kept = []
    for v in vals:
        if not any(v % w == 0 for w in kept):
            kept.append(v)
    return tuple(kept)


def _nat_oracle(gens: list[int]):
    reduced = _reduce_nat_generators(gens)
    if not reduced:
        return lambda p: p == 0
    if reduced[0] == 1:
        return lambda p: True
    return _nat_semigroup(reduced).member


def _bool_poly_oracle(gens: list[frozenset]):
    # a shift of g that fits inside x lines min(g) up with an exponent of x
    shapes = [(min(g), tuple(e - min(g) for e in g)) for g in gens if g]

    def member(x: frozenset) -> bool:
        covered: set = set()
        for low, offsets in shapes:
            for e in x:
                if e >= low and all(e + o in x for o in offsets):
                    covered.update(e + o for o in offsets)
        return covered == x
    return member


def _ideals_z_oracle(gens: list[int]):
    d = reduce(math.gcd, gens)
    return (lambda p: p % d == 0) if d else (lambda p: p == 0)


def _tropical_nat_oracle(gens: list):
    finite = [g for g in gens if g is not None]
    if not finite:
        return lambda p: p is None
    least = min(finite)
    return lambda p: p is None or p >= least


def _fuzzy_oracle(gens: list[Fraction]):
    top = max(gens)
    return lambda p: p <= top


# sid -> builder: generator payloads in, membership predicate on payloads out
_ORACLES = {
    "nat": _nat_oracle,
    "bool-poly": _bool_poly_oracle,
    "ideals-z": _ideals_z_oracle,
    "tropical-nat": _tropical_nat_oracle,
    "fuzzy": _fuzzy_oracle,
}


@dataclass(frozen=True)
class FinGenIdeal:
    """A nonempty finite generator list over one instance.

    When ``dvs`` is set the ideal lives in the carrier of that discrete
    valuation structure and membership goes through the valuation.
    """

    instance: Semiring
    generators: tuple[Element, ...]
    dvs: object = None  # DVSStructure, kept untyped to avoid an import cycle

    def __post_init__(self):
        if not self.generators:
            raise ValueError("an ideal needs at least one generator")
        for g in self.generators:
            self.instance._claim(g)

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.generators)

    def contains(self, x: Element) -> bool:
        self.instance._claim(x)
        return self._member(x)

    @cached_property
    def _member(self) -> Callable[[Element], bool]:
        """The membership predicate, built on the first query."""
        inst = self.instance
        if self.dvs is None:
            build = _ORACLES.get(inst.sid)
            if build is not None:
                test = build([g.payload for g in self.generators])
                return lambda x: test(x.payload)
            if not inst.caps.semifield:
                raise UnsupportedOperationError(f"{inst.sid}: no ideal membership oracle")
        if self.is_zero():
            return Element.is_zero
        if self.dvs is None:  # a semifield's nonzero ideals hold a unit
            return lambda x: True
        v = self.dvs.valuation
        least = min(valuate(v, g) for g in self.generators)
        return lambda x: valuate(v, x) >= least

    def domain_filter(self):
        if self.dvs is not None:
            return self.dvs.contains
        return None

    def __str__(self) -> str:
        return "ideal[" + ", ".join(str(g) for g in self.generators) + "]"


def make_ideal(instance: Semiring, generators, dvs=None) -> FinGenIdeal:
    """Build an ideal with a lightly canonicalised generator list."""
    gens = list(generators)
    if not gens:
        raise ValueError("an ideal needs at least one generator")
    for g in gens:
        instance._claim(g)
    sid = instance.sid
    if sid == "ideals-z":
        d = reduce(math.gcd, (g.payload for g in gens))
        gens = [instance.element(d)]
    elif sid == "nat":
        reduced = _reduce_nat_generators([g.payload for g in gens])
        gens = [instance.element(v) for v in reduced] or [instance.zero]
    else:
        seen = set()
        uniq = []
        for g in gens:
            key = g.payload
            if key not in seen:
                seen.add(key)
                uniq.append(g)
        gens = uniq
    return FinGenIdeal(instance, tuple(gens), dvs)


def principal(instance: Semiring, x: Element, dvs=None) -> FinGenIdeal:
    return make_ideal(instance, [x], dvs)


def ideal_member(I: FinGenIdeal, x: Element) -> bool:
    return I.contains(x)


def _require_same(I: FinGenIdeal, J: FinGenIdeal) -> None:
    for K in (I, J):
        if not isinstance(K, FinGenIdeal):
            hint = ("; compare fuzzy intervals with interval_comparable"
                    if isinstance(K, IntervalIdeal) else "")
            raise UnsupportedOperationError(
                f"{type(K).__name__} is not a finitely generated ideal{hint}")
    if I.instance is not J.instance or I.dvs is not J.dvs:
        raise ValueError("ideals live over different instances")


def ideal_sum(I: FinGenIdeal, J: FinGenIdeal) -> FinGenIdeal:
    _require_same(I, J)
    return make_ideal(I.instance, list(I.generators) + list(J.generators), I.dvs)


def ideal_product(I: FinGenIdeal, J: FinGenIdeal) -> FinGenIdeal:
    _require_same(I, J)
    mul = I.instance.mul
    return make_ideal(I.instance,
                      [mul(a, b) for a in I.generators for b in J.generators],
                      I.dvs)


def ideal_power(I: FinGenIdeal, n: int) -> FinGenIdeal:
    if n < 0:
        raise ValueError("ideal powers need n >= 0")
    result = make_ideal(I.instance, [I.instance.one], I.dvs)
    for _ in range(n):
        result = ideal_product(result, I)
    return result


def ideal_subset(I: FinGenIdeal, J: FinGenIdeal,
                 spec: SampleSpec | None = None) -> LawReport:
    """Exact for finitely generated ideals: test I's generators in J."""
    _require_same(I, J)
    law = "ideal-subset"
    for g in I.generators:
        if not J.contains(g):
            return law_counterexample(law, (g,), spec, f"{g} not in {J}")
    return law_holds(law, spec)


def ideals_comparable(I: FinGenIdeal, J: FinGenIdeal,
                      spec: SampleSpec | None = None) -> LawReport:
    _require_same(I, J)
    law = "ideals-comparable"
    fwd = ideal_subset(I, J)
    if fwd.holds:
        return law_holds(law, spec, "first contained in second")
    bwd = ideal_subset(J, I)
    if bwd.holds:
        return law_holds(law, spec, "second contained in first")
    return law_counterexample(law, fwd.witness + bwd.witness, spec,
                              "neither inclusion holds")


def ideal_equal(I: FinGenIdeal, J: FinGenIdeal) -> bool:
    return ideal_subset(I, J).holds and ideal_subset(J, I).holds


def is_subtractive_bounded(ideal, spec: SampleSpec) -> LawReport:
    """Sampled search for a + b in I with a in I but b outside."""
    instance = ideal.instance
    law = f"subtractive[{instance.sid}]"
    add = instance.add
    keep = ideal.domain_filter()
    for a, b in pair_stream(instance, spec, keep=keep, salt="subtractive"):
        if ideal.contains(a) and ideal.contains(add(a, b)) and not ideal.contains(b):
            return law_counterexample(law, (a, b), spec,
                                      "a and a+b inside, b outside")
    return law_holds(law, spec)


def is_prime_bounded(ideal, spec: SampleSpec) -> LawReport:
    """Sampled search for a product inside a proper ideal with both factors
    outside."""
    instance = ideal.instance
    if ideal.contains(instance.one):
        raise ValueError("primality is only defined for proper ideals")
    law = f"prime[{instance.sid}]"
    mul = instance.mul
    keep = ideal.domain_filter()
    for a, b in pair_stream(instance, spec, keep=keep, salt="prime"):
        if ideal.contains(mul(a, b)) and not ideal.contains(a) and not ideal.contains(b):
            return law_counterexample(law, (a, b), spec,
                                      "a*b inside, neither factor inside")
    return law_holds(law, spec)


# -- level-set ideals -----------------------------------------------------------

@dataclass(frozen=True)
class LevelIdeal:
    """The ideal of the nonnegative subsemiring cut out by value > alpha
    (or >= alpha when not strict)."""

    valuation: Valuation
    alpha: ExtendedValue
    strict: bool = True

    @property
    def instance(self) -> Semiring:
        return self.valuation.source

    def contains(self, x: Element) -> bool:
        return level_membership(self.valuation, x, self.alpha,
                                strict=self.strict, within_sv=True)

    def domain_filter(self):
        v = self.valuation
        return lambda x: in_valuation_semiring(v, x)

    def __str__(self) -> str:
        cmp = ">" if self.strict else ">="
        return f"{{v {cmp} {self.alpha}}} of {self.valuation.rule}"


def positive_ideal(v: Valuation) -> LevelIdeal:
    """The prime ideal of strictly positive values inside the nonnegative
    subsemiring."""
    return LevelIdeal(v, v.zero_value, strict=True)


# -- interval ideals of the fuzzy instance ---------------------------------------

@dataclass(frozen=True)
class IntervalIdeal:
    """An ideal [0, endpoint] (closed) or [0, endpoint) of the fuzzy
    instance; these are all of them, and they are totally ordered."""

    endpoint: Fraction
    closed: bool

    @property
    def instance(self) -> Semiring:
        return get_instance("fuzzy")

    def contains(self, x: Element) -> bool:
        self.instance._claim(x)
        if self.closed:
            return x.payload <= self.endpoint
        return x.payload < self.endpoint

    def domain_filter(self):
        return None

    def subset_of(self, other: "IntervalIdeal") -> bool:
        if self.endpoint != other.endpoint:
            return self.endpoint < other.endpoint
        return other.closed or not self.closed

    def __str__(self) -> str:
        return f"fuzzy[0,{self.endpoint}{']' if self.closed else ')'}"


def fuzzy_ideal_classify(description) -> IntervalIdeal:
    """Canonical interval form of an ideal described by finitely many
    elements (closed pieces) or (endpoint, closed) pairs.

    The union of downward-closed pieces is the piece with the largest
    (endpoint, closed) pair, so the supremum of the description decides.
    """
    fuzzy = get_instance("fuzzy")
    pieces: list[tuple[Fraction, bool]] = []
    for item in description:
        if isinstance(item, Element):
            fuzzy._claim(item)
            pieces.append((item.payload, True))
        else:
            endpoint, closed = item
            pieces.append((fuzzy.element(endpoint).payload, bool(closed)))
    if not pieces:
        raise ValueError("empty ideal description")
    endpoint, closed = max(pieces)
    return IntervalIdeal(endpoint, closed)


def interval_comparable(A: IntervalIdeal, B: IntervalIdeal) -> bool:
    return A.subset_of(B) or B.subset_of(A)
