"""Finitely generated ideals, reduced and decided by one rule per carrier.

There is no generic decision procedure for semiring ideal membership.  Each
carrier with an exact one owns a rule ``(reduce, build)``.  ``reduce`` turns
a generator list into the shortest list generating the same ideal (zero
alone for the zero ideal); every FinGenIdeal applies it on construction, so
sums, products and powers shrink at each step.  ``build`` turns the reduced
list into the membership predicate, on the ideal's first ``contains``.

  nat           drop multiples of smaller generators; x is a member iff it is
                a nonnegative integer combination (see _NatSemigroup)
  ideals-z      (g1),...,(gk) generate the multiples of their gcd: keep it
  bool-poly     drop duplicates; addition is idempotent and degrees only grow,
                so x is a sum of shifted generators iff the union of all
                generator shifts contained in x equals x
  threshold     y is in (g) iff key(y) >= key(g): keep the first generator of
                least key.  Keys: the value (inf for the zero element) on
                tropical-nat; -x on fuzzy, whose ideals are intervals;
                is_zero on semifields, whose only ideals are zero and the
                whole carrier; v(x) on DVS carriers, whose nonzero ideals are
                uniformizer powers and which refuse generators of negative
                value as lying outside the carrier (each structure builds
                its rule once, see DVSStructure.ideal_rule)

Other instances drop duplicates and raise UnsupportedOperationError on the
first membership query.  Subset of finitely generated ideals is exact via
generator membership; subtractivity and primality quantify over the carrier
and stay sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from heapq import heappop, heappush
from itertools import combinations, islice
from typing import Callable, NamedTuple

from .extended import _raw_lt, _raw_min
from .instances import get_instance
from .reports import LawReport, SampleSpec, law_counterexample, law_holds
from .sampling import pair_stream
from .semiring import Element, Semiring, UnsupportedOperationError
from .valuation import Valuation, in_positive_ideal, in_valuation_semiring

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


def _nat_reduce(gens: tuple[Element, ...]) -> tuple[Element, ...]:
    nat, kept = gens[0].semiring, []
    for v in sorted({g.payload for g in gens if g.payload > 0}):
        if not any(v % w == 0 for w in kept):
            kept.append(v)
    return tuple(Element(nat, v) for v in kept) or (nat.zero,)


def _nat_oracle(gens: list[int]):
    if gens[0] == 0:
        return lambda p: p == 0
    return _nat_semigroup(tuple(gens)).member


def _gcd_reduce(gens: tuple[Element, ...]) -> tuple[Element, ...]:
    return (Element(gens[0].semiring, reduce(math.gcd, (g.payload for g in gens))),)


def _ideals_z_oracle(gens: list[int]):
    d = gens[0]
    return (lambda p: p % d == 0) if d else (lambda p: p == 0)


def _dedupe(gens: tuple[Element, ...]) -> tuple[Element, ...]:
    unique: dict = {}
    for g in gens:
        unique.setdefault(g.payload, g)
    return tuple(unique.values())


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


def _no_oracle(gens: tuple[Element, ...]):
    raise UnsupportedOperationError(
        f"{gens[0].semiring.sid}: no ideal membership oracle")


class _Rule(NamedTuple):
    reduce: Callable  # generators -> the fewest generating the same ideal
    build: Callable   # reduced generators -> membership predicate on elements


def _payload_rule(reduce_gens, oracle) -> _Rule:
    """oracle(generator payloads) returns a test on the payload of x."""
    def build(gens):
        test = oracle([g.payload for g in gens])
        return lambda x: test(x.payload)
    return _Rule(reduce_gens, build)


def _threshold(key, floor=None) -> _Rule:
    """x is in (g1..gk) iff key(x) >= min key(gi), keys ordered as raw
    values (None is inf).  A generator keyed below the floor lies outside
    the carrier; one key per generator serves both."""
    def reduce_gens(gens):
        keys = [key(g) for g in gens]
        if floor is not None:
            for g, k in zip(gens, keys):
                if _raw_lt(k, floor):
                    raise ValueError(f"{g} lies outside the carrier")
        return (gens[keys.index(reduce(_raw_min, keys))],)

    def build(gens):
        least = key(gens[0])
        return lambda x: not _raw_lt(key(x), least)
    return _Rule(reduce_gens, build)


# sid -> rule; _rule_for covers DVS carriers, semifields and the rest
_RULES = {
    "nat": _payload_rule(_nat_reduce, _nat_oracle),
    "ideals-z": _payload_rule(_gcd_reduce, _ideals_z_oracle),
    "bool-poly": _payload_rule(_dedupe, _bool_poly_oracle),
    "tropical-nat": _threshold(lambda x: x.payload),
    "fuzzy": _threshold(lambda x: -x.payload),
}
_SEMIFIELD = _threshold(Element.is_zero)
_NO_ORACLE = _Rule(_dedupe, _no_oracle)


def _rule_for(instance: Semiring, dvs) -> _Rule:
    if dvs is not None:
        return dvs.ideal_rule
    return _RULES.get(instance.sid, _SEMIFIELD if instance.caps.semifield else _NO_ORACLE)


@dataclass(frozen=True)
class FinGenIdeal:
    """A nonempty finite generator list over one instance, reduced by its
    rule.  When ``dvs`` is set the ideal lives in the carrier of that discrete
    valuation structure and membership goes through the valuation.
    """

    instance: Semiring
    generators: tuple[Element, ...]
    dvs: object = None  # DVSStructure, kept untyped to avoid an import cycle

    def __post_init__(self):
        if self.dvs is not None and self.dvs.ambient is not self.instance:
            raise ValueError(f"{self.dvs.name} is not a structure on {self.instance.sid}")
        if not self.generators:
            raise ValueError("an ideal needs at least one generator")
        for g in self.generators:
            self.instance._claim(g)
        reduced = _rule_for(self.instance, self.dvs).reduce(self.generators)
        object.__setattr__(self, "generators", reduced)

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.generators)

    def contains(self, x: Element) -> bool:
        self.instance._claim(x)
        return self._member(x)

    @cached_property
    def _member(self) -> Callable[[Element], bool]:
        """The membership predicate, built on the first query."""
        return _rule_for(self.instance, self.dvs).build(self.generators)

    def domain_filter(self):
        if self.dvs is not None:
            return self.dvs.contains
        return None

    def __str__(self) -> str:
        return "ideal[" + ", ".join(str(g) for g in self.generators) + "]"


def make_ideal(instance: Semiring, generators, dvs=None) -> FinGenIdeal:
    """Build an ideal; the instance's rule reduces its generator list."""
    return FinGenIdeal(instance, tuple(generators), dvs)


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


def ideal_subset(I: FinGenIdeal, J: FinGenIdeal) -> LawReport:
    """Exact for finitely generated ideals: test I's generators in J."""
    _require_same(I, J)
    law = "ideal-subset"
    for g in I.generators:
        if not J.contains(g):
            return law_counterexample(law, (g,), detail=f"{g} not in {J}")
    return law_holds(law)


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


def first_incomparable_pair(ideals, limit: int):
    """Compare the pairs i < j of the ideals in order, at most limit of them;
    return (i, j, report) for the first incomparable pair, or None."""
    pairs = combinations(enumerate(ideals), 2)
    for (i, I), (j, J) in islice(pairs, limit):
        report = ideals_comparable(I, J)
        if not report.holds:
            return i, j, report
    return None


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
    """The positive ideal {v > 0} of the nonnegative subsemiring."""

    valuation: Valuation

    @property
    def instance(self) -> Semiring:
        return self.valuation.source

    def contains(self, x: Element) -> bool:
        return in_positive_ideal(self.valuation, x)

    def domain_filter(self):
        v = self.valuation
        return lambda x: in_valuation_semiring(v, x)

    def __str__(self) -> str:
        return f"{{v > 0}} of {self.valuation.rule}"


def positive_ideal(v: Valuation) -> LevelIdeal:
    """The prime ideal of strictly positive values inside the nonnegative
    subsemiring."""
    return LevelIdeal(v)


# -- interval ideals of the fuzzy instance ---------------------------------------

@dataclass(frozen=True)
class IntervalIdeal:
    """An ideal [0, endpoint] (closed) or [0, endpoint) of the fuzzy
    instance; these are all of them, and they are totally ordered."""

    endpoint: Fraction
    closed: bool

    def __post_init__(self):
        # the fuzzy instance refuses an endpoint outside [0,1]
        object.__setattr__(self, "endpoint", self.instance._canon(self.endpoint))
        if self.endpoint == 0 and not self.closed:
            # [0,0) is empty, and an ideal contains 0
            raise ValueError("fuzzy[0,0) is empty, not an ideal")

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
        # [0,a) lies below [0,a], and both below every piece reaching past a
        return (self.endpoint, self.closed) <= (other.endpoint, other.closed)

    def __str__(self) -> str:
        return f"fuzzy[0,{self.endpoint}{']' if self.closed else ')'}"


def fuzzy_ideal_classify(description) -> IntervalIdeal:
    """Canonical interval form of an ideal described by finitely many
    elements (closed pieces) or (endpoint, closed) pairs.

    The union of downward-closed pieces is the piece with the largest
    (endpoint, closed) pair, so the supremum of the description decides.
    Pieces that are all the empty [0,0) generate the zero ideal [0,0].
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
    return IntervalIdeal(endpoint, closed or endpoint == 0)


def interval_comparable(A: IntervalIdeal, B: IntervalIdeal) -> bool:
    return A.subset_of(B) or B.subset_of(A)
