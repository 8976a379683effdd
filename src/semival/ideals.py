"""Finitely generated ideals, reduced and decided by one rule per carrier.

There is no generic decision procedure for semiring ideal membership.  Each
carrier with an exact one owns a rule ``(reduce, build)`` on payload tuples.
``reduce`` turns a generator list into a shorter one generating the same
ideal (zero alone for the zero ideal); every FinGenIdeal applies it on
construction, so sums, products and powers shrink at each step.  ``build``
turns the reduced list into the membership test on payloads, on the ideal's
first query.

  nat           drop multiples of smaller generators; x is a member iff it is
                a nonnegative integer combination: a memoised search first,
                the residue table once the memo would outgrow it, and a
                refusal where that table would pass a size budget (see
                _NatSemigroup)
  ideals-z      (g1),...,(gk) generate the multiples of their gcd: keep it
  bool-poly     X^s * g lies in (g): keep the least shift of each exponent
                shape, then drop each generator the others kept generate;
                addition is idempotent and degrees only grow, so x is a sum
                of shifted generators iff the union of all generator shifts
                contained in x equals x
  threshold     y is in (g) iff key(y) >= key(g): keep the first generator of
                least key.  Keys: the value (inf for the zero element) on
                tropical-nat; -x on fuzzy, whose ideals are intervals;
                is_zero on semifields, whose only ideals are zero and the
                whole carrier; v(x) on DVS carriers, whose nonzero ideals are
                uniformizer powers and which refuse generators of negative
                value as lying outside the carrier (each structure builds
                its rule once, see DVSStructure.ideal_rule)

Other instances drop duplicates and raise UnsupportedOperationError on the
first membership query.  An ideal keeps its reduced generators as payloads:
sums, products, powers, subset tests and content ideals never wrap them, and
elements appear only at the boundary (``generators``, witnesses, ``str``).
Subset of finitely generated ideals is exact via generator membership;
subtractivity and primality quantify over the carrier and stay sampled.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import combinations, islice
from typing import TYPE_CHECKING, Callable, NamedTuple

from .extended import _nonnegative, _raw_lt, _raw_min
from .instances import get_instance
from .reports import LawReport, SampleSpec, law_counterexample, law_holds
from .semiring import _TABLE_BUDGET, Element, Semiring, UnsupportedOperationError

# membership needs neither .sampling nor .valuation: the sampled checks
# import .sampling when they run, and LevelIdeal reads its valuation's rule
if TYPE_CHECKING:
    from .valuation import Valuation


@lru_cache(maxsize=2048)
def _nat_semigroup(gens: tuple[int, ...]) -> "_NatSemigroup":
    return _NatSemigroup(gens)


class _Outgrown(Exception):
    """A search whose memo would pass its limit."""


class _NatSemigroup:
    """Membership in {sum s_i * g_i : s_i >= 0} for fixed positive generators.

    After factoring out the gcd, let a be the least generator and k the
    number of generators.  A query that is a generator, or lies below a, is
    answered at once.  Any other first runs a congruence-pruned search over
    the multiplier ranges, largest generator first, with one memo shared by
    all queries (with two generators the search is one step and keeps none).
    The memo may hold at most min(a, _TABLE_BUDGET) entries; a is the size
    of the residue table that decides any query by one lookup.  A query that
    would pass that bound builds the table, drops the memo and reads its
    answer, and later queries read the table.  Where a is over the budget
    no table is built.  Each query then searches with a memo of its own, so
    whether it answers depends on the query alone, and one that would pass
    the budget is refused with a ValueError naming both numbers and drops
    its memo.  So a semigroup keeps at most min(a, _TABLE_BUDGET) memo
    entries and then a table entries, never both.  Both routes are exact.

    The table holds n[r], the least semigroup element congruent to r modulo
    a (Nijenhuis, Amer. Math. Monthly 86, 1979), so y is a member iff
    n[y mod a] <= y.  Boecker and Liptak's round robin (Algorithmica 48,
    2007) builds it whole in a*(k-1) steps, with no storage beside it.

    Cached semigroups are shared across threads.  The memo holds only exact
    answers, and a query's budget is the room left in it, so no query keeps
    state on the semigroup; threads searching at once can each add one entry
    past the limit.  One lock lets one thread build the table; the build
    first sets the limit to zero, so a search racing it stops at its next
    memo entry and waits for the table.
    """

    def __init__(self, gens: tuple[int, ...]):
        self.gcd = reduce(math.gcd, gens)
        self.desc = desc = tuple(sorted((g // self.gcd for g in gens), reverse=True))
        # level i takes multiples s of desc[i] and leaves the rest to the
        # smaller generators, whose gcd m must divide x - s*desc[i]: that
        # needs d | x % m, and then s runs over one class modulo m / d
        self.levels = []
        m = desc[-1]
        for g in desc[-2::-1]:
            d = math.gcd(g, m)
            self.levels.insert(0, (g, m, d, m // d, pow(g // d, -1, m // d)))
            m = d
        self.limit = min(desc[-1], _TABLE_BUDGET)  # most memo entries
        self.memo: dict = {}
        self.table = None
        self._lock = threading.Lock()

    def member(self, x: int) -> bool:
        if x == 0:
            return True
        if x % self.gcd:
            return False
        y = x // self.gcd
        table = self.table
        if table is None:
            if y in self.desc or y < self.desc[-1]:
                return y in self.desc
            a = self.desc[-1]
            if a > _TABLE_BUDGET:
                self.memo = {}  # the query's own: see the class docstring
            try:
                return self._search(y, 0)
            except _Outgrown:
                pass  # leave the handler first: its traceback holds the memo
            if a > _TABLE_BUDGET:
                self.memo = {}
                raise ValueError(
                    f"nat ideal membership: the search outgrew the budget of "
                    f"{_TABLE_BUDGET} entries, and the residue table would "
                    f"need {a}")
            table = self._build()
        return table[y % self.desc[-1]] <= y

    def _build(self) -> list:
        with self._lock:
            if self.table is None:
                # searches racing the build meet the zero limit and wait here
                self.limit, self.memo = 0, {}
                a = self.desc[-1]
                n = [math.inf] * a
                n[0] = 0
                for g in self.desc[:-1]:
                    # one pass along each cycle of r -> r + g, started at its
                    # least entry; the cycle of 0 starts at 0
                    d, step = math.gcd(a, g), g % a
                    for p in range(d):
                        q = min(range(p, a, d), key=n.__getitem__) if p else 0
                        best = n[q]
                        if best == math.inf:
                            continue
                        for _ in range(a // d - 1):
                            q += step
                            if q >= a:
                                q -= a
                            best += g
                            if n[q] < best:
                                best = n[q]
                            else:
                                n[q] = best
                self.table = n
            return self.table

    def _search(self, x: int, i: int) -> bool:
        if x == 0:
            return True
        levels = self.levels
        if i == len(levels):
            return x % self.desc[-1] == 0
        g, m, d, step, inverse = levels[i]
        r = x % m
        key = x * len(levels) + i  # an int key keeps the memo out of the gc
        memo = self.memo
        if i == len(levels) - 1:
            # the rest must be a multiple of m, the least generator: the least
            # multiple of g that leaves one decides
            result = r % d == 0 and inverse * (r // d) % step * g <= x
            if i == 0:
                return result  # two generators: no loop above it to bound
        else:
            cached = memo.get(key)
            if cached is not None:
                return cached
            result = x % g == 0
            if not result and r % d == 0:
                s = inverse * (r // d) % step
                while s * g <= x:
                    if self._search(x - s * g, i + 1):
                        result = True
                        break
                    s += step
        if len(memo) >= self.limit:
            raise _Outgrown
        memo[key] = result
        return result


def _nat_reduce(gens: tuple[int, ...]) -> tuple[int, ...]:
    kept: list = []
    for v in sorted({g for g in gens if g > 0}):
        for w in kept:
            if v % w == 0:
                break
        else:
            kept.append(v)
    return tuple(kept) or (0,)


def _nat_oracle(gens):
    if gens[0] == 0:
        return lambda p: p == 0
    return _nat_semigroup(tuple(gens)).member


def _gcd_reduce(gens: tuple[int, ...]) -> tuple[int, ...]:
    return (reduce(math.gcd, gens),)


def _ideals_z_oracle(gens):
    d = gens[0]
    return (lambda p: p % d == 0) if d else (lambda p: p == 0)


def _bool_poly_reduce(gens: tuple[frozenset, ...]) -> tuple[frozenset, ...]:
    # X^s * g lies in (g): per shape (the exponents less the least one) keep
    # the least shift, where the shape was first seen; zero only alone
    least: dict = {}
    for g in gens:
        if g:
            low = min(g)
            shape = frozenset(map(low.__rsub__, g))
            seen = least.get(shape)
            if seen is None or low < seen[0]:
                least[shape] = (low, g)
    # then drop, one at a time, each generator the others kept generate: the
    # shift of one of them that covers its least exponent starts there, so
    # that one's shape lies inside its own
    shapes = list(least)
    i = 0
    while i < len(shapes) > 1:
        shape = shapes[i]
        low, g = least[shape]
        others = shapes[:i] + shapes[i + 1:]
        for s in others:
            if s < shape and least[s][0] <= low:
                if _generated([(least[h][0], h) for h in others], g):
                    del least[shape], shapes[i]
                    i -= 1  # the next generator moved into place i
                break
        i += 1
    return tuple(g for _, g in least.values()) or (frozenset(),)


def _generated(shapes, x: frozenset) -> bool:
    """x is a sum of shifted generators, each given as (least exponent,
    exponents less the least one): a shift that fits inside x lines the
    least exponent up with an exponent of x."""
    covered: set = set()
    fits = x.issuperset
    for low, offsets in shapes:
        for e in x:
            if e >= low and fits(map(e.__add__, offsets)):
                covered.update(map(e.__add__, offsets))
    return covered == x


def _bool_poly_oracle(gens):
    shapes = []
    for g in gens:
        if g:
            low = min(g)
            shapes.append((low, [e - low for e in g]))
    return partial(_generated, shapes)


class _Rule(NamedTuple):
    reduce: Callable  # generator payloads -> fewer generating the same ideal
    build: Callable   # reduced generator payloads -> membership test on payloads


def _threshold(key, text=None) -> _Rule:
    """x is in (g1..gk) iff key(x) >= min key(gi), keys ordered as raw
    values (None is inf).  With text given, a generator keyed below 0 lies
    outside the carrier and text names it; one key per generator serves
    both."""
    def reduce_gens(gens):
        keys = [key(g) for g in gens]
        if text is not None:
            for g, k in zip(gens, keys):
                if _raw_lt(k, 0):
                    raise ValueError(f"{text(g)} lies outside the carrier")
        return (gens[keys.index(reduce(_raw_min, keys))],)

    def build(gens):
        least = key(gens[0])
        return lambda x: not _raw_lt(key(x), least)
    return _Rule(reduce_gens, build)


# sid -> rule; _rule_for covers DVS carriers, semifields and the rest
_RULES = {
    "nat": _Rule(_nat_reduce, _nat_oracle),
    "ideals-z": _Rule(_gcd_reduce, _ideals_z_oracle),
    "bool-poly": _Rule(_bool_poly_reduce, _bool_poly_oracle),
    "tropical-nat": _threshold(lambda p: p),
    "fuzzy": _threshold(lambda p: -p),
}


@lru_cache(maxsize=None)
def _instance_rule(instance: Semiring) -> _Rule:
    """The rule of an instance without an entry in _RULES: the zero test as
    the key on a semifield, else no membership oracle at all."""
    if instance.semifield:
        eq, zero = instance._eq, instance._zero()
        return _threshold(lambda p: eq(p, zero))

    def no_oracle(gens):
        raise UnsupportedOperationError(f"{instance.sid}: no ideal membership oracle")
    return _Rule(lambda gens: tuple(dict.fromkeys(gens)), no_oracle)


def _rule_for(instance: Semiring, dvs) -> _Rule:
    if dvs is not None:
        return dvs.ideal_rule
    return _RULES.get(instance.sid) or _instance_rule(instance)


class FinGenIdeal:
    """A nonempty tuple of canonical generator payloads over one instance,
    reduced by its rule on construction (make_ideal takes elements).  When
    ``dvs`` is set the ideal lives in the carrier of that discrete valuation
    structure and membership goes through the valuation.
    """

    def __init__(self, instance: Semiring, payloads: tuple, dvs=None):
        # dvs is a DVSStructure, kept untyped to avoid an import cycle
        if dvs is not None and dvs.ambient is not instance:
            raise ValueError(f"{dvs.name} is not a structure on {instance.sid}")
        if not payloads:
            raise ValueError("an ideal needs at least one generator")
        self.instance, self.dvs = instance, dvs
        self._rule = _rule_for(instance, dvs)
        self.payloads = self._rule.reduce(payloads)

    @cached_property
    def generators(self) -> tuple[Element, ...]:
        """The reduced generators as elements, built on first access."""
        instance = self.instance
        return tuple(Element(instance, p) for p in self.payloads)

    def is_zero(self) -> bool:
        eq, zero = self.instance._eq, self.instance._zero()
        return all(eq(p, zero) for p in self.payloads)

    def contains(self, x: Element) -> bool:
        self.instance._claim(x)
        return self._member(x.payload)

    @cached_property
    def _member(self) -> Callable[[object], bool]:
        """The membership test on payloads, built on the first query."""
        return self._rule.build(self.payloads)

    def domain_filter(self):
        """The carrier test on payloads; None for the whole instance."""
        return self.dvs.in_carrier if self.dvs is not None else None

    def __str__(self) -> str:
        return "ideal[" + ", ".join(map(self.instance._text, self.payloads)) + "]"

    def __repr__(self) -> str:
        return f"FinGenIdeal({self.instance.sid}, {self})"


def make_ideal(instance: Semiring, generators, dvs=None) -> FinGenIdeal:
    """Build an ideal from elements; the instance's rule reduces them."""
    generators = tuple(generators)
    for g in generators:
        instance._claim(g)
    return FinGenIdeal(instance, tuple(g.payload for g in generators), dvs)


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
    return FinGenIdeal(I.instance, I.payloads + J.payloads, I.dvs)


def ideal_product(I: FinGenIdeal, J: FinGenIdeal) -> FinGenIdeal:
    _require_same(I, J)
    mul = I.instance._mul
    return FinGenIdeal(I.instance, tuple(mul(a, b) for a in I.payloads
                                         for b in J.payloads), I.dvs)


def ideal_power(I: FinGenIdeal, n: int) -> FinGenIdeal:
    if n < 0:
        raise ValueError("ideal powers need n >= 0")
    result = FinGenIdeal(I.instance, (I.instance._one(),), I.dvs)
    for _ in range(n):
        result = ideal_product(result, I)
    return result


def ideal_subset(I: FinGenIdeal, J: FinGenIdeal) -> LawReport:
    """Exact for finitely generated ideals: test I's generators in J."""
    _require_same(I, J)
    law = "ideal-subset"
    member = J._member
    for g in I.payloads:
        if not member(g):
            x = Element(I.instance, g)
            return law_counterexample(law, (x,), detail=f"{x} not in {J}")
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
    from .sampling import first_counterexample, pair_stream

    instance = ideal.instance
    member, add = ideal._member, instance._add

    def test(a, b):
        if member(a) and member(add(a, b)) and not member(b):
            return 2, "a and a+b inside, b outside"

    return first_counterexample(f"subtractive[{instance.sid}]", instance, pair_stream(
        instance, spec, keep=ideal.domain_filter(), salt="subtractive"), test, spec)


def is_prime_bounded(ideal, spec: SampleSpec) -> LawReport:
    """Sampled search for a product inside a proper ideal with both factors
    outside."""
    from .sampling import first_counterexample, pair_stream

    instance = ideal.instance
    member, mul = ideal._member, instance._mul
    if member(instance._one()):
        raise ValueError("primality is only defined for proper ideals")

    def test(a, b):
        if member(mul(a, b)) and not member(a) and not member(b):
            return 2, "a*b inside, neither factor inside"

    return first_counterexample(f"prime[{instance.sid}]", instance, pair_stream(
        instance, spec, keep=ideal.domain_filter(), salt="prime"), test, spec)


# -- level-set ideals -----------------------------------------------------------

@dataclass(frozen=True)
class LevelIdeal:
    """The positive ideal {v > 0} of the nonnegative subsemiring."""

    valuation: Valuation

    @property
    def instance(self) -> Semiring:
        return self.valuation.source

    def contains(self, x: Element) -> bool:
        self.instance._claim(x)
        return self._member(x.payload)

    def _member(self, p) -> bool:
        r = self.valuation.payload_fn(p)
        return r is None or r > 0

    def domain_filter(self):
        raw = self.valuation.payload_fn
        return lambda p: _nonnegative(raw(p))

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
        return self._member(x.payload)

    def _member(self, p) -> bool:
        return p <= self.endpoint if self.closed else p < self.endpoint

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
