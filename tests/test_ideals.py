import heapq
import json
import math
import operator
import random
import sys
import threading
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import semival.ideals as ideals
from semival.ideals import (
    FinGenIdeal,
    IntervalIdeal,
    _bool_poly_oracle,
    _nat_oracle,
    _nat_reduce,
    _nat_semigroup,
    _NatSemigroup,
    fuzzy_ideal_classify,
    ideal_member,
    ideal_power,
    ideal_product,
    ideal_subset,
    ideal_sum,
    ideals_comparable,
    interval_comparable,
    is_prime_bounded,
    is_subtractive_bounded,
    make_ideal,
    positive_ideal,
)
from semival.instances import get_instance
from semival.reports import SampleSpec
from semival.sampling import stream
from semival.semiring import UnsupportedOperationError
from semival.valuation import get_valuation, valuate

SPEC = SampleSpec(1, 500, 20)


# -- nat membership oracle -------------------------------------------------------

def brute_nat_member(x, gens):
    # reachable sums up to x, breadth first
    gens = [g for g in gens if 0 < g <= x]
    reach = [False] * (x + 1)
    reach[0] = True
    stack = [0]
    while stack:
        s = stack.pop()
        for g in gens:
            t = s + g
            if t <= x and not reach[t]:
                reach[t] = True
                stack.append(t)
    return reach[x]


def test_nat_membership_examples():
    nat = get_instance("nat")
    I = make_ideal(nat, [nat.element(2), nat.element(3)])
    assert not ideal_member(I, nat.element(1))
    assert ideal_member(I, nat.element(5))
    assert ideal_member(I, nat.zero)
    for g in I.generators:
        assert ideal_member(I, g)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=300),
       st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=4))
def test_nat_oracle_matches_brute_force(x, gens):
    # through the nat rule: reduced generators, then the predicate
    nat = get_instance("nat")
    I = make_ideal(nat, [nat.element(g) for g in gens])
    assert I.contains(nat.element(x)) == brute_nat_member(x, gens)


def test_nat_oracle_large_generators():
    # same-scale generators near 47^5: the search answers these three long
    # before its memo nears a, so no table of a entries is built; both lists
    # are already reduced (ascending, none a multiple of another)
    member = _nat_oracle([47 ** 5, 47 ** 4 * 49, 47 ** 3 * 49 ** 2, 49 ** 5])
    assert member(47 ** 5 + 49 ** 5)
    assert member(0)
    assert not member(47 ** 5 + 1)
    # mixed scales: the search answers these three, and more queries outgrow
    # its memo of six entries and read the residue table
    gens = (6, 10, 47 ** 4)
    member = _nat_oracle(list(gens))
    assert not member(15)  # odd, below the huge odd generator
    assert member(47 ** 4 + 3)  # even and large, so reachable
    assert member(47 ** 4 + 16)
    assert _nat_semigroup(gens).table is None
    eager = _eager_member(gens)
    for x in range(47 ** 4 - 40, 47 ** 4 + 40):
        assert member(x) == eager(x), x
    assert _nat_semigroup(gens).table is not None


def test_nat_search_starts_each_level_in_its_congruence_class():
    # 110 and 170 have gcd 10, which 254 shares only in 2: the search's
    # middle level takes multiples s of 254 in one class modulo 10 / 2,
    # started from (x mod 10) / 2; as 2 * 2 is not 1 modulo 5, a start from
    # (x mod 10) * 2 falls in the wrong class.  A fresh semigroup per query
    # answers each by the search, never the residue table; brute-force
    # reachable sums check every answer up to past the largest non-member
    gens, top = (110, 170, 254, 301), 2700
    reach = [True] + [False] * top
    for t in range(1, top + 1):
        reach[t] = any(t >= g and reach[t - g] for g in gens)
    # a run of 110 members, the least generator: every larger x is one too
    assert all(reach[top - 110:]) and not reach[2577]
    for x in range(top + 1):
        semigroup = _NatSemigroup(gens)
        assert semigroup.member(x) == reach[x], x
        assert semigroup.table is None


def _eager_residue_table(gens):
    # the whole table, filled before the first query: dist[r] is the least
    # semigroup element congruent to r modulo gens[0]
    a = gens[0]
    dist = [None] * a
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None and d > dist[r]:
            continue
        for g in gens[1:]:
            nr, nd = (r + g) % a, d + g
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


def _eager_member(gens):
    d = math.gcd(*gens)
    scaled = sorted(g // d for g in gens)
    table = _eager_residue_table(scaled)

    def member(x):
        least = table[(x // d) % scaled[0]]
        return x % d == 0 and least is not None and least <= x // d
    return member


class _WatchedMemo(dict):
    """A search memo that records the most entries it ever held."""

    most = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.most = max(self.most, len(self))


def _watched(gens):
    semigroup = _NatSemigroup(gens)
    semigroup.memo = _WatchedMemo()
    return semigroup, semigroup.memo


@pytest.mark.parametrize("seed", range(8))
def test_lazy_residue_table_matches_the_eager_one(seed):
    # the search answers three spread generators; six or so close ones
    # outgrow it and build the table; both routes give the eager table's
    # answers below and above the Frobenius number, in any query order
    rng = random.Random(f"lazy-table:{seed}")
    for lo, hi, k_min, k_max, falls_back in ((3000, 9000, 3, 3, False),
                                             (20, 300, 5, 8, True)):
        scale = rng.choice((1, 1, 3))
        gens = tuple(sorted(scale * g for g in rng.sample(range(lo, hi),
                                                          rng.randint(k_min, k_max))))
        d = math.gcd(*gens)
        scaled = tuple(sorted(g // d for g in gens))
        eager = _eager_residue_table(scaled)
        frobenius = (max(eager) - scaled[0]) * d
        queries = [rng.randint(0, frobenius + 50 * d) for _ in range(60)]
        queries += [frobenius, frobenius + d, 5 * frobenius]
        member = _eager_member(gens)
        assert not member(frobenius) and member(frobenius + d)
        for order in (sorted(queries), sorted(queries, reverse=True), queries + queries):
            semigroup, memo = _watched(gens)
            for x in order:
                assert semigroup.member(x) == member(x), (gens, x)
            assert memo.most <= scaled[0]
            assert (semigroup.table is not None) == falls_back, gens
        if falls_back:
            assert semigroup.table == eager and not semigroup.memo


def test_the_search_memo_keeps_at_most_a_entries():
    # thirteen close generators: the memo, shared by all queries, stops at
    # the least generator's 27 entries; the query that would pass that
    # builds the table and drops the memo, and answers stay exact
    gens = (27, 30, 33, 34, 35, 37, 51, 68, 76, 85, 94, 96, 101)
    member, (semigroup, memo) = _eager_member(gens), _watched(gens)
    for x in range(0, 8 * 27, 3):
        assert semigroup.member(x) == member(x), x
    assert memo.most == 27
    assert semigroup.table == _eager_residue_table(gens)
    assert semigroup.memo == {}


def test_the_frobenius_number_of_four_close_large_generators_answers_quickly():
    # the largest non-member: a search without the memo bound takes about
    # 10 s and 670 MB here; the bounded one gives up at a entries and reads
    # the table
    gens = (100003, 100019, 100043, 100057)
    semigroup, memo = _watched(gens)
    assert not semigroup.member(371011316)
    assert memo.most <= gens[0]
    assert semigroup.table is not None and semigroup.memo == {}
    assert max(semigroup.table) - gens[0] == 371011316
    assert semigroup.member(371011317)


def test_the_frobenius_number_of_generators_above_200000_builds_the_table():
    # the memo bound is a at every size: the search gives up after at most a
    # entries and the table of a entries answers
    gens = (200003, 200009, 200017, 200023)
    semigroup, memo = _watched(gens)
    assert not semigroup.member(4000660031)
    assert memo.most <= gens[0]
    assert semigroup.table is not None and semigroup.memo == {}
    assert max(semigroup.table) - gens[0] == 4000660031
    assert semigroup.member(4000660032)


def test_the_search_memo_stops_at_the_table_budget(monkeypatch):
    # a budget of 64 entries under a least generator of 30011: a query that
    # would pass it is refused by name, builds no table and leaves the memo
    # empty; each query searches with a memo of its own, so one answered
    # alone is answered after any other
    monkeypatch.setattr(ideals, "_TABLE_BUDGET", 64)
    gens = (30011, 40009, 50021)
    member = _eager_member(gens)
    semigroup = _NatSemigroup(gens)
    with pytest.raises(ValueError) as refused:
        semigroup.member(10000003)
    assert str(refused.value) == ("nat ideal membership: the search outgrew the "
                                  "budget of 64 entries, and the residue table "
                                  "would need 30011")
    assert semigroup.table is None and semigroup.memo == {}
    answered, most = 0, 0
    for x in [70020, 360140, 123456789, *range(3000000, 3000400)]:
        try:
            answer = _NatSemigroup(gens).member(x)
        except ValueError:
            continue
        assert semigroup.member(x) == answer == member(x), x
        answered, most = answered + 1, max(most, len(semigroup.memo))
    assert answered == 403 and 48 < most <= 64
    assert semigroup.table is None


def test_the_table_budget_bounds_the_memo_only_above_it():
    assert _NatSemigroup((229345007, 229345009)).limit == ideals._TABLE_BUDGET == 1 << 20
    assert _NatSemigroup((200003, 200009)).limit == 200003


def test_nat_reduce_keeps_the_generators_no_smaller_one_divides():
    def reference(gens):
        kept = []
        for v in sorted({g for g in gens if g > 0}):
            if not any(v % w == 0 for w in kept):
                kept.append(v)
        return tuple(kept) or (0,)

    rng = random.Random("nat-reduce")
    for _ in range(500):
        gens = tuple(rng.randint(0, 1600) for _ in range(rng.randint(1, 60)))
        assert _nat_reduce(gens) == reference(gens), gens
    assert _nat_reduce((0, 0)) == (0,)


def test_criterion_10_brute_force_oracle_matches_the_residue_table():
    # the suite re-verifies criterion 10's witness with this oracle; its
    # search loop must agree with the table on every x, not just those
    # its generator filter decides
    from semival.suite import _brute_nat_member

    rng = random.Random("brute-nat-oracle")
    for _ in range(40):
        gens = rng.sample(range(1, 40), rng.randint(1, 4))
        member = _eager_member(gens)
        for x in range(0, 200):
            assert _brute_nat_member(x, gens) == member(x), (gens, x)


def test_threads_share_one_lazily_filled_table():
    # eight threads query one cached semigroup in different orders: they
    # share its memo until it outgrows a and one of them builds the table;
    # each answer is the eager one
    gens = (30011, 40009, 50021)
    rng = random.Random("lazy-table:threads")
    eager = _eager_residue_table(gens)
    queries = [rng.randint(0, 2 * max(eager)) for _ in range(300)] + [2 * max(eager)]
    member = _eager_member(gens)
    expected = {x: member(x) for x in queries}
    orders = [sorted(queries), sorted(queries, reverse=True)]
    orders += [rng.sample(queries, len(queries)) for _ in range(6)]

    def ask(semigroup, start, order, answers):
        start.wait()
        answers.append({x: semigroup.member(x) for x in order})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(3):
            _nat_semigroup.cache_clear()
            semigroup, answers = _nat_semigroup(gens), []
            start = threading.Barrier(len(orders), timeout=60)
            threads = [threading.Thread(target=ask, args=(semigroup, start, order, answers))
                       for order in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert _nat_semigroup(gens) is semigroup
            assert answers == [expected] * 8
            assert semigroup.table == eager and semigroup.memo == {}
    finally:
        sys.setswitchinterval(interval)


# -- bool-poly membership --------------------------------------------------------

def brute_bool_member(x, gens):
    if not x:
        return True
    gens = [g for g in gens if g]
    if not gens:
        return False
    top = max(x)
    options = []
    for g in gens:
        shifts = [e for e in range(0, top - max(g) + 1)]
        subsets = []
        for mask in range(2 ** len(shifts)):
            chosen = [shifts[i] for i in range(len(shifts)) if mask >> i & 1]
            subsets.append(chosen)
        options.append(subsets)
    for combo in product(*options):
        acc = set()
        for g, shifts in zip(gens, combo):
            for e in shifts:
                acc |= {v + e for v in g}
        if acc == set(x):
            return True
    return False


def _bool_poly_member(x, gens):
    return _bool_poly_oracle(gens)(x)


@settings(max_examples=150, deadline=None)
@given(st.frozensets(st.integers(min_value=0, max_value=5), max_size=4),
       st.lists(st.frozensets(st.integers(min_value=0, max_value=3),
                              min_size=1, max_size=3),
                min_size=1, max_size=2))
def test_bool_poly_oracle_matches_brute_force(x, gens):
    assert _bool_poly_member(x, gens) == brute_bool_member(x, gens)


@settings(max_examples=150, deadline=None)
@given(st.frozensets(st.integers(min_value=0, max_value=6), max_size=5),
       st.lists(st.tuples(st.frozensets(st.integers(min_value=0, max_value=3),
                                        max_size=3),
                          st.integers(min_value=0, max_value=3)),
                min_size=1, max_size=4))
def test_bool_poly_shape_pass_keeps_membership(x, shifted):
    # generators sharing a shape are shifts of each other; the reduced list
    # decides membership as the full list does
    gens = [frozenset(e + s for e in g) for g, s in shifted]
    bp = get_instance("bool-poly")
    I = make_ideal(bp, [bp.element(g) for g in gens])
    shapes = [frozenset(e - min(g) for e in g) for g in I.payloads if g]
    assert len(shapes) == len(set(shapes))
    assert I.contains(bp.element(x)) == brute_bool_member(x, gens)
    # and no kept generator lies in the ideal of the others
    for i, g in enumerate(I.payloads):
        assert not g or not _bool_poly_member(g, I.payloads[:i] + I.payloads[i + 1:])


def test_bool_poly_powers_keep_one_generator_per_shape():
    from semival.grammar import parse_ideal
    bp = get_instance("bool-poly")
    I = parse_ideal("ideal[1+X, X^2+X^3, 1+X^4]", bp)
    assert str(I) == "ideal[1 + X, 1 + X^4]"
    # (1+X)^a (1+X^4)^b with a + b = 6 gives 7 shapes; the three with
    # a = 3, 4, 5 are consecutive runs X^0..X^(a+4(6-a)), which (1+X)^6
    # times a run generates, so 4 generators stay
    assert len(ideal_power(I, 6).generators) == 4
    assert str(ideal_power(I, 6)).startswith("ideal[1 + X + X^2 + X^3 + X^4 + X^5 + X^6, ")
    # the least shift takes the place where its shape was first seen
    J = make_ideal(bp, [bp.element({2}), bp.element({0, 1})])
    assert str(ideal_sum(make_ideal(bp, [bp.element({4})]), J)) == "ideal[X^2, 1 + X]"


def test_bool_poly_drops_a_generator_the_others_generate():
    # 1 + X + X^2 = (1 + X) + X(1 + X) lies in (1 + X), in either order
    from semival.grammar import parse_ideal
    bp = get_instance("bool-poly")
    for text in ("ideal[1+X, 1+X+X^2]", "ideal[1+X+X^2, 1+X]"):
        assert str(parse_ideal(text, bp)) == "ideal[1 + X]"
    # neither of X and 1 + X generates the other
    assert str(parse_ideal("ideal[X, 1+X]", bp)) == "ideal[X, 1 + X]"


def test_bool_poly_oracle_cost_follows_terms_not_degree(capsys):
    # only shifts lining a generator's least exponent up with an exponent of
    # x can fit, so a huge degree with few terms answers at once
    from semival.cli import main
    t0 = time.monotonic()
    code = main(["ideal", "--semiring", "bool-poly", "--op", "contains",
                 "--output", "json", "ideal[X]", "X^100000000"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"] == "true"
    bp = get_instance("bool-poly")
    I = make_ideal(bp, [bp.element({0, 2})])
    assert ideal_member(I, bp.element({10 ** 8, 10 ** 8 + 2}))
    assert not ideal_member(I, bp.element({10 ** 8, 10 ** 8 + 1}))
    assert time.monotonic() - t0 < 5


def test_bool_poly_incomparable_pair():
    bp = get_instance("bool-poly")
    x = bp.indeterminate()
    x1 = bp.add(x, bp.one)
    I, J = make_ideal(bp, [x]), make_ideal(bp, [x1])
    assert not ideal_member(J, x)
    assert not ideal_member(I, x1)
    report = ideals_comparable(I, J, SPEC)
    assert not report.holds
    assert len(report.witness) == 2


# -- ideals-z and sums/products --------------------------------------------------

def test_ideals_z_sum_normalises_by_gcd():
    idz = get_instance("ideals-z")
    I = make_ideal(idz, [idz.element(4)])
    J = make_ideal(idz, [idz.element(6)])
    assert [g.payload for g in ideal_sum(I, J).generators] == [2]
    assert [g.payload for g in ideal_product(I, J).generators] == [24]
    K = make_ideal(idz, [idz.element(5)])
    assert is_prime_bounded(K, SPEC).holds
    assert ideal_member(K, idz.element(35))
    assert not ideal_member(K, idz.element(6))


def test_directly_built_ideal_is_reduced():
    # make_ideal hands the payloads to the constructor, which runs the rule
    idz = get_instance("ideals-z")
    I = make_ideal(idz, (idz.element(4), idz.element(6)))
    assert [g.payload for g in I.generators] == [2]
    assert I.contains(idz.element(2))
    assert not I.contains(idz.element(3))
    nat = get_instance("nat")
    J = make_ideal(nat, (nat.element(6), nat.zero, nat.element(4), nat.element(8)))
    assert [g.payload for g in J.generators] == [4, 6]


def test_an_ideal_needs_a_generator():
    for sid in ("nat", "qnn", "poly(nat)"):
        with pytest.raises(ValueError, match="^an ideal needs at least one generator$"):
            FinGenIdeal(get_instance(sid), ())
        with pytest.raises(ValueError, match="^an ideal needs at least one generator$"):
            make_ideal(get_instance(sid), [])


def test_ideals_z_two_generators_collapse_to_their_sum():
    # the ideal generated by a pair equals the principal ideal of their
    # semiring sum (the gcd), by mutual generator membership
    from semival.ideals import ideal_equal, principal
    idz = get_instance("ideals-z")
    for a, b in ((4, 6), (9, 30), (7, 5), (0, 8), (12, 18)):
        pair = make_ideal(idz, [idz.element(a), idz.element(b)])
        summed = principal(idz, idz.add(idz.element(a), idz.element(b)))
        assert ideal_equal(pair, summed), (a, b)


def test_ideals_z_elements_factor_into_primes():
    # nonzero nonunits factor into prime generators, and each generating
    # prime passes the sampled primality search
    idz = get_instance("ideals-z")
    small = SampleSpec(1, 200, 20)
    for n in (6, 50, 98, 97):
        factors = []
        rest = n
        p = 2
        while p * p <= rest:
            while rest % p == 0:
                factors.append(p)
                rest //= p
            p += 1
        if rest > 1:
            factors.append(rest)
        product_elem = idz.one
        for f in factors:
            assert is_prime_bounded(make_ideal(idz, [idz.element(f)]), small).holds
            product_elem = idz.mul(product_elem, idz.element(f))
        assert product_elem == idz.element(n)


def test_nat_sum_and_product():
    nat = get_instance("nat")
    two, three = nat.element(2), nat.element(3)
    assert sorted(g.payload for g in
                  ideal_sum(make_ideal(nat, [two]), make_ideal(nat, [three])).generators) == [2, 3]
    prod = ideal_product(make_ideal(nat, [two]), make_ideal(nat, [three]))
    assert [g.payload for g in prod.generators] == [6]


def test_bool_poly_sum_keeps_both_generators():
    bp = get_instance("bool-poly")
    x = bp.indeterminate()
    x1 = bp.add(x, bp.one)
    union = ideal_sum(make_ideal(bp, [x]), make_ideal(bp, [x1]))
    assert len(union.generators) == 2
    assert ideal_member(union, x) and ideal_member(union, x1)


def test_subset_is_exact_for_generated_ideals():
    nat = get_instance("nat")
    I = make_ideal(nat, [nat.element(4), nat.element(6)])
    J = make_ideal(nat, [nat.element(2)])
    assert ideal_subset(I, J).holds
    assert not ideal_subset(J, I).holds
    assert ideals_comparable(I, J, SPEC).holds


def test_prime_and_subtractive_searches():
    nat = get_instance("nat")
    four = make_ideal(nat, [nat.element(4)])
    report = is_prime_bounded(four, SPEC)
    assert not report.holds
    a, b = report.witness
    assert ideal_member(four, nat.mul(a, b))
    assert not ideal_member(four, a) and not ideal_member(four, b)
    # (2,3) is not subtractive: 2 and 2+1=3 inside, 1 outside
    I = make_ideal(nat, [nat.element(2), nat.element(3)])
    report = is_subtractive_bounded(I, SPEC)
    assert not report.holds
    # the zero ideal of an entire instance is subtractive
    zero_ideal = make_ideal(nat, [nat.zero])
    assert is_subtractive_bounded(zero_ideal, SPEC).holds
    with pytest.raises(ValueError):
        is_prime_bounded(make_ideal(nat, [nat.one]), SPEC)


def test_positive_ideal_is_prime_for_registered_rules():
    from semival.valuation import REGISTERED_VALUATIONS
    small = SampleSpec(1, 200, 12)
    for rule, sid in REGISTERED_VALUATIONS:
        v = get_valuation(rule, get_instance(sid))
        report = is_prime_bounded(positive_ideal(v), small)
        assert report.holds, f"{rule}@{sid}: {report}"


def test_positive_ideal_holds_the_positive_values():
    for rule, sid in (("vp:5", "qnn"), ("trivial", "qnn"),
                      ("deg-frac", "fractions(poly(nat))")):
        inst = get_instance(sid)
        v = get_valuation(rule, inst)
        P = positive_ideal(v)
        assert str(P) == f"{{v > 0}} of {rule}"
        for x in map(inst.element, stream(inst, SPEC, salt="positive")):
            assert P.contains(x) == (valuate(v, x) > v.zero_value), (rule, str(x))


def test_positive_ideal_subtractive_matches_min_property_sign():
    qnn = get_instance("qnn")
    v = get_valuation("vp:5", qnn)
    assert is_subtractive_bounded(positive_ideal(v), SPEC).holds
    frs = get_instance("fractions(poly(nat))")
    vd = get_valuation("deg-frac", frs)
    report = is_subtractive_bounded(positive_ideal(vd), SPEC)
    assert not report.holds
    a, b = report.witness
    P = positive_ideal(vd)
    assert P.contains(a) and P.contains(frs.add(a, b)) and not P.contains(b)


# -- fuzzy interval ideals -------------------------------------------------------

def test_fuzzy_classification_examples():
    fuzzy = get_instance("fuzzy")
    A = fuzzy_ideal_classify([fuzzy.element(Fraction(1, 3)),
                              fuzzy.element(Fraction(1, 2))])
    assert A == IntervalIdeal(Fraction(1, 2), True)
    whole = fuzzy_ideal_classify([fuzzy.element(1)])
    assert whole.contains(fuzzy.element(1))
    half_open = IntervalIdeal(Fraction(1, 2), False)
    half_closed = IntervalIdeal(Fraction(1, 2), True)
    assert half_open.subset_of(half_closed)
    assert not half_closed.subset_of(half_open)
    assert interval_comparable(half_open, half_closed)
    assert not half_open.contains(fuzzy.element(Fraction(1, 2)))
    assert half_closed.contains(fuzzy.element(Fraction(1, 2)))


def test_fuzzy_generated_ideal_membership_matches_interval():
    fuzzy = get_instance("fuzzy")
    gens = [fuzzy.element(Fraction(1, 3)), fuzzy.element(Fraction(2, 3))]
    I = make_ideal(fuzzy, gens)
    A = fuzzy_ideal_classify(gens)
    for k in range(0, 13):
        x = fuzzy.element(Fraction(k, 12))
        assert ideal_member(I, x) == A.contains(x)
    assert is_subtractive_bounded(I, SPEC).holds


def test_empty_pieces_generate_the_zero_interval():
    fuzzy = get_instance("fuzzy")
    zero = fuzzy_ideal_classify([(0, False)])
    assert zero == IntervalIdeal(Fraction(0), True) and zero.contains(fuzzy.zero)
    with pytest.raises(ValueError, match=r"^fuzzy\[0,0\) is empty, not an ideal$"):
        IntervalIdeal(Fraction(0), False)
    half = fuzzy_ideal_classify([(0, False), (Fraction(1, 2), False)])
    assert half == IntervalIdeal(Fraction(1, 2), False)
    assert str(half) == "fuzzy[0,1/2)"


def test_interval_endpoints_lie_in_the_unit_interval():
    for endpoint in (Fraction(-1, 2), Fraction(3)):
        for closed in (False, True):
            with pytest.raises(ValueError, match=r"rational in \[0,1\]"):
                IntervalIdeal(endpoint, closed)
    fuzzy = get_instance("fuzzy")
    for endpoint in (Fraction(1, 2), Fraction(1)):
        for closed in (False, True):
            assert IntervalIdeal(endpoint, closed).contains(fuzzy.zero)
    assert str(IntervalIdeal(Fraction(0), True)) == "fuzzy[0,0]"


def test_interval_ideals_totally_ordered():
    # [0,0) is no ideal, so it is no candidate
    candidates = [IntervalIdeal(Fraction(n, 6), closed)
                  for n in range(7) for closed in (False, True) if n or closed]
    for A in candidates:
        for B in candidates:
            assert interval_comparable(A, B)


def _non_generated_pairs():
    fuzzy, qnn = get_instance("fuzzy"), get_instance("qnn")
    interval = fuzzy_ideal_classify([(Fraction(1, 2), True)])
    level = positive_ideal(get_valuation("vp:5", qnn))
    return [("IntervalIdeal", interval, make_ideal(fuzzy, [fuzzy.element(Fraction(1, 3))])),
            ("LevelIdeal", level, make_ideal(qnn, [qnn.element(5)]))]


@pytest.mark.parametrize("op", [ideal_sum, ideal_subset, ideals_comparable])
def test_ideal_operations_reject_ideals_without_generators(op):
    for name, other, generated in _non_generated_pairs():
        for I, J in ((other, generated), (generated, other)):
            with pytest.raises(UnsupportedOperationError) as err:
                op(I, J)
            message = str(err.value)
            assert message.startswith(f"{name} is not a finitely generated ideal")
            assert ("interval_comparable" in message) == (name == "IntervalIdeal")


# -- semifield oracle ------------------------------------------------------------

def test_semifield_ideals_are_trivial():
    qnn = get_instance("qnn")
    I = make_ideal(qnn, [qnn.element(Fraction(3, 7))])
    assert ideal_member(I, qnn.element(10))
    Z = make_ideal(qnn, [qnn.zero])
    assert not ideal_member(Z, qnn.one)
    assert ideal_member(Z, qnn.zero)


def test_no_oracle_instance_raises():
    poly = get_instance("poly(nat)")
    I = make_ideal(poly, (poly.indeterminate(),))
    from semival.semiring import UnsupportedOperationError
    with pytest.raises(UnsupportedOperationError):
        ideal_member(I, poly.one)


def test_zero_and_generators_belong_to_every_ideal():
    import random
    for sid in ("nat", "bool-poly", "ideals-z", "fuzzy", "tropical-nat", "qnn"):
        inst = get_instance(sid)
        rng = random.Random(f"members:{sid}")
        for _ in range(25):
            gens = [inst.sample(rng, 10) for _ in range(rng.randint(1, 3))]
            I = make_ideal(inst, gens)
            assert ideal_member(I, inst.zero), sid
            for g in gens:
                assert ideal_member(I, g), (sid, str(g))


def test_no_oracle_ideals_build_and_combine_until_queried():
    # the missing oracle surfaces at the first membership query, and again at
    # every later one; building, sums and products never need it
    poly = get_instance("poly(nat)")
    x = poly.indeterminate()
    I = make_ideal(poly, [x, poly.one])
    J = ideal_product(ideal_sum(I, I), I)
    assert len(J.generators) == 3
    for _ in range(2):
        with pytest.raises(UnsupportedOperationError):
            J.contains(x)


def test_membership_predicate_is_built_once_per_ideal(monkeypatch):
    # the rule builds from the reduced generator payloads, once
    from semival import ideals
    builds = []
    real = ideals._RULES["nat"]

    def counting(gens):
        builds.append(gens)
        return real.build(gens)

    monkeypatch.setitem(ideals._RULES, "nat", real._replace(build=counting))
    nat = get_instance("nat")
    I = make_ideal(nat, [nat.element(4), nat.element(6), nat.element(8)])
    assert builds == []
    assert [k for k in range(12) if I.contains(nat.element(k))] == [0, 4, 6, 8, 10]
    assert ideal_subset(make_ideal(nat, [nat.element(10)]), I).holds
    assert builds == [(4, 6)]  # built once, from the reduced generators


# -- every oracle against an independent reference --------------------------------
#
# Each reference decides x in (g1..gk) from the definition, as a search for
# multipliers r_i with x = r_1 g_1 + ... + r_k g_k, or by exhibiting one.

def ref_nat(x, gens):
    return brute_nat_member(x.payload, [g.payload for g in gens])


def ref_bool_poly(x, gens):
    # a sum of shifted generators is their union: take every shift fitting in x
    x = x.payload
    shifts = [{e + k for e in g.payload}
              for g in gens for k in range(max(x, default=0) + 1)]
    return set().union(*(s for s in shifts if s <= x)) == x


def sums_of_multiples(gens, multipliers, add, mul, zero):
    # every r_1 g_1 + ... + r_k g_k with r_i from the multipliers, folding in
    # one generator at a time so that long generator lists stay cheap
    sums = {zero}
    for g in gens:
        sums = {add(s, mul(r, g.payload)) for s in sums for r in multipliers}
    return sums


def ref_ideals_z(x, gens):
    # sums are gcds; x = m * gcd takes r_i = m <= x
    x = x.payload
    return x in sums_of_multiples(gens, range(x + 1), math.gcd, operator.mul, 0)


def ref_fuzzy(x, gens):
    # sums are max and products min; every r_i can be taken from {0, x}
    x = x.payload
    return x in sums_of_multiples(gens, (Fraction(0), x), max, min, Fraction(0))


def ref_tropical_nat(x, gens):
    # sums are min and products +, with inf (None) as the zero
    x = x.payload

    def add(a, b):
        return b if a is None else a if b is None else min(a, b)

    def mul(a, b):
        return None if a is None or b is None else a + b

    options = (None,) + tuple(range((x or 0) + 1))
    return x in sums_of_multiples(gens, options, add, mul, None)


def ref_semifield(x, gens):
    # a nonzero generator is a unit, so it generates everything
    return x.is_zero() or any(not g.is_zero() for g in gens)


def ref_dvs(D):
    # x = (x / g) * g, with x / g in the carrier
    def ref(x, gens):
        return x.is_zero() or any(not g.is_zero() and D.contains(D.ambient.div(x, g))
                                  for g in gens)
    return ref


ORACLE_CARRIERS = {
    "nat": ref_nat, "bool-poly": ref_bool_poly, "ideals-z": ref_ideals_z,
    "fuzzy": ref_fuzzy, "tropical-nat": ref_tropical_nat, "qnn": ref_semifield,
}


@pytest.mark.parametrize("carrier", list(ORACLE_CARRIERS) + [
    "qnn at 5", "tropical naturals", "degree-bounded fractions",
    "integer ideals at (5)"])
def test_oracle_agrees_with_reference(carrier):
    from semival.dvs import standard_dvs_structures
    spec = SampleSpec(3, 40, 10)
    if carrier in ORACLE_CARRIERS:
        D, inst, ref = None, get_instance(carrier), ORACLE_CARRIERS[carrier]
        pool = [inst.element(p) for p in stream(inst, spec, salt="oracle-reference")]
    else:
        D = next(D for D in standard_dvs_structures() if D.name == carrier)
        inst, ref = D.ambient, ref_dvs(D)
        pool = D.sample_carrier(spec, salt="oracle-reference")
    rng = random.Random(f"oracle-reference:{carrier}")
    generator_lists = [[inst.zero]] + [rng.sample(pool, rng.randint(1, 3))
                                       for _ in range(6)]
    verdicts = set()
    mul = inst.mul
    for gens, others in zip(generator_lists, generator_lists[1:] + generator_lists[:1]):
        I = make_ideal(inst, gens, dvs=D)
        J = make_ideal(inst, others, dvs=D)
        expected = [ref(x, gens) for x in pool]
        verdicts.update(expected)
        for _ in range(2):  # the second pass runs the stored predicate
            assert [I.contains(x) for x in pool] == expected, [str(g) for g in gens]
        # products and powers against the raw, unreduced product generators
        for K, raw in ((ideal_product(I, J), [mul(a, b) for a in gens for b in others]),
                       (ideal_power(I, 2), [mul(a, b) for a in gens for b in gens])):
            assert [K.contains(x) for x in pool] == [ref(x, raw) for x in pool], \
                [str(g) for g in raw]
    assert verdicts == {True, False}


def test_an_ideal_refuses_a_structure_on_another_carrier():
    from semival.dvs import standard_dvs_structures
    D = next(D for D in standard_dvs_structures() if D.name == "qnn at 5")
    nat = get_instance("nat")
    with pytest.raises(ValueError, match="^qnn at 5 is not a structure on nat$"):
        make_ideal(nat, [nat.element(25)], dvs=D)
    I = make_ideal(D.ambient, [D.ambient.element(25)], dvs=D)
    assert I.contains(D.ambient.element(50)) and not I.contains(D.ambient.element(5))


@pytest.mark.parametrize("carrier", ["tropical-nat", "fuzzy", "qnn", "qnn at 5",
                                     "tropical naturals", "degree-bounded fractions",
                                     "integer ideals at (5)"])
def test_threshold_carriers_keep_one_generator(carrier):
    from semival.dvs import standard_dvs_structures
    spec = SampleSpec(5, 40, 10)
    if carrier in ORACLE_CARRIERS:
        D, inst = None, get_instance(carrier)
        pool = [inst.element(p) for p in stream(inst, spec, salt="threshold")]
    else:
        D = next(D for D in standard_dvs_structures() if D.name == carrier)
        inst = D.ambient
        pool = D.sample_carrier(spec, salt="threshold")
    I = make_ideal(inst, pool[:4], dvs=D)
    J = make_ideal(inst, pool[4:7], dvs=D)
    for K in (I, ideal_sum(I, J), ideal_product(I, J), ideal_power(I, 5)):
        assert len(K.generators) == 1, str(K)
