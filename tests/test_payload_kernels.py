"""Differential tests of the payload kernels of the polynomial and fraction
carriers: each fast path against a reference copy of the plain dict-and-sort
arithmetic it replaced, and each inlined draw against the generic draw it
stands for, down to the state of the random generator afterwards."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semival.extended import MONOIDS, _uniform
from semival.instances import (
    ALL_REGISTERED_IDS,
    FractionSemiring,
    MonoidSemiring,
    get_instance,
)
from semival.reports import SampleSpec
from semival.sampling import stream
from semival.semiring import Semiring

# the leaves whose primitives became builtins; every other leaf is its own
# reference
_LEAF_OPS = {
    "nat": (lambda p, q: p + q, lambda p, q: p * q),
    "qnn": (lambda p, q: p + q, lambda p, q: p * q),
    "ideals-z": (math.gcd, lambda p, q: p * q),
}


class Reference:
    """add, mul and eq on the payloads of one instance, written as the
    plain dict-and-sort and cross-multiplying code, over reference
    arithmetic of the base all the way down."""

    def __init__(self, inst: Semiring):
        self.inst = inst
        if isinstance(inst, (MonoidSemiring, FractionSemiring)):
            self.base = Reference(inst.base)
            self.bzero, self.bone = inst.base._zero(), inst.base._one()
        else:
            # every leaf has structural equality
            self.add, self.mul = _LEAF_OPS.get(inst.sid, (inst._add, inst._mul))
            self.eq = lambda p, q: p == q
            return
        kind = "monoid" if isinstance(inst, MonoidSemiring) else "fraction"
        self.add = getattr(self, f"_{kind}_add")
        self.mul = getattr(self, f"_{kind}_mul")
        self.eq = getattr(self, f"_{kind}_eq")

    def _monoid_add(self, p, q):
        acc = dict(p)
        for e, c in q:
            if e in acc:
                s = self.base.add(acc[e], c)
                if self.base.eq(s, self.bzero):
                    del acc[e]
                else:
                    acc[e] = s
            else:
                acc[e] = c
        return tuple(sorted(acc.items()))

    def _monoid_mul(self, p, q):
        acc = {}
        for e1, c1 in p:
            for e2, c2 in q:
                e = e1 + e2
                c = self.base.mul(c1, c2)
                if e in acc:
                    c = self.base.add(acc[e], c)
                if self.base.eq(c, self.bzero):
                    acc.pop(e, None)
                else:
                    acc[e] = c
        return tuple(sorted(acc.items()))

    def _monoid_eq(self, p, q):
        return p == q

    def _reduce(self, num, den):
        base = self.inst.base
        if self.base.eq(den, self.bzero):
            raise ZeroDivisionError
        if self.base.eq(num, self.bzero):
            return (self.bzero, self.bone)
        if base.semifield:
            return (self.base.mul(num, base._inv(den)), self.bone)
        if base.payload_gcd is not None:
            g = base.payload_gcd(num, den)
            if g not in (0, 1):
                num //= g
                den //= g
        return (num, den)

    def _fraction_add(self, p, q):
        (n1, d1), (n2, d2) = p, q
        mul = self.base.mul
        return self._reduce(self.base.add(mul(n1, d2), mul(n2, d1)), mul(d1, d2))

    def _fraction_mul(self, p, q):
        return self._reduce(self.base.mul(p[0], q[0]), self.base.mul(p[1], q[1]))

    def _fraction_eq(self, p, q):
        if self.inst.structural_eq:
            return p == q
        return self.base.eq(self.base.mul(p[0], q[1]), self.base.mul(q[0], p[1]))


MONOID_IDS = [sid for sid in ALL_REGISTERED_IDS
              if isinstance(get_instance(sid), MonoidSemiring)]
FRACTION_IDS = [sid for sid in ALL_REGISTERED_IDS
                if isinstance(get_instance(sid), FractionSemiring)]
OFF_CATALOGUE = ["poly(qnn)", "laurent(tropical-int)", "monoid(fuzzy,Q)",
                 "monoid(ideals-z,Q)", "fractions(laurent(nat))", "fractions(qnn)",
                 "fractions(tropical-int)", "fractions(fractions(poly(nat)))",
                 "fractions(fractions(ideals-z))"]
ALL_FRACTION_IDS = FRACTION_IDS + [sid for sid in OFF_CATALOGUE
                                   if sid.startswith("fractions(")]
KERNEL_IDS = MONOID_IDS + FRACTION_IDS + OFF_CATALOGUE


def _payloads(inst, seed, size_bound, count=120):
    """Sampled payloads plus products of them, so that operands longer than
    one draw reach the general multiplication path."""
    ps = stream(inst, SampleSpec(seed, count, size_bound), salt="kernels")
    return ps + [inst._mul(p, q) for p, q in zip(ps[::3], ps[1::3])]


def test_the_kernels_cover_every_polynomial_and_fraction_id():
    assert set(MONOID_IDS) == {"poly(nat)", "laurent(nat)", "monoid(nat,N0)",
                               "monoid(nat,Z)", "monoid(nat,Q)"}
    assert set(FRACTION_IDS) == {"fractions(nat)", "fractions(poly(nat))",
                                 "fractions(ideals-z)"}
    assert not get_instance("fractions(laurent(nat))").structural_eq
    assert set(COPYABLE_ONE_IDS) == {
        "fractions(poly(nat))", "fractions(laurent(nat))", "fractions(qnn)",
        "fractions(fractions(poly(nat)))", "fractions(fractions(ideals-z))"}


@pytest.mark.parametrize("sid", KERNEL_IDS)
@pytest.mark.parametrize("seed,size_bound", [(1, 50), (7, 3), (19, 0)])
def test_add_mul_eq_agree_with_the_reference(sid, seed, size_bound):
    inst = get_instance(sid)
    ref = Reference(inst)
    ps = _payloads(inst, seed, size_bound)
    rng = random.Random(seed)
    for _ in range(600):
        p, q = rng.choice(ps), rng.choice(ps)
        assert inst._add(p, q) == ref.add(p, q), (p, q)
        assert inst._mul(p, q) == ref.mul(p, q), (p, q)
        assert inst._eq(p, q) == ref.eq(p, q), (p, q)
        assert inst._eq(p, p)


@pytest.mark.parametrize("sid", ALL_FRACTION_IDS)
def test_fraction_eq_on_distinct_equal_pairs(sid):
    # n/d and nk/dk are the same fraction; over a carrier without canonical
    # forms they are distinct pairs, and only cross multiplication sees it
    inst = get_instance(sid)
    ref = Reference(inst)
    base = inst.base
    ks = [k for k in stream(base, SampleSpec(3, 40, 6), salt="k")
          if not base._eq(k, base._zero())]
    distinct = 0
    for (n, d), k in zip(_payloads(inst, 3, 6), ks * 10):
        scaled = (base._mul(n, k), base._mul(d, k))
        if inst.structural_eq:
            # payloads are canonical there, and nk/dk reduces back to n/d
            scaled = inst._canon(scaled)
            assert scaled == (n, d)
        distinct += scaled != (n, d)
        assert inst._eq((n, d), scaled) and ref.eq((n, d), scaled)
        assert inst._eq(scaled, (n, d))
    assert distinct > 50 or inst.structural_eq


def _monoid_payload(inst):
    exponent = {"N0": st.integers(0, 6), "Z": st.integers(-6, 6),
                "Q": st.fractions(-3, 3, max_denominator=4)}[inst.exponents.name]
    coefficient = st.sampled_from(inst.base._preamble())
    return st.lists(st.tuples(exponent, coefficient), max_size=5).map(inst._canon)


@pytest.mark.parametrize("sid", MONOID_IDS + ["poly(qnn)", "monoid(fuzzy,Q)",
                                              "monoid(ideals-z,Q)"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_monoid_kernels_on_arbitrary_payloads(sid, data):
    inst = get_instance(sid)
    ref = Reference(inst)
    p = data.draw(_monoid_payload(inst))
    q = data.draw(_monoid_payload(inst))
    assert inst._add(p, q) == ref.add(p, q)
    assert inst._mul(p, q) == ref.mul(p, q)
    assert inst._mul(p, q) == inst._mul(q, p)


@pytest.mark.parametrize("sid", ALL_FRACTION_IDS)
def test_zero_operands_agree_with_the_reference(sid):
    # the instance's zero, and a zero pair built of fresh base objects
    inst = get_instance(sid)
    ref = Reference(inst)
    zeros = [inst._zero(), (inst.base._zero(), inst.base._one())]
    ps = _payloads(inst, 5, 8, count=60) + zeros
    for z in zeros:
        for p in ps:
            for a, b in ((z, p), (p, z)):
                assert inst._add(a, b) == ref.add(a, b), (a, b)
                assert inst._mul(a, b) == ref.mul(a, b) == inst._zero(), (a, b)
                assert inst._eq(a, b) == ref.eq(a, b), (a, b)
    # a zero over another denominator is a distinct pair: equal to zero by
    # cross multiplication only
    for d in ps[2:30]:
        z = (inst.base._zero(), d[1])
        for p in ps:
            assert inst._eq(z, p) == inst._eq(p, z) == ref.eq(z, p), (z, p)


def _equal_copy(x):
    """An object == x that is not x, where one can be built: a new tuple or
    Fraction.  Small ints are shared objects, so they have no such copy."""
    if isinstance(x, tuple) and x:
        return tuple(list(x))
    if isinstance(x, Fraction):
        return Fraction(x.numerator, x.denominator)
    return None


# the ids whose base one has an equal copy: all but those over nat,
# ideals-z and tropical-int
COPYABLE_ONE_IDS = [sid for sid in ALL_FRACTION_IDS
                    if _equal_copy(get_instance(sid)._one()[1]) is not None]


@pytest.mark.parametrize("sid", COPYABLE_ONE_IDS)
def test_a_denominator_equal_to_one_but_not_the_instance_one(sid):
    # x/bone pairs add and multiply without a product by one only when bone
    # is the instance's own object; an equal copy takes the general path
    inst = get_instance(sid)
    ref = Reference(inst)
    bone = inst._one()[1]
    copy = _equal_copy(bone)
    assert copy == bone and copy is not bone
    ps = _payloads(inst, 11, 8, count=60)
    copies = [(n, copy) for n, d in ps if d == bone]
    assert len(copies) > 20
    for p2 in copies:
        p = (p2[0], bone)
        for q in ps:
            for a, b, a2, b2 in ((p, q, p2, q), (q, p, q, p2)):
                assert inst._add(a2, b2) == inst._add(a, b) == ref.add(a2, b2), (a2, b2)
                assert inst._mul(a2, b2) == inst._mul(a, b) == ref.mul(a2, b2), (a2, b2)
                assert inst._eq(a2, b2) == inst._eq(a, b) == ref.eq(a2, b2), (a2, b2)


@pytest.mark.parametrize("sid", ["monoid(nat,Q)", "monoid(fuzzy,Q)", "monoid(ideals-z,Q)"])
def test_rational_exponents_stay_fractions(sid):
    inst = get_instance(sid)
    ref = Reference(inst)
    c = inst.base._one()
    half, third = Fraction(1, 2), Fraction(1, 3)
    # integral sums and products of rational exponents, and integral operands
    cases = [(((half, c),), ((half, c),)),
             (((Fraction(-2, 3), c), (third, c)), ((third, c), (Fraction(2, 3), c))),
             (((Fraction(1), c),), ((Fraction(2), c), (Fraction(5), c))),
             (((Fraction(-1), c), (Fraction(1), c)), ((Fraction(0), c),))]
    cases += list(zip(_payloads(inst, 1, 50), _payloads(inst, 2, 50)))
    for p, q in cases:
        for r, expected in ((inst._add(p, q), ref.add(p, q)),
                            (inst._mul(p, q), ref.mul(p, q))):
            assert r == expected, (p, q)
            assert all(type(e) is Fraction for e, _ in r), r
            assert [e for e, _ in r] == sorted(e for e, _ in r)
    assert inst._mul(((half, c),), ((half, c),)) == ((Fraction(1), c),)


def _generic_nonzero(inst, rng, bound):
    return Semiring._nonzero_sampler(inst, rng, bound)


@pytest.mark.parametrize("sid", ["nat", "ideals-z"])
@pytest.mark.parametrize("bound", [0, 1, 2, 7, 50, 1000])
def test_inlined_nat_nonzero_draw_leaves_the_rng_where_the_generic_one_does(sid, bound):
    inst = get_instance(sid)
    fast, slow = random.Random(bound), random.Random(bound)
    draw_fast = inst._nonzero_sampler(fast, bound)
    draw_slow = _generic_nonzero(inst, slow, bound)
    assert [draw_fast() for _ in range(2000)] == [draw_slow() for _ in range(2000)]
    assert fast.getstate() == slow.getstate()


class _Zeros:
    """A generator that only ever draws 0, counting its draws."""

    def __init__(self):
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return 0


def test_inlined_nat_nonzero_draw_gives_one_after_64_zeros():
    nat = get_instance("nat")
    fast, slow = _Zeros(), _Zeros()
    assert nat._nonzero_sampler(fast, 50)() == _generic_nonzero(nat, slow, 50)() == 1
    assert fast.calls == slow.calls == 64


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 9])
def test_rational_exponent_table_draws_what_the_fraction_draw_did(cap):
    fast, slow = random.Random(cap), random.Random(cap)
    table_draw = MONOIDS["Q"].draw(fast, cap)
    num, den = _uniform(slow, -cap, cap), _uniform(slow, 0, 2)
    values = [table_draw() for _ in range(3000)]
    assert values == [Fraction(num(), (1, 2, 3)[den()]) for _ in range(3000)]
    assert all(type(v) is Fraction for v in values)
    assert len(set(values)) <= 3 * (2 * cap + 1)
    assert fast.getstate() == slow.getstate()
