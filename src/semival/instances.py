"""Concrete semiring catalogue with canonical forms and exact arithmetic.

Registered instances and their carriers:

  nat           nonnegative integers under + and *
  qnn           nonnegative rationals (a semifield)
  bool-poly     polynomials with Boolean coefficients (1 + 1 = 1)
  fuzzy         rationals in [0,1] under max and min
  tropical-nat  N0 with inf, under min and +
  tropical-int  Z with inf, under min and + (a semifield)
  ideals-z      ideals of the integers by nonnegative generator: gcd and *
  poly(b)       finite exponent->coefficient maps, exponents in N0
  laurent(b)    the same with integer exponents
  monoid(b,M)   the same with exponents in M, one of N0, Z, Q
  fractions(b)  pairs n/d over a multiplicatively cancellative base, equal
                by cross multiplication, reduced when the base has a gcd

Descriptors are resolved by ``get_instance`` and cached, so each id names
exactly one instance object.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .extended import MONOIDS, _raw_add, _raw_min, _uniform
from .semiring import Element, Semiring, UnsupportedOperationError

_N0 = MONOIDS["N0"]
_EXPONENT = operator.itemgetter(0)


class NatSemiring(Semiring):
    """Nonnegative integers; multiplicatively cancellative but no inverses."""

    sid = "nat"
    mc = entire = zerosumfree = True
    semifield = False
    additively_cancellative = True
    payload_gcd = staticmethod(math.gcd)

    def _zero(self):
        return 0

    def _one(self):
        return 1

    _add = staticmethod(operator.add)
    _mul = staticmethod(operator.mul)

    def _canon(self, p):
        return _N0.check(p)

    def _is_unit(self, p):
        return p == 1

    def _sampler(self, rng, bound):
        return _uniform(rng, 0, max(1, bound))

    def _nonzero_sampler(self, rng, bound):
        # the generic retry loop over _uniform(rng, 0, b), inlined: the same
        # getrandbits sequence, for the hottest draw of all
        n = max(1, bound) + 1
        k = n.bit_length()
        getrandbits = rng.getrandbits

        def nonzero():
            for _ in range(64):
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                if r:
                    return r
            return 1
        return nonzero

    def _preamble(self):
        return (0, 1, 2, 3, 5)

    _power_size = staticmethod(lambda p, n: ((p.bit_length() - 1) * n, 0))
    _product_size = staticmethod(lambda p, q: (
        p.bit_length() + q.bit_length() - 1 if p and q else 0, 0))


class QnnSemiring(Semiring):
    """Nonnegative rationals; the semifield of fractions of nat."""

    sid = "qnn"
    mc = entire = zerosumfree = semifield = True
    additively_cancellative = True

    def _zero(self):
        return Fraction(0)

    def _one(self):
        return Fraction(1)

    _add = staticmethod(operator.add)
    _mul = staticmethod(operator.mul)

    def _canon(self, p):
        if isinstance(p, int):
            p = Fraction(p)
        if not isinstance(p, Fraction) or p < 0:
            raise ValueError(f"qnn payload must be a nonnegative rational, got {p!r}")
        return p

    def _is_unit(self, p):
        return p > 0

    def _inv(self, p):
        if p == 0:
            raise UnsupportedOperationError("qnn: zero is not invertible")
        return 1 / p

    def _sampler(self, rng, bound):
        b = max(1, bound)
        num, den = _uniform(rng, 0, b), _uniform(rng, 1, b)
        return lambda: Fraction(num(), den())

    def _preamble(self):
        return (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2),
                Fraction(5), Fraction(1, 5), Fraction(3))

    _power_size = staticmethod(lambda p, n: (
        (p.numerator.bit_length() + p.denominator.bit_length() - 2) * n, 0))


class BoolPolySemiring(Semiring):
    """Polynomials over the Boolean semiring, stored as exponent sets.

    Addition is union (1 + 1 = 1) and multiplication the sumset of
    exponents, so no coefficient bookkeeping is needed.
    """

    sid = "bool-poly"
    entire = zerosumfree = True
    mc = semifield = False

    def _zero(self):
        return frozenset()

    def _one(self):
        return frozenset((0,))

    def _add(self, p, q):
        return p | q

    def _mul(self, p, q):
        return frozenset(e1 + e2 for e1 in p for e2 in q)

    def _canon(self, p):
        return frozenset(map(_N0.check, p))

    def _is_unit(self, p):
        return p == frozenset((0,))

    def _from_literal(self, q):
        return frozenset() if _N0.check(q) == 0 else frozenset((0,))

    def indeterminate(self):
        return Element(self, frozenset((1,)))

    def _text(self, p):
        if not p:
            return "0"
        terms = []
        for e in sorted(p):
            terms.append("1" if e == 0 else ("X" if e == 1 else f"X^{e}"))
        return " + ".join(terms)

    def _sampler(self, rng, bound):
        size, exponent = _uniform(rng, 0, 4), _uniform(rng, 0, min(max(1, bound), 8))
        return lambda: frozenset([exponent() for _ in range(size())])

    def _preamble(self):
        return (frozenset(), frozenset((0,)), frozenset((1,)), frozenset((0, 1)))

    # the exponents of p^n are the n-fold sumset of those of p, and those of p*q
    # their sumset, of at least |p| + |q| - 1 elements
    _power_size = staticmethod(lambda p, n: (0, n * (len(p) - 1) + 1))
    _product_size = staticmethod(lambda p, q: (0, len(p) + len(q) - 1 if p and q else 0))


class FuzzySemiring(Semiring):
    """Rationals in [0,1] under max and min; entire but not cancellative."""

    sid = "fuzzy"
    entire = zerosumfree = True
    mc = semifield = False

    def _zero(self):
        return Fraction(0)

    def _one(self):
        return Fraction(1)

    def _add(self, p, q):
        return max(p, q)

    def _mul(self, p, q):
        return min(p, q)

    def _canon(self, p):
        if isinstance(p, int):
            p = Fraction(p)
        if not isinstance(p, Fraction) or not 0 <= p <= 1:
            raise ValueError(f"fuzzy payload must be a rational in [0,1], got {p!r}")
        return p

    def _is_unit(self, p):
        return p == 1

    def _sampler(self, rng, bound):
        top = min(max(2, bound), 12)
        den = _uniform(rng, 1, top)
        # the numerator's range depends on the denominator drawn
        num = [_uniform(rng, 0, d) for d in range(top + 1)]

        def draw():
            d = den()
            return Fraction(num[d](), d)
        return draw

    def _preamble(self):
        return (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 4))


class TropicalSemiring(Semiring):
    """Min-plus arithmetic with an adjoined inf as the additive zero.

    Payloads are values in N0 or Z, or None (inf).  Over Z the carrier is a
    semifield; over N0 it is cancellative but keeps its units at {0}.
    """

    mc = entire = zerosumfree = True

    def __init__(self, sid: str, values: str):
        self.sid = sid
        self.values = MONOIDS[values]
        self.semifield = self.values.inverses

    def _zero(self):
        return None

    def _one(self):
        return 0

    # min and + of the value monoid extended by inf
    _add = staticmethod(_raw_min)
    _mul = staticmethod(_raw_add)

    def _canon(self, p):
        return None if p is None else self.values.check(p)

    def _is_unit(self, p):
        return p is not None and (self.values.inverses or p == 0)

    def _inv(self, p):
        if not self._is_unit(p):
            raise UnsupportedOperationError(f"{self.sid}: {self._text(p)} is not invertible")
        return -p

    def infinity(self):
        return Element(self, None)

    def _text(self, p):
        return "inf" if p is None else str(p)

    def _sampler(self, rng, bound):
        value = self.values.draw(rng, max(1, bound))
        random = rng.random
        return lambda: None if random() < 0.12 else value()

    def _preamble(self):
        return (None, 0, 1) + ((-1, 3) if self.values.inverses else (2, 7))


class IdealsZSemiring(NatSemiring):
    """Ideals of the integers by nonnegative generator: sum is gcd, product
    is the integer product.  The zero ideal is 0."""

    sid = "ideals-z"
    additively_cancellative = False

    _add = staticmethod(math.gcd)

    def _preamble(self):
        return (0, 1, 2, 5, 6)


# Fraction(k, L) for the result keys of _on_scaled_exponents: a hit costs a
# sixth of a construction, and equal keys share one object, which tuple ==
# then compares by identity
_scaled_fraction = functools.lru_cache(maxsize=1 << 10)(Fraction)


def _on_scaled_exponents(op):
    """op on payloads with Fraction exponents, run on integers: each n/d
    becomes n*(L/d) for L the lcm of both operands' denominators, and each
    result key k becomes Fraction(k, L) once.  Scaling by L > 0 keeps sums
    and order, and spares the loop a Fraction sum and hash per term."""
    def scaled(p, q):
        if not (p and q):
            return op(p, q)
        lcm = math.lcm(*[e.denominator for e, _ in p + q])
        r = op([(e.numerator * (lcm // e.denominator), c) for e, c in p],
               [(e.numerator * (lcm // e.denominator), c) for e, c in q])
        return tuple([(_scaled_fraction(k, lcm), c) for k, c in r])
    return scaled


class MonoidSemiring(Semiring):
    """Finite-support exponent->coefficient maps over a base instance.

    Exponents live in one of N0, Z or Q, so the one class covers ordinary
    polynomials, Laurent polynomials and rational-exponent monoid algebras.
    Payloads are tuples of (exponent, nonzero base payload) sorted by
    exponent; that tuple is the canonical form.
    """

    semifield = False

    def __init__(self, sid: str, base: Semiring, exponents: str):
        monoid = MONOIDS.get(exponents)
        if monoid is None or monoid.draw is None:
            raise ValueError(f"unsupported exponent monoid {exponents!r}")
        if not base.structural_eq:
            raise ValueError("coefficient base must have structural equality")
        self.sid = sid
        self.base = base
        self.exponents = monoid
        self.mc = base.mc and base.additively_cancellative
        self.entire, self.zerosumfree = base.entire, base.zerosumfree
        self._bzero = base._zero()
        if monoid.name == "Q":
            self._add = _on_scaled_exponents(self._add)
            self._mul = _on_scaled_exponents(self._mul)

    def _zero(self):
        return ()

    def _one(self):
        return self.monomial_payload(0, self.base._one())

    # Exponents are unique keys, so payloads sort by exponent alone, which
    # spares a rational exponent the tuple's == before its <.  The base has
    # structural equality, so a coefficient is zero exactly when it == the
    # base zero.

    def _add(self, p, q):
        if not p:
            return q
        if not q:
            return p
        acc = dict(p)
        badd, bzero = self.base._add, self._bzero
        for e, c in q:
            if e in acc:
                s = badd(acc[e], c)
                if s == bzero:
                    del acc[e]
                else:
                    acc[e] = s
            else:
                acc[e] = c
        return tuple(sorted(acc.items(), key=_EXPONENT))

    def _mul(self, p, q):
        if len(p) < len(q):
            p, q = q, p
        if not q:
            return ()
        bmul, bzero = self.base._mul, self._bzero
        if len(q) == 1:
            # adding a fixed exponent keeps the order: no dict, no sort
            (e2, c2), = q
            out = []
            for e1, c1 in p:
                c = bmul(c1, c2)
                if c != bzero:
                    out.append((e1 + e2, c))
            return tuple(out)
        acc = {}
        badd = self.base._add
        for e1, c1 in p:
            for e2, c2 in q:
                e = e1 + e2
                c = bmul(c1, c2)
                if e in acc:
                    c = badd(acc[e], c)
                if c == bzero:
                    acc.pop(e, None)
                else:
                    acc[e] = c
        return tuple(sorted(acc.items(), key=_EXPONENT))

    def _canon(self, p):
        if isinstance(p, dict):
            p = p.items()
        acc = {}
        for e, c in p:
            e = self.exponents.check(e)
            c = self.base._canon(c)
            if e in acc:
                c = self.base._add(acc[e], c)
            if self.base._eq(c, self._bzero):
                acc.pop(e, None)
            else:
                acc[e] = c
        return tuple(sorted(acc.items(), key=_EXPONENT))

    def _is_unit(self, p):
        if len(p) != 1:
            return False
        e, c = p[0]
        return (self.exponents.inverses or e == 0) and self.base._is_unit(c)

    def _inv(self, p):
        if not self._is_unit(p):
            raise UnsupportedOperationError(f"{self.sid}: element is not a unit")
        e, c = p[0]
        return ((-e, self.base._inv(c)),)

    def _from_literal(self, q):
        return self.monomial_payload(0, self.base._from_literal(q))

    def indeterminate(self):
        return Element(self, self.monomial_payload(1, self.base._one()))

    def monomial_payload(self, e, c):
        e = self.exponents.check(e)
        c = self.base._canon(c)
        if self.base._eq(c, self._bzero):
            return ()
        return ((e, c),)

    def low_order(self, p):
        """Least exponent with a nonzero coefficient; None for the zero map."""
        return p[0][0] if p else None

    def high_order(self, p):
        """Greatest exponent with a nonzero coefficient; None for zero."""
        return p[-1][0] if p else None

    # p*q has the sumset of their exponents, as on bool-poly
    _product_size = staticmethod(BoolPolySemiring._product_size)

    def _power_size(self, p, n):
        # X = 1 maps p^n to the n-th power of p's coefficient sum in the base, and
        # p^n has the n-fold sumset of p's exponents: every base here is entire
        # and zerosumfree, so no term cancels
        total = functools.reduce(self.base._add, (c for _, c in p), self._bzero)
        bits, terms = self.base._power_size(total, n)
        return bits, max(terms, n * (len(p) - 1) + 1)

    def _text(self, p):
        if not p:
            return "0"
        terms = []
        for e, c in p:
            if isinstance(e, Fraction) and e.denominator != 1:
                xpart = f"X^({e})"
            elif e == 0:
                xpart = None
            elif e == 1:
                xpart = "X"
            else:
                xpart = f"X^{e}"
            ctext = self.base._text(c)
            if xpart is None:
                terms.append(ctext)
            elif self.base._eq(c, self.base._one()):
                terms.append(xpart)
            else:
                terms.append(f"{ctext}*{xpart}")
        return " + ".join(terms)

    def _sampler(self, rng, bound):
        exponent = self.exponents.draw(rng, min(max(1, bound), 4))
        terms = _uniform(rng, 0, 3)
        coefficient = self.base._nonzero_sampler(rng, bound)

        def draw():
            n = terms()
            if n == 0:
                return ()
            if n == 1:
                return ((exponent(), coefficient()),)
            # each key is drawn before its value; a repeated exponent keeps
            # its last coefficient
            acc = {exponent(): coefficient() for _ in range(n)}
            return tuple(sorted(acc.items(), key=_EXPONENT))
        return draw

    def _preamble(self):
        one = self._one()
        x = self.monomial_payload(1, self.base._one())
        one_plus_x = self._add(one, x)
        pre = [(), one, x, one_plus_x]
        if self.exponents.inverses:
            pre.append(self.monomial_payload(-1, self.base._one()))
        return tuple(pre)


class FractionSemiring(Semiring):
    """Fractions n/d over a multiplicatively cancellative base.

    Equality is cross multiplication; payloads are reduced when the base
    has a gcd (and normalised to d = 1 over semifield bases), otherwise
    stored as-is.  Any fraction with zero numerator collapses to 0/1.
    """

    mc = entire = semifield = True

    def __init__(self, base: Semiring):
        if not base.mc:
            raise ValueError("fractions require a multiplicatively cancellative base")
        self.base = base
        self.sid = f"fractions({base.sid})"
        self.zerosumfree = base.zerosumfree
        self._bsemifield = base.semifield
        # _reduce makes pairs canonical by a gcd, or by d = 1 over a semifield,
        # and only from parts that are canonical themselves
        self.structural_eq = base.structural_eq and (
            base.payload_gcd is not None or self._bsemifield)
        self._bzero = base._zero()
        self._bone = base._one()

    def _zero(self):
        return (self._bzero, self._bone)

    def _one(self):
        return (self._bone, self._bone)

    def _canon(self, p):
        num, den = p
        return self._reduce(self.base._canon(num), self.base._canon(den))

    def _reduce(self, num, den):
        """Canonical num/den from parts already canonical in the base."""
        base = self.base
        if base._eq(den, self._bzero):
            raise ZeroDivisionError(f"{self.sid}: zero denominator")
        if base._eq(num, self._bzero):
            return (self._bzero, self._bone)
        if self._bsemifield:
            return (base._mul(num, base._inv(den)), self._bone)
        if base.payload_gcd is not None:
            g = base.payload_gcd(num, den)
            if g not in (0, 1):
                num //= g
                den //= g
        return (num, den)

    # _reduce returns every zero fraction as (bzero, bone), and every fraction
    # over a semifield base as (x, bone) with this very bone.  So a numerator
    # that == bzero settles eq, add and mul at once, and x/bone and y/bone
    # add and multiply to (x+y)/bone and (x*y)/bone with no product by one.
    # A pair that is neither takes the general path, which gives the same.

    def _eq(self, p, q):
        # identical pairs are equal fractions; only distinct pairs over a
        # carrier without canonical forms need cross multiplication
        if p == q:
            return True
        if self.structural_eq:
            return False
        base, bzero = self.base, self._bzero
        if p[0] == bzero or q[0] == bzero:
            return base._eq(p[0], q[0])
        return base._eq(base._mul(p[0], q[1]), base._mul(q[0], p[1]))

    def _add(self, p, q):
        (n1, d1), (n2, d2) = p, q
        base, bzero, bone = self.base, self._bzero, self._bone
        if d1 is bone and d2 is bone:
            n = base._add(n1, n2)
            return (bzero, bone) if base._eq(n, bzero) else (n, bone)
        if n1 == bzero:
            return self._reduce(n2, d2)
        if n2 == bzero:
            return self._reduce(n1, d1)
        bmul = base._mul
        return self._reduce(base._add(bmul(n1, d2), bmul(n2, d1)), bmul(d1, d2))

    def _mul(self, p, q):
        (n1, d1), (n2, d2) = p, q
        base, bzero, bone = self.base, self._bzero, self._bone
        if d1 is bone and d2 is bone:
            n = base._mul(n1, n2)
            return (bzero, bone) if base._eq(n, bzero) else (n, bone)
        if n1 == bzero or n2 == bzero:
            return (bzero, bone)
        return self._reduce(base._mul(n1, n2), base._mul(d1, d2))

    def _is_unit(self, p):
        return not self.base._eq(p[0], self._bzero)

    def _inv(self, p):
        if self.base._eq(p[0], self._bzero):
            raise UnsupportedOperationError(f"{self.sid}: zero is not invertible")
        return self._reduce(p[1], p[0])

    def _from_literal(self, q):
        if isinstance(q, int):
            return self._canon((self.base._from_literal(q), self._bone))
        num = self.base._from_literal(q.numerator)
        den = self.base._from_literal(q.denominator)
        return self._canon((num, den))

    def indeterminate(self):
        x = self.base.indeterminate()
        return Element(self, self._canon((x.payload, self._bone)))

    def fraction(self, num: Element, den: Element) -> Element:
        self.base._claim(num)
        self.base._claim(den)
        return Element(self, self._canon((num.payload, den.payload)))

    def _text(self, p):
        return f"({self.base._text(p[0])})/({self.base._text(p[1])})"

    def _power_size(self, p, n):
        # p^n keeps the powers of both parts, still coprime where p is reduced
        (nbits, nterms), (dbits, dterms) = (self.base._power_size(q, n) for q in p)
        return nbits + dbits, nterms + dterms

    def _sampler(self, rng, bound):
        num = self.base._sampler(rng, bound)
        den = self.base._nonzero_sampler(rng, bound)
        reduce = self._reduce
        return lambda: reduce(num(), den())

    def _preamble(self):
        pre = [self._zero(), self._one()]
        base_pre = [p for p in self.base._preamble()
                    if not self.base._eq(p, self._bzero)]
        for p in base_pre[:4]:
            pre.append(self._reduce(p, self._bone))
        for p in base_pre[:4]:
            if not self.base._eq(p, self._bone):
                pre.append(self._reduce(self._bone, p))
        return tuple(pre)


# -- registry -----------------------------------------------------------------

_CACHE: dict[str, Semiring] = {}

_BASE_FACTORIES = {
    "nat": NatSemiring,
    "qnn": QnnSemiring,
    "bool-poly": BoolPolySemiring,
    "fuzzy": FuzzySemiring,
    "tropical-nat": lambda: TropicalSemiring("tropical-nat", "N0"),
    "tropical-int": lambda: TropicalSemiring("tropical-int", "Z"),
    "ideals-z": IdealsZSemiring,
}

BASE_INSTANCE_IDS = tuple(_BASE_FACTORIES)

# every descriptor exercised somewhere in the law suite
ALL_REGISTERED_IDS = BASE_INSTANCE_IDS + (
    "poly(nat)", "laurent(nat)", "monoid(nat,N0)", "monoid(nat,Z)", "monoid(nat,Q)",
    "fractions(nat)", "fractions(poly(nat))", "fractions(ideals-z)",
)


def split_top_level(s: str) -> list[str]:
    """Split at the commas outside every bracket pair, ( ) or [ ]."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


# descriptor name -> (argument count, maker from the id, base and other arguments)
_DESCRIPTORS = {
    "poly": (1, lambda sid, base: MonoidSemiring(sid, base, "N0")),
    "laurent": (1, lambda sid, base: MonoidSemiring(sid, base, "Z")),
    "monoid": (2, MonoidSemiring),
    "fractions": (1, lambda sid, base: FractionSemiring(base)),
}


def _build(sid: str) -> Semiring:
    if "(" in sid:
        if not sid.endswith(")"):
            raise ValueError(f"malformed instance descriptor {sid!r}")
        name, inner = sid.split("(", 1)
        args = split_top_level(inner[:-1])
        arity, make = _DESCRIPTORS.get(name, (None, None))
        if len(args) != arity:
            raise ValueError(f"unknown instance descriptor {sid!r}")
        return make(sid, get_instance(args[0]), *args[1:])
    factory = _BASE_FACTORIES.get(sid)
    if factory is None:
        raise ValueError(f"unknown instance descriptor {sid!r}")
    return factory()


def get_instance(sid: str) -> Semiring:
    """Resolve an instance descriptor; each id names one cached instance."""
    key = sid.replace(" ", "")
    inst = _CACHE.get(key)
    if inst is None:
        inst = _build(key)
        assert inst.sid == key, (inst.sid, key)
        # concurrent builders race here; every caller gets the first one stored
        inst = _CACHE.setdefault(key, inst)
    return inst


def registered_instances() -> list[Semiring]:
    return [get_instance(sid) for sid in ALL_REGISTERED_IDS]

