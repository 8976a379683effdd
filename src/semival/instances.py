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

import math
from fractions import Fraction

from .semiring import Capabilities, Element, Semiring, UnsupportedOperationError


def _uniform(rng, a: int, b: int):
    """A zero-argument draw of rng.randint(a, b) without its argument checks
    and call layers; building it takes nothing from rng.

    Each call draws getrandbits of the bit length of n = b - a + 1 and
    retries while the draw is >= n, which is exactly what
    random.Random.randint consumes, so every stream stays the same draw for
    draw.
    """
    n = b - a + 1
    k = n.bit_length()
    getrandbits = rng.getrandbits

    def draw() -> int:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return a + r
    return draw


def _randint(rng, a: int, b: int) -> int:
    """One draw of rng.randint(a, b); see _uniform."""
    return _uniform(rng, a, b)()


class NatSemiring(Semiring):
    """Nonnegative integers; multiplicatively cancellative but no inverses."""

    sid = "nat"
    caps = Capabilities(mc=True, entire=True, zerosumfree=True, semifield=False)
    additively_cancellative = True
    payload_gcd = staticmethod(math.gcd)

    def _zero(self):
        return 0

    def _one(self):
        return 1

    def _add(self, p, q):
        return p + q

    def _mul(self, p, q):
        return p * q

    def _canon(self, p):
        if isinstance(p, Fraction) and p.denominator == 1:
            p = int(p)
        if not isinstance(p, int) or p < 0:
            raise ValueError(f"{self.sid} payload must be a nonnegative int, got {p!r}")
        return p

    def _is_unit(self, p):
        return p == 1

    def _sampler(self, rng, bound):
        return _uniform(rng, 0, max(1, bound))

    def _preamble(self):
        return (0, 1, 2, 3, 5)


class QnnSemiring(Semiring):
    """Nonnegative rationals; the semifield of fractions of nat."""

    sid = "qnn"
    caps = Capabilities(mc=True, entire=True, zerosumfree=True, semifield=True)
    additively_cancellative = True

    def _zero(self):
        return Fraction(0)

    def _one(self):
        return Fraction(1)

    def _add(self, p, q):
        return p + q

    def _mul(self, p, q):
        return p * q

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


class BoolPolySemiring(Semiring):
    """Polynomials over the Boolean semiring, stored as exponent sets.

    Addition is union (1 + 1 = 1) and multiplication the sumset of
    exponents, so no coefficient bookkeeping is needed.
    """

    sid = "bool-poly"
    caps = Capabilities(mc=False, entire=True, zerosumfree=True, semifield=False)

    def _zero(self):
        return frozenset()

    def _one(self):
        return frozenset((0,))

    def _add(self, p, q):
        return p | q

    def _mul(self, p, q):
        return frozenset(e1 + e2 for e1 in p for e2 in q)

    def _canon(self, p):
        p = frozenset(p)
        if any(not isinstance(e, int) or e < 0 for e in p):
            raise ValueError("bool-poly exponents must be nonnegative ints")
        return p

    def _is_unit(self, p):
        return p == frozenset((0,))

    def _from_literal(self, q):
        if not isinstance(q, int) or q < 0:
            raise ValueError(f"bool-poly literal must be a nonnegative int, got {q!r}")
        return frozenset() if q == 0 else frozenset((0,))

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


class FuzzySemiring(Semiring):
    """Rationals in [0,1] under max and min; entire but not cancellative."""

    sid = "fuzzy"
    caps = Capabilities(mc=False, entire=True, zerosumfree=True, semifield=False)

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

    Payloads are ints or None (inf).  The integer variant is a semifield;
    the natural variant is cancellative but keeps its units at {0}.
    """

    def __init__(self, values: str):
        if values not in ("int", "nat"):
            raise ValueError("tropical carrier must be 'int' or 'nat'")
        self.values = values
        self.sid = f"tropical-{values}"
        semifield = values == "int"
        self.caps = Capabilities(mc=True, entire=True, zerosumfree=True,
                                 semifield=semifield)

    def _zero(self):
        return None

    def _one(self):
        return 0

    def _add(self, p, q):
        if p is None:
            return q
        if q is None:
            return p
        return min(p, q)

    def _mul(self, p, q):
        if p is None or q is None:
            return None
        return p + q

    def _canon(self, p):
        if p is None:
            return None
        if isinstance(p, Fraction) and p.denominator == 1:
            p = int(p)
        if not isinstance(p, int):
            raise ValueError(f"tropical payload must be an int or None, got {p!r}")
        if self.values == "nat" and p < 0:
            raise ValueError("tropical-nat payloads are nonnegative")
        return p

    def _is_unit(self, p):
        if self.values == "int":
            return p is not None
        return p == 0

    def _inv(self, p):
        if p is None:
            raise UnsupportedOperationError(f"{self.sid}: inf is not invertible")
        if self.values == "nat" and p != 0:
            raise UnsupportedOperationError("tropical-nat: only 0 is invertible")
        return -p

    def infinity(self):
        return Element(self, None)

    def _text(self, p):
        return "inf" if p is None else str(p)

    def _sampler(self, rng, bound):
        b = max(1, bound)
        value = _uniform(rng, 0, b) if self.values == "nat" else _uniform(rng, -b, b)
        random = rng.random
        return lambda: None if random() < 0.12 else value()

    def _preamble(self):
        if self.values == "nat":
            return (None, 0, 1, 2, 7)
        return (None, 0, 1, -1, 3)


class IdealsZSemiring(NatSemiring):
    """Ideals of the integers by nonnegative generator: sum is gcd, product
    is the integer product.  The zero ideal is 0."""

    sid = "ideals-z"
    additively_cancellative = False

    def _add(self, p, q):
        return math.gcd(p, q)

    def _preamble(self):
        return (0, 1, 2, 5, 6)


class MonoidSemiring(Semiring):
    """Finite-support exponent->coefficient maps over a base instance.

    Exponents live in one of N0, Z or Q, so the one class covers ordinary
    polynomials, Laurent polynomials and rational-exponent monoid algebras.
    Payloads are tuples of (exponent, nonzero base payload) sorted by
    exponent; that tuple is the canonical form.
    """

    def __init__(self, base: Semiring, exponents: str, kind: str):
        if exponents not in ("N0", "Z", "Q"):
            raise ValueError(f"unsupported exponent monoid {exponents!r}")
        if not base.structural_eq:
            raise ValueError("coefficient base must have structural equality")
        self.base = base
        self.exponents = exponents
        if kind == "poly":
            self.sid = f"poly({base.sid})"
        elif kind == "laurent":
            self.sid = f"laurent({base.sid})"
        else:
            self.sid = f"monoid({base.sid},{exponents})"
        self.caps = Capabilities(
            mc=base.caps.mc and base.additively_cancellative,
            entire=base.caps.entire,
            zerosumfree=base.caps.zerosumfree,
            semifield=False,
        )
        self._bzero = base._zero()

    def _check_exp(self, e):
        if self.exponents == "N0":
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"{self.sid}: exponents must be nonnegative ints")
        elif self.exponents == "Z":
            if not isinstance(e, int):
                raise ValueError(f"{self.sid}: exponents must be ints")
        else:
            if isinstance(e, int):
                e = Fraction(e)
            if not isinstance(e, Fraction):
                raise ValueError(f"{self.sid}: exponents must be rationals")
        return e

    def _zero(self):
        return ()

    def _one(self):
        return ((0 if self.exponents != "Q" else Fraction(0), self.base._one()),)

    # Payloads sort as plain tuples: exponents are unique keys, so the
    # coefficients are never compared.

    def _add(self, p, q):
        acc = dict(p)
        badd, beq, bzero = self.base._add, self.base._eq, self._bzero
        for e, c in q:
            if e in acc:
                s = badd(acc[e], c)
                if beq(s, bzero):
                    del acc[e]
                else:
                    acc[e] = s
            else:
                acc[e] = c
        return tuple(sorted(acc.items()))

    def _mul(self, p, q):
        acc = {}
        badd, bmul, beq, bzero = (self.base._add, self.base._mul, self.base._eq,
                                  self._bzero)
        for e1, c1 in p:
            for e2, c2 in q:
                e = e1 + e2
                c = bmul(c1, c2)
                if e in acc:
                    c = badd(acc[e], c)
                if beq(c, bzero):
                    acc.pop(e, None)
                else:
                    acc[e] = c
        return tuple(sorted(acc.items()))

    def _canon(self, p):
        if isinstance(p, dict):
            p = p.items()
        acc = {}
        for e, c in p:
            e = self._check_exp(e)
            c = self.base._canon(c)
            if e in acc:
                c = self.base._add(acc[e], c)
            if self.base._eq(c, self._bzero):
                acc.pop(e, None)
            else:
                acc[e] = c
        return tuple(sorted(acc.items()))

    def _is_unit(self, p):
        if len(p) != 1:
            return False
        e, c = p[0]
        if self.exponents == "N0" and e != 0:
            return False
        return self.base._is_unit(c)

    def _inv(self, p):
        if not self._is_unit(p):
            raise UnsupportedOperationError(f"{self.sid}: element is not a unit")
        e, c = p[0]
        return ((-e, self.base._inv(c)),)

    def _from_literal(self, q):
        c = self.base._from_literal(q)
        if self.base._eq(c, self._bzero):
            return ()
        return ((0 if self.exponents != "Q" else Fraction(0), c),)

    def indeterminate(self):
        return Element(self, self.monomial_payload(1, self.base._one()))

    def monomial_payload(self, e, c):
        e = self._check_exp(e)
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
        cap = min(max(1, bound), 4)
        if self.exponents == "N0":
            exponent = _uniform(rng, 0, cap)
        elif self.exponents == "Z":
            exponent = _uniform(rng, -cap, cap)
        else:
            num, den = _uniform(rng, -cap, cap), _uniform(rng, 0, 2)
            exponent = lambda: Fraction(num(), (1, 2, 3)[den()])
        terms = _uniform(rng, 0, 3)
        coefficient = self.base._nonzero_sampler(rng, bound)

        def draw():
            n = terms()
            if n == 0:
                return ()
            if n == 1:
                return ((exponent(), coefficient()),)
            acc = {}
            for _ in range(n):
                e = exponent()
                acc[e] = coefficient()
            return tuple(sorted(acc.items()))
        return draw

    def _preamble(self):
        one = self._one()
        x = self.monomial_payload(1, self.base._one())
        one_plus_x = self._add(one, x)
        pre = [(), one, x, one_plus_x]
        if self.exponents in ("Z", "Q"):
            pre.append(self.monomial_payload(-1, self.base._one()))
        return tuple(pre)


class FractionSemiring(Semiring):
    """Fractions n/d over a multiplicatively cancellative base.

    Equality is cross multiplication; payloads are reduced when the base
    has a gcd (and normalised to d = 1 over semifield bases), otherwise
    stored as-is.  Any fraction with zero numerator collapses to 0/1.
    """

    def __init__(self, base: Semiring):
        if not base.caps.mc:
            raise ValueError("fractions require a multiplicatively cancellative base")
        self.base = base
        self.sid = f"fractions({base.sid})"
        self.caps = Capabilities(mc=True, entire=True,
                                 zerosumfree=base.caps.zerosumfree, semifield=True)
        self.structural_eq = base.payload_gcd is not None or base.caps.semifield
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
        if base.caps.semifield:
            return (base._mul(num, base._inv(den)), self._bone)
        if base.payload_gcd is not None:
            g = base.payload_gcd(num, den)
            if g not in (0, 1):
                num //= g
                den //= g
        return (num, den)

    def _eq(self, p, q):
        if self.structural_eq:
            return p == q
        return self.base._eq(self.base._mul(p[0], q[1]), self.base._mul(q[0], p[1]))

    def _add(self, p, q):
        n1, d1 = p
        n2, d2 = q
        bmul = self.base._mul
        return self._reduce(self.base._add(bmul(n1, d2), bmul(n2, d1)), bmul(d1, d2))

    def _mul(self, p, q):
        bmul = self.base._mul
        return self._reduce(bmul(p[0], q[0]), bmul(p[1], q[1]))

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
    "tropical-nat": lambda: TropicalSemiring("nat"),
    "tropical-int": lambda: TropicalSemiring("int"),
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


def _build(sid: str) -> Semiring:
    if "(" in sid:
        if not sid.endswith(")"):
            raise ValueError(f"malformed instance descriptor {sid!r}")
        name, inner = sid.split("(", 1)
        args = split_top_level(inner[:-1])
        if name == "poly" and len(args) == 1:
            return MonoidSemiring(get_instance(args[0]), "N0", "poly")
        if name == "laurent" and len(args) == 1:
            return MonoidSemiring(get_instance(args[0]), "Z", "laurent")
        if name == "monoid" and len(args) == 2:
            return MonoidSemiring(get_instance(args[0]), args[1], "monoid")
        if name == "fractions" and len(args) == 1:
            return FractionSemiring(get_instance(args[0]))
        raise ValueError(f"unknown instance descriptor {sid!r}")
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

