"""Element and instance abstractions shared by the whole catalogue.

An instance is a commutative semiring with exact payload arithmetic and a
canonical form for every element.  All arithmetic is arbitrary precision
(ints and Fractions); there is no floating point anywhere.  Elements are
immutable and instances stateless, so everything here is safe to use
concurrently.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from fractions import Fraction
from functools import cached_property


# Size budgets, each checked before the work it bounds: the bits (5^1000000 has
# 2.3 M) and terms of a power or a product (a power of Y too), and a nat
# semigroup's memo or table.
_POWER_BITS = 1 << 25
_POWER_TERMS = 1 << 10
_TABLE_BUDGET = 1 << 20


def _square_and_multiply(mul, one, base, n: int):
    """base^n for n >= 0 by binary powering, with no squaring after the top bit."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


class InstanceMismatchError(ValueError):
    """Raised when an operation mixes elements of different instances."""


class UnsupportedOperationError(ValueError):
    """Raised when an instance lacks the requested capability."""


class Element:
    """A canonical payload tagged with the instance it belongs to."""

    __slots__ = ("semiring", "payload")

    def __init__(self, semiring: "Semiring", payload):
        self.semiring = semiring
        self.payload = payload

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if other.semiring is not self.semiring:
            return False
        return self.semiring._eq(self.payload, other.payload)

    # Equality of fractions over gcd-free bases is cross multiplication, for
    # which no structural hash exists; elements are therefore unhashable.
    __hash__ = None

    def is_zero(self) -> bool:
        return self.semiring._eq(self.payload, self.semiring.zero.payload)

    def __str__(self) -> str:
        return self.semiring._text(self.payload)

    def __repr__(self) -> str:
        return f"<{self.semiring.sid}: {self}>"


class Semiring(ABC):
    """Base class for catalogue instances.

    Subclasses implement payload-level primitives; the element-level API
    here validates instance membership and wraps results canonically.  Each
    sets the paper's hypotheses as the flags ``mc`` (multiplicatively
    cancellative), ``entire``, ``zerosumfree`` and ``semifield``: semifield
    implies mc, which implies entire.
    """

    sid: str
    # True when canonical payloads make structural equality exact.
    structural_eq: bool = True
    # True when the additive monoid is cancellative (a+b = a+c implies b = c);
    # lifts multiplicative cancellation to polynomial extensions.
    additively_cancellative: bool = False
    # set to a two-argument gcd on payloads where one exists (nat, ideals-z)
    payload_gcd = None
    # lower bounds on the bits and the terms of p^n for n >= 0 and of p*q, which
    # power and mul check against the budgets; none where results do not grow
    # (tropical, fuzzy) or may shrink (products that reduce: qnn, fractions)
    _power_size = staticmethod(lambda p, n: (0, 0))
    _product_size = staticmethod(lambda p, q: (0, 0))

    # -- payload primitives -------------------------------------------------

    @abstractmethod
    def _zero(self): ...

    @abstractmethod
    def _one(self): ...

    @abstractmethod
    def _add(self, p, q): ...

    @abstractmethod
    def _mul(self, p, q): ...

    @abstractmethod
    def _canon(self, p): ...

    @abstractmethod
    def _is_unit(self, p) -> bool: ...

    @abstractmethod
    def _sampler(self, rng, bound):
        """A zero-argument draw of random payloads within the size bound;
        building it takes nothing from rng."""

    @abstractmethod
    def _preamble(self) -> tuple: ...

    _eq = staticmethod(operator.eq)

    def _text(self, p) -> str:
        return str(p)

    # carriers with units other than one override this
    def _inv(self, p):
        one = self._one()
        if self._eq(p, one):
            return p
        raise UnsupportedOperationError(
            f"{self.sid}: only {self._text(one)} is invertible")

    def _from_literal(self, q):
        return self._canon(q)

    def _nonzero_sampler(self, rng, bound):
        """The draw of _sampler, retried while zero; one after 64 zeros."""
        draw, zero, eq = self._sampler(rng, bound), self._zero(), self._eq

        def nonzero():
            for _ in range(64):
                p = draw()
                if not eq(p, zero):
                    return p
            return self._one()
        return nonzero

    # -- element-level API ---------------------------------------------------

    def _claim(self, x: Element) -> None:
        if not isinstance(x, Element) or x.semiring is not self:
            raise InstanceMismatchError(f"expected an element of {self.sid}")

    def element(self, payload) -> Element:
        return Element(self, self._canon(payload))

    @cached_property
    def zero(self) -> Element:
        return Element(self, self._zero())

    @cached_property
    def one(self) -> Element:
        return Element(self, self._one())

    def add(self, a: Element, b: Element) -> Element:
        self._claim(a)
        self._claim(b)
        return Element(self, self._add(a.payload, b.payload))

    def mul(self, a: Element, b: Element) -> Element:
        self._claim(a)
        self._claim(b)
        self._check_size("product", *self._product_size(a.payload, b.payload))
        return Element(self, self._mul(a.payload, b.payload))

    def eq(self, a: Element, b: Element) -> bool:
        self._claim(a)
        self._claim(b)
        return self._eq(a.payload, b.payload)

    def is_unit(self, a: Element) -> bool:
        self._claim(a)
        return self._is_unit(a.payload)

    def inv(self, a: Element) -> Element:
        self._claim(a)
        return Element(self, self._inv(a.payload))

    def div(self, a: Element, b: Element) -> Element:
        return self.mul(a, self.inv(b))

    def power(self, a: Element, n: int) -> Element:
        self._claim(a)
        if not isinstance(n, int):
            raise ValueError(f"integer exponent expected, got {n!r}")
        if n < 0:
            return self.power(self.inv(a), -n)
        self._check_size("power", *self._power_size(a.payload, n))
        return Element(self, _square_and_multiply(self._mul, self._one(), a.payload, n))

    def _check_size(self, what: str, bits: int, terms: int) -> None:
        """Refuse a result whose size bounds pass a budget."""
        if bits > _POWER_BITS or terms > _POWER_TERMS:
            budget = (f"{_POWER_BITS} bits" if bits > _POWER_BITS
                      else f"{_POWER_TERMS} terms")
            raise ValueError(f"{self.sid} {what}: the result would pass the budget "
                             f"of {budget}")

    def from_literal(self, q) -> Element:
        if isinstance(q, Fraction) and q.denominator == 1:
            q = int(q)
        return Element(self, self._canon(self._from_literal(q)))

    def indeterminate(self) -> Element:
        raise UnsupportedOperationError(f"{self.sid} has no indeterminate X")

    def infinity(self) -> Element:
        raise UnsupportedOperationError(f"{self.sid} has no element inf")

    def sample(self, rng, bound: int) -> Element:
        return Element(self, self._sampler(rng, bound)())

    @cached_property
    def preamble(self) -> tuple:
        """Small fixed payloads placed at the head of every sample stream."""
        return tuple(self._canon(p) for p in self._preamble())

    def __repr__(self) -> str:
        return f"Semiring({self.sid})"
