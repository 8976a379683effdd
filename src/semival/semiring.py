"""Element and instance abstractions shared by the whole catalogue.

An instance is a commutative semiring with exact payload arithmetic and a
canonical form for every element.  All arithmetic is arbitrary precision
(ints and Fractions); there is no floating point anywhere.  Elements are
immutable and instances stateless, so everything here is safe to use
concurrently.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class InstanceMismatchError(ValueError):
    """Raised when an operation mixes elements of different instances."""


class UnsupportedOperationError(ValueError):
    """Raised when an instance lacks the requested capability."""


@dataclass(frozen=True)
class Capabilities:
    """Fixed, documented structural flags of one instance.

    Consistency is enforced: semifield implies mc implies entire.
    """

    mc: bool
    entire: bool
    zerosumfree: bool
    semifield: bool

    def __post_init__(self):
        if self.semifield and not self.mc:
            raise ValueError("semifield implies multiplicatively cancellative")
        if self.mc and not self.entire:
            raise ValueError("multiplicatively cancellative implies entire")


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

    def __add__(self, other):
        return self.semiring.add(self, other)

    def __mul__(self, other):
        return self.semiring.mul(self, other)

    def __pow__(self, n: int):
        return self.semiring.power(self, n)

    def is_zero(self) -> bool:
        return self.semiring._eq(self.payload, self.semiring._zero())

    def __str__(self) -> str:
        return self.semiring._text(self.payload)

    def __repr__(self) -> str:
        return f"<{self.semiring.sid}: {self}>"


class Semiring(ABC):
    """Base class for catalogue instances.

    Subclasses implement payload-level primitives; the element-level API
    here validates instance membership and wraps results canonically.
    """

    sid: str
    caps: Capabilities
    # True when canonical payloads make structural equality exact.
    structural_eq: bool = True
    # True when the additive monoid is cancellative (a+b = a+c implies b = c);
    # lifts multiplicative cancellation to polynomial extensions.
    additively_cancellative: bool = False
    # set to a two-argument gcd on payloads where one exists (nat, ideals-z)
    payload_gcd = None

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

    def _eq(self, p, q) -> bool:
        return p == q

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
        result = self.one
        base = a
        while True:
            if n & 1:
                result = self.mul(result, base)
            n >>= 1
            if not n:
                return result
            base = self.mul(base, base)

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
        """Small fixed elements placed at the head of every sample stream."""
        return tuple(Element(self, self._canon(p)) for p in self._preamble())

    def __repr__(self) -> str:
        return f"Semiring({self.sid})"
