"""Totally ordered scalar domains with an adjoined absorbing top element.

Valuation values live in one of a small closed registry of totally ordered
commutative monoids: the trivial monoid ``{0}``, the naturals ``N0``, the
integers ``Z`` and the rationals ``Q``.  The same monoids carry the
exponents of the monoid-semiring instances and the values of the tropical
instances.  Every domain gains a greatest element (printed ``inf``) that
absorbs addition and compares strictly above every finite value.  All
values are immutable; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


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


def _as_int(v):
    """v as an int when it is an int or an integral Fraction, else None."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v if isinstance(v, int) else None


def _as_natural(v):
    v = _as_int(v)
    return v if v is not None and v >= 0 else None


def _rational_draw(rng, cap: int):
    """Fraction(n, d) for n uniform in [-cap, cap] and d in (1, 2, 3), drawn
    n first, from a table of every value it can produce."""
    table = [[Fraction(n, d) for d in (1, 2, 3)] for n in range(-cap, cap + 1)]
    num, den = _uniform(rng, 0, 2 * cap), _uniform(rng, 0, 2)
    return lambda: table[num()][den()]


class Monoid:
    """One registered totally ordered commutative monoid.

    ``canon`` maps a member to its canonical form and anything else to None;
    ``inverses`` says whether every element has an inverse; ``completion``
    names the group completion; ``draw(rng, cap)`` builds a zero-argument
    draw of members of size at most cap, taking nothing from rng.
    """

    def __init__(self, name, canon, inverses, completion, draw):
        self.name = name
        self.canon = canon
        self.inverses = inverses
        self.completion = completion
        self.draw = draw

    def check(self, value):
        """The canonical form of a member; ValueError for anything else."""
        c = self.canon(value)
        if c is None:
            raise ValueError(f"{value!r} is not in {self.name}")
        return c


MONOIDS = {m.name: m for m in (
    # no carrier draws from the trivial monoid: it has no exponent 1 for X
    Monoid("trivial", lambda v: 0 if v == 0 else None, True, "trivial", None),
    Monoid("N0", _as_natural, False, "Z", lambda rng, cap: _uniform(rng, 0, cap)),
    Monoid("Z", _as_int, True, "Z", lambda rng, cap: _uniform(rng, -cap, cap)),
    Monoid("Q", lambda v: Fraction(v) if isinstance(v, (int, Fraction)) else None,
           True, "Q", _rational_draw),
)}

LT, EQ, GT = -1, 0, 1

# A raw value is a finite scalar, an int or a Fraction, or None for inf.
Raw = int | Fraction | None


def _raw_lt(a: Raw, b: Raw) -> bool:
    return a is not None and (b is None or a < b)


def _raw_min(a: Raw, b: Raw) -> Raw:
    return b if a is None or (b is not None and b < a) else a


def _raw_add(a: Raw, b: Raw) -> Raw:
    return None if a is None or b is None else a + b


def _nonnegative(r: Raw) -> bool:
    return r is None or r >= 0


class DomainMismatchError(ValueError):
    """Raised when two extended values from different domains are combined."""


@total_ordering
@dataclass(frozen=True)
class ExtendedValue:
    """A finite scalar in a named domain, or the adjoined greatest element.

    ``value is None`` encodes the top element.
    """

    domain: str
    value: int | Fraction | None

    def __post_init__(self):
        monoid = MONOIDS.get(self.domain)
        if monoid is None:
            raise ValueError(f"unknown value domain {self.domain!r}")
        if self.value is not None:
            object.__setattr__(self, "value", monoid.check(self.value))

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    # total_ordering derives <=, > and >= from this
    def __lt__(self, other):
        return ext_compare(self, other) == LT


def _same_domain(a: ExtendedValue, b: ExtendedValue) -> None:
    if a.domain != b.domain:
        raise DomainMismatchError(f"domains differ: {a.domain!r} vs {b.domain!r}")


def ext_add(a: ExtendedValue, b: ExtendedValue) -> ExtendedValue:
    """Tomonoid addition; the top element absorbs."""
    _same_domain(a, b)
    return ExtendedValue(a.domain, _raw_add(a.value, b.value))


def ext_compare(a: ExtendedValue, b: ExtendedValue) -> int:
    """Total order; returns LT, EQ or GT.  The top element is greatest."""
    _same_domain(a, b)
    if a.value == b.value:
        return EQ
    return LT if _raw_lt(a.value, b.value) else GT


def ext_min(a: ExtendedValue, b: ExtendedValue) -> ExtendedValue:
    _same_domain(a, b)
    return b if _raw_lt(b.value, a.value) else a


def ext_neg(a: ExtendedValue) -> ExtendedValue:
    """Additive inverse; only defined for finite values in group domains."""
    if a.is_inf:
        raise ValueError("the top element has no additive inverse")
    if not MONOIDS[a.domain].inverses:
        raise ValueError(f"{a.domain} is not a group; negate in its completion "
                         f"{MONOIDS[a.domain].completion}")
    return ExtendedValue(a.domain, -a.value)


def ext_difference(a: ExtendedValue, b: ExtendedValue) -> ExtendedValue:
    """a - b in the group completion of the shared domain; b must be finite."""
    _same_domain(a, b)
    if b.is_inf:
        raise ValueError("cannot subtract the top element")
    target = MONOIDS[a.domain].completion
    if a.is_inf:
        return ExtendedValue(target, None)
    return ExtendedValue(target, a.value - b.value)
