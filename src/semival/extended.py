"""Totally ordered scalar domains with an adjoined absorbing top element.

Valuation values live in one of a small closed registry of totally ordered
commutative monoids: the trivial monoid ``{0}``, the naturals ``N0``, the
integers ``Z`` and the rationals ``Q``.  Every domain gains a greatest
element (printed ``inf``) that absorbs addition and compares strictly above
every finite value.  All values are immutable; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DOMAINS = ("trivial", "N0", "Z", "Q")

# Group completion of each registered domain (differences, normalised).
GROUP_COMPLETION = {"trivial": "trivial", "N0": "Z", "Z": "Z", "Q": "Q"}

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


def _check_scalar(domain: str, value):
    if domain == "trivial":
        if value != 0:
            raise ValueError(f"trivial domain only contains 0, got {value!r}")
        return 0
    if domain == "N0":
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"N0 values are nonnegative ints, got {value!r}")
        return value
    if domain == "Z":
        if not isinstance(value, int):
            raise ValueError(f"Z values are ints, got {value!r}")
        return value
    if domain == "Q":
        if not isinstance(value, (int, Fraction)):
            raise ValueError(f"Q values are ints or Fractions, got {value!r}")
        return value
    raise ValueError(f"unknown value domain {domain!r}")


@dataclass(frozen=True)
class ExtendedValue:
    """A finite scalar in a named domain, or the adjoined greatest element.

    ``value is None`` encodes the top element.
    """

    domain: str
    value: int | Fraction | None

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown value domain {self.domain!r}")
        if self.value is not None:
            object.__setattr__(self, "value", _check_scalar(self.domain, self.value))

    @classmethod
    def fin(cls, domain: str, value) -> "ExtendedValue":
        return cls(domain, value)

    @classmethod
    def inf(cls, domain: str) -> "ExtendedValue":
        return cls(domain, None)

    @classmethod
    def _unchecked(cls, domain: str, value) -> "ExtendedValue":
        """A value that lies in the domain by construction (a valuation
        rule's result, a sum of two values); validation is skipped.  Outside
        input goes through ``fin``, ``inf`` or the constructor."""
        obj = object.__new__(cls)
        fields = obj.__dict__
        fields["domain"] = domain
        fields["value"] = value
        return obj

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def __lt__(self, other):
        return ext_compare(self, other) == LT

    def __le__(self, other):
        return ext_compare(self, other) != GT

    def __gt__(self, other):
        return ext_compare(self, other) == GT

    def __ge__(self, other):
        return ext_compare(self, other) != LT


def _same_domain(a: ExtendedValue, b: ExtendedValue) -> None:
    if a.domain != b.domain:
        raise DomainMismatchError(f"domains differ: {a.domain!r} vs {b.domain!r}")


def ext_add(a: ExtendedValue, b: ExtendedValue) -> ExtendedValue:
    """Tomonoid addition; the top element absorbs."""
    _same_domain(a, b)
    return ExtendedValue._unchecked(a.domain, _raw_add(a.value, b.value))


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
    if a.domain == "N0":
        raise ValueError("N0 is not a group; negate in its completion Z")
    return ExtendedValue.fin(a.domain, -a.value)


def ext_difference(a: ExtendedValue, b: ExtendedValue) -> ExtendedValue:
    """a - b in the group completion of the shared domain; b must be finite."""
    _same_domain(a, b)
    if b.is_inf:
        raise ValueError("cannot subtract the top element")
    target = GROUP_COMPLETION[a.domain]
    if a.is_inf:
        return ExtendedValue.inf(target)
    return ExtendedValue.fin(target, a.value - b.value)
