"""Fraction semifields of cancellative instances, ordered difference groups,
and the canonical extension of a valuation to fractions.

The difference group of a cancellative ordered monoid stores formal pairs
(x - y); equality and order unfold to cross sums, which is also exactly how
fraction equality unfolds to cross products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instances import FractionSemiring, get_instance
from .semiring import Element, InstanceMismatchError
from .valuation import Valuation, fraction_extension


@dataclass(frozen=True, eq=False)
class DifferencePair:
    """A formal difference pos - neg of monoid values (ints or Fractions)."""

    pos: int | Fraction
    neg: int | Fraction

    def __eq__(self, other):
        if not isinstance(other, DifferencePair):
            return NotImplemented
        return self.pos + other.neg == self.neg + other.pos

    __hash__ = None

    def __add__(self, other):
        return DifferencePair(self.pos + other.pos, self.neg + other.neg)

    def __le__(self, other):
        return self.pos + other.neg <= self.neg + other.pos

    def __str__(self):
        return f"({self.pos} - {self.neg})"


def gp_embed(m) -> DifferencePair:
    return DifferencePair(m, 0)


def gp_ops(op: str, *args):
    """Dispatch surface for difference-group arithmetic: add, leq, embed."""
    if op == "add":
        a, b = args
        return a + b
    if op == "leq":
        a, b = args
        return a <= b
    if op == "embed":
        (m,) = args
        return gp_embed(m)
    raise ValueError(f"unknown difference-group operation {op!r}")


def _fraction_instance(a: Element) -> FractionSemiring:
    if not isinstance(a.semiring, FractionSemiring):
        raise InstanceMismatchError(f"{a.semiring.sid} is not a fraction instance")
    return a.semiring


def frac_arith(op: str, a: Element, b: Element | None = None) -> Element:
    """Fraction arithmetic surface: add, mul, inv (inv is unary)."""
    frs = _fraction_instance(a)
    if op == "inv":
        if b is not None:
            raise ValueError("inv takes a single fraction")
        return frs.inv(a)
    if b is None:
        raise ValueError(f"{op} takes two fractions")
    if op == "add":
        return frs.add(a, b)
    if op == "mul":
        return frs.mul(a, b)
    raise ValueError(f"unknown fraction operation {op!r}")


def embed_in_fractions(frs: FractionSemiring, z: Element) -> Element:
    """The canonical embedding z -> z/1 of the base into its fractions."""
    frs.base._claim(z)
    return Element(frs, frs._canon((z.payload, frs.base._one())))


def extend_valuation(v: Valuation) -> Valuation:
    """Extend a valuation on a cancellative instance to its fraction
    semifield, x/y -> v(x) - v(y) (see ``fraction_extension``).

    The nonnegative part of the source embeds into the nonnegative part of
    the result via z -> z/1.
    """
    src = v.source
    if not src.mc:
        raise ValueError(f"{src.sid} is not multiplicatively cancellative")
    return fraction_extension(f"ext({v.rule})", v,
                              get_instance(f"fractions({src.sid})"))
