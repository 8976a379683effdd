"""Shared element expression grammar.

Whitespace-insensitive.  Supported forms: integer literals (negative only
where the carrier has them), rational literals via division of integer
literals, the reserved literal ``inf`` (tropical carriers only), the
indeterminate ``X``, ``^`` with integer exponents (parenthesised rationals
where the exponent monoid allows them), ``+``, ``*``, and ``(e1)/(e2)``
building a fraction over a fraction instance.  Content polynomials use the
same grammar extended with the fresh indeterminate ``Y``.

Ideal literals: ``ideal[e1, e2, ...]`` and ``fuzzy[0,a]`` / ``fuzzy[0,a)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from typing import TYPE_CHECKING

from .instances import FractionSemiring, MonoidSemiring, split_top_level
from .semiring import _POWER_TERMS, Element, Semiring, _square_and_multiply

# parsing an element needs neither .content nor .ideals: the content and
# ideal parsers import them when they run
if TYPE_CHECKING:
    from .content import ContentPolynomial


class ParseError(ValueError):
    """Syntax error with position and the tokens that were expected."""

    def __init__(self, message: str, pos: int, expected: tuple[str, ...] = ()):
        self.pos = pos
        self.expected = expected
        text = f"{message} at position {pos}"
        if expected:
            text += " (expected " + " or ".join(expected) + ")"
        super().__init__(text)


# (kind, value, pos), where kind is int, name, sym or end
_Token = tuple[str, object, int]


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+*/^()[],-":
            tokens.append(("sym", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent over +, * and /, ^, atoms."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        self.i += 1
        return self.tokens[self.i - 1]

    def expect_sym(self, sym: str) -> _Token:
        if self.at_sym(sym):
            return self.take()
        raise ParseError("syntax error", self.peek()[2], (repr(sym),))

    def at_sym(self, sym: str) -> bool:
        return self.peek()[:2] == ("sym", sym)

    def parse_expr(self):
        node = self.parse_term()
        while self.at_sym("+"):
            self.take()
            node = ("add", node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_power()
        while self.at_sym("*") or self.at_sym("/"):
            op = self.take()[1]
            rhs = self.parse_power()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_power(self):
        node = self.parse_atom()
        if self.at_sym("^"):
            self.take()
            node = ("pow", node, self.parse_exponent())
        return node

    def expect_int(self) -> int:
        kind, _, pos = self.peek()
        if kind == "int":
            return self.take()[1]
        raise ParseError("syntax error", pos, ("integer",))

    def signed_int(self) -> int:
        """An integer literal with an optional leading minus."""
        if self.at_sym("-"):
            self.take()
            return -self.expect_int()
        return self.expect_int()

    def parse_exponent(self):
        kind, _, pos = self.peek()
        if kind == "int" or self.at_sym("-"):
            return self.signed_int()
        if self.at_sym("("):
            self.take()
            num = self.signed_int()
            self.expect_sym("/")
            den = self.expect_int()
            self.expect_sym(")")
            # a (numerator, denominator) pair, checked once the instance is known
            return (num, den)
        raise ParseError("syntax error", pos, ("integer exponent",))

    def parse_atom(self):
        kind, value, pos = self.peek()
        if kind == "int" or self.at_sym("-"):
            return ("int", self.signed_int())
        if kind == "name":
            self.take()
            return ("name", value, pos)
        if self.at_sym("("):
            self.take()
            node = self.parse_expr()
            self.expect_sym(")")
            return node
        raise ParseError("syntax error", pos, ("literal", "'X'", "'('",))

    def finish(self, node):
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos, ("end of input",))
        return node


def _parse_ast(text: str):
    p = _Parser(text)
    return p.finish(p.parse_expr())


def _int_literal(node):
    return node[1] if node[0] == "int" else None


def _ratio(instance: Semiring, num: int, den: int) -> Fraction:
    if den == 0:
        raise ZeroDivisionError(f"{instance.sid}: zero denominator")
    return Fraction(num, den)


def _eval_element(node, instance: Semiring) -> Element:
    kind = node[0]
    if kind == "int":
        return instance.from_literal(node[1])
    if kind == "name":
        name, pos = node[1], node[2]
        if name == "X":
            return instance.indeterminate()
        if name == "inf":
            return instance.infinity()
        raise ParseError(f"unknown name {name!r}", pos, ("'X'", "'inf'"))
    if kind == "add":
        return instance.add(_eval_element(node[1], instance),
                            _eval_element(node[2], instance))
    if kind == "mul":
        return instance.mul(_eval_element(node[1], instance),
                            _eval_element(node[2], instance))
    if kind == "div":
        if isinstance(instance, FractionSemiring):
            num = _eval_element(node[1], instance.base)
            den = _eval_element(node[2], instance.base)
            return instance.fraction(num, den)
        left_int = _int_literal(node[1])
        right_int = _int_literal(node[2])
        if left_int is not None and right_int is not None:
            return instance.from_literal(_ratio(instance, left_int, right_int))
        if instance.semifield:
            return instance.div(_eval_element(node[1], instance),
                                _eval_element(node[2], instance))
        raise ValueError(f"{instance.sid} has no division")
    if kind == "pow":
        exponent = node[2]
        if isinstance(exponent, tuple):
            exponent = _ratio(instance, *exponent)
            base_node = node[1]
            if (base_node[0] == "name" and base_node[1] == "X"
                    and isinstance(instance, MonoidSemiring)
                    and instance.exponents.name == "Q"):
                return instance.element(
                    instance.monomial_payload(exponent, instance.base._one()))
            raise ValueError(f"{instance.sid}: rational exponents only apply "
                             "to X over rational exponent monoids")
        return instance.power(_eval_element(node[1], instance), exponent)
    raise AssertionError(f"unhandled node {node!r}")


def _depth_guarded(parse):
    """Report input nested past the interpreter's recursion limit as a
    parse error instead of a crash.  Only the grammar's own recursion, the
    parser and the tree walks, counts as nesting: a RecursionError raised
    inside the arithmetic they call propagates as it is."""
    @wraps(parse)
    def guarded(text, *args, **kwargs):
        try:
            return parse(text, *args, **kwargs)
        except RecursionError as exc:
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            if tb.tb_frame.f_code.co_filename != __file__:
                raise
            raise ParseError("expression nests too deeply", 0) from None
    return guarded


@_depth_guarded
def parse_element(text: str, instance: Semiring) -> Element:
    """Parse one element of the given instance from the shared grammar."""
    return _eval_element(_parse_ast(text), instance)


def _mentions_y(node) -> bool:
    if node[0] == "name":
        return node[1] == "Y"
    if node[0] in ("add", "mul", "div"):
        return _mentions_y(node[1]) or _mentions_y(node[2])
    if node[0] == "pow":
        return _mentions_y(node[1])
    return False


@_depth_guarded
def parse_content_polynomial(text: str, instance: Semiring) -> ContentPolynomial:
    """Parse a polynomial in the fresh indeterminate Y with coefficients in
    the given instance."""
    from .content import _poly, cp_add, cp_mul

    one = instance._one()

    def evaluate(node) -> ContentPolynomial:
        kind = node[0]
        if kind == "name" and node[1] == "Y":
            return _poly(instance, [instance._zero(), one])
        if kind == "add":
            return cp_add(evaluate(node[1]), evaluate(node[2]))
        if kind == "mul":
            return cp_mul(evaluate(node[1]), evaluate(node[2]))
        if kind == "pow" and isinstance(node[2], int) and _mentions_y(node[1]):
            if node[2] < 0:
                raise ValueError("negative powers of Y are not polynomials")
            base = evaluate(node[1])
            if node[2] * base.degree() >= _POWER_TERMS:
                raise ValueError("Y power: the result would pass the budget of "
                                 f"{_POWER_TERMS} terms")
            return _square_and_multiply(cp_mul, _poly(instance, [one]), base, node[2])
        if _mentions_y(node):
            raise ValueError("Y may only appear in sums, products and powers")
        return _poly(instance, [_eval_element(node, instance).payload])

    return evaluate(_parse_ast(text))


def parse_ideal(text: str, instance: Semiring, dvs=None):
    """Parse ``ideal[e1, ...]`` into a finitely generated ideal, or
    ``fuzzy[0,a]`` / ``fuzzy[0,a)`` into an interval ideal.  Nesting is
    bounded by ``parse_element``, which parses every part."""
    from .ideals import IntervalIdeal, make_ideal

    stripped = text.strip()
    if stripped.startswith("ideal[") and stripped.endswith("]"):
        inner = stripped[len("ideal["):-1]
        parts = split_top_level(inner)
        gens = [parse_element(part, instance) for part in parts if part.strip()]
        if not gens:
            raise ParseError("an ideal needs at least one generator",
                             len("ideal["))
        return make_ideal(instance, gens, dvs=dvs)
    if stripped.startswith("fuzzy[0,") and stripped[-1] in ")]":
        if instance.sid != "fuzzy":
            raise ValueError("interval ideals only exist over fuzzy")
        endpoint = parse_element(stripped[len("fuzzy[0,"):-1], instance)
        return IntervalIdeal(endpoint.payload, stripped.endswith("]"))
    raise ParseError("expected ideal[...] or fuzzy[0,...]", 0)
