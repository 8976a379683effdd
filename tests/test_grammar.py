import math
import re
from fractions import Fraction

import pytest

from semival.grammar import (
    ParseError,
    parse_content_polynomial,
    parse_element,
    parse_ideal,
)
from semival.ideals import IntervalIdeal
from semival.instances import get_instance
from semival.reports import SampleSpec
from semival.sampling import stream
from semival.semiring import Semiring


def test_polynomial_parsing():
    poly = get_instance("poly(nat)")
    e = parse_element("3*X^2 + X", poly)
    assert e.payload == ((1, 1), (2, 3))
    assert parse_element("0", poly) == poly.zero
    assert parse_element("(1+X)*(1+X)", poly) == \
        poly.mul(poly.add(poly.one, poly.indeterminate()),
                 poly.add(poly.one, poly.indeterminate()))


def test_fraction_parsing():
    frq = get_instance("fractions(qnn)")
    e = parse_element("(50)/(3)", frq)
    assert e.payload == (Fraction(50, 3), Fraction(1))
    fpn = get_instance("fractions(poly(nat))")
    e = parse_element("(X^2)/(1+X)", fpn)
    assert e.payload == (((2, 1),), ((0, 1), (1, 1)))


def test_rational_and_negative_literals():
    qnn = get_instance("qnn")
    assert parse_element("1/2 + 1/3", qnn).payload == Fraction(5, 6)
    fuzzy = get_instance("fuzzy")
    assert parse_element("1/2", fuzzy).payload == Fraction(1, 2)
    trop = get_instance("tropical-int")
    assert parse_element("-3", trop).payload == -3
    assert parse_element("inf", trop) == trop.infinity()
    with pytest.raises(ValueError):
        parse_element("-3", get_instance("nat"))
    with pytest.raises(ValueError):
        parse_element("inf", get_instance("nat"))


def test_rational_literals_over_a_fractions_base():
    # a rational literal becomes numerator/denominator in the base
    poly = get_instance("poly(fractions(nat))")
    assert str(parse_element("(1/2)*X^2 + 3/4", poly)) == "(3)/(4) + (1)/(2)*X^2"


def test_exponent_domain_enforcement():
    with pytest.raises(Exception):
        parse_element("X^-1", get_instance("poly(nat)"))
    lau = get_instance("laurent(nat)")
    assert parse_element("X^-1", lau) == lau.inv(lau.indeterminate())
    monq = get_instance("monoid(nat,Q)")
    e = parse_element("X^(1/2) * X^(1/2)", monq)
    assert e == monq.indeterminate()
    with pytest.raises(ValueError):
        parse_element("X^(1/2)", lau)
    trop = get_instance("tropical-int")
    assert parse_element("3^-1", trop).payload == -3


def test_parse_errors_carry_position():
    poly = get_instance("poly(nat)")
    with pytest.raises(ParseError) as err:
        parse_element("3*X^", poly)
    assert err.value.pos == 4
    with pytest.raises(ParseError) as err:
        parse_element("1 + ", poly)
    assert err.value.expected
    with pytest.raises(ParseError):
        parse_element("1 ) 2", poly)
    with pytest.raises(ParseError):
        parse_element("Z + 1", poly)
    with pytest.raises(ValueError):
        parse_element("1/2", get_instance("nat"))


@pytest.mark.parametrize("text,pos,expected", [
    ("X^-", 3, ("integer",)),
    ("X^(1/)", 5, ("integer",)),
    ("X^(-/2)", 4, ("integer",)),
    ("-", 1, ("integer",)),
    ("X^(1/2", 6, ("')'",)),
    ("X^", 2, ("integer exponent",)),
    # a superscript is a digit but not a decimal digit
    ("\u00b2", 0, ()),
    ("5\u00b2", 1, ()),
])
def test_malformed_literals_and_exponents(text, pos, expected):
    with pytest.raises(ParseError) as err:
        parse_element(text, get_instance("monoid(nat,Q)"))
    assert (err.value.pos, err.value.expected) == (pos, expected)


@pytest.mark.parametrize("sid,text", [
    ("qnn", "1/0"), ("fuzzy", "0/0"), ("tropical-int", "-3/0"), ("nat", "4/0"),
    ("monoid(nat,Q)", "X^(1/0)"), ("monoid(nat,Q)", "X^(-2/0)"), ("poly(nat)", "X^(1/0)"),
])
def test_zero_denominators_name_the_instance(sid, text):
    with pytest.raises(ZeroDivisionError, match=rf"^{re.escape(sid)}: zero denominator$"):
        parse_element(text, get_instance(sid))


def test_division_requires_capability():
    with pytest.raises(ValueError):
        parse_element("(1+2)/(1+1)", get_instance("fuzzy"))
    qnn = get_instance("qnn")
    assert parse_element("(1+2)/(2)", qnn).payload == Fraction(3, 2)


def test_powers_of_content_polynomials_square_and_multiply():
    from semival.content import cp_mul
    nat = get_instance("nat")
    for n in (0, 1, 2, 7, 40, 1023):
        assert parse_content_polynomial(f"(1+Y)^{n}", nat).coeffs == \
            tuple(math.comb(n, k) for k in range(n + 1))
    # the same coefficient payloads as n successive products
    for sid, base in (("nat", "2 + 3*Y"), ("nat", "Y"), ("nat", "0*Y"),
                      ("poly(nat)", "X + (1+X)*Y^2"), ("poly(nat)", "(1+X)*Y")):
        inst = get_instance(sid)
        f = parse_content_polynomial(base, inst)
        power = parse_content_polynomial("1", inst)
        for n in range(41):
            assert parse_content_polynomial(f"({base})^{n}", inst) == power, (base, n)
            power = cp_mul(power, f)


def test_content_polynomial_parsing():
    nat = get_instance("nat")
    f = parse_content_polynomial("2 + 3*Y", nat)
    assert f.coeffs == (2, 3)
    g = parse_content_polynomial("(1 + Y)^2", nat)
    assert g.coeffs == (1, 2, 1)
    h = parse_content_polynomial("5", nat)
    assert h.degree() == 0
    poly = get_instance("poly(nat)")
    mixed = parse_content_polynomial("3*X^2 + X*Y", poly)
    assert mixed.coeffs == (((2, 3),), ((1, 1),))
    with pytest.raises(ValueError):
        parse_content_polynomial("Y^-1", nat)


def test_deep_nesting_raises_parse_error():
    nat = get_instance("nat")
    deep = "(" * 2000 + "1" + ")" * 2000
    for parse, text in ((parse_element, deep),
                        (parse_content_polynomial, deep + "*Y"),
                        (parse_ideal, f"ideal[{deep}]")):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse(text, nat)
    assert parse_element("(" * 50 + "1" + ")" * 50, nat) == nat.one


def test_recursion_in_the_arithmetic_is_no_nesting(monkeypatch):
    def exhausted(self, a, n):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(Semiring, "power", exhausted)
    nat = get_instance("nat")
    with pytest.raises(RecursionError):
        parse_element("2^99999999999", nat)
    # a long flat sum nests only in the tree walk: still a parse error
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_element("+".join(["1"] * 5000), nat)


def test_ideal_literals():
    nat = get_instance("nat")
    I = parse_ideal("ideal[2, 3]", nat)
    assert sorted(g.payload for g in I.generators) == [2, 3]
    fuzzy = get_instance("fuzzy")
    A = parse_ideal("fuzzy[0,1/2]", fuzzy)
    assert A == IntervalIdeal(Fraction(1, 2), True)
    B = parse_ideal("fuzzy[0,1/2)", fuzzy)
    assert B == IntervalIdeal(Fraction(1, 2), False)
    with pytest.raises(ParseError):
        parse_ideal("ideal[]", nat)
    with pytest.raises(ParseError):
        parse_ideal("notideal[1]", nat)
    with pytest.raises(ValueError):
        parse_ideal("fuzzy[0,1/2]", nat)


@pytest.mark.parametrize("sid", [
    "nat", "qnn", "fuzzy", "tropical-int", "tropical-nat", "ideals-z",
    "bool-poly", "poly(nat)", "laurent(nat)", "monoid(nat,N0)",
    "monoid(nat,Z)", "fractions(nat)", "fractions(poly(nat))",
    "fractions(ideals-z)",
])
def test_rendered_elements_parse_back(sid):
    instance = get_instance(sid)
    for x in map(instance.element, stream(instance, SampleSpec(5, 120, 12))):
        assert parse_element(str(x), instance) == x, (sid, str(x))


def test_whitespace_insensitive():
    poly = get_instance("poly(nat)")
    assert parse_element("3 * X ^ 2+X", poly) == parse_element("3*X^2 + X", poly)
