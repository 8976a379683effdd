import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from semival.extended import (
    EQ,
    GT,
    LT,
    DomainMismatchError,
    ExtendedValue,
    ext_add,
    ext_compare,
    ext_difference,
    ext_min,
    ext_neg,
)

fin = ExtendedValue


def inf(domain):
    return ExtendedValue(domain, None)


ints = st.integers(min_value=-50, max_value=50)
maybe_inf = st.one_of(ints, st.none())


def zval(v):
    return inf("Z") if v is None else fin("Z", v)


def test_spec_examples():
    assert ext_add(fin("Z", 2), fin("Z", 3)) == fin("Z", 5)
    assert ext_add(fin("Z", 2), inf("Z")) == inf("Z")
    assert ext_add(inf("Z"), fin("Z", 2)) == inf("Z")
    assert ext_add(inf("Z"), inf("Z")) == inf("Z")
    assert ext_compare(fin("N0", 0), inf("N0")) == LT
    assert ext_compare(fin("Z", -1), fin("Z", 1)) == LT
    assert ext_compare(inf("Z"), inf("Z")) == EQ


def test_domain_validation():
    with pytest.raises(ValueError):
        fin("N0", -1)
    with pytest.raises(ValueError):
        fin("trivial", 1)
    with pytest.raises(ValueError):
        fin("nope", 0)
    with pytest.raises(DomainMismatchError):
        ext_add(fin("Z", 0), fin("N0", 0))
    assert fin("Q", Fraction(1, 2)) < fin("Q", 1)


@given(maybe_inf, maybe_inf)
def test_add_commutative(a, b):
    assert ext_add(zval(a), zval(b)) == ext_add(zval(b), zval(a))


@given(maybe_inf, maybe_inf, maybe_inf)
def test_add_associative(a, b, c):
    x, y, z = zval(a), zval(b), zval(c)
    assert ext_add(ext_add(x, y), z) == ext_add(x, ext_add(y, z))


@given(maybe_inf)
def test_identity_and_absorption(a):
    x = zval(a)
    assert ext_add(x, fin("Z", 0)) == x
    assert ext_add(x, inf("Z")) == inf("Z")
    assert x <= inf("Z")


@given(maybe_inf, maybe_inf, maybe_inf)
def test_order_compatible_with_addition(a, b, c):
    x, y, z = zval(a), zval(b), zval(c)
    if x <= y:
        assert ext_add(x, z) <= ext_add(y, z)


@given(maybe_inf, maybe_inf)
def test_total_order(a, b):
    x, y = zval(a), zval(b)
    assert ext_compare(x, y) in (LT, EQ, GT)
    assert ext_compare(x, y) == -ext_compare(y, x)
    assert ext_min(x, y) in (x, y)
    assert ext_min(x, y) <= x and ext_min(x, y) <= y


def test_order_operators_refuse_mixed_domains_and_put_inf_on_top():
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(DomainMismatchError):
            compare(fin("Z", 0), fin("N0", 0))
        with pytest.raises(DomainMismatchError):
            compare(inf("Z"), inf("Q"))
    top = inf("Z")
    for x in (fin("Z", -50), fin("Z", 0), fin("Z", 10**30)):
        assert x < top and x <= top and top > x and top >= x
        assert not (top < x or top <= x or x > top or x >= top)
    assert top <= top and top >= top and not (top < top or top > top)


def test_negation_and_difference():
    assert ext_neg(fin("Z", 3)) == fin("Z", -3)
    with pytest.raises(ValueError):
        ext_neg(inf("Z"))
    with pytest.raises(ValueError):
        ext_neg(fin("N0", 3))
    assert ext_difference(fin("N0", 2), fin("N0", 5)) == fin("Z", -3)
    assert ext_difference(inf("N0"), fin("N0", 5)) == inf("Z")
    with pytest.raises(ValueError):
        ext_difference(fin("N0", 2), inf("N0"))


def test_str():
    assert str(fin("Z", -2)) == "-2"
    assert str(inf("N0")) == "inf"
    assert str(fin("Q", Fraction(1, 2))) == "1/2"
