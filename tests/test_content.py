import pytest

from semival.content import (
    content,
    content_pairs,
    cp_add,
    cp_mul,
    dedekind_mertens_check,
    gaussian_check,
    gaussian_defect,
    make_content_poly,
)
from semival.dvs import standard_dvs_structures
from semival.ideals import ideal_member, ideal_product, ideal_subset
from semival.instances import get_instance
from semival.reports import SampleSpec
from semival.semiring import InstanceMismatchError

SPEC = SampleSpec(1, 300, 25)


def test_content_examples():
    idz = get_instance("ideals-z")
    f = make_content_poly(idz, [idz.element(4), idz.element(6)])
    assert [g.payload for g in content(f).generators] == [2]
    nat = get_instance("nat")
    g = make_content_poly(nat, [nat.element(2), nat.element(3)])
    assert sorted(gen.payload for gen in content(g).generators) == [2, 3]
    zero = make_content_poly(nat, [])
    assert content(zero).is_zero()
    stripped = make_content_poly(nat, [nat.element(1), nat.zero, nat.zero])
    assert stripped.degree() == 0


def test_polynomials_over_different_instances_do_not_mix():
    nat, qnn = get_instance("nat"), get_instance("qnn")
    f = make_content_poly(nat, [nat.element(2)])
    g = make_content_poly(qnn, [qnn.element(2)])
    for op in (cp_add, cp_mul):
        for a, b in ((f, g), (g, f)):
            with pytest.raises(InstanceMismatchError):
                op(a, b)
    with pytest.raises(InstanceMismatchError):
        make_content_poly(nat, [qnn.one])


def test_poly_multiplication_in_fresh_indeterminate():
    nat = get_instance("nat")
    f = make_content_poly(nat, [nat.element(2), nat.element(3)])
    ff = cp_mul(f, f)
    assert ff.coeffs == (4, 12, 9)
    assert str(f) == "(2) + (3)*Y"


def test_dedekind_mertens_spec_example_holds():
    nat = get_instance("nat")
    f = make_content_poly(nat, [nat.element(2), nat.element(3)])
    assert dedekind_mertens_check(f, f).holds
    assert dedekind_mertens_check(f, make_content_poly(nat, [])).holds


def test_dedekind_mertens_fails_without_subtractivity():
    # frozen counterexample over the naturals: f = 1 + 2Y, g = 3 + 5Y;
    # 5 = 1^2 * 5 generates into c(f)^2 c(g) but c(f) c(fg) only reaches
    # combinations of {3,6,10,11,20,22}, none of which hit 5
    nat = get_instance("nat")
    f = make_content_poly(nat, [nat.element(1), nat.element(2)])
    g = make_content_poly(nat, [nat.element(3), nat.element(5)])
    report = dedekind_mertens_check(f, g)
    assert not report.holds
    rhs = ideal_product(content(f), content(cp_mul(f, g)))
    assert not ideal_member(rhs, nat.element(5))
    lhs = ideal_product(ideal_product(content(f), content(f)), content(g))
    assert ideal_member(lhs, nat.element(5))


def test_dedekind_mertens_holds_on_subtractive_carriers():
    idz = get_instance("ideals-z")
    for f, g in content_pairs(idz, SampleSpec(1, 200, 40)):
        assert dedekind_mertens_check(f, g).holds
    qnn5 = standard_dvs_structures()[0]
    for f, g in content_pairs(qnn5, SampleSpec(1, 100, 20)):
        assert dedekind_mertens_check(f, g, qnn5).holds


def test_content_is_monotone_under_products():
    # every coefficient of fg lies in c(f) c(g) -- the unconditional half
    nat = get_instance("nat")
    for f, g in content_pairs(nat, SampleSpec(2, 60, 20)):
        prod = ideal_product(content(f), content(g))
        for c in cp_mul(f, g).coeffs:
            assert ideal_member(prod, nat.element(c))


def test_gaussian_check_verdicts():
    qnn5, _, deg, vm = standard_dvs_structures()
    assert gaussian_check(qnn5, SPEC).holds
    assert gaussian_check(get_instance("ideals-z"), SPEC).holds
    assert gaussian_check(vm, SampleSpec(1, 150, 15)).holds
    report = gaussian_check(deg, SampleSpec(1, 400, 10), max_degree=2)
    assert not report.holds
    f, g = report.witness[0], report.witness[1]
    assert not gaussian_defect(f, g, deg).holds


def test_gaussian_counterexample_re_verifies_by_content():
    # the canonical failing pair on the degree-difference carrier:
    # f = 1 + X*Y and g = X + Y multiply to X + (1 + X^2) Y + X Y^2,
    # whose content sits strictly inside c(f) c(g)
    deg = standard_dvs_structures()[2]
    frs = deg.ambient
    one, x = frs.one, frs.indeterminate()
    f = make_content_poly(frs, [one, x])
    g = make_content_poly(frs, [x, one])
    report = gaussian_defect(f, g, deg)
    assert not report.holds
    prod = ideal_product(content(f, deg), content(g, deg))
    cfg = content(cp_mul(f, g), deg)
    assert ideal_subset(cfg, prod).holds
    assert not ideal_subset(prod, cfg).holds


def test_gaussian_agreement_with_subtractivity_per_carrier():
    from semival.ideals import is_subtractive_bounded, positive_ideal
    for D in standard_dvs_structures():
        gauss = gaussian_check(D, SampleSpec(1, 200, 10), max_degree=2)
        subt = is_subtractive_bounded(positive_ideal(D.valuation),
                                      SampleSpec(1, 2000, 25))
        assert gauss.holds == subt.holds, D.name
