"""Exact-arithmetic valuation maps on commutative semirings.

A catalogue of concrete instances (naturals, nonnegative rationals,
Boolean and ordinary polynomials, tropical min-plus carriers, integer
ideals, fuzzy rationals, fraction semifields), valuation rules into
totally ordered value domains, finitely generated ideals with exact
membership oracles, discrete valuation structures, and polynomial content
identities, all wired into bounded executable law checks.
"""

from .extended import ExtendedValue, ext_add, ext_compare, ext_min
from .fracfield import DifferencePair, extend_valuation, frac_arith, gp_ops
from .ideals import (
    FinGenIdeal,
    IntervalIdeal,
    fuzzy_ideal_classify,
    ideal_member,
    ideal_product,
    ideal_subset,
    ideal_sum,
    ideals_comparable,
    is_prime_bounded,
    is_subtractive_bounded,
    make_ideal,
    positive_ideal,
)
from .instances import get_instance, registered_instances
from .laws import check_semiring_axioms, probe_mc_entire
from .reports import LawReport, SampleSpec
from .valuation import (
    Valuation,
    check_min_property,
    check_valuation_axioms,
    get_valuation,
    level_membership,
    registered_valuations,
    units_vs_zeroset,
    valuate,
)

__all__ = [
    "DifferencePair", "ExtendedValue", "FinGenIdeal", "IntervalIdeal",
    "LawReport", "SampleSpec", "Valuation",
    "check_min_property", "check_semiring_axioms", "check_valuation_axioms",
    "ext_add", "ext_compare", "ext_min", "extend_valuation", "frac_arith",
    "fuzzy_ideal_classify", "get_instance", "get_valuation", "gp_ops",
    "ideal_member", "ideal_product", "ideal_subset", "ideal_sum",
    "ideals_comparable", "is_prime_bounded", "is_subtractive_bounded",
    "level_membership", "make_ideal", "positive_ideal",
    "probe_mc_entire", "registered_instances", "registered_valuations",
    "units_vs_zeroset", "valuate",
]
