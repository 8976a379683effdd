import json
import re
import time

import pytest

from semival.cli import CHECKS, _run_check, build_parser, main
from semival.instances import get_instance
from semival.reports import LawReport, SampleSpec
from semival.semiring import Semiring
from semival.valuation import check_min_property, get_valuation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_valuate(capsys):
    code, out, _ = run(capsys, "valuate", "--semiring", "nat",
                       "--valuation", "vp:5", "50")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "valuate", "--semiring", "nat",
                       "--valuation", "vp:5", "0")
    assert code == 0 and out.strip() == "inf"


def test_valuate_json_fields(capsys):
    code, out, _ = run(capsys, "valuate", "--semiring", "qnn",
                       "--valuation", "vp:5", "--output", "json", "50/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "valuate"
    assert payload["instance"] == "qnn"
    assert payload["valuation"] == "vp:5"
    assert payload["result"] == "2"
    assert set(payload["bound"]) == {"seed", "samples", "size_bound"}
    assert "elapsed_ms" in payload


def test_check_holds_and_counterexample_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--semiring", "qnn", "--valuation",
                       "vp:5", "--property", "min-property", "--samples", "400")
    assert code == 0
    code, out, _ = run(capsys, "check", "--semiring", "fractions(poly(nat))",
                       "--valuation", "deg-frac", "--property", "min-property",
                       "--samples", "400")
    assert code == 1
    assert "(1)/(1)" in out and "(X)/(1)" in out


# min-property's CLI output, recorded before its report became a LawReport
MIN_PROPERTY_OUTPUT = {
    ("qnn", "vp:5", "text"): (0, "min-property: holds [seed=1 samples=1000 size=50]"),
    ("qnn", "vp:5", "json"): (0, (
        '{"command": "check", "instance": "qnn", "valuation": "vp:5", '
        '"property": "min-property", "verdict": "holds", "bound": {"seed": 1, '
        '"samples": 1000, "size_bound": 50}, "witness": [], "detail": "", '
        '"result": null}')),
    ("fractions(poly(nat))", "deg-frac", "text"): (1, (
        "min-property: counterexample (v(x)=0 v(y)=1 v(x+y)=1) witness "
        "(1)/(1), (X)/(1) [seed=1 samples=1000 size=50]")),
    ("fractions(poly(nat))", "deg-frac", "json"): (1, (
        '{"command": "check", "instance": "fractions(poly(nat))", '
        '"valuation": "deg-frac", "property": "min-property", '
        '"verdict": "counterexample", "bound": {"seed": 1, "samples": 1000, '
        '"size_bound": 50}, "witness": ["(1)/(1)", "(X)/(1)"], '
        '"detail": "v(x)=0 v(y)=1 v(x+y)=1", "result": null}')),
}


@pytest.mark.parametrize("sid, rule, output", sorted(MIN_PROPERTY_OUTPUT))
def test_min_property_output_is_pinned(capsys, sid, rule, output):
    code, text = MIN_PROPERTY_OUTPUT[sid, rule, output]
    got, out, err = run(capsys, "check", "--semiring", sid, "--valuation", rule,
                        "--property", "min-property", "--output", output)
    assert (got, re.sub(r', "elapsed_ms": \d+', "", out), err) == (code, text + "\n", "")


@pytest.mark.parametrize("prop", sorted(CHECKS))
def test_every_check_returns_a_law_report_printed_as_it_is(capsys, prop):
    # deg-frac on its semifield accepts every property
    argv = ["check", "--semiring", "fractions(poly(nat))", "--valuation",
            "deg-frac", "--property", prop, "--samples", "60"]
    report = _run_check(build_parser().parse_args(argv))
    assert isinstance(report, LawReport)
    assert run(capsys, *argv) == (0 if report.holds else 1, f"{report}\n", "")


def test_check_min_property_prints_the_library_report(capsys):
    frs = get_instance("fractions(poly(nat))")
    report = check_min_property(get_valuation("deg-frac", frs), SampleSpec(1, 60, 50))
    assert isinstance(report, LawReport)
    assert run(capsys, "check", "--semiring", frs.sid, "--valuation", "deg-frac",
               "--property", "min-property", "--samples", "60") == (1, f"{report}\n", "")


def test_check_gaussian(capsys):
    code, _, _ = run(capsys, "check", "--semiring", "qnn", "--valuation",
                     "vp:5", "--property", "gaussian", "--samples", "150")
    assert code == 0
    code, _, _ = run(capsys, "check", "--semiring", "fractions(poly(nat))",
                     "--valuation", "deg-frac", "--property", "gaussian",
                     "--samples", "150")
    assert code == 1


def test_check_axioms_with_and_without_valuation(capsys):
    code, _, _ = run(capsys, "check", "--semiring", "tropical-int",
                     "--property", "axioms", "--samples", "300")
    assert code == 0
    code, _, _ = run(capsys, "check", "--semiring", "tropical-int",
                     "--valuation", "tropical-id", "--property", "axioms",
                     "--samples", "300")
    assert code == 0
    code, _, _ = run(capsys, "check", "--semiring", "nat", "--valuation",
                     "vp:5", "--property", "extension-axioms", "--samples", "300")
    assert code == 0
    code, _, _ = run(capsys, "check", "--semiring", "poly(nat)", "--valuation",
                     "low-order", "--property", "extension-axioms",
                     "--samples", "300")
    assert code == 0


def test_check_mc_and_entire(capsys):
    code, _, _ = run(capsys, "check", "--semiring", "fuzzy", "--property",
                     "mc", "--samples", "400")
    assert code == 1
    code, _, _ = run(capsys, "check", "--semiring", "fuzzy", "--property",
                     "entire", "--samples", "400")
    assert code == 0
    code, _, _ = run(capsys, "check", "--semiring", "qnn", "--valuation",
                     "vp:5", "--property", "subtractive", "--samples", "400")
    assert code == 0
    code, _, _ = run(capsys, "check", "--semiring", "qnn", "--valuation",
                     "vp:5", "--property", "prime", "--samples", "400")
    assert code == 0


def test_check_units_zeroset_gap(capsys):
    code, out, _ = run(capsys, "check", "--semiring", "laurent(nat)",
                       "--valuation", "low-order", "--property", "units-zeroset",
                       "--samples", "400")
    assert code == 1
    assert "1 + X" in out


def test_check_total_order(capsys):
    code, out, _ = run(capsys, "check", "--semiring", "qnn", "--valuation",
                       "vp:5", "--property", "total-order", "--samples", "100")
    assert code == 0
    # the report says how many of the pool's pairs it compared
    assert out == ("ideals-total-order[qnn]: holds (compared 100 of 990 pairs) "
                   "[seed=1 samples=90 size=12]\n")
    code, out, _ = run(capsys, "check", "--semiring", "qnn", "--valuation",
                       "vp:5", "--property", "total-order", "--samples", "5000")
    assert code == 0 and "(compared 990 of 990 pairs)" in out
    code, out, _ = run(capsys, "check", "--semiring", "bool-poly",
                       "--property", "total-order", "--samples", "100")
    assert code == 1
    assert out.startswith("ideals-total-order[bool-poly]: counterexample (between ")
    code, out, _ = run(capsys, "check", "--semiring", "nat",
                       "--property", "total-order", "--samples", "100")
    assert code == 1
    assert out == ("ideals-total-order[nat]: counterexample (between ideal[3, 5] "
                   "and ideal[2, 11]; compared 42 of 780 pairs) witness 3, 2 "
                   "[seed=1 samples=90 size=12]\n")
    code, out, _ = run(capsys, "check", "--semiring", "nat", "--property",
                       "total-order", "--samples", "100", "--output", "json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["verdict"], payload["witness"]) == ("counterexample", ["3", "2"])
    # the bound is the pool the check drew, not the requested one
    assert payload["bound"] == {"seed": 1, "samples": 90, "size_bound": 12}
    assert payload["detail"] == "between ideal[3, 5] and ideal[2, 11]; compared 42 of 780 pairs"
    code, out, _ = run(capsys, "check", "--semiring", "tropical-nat", "--property",
                       "total-order", "--samples", "10", "--output", "json")
    assert code == 0 and json.loads(out)["detail"] == "compared 10 of 703 pairs"


def test_check_total_order_counts_the_pairs_it_compares(capsys, monkeypatch):
    import semival.ideals as ideals
    calls = []
    real = ideals.ideals_comparable
    monkeypatch.setattr(ideals, "ideals_comparable",
                        lambda I, J, spec=None: calls.append(1) or real(I, J, spec))
    for sid, samples, compared in (("nat", "100", 42), ("bool-poly", "100", 34),
                                   ("tropical-nat", "25", 25)):
        calls.clear()
        code, out, _ = run(capsys, "check", "--semiring", sid, "--property",
                           "total-order", "--samples", samples)
        assert code in (0, 1) and f"compared {compared} of " in out
        assert len(calls) == compared


def test_factor_and_divmod(capsys):
    code, out, _ = run(capsys, "factor", "--semiring", "qnn", "--valuation",
                       "vp:5", "50/3")
    assert code == 0 and "unit = 2/3" in out and "exponent = 2" in out
    code, out, _ = run(capsys, "divmod", "--semiring", "qnn", "--valuation",
                       "vp:5", "10/3", "2/7")
    assert code == 0 and "q = 35/3" in out and "r = 0" in out


def test_ideal_subcommands(capsys):
    code, out, _ = run(capsys, "ideal", "--semiring", "ideals-z", "--op", "sum",
                       "ideal[4]", "ideal[6]")
    assert code == 0 and "ideal[2]" in out
    code, out, _ = run(capsys, "ideal", "--semiring", "nat", "--op", "contains",
                       "ideal[2,3]", "5")
    assert code == 0
    code, out, _ = run(capsys, "ideal", "--semiring", "nat", "--op", "contains",
                       "ideal[2,3]", "1")
    assert code == 1
    code, out, _ = run(capsys, "ideal", "--semiring", "bool-poly", "--op",
                       "comparable", "ideal[X]", "ideal[X+1]")
    assert code == 1
    code, out, _ = run(capsys, "ideal", "--semiring", "fuzzy", "--op",
                       "comparable", "fuzzy[0,1/2]", "fuzzy[0,1/2)")
    assert code == 0
    code, out, _ = run(capsys, "ideal", "--semiring", "fuzzy", "--op",
                       "subtractive", "fuzzy[0,1/2]", "--samples", "200")
    assert code == 0


@pytest.mark.parametrize("op, args", [("contains", ["ideal[1/5]", "1"]),
                                      ("sum", ["ideal[5]", "ideal[1/5, 25]"])])
def test_dvs_ideal_generators_must_lie_in_the_carrier(capsys, op, args):
    code, out, err = run(capsys, "ideal", "--semiring", "qnn", "--valuation",
                         "vp:5", "--op", op, *args)
    assert code == 2 and out == ""
    assert err == "error: 1/5 lies outside the carrier\n"


def test_dvs_ideal_product_prints_reduced_generators(capsys):
    code, out, _ = run(capsys, "ideal", "--semiring", "qnn", "--valuation", "vp:5",
                       "--op", "product", "ideal[5, 10]", "ideal[25, 3]",
                       "--output", "json")
    assert code == 0 and json.loads(out)["result"] == "ideal[15]"


@pytest.mark.parametrize("op, args", [("contains", ["fuzzy[0,0)", "0"]),
                                      ("subtractive", ["fuzzy[0,0)"])])
def test_empty_fuzzy_interval_is_refused(capsys, op, args):
    # [0,0) does not contain 0, so it is no ideal
    code, out, err = run(capsys, "ideal", "--semiring", "fuzzy", "--op", op, *args)
    assert code == 2 and out == ""
    assert err.startswith("error: fuzzy[0,0) is empty, not an ideal")


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "valuate", "--semiring", "nope", "--valuation",
               "vp:5", "1")[0] == 2
    assert run(capsys, "valuate", "--semiring", "nat", "--valuation",
               "vp:6", "1")[0] == 2
    assert run(capsys, "valuate", "--semiring", "nat", "--valuation",
               "vp:5", "X^")[0] == 2
    assert run(capsys, "valuate", "--semiring", "poly(nat)", "--valuation",
               "low-order", "X^-1")[0] == 2
    assert run(capsys, "check", "--semiring", "nat", "--property",
               "min-property")[0] == 2
    # argparse rejects unknown property names before any computation
    with pytest.raises(SystemExit):
        import semival.cli as cli
        cli.build_parser().parse_args(["check", "--semiring", "nat",
                                       "--property", "bogus"])


@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--samples", "-5"),
                                         ("--size-bound", "-1")])
def test_bounds_admitting_no_samples_are_usage_errors(capsys, flag, value):
    # "holds" over no samples would say nothing, so these never reach a check
    code, out, err = run(capsys, "check", "--semiring", "nat", "--property",
                         "axioms", flag, value)
    assert code == 2 and out == ""
    assert f"argument {flag}: must be at least" in err
    code, _, _ = run(capsys, "ideal", "--semiring", "nat", "--op", "subtractive",
                     "ideal[2,3]", flag, value)
    assert code == 2


def test_deep_nesting_is_a_parse_error(capsys):
    deep = "(" * 2000 + "5" + ")" * 2000
    code, out, err = run(capsys, "valuate", "--semiring", "nat", "--valuation",
                         "vp:5", deep)
    assert code == 2 and out == ""
    assert "expression nests too deeply" in err
    code, _, err = run(capsys, "ideal", "--semiring", "nat", "--op", "contains",
                       f"ideal[{deep}]", "5")
    assert code == 2 and "expression nests too deeply" in err


def test_check_mc_draws_no_entire_stream(capsys, monkeypatch):
    import semival.laws as laws
    salts = []
    real = laws.pair_stream
    monkeypatch.setattr(laws, "pair_stream", lambda *a, salt="", **k:
                        salts.append(salt) or real(*a, salt=salt, **k))
    for prop in ("mc", "entire"):
        salts.clear()
        code, _, _ = run(capsys, "check", "--semiring", "monoid(nat,Q)",
                         "--property", prop, "--samples", "50")
        assert code == 0
        assert salts == ([] if prop == "mc" else ["entire"])


def test_json_reports_are_deterministic(capsys):
    argv = ["check", "--semiring", "qnn", "--valuation", "vp:5", "--property",
            "min-property", "--samples", "300", "--seed", "9", "--output", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_witnesses_reverify_from_json(capsys):
    code, out, _ = run(capsys, "check", "--semiring", "fractions(poly(nat))",
                       "--valuation", "deg-frac", "--property", "min-property",
                       "--samples", "300", "--output", "json")
    assert code == 1
    payload = json.loads(out)
    from semival.grammar import parse_element
    from semival.instances import get_instance
    from semival.valuation import get_valuation, valuate
    frs = get_instance("fractions(poly(nat))")
    v = get_valuation("deg-frac", frs)
    x, y = (parse_element(w, frs) for w in payload["witness"])
    vx, vy = valuate(v, x), valuate(v, y)
    assert vx != vy
    assert valuate(v, frs.add(x, y)) != min(vx, vy)


def test_check_dedekind_mertens_verdicts(capsys):
    code, _, _ = run(capsys, "check", "--semiring", "ideals-z", "--property",
                     "dedekind-mertens")
    assert code == 0
    code, out, _ = run(capsys, "check", "--semiring", "nat", "--property",
                       "dedekind-mertens", "--output", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "counterexample"
    # the witness (f, g, escaped element) re-verifies: the element lies in
    # exactly one of c(f)^(m+1) c(g) and c(f)^m c(fg)
    from semival.content import content, cp_mul
    from semival.grammar import parse_content_polynomial, parse_element
    from semival.ideals import ideal_power, ideal_product
    from semival.instances import get_instance
    nat = get_instance("nat")
    f_text, g_text, w_text = payload["witness"]
    f = parse_content_polynomial(f_text, nat)
    g = parse_content_polynomial(g_text, nat)
    w = parse_element(w_text, nat)
    m = g.degree()
    lhs = ideal_product(ideal_power(content(f), m + 1), content(g))
    rhs = ideal_product(ideal_power(content(f), m), content(cp_mul(f, g)))
    assert lhs.contains(w) != rhs.contains(w)


def test_ideal_product_generators(capsys):
    code, out, _ = run(capsys, "ideal", "--semiring", "nat", "--op", "product",
                       "ideal[2,3]", "ideal[5,7]", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "holds"
    assert payload["result"] == "ideal[10, 14, 15, 21]"
    code, out, _ = run(capsys, "ideal", "--semiring", "ideals-z", "--op",
                       "product", "ideal[4]", "ideal[6]")
    assert code == 0 and "ideal[24]" in out


@pytest.mark.parametrize("prop, message", [
    ("min-property", "min-property needs --valuation"),
    ("subtractive", "subtractive needs --valuation (checks the positive ideal)"),
    ("prime", "prime needs --valuation (checks the positive ideal)"),
    ("units-zeroset", "units-zeroset needs --valuation"),
    ("extension-axioms", "extension-axioms needs --valuation"),
])
def test_valuation_properties_need_a_valuation(capsys, prop, message):
    code, out, err = run(capsys, "check", "--semiring", "qnn", "--property", prop)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("first, second", [("fuzzy[0,1/2]", "ideal[1/3]"),
                                           ("ideal[1/3]", "fuzzy[0,1/2)"),
                                           ("ideal[1]", "fuzzy[0,1)")])
def test_fuzzy_interval_compares_with_generated_ideal(capsys, first, second):
    # every fuzzy ideal is an interval, so any two are comparable
    code, out, _ = run(capsys, "ideal", "--semiring", "fuzzy", "--op",
                       "comparable", first, second, "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "holds" and payload["result"] == "true"


def test_valuate_with_a_large_prime_parameter(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "valuate", "--semiring", "nat", "--valuation",
                       "vp:1000000000000000003", "1000000000000000003^2*7")
    assert code == 0 and out.strip() == "2"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("rule", ["vp:561", "vp:1000000000000000001",
                                  "vp:618970019642690137449562111"])
def test_valuate_rejects_parameters_not_certified_prime(capsys, rule):
    code, out, err = run(capsys, "valuate", "--semiring", "nat", "--valuation",
                         rule, "5")
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("sid, rule", [
    ("nat", "vp:abc"), ("nat", "vp:"), ("nat", "vp:5.0"), ("nat", "vp:+5"),
    ("nat", "vp:1_0_1"), ("nat", "vp: 5"), ("fractions(ideals-z)", "vm-idz:x"),
])
def test_rule_parameters_are_read_as_digits(capsys, sid, rule):
    name, _, param = rule.partition(":")
    assert run(capsys, "valuate", "--semiring", sid, "--valuation", rule, "5") == (
        2, "", f"error: {name} parameter must be a prime integer, got {param!r}\n")


@pytest.mark.parametrize("argv", [
    ["factor", "5"], ["divmod", "5", "3"], ["ideal", "--op", "contains", "ideal[5]", "5"],
    ["check", "--property", "gaussian"], ["check", "--property", "dedekind-mertens"],
    ["check", "--property", "total-order"],
])
def test_discrete_commands_refuse_a_valuation_without_integer_values(capsys, argv):
    command, *rest = argv
    assert run(capsys, command, "--semiring", "qnn", "--valuation", "trivial",
               *rest) == (2, "", "error: a discrete structure needs integer values\n")


@pytest.mark.parametrize("sid,rule,literal,message", [
    ("qnn", "trivial", "1/0", "error: qnn: zero denominator"),
    ("nat", "vp:5", "1/0", "error: nat: zero denominator"),
    ("monoid(nat,Q)", "low-order", "X^(1/0)", "error: monoid(nat,Q): zero denominator"),
    ("nat", "vp:5", "\u00b2", "error: unexpected character '\u00b2' at position 0"),
])
def test_malformed_literals_exit_2_with_a_message(capsys, sid, rule, literal, message):
    code, out, err = run(capsys, "valuate", "--semiring", sid, "--valuation", rule,
                         literal)
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_running_out_of_memory_or_stack_exits_2(capsys, monkeypatch, error):
    # exit 1 is reserved for a counterexample
    def exhausted(self, a, n):
        raise error()

    monkeypatch.setattr(Semiring, "power", exhausted)
    code, out, err = run(capsys, "valuate", "--semiring", "nat", "--valuation",
                         "vp:5", "2^99999999999")
    # a RecursionError in the arithmetic is no nesting: it reaches main as it is
    assert (code, out, err) == (2, "", f"error: {error.__name__}\n")
