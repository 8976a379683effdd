import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from semival.cli import CHECKS, _run_check, build_parser, main
from semival.instances import ALL_REGISTERED_IDS, get_instance
from semival.reports import LawReport, SampleSpec
from semival.semiring import Semiring
from semival.valuation import REGISTERED_VALUATIONS, check_min_property, get_valuation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code, argv=(), **kwargs):
    """Run code in a fresh interpreter on this checkout's sources."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, **kwargs)


def cli_process(argv, setup="", **kwargs):
    """Run the CLI on argv in a fresh interpreter, after the code setup."""
    return fresh_python(f"{setup}import sys; from semival.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", argv, **kwargs)


def test_the_package_exports_nothing():
    # import from the submodules: the package loads none of them
    assert (SRC / "semival" / "__init__.py").is_file()
    out = fresh_python("import sys, semival; print(sorted(m for m in sys.modules "
                       "if m.startswith('semival.')))", timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


_CALCULATOR = {"cli", "reports", "instances", "extended", "semiring", "grammar"}


@pytest.mark.parametrize("argv, modules", [
    (["valuate", "--semiring", "nat", "--valuation", "vp:5", "50"],
     _CALCULATOR | {"valuation"}),
    (["factor", "--semiring", "qnn", "--valuation", "vp:5", "50/3"],
     _CALCULATOR | {"valuation", "dvs"}),
    (["divmod", "--semiring", "qnn", "--valuation", "vp:5", "50/3", "7"],
     _CALCULATOR | {"valuation", "dvs"}),
    (["ideal", "--semiring", "nat", "--op", "contains", "ideal[3, 5]", "7"],
     _CALCULATOR | {"ideals"}),
    (["ideal", "--semiring", "ideals-z", "--op", "contains", "ideal[4, 6]", "8"],
     _CALCULATOR | {"ideals"}),
], ids=["valuate", "factor", "divmod", "ideal-nat", "ideal-ideals-z"])
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    # a cold process compiles every module it loads; the command prints its
    # answer, then the semival modules loaded by the time it exited
    out = cli_process(argv, setup="import atexit, sys; atexit.register(lambda: "
                      "print(sorted(m[8:] for m in sys.modules if "
                      "m.startswith('semival.')))); ", timeout=30)
    assert out.returncode in (0, 1) and out.stderr == ""
    assert out.stdout.splitlines()[-1] == str(sorted(modules))


@pytest.mark.parametrize("argv", [
    *(["check", "--semiring", "fractions(poly(nat))", "--valuation", "deg-frac",
       "--property", prop] for prop in sorted(CHECKS)),
    ["check", "--semiring", "nat", "--property", "total-order"],
    *(["ideal", "--semiring", "nat", "--op", op, "ideal[6, 10]", "ideal[15]"]
      for op in ("sum", "product", "comparable")),
    ["ideal", "--semiring", "nat", "--op", "contains", "ideal[6, 10]", "16"],
    ["ideal", "--semiring", "nat", "--op", "subtractive", "ideal[6, 10]"],
    ["ideal", "--semiring", "qnn", "--valuation", "vp:5", "--op", "subtractive",
     "ideal[5]"],
    ["ideal", "--semiring", "fuzzy", "--op", "comparable", "fuzzy[0,1/2]",
     "ideal[1/3]"],
], ids=" ".join)
def test_every_command_path_runs_in_a_fresh_process(argv):
    # a name a lazy import missed raises NameError, which would exit 1, the
    # code of a counterexample: each path must answer without a traceback
    out = cli_process([*argv, "--samples", "20"], timeout=60)
    assert out.returncode in (0, 1), out.stderr
    assert "Traceback" not in out.stderr and out.stdout


# sha256 of every `check` row below, recorded before the check dispatch
# became one function: each registered instance, bare and with each rule
# registered on it, every property, text and JSON
CHECK_MATRIX_SHA256 = "f0fbee1de93bcaa1260220348ddb6c4b9799aaeb3eb0d85ba3047764503c8010"


def test_the_check_matrix_is_pinned(capsys):
    rows = []
    for sid in ALL_REGISTERED_IDS:
        rules = [[]] + [["--valuation", rule]
                        for rule, source in REGISTERED_VALUATIONS if source == sid]
        for valuation in rules:
            for prop in CHECKS:
                for output in ("text", "json"):
                    code, out, err = run(capsys, "check", "--semiring", sid, *valuation,
                                         "--property", prop, "--output", output,
                                         "--samples", "200", "--size-bound", "20")
                    rows.append([code, re.sub(r', "elapsed_ms": \d+', "", out), err])
    assert Counter(code for code, _, _ in rows) == {0: 314, 1: 36, 2: 222}
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == CHECK_MATRIX_SHA256


# sha256 of every `ideal` row below, recorded before the sampled checks ran
# on payload streams: each op on each carrier's literals and elements (every
# ordered pair for the binary ops), text and JSON
IDEAL_MATRIX = {
    ("nat",): (["ideal[6, 10]", "ideal[15]", "ideal[3, 5]"], ["16", "7"]),
    ("ideals-z",): (["ideal[4, 6]", "ideal[3]"], ["8", "9"]),
    ("bool-poly",): (["ideal[X]", "ideal[X+1]", "ideal[X^2, X^3]"], ["X + X^2", "1"]),
    ("tropical-nat",): (["ideal[2]", "ideal[5]"], ["3", "inf"]),
    ("fuzzy",): (["ideal[1/3]", "fuzzy[0,1/2]", "fuzzy[0,1/2)"], ["1/4", "1/2"]),
    ("qnn", "--valuation", "vp:5"): (["ideal[5]", "ideal[25, 10]"], ["50", "1/5"]),
}
IDEAL_MATRIX_SHA256 = "7aff4be9533802c1444e27a1a153950f3368e7583235d613a470c9f7a8d08d7f"


def test_the_ideal_matrix_is_pinned(capsys):
    rows = []
    for carrier, (ideals, elements) in IDEAL_MATRIX.items():
        operands = [("subtractive", [I]) for I in ideals]
        operands += [("contains", [I, x]) for I in ideals for x in elements]
        operands += [(op, [I, J]) for op in ("sum", "product", "comparable")
                     for I in ideals for J in ideals]
        for op, args in operands:
            for output in ("text", "json"):
                code, out, err = run(capsys, "ideal", "--semiring", *carrier,
                                     "--op", op, *args, "--output", output,
                                     "--samples", "200", "--size-bound", "20")
                rows.append([code, re.sub(r', "elapsed_ms": \d+', "", out), err])
    assert Counter(code for code, _, _ in rows) == {0: 240, 1: 52, 2: 32}
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == IDEAL_MATRIX_SHA256


def test_the_readme_check_table_lists_every_property():
    readme = (SRC.parent / "README.md").read_text()
    header = "| property | law | runs on | needs `--valuation` |"
    rows = readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    cells = [[c.strip() for c in row.strip("|").split("|")] for row in rows]
    assert [c[0] for c in cells] == [f"`{prop}`" for prop in CHECKS]
    assert [c[3] for c in cells] == ["yes" if CHECKS[p] else "no" for p in CHECKS]


def test_valuate(capsys):
    code, out, _ = run(capsys, "valuate", "--semiring", "nat",
                       "--valuation", "vp:5", "50")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "valuate", "--semiring", "nat",
                       "--valuation", "vp:5", "0")
    assert code == 0 and out.strip() == "inf"


def test_valuate_a_rational_coefficient_over_fractions(capsys):
    code, out, _ = run(capsys, "valuate", "--semiring", "poly(fractions(nat))",
                       "--valuation", "low-order", "1/2 + X")
    assert code == 0 and out == "0\n"


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
    # operands outside the carrier are divided in the ambient semifield
    assert run(capsys, "divmod", "--semiring", "qnn", "--valuation", "vp:5",
               "1/5", "3") == (0, "q = 0, r = 1/5\n", "")


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


def test_nat_membership_at_the_frobenius_number_does_not_hang():
    # 371011316 is the largest non-member of this semigroup; with the memo
    # bound a process answers in well under a second, without it in about
    # 10 s and 670 MB
    out = cli_process(["ideal", "--semiring", "nat", "--op", "contains", "--output",
                       "json", "ideal[100003, 100019, 100043, 100057]", "371011316"],
                      timeout=5)
    assert out.returncode == 1, out.stderr
    assert json.loads(out.stdout)["result"] == "false"


def test_nat_membership_above_200000_answers_within_a_memory_limit():
    # 4000660031 is the largest non-member; the memo bound, a at every size,
    # hands the query to the table (about 0.4 s and 40 MB), where a search
    # without it ran 41 s and ended in MemoryError
    out = cli_process(["ideal", "--semiring", "nat", "--op", "contains", "--output",
                       "json", "ideal[200003, 200009, 200017, 200023]", "4000660031"],
                      setup="import resource; resource.setrlimit(resource.RLIMIT_AS, "
                            "(1 << 30, 1 << 30)); ",  # 1 GB, on the child only
                      timeout=30)
    assert out.returncode == 1, out.stderr
    assert json.loads(out.stdout)["result"] == "false"


def test_nat_membership_past_the_table_budget_exits_2_within_a_memory_limit():
    # the least generator is over the 2^20-entry budget: the search gives up
    # at 2^20 memo entries (about 1 s and 110 MB) and the query is refused,
    # where without the budget it ran out of memory
    out = cli_process(["ideal", "--semiring", "nat", "--op", "contains",
                       "ideal[229345007, 229345009, 229345013, 229345019]",
                       "8766000000000000"],
                      setup="import resource; resource.setrlimit(resource.RLIMIT_AS, "
                            "(1 << 30, 1 << 30)); ",  # 1 GB, on the child only
                      timeout=30)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: nat ideal membership: the search outgrew the "
                          "budget of 1048576 entries, and the residue table would "
                          "need 229345007\n")


@pytest.mark.parametrize("argv", [
    ["valuate", "--semiring", "nat", "--valuation", "vp:5", "2^99999999999"],
    ["valuate", "--semiring", "qnn", "--valuation", "vp:5", "(1/2)^99999999999"],
    ["factor", "--semiring", "qnn", "--valuation", "vp:5", "5^-99999999999"],
    ["ideal", "--semiring", "ideals-z", "--op", "contains", "ideal[4]", "2^99999999999"],
], ids=["nat", "qnn", "qnn-negative", "ideals-z"])
def test_a_power_past_the_bit_budget_is_refused_before_it_is_built(capsys, argv):
    # 2^99999999999 has 10^11 bits: built, it ran out of memory
    code, out, err = run(capsys, *argv)
    sid = argv[2]
    assert (code, out) == (2, "")
    assert err == f"error: {sid} power: the result would pass the budget of 33554432 bits\n"


def test_powers_within_the_budget_or_on_tropical_carriers_are_built(capsys):
    nat = get_instance("nat")
    assert nat.power(nat.element(5), 10 ** 6).payload.bit_length() == 2_321_929
    assert nat.power(nat.one, 99999999999) == nat.one
    assert nat.power(nat.zero, 99999999999) == nat.zero
    # tropical powers add, so they stay small
    code, out, _ = run(capsys, "valuate", "--semiring", "tropical-nat",
                       "--valuation", "tropical-id", "2^99999999999")
    assert (code, out) == (0, "199999999998\n")


@pytest.mark.parametrize("argv, budget", [
    (["ideal", "--semiring", "bool-poly", "--op", "contains", "ideal[X]",
      "(1+X)^100000000"], "1024 terms"),
    (["ideal", "--semiring", "poly(nat)", "--op", "contains", "ideal[X]",
      "(1+X)^100000"], "1024 terms"),
    (["ideal", "--semiring", "monoid(nat,Q)", "--op", "contains", "ideal[X]",
      "(1+X^(1/2))^100000"], "1024 terms"),
    (["ideal", "--semiring", "fractions(nat)", "--op", "contains", "ideal[1]",
      "(2/3)^100000000"], "33554432 bits"),
    (["valuate", "--semiring", "poly(nat)", "--valuation", "low-order",
      "(1+X)^1000000"], "1024 terms"),
], ids=["bool-poly", "poly", "monoid-q", "fractions", "valuate-poly"])
def test_a_power_past_its_size_budget_is_refused_before_one_multiplication(
        capsys, monkeypatch, argv, budget):
    # unbudgeted, each of these ran past 10 s
    inst = get_instance(argv[2])

    def no_product(p, q):
        raise AssertionError("multiplied")
    monkeypatch.setattr(inst, "_mul", no_product)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[2]} power: the result would pass the budget of {budget}\n"


def test_powers_inside_the_term_budget_or_with_one_term_are_built(capsys):
    poly = get_instance("poly(nat)")
    one_plus_x = poly.add(poly.one, poly.indeterminate())
    assert len(poly.power(one_plus_x, 1023).payload) == 1024
    code, out, _ = run(capsys, "ideal", "--output", "json", "--semiring", "bool-poly",
                       "--op", "contains", "ideal[X]", "X^100000000")
    assert (code, json.loads(out)["result"]) == (0, "true")


@pytest.mark.parametrize("sid, factor, budget", [
    ("poly(nat)", "(1+X)^1000", "1024 terms"),
    ("laurent(nat)", "(X^-1+X)^600", "1024 terms"),
    ("monoid(nat,Q)", "(1+X^(1/2))^520", "1024 terms"),
    ("bool-poly", "(1+X)^600", "1024 terms"),
    ("nat", 1 << 24, "33554432 bits"),  # an int k stands for 2^k
    ("ideals-z", 1 << 24, "33554432 bits"),
])
def test_a_product_past_its_size_budget_is_refused_before_it_is_built(
        monkeypatch, sid, factor, budget):
    # each factor is inside the budget; their product's lower bound is not
    from semival.grammar import parse_element
    inst = get_instance(sid)
    x = inst.element(1 << factor) if isinstance(factor, int) else parse_element(factor, inst)

    def no_product(p, q):
        raise AssertionError("multiplied")
    monkeypatch.setattr(inst, "_mul", no_product)
    with pytest.raises(ValueError, match=f"^{re.escape(sid)} product: the result would "
                                         f"pass the budget of {budget}$"):
        inst.mul(x, x)


def test_products_inside_the_budget_or_that_reduce_are_built():
    poly = get_instance("poly(nat)")
    one_plus_x = poly.add(poly.one, poly.indeterminate())
    low, high = poly.power(one_plus_x, 511), poly.power(one_plus_x, 512)
    assert len(poly.mul(low, high).payload) == 1024  # the budget, exactly
    nat = get_instance("nat")
    big = nat.element(1 << (1 << 25))
    assert nat.mul(big, nat.zero) == nat.zero  # zero, however large the other
    # qnn and fraction products reduce, so they carry no bound
    qnn = get_instance("qnn")
    big = qnn.element(1 << (1 << 24))
    assert qnn.mul(big, qnn.inv(big)) == qnn.one
    frs = get_instance("fractions(nat)")
    big = frs.element((1 << (1 << 24), 1))
    assert frs.mul(big, frs.inv(big)) == frs.one


def test_a_product_of_four_powers_exits_2_within_a_memory_limit():
    # each factor has 1001 terms; unbudgeted, the product ran past 10 s
    start = time.perf_counter()
    out = cli_process(["valuate", "--semiring", "poly(nat)", "--valuation", "low-order",
                       "(1+X)^1000*(1+X)^1000*(1+X)^1000*(1+X)^1000"],
                      setup="import resource; resource.setrlimit(resource.RLIMIT_AS, "
                            "(3 << 29, 3 << 29)); ",  # 1.5 GB, on the child only
                      timeout=10)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: poly(nat) product: the result would pass the "
                          "budget of 1024 terms\n")
    assert time.perf_counter() - start < 5


def test_a_power_of_y_past_the_term_budget_is_refused_before_it_is_built():
    from semival.grammar import parse_content_polynomial
    nat = get_instance("nat")
    assert parse_content_polynomial("(1+Y)^1023", nat).degree() == 1023
    for text in ("Y^1024", "Y^5000", "(1+Y^2)^20000"):
        with pytest.raises(ValueError, match=r"^Y power: the result would pass the "
                                             r"budget of 1024 terms$"):
            parse_content_polynomial(text, nat)


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


def test_dedekind_mertens_law_name_does_not_depend_on_the_verdict(capsys):
    # named after its carrier whether it holds or not, as gaussian[<sid>] is
    assert run(capsys, "check", "--semiring", "ideals-z", "--property",
               "dedekind-mertens", "--samples", "50") == (
        0, "dedekind-mertens[ideals-z]: holds [seed=1 samples=50 size=50]\n", "")
    code, out, _ = run(capsys, "check", "--semiring", "nat", "--property",
                       "dedekind-mertens", "--samples", "50")
    assert code == 1 and out.startswith("dedekind-mertens[nat]: counterexample (")


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
               *rest) == (2, "", "error: a discrete structure needs values in Z; "
                          "trivial on qnn takes values in trivial\n")


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
