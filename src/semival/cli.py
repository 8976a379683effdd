"""Batch command-line front end.

Subcommands: valuate, factor, divmod, ideal, check, suite.  Exit codes:
0 for success or a holding law, 1 when a counterexample was found, 2 for
usage or parse errors.  JSON reports embed the exact sampling bound so a
"holds" verdict is never unqualified, and identical (seed, samples,
size_bound) produce identical reports apart from elapsed_ms.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from typing import TYPE_CHECKING

from .grammar import parse_element
from .instances import get_instance
from .reports import LawReport, SampleSpec

if TYPE_CHECKING:
    from .dvs import DVSStructure
    from .ideals import IntervalIdeal


class UsageError(ValueError):
    pass


def _add_common(sub):
    sub.add_argument("--semiring", required=True,
                     help="instance descriptor, e.g. nat, qnn, fractions(poly(nat))")
    sub.add_argument("--valuation", default=None,
                     help="rule id, e.g. trivial, vp:5, low-order, deg-frac")
    sub.add_argument("--samples", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--size-bound", type=int, default=50)
    sub.add_argument("--output", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semival",
        description="exact semiring valuation calculator and law checker")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("valuate", help="evaluate a valuation on one element")
    _add_common(p)
    p.add_argument("element")

    p = subs.add_parser("factor", help="uniformizer normal form unit * t^n")
    _add_common(p)
    p.add_argument("element")

    p = subs.add_parser("divmod", help="division with remainder in a discrete carrier")
    _add_common(p)
    p.add_argument("dividend")
    p.add_argument("divisor")

    p = subs.add_parser("ideal", help="finitely generated ideal operations")
    _add_common(p)
    p.add_argument("--op", required=True,
                   choices=("sum", "product", "contains", "comparable", "subtractive"))
    p.add_argument("args", nargs="+",
                   help="ideal literals ideal[...] / fuzzy[0,...] and elements")

    p = subs.add_parser("check", help="run one named law check")
    _add_common(p)
    p.add_argument("--property", required=True, choices=CHECKS)

    p = subs.add_parser("suite", help="run the full acceptance matrix")
    p.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def _report(args, report: LawReport, prop: str | None, result: str | None,
            start: float) -> dict:
    """The JSON report; its bound is the one the report checked, if any."""
    spec = report.bound or _spec(args)
    return {
        "command": args.command,
        "instance": args.semiring,
        "valuation": args.valuation,
        "property": prop,
        "verdict": report.verdict,
        "bound": {"seed": spec.seed, "samples": spec.count,
                  "size_bound": spec.size_bound},
        "witness": [str(w) for w in report.witness],
        "detail": report.detail,
        "result": result,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }


def _spec(args) -> SampleSpec:
    return SampleSpec(args.seed, args.samples, args.size_bound)


def _need_dvs(args) -> DVSStructure:
    from .dvs import dvs_structure

    if not args.valuation:
        raise UsageError("this command needs --valuation")
    return dvs_structure(args.valuation, get_instance(args.semiring))


def _total_order_check(instance, dvs: DVSStructure | None,
                       spec: SampleSpec) -> LawReport:
    from .ideals import first_incomparable_pair, make_ideal
    from .sampling import stream

    law = f"ideals-total-order[{instance.sid}]"
    pool_spec = SampleSpec(spec.seed, 90, min(spec.size_bound, 12))
    if dvs is not None:
        pool = dvs.sample_carrier(pool_spec, salt="cli-ideals", nonzero=True)
    else:
        drawn = stream(instance, pool_spec, salt="cli-ideals")
        pool = [x for x in map(instance.element, drawn) if not x.is_zero()]
    ideals = [make_ideal(dvs.ambient if dvs else instance, pool[i: i + 2], dvs=dvs)
              for i in range(0, len(pool) - 1, 2)]
    k = len(ideals)
    pairs = k * (k - 1) // 2
    found = first_incomparable_pair(ideals, spec.count)
    if found is None:
        return LawReport(law, "holds", pool_spec,
                         detail=f"compared {min(spec.count, pairs)} of {pairs} pairs")
    i, j, report = found
    # (i, j) is pair number i(2k-i-1)/2 + j-i of combinations(range(k), 2)
    compared = i * (2 * k - i - 1) // 2 + j - i
    return LawReport(law, "counterexample", pool_spec, report.witness,
                     f"between {ideals[i]} and {ideals[j]}; "
                     f"compared {compared} of {pairs} pairs")


def _dedekind_mertens(instance, dvs: DVSStructure | None,
                      spec: SampleSpec) -> LawReport:
    from .content import content_pairs, dedekind_mertens_check

    for f, g in content_pairs(dvs or instance, spec):
        report = dedekind_mertens_check(f, g, dvs, spec)
        if not report.holds:
            return report
    return LawReport(f"dedekind-mertens[{instance.sid}]", "holds", spec)


# property -> the usage error when the check needs --valuation, else None;
# in --help order
CHECKS = {
    "axioms": None,
    "mc": None,
    "entire": None,
    "min-property": "min-property needs --valuation",
    "subtractive": "subtractive needs --valuation (checks the positive ideal)",
    "prime": "prime needs --valuation (checks the positive ideal)",
    "total-order": None,
    "gaussian": None,
    "dedekind-mertens": None,
    "units-zeroset": "units-zeroset needs --valuation",
    "extension-axioms": "extension-axioms needs --valuation",
}


def _run_check(args) -> LawReport:
    from .content import gaussian_check
    from .dvs import dvs_structure
    from .fracfield import extend_valuation
    from .ideals import is_prime_bounded, is_subtractive_bounded, positive_ideal
    from .laws import check_semiring_axioms, probe_entire, probe_mc
    from .valuation import check_min_property, check_valuation_axioms
    from .valuation import get_valuation, units_vs_zeroset

    prop = args.property
    instance = get_instance(args.semiring)
    spec = _spec(args)
    v = get_valuation(args.valuation, instance) if args.valuation else None
    if v is None and CHECKS[prop]:
        raise UsageError(CHECKS[prop])
    if prop in ("total-order", "gaussian", "dedekind-mertens"):
        # with --valuation these run on its discrete carrier
        dvs = dvs_structure(args.valuation, instance) if v else None
        if prop == "total-order":
            return _total_order_check(instance, dvs, spec)
        if prop == "gaussian":
            return gaussian_check(dvs or instance, spec)
        return _dedekind_mertens(instance, dvs, spec)
    if prop == "axioms":
        return (check_valuation_axioms(v, spec) if v
                else check_semiring_axioms(instance, spec))
    if prop == "mc":
        return probe_mc(instance, spec)
    if prop == "entire":
        return probe_entire(instance, spec)
    if prop == "min-property":
        return check_min_property(v, spec)
    if prop == "subtractive":
        return is_subtractive_bounded(positive_ideal(v), spec)
    if prop == "prime":
        return is_prime_bounded(positive_ideal(v), spec)
    if prop == "units-zeroset":
        return units_vs_zeroset(v, spec)
    # extension-axioms
    return check_valuation_axioms(extend_valuation(v), spec)


def _as_interval(ideal) -> IntervalIdeal:
    from .ideals import IntervalIdeal, fuzzy_ideal_classify

    if isinstance(ideal, IntervalIdeal):
        return ideal
    return fuzzy_ideal_classify(ideal.generators)


def _run_ideal(args) -> tuple[LawReport, str | None]:
    """One ideal operation: its report, and its exact answer as text (None
    for the sampled checks)."""
    from .grammar import parse_ideal
    from .ideals import (
        IntervalIdeal,
        ideal_product,
        ideal_sum,
        ideals_comparable,
        interval_comparable,
        is_subtractive_bounded,
    )

    instance = get_instance(args.semiring)
    spec = _spec(args)
    dvs = _need_dvs(args) if args.valuation else None
    op = args.op
    if len(args.args) != (1 if op == "subtractive" else 2):
        operands = {"subtractive": "one ideal literal",
                    "contains": "an ideal literal and an element"}
        raise UsageError(f"{op} takes {operands.get(op, 'two ideal literals')}")
    I = parse_ideal(args.args[0], instance, dvs=dvs)
    if op == "subtractive":
        return is_subtractive_bounded(I, spec), None
    if op == "contains":
        x = parse_element(args.args[1], instance)
        verdict = I.contains(x)
        report = LawReport("ideal-contains", "holds" if verdict else "counterexample",
                           witness=(x,), detail=f"member of {I}" if verdict else
                           f"not a member of {I}")
        return report, str(verdict).lower()
    J = parse_ideal(args.args[1], instance, dvs=dvs)
    intervals = isinstance(I, IntervalIdeal) or isinstance(J, IntervalIdeal)
    if op == "comparable":
        if not intervals:
            return ideals_comparable(I, J, spec), None
        # every fuzzy ideal is an interval, so the generated side is one too
        ok = interval_comparable(_as_interval(I), _as_interval(J))
        return (LawReport("ideals-comparable", "holds" if ok else "counterexample"),
                str(ok).lower())
    if intervals:
        raise UsageError("sum/product apply to generator-list ideals")
    out = ideal_sum(I, J) if op == "sum" else ideal_product(I, J)
    return LawReport(f"ideal-{op}", "holds", detail=str(out)), str(out)


def _calculate(args) -> tuple[str, str]:
    """valuate, factor or divmod: the printed line and the JSON result."""
    if args.command == "valuate":
        from .valuation import get_valuation, valuate

        instance = get_instance(args.semiring)
        if not args.valuation:
            raise UsageError("valuate needs --valuation")
        v = get_valuation(args.valuation, instance)
        value = str(valuate(v, parse_element(args.element, instance)))
        return value, value
    from .dvs import dvs_normal_form, euclidean_divide

    D = _need_dvs(args)
    if args.command == "factor":
        unit, n = dvs_normal_form(D, parse_element(args.element, D.ambient))
        return (f"unit = {unit}, exponent = {n} (t = {D.uniformizer})",
                f"({unit}, {n})")
    a = parse_element(args.dividend, D.ambient)
    b = parse_element(args.divisor, D.ambient)
    q, r = euclidean_divide(D, a, b)
    return f"q = {q}, r = {r}", f"({q}, {r})"


def _import_modules(args) -> None:
    """Import the semival modules the command runs, beyond the ones this
    module imports at its top.

    Each command loads only its own modules, so that a cold process compiles
    no other; the functions that run it import the names they use.  main
    calls this before its clock starts, so that elapsed_ms times the work and
    not the compiling.
    """
    if args.command == "valuate":
        names = ["valuation"]
    elif args.command in ("factor", "divmod"):
        names = ["dvs"]
    elif args.command == "ideal":
        names = ["ideals"]
        if args.valuation:
            names.append("dvs")
        if args.op == "subtractive":
            names.append("sampling")
    elif args.command == "check":
        names = ["content", "dvs", "fracfield", "ideals", "laws", "sampling",
                 "valuation"]
    else:
        names = []  # the suite imports its modules as it starts
    for name in names:
        importlib.import_module(f".{name}", __package__)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a bound that admits no sample would make every law hold vacuously
        if getattr(args, "samples", 1) < 1:
            parser.error("argument --samples: must be at least 1")
        if getattr(args, "size_bound", 0) < 0:
            parser.error("argument --size-bound: must be at least 0")
    except SystemExit as exc:
        return int(exc.code or 0)
    _import_modules(args)
    start = time.monotonic()
    try:
        if args.command == "suite":
            # imported here, so that the other commands' cold start pays for
            # neither the suite nor its process pool
            from concurrent.futures.process import BrokenProcessPool

            from .suite import run_all
            try:
                results = run_all()
            except BrokenProcessPool as exc:
                # a dead worker is no verdict: exit 1 means a counterexample
                print(f"error: {exc}", file=sys.stderr)
                return 2
            ok = all(r.passed for r in results)
            if args.output == "json":
                print(json.dumps([{"criterion": r.number, "title": r.title,
                                   "passed": r.passed, "detail": r.detail}
                                  for r in results]))
            else:
                for r in results:
                    print(r.line())
                print("suite:", "all criteria pass" if ok
                      else "some criteria FAILED")
            return 0 if ok else 1

        if args.command == "ideal":
            report, result = _run_ideal(args)
            prop = args.op
        elif args.command == "check":
            report, result = _run_check(args), None
            prop = args.property
        else:
            line, result = _calculate(args)
            payload = _report(args, LawReport(args.command, "ok"), None, result, start)
            print(json.dumps(payload) if args.output == "json" else line)
            return 0
        payload = _report(args, report, prop, result, start)
        print(json.dumps(payload) if args.output == "json" else report)
        return 0 if report.holds else 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        # running out of memory or stack is no verdict either
        print(f"error: {type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
