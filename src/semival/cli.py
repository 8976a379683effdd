"""Batch command-line front end.

Subcommands: valuate, factor, divmod, ideal, check, suite.  Exit codes:
0 for success or a holding law, 1 when a counterexample was found, 2 for
usage or parse errors.  JSON reports embed the exact sampling bound so a
"holds" verdict is never unqualified, and identical (seed, samples,
size_bound) produce identical reports apart from elapsed_ms.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .content import dedekind_mertens_check, gaussian_check, sample_content_polys
from .dvs import (
    DVSStructure,
    dvs_normal_form,
    dvs_structure,
    euclidean_divide,
)
from .fracfield import extend_valuation
from .grammar import ParseError, parse_element, parse_ideal
from .ideals import (
    IntervalIdeal,
    ideal_product,
    ideal_sum,
    ideals_comparable,
    interval_comparable,
    is_prime_bounded,
    is_subtractive_bounded,
    make_ideal,
    positive_ideal,
)
from .instances import get_instance
from .laws import check_semiring_axioms, probe_mc_entire
from .reports import LawReport, SampleSpec
from .sampling import stream
from .semiring import InstanceMismatchError, UnsupportedOperationError
from .suite import run_all
from .valuation import (
    check_min_property,
    check_valuation_axioms,
    get_valuation,
    units_vs_zeroset,
)

PROPERTIES = (
    "axioms", "mc", "entire", "min-property", "subtractive", "prime",
    "total-order", "gaussian", "dedekind-mertens", "units-zeroset",
    "extension-axioms",
)


class UsageError(ValueError):
    pass


def _add_common(sub, semiring_required=True):
    sub.add_argument("--semiring", required=semiring_required,
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
    p.add_argument("--property", required=True, choices=PROPERTIES)

    p = subs.add_parser("suite", help="run the full acceptance matrix")
    p.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def _report(command: str, args, verdict: str, *, prop: str | None = None,
            witness=(), result: str | None = None, start: float) -> dict:
    bound = {"seed": getattr(args, "seed", None),
             "samples": getattr(args, "samples", None),
             "size_bound": getattr(args, "size_bound", None)}
    return {
        "command": command,
        "instance": getattr(args, "semiring", None),
        "valuation": getattr(args, "valuation", None),
        "property": prop,
        "verdict": verdict,
        "bound": bound,
        "witness": [str(w) for w in witness],
        "result": result,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }


def _spec(args) -> SampleSpec:
    return SampleSpec(args.seed, args.samples, args.size_bound)


def _need_dvs(args) -> DVSStructure:
    if not args.valuation:
        raise UsageError("this command needs --valuation")
    return dvs_structure(args.valuation, get_instance(args.semiring))


def _law_outcome(report: LawReport):
    return (0 if report.holds else 1), report


def _run_check(args):
    instance = get_instance(args.semiring)
    spec = _spec(args)
    prop = args.property
    valuation = None
    if args.valuation:
        valuation = get_valuation(args.valuation, instance)
    if prop == "axioms":
        if valuation is not None:
            return _law_outcome(check_valuation_axioms(valuation, spec))
        return _law_outcome(check_semiring_axioms(instance, spec))
    if prop in ("mc", "entire"):
        mc, entire = probe_mc_entire(instance, spec)
        return _law_outcome(mc if prop == "mc" else entire)
    if prop == "min-property":
        if valuation is None:
            raise UsageError("min-property needs --valuation")
        report = check_min_property(valuation, spec)
        if report.holds:
            return 0, LawReport("min-property", "holds", spec)
        return 1, LawReport("min-property", "counterexample", spec,
                            (report.x, report.y),
                            f"v(x)={report.vx} v(y)={report.vy} v(x+y)={report.vsum}")
    if prop == "subtractive":
        if valuation is None:
            raise UsageError("subtractive needs --valuation (checks the positive ideal)")
        return _law_outcome(is_subtractive_bounded(positive_ideal(valuation), spec))
    if prop == "prime":
        if valuation is None:
            raise UsageError("prime needs --valuation (checks the positive ideal)")
        return _law_outcome(is_prime_bounded(positive_ideal(valuation), spec))
    if prop == "units-zeroset":
        if valuation is None:
            raise UsageError("units-zeroset needs --valuation")
        return _law_outcome(units_vs_zeroset(valuation, spec))
    if prop == "extension-axioms":
        if valuation is None:
            raise UsageError("extension-axioms needs --valuation")
        return _law_outcome(check_valuation_axioms(extend_valuation(valuation), spec))
    if prop == "total-order":
        return _law_outcome(_total_order_check(args, instance, spec))
    if prop in ("gaussian", "dedekind-mertens"):
        carrier = _need_dvs(args) if args.valuation else instance
        if prop == "gaussian":
            return _law_outcome(gaussian_check(carrier, spec))
        polys = sample_content_polys(carrier, SampleSpec(spec.seed, 2 * spec.count,
                                                         spec.size_bound))
        half = len(polys) // 2
        dvs = carrier if isinstance(carrier, DVSStructure) else None
        for f, g in list(zip(polys[:half], polys[half:]))[: spec.count]:
            report = dedekind_mertens_check(f, g, dvs, spec)
            if not report.holds:
                return 1, report
        return 0, LawReport("dedekind-mertens", "holds", spec)
    raise UsageError(f"unknown property {prop!r}")


def _total_order_check(args, instance, spec: SampleSpec) -> LawReport:
    law = f"ideals-total-order[{instance.sid}]"
    dvs = None
    if args.valuation:
        dvs = dvs_structure(args.valuation, instance)
        pool = dvs.sample_carrier(SampleSpec(spec.seed, 90, min(spec.size_bound, 12)),
                                  salt="cli-ideals", nonzero=True)
        inst = dvs.ambient
    else:
        pool = [x for x in stream(instance,
                                  SampleSpec(spec.seed, 90, min(spec.size_bound, 12)),
                                  salt="cli-ideals") if not x.is_zero()]
        inst = instance
    ideals = [make_ideal(inst, pool[i: i + 2], dvs=dvs)
              for i in range(0, len(pool) - 1, 2)]
    checked = 0
    for i in range(len(ideals)):
        for j in range(i + 1, len(ideals)):
            if checked >= spec.count:
                return LawReport(law, "holds", spec)
            checked += 1
            report = ideals_comparable(ideals[i], ideals[j], spec)
            if not report.holds:
                return LawReport(law, "counterexample", spec, report.witness,
                                 f"between {ideals[i]} and {ideals[j]}")
    return LawReport(law, "holds", spec)


def _run_ideal(args):
    instance = get_instance(args.semiring)
    spec = _spec(args)
    dvs = dvs_structure(args.valuation, instance) if args.valuation else None

    def as_ideal(text):
        parsed = parse_ideal(text, instance, dvs=dvs)
        return parsed

    op = args.op
    if op in ("sum", "product"):
        if len(args.args) != 2:
            raise UsageError(f"{op} takes two ideal literals")
        I, J = as_ideal(args.args[0]), as_ideal(args.args[1])
        if isinstance(I, IntervalIdeal) or isinstance(J, IntervalIdeal):
            raise UsageError("sum/product apply to generator-list ideals")
        out = ideal_sum(I, J) if op == "sum" else ideal_product(I, J)
        return 0, LawReport(f"ideal-{op}", "holds", detail=str(out)), str(out)
    if op == "contains":
        if len(args.args) != 2:
            raise UsageError("contains takes an ideal literal and an element")
        I = as_ideal(args.args[0])
        x = parse_element(args.args[1], instance)
        verdict = I.contains(x)
        report = LawReport("ideal-contains", "holds" if verdict else "counterexample",
                           witness=(x,), detail=f"member of {I}" if verdict else
                           f"not a member of {I}")
        return (0 if verdict else 1), report, str(verdict).lower()
    if op == "comparable":
        if len(args.args) != 2:
            raise UsageError("comparable takes two ideal literals")
        I, J = as_ideal(args.args[0]), as_ideal(args.args[1])
        if isinstance(I, IntervalIdeal) and isinstance(J, IntervalIdeal):
            ok = interval_comparable(I, J)
            report = LawReport("ideals-comparable", "holds" if ok else "counterexample")
            return (0 if ok else 1), report, str(ok).lower()
        return _law_outcome(ideals_comparable(I, J, spec)) + (None,)
    if op == "subtractive":
        if len(args.args) != 1:
            raise UsageError("subtractive takes one ideal literal")
        return _law_outcome(is_subtractive_bounded(as_ideal(args.args[0]), spec)) + (None,)
    raise UsageError(f"unknown ideal operation {op!r}")


def _emit(payload: dict, report, output: str, extra_lines=()):
    if output == "json":
        print(json.dumps(payload))
    else:
        for line in extra_lines:
            print(line)
        if report is not None:
            print(report)


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
    start = time.monotonic()
    try:
        if args.command == "suite":
            results = run_all()
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

        if args.command == "valuate":
            instance = get_instance(args.semiring)
            if not args.valuation:
                raise UsageError("valuate needs --valuation")
            v = get_valuation(args.valuation, instance)
            x = parse_element(args.element, instance)
            value = str(v(x))
            payload = _report("valuate", args, "ok", result=value, start=start)
            _emit(payload, None, args.output, extra_lines=[value])
            return 0

        if args.command == "factor":
            D = _need_dvs(args)
            x = parse_element(args.element, D.ambient)
            unit, n = dvs_normal_form(D, x)
            text = f"unit = {unit}, exponent = {n} (t = {D.uniformizer})"
            payload = _report("factor", args, "ok", result=f"({unit}, {n})",
                              start=start)
            _emit(payload, None, args.output, extra_lines=[text])
            return 0

        if args.command == "divmod":
            D = _need_dvs(args)
            a = parse_element(args.dividend, D.ambient)
            b = parse_element(args.divisor, D.ambient)
            q, r = euclidean_divide(D, a, b)
            text = f"q = {q}, r = {r}"
            payload = _report("divmod", args, "ok", result=f"({q}, {r})",
                              start=start)
            _emit(payload, None, args.output, extra_lines=[text])
            return 0

        if args.command == "ideal":
            outcome = _run_ideal(args)
            code, report = outcome[0], outcome[1]
            result = outcome[2] if len(outcome) > 2 else None
            payload = _report("ideal", args, report.verdict, prop=args.op,
                              witness=report.witness, result=result, start=start)
            _emit(payload, report, args.output)
            return code

        if args.command == "check":
            code, report = _run_check(args)
            payload = _report("check", args, report.verdict, prop=args.property,
                              witness=report.witness, start=start)
            _emit(payload, report, args.output)
            return code

        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ParseError, InstanceMismatchError,
            UnsupportedOperationError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
