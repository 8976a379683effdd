"""The process that does the work: it imports semival from the checkout's
src/ directory and executes requests one at a time.

    python3 perfbench/worker.py serve --workload NAME --trace 0|1 [--spans PATH]
        Set up (import semival, resolve the instances, valuations and
        discrete valuation structures the workload uses), print a ready
        line, then answer JSON lines on stdin:
            {"load": [request, ...]}  parse the inputs (not timed)
            {"run": n}                execute the loaded requests in order,
                                      each after the previous verdict, with
                                      request ids n, n+1, ...; reply their
                                      verdicts with the wall and CPU
                                      seconds of each
            {"stats": true}           reply peak memory and trace counters
        At the end of input a traced worker writes its spans to PATH.
    python3 perfbench/worker.py cli --trace-out PATH -- ARGV...
        Run `semival ARGV...` once with tracing on, and write the layer
        counters and the import time of semival.cli to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from oracle import DVS_CARRIERS  # noqa: E402
from tracer import Tracer, import_traced_modules  # noqa: E402
from workloads import INSTANCE_IDS, VALUATION_PAIRS  # noqa: E402

IDEAL_INSTANCES = ("nat", "ideals-z", "bool-poly", "tropical-nat", "fuzzy")
CLI_INSTANCES = ("nat", "qnn", "ideals-z")
CLI_VALUATIONS = (("vp:5", "nat"), ("vp:3", "nat"), ("vp:5", "qnn"), ("vp:7", "qnn"))


class Handles:
    """What setup resolved: instances, valuations, extended valuations and
    discrete valuation structures, by id."""

    def __init__(self):
        self.inst: dict = {}
        self.val: dict = {}
        self.ext: dict = {}
        self.dvs: dict = {}


def setup(workload: str) -> Handles:
    from semival.dvs import dvs_structure, standard_dvs_structures
    from semival.fracfield import extend_valuation
    from semival.instances import get_instance, registered_instances
    from semival.valuation import get_valuation, registered_valuations

    h = Handles()
    if workload == "law-sweep":
        h.inst = {sid: get_instance(sid) for sid in INSTANCE_IDS}
        h.val = {(r, s): get_valuation(r, h.inst[s]) for r, s in VALUATION_PAIRS}
        h.ext = {k: extend_valuation(v) for k, v in h.val.items()}
    elif workload == "ideal-content":
        h.inst = {sid: get_instance(sid) for sid in IDEAL_INSTANCES}
        h.dvs = {name: dvs_structure(rule, get_instance(sid), name)
                 for name, (sid, rule) in DVS_CARRIERS.items()}
    elif workload == "acceptance":
        import semival.cli  # noqa: F401  (the suite runs behind the CLI)
        registered_instances()
        registered_valuations()
        standard_dvs_structures()
    elif workload == "cli-calc":
        import semival.cli  # noqa: F401
        h.inst = {sid: get_instance(sid) for sid in CLI_INSTANCES}
        h.val = {(r, s): get_valuation(r, h.inst[s]) for r, s in CLI_VALUATIONS}
        h.dvs = {p: dvs_structure(p, h.inst["qnn"]) for p in ("vp:5", "vp:3")}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return h


# -- request execution ----------------------------------------------------------

def _texts(witness) -> list[str]:
    return [str(w) for w in witness]


def run_law(req, h: Handles):
    from semival.laws import check_semiring_axioms, probe_mc_entire
    from semival.reports import SampleSpec
    from semival.valuation import (
        check_min_property,
        check_valuation_axioms,
        units_vs_zeroset,
        valuate,
    )

    spec = SampleSpec(req["seed"], req["n"], req["size"])
    law = req["law"]
    if law in ("axioms", "mc", "entire"):
        inst = h.inst[req["sid"]]
        if law == "axioms":
            r = check_semiring_axioms(inst, spec)
        else:
            r = probe_mc_entire(inst, spec)[law == "entire"]
        rv = None
        if not r.holds and law == "mc":
            a, b, c = r.witness
            rv = (not a.is_zero() and not inst.eq(b, c)
                  and inst.eq(inst.mul(a, b), inst.mul(a, c)))
        elif not r.holds and law == "entire":
            a, b = r.witness
            rv = not a.is_zero() and not b.is_zero() and inst.mul(a, b).is_zero()
        return {"verdict": r.verdict, "witness": _texts(r.witness), "rv": rv}
    key = (req["rule"], req["sid"])
    v = h.val[key]
    if law == "vaxioms":
        r = check_valuation_axioms(v, spec)
    elif law == "ext-axioms":
        r = check_valuation_axioms(h.ext[key], spec)
    elif law == "minp":
        r = check_min_property(v, spec)
        if r.holds:
            return {"verdict": r.verdict, "witness": [], "rv": None}
        vx, vy = valuate(v, r.x), valuate(v, r.y)
        vsum = valuate(v, v.source.add(r.x, r.y))
        rv = vx != vy and vsum != min(vx, vy)
        return {"verdict": r.verdict, "witness": _texts((r.x, r.y)), "rv": rv}
    elif law == "units":
        r = units_vs_zeroset(v, spec)
        if not r.holds:
            (x,) = r.witness
            val = valuate(v, x)
            rv = val >= v.zero_value and v.unit_in_sv(x) != (val == v.zero_value)
            return {"verdict": r.verdict, "witness": _texts(r.witness), "rv": rv}
    else:
        raise ValueError(f"unknown law {law!r}")
    return {"verdict": r.verdict, "witness": _texts(r.witness), "rv": None}


def _carrier(name, h: Handles):
    if name in h.dvs:
        D = h.dvs[name]
        return D.ambient, D
    return h.inst[name], None


def prepare(req, h: Handles, parse):
    """Parse a request's element texts into elements (not timed); building
    ideals and content polynomials from them is part of the request."""
    op = req["op"]
    if op == "ideal":
        inst, D = _carrier(req["carrier"], h)
        p = {"inst": inst, "dvs": D,
             "I": [parse(t, inst) for t in req["I"]],
             "J": [parse(t, inst) for t in req.get("J", ())],
             "probes": [parse(t, inst) for t in req.get("probes", ())]}
        return p
    if op == "content":
        inst, D = _carrier(req["carrier"], h)
        return {"inst": inst, "dvs": D,
                "f": [parse(t, inst) for t in req["f"]],
                "g": [parse(t, inst) for t in req["g"]]}
    return None


def run_ideal(req, p):
    from semival.dvs import carrier_ideal
    from semival.ideals import (
        ideal_power,
        ideal_product,
        ideal_subset,
        ideals_comparable,
        make_ideal,
    )

    D = p["dvs"]

    def ideal(gens):
        return carrier_ideal(D, gens) if D is not None else make_ideal(p["inst"], gens)

    kind = req["kind"]
    I = ideal(p["I"])
    if kind == "contains":
        return {"verdict": [I.contains(x) for x in p["probes"]]}
    if kind == "product":
        P = ideal_product(I, ideal(p["J"]))
        return {"verdict": [P.contains(x) for x in p["probes"]]}
    if kind == "power":
        P = ideal_power(I, req["n"])
        return {"verdict": [P.contains(x) for x in p["probes"]]}
    J = ideal(p["J"])
    if kind == "subset":
        r = ideal_subset(I, J)
        rv = None
        if not r.holds:
            (g,) = r.witness
            rv = I.contains(g) and not J.contains(g)
        return {"verdict": r.verdict, "witness": _texts(r.witness), "rv": rv}
    if kind == "comparable":
        r = ideals_comparable(I, J)
        rv = None
        if not r.holds:
            a, b = r.witness
            rv = (I.contains(a) and not J.contains(a)
                  and J.contains(b) and not I.contains(b))
        return {"verdict": r.verdict, "witness": _texts(r.witness), "rv": rv}
    raise ValueError(f"unknown ideal operation {kind!r}")


def run_content(req, p):
    from semival.content import dedekind_mertens_check, gaussian_defect, make_content_poly

    f = make_content_poly(p["inst"], p["f"])
    g = make_content_poly(p["inst"], p["g"])
    if req["kind"] == "dm":
        r = dedekind_mertens_check(f, g, p["dvs"])
    else:
        r = gaussian_defect(f, g, p["dvs"])
    return {"verdict": r.verdict, "witness": _texts(r.witness)}


def run_criterion(req):
    from semival import suite

    r = getattr(suite, f"criterion_{req['k']}")()
    return {"verdict": r.passed, "detail": r.detail}


def execute(req, prepared, h: Handles):
    op = req["op"]
    if op == "law":
        return run_law(req, h)
    if op == "ideal":
        return run_ideal(req, prepared)
    if op == "content":
        return run_content(req, prepared)
    if op == "criterion":
        return run_criterion(req)
    raise ValueError(f"unknown request {op!r}")


# -- modes -------------------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU time of this process and of any children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_one(req, prepared, h: Handles, tracer, request_id: int) -> dict:
    """Execute one request and time it, wall and CPU."""
    t0, c0 = perf_counter(), cpu_seconds()
    try:
        if tracer is not None:
            tracer.request = request_id
            out = tracer.span("bench", "request", execute, req, prepared, h)
        else:
            out = execute(req, prepared, h)
    except Exception as exc:  # a failed request is counted, not fatal
        out = {"error": f"{type(exc).__name__}: {exc}"}
    out["wall"], out["cpu"] = perf_counter() - t0, cpu_seconds() - c0
    return out


def serve(workload: str, trace: bool, spans_path: str | None) -> int:
    from semival.grammar import parse_element as parse

    tracer = None
    if trace:
        import_traced_modules()
        if workload == "acceptance":
            import semival.cli  # noqa: F401
        tracer = Tracer()
        tracer.install()
    h = setup(workload)
    _reply({"ready": True, "cpu": cpu_seconds()})
    requests, prepared = [], []
    for line in sys.stdin:
        msg = json.loads(line)
        if "load" in msg:
            if tracer is not None:
                tracer.suspend()
            requests = msg["load"]
            prepared = [prepare(r, h, parse) for r in requests]
            if tracer is not None:
                tracer.resume()
            _reply({"loaded": len(requests)})
        elif "run" in msg:
            _reply({"outs": [run_one(req, p, h, tracer, msg["run"] + i)
                             for i, (req, p) in enumerate(zip(requests, prepared))]})
        elif "stats" in msg:
            stats = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                stats["trace"] = tracer.summary()
            _reply(stats)
    if tracer is not None and spans_path:
        tracer.write_spans(spans_path)
    return 0


def traced_cli(trace_out: str, argv: list[str]) -> int:
    t0 = perf_counter()
    import semival.cli
    import_ms = (perf_counter() - t0) * 1000
    import_traced_modules()
    tracer = Tracer()
    tracer.install()
    code = tracer.span("bench", "request", sys.modules["semival.cli"].main, argv)
    summary = tracer.summary()
    summary["import_ms"] = import_ms
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


def main() -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("serve")
    s.add_argument("--workload", required=True)
    s.add_argument("--trace", type=int, default=0)
    s.add_argument("--spans")
    c = sub.add_parser("cli")
    c.add_argument("--trace-out", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    if args.mode == "serve":
        return serve(args.workload, bool(args.trace), args.spans)
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return traced_cli(args.trace_out, argv)


if __name__ == "__main__":
    sys.exit(main())
