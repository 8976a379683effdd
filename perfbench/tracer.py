"""Span recorder for the traced run.

The benchmark wraps the public entry points of each semival module from
outside: every binding of a public function in every loaded semival module
is replaced by a wrapper that records a span (request id, span id, parent
span id, name, start, end) and the layer's self time, which is the span's
duration minus the time covered by its child spans.  Nothing under src/
changes.

Layers named here are the modules.  Self times and counts are complete;
the stored span list is capped so a long run cannot exhaust memory, and the
number of spans not stored is reported.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 20_000

# layer -> (module, public entry points).  "Class.method" patches the class.
ENTRY_POINTS = {
    "semiring": ("semival.semiring", (
        "Semiring.add", "Semiring.mul", "Semiring.eq", "Semiring.power",
        "Semiring.element", "Semiring.is_unit", "Semiring.inv", "Semiring.div",
        "Semiring.from_literal", "Semiring.sample")),
    "instances": ("semival.instances", ("get_instance",)),
    "extended": ("semival.extended", (
        "ExtendedValue.__post_init__", "ext_add", "ext_compare", "ext_min",
        "ext_neg", "ext_difference")),
    "valuation": ("semival.valuation", (
        "valuate", "get_valuation", "registered_valuations",
        "check_valuation_axioms", "check_min_property", "units_vs_zeroset",
        "level_membership", "in_valuation_semiring", "in_positive_ideal")),
    "sampling": ("semival.sampling", (
        "stream", "pair_stream", "triple_stream", "nonzero_stream")),
    "laws": ("semival.laws", ("check_semiring_axioms", "probe_mc_entire")),
    "ideals": ("semival.ideals", (
        "FinGenIdeal.contains", "LevelIdeal.contains", "IntervalIdeal.contains",
        "make_ideal", "principal", "ideal_member", "ideal_sum", "ideal_product",
        "ideal_power", "ideal_subset", "ideals_comparable", "ideal_equal",
        "is_subtractive_bounded", "is_prime_bounded", "positive_ideal",
        "fuzzy_ideal_classify", "interval_comparable")),
    "content": ("semival.content", (
        "make_content_poly", "cp_add", "cp_mul", "content",
        "dedekind_mertens_check", "gaussian_defect", "sample_content_polys",
        "gaussian_check")),
    "dvs": ("semival.dvs", (
        "DVSStructure.contains", "DVSStructure.sample_carrier", "dvs_structure",
        "standard_dvs_structures", "dvs_normal_form", "dvs_ideal_of",
        "euclidean_divide", "intersection_probe", "integral_check",
        "ascending_chain_probe", "value_group_valuation", "carrier_principal",
        "carrier_ideal")),
    "fracfield": ("semival.fracfield", (
        "gp_embed", "gp_ops", "frac_arith", "embed_in_fractions",
        "extend_valuation")),
    "grammar": ("semival.grammar", (
        "parse_element", "parse_content_polynomial", "parse_ideal")),
    "cli": ("semival.cli", ("main",)),
    "suite": ("semival.suite", tuple(f"criterion_{k}" for k in range(1, 13))),
}
GENERATORS = {"pair_stream", "triple_stream"}
CONTAINS = {"FinGenIdeal.contains", "LevelIdeal.contains", "IntervalIdeal.contains"}
CONTENT_CHECKS = {"dedekind_mertens_check", "gaussian_defect"}
PARSERS = {"parse_element", "parse_content_polynomial", "parse_ideal"}
CACHES = {"sampling.stream_cache": ("semival.sampling", "_cached_stream"),
          "ideals.nat_semigroup_cache": ("semival.ideals", "_nat_semigroup")}


class Tracer:
    def __init__(self):
        self.stack: list = []          # frames: [child seconds, span id, name]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.product_gens: list[int] = []
        self.spans: list = []
        self.dropped = 0
        self.request = 0
        self._next_id = 0
        self._cache_start: dict = {}

    # -- span bookkeeping -------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        parent = self.stack[-1][1] if self.stack else 0
        frame = [0.0, self._next_id, name, parent]
        self.stack.append(frame)
        return frame

    def _exit(self, layer, frame, t0, t1):
        self.stack.pop()
        d = t1 - t0
        self.self_s[layer] += d - frame[0]
        if self.stack:
            self.stack[-1][0] += d
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.request, frame[1], frame[3], frame[2], t0, t1))
        else:
            self.dropped += 1

    def span(self, layer, name, fn, *args, **kwargs):
        """Run fn inside a span of the given layer."""
        frame = self._enter(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(layer, frame, t0, perf_counter())

    def wrap(self, layer, name, fn):
        tracer = self
        short = name.rsplit(".", 1)[-1]

        if short in GENERATORS:
            def traced_gen(*args, **kwargs):
                tracer.calls[layer] += 1
                gen = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(layer, frame, t0, perf_counter())
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            if short == "stream" and kwargs.get("keep") is not None:
                kwargs["keep"] = tracer._counting_keep(kwargs["keep"])
            elif short == "ext_compare" and tracer.stack \
                    and tracer.stack[-1][2] == "check_min_property":
                tracer.counts["minp_drawn"] += 1
            frame = tracer._enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, frame, t0, perf_counter())
            tracer._after(short, name, result)
            return result
        return traced

    def _after(self, short, name, result):
        if short == "stream":
            self.counts["sampling_elements"] += len(result)
        elif short == "ext_compare":
            if self.stack and self.stack[-1][2] == "check_min_property" and result != 0:
                self.counts["minp_informative"] += 1
        elif short == "ideal_product":
            self.product_gens.append(len(result.generators))
        elif short in CONTENT_CHECKS:
            self.counts["content_checks"] += 1
        elif short in PARSERS:
            self.counts["grammar_parse"] += 1

    def _counting_keep(self, keep):
        counts = self.counts

        def counted(x):
            counts["filtered_tried"] += 1
            ok = keep(x)
            if ok:
                counts["filtered_kept"] += 1
            return ok
        return counted

    def _wrap_rule(self, layer, valuation):
        """Return the valuation with its rule function traced; each call is
        one rule evaluation."""
        tracer = self
        fn = valuation.fn

        def rule(x):
            tracer.counts["rule_evaluations"] += 1
            frame = tracer._enter("rule")
            t0 = perf_counter()
            try:
                return fn(x)
            finally:
                tracer._exit(layer, frame, t0, perf_counter())
        return dataclasses.replace(valuation, fn=rule)

    def _state(self):
        return (self.self_s, self.calls, self.counts, self.product_gens, self.spans)

    def suspend(self):
        """Count what follows apart, until resume(): the benchmark's own
        input preparation must not show up in the layers."""
        self._saved = self._state()
        self.self_s, self.calls, self.counts = (defaultdict(float),
                                                defaultdict(int), defaultdict(int))
        self.product_gens, self.spans = [], []

    def resume(self):
        (self.self_s, self.calls, self.counts, self.product_gens,
         self.spans) = self._saved

    # -- installation ------------------------------------------------------------

    def install(self):
        """Patch every binding of every entry point in all loaded semival
        modules.  Import the modules to trace before calling this."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "semival" or n.startswith("semival.")]
        for layer, (modname, names) in ENTRY_POINTS.items():
            if modname not in sys.modules:
                continue
            module = sys.modules[modname]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    key = "ideals.contains" if name in CONTAINS else layer
                    setattr(cls, meth, self.wrap(key, name, getattr(cls, meth)))
                    continue
                original = getattr(module, name)
                wrapped = self.wrap(layer, name, original)
                if name in ("get_valuation", "extend_valuation"):
                    wrapped = self._rule_tracing(
                        "valuation" if name == "get_valuation" else "fracfield",
                        wrapped)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
        for key, (modname, attr) in CACHES.items():
            if modname in sys.modules:
                self._cache_start[key] = getattr(sys.modules[modname], attr).cache_info()

    def _rule_tracing(self, layer, resolver):
        def resolve(*args, **kwargs):
            return self._wrap_rule(layer, resolver(*args, **kwargs))
        return resolve

    # -- results -------------------------------------------------------------------

    def cache_deltas(self) -> dict:
        out = {}
        for key, (modname, attr) in CACHES.items():
            if key not in self._cache_start:
                out[key] = (0, 0)
                continue
            now = getattr(sys.modules[modname], attr).cache_info()
            start = self._cache_start[key]
            out[key] = (now.hits - start.hits, now.misses - start.misses)
        return out

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "product_gens": [max(self.product_gens, default=0),
                             sum(self.product_gens), len(self.product_gens)],
            "caches": self.cache_deltas(),
            "spans_stored": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for req, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"request": req, "span": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def import_traced_modules() -> None:
    for _, (modname, _) in ENTRY_POINTS.items():
        if modname != "semival.cli":
            importlib.import_module(modname)
