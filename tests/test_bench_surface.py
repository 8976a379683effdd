"""The names the benchmark in perfbench/ binds to must exist in the library.

The traced benchmark patches a fixed list of entry points and reads a few
fields; a deleted or renamed one would otherwise fail only when the
benchmark runs.  These tests read perfbench/ and change nothing there.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


def _resolve(module: str, name: str):
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("layer", sorted(TRACER.ENTRY_POINTS))
def test_every_traced_entry_point_resolves(layer):
    module, names = TRACER.ENTRY_POINTS[layer]
    for name in names:
        assert callable(_resolve(module, name)), f"{module}.{name}"


def test_every_traced_cache_reports_its_counts():
    for module, attr in TRACER.CACHES.values():
        assert callable(_resolve(module, attr).cache_info), f"{module}.{attr}"


def test_every_name_the_worker_imports_resolves():
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "semival"
               for alias in node.names]
    assert imports
    for module, name in imports:
        try:
            _resolve(module, name)
        except AttributeError:
            # `from semival import suite` names a submodule
            importlib.import_module(f"{module}.{name}")


def test_valuation_rule_is_an_init_field():
    # the tracer swaps it with dataclasses.replace to count rule evaluations
    from semival.valuation import Valuation
    fields = {f.name: f for f in dataclasses.fields(Valuation)}
    assert fields["fn"].init


def test_min_property_report_carries_the_pair():
    from semival.valuation import MinPropertyReport
    assert {"x", "y"} <= {f.name for f in dataclasses.fields(MinPropertyReport)}


def test_every_result_attribute_the_benchmark_reads_exists_on_real_objects():
    # read by perfbench/tracer.py (generators, after each ideal_product) and
    # perfbench/worker.py (the rest) off the objects the library returns
    from semival.dvs import standard_dvs_structures
    from semival.extended import ExtendedValue
    from semival.ideals import ideal_product, ideal_subset, make_ideal
    from semival.instances import get_instance
    from semival.semiring import Element
    from semival.suite import criterion_7
    from semival.valuation import get_valuation

    nat = get_instance("nat")
    product = ideal_product(make_ideal(nat, [nat.element(2)]),
                            make_ideal(nat, [nat.element(3)]))
    assert [g.payload for g in product.generators] == [6]
    assert all(isinstance(g, Element) for g in product.generators)
    report = ideal_subset(make_ideal(nat, [nat.one]), product)
    assert (report.verdict, report.holds) == ("counterexample", False)
    assert tuple(report.witness) == (nat.one,)
    qnn = get_instance("qnn")
    v = get_valuation("vp:5", qnn)
    assert v.source is qnn and v.zero_value == ExtendedValue("Z", 0)
    assert v.unit_in_sv(qnn.one) and not v.unit_in_sv(qnn.element(5))
    assert standard_dvs_structures()[0].ambient is qnn
    result = criterion_7()
    assert result.passed is True and isinstance(result.detail, str)
