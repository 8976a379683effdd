#!/usr/bin/env python3
"""Count the size of the library: the lines of each module under
src/semival, and, over src/semival and scripts/, the settable values a
change can add: add_argument calls, parameters with a default (in functions
and lambdas), dataclass fields and environment reads.

The counts change with every change to the code, so compare the output of
two checkouts rather than pinning it.

Usage: python scripts/surface_count.py
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semival"
SCANNED = (PACKAGE, ROOT / "scripts")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def surface(tree: ast.AST) -> dict[str, int]:
    counts = dict.fromkeys(("add_argument calls", "defaulted parameters",
                            "dataclass fields", "environment reads"), 0)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            counts["add_argument calls"] += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            counts["defaulted parameters"] += (
                len(args.defaults) + sum(d is not None for d in args.kw_defaults))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            counts["dataclass fields"] += sum(
                isinstance(stmt, ast.AnnAssign) for stmt in node.body)
        elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            counts["environment reads"] += 1
    return counts


def main() -> None:
    modules = sorted(PACKAGE.glob("*.py"))
    print("== lines per module (src/semival)")
    total = 0
    for path in modules:
        n = len(path.read_text().splitlines())
        total += n
        print(f"{path.name:<20} {n:>6}")
    print(f"{'total':<20} {total:>6}")

    counts = Counter()
    for path in sorted(p for d in SCANNED for p in d.glob("*.py")):
        counts.update(surface(ast.parse(path.read_text(), filename=str(path))))
    print("== surface (src/semival and scripts)")
    for name, n in counts.items():
        print(f"{name:<20} {n:>6}")


if __name__ == "__main__":
    main()
