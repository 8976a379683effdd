#!/usr/bin/env python3
"""Time the CLI's cold start: the median wall milliseconds of a fresh
process for a bare interpreter and for one valuate, factor, divmod and
ideal-contains command each, over 20 rounds that run every command once in
turn.  Then list the semival modules each command loads, and say for each
whether current bytecode exists for it: without it, every process compiles
the module from source.

The children import semival from this checkout's src/ and inherit the
environment, so PYTHONDONTWRITEBYTECODE decides whether the first run
leaves bytecode for the others.  The output is a timing, so it changes from
machine to machine.

Usage: python scripts/cold_start.py
"""

import importlib.util
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
ROUNDS = 20
COMMANDS = {
    "python -c pass": None,
    "valuate": ["valuate", "--semiring", "nat", "--valuation", "vp:5", "50"],
    "factor": ["factor", "--semiring", "qnn", "--valuation", "vp:5", "50/3"],
    "divmod": ["divmod", "--semiring", "qnn", "--valuation", "vp:5", "50/3", "7"],
    "ideal contains": ["ideal", "--semiring", "nat", "--op", "contains",
                       "ideal[3, 5]", "7"],
}
CLI = "import sys; from semival.cli import main; sys.exit(main(sys.argv[1:]))"
# printed at exit: the semival modules the command loaded
LOADED = ("import atexit, sys; atexit.register(lambda: print(*sorted(m[8:] for m "
          "in sys.modules if m.startswith('semival.')))); ")


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def argv_of(command, setup="") -> list[str]:
    if command is None:
        return [sys.executable, "-c", "pass"]
    return [sys.executable, "-c", setup + CLI, *command]


def run(argv, env) -> str:
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    if out.returncode not in (0, 1) or out.stderr:
        raise RuntimeError(f"{argv[3:]} exited {out.returncode}: {out.stderr}")
    return out.stdout


def bytecode_is_current(name: str) -> bool:
    """Whether the module's cached bytecode matches its source, as the
    import system checks it."""
    source = SRC / "semival" / f"{name}.py"
    try:
        header = Path(importlib.util.cache_from_source(str(source))).read_bytes()[:16]
    except OSError:
        return False
    if header[:4] != importlib.util.MAGIC_NUMBER:
        return False
    if int.from_bytes(header[4:8], "little") & 1:  # checked against a hash
        return header[8:16] == importlib.util.source_hash(source.read_bytes())
    st = source.stat()
    return (int.from_bytes(header[8:12], "little") == int(st.st_mtime) & 0xFFFFFFFF
            and int.from_bytes(header[12:16], "little") == st.st_size & 0xFFFFFFFF)


def main(rounds: int = ROUNDS) -> None:
    env = child_env()
    wall = {label: [] for label in COMMANDS}
    for _ in range(rounds):
        for label, command in COMMANDS.items():
            t0 = perf_counter()
            run(argv_of(command), env)
            wall[label].append(1000 * (perf_counter() - t0))
    writes = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"cold start, median wall ms of {rounds} fresh processes per command "
          f"(bytecode writing {writes})")
    for label, times in wall.items():
        print(f"  {label:<16}{statistics.median(times):8.1f}")
    print("semival modules each command loads; * marks current bytecode")
    for label, command in COMMANDS.items():
        if command is None:
            continue
        names = run(argv_of(command, LOADED), env).splitlines()[-1].split()
        marked = [name + ("*" if bytecode_is_current(name) else "") for name in names]
        print(f"  {label:<16}{' '.join(marked)}")


if __name__ == "__main__":
    main()
