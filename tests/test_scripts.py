"""The example scripts print exactly what they printed when their output was
recorded, so a refactor of the library cannot change them unnoticed."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semival.dvs import standard_dvs_structures
from semival.instances import ALL_REGISTERED_IDS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# sha256 of each script's stdout
SCRIPT_STDOUT_SHA256 = {
    "law_survey.py": "80070874153612f313e92a00bbb8ada883cfd0519242db869216ebd36d8e4a79",
    "dvs_tour.py": "3169169c7ced4657a4f8b2d8ae003b6b02f6fbfe2f6278dc0b3d8f60cc2c3292",
    "nat_routes.py": "52050ab164e1295bdb5cbc29d936cfc406e569b7a0c31161043cd8702633ca47",
}


@pytest.mark.parametrize("script", sorted(SCRIPT_STDOUT_SHA256))
def test_script_output_is_pinned(script):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], env=env,
                         capture_output=True, timeout=120, check=True)
    assert out.stderr == b""
    assert hashlib.sha256(out.stdout).hexdigest() == SCRIPT_STDOUT_SHA256[script]


def test_surface_count_lists_every_module():
    # its counts change with every change, so only its shape is checked
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "surface_count.py")],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stderr == ""
    rows = dict(line.rsplit(None, 1) for line in out.stdout.splitlines()
                if not line.startswith("=="))
    for path in (SRC / "semival").glob("*.py"):
        assert int(rows[path.name]) == len(path.read_text().splitlines())
    for name in ("classes", "add_argument calls", "defaulted parameters",
                 "dataclass fields", "environment reads", "total"):
        assert int(rows[name]) >= 0


def test_stream_cost_lists_every_stream():
    # its figures are timings, so only its rows are checked
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "stream_cost.py")],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stderr == ""
    timing, memory = out.stdout.split("\n\n")
    lines = timing.splitlines()
    assert lines[1].split() == ["stream", "us/element", "us/_add", "us/_mul", "us/_eq"]
    rows = {line[:36].strip(): line[36:].split() for line in lines[3:]}
    labels = list(ALL_REGISTERED_IDS)
    labels += ["fractions(qnn)", "fractions(tropical-int)",
               "fractions(fractions(poly(nat)))", "fractions(fractions(ideals-z))"]
    labels += [f"carrier: {D.name}" for D in standard_dvs_structures()]
    assert list(rows) == labels
    for figures in rows.values():
        assert len(figures) == 4 and all(float(f) >= 0 for f in figures)
    lines = memory.splitlines()
    assert lines[1].split() == ["law", "peak", "KB"]
    peaks = {line[:36].strip(): float(line[36:]) for line in lines[3:]}
    assert list(peaks) == ["min-property vp:5@qnn (pairs)", "axioms poly(nat) (triples)"]
    # each law holds O(1) samples: a drawn-whole stream of 10^4 payloads
    # alone takes some megabytes
    assert all(0 <= kb < 1024 for kb in peaks.values())


def test_cold_start_lists_every_command(capsys):
    # its figures are timings, so only its rows are checked, over one round
    spec = importlib.util.spec_from_file_location("cold_start",
                                                  ROOT / "scripts" / "cold_start.py")
    cold_start = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cold_start)
    cold_start.main(rounds=1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("cold start, median wall ms of 1 fresh processes")
    timed = dict(line.rsplit(None, 1) for line in lines[1:6])
    assert [label.strip() for label in timed] == list(cold_start.COMMANDS)
    assert all(float(ms) > 0 for ms in timed.values())
    assert lines[6] == "semival modules each command loads; * marks current bytecode"
    loaded = {line[:18].strip(): line[18:].split() for line in lines[7:]}
    assert list(loaded) == list(cold_start.COMMANDS)[1:]
    for names in loaded.values():
        assert {name.rstrip("*") for name in names} >= {"cli", "grammar", "instances"}
