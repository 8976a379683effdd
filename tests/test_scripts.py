"""The example scripts print exactly what they printed when their output was
recorded, so a refactor of the library cannot change them unnoticed."""

import hashlib
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
    lines = out.stdout.splitlines()
    assert lines[1].split() == ["stream", "us/element", "us/_add", "us/_mul", "us/_eq"]
    rows = {line[:36].strip(): line[36:].split() for line in lines[3:]}
    labels = list(ALL_REGISTERED_IDS)
    labels += [f"carrier: {D.name}" for D in standard_dvs_structures()]
    assert list(rows) == labels
    for figures in rows.values():
        assert len(figures) == 4 and all(float(f) >= 0 for f in figures)
