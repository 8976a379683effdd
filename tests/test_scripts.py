"""The example scripts print exactly what they printed when their output was
recorded, so a refactor of the library cannot change them unnoticed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    for name in ("add_argument calls", "defaulted parameters", "dataclass fields",
                 "environment reads", "total"):
        assert int(rows[name]) >= 0
