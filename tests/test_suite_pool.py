"""The acceptance suite's worker pool: results in criterion order, errors
re-raised in the parent, the one-CPU path, a dead worker as exit 2, and no
process outliving the suite, whether it ends or is killed."""

import functools
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from semival import cli, suite
from semival.suite import CriterionResult

SRC = Path(__file__).resolve().parents[1] / "src"
# sha256 of `semival suite --output json` (stdout, with its newline)
SUITE_JSON_SHA256 = "391a0f8a273d5396463ee880deb32fc8c54448c60c3c83dbe45c50b77c14e979"
CONSOLE = "import sys; from semival.cli import main; sys.exit(main())"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pool forks its workers")


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def _suite_command(*argv):
    return [sys.executable, "-c", CONSOLE, "suite", *argv]


# fake criteria live at module level: the pool pickles them by name
def _fake(k, delay=0.0):
    time.sleep(delay)
    return CriterionResult(k, f"fake {k}", True, str(os.getpid()))


def _raises():
    raise ValueError("criterion 5 broke")


def _dies():
    os._exit(3)


def _use_fakes(monkeypatch, cpus, replace=None):
    """Twelve fake criteria, the later ones finishing first where they run
    side by side, on `cpus` usable CPUs."""
    criteria = [functools.partial(_fake, k, (12 - k) * 0.01) for k in range(1, 13)]
    for k, fn in (replace or {}).items():
        criteria[k - 1] = fn
    monkeypatch.setattr(suite, "ALL_CRITERIA", tuple(criteria))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def test_submission_order_names_every_criterion_once():
    assert sorted(suite.HEAVIEST_FIRST) == list(range(1, len(suite.ALL_CRITERIA) + 1))


@needs_fork
def test_pool_returns_results_in_criterion_order(monkeypatch):
    _use_fakes(monkeypatch, cpus=3)
    results = suite.run_all()
    assert [r.number for r in results] == list(range(1, 13))
    assert [r.title for r in results] == [f"fake {k}" for k in range(1, 13)]
    assert str(os.getpid()) not in {r.detail for r in results}
    assert multiprocessing.active_children() == []


@needs_fork
def test_pool_reraises_a_criterion_error(monkeypatch):
    _use_fakes(monkeypatch, cpus=2, replace={5: _raises})
    with pytest.raises(ValueError, match="criterion 5 broke"):
        suite.run_all()
    assert multiprocessing.active_children() == []


def test_one_cpu_runs_every_criterion_in_process(monkeypatch):
    _use_fakes(monkeypatch, cpus=1)
    results = suite.run_all()
    assert [r.number for r in results] == list(range(1, 13))
    assert {r.detail for r in results} == {str(os.getpid())}


@needs_fork
def test_a_dead_worker_exits_2_without_a_traceback(monkeypatch, capsys):
    _use_fakes(monkeypatch, cpus=2, replace={4: _dies})
    assert cli.main(["suite"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert multiprocessing.active_children() == []


def test_cli_import_loads_neither_the_suite_nor_a_process_pool():
    modules = ("semival.suite", "multiprocessing", "concurrent.futures.process")
    code = f"import sys, semival.cli; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_suite_process_reports_twelve_rows_and_leaves_no_process():
    with subprocess.Popen(_suite_command("--output", "json"), env=_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        out, err = proc.communicate(timeout=300)
    assert proc.returncode == 1, err
    rows = json.loads(out)
    assert [r["criterion"] for r in rows] == list(range(1, 13))
    assert [r["criterion"] for r in rows if not r["passed"]] == [10]
    # the report is pinned byte for byte: the same under any PYTHONHASHSEED
    # and on the one-CPU path
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_JSON_SHA256
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def _children(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # the fields after the parenthesised command: state, ppid, ...
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            kids.append(int(entry))
    return kids


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists()
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc and two usable CPUs")
def test_workers_die_with_a_killed_suite():
    proc = subprocess.Popen(_suite_command(), env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while len(_children(proc.pid)) < 2:
            assert proc.poll() is None, "the suite ended before it forked its workers"
            assert time.monotonic() < deadline, "the suite never forked two workers"
            time.sleep(0.05)
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while _group_alive(proc.pid):
            assert time.monotonic() < deadline, "workers outlived the killed suite"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
