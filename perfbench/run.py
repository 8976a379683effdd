"""semival benchmark: one closed-loop client, one request at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; semival is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, measured with tracing off; with
--trace 1 they are the per-layer metrics of a separate traced run, plus
the tracing overhead.  The lines before it give the same run in words:
sample counts, the tail percentile, error rate and determinism digests.

Workloads: law-sweep, ideal-content, acceptance, cli-calc (see README.md).
cli-hostile runs the roadmap's known-defect inputs under a time limit; it
fails by design on the current code, so it is not one of the registered
workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import select
import selectors
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracle import nat_dm_holds, nat_member, verdict_ok  # noqa: E402
from workloads import (  # noqa: E402
    ACCEPTANCE_EXPECTED,
    cli_calc_pass,
    hostile_requests,
    ideal_content_pass,
    law_sweep_pass,
)

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
# what the installed `semival` console script runs
CONSOLE = "import sys; from semival.cli import main; sys.exit(main())"

SETUP_REPEATS = 9
SERVED_LIMIT_S = 120      # one pass of in-process requests
CLI_LIMIT_S = 30          # one CLI process
SUITE_LIMIT_S = 170       # one cold suite process, or criteria 1 to 12
HOSTILE_LIMIT_S = 10      # one known-defect input


class RunFailed(Exception):
    """The run cannot go on (a worker died or hung)."""


def child_env() -> dict:
    env = dict(os.environ)
    # str hashing is salted per process, and the salt moves dict and set
    # layouts enough to change request times by several per cent; one fixed
    # salt gives every worker and CLI process the same layouts
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# -- statistics ---------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The 90th percentile when at least 10 samples lie beyond it, else None."""
    if len(xs) < 100:
        return None
    return statistics.quantiles(xs, n=10)[-1]


# -- a served worker ----------------------------------------------------------------

class Worker:
    """One semival worker process, driven one JSON line at a time."""

    def __init__(self, workload: str, trace: bool, spans: str | None = None):
        cmd = [sys.executable, WORKER, "serve", "--workload", workload,
               "--trace", str(int(trace))]
        if spans:
            cmd += ["--spans", spans]
        self.t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env(), cwd=ROOT)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        ready = self.recv(SERVED_LIMIT_S)
        self.ready_wall = perf_counter() - self.t0
        self.ready_cpu = ready["cpu"]

    def send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def recv(self, limit: float):
        if not self.sel.select(timeout=limit):
            self.close(kill=True)
            raise RunFailed(f"worker gave no answer within {limit} s")
        line = self.proc.stdout.readline()
        if not line:
            self.close(kill=True)
            raise RunFailed("worker exited early")
        return json.loads(line)

    def call(self, obj, limit: float = SERVED_LIMIT_S):
        self.send(obj)
        return self.recv(limit)

    def close(self, kill: bool = False) -> None:
        if self.proc.stdout.closed:
            return
        if kill:
            self.proc.kill()
        else:
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.sel.close()


def measure_setup(workload: str) -> tuple[float, float]:
    """Median wall and CPU seconds from a fresh interpreter to a worker ready
    for its first request, over several fresh starts."""
    wall, cpu = [], []
    for _ in range(SETUP_REPEATS):
        w = Worker(workload, trace=False)
        wall.append(w.ready_wall)
        cpu.append(w.ready_cpu)
        w.close()
    return median(wall), median(cpu)


# -- checking verdicts -----------------------------------------------------------------

def check(expect: dict, out: dict) -> bool:
    """Compare one worker reply with its independent expected answer."""
    if "error" in out:
        return False
    verdict = out["verdict"]
    if expect["kind"] != "law":
        return verdict == expect["value"]
    if not verdict_ok(expect["class"], verdict):
        return False
    if verdict != "counterexample":
        return True
    if "sides" in expect:
        # nat content check: the escaped generator lies in exactly one side
        lhs, rhs = expect["sides"]
        w = int(out["witness"][-1])
        return nat_member(w, lhs) != nat_member(w, rhs)
    return out.get("rv") is True


class Tally:
    """Requests of one run: wall and CPU seconds each, failures, digests."""

    def __init__(self):
        self.latencies: list[float] = []  # wall seconds
        self.cpus: list[float] = []
        self.peak_mb = 0.0
        self.pass_rates: list[float] = []  # requests per second of each pass
        self._pass_start = (0, 0.0)
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.setup = (0.0, 0.0)
        self.first_requests = None
        self.first_verdicts = None
        self.notes: list[str] = []

    def record(self, wall: float, cpu: float, ok: bool, note: str = "") -> None:
        self.latencies.append(wall)
        self.cpus.append(cpu)
        self.busy_s += wall
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)

    def end_pass(self) -> None:
        n0, s0 = self._pass_start
        self.pass_rates.append(ratio(self.attempted - n0, self.busy_s - s0))
        self._pass_start = (self.attempted, self.busy_s)


def serve_passes(workload, make_pass, seed, seconds, trace=False, passes=None,
                 spans=None, rss_passes=1):
    """Closed loop over whole passes until `seconds` of measured time, or
    over exactly `passes` passes.  Peak memory is read after `rss_passes`
    passes, which every run completes, so it measures a fixed amount of
    work whatever the speed."""
    tally = Tally()
    w = Worker(workload, trace, spans)
    done = 0
    request_id = 0
    try:
        while ((done < passes) if passes is not None
               else (tally.busy_s < seconds or done < rss_passes)):
            items = make_pass(seed, done)
            requests = [req for req, _ in items]
            w.call({"load": requests})
            # the worker calls semival once per request, each call after the
            # previous verdict, and times each call itself: semival is a
            # library, so the pipe to the worker is not part of a request
            outs = w.call({"run": request_id + 1})["outs"]
            request_id += len(items)
            for (req, expect), out in zip(items, outs):
                tally.record(out["wall"], out["cpu"], check(expect, out),
                             f"{req} -> {out}")
            if done == 0:
                tally.first_requests = digest(requests)
                tally.first_verdicts = digest(
                    [[o.get("verdict"), o.get("witness")] for o in outs])
            tally.end_pass()
            done += 1
            if done == rss_passes:
                tally.peak_mb = w.call({"stats": True})["maxrss_kb"] / 1024
        stats = w.call({"stats": True})
    finally:
        w.close()
    tally.passes = done
    tally.stats = stats
    return tally


# -- acceptance ---------------------------------------------------------------------------

C10_WITNESS = re.compile(r"witness (.+?), (.+?), (\d+)")


def content_coeffs(text: str) -> list[int]:
    """Coefficients of a content polynomial printed as (c) + (c)*Y + (c)*Y^k."""
    coeffs: dict[int, int] = {}
    for term in text.split(" + "):
        m = re.fullmatch(r"\((\d+)\)(?:\*Y(?:\^(\d+))?)?", term.strip())
        if m is None:
            raise ValueError(f"unexpected content term {term!r}")
        k = 0 if "*Y" not in term else int(m.group(2) or 1)
        coeffs[k] = int(m.group(1))
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def c10_witness_ok(detail: str) -> bool:
    """Re-verify criterion 10's reported pair and escaped element with the
    reachable-sums oracle."""
    m = C10_WITNESS.search(detail)
    try:
        f, g, w = content_coeffs(m.group(1)), content_coeffs(m.group(2)), int(m.group(3))
    except (AttributeError, ValueError):
        return False  # no witness, or one printed in another form
    holds, lhs, rhs = nat_dm_holds(f, g)
    return not holds and nat_member(w, lhs) != nat_member(w, rhs)


def criteria_ok(results: dict) -> bool:
    """results: criterion number -> (passed, detail)."""
    if sorted(results) != sorted(ACCEPTANCE_EXPECTED):
        return False
    if any(results[k][0] != ACCEPTANCE_EXPECTED[k] for k in results):
        return False
    return c10_witness_ok(results[10][1])


class Child(NamedTuple):
    """One finished child process, with its own resource usage."""
    stdout: str | None  # None: killed at the limit
    code: int
    wall: float
    cpu: float
    peak_mb: float


def run_child(cmd, limit) -> Child:
    """Run one child process to the end, killing it after `limit` seconds.
    Reaping it with wait4 gives that child's own CPU time and peak memory."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as out:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        finished = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                finished = bool(select.select([pidfd], [], [], limit)[0])
            finally:
                os.close(pidfd)
        finally:
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace") if finished else None
    return Child(stdout, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024)


def run_suite_process():
    child = run_child([sys.executable, "-c", CONSOLE, "suite", "--output", "json"],
                      SUITE_LIMIT_S)
    if child.stdout is None:
        raise RunFailed(f"suite gave no answer within {SUITE_LIMIT_S} s")
    try:
        rows = json.loads(child.stdout.strip().splitlines()[-1])
        results = {r["criterion"]: (r["passed"], r["detail"]) for r in rows}
    except (IndexError, ValueError, KeyError, TypeError):
        results = {}
    # exit 1: the documented code when a criterion (here, 10) fails
    ok = child.code == 1 and criteria_ok(results)
    return child, ok, results


CRITERIA = [{"op": "criterion", "k": k} for k in range(1, 13)]


def run_criteria(trace: bool, spans=None):
    """Criteria 1..12 in order in one fresh worker; per-criterion wall seconds,
    results, total CPU seconds and the worker's stats."""
    w = Worker("acceptance", trace, spans)
    times, results, cpu = {}, {}, 0.0
    try:
        w.call({"load": CRITERIA})
        for k, out in enumerate(w.call({"run": 1}, SUITE_LIMIT_S)["outs"], 1):
            times[k] = out["wall"]
            cpu += out["cpu"]
            results[k] = (out.get("verdict"), out.get("detail", out.get("error", "")))
        stats = w.call({"stats": True})
    finally:
        w.close()
    return times, results, cpu, stats


# -- CLI requests ----------------------------------------------------------------------------

def cli_request(argv, expect, limit, traced_out=None):
    """Run one fresh semival process; return (child, ok, note, result)."""
    if traced_out is None:
        cmd = [sys.executable, "-c", CONSOLE] + argv
    else:
        cmd = [sys.executable, WORKER, "cli", "--trace-out", traced_out, "--"] + argv
    child = run_child(cmd, limit)
    shown = " ".join(a if len(a) <= 40 else a[:20] + "..." for a in argv)
    if child.stdout is None:
        return child, False, f"{shown}: no answer within {limit} s", None
    try:
        result = json.loads(child.stdout.strip().splitlines()[-1])["result"]
    except (IndexError, ValueError, KeyError, TypeError):
        result = None
    codes = expect["code"] if isinstance(expect["code"], tuple) else (expect["code"],)
    ok = child.code in codes and (child.code == 2 or result == expect["result"])
    note = f"{shown}: exit {child.code}, result {result!r}, expected {expect}"
    return child, ok, note, result


def record_child(tally, child, ok, note):
    tally.record(child.wall, child.cpu, ok, note)
    tally.peak_mb = max(tally.peak_mb, child.peak_mb)


def cli_passes(seed, seconds, traced=False, passes=None):
    tally = Tally()
    done = 0
    cold = []
    trace_files = []
    while (done < passes) if passes is not None else (tally.busy_s < seconds):
        items = cli_calc_pass(seed, done)
        outs = []
        for argv, expect in items:
            out_path = None
            if traced:
                fd, out_path = tempfile.mkstemp(suffix=".json", dir=OUT_DIR)
                os.close(fd)
                trace_files.append(out_path)
            child, ok, note, result = cli_request(argv, expect, CLI_LIMIT_S, out_path)
            record_child(tally, child, ok, note)
            outs.append(result)
            if argv[0] == "valuate":
                cold.append(child.wall)
        if done == 0:
            tally.first_requests = digest([argv for argv, _ in items])
            tally.first_verdicts = digest(outs)
        tally.end_pass()
        done += 1
    tally.passes = done
    tally.cold = cold
    summaries = []
    for path in trace_files:
        if os.path.getsize(path):  # a process that crashed wrote none
            with open(path, encoding="utf-8") as fh:
                summaries.append(json.load(fh))
        os.remove(path)
    tally.summaries = summaries
    return tally


# -- per-layer metrics ---------------------------------------------------------------------------

def merge(summaries):
    total = {"self_s": {}, "calls": {}, "counts": {}, "product_gens": [0, 0, 0],
             "caches": {}, "import_ms": []}
    for s in summaries:
        for key in ("self_s", "calls", "counts"):
            for k, v in s[key].items():
                total[key][k] = total[key].get(k, 0) + v
        pg = s["product_gens"]
        total["product_gens"] = [max(total["product_gens"][0], pg[0]),
                                 total["product_gens"][1] + pg[1],
                                 total["product_gens"][2] + pg[2]]
        for k, (hits, misses) in s["caches"].items():
            h0, m0 = total["caches"].get(k, (0, 0))
            total["caches"][k] = (h0 + hits, m0 + misses)
        if "import_ms" in s:
            total["import_ms"].append(s["import_ms"])
    return total


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(t, suite_times, overhead_s):
    s, calls, counts = t["self_s"], t["calls"], t["counts"]
    hits, misses = t["caches"].get("sampling.stream_cache", (0, 0))
    nat_hits, nat_misses = t["caches"].get("ideals.nat_semigroup_cache", (0, 0))
    pg_max, pg_sum, pg_n = t["product_gens"]
    m = {
        "semiring.calls": (calls.get("semiring", 0), "count"),
        "semiring.self_s": (s.get("semiring", 0.0), "s"),
        "instances.get_instance_calls": (calls.get("instances", 0), "count"),
        "instances.get_instance_s": (s.get("instances", 0.0), "s"),
        "extended.calls": (calls.get("extended", 0), "count"),
        "extended.self_s": (s.get("extended", 0.0), "s"),
        "valuation.valuate_calls": (counts.get("rule_evaluations", 0), "count"),
        "valuation.self_s": (s.get("valuation", 0.0), "s"),
        "valuation.minp_informative_ratio": (
            ratio(counts.get("minp_informative", 0), counts.get("minp_drawn", 0)), "ratio"),
        "sampling.elements": (counts.get("sampling_elements", 0), "count"),
        "sampling.filtered_accept_ratio": (
            ratio(counts.get("filtered_kept", 0), counts.get("filtered_tried", 0)), "ratio"),
        "sampling.stream_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "sampling.self_s": (s.get("sampling", 0.0), "s"),
        "laws.self_s": (s.get("laws", 0.0), "s"),
        "ideals.contains_calls": (calls.get("ideals.contains", 0), "count"),
        "ideals.contains_self_s": (s.get("ideals.contains", 0.0), "s"),
        "ideals.product_generators_max": (pg_max, "count"),
        "ideals.product_generators_mean": (ratio(pg_sum, pg_n), "count"),
        "ideals.nat_semigroup_cache_hit_ratio": (ratio(nat_hits, nat_hits + nat_misses),
                                                 "ratio"),
        "ideals.self_s": (s.get("ideals", 0.0) + s.get("ideals.contains", 0.0), "s"),
        "content.checks": (counts.get("content_checks", 0), "count"),
        "content.self_s": (s.get("content", 0.0), "s"),
        "dvs.calls": (calls.get("dvs", 0), "count"),
        "dvs.self_s": (s.get("dvs", 0.0), "s"),
        "fracfield.self_s": (s.get("fracfield", 0.0), "s"),
        "grammar.parse_calls": (counts.get("grammar_parse", 0), "count"),
        "grammar.self_s": (s.get("grammar", 0.0), "s"),
        "cli.import_ms": (median(t["import_ms"]), "ms"),
        "cli.self_s": (s.get("cli", 0.0), "s"),
    }
    for k in range(1, 13):
        m[f"suite.c{k:02d}_s"] = (suite_times.get(k, 0.0), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


# -- workloads ------------------------------------------------------------------------------------

def end_to_end(tally):
    return {
        "setup_s": {"value": tally.setup[0], "unit": "s"},
        "checks_per_s": {"value": median(tally.pass_rates), "unit": "1/s"},
        "verdict_ms_p50": {"value": median(tally.latencies) * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": tally.peak_mb, "unit": "MB"},
    }


def describe(name, tally, extra=()):
    lat = tally.latencies
    p90 = tail(lat)
    lines = [f"{name}: {tally.attempted} requests in {tally.busy_s:.3f} s measured, "
             f"{tally.failed} failed (error_rate {ratio(tally.failed, tally.attempted):.4f})",
             f"{name}: verdict_ms p50 {median(lat) * 1000:.3f} over n={len(lat)}; "
             + (f"p90 {p90 * 1000:.3f}" if p90 is not None else
                "p90 not reported (fewer than 100 samples)")
             + f"; CPU p50 {median(tally.cpus) * 1000:.3f}"]
    if tally.pass_rates:
        lines.append(f"{name}: checks_per_s median {median(tally.pass_rates):.4f} over "
                     f"{len(tally.pass_rates)} passes; over the whole run "
                     f"{ratio(tally.attempted, tally.busy_s):.4f}")
    if tally.setup[0]:
        lines.append(f"{name}: setup {tally.setup[0]:.4f} s, CPU {tally.setup[1]:.4f} s "
                     f"(medians of {SETUP_REPEATS} fresh starts)")
    if tally.first_requests:
        lines.append(f"{name}: pass-0 digests requests={tally.first_requests} "
                     f"verdicts={tally.first_verdicts}")
    lines.extend(extra)
    lines.extend(f"{name}: FAILED {note}" for note in tally.notes)
    return lines


def served_workload(name, make_pass, rss_passes):
    def run(seed, seconds, trace):
        if not trace:
            setup = measure_setup(name)
            tally = serve_passes(name, make_pass, seed, seconds, rss_passes=rss_passes)
            tally.setup = setup
            return tally, end_to_end(tally), describe(name, tally)
        plain = serve_passes(name, make_pass, seed, seconds / 2)
        spans = os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl")
        shown = os.path.relpath(spans, ROOT)
        if os.path.exists(spans):
            os.remove(spans)
        traced = serve_passes(name, make_pass, seed, None, trace=True,
                              passes=plain.passes, spans=spans)
        overhead = traced.busy_s - plain.busy_s
        summary = merge([traced.stats["trace"]])
        metrics = layer_metrics(summary, {}, overhead)
        lines = describe(name, traced, [
            f"{name}: traced {traced.busy_s:.3f} s vs untraced {plain.busy_s:.3f} s "
            f"over the same {plain.passes} passes; spans in {shown} "
            f"({traced.stats['trace']['spans_dropped']} beyond the cap not stored)"])
        traced.attempted += plain.attempted
        traced.failed += plain.failed
        return traced, metrics, lines
    return run


def acceptance(seed, seconds, trace):
    # the suite fixes its own inputs, so the seed does not apply
    if not trace:
        tally = Tally()
        tally.setup = measure_setup("acceptance")
        codes = []
        while tally.busy_s < seconds:
            child, ok, results = run_suite_process()
            codes.append(child.code)
            record_child(tally, child, ok, f"suite exit {child.code}: {results}")
            tally.end_pass()
            if tally.first_verdicts is None:
                tally.first_requests = digest(["suite", "--output", "json"])
                tally.first_verdicts = digest(sorted(results.items()))
        extra = [f"acceptance: suite_s median {median(tally.latencies):.3f} over "
                 f"n={len(tally.latencies)} cold processes, exit codes {codes}"]
        return tally, end_to_end(tally), describe("acceptance", tally, extra)
    plain = run_criteria(False)
    spans = os.path.join(OUT_DIR, "spans-acceptance.jsonl")
    if os.path.exists(spans):
        os.remove(spans)
    traced = run_criteria(True, spans)
    tally = Tally()
    for times, results, cpu, _ in (plain, traced):
        tally.record(sum(times.values()), cpu, criteria_ok(results), f"criteria {results}")
    plain_times, traced_times, stats = plain[0], traced[0], traced[3]
    overhead = sum(traced_times.values()) - sum(plain_times.values())
    summary = merge([stats["trace"]])
    metrics = layer_metrics(summary, plain_times, overhead)
    lines = [f"acceptance: criteria untraced {' '.join(f'c{k}={v:.2f}' for k, v in plain_times.items())}",
             f"acceptance: traced {sum(traced_times.values()):.3f} s vs untraced "
             f"{sum(plain_times.values()):.3f} s; spans in {os.path.relpath(spans, ROOT)}"]
    return tally, metrics, describe("acceptance", tally, lines)


def cli_calc(seed, seconds, trace):
    if not trace:
        setup = measure_setup("cli-calc")
        tally = cli_passes(seed, seconds)
        tally.setup = setup
        metrics = end_to_end(tally)
        extra = [f"cli-calc: cli_cold_start_ms (fresh valuate process) median "
                 f"{median(tally.cold) * 1000:.3f} over n={len(tally.cold)}"]
        return tally, metrics, describe("cli-calc", tally, extra)
    plain = cli_passes(seed, seconds / 2)
    traced = cli_passes(seed, None, traced=True, passes=plain.passes)
    overhead = traced.busy_s - plain.busy_s
    metrics = layer_metrics(merge(traced.summaries), {}, overhead)
    lines = describe("cli-calc", traced, [
        f"cli-calc: traced {traced.busy_s:.3f} s vs untraced {plain.busy_s:.3f} s "
        f"over the same {plain.passes} passes"])
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    return traced, metrics, lines


def cli_hostile(seed, seconds, trace):
    """The known-defect slice: each input once, under a time limit."""
    tally = Tally()
    for argv, expect in hostile_requests():
        child, ok, note, _ = cli_request(argv, expect, HOSTILE_LIMIT_S)
        record_child(tally, child, ok, note)
    tally.end_pass()
    return tally, end_to_end(tally), describe("cli-hostile", tally)


WORKLOADS = {
    "law-sweep": served_workload("law-sweep", law_sweep_pass, rss_passes=3),
    "ideal-content": served_workload("ideal-content", ideal_content_pass, rss_passes=20),
    "acceptance": acceptance,
    "cli-calc": cli_calc,
    "cli-hostile": cli_hostile,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "semival", "__init__.py")):
        print(f"error: no semival sources under {ROOT}/src; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        tally, metrics, lines = WORKLOADS[args.workload](args.seed, args.seconds,
                                                         bool(args.trace))
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
