"""Benchmark of painleve-cubics: closed loop, one client, fresh processes.

    python3 perfbench/run.py --workload {suite,cli-cold}
                             --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is taken from ``src``.
Each workload repeats one unit (see ``workloads.py``) for S seconds; the
next unit starts only after the previous one has exited.  Every unit's
output is checked against ``golden.json`` (recorded with
``record_golden.py``); a unit that fails a check counts in ``failed`` and
the run goes on.

--trace 0 reports the end-to-end metrics, measured on untraced processes.
The shared host the benchmark was written on runs a vCPU up to 1.8x slower
for seconds to minutes at a time, with CPU time equal to wall time and
each vCPU slowed on its own, so raw wall times of runs made minutes apart
differ by more than any bound a regression check could use.  Hence:

* The benchmark pins itself, and so every process it starts, to one CPU,
  so that what it measures all runs on the same vCPU.
* A probe process (``child.py probe``) runs before the first unit and
  after every unit.  It times a fixed reference workload of the
  benchmark's own, then the set-up.  A unit's times are scaled by
  REFERENCE_S over the mean reference time of the probes just before and
  just after it; the set-up time by REFERENCE_S over its own probe's
  reference time.  Times are thus in seconds at the speed at which the
  machine the benchmark was written on runs the reference in REFERENCE_S.
  The metadata line holds the times as measured beside the scaled ones.

  wall_s        median over units of the scaled wall time of the unit's
                calls (process start to exit of each)
  setup_s       median over probes of the scaled time to import
                painleve_cubics.cli and build the catalog objects the
                workloads use, in a fresh process (at least SETUP_REPS)
  peak_rss_mb   median over units of the largest child ru_maxrss
  call_p50_s    median over the run's calls of their scaled wall times: one
                invocation (on suite, whose unit is one call, it equals wall_s)
The metadata line adds the tail of single calls: the highest percentile
with at least ten calls beyond it, its value and its sample count.
--trace 1 alternates untraced and traced units of the same input and
reports the per-layer metrics of the traced ones (``spans.py``), plus
the tracing overhead: median traced minus median untraced unit wall time,
as measured.  Counts must repeat exactly across the traced units of a run.

Only the benchmark's own child processes are timed, from this process,
with ``time.perf_counter`` and ``os.wait4`` rusage; nothing traces the
machine as a whole, because the shared host the benchmark was written on
does not permit machine-wide tracing.

The second-to-last stdout line holds the run metadata; the last line is
the result object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
LAUNCHER = "import sys; from painleve_cubics.cli import main; sys.exit(main())"

RUN_LIMIT_S = 170.0
SETUP_REPS = 8
MIN_UNITS = 4
MIN_TRACED_UNITS = 2
# ``child.reference`` on the 2-core VM the benchmark was written on, at full
# speed and pinned to one CPU
REFERENCE_S = 0.135
NOISE_NOTE = ("observed on a shared 2-core VM (Python 3.11.7) while writing the "
              "benchmark: CPU time equals wall time and steal time stays under 10%, "
              "yet the same work ran up to 1.8x slower in states lasting seconds to "
              "many minutes, on each vCPU on its own; over ten seeds, run medians of "
              "raw unit wall times spread 10-38% (quartile distance over median) "
              "on suite, hence the pinning and the reference scaling")

VERIFY_SPANS = tuple(f"verify.{g}" for g in (
    "charts", "atlas", "cubics", "nambu", "confluence", "lambda", "casimirs",
    "commutant", "cluster", "twists", "signatures", "unfolding", "arcs"))
# span names that must record calls on each workload, or the trace is incomplete
EXPECTED_SPANS = {
    "suite": tuple(spans.ENTRY_POINTS) + VERIFY_SPANS,
    "cli-cold": ("ring.mul", "ring.add", "ring.substitute", "ring.divide_exact",
                 "ring.rational", "exprs.parse", "catalog.load", "linalg",
                 "poisson.bracket", "cluster.mutate", "verify.charts", "verify.atlas",
                 "verify.twists", "verify.confluence"),
}


@dataclass
class Call:
    """One finished child process."""

    argv: list
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Unit:
    """One unit: its calls, whether every check passed, and its trace files."""

    calls: list
    ok: bool
    traces: list
    reference_s: float = 0.0   # mean reference time of the probes around it

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.golden = json.loads(GOLDEN.read_text())
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP",
                                 "PAINLEVE_CUBICS_CATALOG")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.argvs = [wl.SUITE_ARGV] if workload == "suite" else wl.cli_unit(seed)
        self.problems: list = []
        self.traced_seq = 0

    def spawn(self, argv: list) -> Call:
        cmd = [sys.executable] + list(argv)
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(argv, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes())

    def probe(self) -> dict:
        """{"reference_s", "setup_s"} of one fresh probe process."""
        call = self.spawn([str(BENCH / "child.py"), "probe"])
        if call.returncode != 0:
            raise RuntimeError(f"probe failed: {call.stderr.decode()[-500:]}")
        return json.loads(call.stdout.decode().strip().splitlines()[-1])

    def unit(self, traced: bool) -> tuple:
        """(calls, problems, trace files) of one unit."""
        calls, problems, traces = [], [], []
        for argv in self.argvs:
            if traced:
                self.traced_seq += 1
                trace = self.workdir / f"trace-{self.traced_seq}.bin"
                call = self.spawn([str(BENCH / "child.py"), "traced", str(trace), *argv])
                traces.append(trace)
            else:
                call = self.spawn(["-c", LAUNCHER, *argv])
            call.argv = argv
            calls.append(call)
            problems += wl.check_call(argv, call.returncode, call.stdout, self.golden)
        return calls, problems, traces

    def guarded_unit(self, traced: bool) -> Unit:
        """A unit whose failures are recorded, never raised."""
        try:
            calls, problems, traces = self.unit(traced)
        except Exception as exc:  # a failed unit must not stop the run
            calls, problems, traces = [], [f"{type(exc).__name__}: {exc}"], []
        self.problems += problems
        return Unit(calls, not problems, traces)


def tail(values: list) -> dict:
    """The highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    while p > 0 and n - math.ceil(n * p / 100) < 10:
        p -= 1
    if p <= 0:
        return {"percentile": None, "value_s": None, "samples": n}
    return {"percentile": p, "value_s": sorted(values)[math.ceil(n * p / 100) - 1],
            "samples": n}


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Closed loop for ``seconds``.

    Untraced: a probe before the first unit and after each unit.  Traced:
    untraced and traced units alternate, with no probes.
    """
    start = time.monotonic()
    plain, traced, probes = [], [], []
    min_plain = 1 if trace else MIN_UNITS
    min_traced = MIN_TRACED_UNITS if trace else 0
    if not trace:
        probes.append(runner.probe())
    steps = []
    while True:
        t0 = time.monotonic()
        # P T T P T P T ...: the first untraced unit, then enough traced ones
        use_trace = trace and bool(plain) and (len(traced) < min_traced
                                               or len(traced) < len(plain))
        unit = runner.guarded_unit(use_trace)
        (traced if use_trace else plain).append(unit)
        if not trace:
            probes.append(runner.probe())
            unit.reference_s = (probes[-2]["reference_s"] + probes[-1]["reference_s"]) / 2
        steps.append(time.monotonic() - t0)
        done = len(plain) >= min_plain and len(traced) >= min_traced
        next_end = time.monotonic() + statistics.median(steps)
        if done and next_end - start > seconds:
            break
        if next_end > runner.deadline:
            break
    while not trace and len(probes) < SETUP_REPS and time.monotonic() < runner.deadline:
        probes.append(runner.probe())
    return {"plain": plain, "traced": traced, "probes": probes}


def end_to_end(result: dict) -> tuple:
    """(metrics, as measured): the metrics, and their times unscaled."""
    units = [u for u in result["plain"] if u.calls]
    probes = result["probes"]
    metrics = {
        "wall_s": statistics.median(u.wall_s * REFERENCE_S / u.reference_s for u in units),
        "setup_s": statistics.median(p["setup_s"] * REFERENCE_S / p["reference_s"]
                                     for p in probes),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in u.calls) for u in units),
        "call_p50_s": statistics.median(scaled_calls(units)),
    }
    raw = {
        "wall_s": statistics.median(u.wall_s for u in units),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "call_p50_s": statistics.median(c.wall_s for u in units for c in u.calls),
        "reference_s": statistics.median(p["reference_s"] for p in probes),
    }
    return metrics, raw


def scaled_calls(units: list) -> list:
    return [c.wall_s * REFERENCE_S / u.reference_s for u in units for c in u.calls]


def unit_layers(traces: list) -> dict:
    """Per-layer values of one traced unit (one or more traced processes)."""
    layers: dict = {}
    counters: dict = {}
    imports, n_spans, hits, misses = [], 0, 0, 0
    for path in traces:
        s = spans.summarize(path)
        for name, rec in s["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0})
            acc["calls"] += rec["calls"]
            acc["self_s"] += rec["self_s"]
            acc["total_s"] += rec["total_s"]
            acc["max_s"] = max(acc["max_s"], rec["max_s"])
        for key, value in s["counters"].items():
            if key.endswith("max_terms"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        imports.append(s["import_s"])
        n_spans += s["spans"]
        hits += s["cache_hits"]
        misses += s["cache_misses"]

    def get(name, field="calls"):
        return layers.get(name, {}).get(field, 0)

    def frac(num, den):
        return num / den if den else 0.0

    counts = {
        "ring.mul.calls": get("ring.mul"),
        "ring.mul.term_pairs": counters.get("ring.mul.term_pairs", 0),
        "ring.mul.terms_out": counters.get("ring.mul.terms_out", 0),
        "ring.divide_exact.calls": get("ring.divide_exact"),
        "ring.divide_exact.max_terms": counters.get("ring.divide_exact.max_terms", 0),
        "ring.divide_exact.useful_frac": frac(counters.get("ring.divide_exact.useful", 0),
                                              get("ring.divide_exact")),
        "ring.rational.calls": get("ring.rational"),
        "ring.rational.den_one_frac": frac(counters.get("ring.rational.den_one", 0),
                                           get("ring.rational")),
        "ring.add.calls": get("ring.add"),
        "ring.substitute.calls": get("ring.substitute"),
        "exprs.parse.calls": get("exprs.parse"),
        "exprs.parse.chars": counters.get("exprs.parse.chars", 0),
        "catalog.load.calls": get("catalog.load"),
        "catalog.load.bytes": counters.get("catalog.load.bytes", 0),
        "catalog.cache.hit_frac": frac(hits, hits + misses),
        "linalg.calls": get("linalg"),
        "poisson.bracket.calls": get("poisson.bracket"),
        "cluster.mutate.calls": get("cluster.mutate"),
        "cluster.max_terms": counters.get("cluster.max_terms", 0),
        "trace.spans": n_spans,
    }
    times = {
        "ring.mul.self_s": get("ring.mul", "self_s"),
        "ring.divide_exact.self_s": get("ring.divide_exact", "self_s"),
        "ring.divide_exact.max_call_s": get("ring.divide_exact", "max_s"),
        "ring.rational.self_s": get("ring.rational", "self_s"),
        "ring.add.self_s": get("ring.add", "self_s"),
        "ring.substitute.self_s": get("ring.substitute", "self_s"),
        "exprs.parse.self_s": get("exprs.parse", "self_s"),
        "catalog.load.self_s": get("catalog.load", "self_s"),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "linalg.self_s": get("linalg", "self_s"),
        "poisson.bracket.self_s": get("poisson.bracket", "self_s"),
        "poisson.solve_structure.self_s": get("poisson.solve_structure", "self_s"),
        "cluster.mutate.self_s": get("cluster.mutate", "self_s"),
    }
    for g in VERIFY_SPANS:
        times[f"{g}.s"] = get(g, "total_s")
    called = {name for name, rec in layers.items() if rec["calls"]}
    return {"counts": counts, "times": times, "called": called}


def per_layer(result: dict, workload: str) -> tuple:
    """(metrics, notes); raises SystemExit when the trace is incomplete or unsteady.

    Units that failed an output check still count here if every traced
    process wrote its spans; the failure itself shows in ``failed``.
    """
    units = [unit_layers(u.traces) for u in result["traced"]
             if u.traces and all(p.is_file() for p in u.traces)]
    if not units:
        raise SystemExit("no traced unit wrote its spans")
    missing = sorted(set(EXPECTED_SPANS[workload]) - units[0]["called"])
    if missing:
        raise SystemExit(f"trace coverage: no calls recorded for {', '.join(missing)} "
                         f"on {workload}; an entry point was renamed or bypassed")
    for other in units[1:]:
        if other["counts"] != units[0]["counts"]:
            diff = {k: (units[0]["counts"][k], other["counts"][k])
                    for k in units[0]["counts"] if units[0]["counts"][k] != other["counts"][k]}
            raise SystemExit(f"traced counts differ between units of one input: {diff}")
    metrics = dict(units[0]["counts"])
    for key in units[0]["times"]:
        metrics[key] = statistics.median(u["times"][key] for u in units)
    plain = [u.wall_s for u in result["plain"] if u.calls]
    traced = [u.wall_s for u in result["traced"] if u.calls]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    notes = {"traced_units": len(units), "untraced_units": len(plain),
             # None: the deadline came before a second traced unit to compare with
             "counts_repeat_exactly": True if len(units) >= MIN_TRACED_UNITS else None,
             "traced_wall_s": statistics.median(traced),
             "untraced_wall_s": statistics.median(plain)}
    return metrics, notes


# -- metadata ---------------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def package_version() -> str:
    text = (SRC / "painleve_cubics" / "__init__.py").read_text()
    m = re.search(r'__version__\s*=\s*"([^"]+)"', text)
    return m.group(1) if m else "unknown"


def metadata(args, result: dict, nproc: int) -> dict:
    units = [u for u in result["plain"] if u.calls]
    calls = [c for u in units for c in u.calls]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "package_version": package_version(),
        "git_commit": git_commit(),
        "samples": {"units": len(units), "calls": len(calls), "probes": len(result["probes"]),
                    "traced_units": len(result["traced"])},
        "call_tail": tail(scaled_calls(units)) if calls and not args.trace else None,
        "unit_walls_s": [u.wall_s for u in units],
        "unit_reference_s": [u.reference_s for u in units],
        "probes": result["probes"],
        "cpu_over_wall": (sum(c.cpu_s for c in calls) / sum(c.wall_s for c in calls)
                          if calls else None),
        "timing_scope": ("only the benchmark's own child processes were timed; no "
                         "machine-wide tracing, which the shared host does not permit"),
        "noise": NOISE_NOTE,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "painleve_cubics" / "__init__.py").is_file():
        print(f"no package source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in declared[kind]}
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        runner = Runner(args.workload, args.seed, Path(tmp), deadline)
        runner.probe()  # warm-up: byte-compiles the package, fills the file cache
        result = measure(runner, args.seconds, bool(args.trace))
        if args.trace:
            metrics, notes = per_layer(result, args.workload)
        else:
            if not any(u.calls for u in result["plain"]):
                print("no unit completed", file=sys.stderr)
                return 1
            metrics, raw = end_to_end(result)
            notes = {"as_measured": raw}
    units = result["plain"] + result["traced"]
    failed = sum(1 for u in units if not u.ok)
    meta = metadata(args, result, nproc)
    meta.update(notes, failed_frac=failed / len(units), problems=runner.problems[:20])
    for line in runner.problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
