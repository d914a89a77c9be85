"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N]

1. A corrupted golden digest is reported as a failed unit, not a crash.
2. Two traced units with the same seed give identical counts (calls,
   term_pairs, terms_out, max_terms, useful_frac and the rest of
   ``run.unit_layers``' counts) on every workload.
3. The metrics run.py reports are exactly those BENCHMARK.json lists.

Exits 0 when every check holds; takes about a minute on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from run import ROOT, RUN_LIMIT_S, Call, Runner, Unit, end_to_end, unit_layers


def traced_layers(runner: Runner) -> dict:
    unit = runner.guarded_unit(True)
    if not unit.ok:
        raise AssertionError(f"{runner.workload}: traced unit failed: {runner.problems}")
    return unit_layers(unit.traces)


def traced_counts(runner: Runner) -> dict:
    return traced_layers(runner)["counts"]


def metric_names_match(layers: dict) -> list:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    call = Call([], 0, 1.0, 1.0, 1.0, b"", b"")
    reported = {
        "end_to_end": set(end_to_end({"plain": [Unit([call], True, [], 1.0)],
                                      "probes": [{"reference_s": 1.0, "setup_s": 1.0}]})[0]),
        "per_layer": set(layers["counts"]) | set(layers["times"]) | {"trace.overhead_s"},
    }
    return [f"{kind}: BENCHMARK.json and run.py differ on "
            f"{sorted(reported[kind] ^ {m['name'] for m in declared[kind]})}"
            for kind in reported
            if reported[kind] != {m["name"] for m in declared[kind]}]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="checks of the benchmark itself")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    failures = []
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        def runner(workload, seed):
            work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=tmp))
            return Runner(workload, seed, work, time.monotonic() + 10 * RUN_LIMIT_S)

        # 1. corrupted digests are failures, not crashes
        cli = runner("cli-cold", args.seed)
        victim = wl.argv_key(wl.cli_unit(args.seed)[0])
        cli.golden["calls"][victim] = "0" * 64
        if cli.guarded_unit(False).ok or not any(p.startswith(victim) for p in cli.problems):
            failures.append(f"corrupted digest for {victim!r} was not reported: {cli.problems}")

        # 2. counts repeat exactly for the same seed
        for workload in wl.WORKLOADS:
            r = runner(workload, args.seed)
            layers = traced_layers(r)
            first, second = layers["counts"], traced_counts(r)
            if workload == "suite":
                failures += metric_names_match(layers)
            if first != second:
                diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
                failures.append(f"{workload}: counts differ between two traced units: {diff}")
            print(f"{workload}: counts repeat exactly ({len(first)} counts)", flush=True)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
