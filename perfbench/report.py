"""Run every workload untraced and traced and print all metrics as tables.

    python3 perfbench/report.py [--seed N]

Prints, for each workload, the end-to-end metrics by name and unit, then
the per-layer metrics of the traced run with its tracing overhead and
whether its counts repeated exactly.  Each run lasts the ``run_seconds``
of BENCHMARK.json (S); the whole report takes about 2 x (2 x S) seconds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} --trace {trace} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="all metrics of every workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            meta, result = run(workload, args.seed, seconds, trace)
            ok &= result["correct"]
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {workload}: {kind}  correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"samples={meta['samples']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
            if not trace:
                print(f"  {'failed_frac':34s} {meta['failed_frac']:>16.6g} fraction")
                t = meta["call_tail"]
                if t["percentile"] is not None:
                    print(f"  {'call_tail_s (p' + str(t['percentile']) + ')':34s} "
                          f"{t['value_s']:>16.6g} s  over {t['samples']} calls")
            else:
                print(f"  traced units: {meta['traced_units']}, counts repeat exactly: "
                      f"{meta['counts_repeat_exactly']}, traced {meta['traced_wall_s']:.3f} s "
                      f"vs untraced {meta['untraced_wall_s']:.3f} s per unit")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
