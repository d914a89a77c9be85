"""Record the golden outputs every benchmark unit is checked against.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``: the SHA-256 of the stdout of every CLI
call a workload can make (the suite's verify-all JSON report and every
cli-cold candidate argv).  Record it only at a commit whose outputs are
known to be right: the benchmark treats any difference from it as a
failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads as wl
from run import GOLDEN, LAUNCHER, ROOT, SRC


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PAINLEVE_CUBICS_CATALOG", None)
    calls = {}
    for argv in [wl.SUITE_ARGV] + wl.cli_candidates():
        proc = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env, cwd=ROOT,
                              capture_output=True, check=False)
        if proc.returncode != 0:
            print(f"{wl.argv_key(argv)}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        calls[wl.argv_key(argv)] = wl.sha256(proc.stdout)

    golden = {"calls": calls}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}: {len(calls)} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
