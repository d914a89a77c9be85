"""Compile census: the package source a product call compiles, and how much of it never runs.

A process started with ``PYTHONDONTWRITEBYTECODE=1`` from a fresh checkout,
as the benchmark's processes are, compiles every package module it imports.
For the benchmark's set-up probe, for ``verify-all`` and for every argv the
benchmark's cli-cold workload can draw (``perfbench/workloads.py``), this
script runs the call in a fresh interpreter under a ``sys.setprofile`` hook
and prints

- the number of package modules the call loaded (``--modules`` names them);
- the tokens of their source (``tokenize``, every token counted);
- the tokens inside functions the call never entered, each function from its
  ``def`` line (or first decorator) to the end of its body; a comprehension
  or lambda by its own source span.

``--by-module SEED`` prints the same two counts per package module instead:
summed over the 16 calls of one cli-cold pass (``workloads.cli_unit(SEED)``),
and for the probe.

Opt-in and stdlib only (pytest does not collect it); the probe's code
(``BUILD_EVERY_OBJECT``) and the functions (``package_functions``) come from
``tests/test_reachability.py``:

    PYTHONPATH=src python tests/compile_census.py [--modules | --by-module SEED]
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))


def workloads():
    sys.path.insert(0, str(TESTS.parent / "perfbench"))
    import workloads

    return workloads


def calls() -> list:
    """The argvs to count: the probe, verify-all and the cli-cold candidates."""
    return [["probe"], ["--format", "json", "verify-all"],
            *(list(argv) for argv in workloads().cli_candidates())]


def tokens(path: Path) -> list:
    """(start, end) of every token of ``path``."""
    with open(path) as fh:
        return [(tok.start, tok.end) for tok in tokenize.generate_tokens(fh.readline)]


def span(code) -> tuple:
    """(start, end) of a function's source: a ``def`` from its first line, a
    comprehension or lambda from where its expression starts."""
    positions = [(l, c, el, ec) for l, el, c, ec in code.co_positions()
                 if None not in (l, el, c, ec)]
    end = max((el, ec) for _, _, el, ec in positions)
    if code.co_name.startswith("<"):
        return min((l, c) for l, c, _, _ in positions), end
    return (code.co_firstlineno, 0), end


def census(argv: list) -> dict:
    """Run ``argv`` (``["probe"]`` for the probe) here under a profile hook."""
    from test_reachability import BUILD_EVERY_OBJECT, key, package_functions

    entered = set()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
    if argv == ["probe"]:
        exec(BUILD_EVERY_OBJECT, {})
    else:
        from painleve_cubics.cli import main

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    sys.setprofile(None)

    loaded = {name: Path(module.__file__) for name, module in list(sys.modules.items())
              if name.startswith("painleve_cubics") and getattr(module, "__file__", None)}
    files = {str(path): tokens(path) for path in loaded.values()}
    entered = {key(code) for code in entered}
    unused = {}
    for k, code in package_functions().items():
        if code.co_filename in files and k not in entered:
            start, end = span(code)
            unused.setdefault(code.co_filename, set()).update(
                i for i, (a, b) in enumerate(files[code.co_filename]) if start <= a and b <= end)
    root = loaded["painleve_cubics"].parent
    return {"modules": sorted(loaded), "compiled": sum(map(len, files.values())),
            "never_entered": sum(map(len, unused.values())),
            "by_module": {path.relative_to(root).as_posix():
                          [len(files[str(path)]), len(unused.get(str(path), ()))]
                          for path in loaded.values()}}


def run(call: list, env: dict) -> dict:
    """``census(call)`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, __file__, "--one", *call], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def by_module(seed: int, env: dict) -> None:
    """Per module: tokens compiled and never entered, summed over the 16 calls
    of one cli-cold pass, and the same for the probe."""
    pass_sums: dict = {}
    for argv in workloads().cli_unit(seed):
        for module, counts in run(list(argv), env)["by_module"].items():
            pass_sums[module] = [a + b for a, b in zip(pass_sums.get(module, (0, 0)), counts)]
    probe = run(["probe"], env)["by_module"]
    rows = {m: (*pass_sums.get(m, (0, 0)), *probe.get(m, (0, 0))) for m in {*pass_sums, *probe}}
    print(f"{'':<24} {f'cli-cold pass, seed {seed}':>24}  {'probe':>24}")
    print(f"{'module':<24} {'compiled':>9} {'never entered':>14}  {'compiled':>9} {'never entered':>14}")
    for module, row in [*sorted(rows.items(), key=lambda kv: (-kv[1][1], kv[0])),
                        ("total", [sum(column) for column in zip(*rows.values())])]:
        print(f"{module:<24} {row[0]:>9,} {row[1]:>14,}  {row[2]:>9,} {row[3]:>14,}")


def main(argv: list) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(census(argv[1:])))
        return 0
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    if argv[:1] == ["--by-module"]:
        by_module(int(argv[1]), env)
        return 0
    print(f"{'call':<34} {'modules':>7} {'compiled':>9} {'never entered':>14}")
    for call in calls():
        row = run(call, env)
        print(f"{' '.join(call):<34} {len(row['modules']):>7} {row['compiled']:>9,} "
              f"{row['never_entered']:>14,}")
        if "--modules" in argv:
            print("    " + " ".join(m.removeprefix("painleve_cubics.") for m in row["modules"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
