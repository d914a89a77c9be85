"""Reachability: every function of the package is one that the product runs.

A fresh interpreter, so that no catalog cache left by another test hides a
function, installs a ``sys.setprofile`` hook and runs the product corpus in
process: every CLI verb, every certificate group, the library calls of the
benchmark's set-up probe, ``--help``, usage and lookup errors and one
perturbed catalog.  Every function code object compiled from the package's
source (module and class bodies skipped) that the corpus never entered must
be listed in ``NEVER_ENTERED`` with its reason, and every entry there must
be one the corpus never entered: a new function that nothing runs fails the
test, and so does a stale entry.  ``PYTHONPATH=src python tests/test_reachability.py``
prints the names the corpus never enters.
"""

import contextlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "painleve_cubics"

# what the benchmark's set-up probe does: import the CLI, build every catalog object
BUILD_EVERY_OBJECT = (
    "import painleve_cubics as pc, painleve_cubics.cli\n"
    "from painleve_cubics import catalog, confluence, unfolding\n"
    "for tag in catalog.load('cubics')['tags']:\n"
    "    pc.cubic(tag), pc.chart(tag)\n"
    "for tag in catalog.load('lambdas')['catalogs']:\n"
    "    pc.lambda_catalog(tag)\n"
    "for tag in catalog.load('signatures')['signatures']:\n"
    "    pc.signature(tag)\n"
    "confluence.arrows(), confluence.embeddings(), unfolding.hat_param_table()\n")

NEVER_ENTERED = {
    "ring.py:Ring.__repr__": "a debugging aid: reports print polynomials with to_text",
    "ring.py:LaurentPoly.__repr__": "a debugging aid: reports print polynomials with to_text",
    "division.py:RationalExpr.__repr__": "a debugging aid: reports print quotients with to_text",
    **dict.fromkeys(
        (f"division.py:RationalExpr.{name}" for name in
         ("__eq__", "__mul__", "__truediv__", "__rtruediv__", "__sub__", "to_text", "as_poly",
          "is_zero")),
        "kernel algebra on genuine quotients, reached by a catalog text with a non-monomial "
        "denominator and by FAIL residues; tests/test_kernel_oracle.py checks it"),
    "__init__.py:run_suite": "the public library entry point; the CLI calls verify.run itself",
    "certificates.py:error": "the certificate of a check that raised; no catalog the corpus reads "
                             "makes a check raise, so tests/test_cli.py monkeypatches one",
    "verify.py:_checked.<locals>.<genexpr>": "names the arguments of a check that raised, as above",
    "linalg.py:_integerise.<locals>.<listcomp>":
        "the sign flip of a kernel vector whose first nonzero entry is negative; "
        "no Casimir kernel of the shipped catalogs has one",
}


def key(code) -> tuple:
    """(file, first line, qualified name): the same for a code object compiled
    here and the one a process ran."""
    return code.co_filename, code.co_firstlineno, code.co_qualname


def label(code) -> str:
    """``<module path>:<qualname>``, as ``NEVER_ENTERED`` names a function."""
    return f"{Path(code.co_filename).relative_to(PACKAGE).as_posix()}:{code.co_qualname}"


def package_functions() -> dict:
    """{key: code object} of every function code object in the package source,
    module and class bodies skipped."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_OPTIMIZED:  # not set on module and class bodies
                out[key(code)] = code
    return out


def perturbed_catalogs(root: str) -> None:
    """Copy the catalogs to ``root`` with two perturbations whose certificates
    fail: the PI normalisation's image of p1 given for e^{p1}, so that G1 at
    e[p1/2] is a half power that only the monomial image can take, and the PV
    arc b equal to a, which makes the solve for the shear structure inconsistent."""
    src = PACKAGE / "data"
    for path in src.glob("*.json"):
        shutil.copy(path, root)
    charts = json.loads((src / "charts.json").read_text())
    charts["charts"]["PI"]["normalization_subst"]["p1"] = {"power": "full", "image": "e[s1]"}
    (Path(root) / "charts.json").write_text(json.dumps(charts))
    lambdas = json.loads((src / "lambdas.json").read_text())
    entries = lambdas["catalogs"]["PV"]["entries"]
    entries["b"] = entries["a"]
    (Path(root) / "lambdas.json").write_text(json.dumps(lambdas))


def corpus(root: str) -> list:
    """(argv, exit code) of every product call; ``root`` holds the perturbed catalogs."""
    from painleve_cubics import catalog, unfolding, verify

    perturbed_catalogs(root)

    calls = [(("verify-all",), 0), (("--format", "json", "verify-all"), 0)]
    calls += [(("verify", group), 0) for group in verify.GROUPS]
    verbs = (("show", "PV"), ("chart", "PV"), ("lambda", "PV"), ("bracket", "PV", "a", "d"),
             ("signature", "PV"), ("confluence", "PVI", "PV"), ("mutate", "PVI", "12"))
    # the last four print text only, so --format=json is a usage error for them
    calls += [((f"--format={fmt}", *argv), 0 if fmt == "text" or argv[0] in ("show", "chart", "lambda")
               else 2) for fmt in ("text", "json") for argv in verbs]
    calls += [(("twist", case), 0) for case in catalog.load("lambdas")["twists"]]
    calls += [(("unfold", entry["tag"]), 0) for entry in unfolding.cases().values()]
    # export catalog prints JSON for text and json, and has no dot
    calls += [((f"--format={fmt}", "export", what), 2 if (what, fmt) == ("catalog", "dot") else 0)
              for what in ("confluence", "inclusions", "catalog") for fmt in ("text", "json", "dot")]
    calls += [(("show", "P99"), 2), (("verify-all", "--depth", "0"), 2)]
    calls += [(("--help",), 0), (("show", "PV", "--depth", "3"), 2)]
    calls += [(("--catalog", root, "verify", group), 1) for group in ("charts", "lambda")]
    return calls


def run_corpus(install, hook) -> None:
    """Run every product call in process, the corpus then the probe, with
    ``install(hook)`` in force (``sys.setprofile`` or ``sys.settrace``)."""
    from painleve_cubics import catalog
    from painleve_cubics.cli import main

    with tempfile.TemporaryDirectory() as root:
        calls = corpus(root)
        install(hook)
        for argv, code in calls:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(list(argv)) == code, argv
        catalog.set_catalog_root(None)
        exec(BUILD_EVERY_OBJECT, {})
        install(None)


def never_entered() -> list:
    """Run the corpus under a profile hook; the sorted names of the functions it never entered."""
    functions, entered = package_functions(), set()
    run_corpus(sys.setprofile, lambda frame, event, arg: entered.add(frame.f_code))
    for code in entered:
        functions.pop(key(code), None)
    return sorted(label(code) for code in functions.values())


def test_every_function_but_the_listed_ones_is_entered():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, __file__], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == sorted(NEVER_ENTERED)


if __name__ == "__main__":
    print(json.dumps(never_entered()))
