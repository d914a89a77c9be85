"""Catalog mutation passes: every leaf of the six catalogs, changed one at a time.

Each mutant is a copy of the built-in catalogs with one leaf changed, and
``cli.main(["--catalog", copy, "verify-all"])`` runs on it in process.  Two
operators:

- ``wrong-type``: every leaf but ``comment`` is set in turn to ``None``,
  ``[]``, ``{}``, ``1.5`` and ``"zz+"``;
- ``one-operator``: every leaf but ``comment`` and the ``*note`` fields is
  changed once: an int or a number string gets +1, a bool is negated and any
  other string ``v`` becomes ``(v)+1``.

For each operator the script prints the tally of exit codes, then every
mutant that escaped ``main`` with an exception (a traceback) and every exit-2
line that names no ``.json`` file.  Bad input must exit 2 naming its file
and key, so both lists should be empty.  A survivor (exit 0) is not an error
here: it is a catalog value that no certificate can make FAIL.

Opt-in and stdlib only (pytest does not collect it); the wrong-type pass
takes a few minutes:

    PYTHONPATH=src python tests/catalog_mutations.py [wrong-type|one-operator]
"""

import collections
import contextlib
import io
import json
import re
import sys
import tempfile
from importlib import resources
from pathlib import Path

from painleve_cubics import catalog
from painleve_cubics.cli import main

NAMES = ("cubics", "charts", "lambdas", "arrows", "signatures", "unfoldings")
WRONG_TYPES = (None, [], {}, 1.5, "zz+")
NUMBER = re.compile(r"-?[0-9]+")


def leaves(data, path=()):
    """(path, value) of every scalar in ``data``; a path mixes keys and list indices."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,), value


def wrong_type(path, value) -> tuple:
    return () if path[-1] == "comment" else WRONG_TYPES


def one_operator(path, value) -> tuple:
    last = path[-1]
    if last == "comment" or (isinstance(last, str) and last.endswith("note")):
        return ()
    if type(value) is bool:
        return (not value,)
    if type(value) is int:
        return (value + 1,)
    if isinstance(value, str):
        return (str(int(value) + 1) if NUMBER.fullmatch(value) else f"({value})+1",)
    return ()


OPERATORS = {"wrong-type": wrong_type, "one-operator": one_operator}


def mutants(operator) -> list:
    """(catalog name, path, value) of every mutant ``operator`` makes."""
    return [(name, path, new) for name in NAMES for path, value in leaves(catalog.load(name))
            for new in operator(path, value)]


def where(name: str, path: tuple) -> str:
    """``<file>.json <section>.<key>[i]``, the way an error names a leaf."""
    keys = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    return f"{name}.json {keys[1:]}"


class Copies:
    """A directory with a copy of every built-in catalog, mutated one leaf at a time."""

    def __init__(self, root: str):
        self.root = Path(root)
        self.text = {}
        for name in NAMES:
            self.text[name] = resources.files("painleve_cubics.data").joinpath(
                f"{name}.json").read_text()
            (self.root / f"{name}.json").write_text(self.text[name])

    def run(self, name: str, path: tuple, value) -> tuple:
        """(exit code or the exception, stderr) of ``verify-all`` with the leaf at ``path`` set."""
        data = json.loads(self.text[name])
        table = data
        for key in path[:-1]:
            table = table[key]
        table[path[-1]] = value
        (self.root / f"{name}.json").write_text(json.dumps(data))
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["--catalog", str(self.root), "verify-all"])
        except Exception as exc:  # noqa: BLE001 - a traceback is what the pass looks for
            code = exc
        finally:
            (self.root / f"{name}.json").write_text(self.text[name])
            catalog.set_catalog_root(None)
        return code, err.getvalue()


def run_pass(operator_name: str) -> bool:
    """Run one pass and print its report; True when it found no traceback and no unnamed exit."""
    todo = mutants(OPERATORS[operator_name])
    tally, tracebacks, nameless = collections.Counter(), [], []
    with tempfile.TemporaryDirectory() as root:
        copies = Copies(root)
        for name, path, value in todo:
            code, err = copies.run(name, path, value)
            if isinstance(code, Exception):
                tally["traceback"] += 1
                tracebacks.append(f"{where(name, path)} = {value!r}: "
                                  f"{type(code).__name__}: {code}")
                continue
            tally[f"exit {code}"] += 1
            if code == 2 and ".json" not in err:
                nameless.append(f"{where(name, path)} = {value!r}: {err.strip()}")
    print(f"{operator_name}: {len(todo)} mutants; "
          + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
    print(f"  tracebacks: {len(tracebacks)}")
    for line in tracebacks:
        print(f"    {line}")
    print(f"  exit 2 naming no .json file: {len(nameless)}")
    for line in nameless:
        print(f"    {line}")
    return not tracebacks and not nameless


if __name__ == "__main__":
    chosen = sys.argv[1:] or list(OPERATORS)
    sys.exit(0 if all([run_pass(name) for name in chosen]) else 1)
