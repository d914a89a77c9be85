"""Imports: every one in the package is read (a stdlib ``ast`` pass over its
modules), and a cold CLI call loads only the subsystems its verb runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "painleve_cubics"


def unused_imports(source: str) -> list:
    """Names bound by an import statement of ``source`` and read nowhere in it.

    A name counts as read when it is loaded, appears in a string annotation,
    or is listed in ``__all__``.
    """
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault((alias.asname or alias.name).split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            used.update(ast.literal_eval(node.value))
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for const in ast.walk(annotation) if annotation else ():
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used.update(n.id for n in ast.walk(ast.parse(const.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_an_unused_import():
    source = ('from dataclasses import dataclass, field\nimport os.path\n'
              'def f(x: "Ring") -> int:\n    return dataclass\n')
    assert unused_imports(source) == [(1, "field"), (2, "os")]


SUBSYSTEMS = {f"painleve_cubics.{m}" for m in
              ("certificates", "cubics", "shear", "arcs", "confluence", "cluster", "unfolding")}


def loaded_modules(*argv) -> set:
    """``sys.modules`` of a fresh interpreter after importing the CLI and,
    when ``argv`` is given, running it (stdout discarded; exit code 0)."""
    code = ("import contextlib, io, sys\n"
            "from painleve_cubics.cli import main\n"
            "if sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(sys.argv[1:]) == 0\n"
            "print(*sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


BRACKETS = {"painleve_cubics.poisson", "painleve_cubics.linalg"}


@pytest.mark.parametrize("argv, absent", [
    ((), SUBSYSTEMS | BRACKETS),
    (("show", "PV"), {"painleve_cubics.arcs", "painleve_cubics.shear", "painleve_cubics.cluster",
                      "painleve_cubics.confluence", "painleve_cubics.unfolding"} | BRACKETS),
    (("export", "catalog"), SUBSYSTEMS - {"painleve_cubics.cubics", "painleve_cubics.certificates"}
     | BRACKETS),
    (("unfold", "PVI"), {"painleve_cubics.arcs", "painleve_cubics.shear", "painleve_cubics.poisson"}),
    (("export", "confluence"), {"painleve_cubics.arcs", "painleve_cubics.cluster",
                                "painleve_cubics.unfolding"} | BRACKETS),
    (("verify", "charts"), {"painleve_cubics.arcs", "painleve_cubics.cluster",
                            "painleve_cubics.confluence", "painleve_cubics.unfolding"} | BRACKETS),
    (("chart", "PV"), SUBSYSTEMS - {"painleve_cubics.cubics", "painleve_cubics.certificates",
                                    "painleve_cubics.shear"} | BRACKETS),
    (("confluence", "PVI", "PV"), {"painleve_cubics.arcs", "painleve_cubics.cluster",
                                   "painleve_cubics.unfolding"} | BRACKETS),
    (("mutate", "PVI", "12"), {"painleve_cubics.arcs", "painleve_cubics.shear",
                               "painleve_cubics.confluence", "painleve_cubics.unfolding"}
     | BRACKETS),
], ids=["import", "show-PV", "export-catalog", "unfold-PVI", "export-confluence", "verify-charts",
        "chart-PV", "confluence-PVI-PV", "mutate-PVI"])
def test_cold_call_loads_only_its_subsystem(argv, absent):
    loaded = loaded_modules(*argv)
    assert "painleve_cubics.cli" in loaded
    assert sorted(loaded & (absent | {"dataclasses"})) == []
