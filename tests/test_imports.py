"""Imports: every one in the package is read (a stdlib ``ast`` pass over its
modules), every annotation names a class its module imports, a cold CLI
call loads only the subsystems and the ``checks`` modules its verb runs, and
no product process loads ``ast``, ``argparse``, ``gettext`` or ``locale``."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import typing
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


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_an_unused_import():
    source = ('from dataclasses import dataclass, field\nimport os.path\n'
              'def f(x: "Ring") -> int:\n    return dataclass\n')
    assert unused_imports(source) == [(1, "field"), (2, "os")]


def type_checking_names(module) -> dict:
    """The names that ``module`` imports under ``if TYPE_CHECKING:``, imported for real."""
    names: dict = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            code = compile(ast.Module(node.body, type_ignores=[]), module.__file__, "exec")
            exec(code, {"__name__": module.__name__, "__package__": module.__package__}, names)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_every_annotation_resolves(path):
    # typing.get_type_hints raises NameError on a name the module never imports
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    localns = type_checking_names(module)
    for obj in list(vars(module).values()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [m for m in vars(obj).values() if inspect.isfunction(m)] if inspect.isclass(obj) else []
        for target in [obj, *members]:
            if inspect.isfunction(target) or inspect.isclass(target):
                typing.get_type_hints(target, localns=localns)


SUBSYSTEMS = {f"painleve_cubics.{m}" for m in
              ("certificates", "cubics", "shear", "arcs", "confluence", "cluster", "unfolding")}


def modules_after(code: str, *argv) -> set:
    """``sys.modules`` of a fresh interpreter after running ``code`` with ``argv``."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code + "import sys\nprint(*sys.modules)\n", *argv],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def loaded_modules(*argv) -> set:
    """``sys.modules`` of a fresh interpreter after importing the CLI and,
    when ``argv`` is given, running it (stdout discarded; exit code 0)."""
    return modules_after("import contextlib, io, sys\n"
                         "from painleve_cubics.cli import main\n"
                         "if sys.argv[1:]:\n"
                         "    with contextlib.redirect_stdout(io.StringIO()):\n"
                         "        assert main(sys.argv[1:]) == 0\n", *argv)


BRACKETS = {"painleve_cubics.poisson", "painleve_cubics.linalg"}
CHECKS = {"painleve_cubics.checks"} | {f"painleve_cubics.checks.{m}" for m in
                                      ("cubics", "shear", "arcs", "confluence", "cluster", "unfolding")}
LINALG = {"painleve_cubics.linalg"}
VERIFY = {"painleve_cubics.verify"}


@pytest.mark.parametrize("argv, absent", [
    ((), SUBSYSTEMS | BRACKETS | CHECKS | VERIFY),
    (("show", "PV"), {"painleve_cubics.arcs", "painleve_cubics.shear", "painleve_cubics.cluster",
                      "painleve_cubics.confluence", "painleve_cubics.unfolding"}
     | BRACKETS | CHECKS | VERIFY),
    (("export", "catalog"), SUBSYSTEMS - {"painleve_cubics.cubics"} | BRACKETS | CHECKS | VERIFY),
    (("unfold", "PVI"), {"painleve_cubics.arcs", "painleve_cubics.shear", "painleve_cubics.poisson"}
     | VERIFY),
    (("export", "confluence"), {"painleve_cubics.arcs", "painleve_cubics.cluster",
                                "painleve_cubics.unfolding"} | BRACKETS | CHECKS | VERIFY),
    (("verify", "charts"), {"painleve_cubics.arcs", "painleve_cubics.cluster",
                            "painleve_cubics.confluence", "painleve_cubics.unfolding"} | BRACKETS),
    (("chart", "PV"), SUBSYSTEMS - {"painleve_cubics.cubics", "painleve_cubics.shear"}
     | BRACKETS | CHECKS | VERIFY),
    (("confluence", "PVI", "PV"), {"painleve_cubics.arcs", "painleve_cubics.cluster",
                                   "painleve_cubics.unfolding"} | BRACKETS | VERIFY),
    (("mutate", "PVI", "12"), {"painleve_cubics.arcs", "painleve_cubics.shear",
                               "painleve_cubics.confluence", "painleve_cubics.unfolding"}
     | BRACKETS | CHECKS | VERIFY),
    (("lambda", "PV"), CHECKS | LINALG | VERIFY),
    (("bracket", "PV", "a", "b"), CHECKS | LINALG | VERIFY),
    (("signature", "PV"), CHECKS | LINALG | VERIFY),
    (("export", "inclusions"), CHECKS | VERIFY),
], ids=["import", "show-PV", "export-catalog", "unfold-PVI", "export-confluence", "verify-charts",
        "chart-PV", "confluence-PVI-PV", "mutate-PVI", "lambda-PV", "bracket-PV", "signature-PV",
        "export-inclusions"])
def test_cold_call_loads_only_its_subsystem(argv, absent):
    loaded = loaded_modules(*argv)
    assert "painleve_cubics.cli" in loaded
    assert sorted(loaded & (absent | {"dataclasses"})) == []


def test_verify_charts_loads_only_the_shear_checks():
    assert loaded_modules("verify", "charts") & CHECKS == {"painleve_cubics.checks",
                                                          "painleve_cubics.checks.shear"}


# what perfbench's set-up probe does: import the CLI, build every catalog object
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


def test_building_every_catalog_object_loads_no_check():
    loaded = modules_after(BUILD_EVERY_OBJECT)
    assert {"painleve_cubics.arcs", "painleve_cubics.shear", "painleve_cubics.poisson"} <= loaded
    assert sorted(loaded & (CHECKS | LINALG)) == []


def cli_call(*argv) -> str:
    """Code that runs the CLI on ``argv`` in process (stdout discarded; exit code 0)."""
    return ("import contextlib, io\nfrom painleve_cubics.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({list(argv)!r}) == 0\n")


@pytest.mark.parametrize("code", [cli_call("show", "PV"), cli_call("verify-all"), BUILD_EVERY_OBJECT],
                         ids=["show-PV", "verify-all", "build-every-object"])
def test_no_product_call_loads_argparse_gettext_or_locale(code):
    # the CLI reads its argv from its own verb table
    loaded = modules_after(code)
    assert "painleve_cubics.cli" in loaded
    assert sorted(loaded & {"argparse", "gettext", "locale"}) == []


def test_no_product_call_loads_ast():
    # the catalog expression reader needs only ``re``, which ``fractions`` loads anyway
    loaded = modules_after(cli_call("show", "PV") + BUILD_EVERY_OBJECT)
    assert {"painleve_cubics.exprs", "painleve_cubics.arcs", "re"} <= loaded
    assert "ast" not in loaded
