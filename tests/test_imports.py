"""Imports: every one in the package is read (a stdlib ``ast`` pass over its
modules), every annotation names a class its module imports, a cold CLI
call loads only the subsystems, the ``checks`` modules and the one ``verbs``
module its verb runs, a bare import of the package or its CLI loads no
kernel, no product process loads ``ast``, ``argparse``, ``gettext`` or
``locale``, no package module imports ``importlib.resources``, and ``cli.py``
and the benchmark's set-up probe stay within their compile budgets."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from compile_census import tokens
from test_reachability import BUILD_EVERY_OBJECT

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
            used.update(n.value for n in ast.walk(node.value)
                        if isinstance(n, ast.Constant) and isinstance(n.value, str))
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


def test_no_module_imports_importlib_resources():
    # catalog files are read by path from the package's data directory
    imported = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert imported and not any(name.startswith("importlib.resources") for name in imported)


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


def package_modules(loaded: set) -> set:
    return {m for m in loaded if m == "painleve_cubics" or m.startswith("painleve_cubics.")}


def test_a_bare_import_loads_no_submodule():
    assert package_modules(modules_after("import painleve_cubics\n")) == {"painleve_cubics"}


def test_importing_the_cli_adds_only_the_catalog_reader():
    assert package_modules(loaded_modules()) == {"painleve_cubics", "painleve_cubics.cli",
                                                 "painleve_cubics.catalog"}


BRACKETS = {"painleve_cubics.poisson", "painleve_cubics.linalg"}
CHECKS = {"painleve_cubics.checks"} | {f"painleve_cubics.checks.{m}" for m in
                                      ("cubics", "shear", "arcs", "confluence", "cluster", "unfolding")}
LINALG = {"painleve_cubics.linalg"}
VERIFY = {"painleve_cubics.verify"}
# what signature, export confluence, export inclusions and --help never need
KERNEL = {f"painleve_cubics.{m}" for m in ("ring", "exprs", "cubics", "shear", "poisson", "linalg")}


# a derived cubic or chart is the limit of its parent's chart and cubic along
# the primary arrow into it, so a call on any tag but PVI loads all three
DERIVED = {"painleve_cubics.cubics", "painleve_cubics.shear", "painleve_cubics.confluence"}


@pytest.mark.parametrize("argv, absent", [
    ((), SUBSYSTEMS | BRACKETS | CHECKS | VERIFY),
    (("show", "PV"), SUBSYSTEMS - DERIVED | BRACKETS | CHECKS | VERIFY),
    (("export", "catalog"), SUBSYSTEMS - DERIVED | BRACKETS | CHECKS | VERIFY),
    (("unfold", "PVI"), {"painleve_cubics.arcs", "painleve_cubics.shear", "painleve_cubics.poisson"}
     | VERIFY),
    (("export", "confluence"), {"painleve_cubics.arcs", "painleve_cubics.cluster",
                                "painleve_cubics.unfolding"} | BRACKETS | CHECKS | VERIFY | KERNEL),
    (("verify", "charts"), {"painleve_cubics.arcs", "painleve_cubics.cluster",
                            "painleve_cubics.unfolding"} | BRACKETS),
    (("chart", "PV"), SUBSYSTEMS - DERIVED | BRACKETS | CHECKS | VERIFY),
    (("confluence", "PVI", "PV"), {"painleve_cubics.arcs", "painleve_cubics.cluster",
                                   "painleve_cubics.unfolding"} | BRACKETS | VERIFY),
    (("mutate", "PVI", "12"), {"painleve_cubics.arcs", "painleve_cubics.shear",
                               "painleve_cubics.confluence", "painleve_cubics.unfolding"}
     | BRACKETS | CHECKS | VERIFY),
    (("lambda", "PV"), CHECKS | BRACKETS | VERIFY),
    (("bracket", "PV", "a", "b"), CHECKS | BRACKETS | VERIFY),
    (("signature", "PV"), CHECKS | LINALG | VERIFY | KERNEL),
    (("export", "inclusions"), CHECKS | VERIFY | KERNEL),
    (("--help",), SUBSYSTEMS | CHECKS | KERNEL),
], ids=["import", "show-PV", "export-catalog", "unfold-PVI", "export-confluence", "verify-charts",
        "chart-PV", "confluence-PVI-PV", "mutate-PVI", "lambda-PV", "bracket-PV", "signature-PV",
        "export-inclusions", "help"])
def test_cold_call_loads_only_its_subsystem(argv, absent):
    loaded = loaded_modules(*argv)
    assert "painleve_cubics.cli" in loaded
    assert sorted(loaded & (absent | {"dataclasses"})) == []


@pytest.mark.parametrize("argv, absent", [
    (("show", "PVI"), {"painleve_cubics.confluence", "painleve_cubics.shear"}),
    (("mutate", "PVI", "1231"), {"painleve_cubics.confluence", "painleve_cubics.shear"}),
    (("chart", "PVI"), {"painleve_cubics.confluence", "painleve_cubics.cubics"}),
], ids=["show-PVI", "mutate-PVI", "chart-PVI"])
def test_a_call_on_the_root_tag_derives_nothing(argv, absent):
    # PVI states its cubic and chart, so it pays for no limit
    assert sorted(loaded_modules(*argv) & absent) == []


# one call of each verb, and the module of ``verbs`` that holds its handler
VERB_MODULES = {
    ("verify-all",): None, ("verify", "charts"): None, ("--help",): None,
    ("show", "PV"): "cubics", ("chart", "PV"): "shear", ("lambda", "PV"): "arcs",
    ("bracket", "PV", "a", "b"): "arcs", ("signature", "PV"): "arcs",
    ("confluence", "PVI", "PV"): "confluence", ("mutate", "PVI", "12"): "cluster",
    ("twist", "PV"): "cluster", ("unfold", "PVI"): "unfolding", ("export", "catalog"): "export",
}


def test_every_verb_has_a_row():
    from painleve_cubics.cli import VERBS
    assert sorted({argv[0] for argv in VERB_MODULES} - {"--help"}) == sorted(VERBS)


@pytest.mark.parametrize("argv, own", VERB_MODULES.items(),
                         ids=[" ".join(argv) for argv in VERB_MODULES])
def test_a_call_loads_only_its_own_verbs_module(argv, own):
    verbs = {m for m in loaded_modules(*argv) if m.startswith("painleve_cubics.verbs")}
    assert verbs == ({"painleve_cubics.verbs", f"painleve_cubics.verbs.{own}"} if own else set())


# exact division and genuine quotients load only for a non-monomial denominator
DIVISION = "painleve_cubics.division"


@pytest.mark.parametrize("argv", [("show", "PV"), ("chart", "PV"), ("lambda", "PV"),
                                  ("bracket", "PV", "a", "b"), ("export", "catalog"),
                                  ("verify", "charts"), ("verify", "confluence")],
                         ids=lambda argv: "-".join(argv))
def test_a_call_that_divides_by_no_polynomial_loads_no_division(argv):
    assert DIVISION not in loaded_modules(*argv)


def test_a_call_that_divides_by_a_polynomial_loads_division():
    # the later exchanges of 1231 divide by a mutated cluster variable, no monomial
    assert DIVISION in loaded_modules("mutate", "PVI", "1231")


def test_verify_charts_loads_only_the_shear_checks():
    assert loaded_modules("verify", "charts") & CHECKS == {"painleve_cubics.checks",
                                                          "painleve_cubics.checks.shear"}


# what perfbench's set-up probe does: import the CLI, build every catalog object
def test_building_every_catalog_object_loads_no_check():
    # an arc catalog builds its Poisson structures on first use
    loaded = modules_after(BUILD_EVERY_OBJECT)
    assert {"painleve_cubics.arcs", "painleve_cubics.shear"} <= loaded
    assert sorted(loaded & (CHECKS | BRACKETS | {DIVISION})) == []
    assert sorted(m for m in loaded if m.startswith("painleve_cubics.verbs")) == []


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


# compile budgets, in tokens counted as ``tests/compile_census.py`` counts them:
# the benchmark's processes run without bytecode, so each compiles what it imports
def test_cli_stays_within_its_compile_budget():
    # every CLI process compiles cli.py; a new verb's handler goes in ``verbs``
    assert len(tokens(PACKAGE / "cli.py")) <= 1200


def test_the_set_up_probe_stays_within_its_compile_budget():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(Path(__file__).with_name("compile_census.py")),
                          "--one", "probe"],
                         env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout)["compiled"] <= 11192


def test_the_benchmark_tracer_binds_every_entry_point():
    # perfbench/spans.py wraps each of its ENTRY_POINTS by module and attribute
    # name, and raises TraceError on one it cannot resolve or finds bound nowhere;
    # ring.divide_exact and ring.RationalExpr resolve from ``division``, and a
    # quotient built after the install enters both wrappers
    path = os.pathsep.join([str(PACKAGE.parent), str(PACKAGE.parents[1] / "perfbench")])
    code = ("import spans\n"
            "from painleve_cubics.ring import Ring, quotient\n"
            "tracer = spans.Tracer()\n"
            "spans.install(tracer)\n"
            "x = Ring(['x']).gen('x')\n"
            "quotient(x + 1, x + 2)\n"
            "print(*sorted({tracer.names[i] for i in tracer.name_ix}))\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ring.add", "ring.divide_exact", "ring.rational"]
