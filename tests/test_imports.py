"""Every import in the package is read: a stdlib ``ast`` pass over its modules."""

import ast
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
