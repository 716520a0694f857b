"""Every imported name is read: a stdlib `ast` scan of the package, the tests
and the benchmark harness. Names listed in a module's `__all__` and imports
on a line marked `# noqa: F401` are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for folder in ("src/torfrech", "tests", "perfbench")
                 for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_sees_unused_and_exempt_names():
    source = ("import os\nimport a.b\nfrom x import (\n    y,\n    z,  # noqa: F401\n)\n"
              "from q import r  # noqa: F401\nfrom s import t\n__all__ = ['t']\nprint(a)\n")
    assert unused_imports(source) == [(1, "os"), (4, "y")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
