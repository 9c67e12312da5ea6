"""Every module-level import is read somewhere in its module.

No linter ships with the project, so this walks the syntax tree of each
module under ``src/`` and ``tests/``: a name bound by a module-level
``import`` that no expression of the module loads is reported.
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return ["line %d: %s" % (line, name) for name, line in bound.items() if name not in read]


def test_guard_sees_unused_names():
    source = "from __future__ import annotations\nimport os, a.b\nfrom x import y as z\nos.sep\n"
    assert unused_imports(source) == ["line 2: a", "line 3: z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
