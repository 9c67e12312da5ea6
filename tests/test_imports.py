"""Every module-level import is read somewhere in its module, and every
library definition is read by the library.

No linter ships with the project, so this walks the syntax tree of each
module under ``src/`` and ``tests/``: a name bound by a module-level
``import`` that no expression of the module loads is reported.
``from __future__`` imports are exempt.  Under ``src/``, a module-level
function, class or assigned name, or a method or property of such a class,
that no ``src/`` module loads outside its own definition is reported too, so
that code only the tests need lives under ``tests/``.  A method counts as
read when any attribute of its name is loaded.  Click commands, which the
command line reads through their decorator, and dunders such as methods or
``__version__``, which Python or packaging read, are exempt.  Every module
under ``src/``, ``tests/`` and ``bench/`` must also parse with the grammar of
the oldest Python that ``pyproject.toml`` declares.
"""

import ast
import re
from collections import Counter
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


def _loads(node) -> Counter:
    """Names loaded under ``node``, as bare names or as attributes."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    )


def _is_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(qualified name, name, node) of the module-level functions, classes
    and assigned names of ``tree`` and of the methods and properties of
    those classes; click commands and dunders left out."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not _is_command(node):
            yield node.name, node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and not _is_dunder(sub.id):
                        yield sub.id, sub.id, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, FUNCTIONS) and not _is_dunder(sub.name):
                    yield "%s.%s" % (node.name, sub.name), sub.name, sub


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Definitions of ``sources`` (module name -> source), as ``_definitions``
    lists them, that no module loads outside the definition itself."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    total = sum((_loads(tree) for tree in trees.values()), Counter())
    return [
        "%s line %d: %s" % (module, node.lineno, qualified)
        for module, tree in trees.items()
        for qualified, name, node in _definitions(tree)
        if total[name] == _loads(node)[name]
    ]


def test_reader_guard_sees_unread_definitions():
    sources = {
        "a": "def used():\n    pass\ndef loop():\n    return loop()\nclass K:\n    pass\n"
             "def helper():\n    pass\n@main.command('x')\ndef cmd():\n    pass\n"
             "class M:\n    def __init__(self):\n        self.read()\n    def read(self):\n        pass\n"
             "    @property\n    def size(self):\n        return 1\n"
             "    def _adopt(self):\n        return self._adopt()\n"
             "    @classmethod\n    def make(cls):\n        return cls()\n"
             "LIMIT = 3\nTOP: int = LIMIT\nSPARE, LOW = 1, LIMIT\n__version__ = '0'\n",
        "b": "import a\nfrom a import used, K\nused(K)\na.helper()\na.M.make().size\nprint(a.TOP, a.LOW)\n",
    }
    assert unread_definitions(sources) == ["a line 3: loop", "a line 20: M._adopt", "a line 27: SPARE"]


def test_library_definitions_are_read_by_the_library():
    library = sorted((ROOT / "src").rglob("*.py"))
    assert unread_definitions({str(p.relative_to(ROOT)): p.read_text() for p in library}) == []


REQUIRES_PYTHON = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups()))


@pytest.mark.parametrize("path", MODULES + sorted((ROOT / "bench").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_modules_parse_at_the_oldest_declared_python(path):
    """Every module under ``src/``, ``tests/`` and ``bench/`` parses with the
    grammar of the oldest Python that ``pyproject.toml`` declares, so syntax
    newer than that version is caught where only a newer one is installed."""
    ast.parse(path.read_text(), filename=str(path), feature_version=REQUIRES_PYTHON)
