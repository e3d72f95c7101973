"""Every name a library or test module imports is used in that module,
every private module-level name is used somewhere in the library, every
exported name has a caller in the library, and every dataclass field is
read somewhere."""
from __future__ import annotations

import ast
import pathlib

import pytest

import ratioloss

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ratioloss"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Imported names that no expression of the module refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_flags_an_unused_name():
    src = ("from typing import Callable, Optional\nimport numpy as np\n"
           "def f(x: Optional[int]):\n    return np.abs(x)\n")
    assert unused_imports(src) == [(1, "Callable")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def defined_names(node: ast.stmt) -> list:
    """The functions, classes and constants a module-level statement
    defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def private_definitions(source: str) -> list:
    """Module-level private functions, classes and constants."""
    return [name for node in ast.parse(source).body
            for name in defined_names(node) if _private(name)]


def referenced_names(sources) -> set:
    """Names loaded, imported or read as attributes anywhere in sources."""
    refs = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
    return refs


def dead_private_names(sources: dict) -> list:
    """(file, name) for each private module-level definition that no
    library source refers to."""
    refs = referenced_names(sources.values())
    return sorted((path, name) for path, source in sources.items()
                  for name in private_definitions(source) if name not in refs)


def test_checker_flags_a_dead_private_name():
    sources = {"a.py": ("_LIMIT = 3\n_UNUSED: int = 4\n"
                        "def _helper(x):\n    return x < _LIMIT\n"
                        "def _dead():\n    pass\nclass _Gone:\n    pass\n"),
               "b.py": "from .a import _helper\nprint(_helper(1))\n"}
    assert dead_private_names(sources) == [
        ("a.py", "_Gone"), ("a.py", "_UNUSED"), ("a.py", "_dead")]


def test_library_has_no_dead_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def dataclass_fields(source: str) -> list:
    """Annotated field names of the dataclasses a module defines."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            fields += [stmt.target.id for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign)]
    return fields


def dead_fields(sources: dict, readers) -> list:
    """(file, field) for each dataclass field in sources that no reader
    source reads as an attribute."""
    read = {node.attr for source in readers
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted((path, name) for path, source in sources.items()
                  for name in dataclass_fields(source) if name not in read)


def test_checker_flags_a_dead_field():
    sources = {"a.py": ("from dataclasses import dataclass\n"
                        "@dataclass(frozen=True)\nclass A:\n"
                        "    x: int\n    y: int = 0\n"
                        "@dataclass\nclass B:\n    z: float\n"
                        "    def f(self):\n        return self.x\n"
                        "class C:\n    w: int\n")}
    readers = list(sources.values()) + ["def g(b):\n    b.y = b.z\n"]
    assert dead_fields(sources, readers) == [("a.py", "y")]


def test_library_has_no_dead_fields():
    """A field is dead when no source under src/, tests/ or perfbench/
    reads an attribute of its name.  The check goes by name alone: a dead
    field named like an attribute that is read elsewhere, such as alpha,
    family or k, escapes it."""
    sources = {p.name: p.read_text() for p in MODULES}
    readers = [p.read_text() for top in ("src", "tests", "perfbench")
               for p in sorted((ROOT / top).rglob("*.py"))]
    assert dead_fields(sources, readers) == []


def uncalled_exports(exported, sources) -> list:
    """Names in exported that no source refers to.  A reference from the
    module-level definition of an uncalled name does not count, so a
    helper that only uncalled code calls is uncalled too."""
    statements = [node for source in sources for node in ast.parse(source).body]
    uncalled = set()
    while True:
        refs = referenced_names(ast.unparse(node) for node in statements
                                if uncalled.isdisjoint(defined_names(node)))
        found = {name for name in exported if name not in refs}
        if found == uncalled:
            return sorted(found)
        uncalled = found


def test_checker_flags_an_uncalled_export():
    sources = ["def used():\n    return helper()\ndef helper():\n    pass\n"
               "def dead():\n    return Gone()\nclass Gone:\n    pass\n",
               "from .a import used\nused()\n"]
    assert uncalled_exports(["used", "helper", "dead", "Gone"],
                            sources) == ["Gone", "dead"]


def test_every_export_has_a_caller_in_the_library():
    """Each name in ratioloss.__all__ is referred to by a library module
    other than __init__.py; a name only tests call belongs in tests/."""
    assert uncalled_exports(ratioloss.__all__,
                            [p.read_text() for p in MODULES]) == []
