"""Every module-level import in the package and its tests is used, the
package imports only the standard library and itself, every function, class
and method the package defines is named somewhere else, and in the package
itself but for a pinned list of test-only ones, no module checks with an
assert statement, which python -O strips, and every name README gives as a
library entry point exists (no linter ships here)."""
import ast
import importlib
import re
import sys
from pathlib import Path
from typing import Iterable, Sequence

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rankgames"
ROOT = SRC.parent.parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_finds_an_unused_import():
    tree = ast.parse("from typing import Iterator, Optional\nx: Optional[int] = None\n")
    assert _unused_imports(tree) == ["Iterator (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _non_stdlib_imports(tree: ast.Module) -> list[str]:
    """Absolute imports, at any depth, of a top-level module outside the
    standard library; relative imports and ``__future__`` are in it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [
            f"{name} (line {node.lineno})" for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_finds_a_non_stdlib_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import linalg\n"
        "from .errors import Singular\n"
        "def f():\n"
        "    from scipy.optimize import linprog\n"
    )
    assert _non_stdlib_imports(tree) == ["numpy (line 2)", "scipy.optimize (line 6)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert _non_stdlib_imports(ast.parse(path.read_text())) == []


def _assert_lines(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_finds_an_assert():
    tree = ast.parse("def f(x):\n    assert x > 0, 'positive'\n    return x\n")
    assert _assert_lines(tree) == [2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert _assert_lines(ast.parse(path.read_text())) == []


def _definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes and their methods, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _mentions(tree: ast.Module) -> set[str]:
    """Names, attributes, imported names and the words of every string but a
    docstring."""
    docstrings = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(re.findall(r"\w+", node.name))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                found.update(re.findall(r"\w+", node.value))
    return found


def test_finds_an_unnamed_definition():
    tree = ast.parse(
        "class A:\n"
        "    def used(self):\n"
        "        return getattr(self, 'by_string')\n"
        "    def by_string(self):\n"
        "        pass\n"
        "    def x_of(self):\n"
        "        'x_of in a docstring is no use'\n"
        "def f():\n"
        "    return A().used\n"
    )
    mentioned = _mentions(tree)
    assert [name for name in _definitions(tree) if name not in mentioned] == ["x_of", "f"]


def _unnamed(definers: dict[str, ast.Module], trees: Iterable[ast.Module]) -> list[str]:
    """The definitions of the ``definers``, by file name, that no tree names."""
    mentioned = set().union(*map(_mentions, trees))
    return [f"{name}: {d}" for name, tree in definers.items()
            for d in _definitions(tree) if d not in mentioned]


def _package() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_every_definition_is_named_elsewhere():
    # This file is left out: the detector tests' source strings name x_of.
    files = [
        p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))
        if p != Path(__file__).resolve()
    ]
    assert _unnamed(_package(), (ast.parse(p.read_text()) for p in files)) == []


# Package definitions that only tests and the bench name. Each must still
# exist with no mention in the package, so the tuple can only shrink: one
# that the package starts to use, or that moves to tests/fixtures.py, leaves.
TEST_ONLY = ("degree", "render_game", "from_lists", "tolists", "over", "ineqs", "eq",
             "edge_through_point")


def _off_the_pins(unnamed: list[str], pinned: Sequence[str]) -> list[str]:
    """Unnamed definitions that ``pinned`` lacks, then pinned names that are
    named or no longer defined."""
    names = {entry.split(": ")[1] for entry in unnamed}
    return ([f"unpinned {entry}" for entry in unnamed if entry.split(": ")[1] not in pinned]
            + [f"stale {name}" for name in pinned if name not in names])


def test_finds_an_unpinned_and_a_stale_test_only_definition():
    package = {
        "a.py": ast.parse("def run():\n    return helper()\ndef helper():\n    pass\n"
                          "def for_tests():\n    pass\ndef new():\n    pass\n"),
        "__init__.py": ast.parse("from .a import run\n__all__ = ['run']\n"),
    }
    unnamed = _unnamed(package, package.values())
    assert unnamed == ["a.py: for_tests", "a.py: new"]
    assert _off_the_pins(unnamed, ("for_tests", "helper", "gone")) == [
        "unpinned a.py: new", "stale helper", "stale gone",
    ]


def test_package_definitions_are_named_in_the_package_but_the_pinned_test_only_ones():
    package = _package()
    assert _off_the_pins(_unnamed(package, package.values()), TEST_ONLY) == []


def _prose(markdown: str, heading: str) -> str:
    """The text under a ``##`` heading, up to the next one, without code blocks."""
    body = markdown.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.sub(r"```.*?```", "", body, flags=re.S)


def _unresolved(prose: str) -> list[str]:
    """Backticked names and dotted names that are not in ``rankgames``, one
    of its modules, or an exported class; ``Fraction`` aside."""
    package = importlib.import_module("rankgames")
    missing = []
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", prose):
        head, *rest = name.split(".")
        if head == "Fraction":
            continue
        if hasattr(package, head):
            obj = getattr(package, head)
        elif (SRC / f"{head}.py").exists():
            obj = importlib.import_module(f"rankgames.{head}")
        else:
            missing.append(name)
            continue
        for attr in rest:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    return missing


def test_finds_an_unresolved_readme_name():
    prose = "`GameFamily.game_at`, `GameFamily.gone`, `games.family_game`, `Fraction`, `gone`"
    assert _unresolved(prose) == ["GameFamily.gone", "gone"]


def test_readme_entry_points_exist():
    prose = _prose((ROOT / "README.md").read_text(), "Library entry points")
    assert _unresolved(prose) == []
