"""Every module-level import in the package and its tests is used, the
package imports only the standard library and itself, every function, class
and method the package defines is named somewhere else, and in the package
itself but for a pinned list of test-only ones, no module checks with an
assert statement, which python -O strips, the records that hold points
have no Fraction field, every name README gives as a
library entry point exists, and its entry-point example runs and prints
what it shows (no linter ships here)."""
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
    """Names, attributes, imported names, and the parts of every string but a
    docstring that is one name or a dotted path, as getattr and the bench
    tracer's targets spell them; the words of a prose string are no use."""
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
            if id(node) not in docstrings and re.fullmatch(r"[\w.]+", node.value):
                found.update(node.value.split("."))
    return found


def test_finds_an_unnamed_definition():
    tree = ast.parse(
        "class A:\n"
        "    def used(self):\n"
        "        return getattr(self, 'by_string')\n"
        "    def by_string(self):\n"
        "        raise ValueError('in_prose in an error text is no use')\n"
        "    def x_of(self):\n"
        "        'x_of in a docstring is no use'\n"
        "    def in_prose(self):\n"
        "        pass\n"
        "    def traced(self):\n"
        "        pass\n"
        "def f():\n"
        "    return A().used, 'mod.A.traced'\n"
    )
    mentioned = _mentions(tree)
    assert [name for name in _definitions(tree) if name not in mentioned] == [
        "x_of", "in_prose", "f",
    ]


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
# exist with no mention in the package, so the tuple only shrinks, but for
# what a stricter lint finds: one that the package starts to use, or that
# moves to tests/fixtures.py, leaves.
TEST_ONLY = ("from_lists", "tolists", "edge_through_point", "determinant")
# Library API that README documents and no package module calls: the paper's
# homeomorphism, both ways.
API = ("homeo_forward", "homeo_inverse")


def _mentioners(package: dict[str, ast.Module]) -> list[ast.Module]:
    """The package's modules but ``__init__.py``, whose imports only
    re-export: a name it imports is not a use."""
    return [tree for name, tree in package.items() if name != "__init__.py"]


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
    # Read as a use, the re-export would hide run.
    assert _unnamed(package, package.values()) == ["a.py: for_tests", "a.py: new"]
    unnamed = _unnamed(package, _mentioners(package))
    assert unnamed == ["a.py: run", "a.py: for_tests", "a.py: new"]
    assert _off_the_pins(unnamed, ("run", "for_tests", "helper", "gone")) == [
        "unpinned a.py: new", "stale helper", "stale gone",
    ]


def test_package_definitions_are_named_in_the_package_but_the_pinned_test_only_ones():
    package = _package()
    assert _off_the_pins(_unnamed(package, _mentioners(package)), TEST_ONLY + API) == []


# The records that hold points: each field is integer state, and each
# Fraction point is a view. ReadOff reads only the integer fields that a
# tableau gives.
POINT_RECORDS = ("Vertex", "EdgeDescriptor", "Crossing", "Section", "OptSet")
READ_OFF = ("Vertex.integer_point", "EdgeDescriptor.column", "EdgeDescriptor.origin")


def _record_fields(tree: ast.Module) -> tuple[list[str], list[str]]:
    """The class fields of a module that are annotated ``Vec`` or ``Rat``
    in a class of ``POINT_RECORDS``, and those, in any class, whose value
    calls ``ReadOff``; each as Class.field."""
    fractions, read_off = [], []
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for stmt in cls.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            name = f"{cls.name}.{stmt.target.id}"
            types = {n.id for n in ast.walk(stmt.annotation) if isinstance(n, ast.Name)}
            if cls.name in POINT_RECORDS and types & {"Vec", "Rat"}:
                fractions.append(name)
            if stmt.value is not None and any(
                    isinstance(n, ast.Call) and getattr(n.func, "id", None) == "ReadOff"
                    for n in ast.walk(stmt.value)):
                read_off.append(name)
    return fractions, read_off


def test_finds_a_fraction_field_and_a_read_off_field():
    tree = ast.parse(
        "class Vertex:\n"
        "    coords: Vec = ReadOff(lambda v: v)\n"
        "    basis: frozenset[int]\n"
        "    step: Optional[Rat] = field(default=ReadOff(read), compare=False)\n"
        "class Hyperplane:\n"
        "    gamma: Vec\n"
    )
    assert _record_fields(tree) == (["Vertex.coords", "Vertex.step"],
                                    ["Vertex.coords", "Vertex.step"])


def test_point_records_hold_no_fraction_field_and_read_off_only_integer_fields():
    found = [_record_fields(tree) for tree in _package().values()]
    assert [name for fractions, _ in found for name in fractions] == []
    assert sorted(name for _, read_off in found for name in read_off) == sorted(READ_OFF)


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


def test_readme_entry_points_example_runs_and_prints_what_it_shows(capsys):
    # The block's trailing comment lines are the output it shows.
    body = (ROOT / "README.md").read_text().split("\n## Library entry points\n", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", body.split("\n## ", 1)[0], flags=re.S)
    code, shown = block.rstrip("\n"), []
    while code.splitlines()[-1].startswith("# "):
        code, last = code.rsplit("\n", 1)
        shown.insert(0, last[2:])
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown != []
