"""Seeded operator mutants of one package module, each run against tier-1.

Run from the repository root:

    python tests/mutants.py --module cli --seed 1 --count 30
    python tests/mutants.py --module cli --within _write_json --count 0

A mutant changes one operator site of ``src/rankgames/<module>.py``: a
comparison flipped (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
``is`` and ``is not``, ``in`` and ``not in``), ``+`` and ``-`` swapped, ``*``
and ``//`` swapped, or an integer constant 0 or 1 flipped. ``--count N``
draws N of the module's sites with ``random.Random(seed)``; ``--count 0``
takes every site. ``--within NAME`` keeps the sites inside the function or
class NAME. Each mutant is printed through ``ast.unparse``, which drops
comments, into a copy of the repository, and tier-1 runs there with ``pytest
-x``; a mutant that fails a test, or runs past ``TIMEOUT`` seconds, is
killed. The unmutated module, printed the same way, runs first and must
pass. The last lines list the survivors; the exit code is 1 if any survived,
and 2 if there is no site to mutate or the unmutated copy fails.

Only the standard library and pytest are used. pytest does not collect this
file, whose name does not start with ``test_``.
"""
from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds a tier-1 run may take before its mutant counts as killed
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
          ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//"}


def sites(tree: ast.Module, within: str | None) -> list[tuple]:
    """(node, slot) of every operator site, in ``ast.walk`` order: slot is a
    comparison's operator index, "op" for a binary operator, "value" for a
    0 or 1 constant."""
    roots = [tree] if within is None else [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == within]
    found = []
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Compare):
                found += [(node, i) for i, op in enumerate(node.ops) if type(op) in FLIPS]
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                found.append((node, "op"))
            elif (isinstance(node, ast.Constant) and type(node.value) is int
                  and node.value in (0, 1)):
                found.append((node, "value"))
    return found


def mutate(source: str, index: int, within: str | None) -> tuple[str, str]:
    """The module's text with its ``index``-th site mutated, and a line that
    names the change."""
    tree = ast.parse(source)
    node, slot = sites(tree, within)[index]
    if slot == "value":
        before, node.value = node.value, 1 - node.value
        what = f"{before} -> {node.value}"
    elif slot == "op":
        before, node.op = type(node.op), SWAPS[type(node.op)]()
        what = f"{SYMBOL[before]} -> {SYMBOL[type(node.op)]}"
    else:
        before = type(node.ops[slot])
        node.ops[slot] = FLIPS[before]()
        what = f"{SYMBOL[before]} -> {SYMBOL[FLIPS[before]]}"
    if slot == "value":
        what += f" in `{source.splitlines()[node.lineno - 1].strip()}`"
    else:
        what += f" gives `{ast.unparse(node)}`"
    return ast.unparse(tree), f"line {node.lineno}: {what}"


def tier1(copy: Path) -> bool:
    """Whether tier-1 passes in ``copy``; a run past ``TIMEOUT`` fails."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", required=True, help="package module, e.g. cli")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=30, help="0 takes every site")
    parser.add_argument("--within", default=None, metavar="NAME")
    args = parser.parse_args(argv)

    relative = Path("src", "rankgames", f"{args.module}.py")
    source = (ROOT / relative).read_text()
    total = len(sites(ast.parse(source), args.within))
    if total == 0:
        print(f"{relative} has no operator site"
              + (f" within {args.within}" if args.within else ""))
        return 2
    chosen = range(total) if args.count <= 0 or args.count >= total else sorted(
        random.Random(args.seed).sample(range(total), args.count))
    work = Path(tempfile.mkdtemp(prefix="mutants-"))
    copy = work / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", ".bench_work", "__pycache__", ".pytest_cache"))
    try:
        (copy / relative).write_text(ast.unparse(ast.parse(source)))
        if not tier1(copy):
            print(f"tier-1 fails on the unmutated, re-printed {relative}")
            return 2
        print(f"{relative}: {len(chosen)} of {total} sites")
        survivors = []
        for index in chosen:
            text, what = mutate(source, index, args.within)
            (copy / relative).write_text(text)
            start = time.perf_counter()
            killed = not tier1(copy)
            print(f"  {'killed  ' if killed else 'SURVIVED'} {what} "
                  f"({time.perf_counter() - start:.0f} s)", flush=True)
            if not killed:
                survivors.append(what)
        print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed")
        for what in survivors:
            print(f"survivor: {relative} {what}")
        return 1 if survivors else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
