"""Golden CLI output: exit code and stdout of ``solve --json``, ``enumerate
--json``, ``trace --json`` and ``regions --json`` on a dozen seeded games,
and exit code, stdout and stderr of ``fixedpoint --search --json`` on the
60 draws of the rank-k corpus, byte for byte.

The fixtures ``golden_cli.json`` and ``golden_fixedpoint.json`` hold each
game's text with the recorded outputs, so a change to them is a visible change
of the CLI's output. Rebuild them only on purpose, from the repository root:

    PYTHONPATH=src:tests python tests/test_golden.py
"""
from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from rankgames.cli import main, render_game
from rankgames.games import BimatrixGame, family_game
from rankgames.linalg import Matrix

from fixtures import random_rank1, random_rank_k

GOLDEN = Path(__file__).with_name("golden_cli.json")
GOLDEN_FIXEDPOINT = Path(__file__).with_name("golden_fixedpoint.json")
VERBS = ("solve", "enumerate", "trace", "regions")


def golden_games() -> dict[str, str]:
    """The games by name, as game-file text: rank-1 and general games from
    4x4 to 8x8 with the bench's wide spans, one with fractional entries and
    one degenerate (tied best rows), which exits 3."""
    games = {}
    for size in range(4, 9):
        d = random_rank1(random.Random(size), size, size, span=99, gamma_span=20, beta_span=50)
        games[f"rank1-{size}x{size}"] = d.game()
        rng = random.Random(100 + size)
        a, b = (Matrix([[rng.randint(-99, 99) for _ in range(size)] for _ in range(size)])
                for _ in range(2))
        games[f"general-{size}x{size}"] = BimatrixGame(a, b)
    d = random_rank1(random.Random(3), 5, 5, span=99, gamma_span=20, beta_span=50)
    game = d.game()
    games["rank1-fractional-5x5"] = BimatrixGame(game.a.scale(Fraction(1, 7)),
                                                 game.b.scale(Fraction(1, 7)))
    tied = Matrix([[3, 0, 1], [3, 1, 0], [0, 3, 2]])
    games["degenerate-3x3"] = BimatrixGame(tied, -tied)
    return {name: render_game(game) for name, game in games.items()}


def rank_k_games(count: int = 60) -> dict[str, str]:
    """The first ``count`` draws of the rank-k corpus by name, as game-file
    text: ``random_rank_k(random.Random(11), 2 + g % 2, s, s)`` with s = 3 +
    (g // 2) % 3, each the game of its family at its gammas. Draws 0, 6, 30,
    31, 33, 36 and 45 exit 3."""
    rng, games = random.Random(11), {}
    for g in range(count):
        k, size = 2 + g % 2, 3 + (g // 2) % 3
        a, betas, gammas = random_rank_k(rng, k, size, size)
        games[f"rank{k}-{size}x{size}-draw{g}"] = render_game(family_game(a, -a, gammas, betas))
    return games


def run_verb(verb: str, path: Path) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([verb, "--input", str(path), "--json"])
    return {"code": code, "stdout": out.getvalue()}


def run_fixedpoint_search(path: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["fixedpoint", "--input", str(path), "--search", "--json"])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cases() -> list[tuple[str, str]]:
    if not GOLDEN.exists():  # being rebuilt; the coverage test below fails without it
        return []
    doc = json.loads(GOLDEN.read_text())
    return [(name, verb) for name in doc["games"] for verb in VERBS]


@pytest.mark.parametrize("name,verb", _cases())
def test_cli_output_is_the_recorded_golden_output(name, verb, tmp_path):
    entry = json.loads(GOLDEN.read_text())["games"][name]
    path = tmp_path / "game.txt"
    path.write_text(entry["text"])
    assert run_verb(verb, path) == entry[verb]


def test_golden_games_cover_both_kinds_a_fraction_and_a_degenerate_exit():
    games = json.loads(GOLDEN.read_text())["games"]
    assert len(games) == 12
    assert any("/" in g["text"] for g in games.values())
    assert [name for name, g in games.items() if g["solve"]["code"] == 3] == ["degenerate-3x3"]


def test_the_module_entry_point_exits_with_the_golden_code_and_output(tmp_path):
    # ``python -m rankgames.cli`` in a fresh interpreter runs
    # ``raise SystemExit(main())``: its exit code and stdout are the golden
    # ones byte for byte, and a missing --input file exits 2.
    entry = json.loads(GOLDEN.read_text())["games"]["rank1-fractional-5x5"]
    path = tmp_path / "game.txt"
    path.write_text(entry["text"])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "rankgames.cli", *args],
                              capture_output=True, env=env, cwd=tmp_path, timeout=60)

    done = run("solve", "--input", str(path), "--json")
    assert done.returncode == entry["solve"]["code"]
    assert done.stdout == entry["solve"]["stdout"].encode()
    missing = run("solve", "--input", str(tmp_path / "missing.txt"), "--json")
    assert (missing.returncode, missing.stdout) == (2, b"")
    assert missing.stderr.startswith(b"error: ")


def _fixedpoint_cases() -> list[str]:
    if not GOLDEN_FIXEDPOINT.exists():  # being rebuilt; the coverage test below fails without it
        return []
    return list(json.loads(GOLDEN_FIXEDPOINT.read_text())["games"])


@pytest.mark.parametrize("name", _fixedpoint_cases())
def test_fixedpoint_search_output_is_the_recorded_golden_output(name, tmp_path):
    entry = json.loads(GOLDEN_FIXEDPOINT.read_text())["games"][name]
    path = tmp_path / "game.txt"
    path.write_text(entry["text"])
    assert run_fixedpoint_search(path) == entry["fixedpoint --search"]


def test_fixedpoint_golden_games_are_the_rank_k_draws_and_draw_0_exits_3():
    games = json.loads(GOLDEN_FIXEDPOINT.read_text())["games"]
    assert {name: g["text"] for name, g in games.items()} == rank_k_games()
    codes = [g["fixedpoint --search"]["code"] for g in games.values()]
    assert codes == [3 if g in (0, 6, 30, 31, 33, 36, 45) else 0 for g in range(60)]


def regenerate(tmp: Path) -> None:
    games = {}
    for name, text in golden_games().items():
        path = tmp / f"{name}.txt"
        path.write_text(text)
        games[name] = {"text": text, **{verb: run_verb(verb, path) for verb in VERBS}}
    GOLDEN.write_text(json.dumps({"games": games}, indent=1) + "\n")
    games = {}
    for name, text in rank_k_games().items():
        path = tmp / f"{name}.txt"
        path.write_text(text)
        games[name] = {"text": text, "fixedpoint --search": run_fixedpoint_search(path)}
    GOLDEN_FIXEDPOINT.write_text(json.dumps({"games": games}, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
