"""Golden CLI output: exit code and stdout of ``solve --json``, ``enumerate
--json``, ``trace --json`` and ``regions --json`` on a dozen seeded games,
byte for byte.

The fixture ``golden_cli.json`` holds each game's text with the recorded
outputs, so a change to it is a visible change of the CLI's output. Rebuild it
only on purpose, from the repository root:

    PYTHONPATH=src:tests python tests/test_golden.py
"""
from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from rankgames.cli import main, render_game
from rankgames.games import BimatrixGame
from rankgames.linalg import Matrix

from fixtures import random_rank1

GOLDEN = Path(__file__).with_name("golden_cli.json")
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


def run_verb(verb: str, path: Path) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([verb, "--input", str(path), "--json"])
    return {"code": code, "stdout": out.getvalue()}


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


def regenerate(tmp: Path) -> None:
    games = {}
    for name, text in golden_games().items():
        path = tmp / f"{name}.txt"
        path.write_text(text)
        games[name] = {"text": text, **{verb: run_verb(verb, path) for verb in VERBS}}
    GOLDEN.write_text(json.dumps({"games": games}, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
