"""Command-line front end: game files in, bit-exact equilibria out.

Game file format: optional '#' comment lines, a header ``m n``, then m rows
of n tokens for the first payoff matrix and m more for the second. Tokens are
integers or fractions like ``-3/4``. A plain integer token is read as an
``int`` and any other token as a ``Fraction``, so an integer game file builds
its matrices' integer rows with no ``Fraction`` in between (``linalg.Matrix``).
All output stays exact; JSON renders every rational as a string.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from math import ceil
from typing import Optional, Sequence

from .algorithms import (
    bin_search,
    enumerate_general,
    enumerate_rank1,
    fixed_point_search,
    general_family,
    rank1_family,
    region_graph,
    solve_general,
)
from .errors import (
    ConstantBeta,
    DegeneracyError,
    DependentBetas,
    DimensionMismatch,
    IterationCapExceeded,
    NotFullyLabeled,
    OutOfBox,
    RankGamesError,
    RankTooHigh,
    SeedOnPath,
    StepBudgetExceeded,
    TooLarge,
    ZeroBeta,
)
from .games import (
    BimatrixGame,
    EquilibriumRecord,
    Rank1Decomposition,
    decompose_rank1,
    decompose_rank_k,
)
from .labeledpath import export_lines, make_node, trace_cycle, trace_path
from .linalg import Matrix, matrix_rank
from .oracle import support_enumeration
from .paramlp import box_bounds, fixed_point_eval
from .polytope import GameFamily

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_GUARD = 4
EXIT_INTERNAL = 5


class ParseError(RankGamesError):
    """Game file or argument syntax error (exit code 2)."""


def _plain_integer(token: str) -> bool:
    """An ASCII token of an optional sign and decimal digits only, which
    ``int`` reads as ``Fraction`` does; underscores and non-ASCII digits,
    which ``str.isdigit`` or ``int`` accept too, are left to ``Fraction``."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    return token.isascii() and digits.isdigit()


def parse_fraction(token: str) -> Fraction:
    if _plain_integer(token):
        return Fraction(int(token))
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational token {token!r}") from exc


def parse_game_file(text: str) -> BimatrixGame:
    tokens: list[str] = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            tokens.extend(stripped.split())
    if len(tokens) < 2:
        raise ParseError("missing 'm n' header")
    try:
        m, n = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ParseError("header entries must be integers") from exc
    if m < 1 or n < 1:
        raise ParseError("dimensions must be at least 1")
    need = 2 + 2 * m * n
    if len(tokens) != need:
        raise ParseError(f"expected {need} tokens, found {len(tokens)}")
    values = [int(t) if _plain_integer(t) else parse_fraction(t) for t in tokens[2:]]
    rows_a = [values[i * n: (i + 1) * n] for i in range(m)]
    rows_b = [values[m * n + i * n: m * n + (i + 1) * n] for i in range(m)]
    return BimatrixGame(Matrix(rows_a), Matrix(rows_b))


def _vec_str(v: Sequence[Fraction]) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def record_line(rec: EquilibriumRecord) -> str:
    idx = "unknown" if rec.index is None else f"{rec.index:+d}"
    return f"x = {_vec_str(rec.profile.x)}; y = {_vec_str(rec.profile.y)}; index {idx}"


def record_json(rec: EquilibriumRecord) -> dict:
    return {
        "x": [str(v) for v in rec.profile.x],
        "y": [str(v) for v in rec.profile.y],
        "payoff1": str(rec.payoff1),
        "payoff2": str(rec.payoff2),
        "support": [list(rec.support[0]), list(rec.support[1])],
        "index": rec.index,
        "provenance": rec.provenance,
    }


def perturb_game(game: BimatrixGame, seed: int) -> BimatrixGame:
    """Deterministic tiny perturbation that keeps the payoff sum A + B.

    Adds independent uniform rationals from (0, 1/D) to every entry of the
    first matrix and subtracts them from the second, so a rank-k game stays
    rank-k with the same factorization of A + B.
    """
    rng = random.Random(seed)
    m, n = game.m, game.n
    top = max(game.a.max_abs(), game.b.max_abs())
    d_scale = 2 * (m + n) * (int(ceil(top)) + 1) * 10**6
    eps = Matrix(
        [[Fraction(rng.randint(1, 10**6 - 1), 10**6 * d_scale) for _ in range(n)]
         for _ in range(m)]
    )
    return BimatrixGame(game.a + eps, game.b - eps)


def _beta_override(game: BimatrixGame, args) -> Optional[tuple]:
    if args.beta is None:
        return None
    beta = tuple(parse_fraction(t) for t in args.beta.split(","))
    if len(beta) != game.n:
        raise ParseError(f"embedding vector --beta has {len(beta)} entries for {game.n} columns")
    if len(set(beta)) < 2:
        raise ParseError("--beta needs at least two distinct entries")
    return beta


def _embedding(game: BimatrixGame, args) -> tuple[Optional[tuple], Optional[Rank1Decomposition]]:
    """The --beta override, and the rank-1 factorization under it (None above rank 1)."""
    beta = _beta_override(game, args)
    try:
        return beta, decompose_rank1(game, beta)
    except RankTooHigh:
        return beta, None


def _family_for(game: BimatrixGame, args) -> GameFamily:
    """Natural embedding: rank-1 inputs use c = -a, others c = b, weights 0.

    The path needs two columns: with one, beta is constant whatever it is.
    """
    if game.n < 2:
        raise ParseError(f"{args.command} needs at least 2 columns (game is {game.m}x{game.n})")
    beta, d1 = _embedding(game, args)
    return general_family(game, beta) if d1 is None else rank1_family(d1)[1]


def cmd_solve(game: BimatrixGame, args, out: dict) -> None:
    beta, d1 = _embedding(game, args)
    if d1 is not None:
        report = bin_search(d1)
        out["records"] = [report.equilibrium]
        out["iterations"] = report.iterations
        out["bound_k"] = report.bound_k
    else:
        print(
            "warning: payoff sum has rank >= 2; falling back to the first "
            "path equilibrium",
            file=sys.stderr,
        )
        out["records"] = [solve_general(game, beta)]


def cmd_enumerate(game: BimatrixGame, args, out: dict) -> None:
    beta, d1 = _embedding(game, args)
    if d1 is not None:
        out["records"] = enumerate_rank1(d1)
    else:
        out["records"] = enumerate_general(game, beta)


def cmd_oracle(game: BimatrixGame, args, out: dict) -> None:
    out["records"] = list(support_enumeration(game).equilibria)


def cmd_rank(game: BimatrixGame, args, out: dict) -> None:
    s = game.payoff_sum()
    d = decompose_rank_k(game)
    out["rank"] = matrix_rank(s)
    out["decomposition"] = {
        "gammas": [[str(v) for v in g] for g in d.gammas],
        "betas": [[str(v) for v in b] for b in d.betas],
    }
    out["lines"] = [f"rank(A+B) = {out['rank']}"]
    for l, (g, b) in enumerate(zip(d.gammas, d.betas), start=1):
        out["lines"].append(f"gamma_{l} = {_vec_str(g)}  beta_{l} = {_vec_str(b)}")


def cmd_trace(game: BimatrixGame, args, out: dict) -> None:
    family = _family_for(game, args)
    if args.all_from:
        try:
            v_part, w_part = args.all_from.split("/")
            v_basis = frozenset(int(t) for t in v_part.split(","))
            w_basis = frozenset(int(t) for t in w_part.split(","))
        except ValueError as exc:
            raise ParseError("--all-from wants 'v1,v2,../w1,w2,..'") from exc
        top = family.m + family.n
        if any(not 1 <= lab <= top for lab in v_basis | w_basis):
            raise ParseError(f"--all-from seed {args.all_from!r}: labels must lie in 1..{top}")
        try:
            v = family.p.try_vertex(v_basis)
            w = family.qp.try_vertex(w_basis)
            if v is None or w is None:
                raise ParseError(f"--all-from seed {args.all_from!r}: not a feasible vertex pair")
            seed = make_node(family, v, w)
        except (DimensionMismatch, NotFullyLabeled) as exc:
            raise ParseError(f"--all-from seed {args.all_from!r}: {exc}") from exc
        try:
            trace = trace_cycle(family, seed)
        except SeedOnPath as exc:
            raise ParseError(f"--all-from seed {args.all_from!r}: {exc}") from exc
    else:
        trace = trace_path(family)
    out["lines"] = export_lines(family, trace)
    out["trace"] = {
        "kind": trace.kind,
        "nodes": [
            {
                "v_basis": sorted(u.v.basis),
                "w_basis": sorted(u.w.basis),
                "duplicate": u.duplicate,
                "sign": u.sign,
                "lambda": str(family.lambda_of(u.w)),
            }
            for u in trace.nodes
        ],
    }


def cmd_regions(game: BimatrixGame, args, out: dict) -> None:
    family = _family_for(game, args)
    graph = region_graph(family, trace_path(family))
    lines = [f"regions on the {graph.kind}: {len(graph.regions)}"]
    regions_json = []
    for idx, reg in enumerate(graph.regions):
        planes = "; ".join(
            f"{_vec_str(h.coeffs)}.alpha = {h.offset}" for h in reg.hyperplanes
        )
        lines.append(
            f"region {idx}: v={','.join(str(x) for x in sorted(reg.vertex.basis))} "
            f"kind={reg.kind} support={reg.support_size} planes[{planes}]"
        )
        regions_json.append(
            {
                "v_basis": sorted(reg.vertex.basis),
                "kind": reg.kind,
                "support_size": reg.support_size,
                "hyperplanes": [
                    {"coeffs": [str(c) for c in h.coeffs], "offset": str(h.offset)}
                    for h in reg.hyperplanes
                ],
            }
        )
    out["lines"] = lines
    out["regions"] = regions_json


def cmd_fixedpoint(game: BimatrixGame, args, out: dict) -> None:
    d = decompose_rank_k(game)
    if d.k == 0:
        raise ParseError("zero-sum game: the fixed-point box is empty (k = 0)")
    family = GameFamily(d.a, -d.a, *d.betas)
    if args.k_eval is not None:
        a = tuple(parse_fraction(t) for t in args.k_eval.split(","))
        if len(a) != d.k:
            raise ParseError(f"--k-eval needs k = {d.k} entries, one per beta; got {len(a)}")
        try:
            fa = fixed_point_eval(family, d.gammas, a)
        except OutOfBox as exc:
            lows, highs = box_bounds(d.gammas)
            raise ParseError(
                f"--k-eval point {_vec_str(a)} lies outside the box "
                f"{_vec_str(lows)}..{_vec_str(highs)}"
            ) from exc
        out["lines"] = [f"f{_vec_str(a)} = {_vec_str(fa)} (experimental)"]
        out["fixedpoint"] = {"a": [str(v) for v in a], "f": [str(v) for v in fa]}
        return
    point, record = fixed_point_search(family, d.gammas)
    out["records"] = [record]
    out["lines"] = [f"a = {_vec_str(point)}"]
    out["fixedpoint"] = {"a": [str(v) for v in point]}


COMMANDS = {
    "solve": cmd_solve,
    "enumerate": cmd_enumerate,
    "trace": cmd_trace,
    "index": cmd_enumerate,
    "oracle": cmd_oracle,
    "rank": cmd_rank,
    "regions": cmd_regions,
    "fixedpoint": cmd_fixedpoint,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="game file path")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    # Only the verbs that can meet a degenerate instance retry on --perturb.
    retry = argparse.ArgumentParser(add_help=False)
    retry.add_argument("--perturb", type=int, metavar="SEED", default=None,
                       help="retry once with a tiny seeded perturbation on degeneracy")
    # Only the verbs that embed the game in a family read --beta.
    embedding = argparse.ArgumentParser(add_help=False)
    embedding.add_argument("--beta", default=None,
                           help="override the embedding vector, e.g. '1,2,3'")
    parser = argparse.ArgumentParser(
        prog="rankgames",
        description="Exact bimatrix equilibrium solver on fully-labeled paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "enumerate", "index", "oracle", "rank", "regions"):
        embeds = name not in ("oracle", "rank")
        sub.add_parser(name, parents=[common, retry, embedding] if embeds else [common])
    trace_p = sub.add_parser("trace", parents=[common, retry, embedding])
    trace_p.add_argument("--all-from", default=None, metavar="SEED",
                         help="trace the cycle through the node 'v1,v2,../w1,w2,..'")
    fp = sub.add_parser("fixedpoint", parents=[common, retry])
    group = fp.add_mutually_exclusive_group(required=True)
    group.add_argument("--k-eval", default=None, metavar="A1,..,AK")
    group.add_argument("--search", action="store_true")
    return parser


PARSER = build_parser()  # built once: in-process callers call main once per game


# argparse reads a separate value that starts with '-' as an option.
_SIGNED_VALUE_FLAGS = ("--beta", "--k-eval")


def _join_signed_values(argv: Sequence[str]) -> list[str]:
    """'--k-eval -1/2,1' -> '--k-eval=-1/2,1' for the flags whose values may be negative."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_FLAGS and tok[:1] == "-" and tok[:2] != "--":
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _emit(out: dict, as_json: bool, perturbed: Optional[int]) -> None:
    records = out.get("records")
    if as_json:
        doc: dict = {"perturbed_seed": perturbed}
        if records is not None:
            doc["equilibria"] = [record_json(r) for r in records]
        for key in (
            "rank", "decomposition", "trace", "regions", "fixedpoint",
            "iterations", "bound_k",
        ):
            if key in out and out[key] is not None:
                doc[key] = out[key]
        print(json.dumps(doc, indent=2))
        return
    for line in out.get("lines", []):
        print(line)
    if records is not None:
        for rec in records:
            print(record_line(rec))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = PARSER.parse_args(
            _join_signed_values(sys.argv[1:] if argv is None else argv)
        )
    except SystemExit as exc:  # argparse exits on --help and on usage errors
        return exc.code
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            game = parse_game_file(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        print(f"error: {args.input} is not UTF-8 text ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    command = COMMANDS[args.command]
    perturbed_seed: Optional[int] = None
    try:
        out: dict = {}
        try:
            command(game, args, out)
        except DegeneracyError as exc:
            if getattr(args, "perturb", None) is None:  # oracle and rank take none
                print(
                    f"error: degenerate instance ({exc}); rerun with --perturb SEED",
                    file=sys.stderr,
                )
                return EXIT_DEGENERATE
            perturbed_seed = args.perturb
            print(
                f"notice: degenerate instance ({exc}); retrying on a perturbed game "
                f"(seed={args.perturb}) -- output belongs to the perturbed game",
                file=sys.stderr,
            )
            out = {}
            command(perturb_game(game, args.perturb), args, out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ZeroBeta, ConstantBeta, DependentBetas, DimensionMismatch) as exc:
        print(f"error: unusable embedding vector ({exc})", file=sys.stderr)
        return EXIT_PARSE
    except DegeneracyError as exc:
        print(f"error: still degenerate after perturbation ({exc})", file=sys.stderr)
        return EXIT_DEGENERATE
    except (TooLarge, StepBudgetExceeded, IterationCapExceeded) as exc:
        print(f"error: guard exceeded ({exc})", file=sys.stderr)
        return EXIT_GUARD
    except RankGamesError as exc:
        # A broken internal invariant: report it instead of a traceback.
        print(f"error: internal failure ({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_INTERNAL

    _emit(out, args.json, perturbed_seed)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
