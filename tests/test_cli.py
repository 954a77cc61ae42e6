import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from rankgames import cli
from rankgames.cli import (
    EXIT_DEGENERATE,
    EXIT_GUARD,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_fraction,
    parse_game_file,
)
from rankgames.errors import NotEquilibrium
from rankgames.games import BimatrixGame
from rankgames.linalg import Matrix

from fixtures import (
    EX1_A,
    EX1_BETA,
    EX1_C,
    MATCHING_PENNIES,
    R1A,
    R1B,
    R1C,
    bench_corpus_texts,
    render_game,
    shift,
    zero_matrix,
)


def write_game(tmp_path, game, name="g.game"):
    path = tmp_path / name
    path.write_text(render_game(game))
    return str(path)


MP_TEXT = """# matching pennies
2 2
1 -1
-1 1
-1 1
1 -1
"""


def test_parse_and_render_round_trip():
    game = parse_game_file(MP_TEXT)
    assert game.a == MATCHING_PENNIES.a
    assert game.b == MATCHING_PENNIES.b
    assert parse_game_file(render_game(game)) == game


def test_parse_fraction_tokens():
    text = "1 2\n1/2 -3/4\n2 -1\n"
    game = parse_game_file(text)
    assert game.a[0, 0] == Fraction(1, 2)
    assert game.b[0, 1] == Fraction(-1)


def test_an_integer_game_file_builds_no_fraction(monkeypatch):
    # Plain integer tokens are read as ints, so parsing an integer game file
    # constructs no Fraction: its matrices hold their integer rows over
    # denominator 1, and each builds its Fraction grid only when read.
    real_new, made = Fraction.__new__, []

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    game = parse_game_file(MP_TEXT)
    assert made == []
    for mat, want in ((game.a, ((1, -1), (-1, 1))), (game.b, ((-1, 1), (1, -1)))):
        assert (mat.int_rows, mat.denom) == (want, 1)
        assert mat._grid is None
    assert game.a[0, 1] == -1 and made
    assert game.a._grid is not None and game.b._grid is None


def test_parse_errors():
    with pytest.raises(Exception):
        parse_game_file("")
    with pytest.raises(Exception):
        parse_game_file("2 2\n1 2 3\n")
    with pytest.raises(Exception):
        parse_game_file("1 1\nx\ny\n")


def test_plain_integer_tokens_parse_exactly_as_fraction_does():
    # The fast path takes only ASCII tokens of an optional sign and digits,
    # and gives Fraction(token) on each; every other token goes through
    # Fraction, and a bad one raises the same ParseError message as before.
    # isdigit accepts the superscript, which int rejects; int and Fraction
    # accept underscores and non-ASCII digits, which the fast path leaves.
    tokens = ["0", "-0", "+0", "7", "-7", "+7", "007", "-00012", str(10**40), f"-{10**40}",
              "1_0", "-1_000", "\u00b2", "-\u00b2", "\u0661\u0662", "-\u0661", "\u0663/\u0664",
              "1/2", "-3/4", "1.5", "1e3", "-2E-2", "+-5", "--5", "-", "+", "", "x", "1/0",
              "0x10", "nan", "inf"]
    rng = random.Random(19)
    alphabet = "0123456789+-/_.e\u00b2\u0661x"
    tokens += ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
               for _ in range(3000)]
    taken = 0
    for token in tokens:
        try:
            want = Fraction(token)
        except (ValueError, ZeroDivisionError):
            want = None
        if cli._plain_integer(token):
            taken += 1
            got = parse_fraction(token)
            assert type(got) is Fraction and got == want
        if want is None:
            with pytest.raises(cli.ParseError) as exc:
                parse_fraction(token)
            assert str(exc.value) == f"bad rational token {token!r}"
        else:
            assert parse_fraction(token) == want
    assert taken == 885


def test_the_whole_file_check_reads_every_game_file_as_the_per_token_rule(
        monkeypatch, tmp_path, capsys):
    # parse_game_file checks an all-integer file with one pattern over the
    # joined tokens and reads it with int, and reads any other file token by
    # token. Integer files, the three bench corpora and the matching
    # pennies, give the same Matrix as the per-token rule alone, with
    # _plain_integer never called. Each odd token, in a 2x2 file with
    # integers around it, gives the value or the exit-2 message that
    # parse_fraction gives it alone.
    integer_files = [text for _, text in bench_corpus_texts()] + [MP_TEXT]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_plain_integer", None)
        whole = [parse_game_file(text) for text in integer_files]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_PLAIN_INTEGERS", re.compile("(?!)"))  # matches nothing
        assert whole == [parse_game_file(text) for text in integer_files]
    assert all(type(x) is int for game in whole for row in game.a.int_rows for x in row)
    outcomes = Counter()
    for token in ("+7", "-0", "007", "3/4", "-3/4", "1_000", "\u0663", "1e3", "0x1F"):
        text = f"2 2\n1 {token}\n-2 3\n0 4\n{token} -5\n"
        path = tmp_path / "tok.game"
        path.write_text(text, encoding="utf-8")
        try:
            value = parse_fraction(token)
        except cli.ParseError as exc:
            assert main(["enumerate", "--input", str(path)]) == EXIT_PARSE
            assert capsys.readouterr().err == f"error: {exc}\n"
            outcomes["exit 2"] += 1
        else:
            game = parse_game_file(text)
            assert game.a[0, 1] == game.b[1, 0] == value
            assert game.a == Matrix([[1, value], [-2, 3]])
            outcomes["value"] += 1
    # Fraction reads "1_000" from Python 3.11 on, so the split depends on it.
    assert set(outcomes) == {"value", "exit 2"} and sum(outcomes.values()) == 9


def test_solve_matching_pennies(tmp_path, capsys):
    path = write_game(tmp_path, MATCHING_PENNIES)
    assert main(["solve", "--input", path]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "x = (1/2, 1/2); y = (1/2, 1/2); index +1"


def test_enumerate_json_matches_oracle_count(tmp_path, capsys):
    path = write_game(tmp_path, R1B.game())
    assert main(["enumerate", "--input", path, "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["equilibria"]) == 3
    assert len(doc["equilibria"]) % 2 == 1
    assert main(["oracle", "--input", path, "--json"]) == EXIT_OK
    oracle_doc = json.loads(capsys.readouterr().out)
    enum_keys = sorted((tuple(e["x"]), tuple(e["y"])) for e in doc["equilibria"])
    oracle_keys = sorted(
        (tuple(e["x"]), tuple(e["y"])) for e in oracle_doc["equilibria"]
    )
    assert enum_keys == oracle_keys
    # exactness: rationals travel as strings
    assert all(
        isinstance(v, str) for e in doc["equilibria"] for v in e["x"] + e["y"]
    )


def test_trace_path_records(tmp_path, capsys):
    path = write_game(tmp_path, R1A.game())
    assert main(["trace", "--input", path]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("trace kind=path")
    assert any(line.startswith("node ") for line in lines)
    assert lines[-1].startswith("edge ")


def _edge_lambda_fields(lines: list[str]) -> list[str]:
    """The lambda fields of a text path trace's edge lines, each checked
    against its end nodes' lambda: a W-fixed edge's is the point its two
    nodes share, a V-fixed edge's is [min,max] of its two nodes', and a ray's
    is (-inf,x] or [x,+inf) at its one node's x."""
    assert lines[0].startswith("trace kind=path")
    body = [dict(field.split("=", 1) for field in line.split()[1:]) for line in lines[1:]]
    edges, nodes = body[0::2], [Fraction(node["lambda"]) for node in body[1::2]]
    assert [line.split()[0] for line in lines[1:]] == ["edge", "node"] * len(nodes) + ["edge"]
    for k, edge in enumerate(edges):
        ends = nodes[max(k - 1, 0): k + 1]
        if len(ends) == 1:
            (x,) = ends
            assert edge["lambda"] in (f"(-inf,{x}]", f"[{x},+inf)")
        elif edge["kind"] == "w_fixed":
            assert ends[0] == ends[1] and edge["lambda"] == str(ends[0])
        else:
            assert edge["kind"] == "v_fixed"
            assert edge["lambda"] == f"[{min(ends)},{max(ends)}]"
    return [edge["lambda"] for edge in edges]


def test_trace_edge_lambdas_agree_with_their_nodes(tmp_path, capsys):
    # Text trace prints each edge's lambda range. On the worked example
    # under beta (9, 7, 8), whose path has both kinds of edge and both rays,
    # and on R1A, every edge line's lambda agrees with its end nodes'.
    ex1 = write_game(tmp_path, BimatrixGame(EX1_A, EX1_C + Matrix.outer((0, 1, 1), EX1_BETA)),
                     "ex1.game")
    assert main(["trace", "--input", ex1, "--beta", "9,7,8"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert _edge_lambda_fields(lines) == ["(-inf,1]", "1", "[-3/2,1]", "-3/2", "[-3/2,+inf)"]
    assert main(["trace", "--input", write_game(tmp_path, R1A.game())]) == EXIT_OK
    assert len(_edge_lambda_fields(capsys.readouterr().out.strip().splitlines())) == 7


def test_trace_cycle_from_seed(tmp_path, capsys):
    # The worked example's cycle seed, embedded as a general game.
    game = BimatrixGame(EX1_A, EX1_C + Matrix.outer((0, 1, 1), EX1_BETA))
    path = write_game(tmp_path, game)
    code = main(
        ["trace", "--input", path, "--beta", "9,7,8", "--all-from", "2,3,5/1,3,4,6"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "trace kind=cycle" in out


def test_index_command(tmp_path, capsys):
    path = write_game(tmp_path, R1B.game())
    assert main(["index", "--input", path]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    assert [line.rsplit(" ", 1)[-1] for line in out] == ["+1", "-1", "+1"]


def test_rank_command(tmp_path, capsys):
    path = write_game(tmp_path, BimatrixGame(EX1_A, -EX1_A))
    assert main(["rank", "--input", path]) == EXIT_OK
    assert "rank(A+B) = 0" in capsys.readouterr().out

    from fixtures import K2_GAME

    path = write_game(tmp_path, K2_GAME, "k2.game")
    assert main(["rank", "--input", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rank(A+B) = 2" in out
    assert "gamma_2" in out


def test_rank_command_on_a_large_general_game(tmp_path, capsys):
    # A 24x24 general game with entries in [-99, 99]: its payoff sum has full
    # rank, found by fraction-free Gauss-Jordan elimination.
    rng = random.Random(24)
    a, b = (Matrix([[rng.randint(-99, 99) for _ in range(24)] for _ in range(24)])
            for _ in range(2))
    path = write_game(tmp_path, BimatrixGame(a, b))
    assert main(["rank", "--input", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rank(A+B) = 24"
    assert [line.split()[0] for line in lines[1:]] == [f"gamma_{l}" for l in range(1, 25)]


def test_regions_command(tmp_path, capsys):
    path = write_game(tmp_path, R1A.game())
    assert main(["regions", "--input", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "regions on the path" in out
    assert "half_space" in out


def test_fixedpoint_eval_and_search(tmp_path, capsys):
    path = write_game(tmp_path, R1A.game())
    # The CLI re-peels its own factorization; the equilibrium's box point is
    # lambda = gamma' . x = -9/22 in that parametrization.
    assert main(["fixedpoint", "--input", path, "--k-eval=-9/22"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "f(-9/22) = (-9/22)" in out
    assert main(["fixedpoint", "--input", path, "--search"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "a = (-9/22)\nx = (0, 7/11, 4/11); y = (13/21, 8/21, 0); index unknown\n"


def test_fixedpoint_search_verifies_once(tmp_path, capsys, monkeypatch):
    # The CLI prints the record the search verified: it makes no section
    # solve beyond the search's own, which is the one at the box centre; the
    # answer is the lifted point of the cell the search accepted. The cell
    # walk reads each visited vertex's rows once: the start's are its
    # section's and are not read again, the others' are read when the walk
    # reaches them, and the accepted cell's go on to its lifted section.
    from rankgames import algorithms
    from rankgames.games import decompose_rank_k
    from rankgames.polytope import GameFamily

    from fixtures import K2_GAME

    real = {name: getattr(algorithms, name)
            for name in ("solve_lp_k", "section_rows", "cell_rows", "lifted_section")}
    starts, read, visited, lifted = [], [], [], []

    def counted_start(*args):
        starts.append(real["solve_lp_k"](*args))
        return starts[-1]

    def counted_rows(p, v, betas):
        read.append((v.basis, real["section_rows"](p, v, betas)))
        return read[-1][1]

    def counted_cell(family, rows):
        visited.append(rows)
        return real["cell_rows"](family, rows)

    def counted_lift(p, lifted_p, v, rows, *rest):
        lifted.append(rows)
        return real["lifted_section"](p, lifted_p, v, rows, *rest)

    monkeypatch.setattr(algorithms, "solve_lp_k", counted_start)
    monkeypatch.setattr(algorithms, "section_rows", counted_rows)
    monkeypatch.setattr(algorithms, "cell_rows", counted_cell)
    monkeypatch.setattr(algorithms, "lifted_section", counted_lift)

    def check_and_clear():
        (start,) = starts
        assert [id(rows) for rows in visited] == [id(start.rows), *(id(rows) for _, rows in read)]
        bases = [start.v.basis, *(basis for basis, _ in read)]
        assert len(set(bases)) == len(bases)
        assert [id(rows) for rows in lifted] == [id(visited[-1])]
        for calls in (starts, read, visited, lifted):
            calls.clear()

    for game in (R1A.game(), K2_GAME):
        d = decompose_rank_k(game)
        algorithms.fixed_point_search(GameFamily(d.a, -d.a, *d.betas), d.gammas)
        check_and_clear()
        assert main(["fixedpoint", "--input", write_game(tmp_path, game), "--search"]) == EXIT_OK
        capsys.readouterr()
        check_and_clear()


def test_k_eval_outside_the_box_is_parse_error(tmp_path, capsys):
    from fixtures import K2_GAME

    path = write_game(tmp_path, K2_GAME, "k2.game")
    for point in ("100,100", "6,1", "0,-1"):
        assert main(["fixedpoint", "--input", path, "--k-eval", point]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        shown = "(" + point.replace(",", ", ") + ")"
        assert captured.err == (
            f"error: --k-eval point {shown} lies outside the box (0, 0)..(5, 1)\n"
        )


def test_k_eval_with_the_wrong_number_of_entries_is_parse_error(tmp_path, capsys):
    # The count is checked before the box, so a point of the wrong length is
    # not reported as lying outside it.
    from fixtures import K2_GAME

    k3_game = BimatrixGame(
        EX1_A,
        -EX1_A + Matrix.outer((1, 0, 0), (1, 2, 3)) + Matrix.outer((0, 1, 0), (5, 1, 4))
        + Matrix.outer((0, 0, 1), (0, 0, 1)),
    )
    cases = [(K2_GAME, 2, "1"), (K2_GAME, 2, "1,1,1"), (k3_game, 3, "1"), (k3_game, 3, "1,2,3,4")]
    for game, k, point in cases:
        path = write_game(tmp_path, game)
        assert main(["fixedpoint", "--input", path, "--k-eval", point]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        count = point.count(",") + 1
        assert captured.err == f"error: --k-eval needs k = {k} entries, one per beta; got {count}\n"


def test_values_that_start_with_a_minus_sign(tmp_path, capsys):
    path = write_game(tmp_path, R1A.game())
    assert main(["fixedpoint", "--input", path, "--k-eval", "-9/22"]) == EXIT_OK
    assert capsys.readouterr().out == "f(-9/22) = (-9/22) (experimental)\n"
    game = BimatrixGame(EX1_A, EX1_C + Matrix.outer((0, 1, 1), EX1_BETA))
    path = write_game(tmp_path, game, "ex1.game")
    assert main(["enumerate", "--input", path, "--beta=-1,2,3"]) == EXIT_OK
    joined = capsys.readouterr().out
    assert main(["enumerate", "--input", path, "--beta", "-1,2,3"]) == EXIT_OK
    assert capsys.readouterr().out == joined
    assert joined.count("\n") == 3


def test_consecutive_runs_print_what_fresh_runs_print(tmp_path, capsys, monkeypatch):
    # main parses with the one parser built at import; a run that follows
    # others prints what a run on a freshly built parser prints.
    from fixtures import K2_GAME

    r1a = write_game(tmp_path, R1A.game())
    k2 = write_game(tmp_path, K2_GAME, "k2.game")
    ex1 = write_game(tmp_path, BimatrixGame(EX1_A, EX1_C + Matrix.outer((0, 1, 1), EX1_BETA)),
                     "ex1.game")
    runs = [
        ["solve", "--input", r1a, "--json"],
        ["enumerate", "--input", ex1, "--beta", "-1,2,3"],
        ["fixedpoint", "--input", k2, "--search"],
        ["fixedpoint", "--input", k2, "--search", "--k-eval", "1,1"],
        ["trace", "--input", r1a, "--json"],
        ["solve", "--input", r1a],
        ["enumerate", "--input", ex1],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    consecutive = [run(argv) for argv in runs]
    fresh = []
    for argv in runs:
        monkeypatch.setattr(cli, "PARSER", cli.build_parser())
        fresh.append(run(argv))
    assert consecutive == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, EXIT_PARSE, 0, 0, EXIT_DEGENERATE]
    assert "not allowed with argument" in fresh[3][2]


def test_missing_file_is_parse_error(capsys):
    assert main(["solve", "--input", "/nonexistent/g.game"]) == EXIT_PARSE


def test_malformed_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.game"
    path.write_text("2 2\n1 2\n")
    assert main(["solve", "--input", str(path)]) == EXIT_PARSE


def test_file_that_is_not_utf8_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.game"
    path.write_bytes(b"2 2\n1 2\n3 4\n\xff\xfe 1\n1 1\n")
    assert main(["solve", "--input", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} is not UTF-8 text (invalid start byte at byte 12)\n"


def test_degenerate_without_perturb_exits_3(tmp_path, capsys):
    game = BimatrixGame(Matrix([[1, 2], [1, 2]]), Matrix([[0, 1], [3, 1]]))
    path = write_game(tmp_path, game)
    assert main(["solve", "--input", path]) == EXIT_DEGENERATE
    assert "--perturb" in capsys.readouterr().err


def test_singular_tight_system_is_degenerate(tmp_path, capsys, monkeypatch):
    # Game 4 of the small-entry rank-1 yardstick reaches a section edge along
    # which the path coordinate is constant, so no orientation exists there;
    # both its nodes' tight systems are singular, so node_sign (through
    # make_node) has no sign for them either.
    from fixtures import random_rank1
    from rankgames.algorithms import bin_search, enumerate_rank1
    from rankgames.errors import DegeneratePolytope
    from rankgames.labeledpath import V_FIXED, make_node
    import rankgames.paramlp as paramlp

    rng = random.Random(77)
    d = [random_rank1(rng, s, s, span=2, gamma_span=1, beta_span=3) for s in (3, 4, 5, 3, 4)][4]
    message = "path coordinate constant along an edge"
    real, edges = paramlp.oriented_edge, []

    def recorded(family, kind, fixed, ed):
        edges.append((family, kind, fixed, ed))
        return real(family, kind, fixed, ed)

    monkeypatch.setattr(paramlp, "oriented_edge", recorded)
    for run in (enumerate_rank1, bin_search):
        with pytest.raises(DegeneratePolytope, match=message):
            run(d)
        family, kind, fixed, ed = edges[-1]
        for end in (ed.base, ed.far_end):
            with pytest.raises(DegeneratePolytope,
                               match="singular tight system at a fully-labeled pair"):
                make_node(family, *((fixed, end) if kind == V_FIXED else (end, fixed)))
    path = write_game(tmp_path, d.game())
    assert main(["solve", "--input", path, "--json"]) == EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: degenerate instance ({message}); rerun with --perturb SEED\n"


def test_degenerate_with_perturb_recovers(tmp_path, capsys):
    game = BimatrixGame(Matrix([[1, 2], [1, 2]]), Matrix([[0, 1], [3, 1]]))
    path = write_game(tmp_path, game)
    assert main(["solve", "--input", path, "--perturb", "7"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "perturbed game" in captured.err
    assert "x = " in captured.out


def test_exits_that_no_other_test_reaches_pin_their_message_and_code(tmp_path, capsys):
    # Two header errors, a --all-from seed with no '/', fixedpoint on a
    # zero-sum game (k = 0), and a tie between beta's greatest entries at
    # the ray anchors, beta = (1, 4, 4): --perturb keeps A + B, and with it
    # beta, so the tie is neither met with a suggestion of --perturb nor
    # retried on one.
    header, zero = tmp_path / "header.game", tmp_path / "zero.game"
    header.write_text("2 x\n")
    zero.write_text("0 2\n")
    ex1 = write_game(tmp_path, BimatrixGame(EX1_A, EX1_C + Matrix.outer((0, 1, 1), EX1_BETA)),
                     "ex1.game")
    pennies = write_game(tmp_path, MATCHING_PENNIES, "pennies.game")
    tied = write_game(tmp_path, BimatrixGame(Matrix([[1, 2, 3], [4, 5, 6]]),
                                             Matrix([[0, 2, 1], [-3, -1, -2]])), "tied.game")
    tie = "tied extreme entries at positions [1, 2]"
    cases = [
        (["solve", "--input", str(header)], EXIT_PARSE,
         "error: header entries must be integers\n"),
        (["solve", "--input", str(zero)], EXIT_PARSE, "error: dimensions must be at least 1\n"),
        (["trace", "--input", ex1, "--beta", "9,7,8", "--all-from", "1,2"], EXIT_PARSE,
         "error: --all-from wants 'v1,v2,../w1,w2,..'\n"),
        (["fixedpoint", "--input", pennies, "--search"], EXIT_PARSE,
         "error: zero-sum game: the fixed-point box is empty (k = 0)\n"),
        (["trace", "--input", tied, "--perturb", "1"], EXIT_DEGENERATE,
         f"error: degenerate instance ({tie}); the tie is in beta, which every "
         f"perturbation keeps\n"),
        (["trace", "--input", tied], EXIT_DEGENERATE,
         f"error: degenerate instance ({tie}); the tie is in beta, which every "
         f"perturbation keeps\n"),
    ]
    for argv, code, err in cases:
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err), argv


def test_perturb_is_an_option_only_of_the_verbs_that_retry(tmp_path, capsys):
    # oracle and rank cannot meet a degenerate instance: --perturb is an
    # unknown option there, not a flag they ignore.
    path = write_game(tmp_path, R1A.game())
    for verb in ("oracle", "rank"):
        assert main([verb, "--input", path, "--perturb", "5", "--json"]) == EXIT_PARSE, verb
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --perturb 5" in captured.err
    for argv in (["solve"], ["enumerate"], ["index"], ["trace"], ["regions"],
                 ["fixedpoint", "--search"]):
        assert main(argv + ["--input", path, "--perturb", "5", "--json"]) == EXIT_OK, argv
        assert json.loads(capsys.readouterr().out)["perturbed_seed"] is None, argv


def test_guard_exceeded_exits_4(tmp_path, capsys):
    big = BimatrixGame(shift(zero_matrix(7, 7), 1), shift(zero_matrix(7, 7), 2))
    path = write_game(tmp_path, big)
    assert main(["oracle", "--input", path]) == EXIT_GUARD


def test_round_trip_on_fixture_files(tmp_path):
    for game in (MATCHING_PENNIES, R1A.game(), R1B.game()):
        text = render_game(game)
        assert render_game(parse_game_file(text)) == text


def test_trace_constant_beta_game_reduces(tmp_path, capsys):
    # B = -A + gamma * (2,2)^T: constant beta collapses to the zero-sum family.
    a = Matrix([[3, -1], [-2, 2]])
    game = BimatrixGame(a, -a + Matrix.outer((1, 2), (2, 2)))
    path = write_game(tmp_path, game)
    assert main(["trace", "--input", path]) == EXIT_OK
    assert "trace kind=path" in capsys.readouterr().out


def test_constant_beta_override_is_usage_error(tmp_path, capsys):
    path = write_game(tmp_path, MATCHING_PENNIES)
    assert main(["trace", "--input", path, "--beta", "3,3"]) == EXIT_PARSE
    assert "distinct entries" in capsys.readouterr().err
    assert main(["trace", "--input", path, "--beta", "1,2,3"]) == EXIT_PARSE
    assert "embedding vector" in capsys.readouterr().err  # wrong length


def test_beta_override_of_the_wrong_length_is_usage_error(tmp_path, capsys):
    # A zero-sum game uses the override as its beta, a rank-1 game with a
    # nonzero payoff sum its own factor; every verb that reads --beta
    # rejects a length other than the column count alike.
    games = {"zero-sum": BimatrixGame(EX1_A, EX1_A.scale(-1)), "rank-1": R1A.game()}
    for name, game in games.items():
        path = write_game(tmp_path, game, f"{name}.game")
        for verb in ("solve", "enumerate", "index", "trace", "regions"):
            assert main([verb, "--input", path, "--beta", "1,2"]) == EXIT_PARSE, (name, verb)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: embedding vector --beta has 2 entries for 3 columns\n"


def test_beta_is_an_option_only_of_the_embedding_verbs(tmp_path, capsys):
    # oracle, rank and fixedpoint embed nothing: --beta, even of the wrong
    # length, is an unknown option there, not a flag they ignore.
    from fixtures import K2_GAME

    path = write_game(tmp_path, K2_GAME)
    beta = ["--beta", "1,2,3,4,5,6,7"]
    for argv in (["oracle"], ["rank"], ["fixedpoint", "--search"]):
        assert main(argv + ["--input", path] + beta) == EXIT_PARSE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --beta 1,2,3,4,5,6,7" in captured.err
        assert main(argv + ["--input", path]) == EXIT_OK, argv
        capsys.readouterr()
    for verb in ("solve", "enumerate", "index", "trace", "regions"):
        assert main([verb, "--input", path] + beta) == EXIT_PARSE, verb
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: embedding vector --beta has 7 entries for 3 columns\n"


def test_trace_and_regions_need_two_columns(tmp_path, capsys):
    # A single column leaves beta constant whatever it is; the other verbs
    # solve the game directly.
    path = write_game(tmp_path, BimatrixGame(Matrix([[1], [2]]), Matrix([[3], [1]])))
    for verb in ("trace", "regions"):
        assert main([verb, "--input", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"error: {verb} needs at least 2 columns (game is 2x1)\n"
    for verb in ("solve", "enumerate", "index"):
        assert main([verb, "--input", path]) == EXIT_OK
        assert "x = (0, 1); y = (1)" in capsys.readouterr().out


def test_single_row_game_is_the_column_players_best_reply(tmp_path, capsys):
    # With one row the column player plays B's unique best column, as the
    # oracle finds; a tied best column is degenerate.
    for text, y in (("1 3\n1 2 3\n3 2 1\n", "(1, 0, 0)"), ("1 3\n0 0 0\n1 2 3\n", "(0, 0, 1)")):
        path = tmp_path / "row.game"
        path.write_text(text)
        for verb in ("solve", "enumerate", "oracle"):
            assert main([verb, "--input", str(path)]) == EXIT_OK, (text, verb)
            assert capsys.readouterr().out.startswith(f"x = (1); y = {y}; index ")
    path = tmp_path / "tie.game"
    path.write_text("1 3\n1 2 3\n3 3 1\n")
    for verb in ("solve", "enumerate"):
        assert main([verb, "--input", str(path)]) == EXIT_DEGENERATE
        assert "tied best columns in a single-row game" in capsys.readouterr().err


def test_rank_json_contains_decomposition(tmp_path, capsys):
    from fixtures import K2_GAME

    path = write_game(tmp_path, K2_GAME)
    assert main(["rank", "--input", path, "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 2
    assert len(doc["decomposition"]["gammas"]) == 2
    assert len(doc["decomposition"]["betas"]) == 2


def test_solve_falls_back_on_higher_rank(tmp_path, capsys):
    # Payoff sum of rank 2 with a clean path: warn, then report the first hit.
    game = BimatrixGame(EX1_A, EX1_C + Matrix.outer((0, 1, 1), EX1_BETA))
    path = write_game(tmp_path, game)
    assert main(["solve", "--input", path, "--beta", "9,7,8"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "rank >= 2" in captured.err
    assert captured.out.startswith("x = ")


def test_solve_past_a_negative_index_probe(tmp_path, capsys):
    path = write_game(tmp_path, R1C.game())
    assert main(["solve", "--input", path]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("index +1")


def test_every_column_with_tied_best_rows(tmp_path, capsys):
    # Every pure vertex of the row polytope is degenerate; the section optima
    # are not, so solve and enumerate answer.
    a = Matrix([[3, 0], [3, 1], [0, 3], [1, 3]])
    path = write_game(tmp_path, BimatrixGame(a, a.scale(-1) + Matrix.outer((1,) * 4, (0, 1))))
    for verb in ("solve", "enumerate"):
        assert main([verb, "--input", path]) == EXIT_OK
        assert capsys.readouterr().out == "x = (0, 1/4, 0, 3/4); y = (1/2, 1/2); index +1\n"


def test_internal_failure_is_one_line_and_exits_5(tmp_path, capsys, monkeypatch):
    def broken(_d):
        raise NotEquilibrium("forced failure")

    monkeypatch.setattr(cli, "bin_search", broken)
    path = write_game(tmp_path, R1A.game())
    assert main(["solve", "--input", path]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal failure (NotEquilibrium: forced failure)\n"


def test_header_and_all_from_labels_read_only_plain_integers(tmp_path, capsys):
    # The header and --all-from's labels follow the _plain_integer rule, as
    # value tokens do: a non-ASCII digit or an underscore, which int alone
    # accepts, exits 2 with the existing message, and a sign still reads.
    body = "1 -1\n-1 1\n-1 1\n1 -1\n"
    solved = []
    for header in ("2 2", "+2 2", "2 +2"):
        path = tmp_path / "ok.game"
        path.write_text(f"{header}\n{body}", encoding="utf-8")
        assert main(["solve", "--input", str(path)]) == EXIT_OK, header
        solved.append(capsys.readouterr())
    assert solved[0].out.startswith("x = ") and solved == solved[:1] * 3
    for header in ("\u0662 2", "+2 0_2", "2 \u0662", "1_0 2", "\uff12 2"):
        path = tmp_path / "bad.game"
        path.write_text(f"{header}\n{body}", encoding="utf-8")
        assert main(["solve", "--input", str(path)]) == EXIT_PARSE, header
        assert capsys.readouterr() == ("", "error: header entries must be integers\n"), header
    ex1 = write_game(tmp_path, BimatrixGame(EX1_A, EX1_C + Matrix.outer((0, 1, 1), EX1_BETA)))
    trace = ["trace", "--input", ex1, "--beta", "9,7,8", "--all-from"]
    assert main(trace + ["2,3,5/1,3,4,6"]) == EXIT_OK
    cycle = capsys.readouterr()
    assert cycle.out.startswith("trace kind=cycle")
    assert main(trace + ["+2,3,5/1,3,4,+6"]) == EXIT_OK
    assert capsys.readouterr() == cycle
    for seed in ("\u0662,3,5/1,3,4,6", "2,3,5/1,3,4,\u0666", "2,3,5/1,3,4,0_6", "2, 3,5/1,3,4,6"):
        assert main(trace + [seed]) == EXIT_PARSE, seed
        assert capsys.readouterr() == ("", "error: --all-from wants 'v1,v2,../w1,w2,..'\n"), seed


def test_all_from_label_out_of_range_is_parse_error(tmp_path, capsys):
    # Also every other seed that names no fully-labeled vertex pair off the
    # path: a label out of range, a basis of the wrong size, a basis that is
    # not a feasible vertex, a pair that misses a label, and a path node.
    game = BimatrixGame(EX1_A, EX1_C + Matrix.outer((0, 1, 1), EX1_BETA))
    path = write_game(tmp_path, game)
    for seed, detail in [
        ("2,3,9/1,3,4,6", "1..6"),
        ("1/1", "basis size 1 != 3"),
        ("1,2,4/1,2,3,4", "not a feasible vertex pair"),
        ("1,2,3/1,2,4,5", "missing labels [6]"),
        ("1,4,6/2,3,4,5", "seed lies on the path"),
    ]:
        code = main(["trace", "--input", path, "--beta", "9,7,8", "--all-from", seed])
        assert code == EXIT_PARSE, seed
        err = capsys.readouterr().err
        assert f"--all-from seed {seed!r}" in err and detail in err, err
        assert err.count("\n") == 1, err


def test_no_verb_takes_max_iters_or_tol(tmp_path, capsys):
    # The fixed-point search is exact: it has no iteration cap and no tolerance.
    path = write_game(tmp_path, R1A.game())
    for verb in cli.COMMANDS:
        extra = ["--search"] if verb == "fixedpoint" else []
        for flag in ("--max-iters", "--tol"):
            assert main([verb, "--input", path, *extra, flag, "5"]) == EXIT_PARSE
            assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def test_readme_cli_block_matches_the_parser(capsys):
    # Every verb of the README synopsis exists, and every --flag it lists for
    # a verb is one that verb's parser accepts.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    synopsis = [line.split() for line in block.splitlines() if line.startswith("rankgames ")]
    assert sorted(words[1] for words in synopsis) == sorted(cli.COMMANDS)
    for words in synopsis:
        assert main([words[1], "--help"]) == EXIT_OK
        accepted = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        listed = set(re.findall(r"--[a-z][a-z-]*", " ".join(words)))
        assert listed <= accepted, (words[1], listed - accepted)


def test_perturb_keeps_a_rank1_factorization():
    from rankgames.games import decompose_rank1

    game = BimatrixGame(R1A.a, -R1A.a + Matrix.outer(R1A.gamma, R1A.beta))
    perturbed = cli.perturb_game(game, 1)
    assert perturbed.a != game.a
    # the game the rank-1 rebuild gave: B = -A' + gamma beta^T
    assert perturbed.b == -perturbed.a + Matrix.outer(R1A.gamma, R1A.beta)
    d = decompose_rank1(perturbed)
    assert (d.gamma, d.beta) == (decompose_rank1(game).gamma, decompose_rank1(game).beta)


def test_perturb_keeps_the_rank_of_a_rank2_game():
    import random

    from rankgames.games import decompose_rank_k

    rng = random.Random(9)
    a = Matrix([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
    c = zero_matrix(3, 3)
    for _ in range(2):
        c = c + Matrix.outer([rng.randint(-3, 3) for _ in range(3)],
                             [rng.randint(1, 6) for _ in range(3)])
    game = BimatrixGame(a, -a + c)
    perturbed = cli.perturb_game(game, 1)
    assert perturbed.a != game.a
    assert perturbed.a + perturbed.b == game.a + game.b
    assert decompose_rank_k(perturbed).k == decompose_rank_k(game).k == 2
