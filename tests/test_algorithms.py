import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import pytest

from rankgames.algorithms import (
    HALF_SPACE,
    SLAB,
    TWO_HYPERPLANE_UNION,
    bin_search,
    enumerate_general,
    enumerate_rank1,
    fixed_point_record,
    fixed_point_search,
    homeo_forward,
    homeo_inverse,
    iteration_bound,
    rank1_family,
    region_graph,
    solve_general,
)
from rankgames.errors import (
    DegeneracyError,
    DegeneratePolytope,
    DimensionMismatch,
    NoBetas,
    NotEquilibrium,
    RankGamesError,
    Singular,
)
from rankgames.games import (
    BimatrixGame,
    MixedProfile,
    Rank1Decomposition,
    decompose_rank1,
    decompose_rank_k,
    verify_equilibrium,
)
from rankgames.labeledpath import step_budget, trace_path
from rankgames.linalg import Matrix, integers, solve_linear_system, vdot
from rankgames.oracle import support_enumeration
from rankgames.paramlp import box_bounds, fixed_point_eval, solve_lp_delta, solve_lp_k
from rankgames.polytope import GameFamily

from fixtures import (
    EX1_A,
    EX1_BETA,
    EX1_C,
    K2_GAME,
    MATCHING_PENNIES,
    R1A,
    R1A_NE_LAMBDA,
    R1A_NE_X,
    R1A_NE_Y,
    R1B,
    R1B_NE_KEYS,
    R1C,
    cli_rank1_draws,
    degree,
    ex1_family,
    fraction_row,
    hyperplane_value,
    integer_scale,
    integerize,
    nondegenerate_rank1_fixtures,
    random_general_games,
    random_rank1,
    random_rank_k,
    ray_anchors,
    reference_bound_k,
    reference_ceil_log2,
    reference_homeo_inverse,
    watch_solve_lp,
    zero_sum_solve,
)


def keys(records):
    return sorted((r.profile.x, r.profile.y) for r in records)


# ---------------------------------------------------------------- bin_search


def test_bin_search_r1a_matches_oracle():
    report = bin_search(R1A)
    rec = report.equilibrium
    assert rec.profile.x == R1A_NE_X
    assert rec.profile.y == R1A_NE_Y
    assert rec.index == 1
    assert verify_equilibrium(R1A.game(), rec.profile)
    assert report.iterations <= report.bound_k + 1


def test_bin_search_zero_sum_matches_lp_value():
    a = Matrix([[3, -1], [-2, 2]])
    d = Rank1Decomposition(a, (0, 0), (1, 2))
    report = bin_search(d)
    lp_rec = zero_sum_solve(a)
    assert report.equilibrium.payoff1 == lp_rec.payoff1 == Fraction(1, 2)
    assert verify_equilibrium(BimatrixGame(a, -a), report.equilibrium.profile)


def test_bin_search_single_column_game():
    d = decompose_rank1(BimatrixGame(Matrix([[3]]), Matrix([[-1]])), beta_default=(1,))
    report = bin_search(d)
    assert report.equilibrium.profile.x == (1,)
    assert report.equilibrium.profile.y == (1,)


def test_bin_search_constant_beta_reduces_to_zero_sum():
    a = Matrix([[1, 0], [0, 1]])
    d = Rank1Decomposition(a, (1, 1), (1, 1))
    report = bin_search(d)
    assert report.equilibrium.profile.x == (Fraction(1, 2), Fraction(1, 2))
    assert report.equilibrium.profile.y == (Fraction(1, 2), Fraction(1, 2))
    assert verify_equilibrium(d.game(), report.equilibrium.profile)


def test_bin_search_matching_pennies_through_decomposition():
    d = decompose_rank1(MATCHING_PENNIES)
    report = bin_search(d)
    assert report.equilibrium.profile.x == (Fraction(1, 2), Fraction(1, 2))
    assert report.equilibrium.index == 1


def test_bin_search_iteration_bound_on_random_fixtures():
    fixtures = nondegenerate_rank1_fixtures(
        seed=101, count=50, min_mn=2, max_mn=4, pipeline=bin_search
    )
    for d in fixtures:
        report = bin_search(d)
        assert report.iterations <= report.bound_k + 1
        assert report.equilibrium.index == 1
        assert verify_equilibrium(d.game(), report.equilibrium.profile)
        for a1, a2 in report.history:
            assert a1 < a2


def test_bin_search_steps_past_a_negative_index_crossing():
    # A midpoint probe hits the -1 equilibrium; the search keeps bisecting
    # below it and returns one of the two +1 equilibria.
    report = bin_search(R1C)
    rec = report.equilibrium
    assert rec.index == 1
    assert report.iterations <= report.bound_k + 1
    oracle = support_enumeration(R1C.game()).equilibria
    assert len(oracle) == 3
    assert rec.key() in {r.key() for r in oracle}
    assert [r.index for r in enumerate_rank1(R1C)] == [1, -1, 1]


def test_bin_search_matches_oracle_on_wide_spans():
    # Spans well past the other corpora's, where probes can land on -1
    # crossings. Degenerate games are counted, not dropped unseen; the
    # enumeration, which walks from one section up to max gamma, must return
    # exactly the oracle's set.
    rng = random.Random(2)
    solved = degenerate = enum_solved = enum_degenerate = 0
    for k in range(20):
        size = 4 + k % 2
        d = random_rank1(rng, size, size, span=99, gamma_span=20, beta_span=50)
        oracle = {r.key() for r in support_enumeration(d.game()).equilibria}
        try:
            assert keys(enumerate_rank1(d)) == sorted(oracle)
            enum_solved += 1
        except DegeneracyError:
            enum_degenerate += 1
        try:
            report = bin_search(d)
        except DegeneracyError:
            degenerate += 1
            continue
        assert report.equilibrium.index == 1
        assert report.iterations <= report.bound_k + 1
        assert report.equilibrium.key() in oracle
        solved += 1
    assert (solved, degenerate) == (20, 0)
    assert (enum_solved, enum_degenerate) == (20, 0)


def test_bin_search_within_its_bound_at_12x12_and_16x16():
    # Sizes past every seeded corpus, where a section walk takes many pivots;
    # the answer is one of the path's equilibria.
    rng = random.Random(11)
    for size in (12, 12, 12, 16, 16, 16):
        d = random_rank1(rng, size, size, span=99, gamma_span=20, beta_span=50)
        report = bin_search(d)
        assert report.iterations <= report.bound_k
        assert report.equilibrium.key() in {r.key() for r in enumerate_rank1(d)}


def test_bin_search_builds_one_start_tableau_per_game(monkeypatch):
    # The bracket-end probes start cold, at a pure vertex whose tableau is
    # written down from P's integer rows (GameFamily.pure_vertex), with no
    # elimination: one such start when the low probe answers, two when the
    # high probe runs too. Every midpoint probe starts at a bracket end's
    # optimum, which carries its tableau. So no tableau is built from a basis.
    import rankgames.algorithms as algorithms
    from rankgames.polytope import GameFamily, Polytope

    builds, starts, cold = [], [], []
    real, real_pure, real_is_ne = Polytope._basis_tableau, GameFamily.pure_vertex, algorithms.is_ne
    monkeypatch.setattr(
        Polytope, "_basis_tableau", lambda self, basis: builds.append(basis) or real(self, basis)
    )
    monkeypatch.setattr(
        GameFamily, "pure_vertex", lambda self, i, j: starts.append((i, j)) or real_pure(self, i, j)
    )
    monkeypatch.setattr(
        algorithms, "is_ne",
        lambda family, h, delta, start=None: cold.append(start is None)
        or real_is_ne(family, h, delta, start),
    )
    rng = random.Random(11)
    games = [R1A, R1B, R1C] + [
        random_rank1(rng, size, size, span=99, gamma_span=20, beta_span=50)
        for size in (12, 12, 12, 16, 16, 16)
    ]
    probes = high_probes = 0
    for d in games:
        builds.clear()
        starts.clear()
        cold.clear()
        probes += bin_search(d).iterations
        ends = min(len(cold), 2)
        assert cold == [True] * ends + [False] * (len(cold) - ends)
        assert (len(starts), builds) == (ends, [])
        high_probes += ends == 2
    assert probes > 0 and high_probes > 0


def _bin_search_outcome(d):
    """bin_search's report on d, or its error's class and message."""
    try:
        return bin_search(d)
    except RankGamesError as exc:
        return type(exc).__name__, str(exc)


def _integerized_bound_k(d) -> int:
    """bound_k as read off the integerized copy (a c^2, gamma c, beta c)."""
    from math import factorial

    di, _ = rank1_family(integerize(d)[0])
    b_max = max(di.a.max_abs(), max(map(abs, di.beta)), max(map(abs, di.gamma)))
    delta_bound = factorial(di.a.rows + 2) * int(b_max) ** (di.a.rows + 2)
    return reference_ceil_log2(delta_bound * delta_bound * int(max(di.gamma) - min(di.gamma)))


def test_ceil_log2_at_powers_of_two_and_their_neighbours():
    # bound_k is ceil(log2) of an integer, and its argument can be an exact
    # power of two, where a plain bit length is one too many. _ceil_log2 and
    # the doubling reference agree at 0 to 5 and at 2^k - 1, 2^k and 2^k + 1
    # for every k from 2 to 200.
    from rankgames.algorithms import _ceil_log2

    for log2 in (_ceil_log2, reference_ceil_log2):
        assert [log2(n) for n in range(6)] == [0, 0, 1, 2, 2, 3]
        for k in range(2, 201):
            assert [log2(n) for n in (2**k - 1, 2**k, 2**k + 1)] == [k, k, k + 1]


def test_iteration_bound_equals_the_fraction_formula():
    # bound_k, read off the integers of a, gamma and beta with floor
    # divisions, equals the Fraction formula (fixtures.reference_bound_k) on
    # the yardstick and the wide draws as the CLI decomposes them, and on
    # their copies with a times 2/7 and gamma and beta divided by 3, where
    # every integerizing scale c exceeds 1. Through bin_search: a
    # constant-beta decomposition, reduced to zero gamma, and a zero-sum
    # game with a beta override, both of bound 0.
    draws = [d for _, d in cli_rank1_draws("yardstick", "wide")]
    copies = [Rank1Decomposition(d.a.scale(Fraction(2, 7)), tuple(g / 3 for g in d.gamma),
                                 tuple(b / 3 for b in d.beta)) for d in draws]
    assert all(integer_scale(d) > 1 for d in copies)
    bounds = Counter()
    for d in draws + copies:
        run, family = rank1_family(d)
        bound = iteration_bound(run.a, integers(run.gamma), family.int_beta)
        assert bound == reference_bound_k(d)
        bounds[bound > 0] += 1
    assert bounds == {True: 504, False: 16}
    constant = Rank1Decomposition(Matrix([[1, 0], [0, 1]]), (Fraction(1, 2), 3),
                                  (Fraction(5, 3), Fraction(5, 3)))
    zero_sum = decompose_rank1(BimatrixGame(EX1_A, -EX1_A), (1, Fraction(5, 2), 2))
    for d in (constant, zero_sum):
        assert bin_search(d).bound_k == reference_bound_k(d) == 0


def test_bin_search_probes_the_input_family_and_builds_no_integerized_copy(monkeypatch):
    # On the yardstick, the wide draws and the large draws, as the CLI
    # decomposes them, bin_search builds one family, on d's own a and beta,
    # and no integerized copy, though on the wide and large draws gamma is
    # fractional, so the integerizing scale c exceeds 1. Its bound_k, read
    # off c alone, equals the integerized copy's, and its history is in d's
    # own lambda: the last bracket holds gamma . x of the answer. The
    # integerizer is a test reference: no package module holds it.
    import sys

    import rankgames.algorithms as algorithms

    package = [module for name, module in sys.modules.items() if name.split(".")[0] == "rankgames"]
    assert len(package) > 1
    assert [module for module in package if hasattr(module, "integerize")] == []
    built, integerized = [], []
    real_family, real_integerize = algorithms.GameFamily, integerize
    monkeypatch.setattr(algorithms, "GameFamily",
                        lambda *args: built.append(real_family(*args)) or built[-1])
    for module in package:
        if vars(module).get("integerize") is real_integerize:
            monkeypatch.setattr(module, "integerize",
                                lambda d: integerized.append(d) or real_integerize(d))
    solved, scaled, brackets = Counter(), 0, 0
    for tag, d in cli_rank1_draws("yardstick", "wide", "large"):
        built.clear()
        report = _bin_search_outcome(d)
        (family,) = built
        assert family.a == d.a and family.beta == d.beta
        if isinstance(report, tuple):
            continue
        assert report.bound_k == _integerized_bound_k(d)
        solved[tag] += 1
        scaled += integerize(d)[1] > 1
        if report.history:
            a1, a2 = report.history[-1]
            assert a1 <= vdot(d.gamma, report.equilibrium.profile.x) <= a2
            brackets += 1
    assert integerized == []
    assert solved == {"yardstick": 62, "wide": 60, "large": 2}
    assert scaled == 61 and brackets == 20


def test_bin_search_better_end_starts_change_no_report(monkeypatch):
    # The reference starts the high probe at the low probe's optimum and
    # every midpoint probe at the previous probe's optimum. bin_search starts
    # the high probe at the best pure vertex, as the low one, and each
    # midpoint probe at the bracket end with the larger section objective.
    # The reports, or the errors, are equal on the yardstick, the wide draws
    # and the large draws, as the CLI decomposes them, but for yardstick
    # draws 20 and 199: each is degenerate from both starts, and the walk
    # meets a different degeneracy. The starts differ on some probes, and
    # the section walks take fewer pivots in all.
    import rankgames.algorithms as algorithms
    from rankgames.polytope import Polytope

    real_is_ne, real_pivot = algorithms.is_ne, Polytope.pivot
    previous, moved, pivots = [], [0], [0]

    def previous_optimum_is_ne(family, h, delta, start=None):
        if previous:
            # After both bracket ends, count the midpoints whose start
            # bin_search chose apart from the previous probe's optimum.
            moved[0] += len(previous) > 1 and start is not previous[-1]
            start = previous[-1]
        out = real_is_ne(family, h, delta, start)
        previous.append(out.optimum)
        return out

    def counted_pivot(self, v, relax):
        pivots[0] += 1
        return real_pivot(self, v, relax)

    def reference_outcome(d):
        previous.clear()
        return _bin_search_outcome(d)

    monkeypatch.setattr(Polytope, "pivot", counted_pivot)
    draws = cli_rank1_draws("yardstick", "wide", "large")
    ours = [_bin_search_outcome(d) for _, d in draws]
    our_pivots, pivots[0] = pivots[0], 0
    monkeypatch.setattr(algorithms, "is_ne", previous_optimum_is_ne)
    reference = [reference_outcome(d) for _, d in draws]
    assert [k for k, (a, b) in enumerate(zip(ours, reference)) if a != b] == [20, 199]
    assert [(ours[k], reference[k]) for k in (20, 199)] == [
        (("DegeneratePolytope", "ratio tie between rows [3, 6, 9] leaving [4, 5, 7, 8, 10]"),
         ("DegeneratePolytope", "section optimum has 7 tight rows in P")),
        (("DegeneratePolytope", "ratio tie between rows [1, 2, 4] leaving [3, 5, 6, 7]"),
         ("DegeneratePolytope", "section optimum has 6 tight rows in P")),
    ]
    assert moved[0] > 0 and our_pivots < pivots[0]
    assert sum(not isinstance(out, tuple) for out in ours) > 100


# --------------------------------------------------------------- enumeration


def test_enumerate_r1b_full_set_and_indices():
    recs = enumerate_rank1(R1B)
    assert keys(recs) == sorted(R1B_NE_KEYS)
    assert len(recs) % 2 == 1
    assert sum(r.index for r in recs) == 1
    assert recs[0].index == 1  # first along the path
    assert [r.index for r in recs] == [1, -1, 1]  # alternation in path order
    oracle = support_enumeration(R1B.game())
    assert keys(recs) == keys(oracle.equilibria)


def test_enumerate_unique_equilibrium_game():
    recs = enumerate_rank1(R1A)
    assert len(recs) == 1
    assert recs[0].index == 1


def test_no_lp_and_one_section_per_probe_and_per_enumeration(monkeypatch):
    # A section walks P's own tableau and takes its lifted side from
    # complementary slackness: the solvers make no generic LP call, one
    # section per probe and one per enumeration.
    import rankgames.algorithms as algorithms
    import rankgames.paramlp as paramlp

    lp_calls = watch_solve_lp(monkeypatch)
    sections = []
    real_section, real_is_ne = paramlp._section_walk, algorithms.is_ne
    monkeypatch.setattr(paramlp, "_section_walk", lambda *a: sections.append(a) or real_section(*a))
    per_probe = []

    def counted_is_ne(*args):
        before = len(sections)
        out = real_is_ne(*args)
        per_probe.append(len(sections) - before)
        return out

    monkeypatch.setattr(algorithms, "is_ne", counted_is_ne)
    for d in (R1A, R1B, R1C):
        per_probe.clear()
        bin_search(d)
        assert per_probe and set(per_probe) == {1}
        sections.clear()
        enumerate_rank1(d)
        assert len(sections) == 1
    assert lp_calls == []


def test_each_answer_is_integerized_once(monkeypatch):
    # An answer's profile integerizes x and y once, in its simplex check, and
    # the equilibrium check, which also takes the payoffs, the support and
    # the index check read those integers: linalg.integers runs twice inside
    # _finalize, on every answer of the three solvers.
    import sys

    import rankgames.algorithms as algorithms
    import rankgames.linalg as linalg

    general = random_general_games(27, 6, min_mn=3, max_mn=6, span=30,
                                   pipeline=enumerate_general)
    real_integers, real_finalize = linalg.integers, algorithms._finalize
    calls, per_answer = [], []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rankgames" and vars(module).get("integers") is real_integers:
            monkeypatch.setattr(module, "integers",
                                lambda values: calls.append(1) or real_integers(values))

    def counted_finalize(*args):
        calls.clear()
        rec = real_finalize(*args)
        per_answer.append(len(calls))
        return rec

    monkeypatch.setattr(algorithms, "_finalize", counted_finalize)
    answers = 0
    for d in (R1A, R1B, R1C):
        answers += 1 + len(enumerate_rank1(d))
        bin_search(d)
    for game in general:
        answers += len(enumerate_general(game))
    assert per_answer == [2] * answers


def test_a_path_builds_its_game_once_and_evaluates_no_hyperplane_per_edge(monkeypatch):
    # A path builds no gamma game: the index check reads the input game. The
    # hyperplane is read off the Q' tableaux as integer dots: the package
    # has no Fraction evaluation of it (its reference, fixtures.h_linear,
    # is the tests'), so no path and no is_ne probe makes one.
    import rankgames.algorithms as algorithms
    from rankgames.algorithms import rank1_family
    from rankgames.paramlp import Hyperplane, is_ne
    from rankgames.polytope import GameFamily

    assert [name for name, attr in vars(Hyperplane).items()
            if callable(attr) and not name.startswith("__")] == ["dot"]
    general = random_general_games(31, 12, min_mn=3, max_mn=6, span=30,
                                   pipeline=enumerate_general)
    rank1 = [R1A, R1B, R1C] + nondegenerate_rank1_fixtures(32, 9, pipeline=enumerate_rank1)
    built, paths = [], []
    real_game_at = GameFamily.game_at
    real_paths = algorithms._path_equilibria
    monkeypatch.setattr(GameFamily, "game_at",
                        lambda fam, alpha: built.append(1) or real_game_at(fam, alpha))
    monkeypatch.setattr(algorithms, "_path_equilibria",
                        lambda *args: paths.append(1) or real_paths(*args))
    crossings = 0
    for solve, inputs in ((enumerate_general, general), (enumerate_rank1, rank1)):
        for x in inputs:
            built.clear(), paths.clear()
            crossings += len(solve(x))
            assert len(paths) == 1 and len(built) == 0
    probes = 0
    for d in rank1:
        run, fam = rank1_family(d)
        lo, hi = min(run.gamma), max(run.gamma)
        for step in range(9):
            try:
                is_ne(fam, Hyperplane(run.gamma), lo + (hi - lo) * Fraction(step, 8))
            except DegeneracyError:
                continue
            probes += 1
    assert (crossings, probes) == (34, 108)


def _lambda_walk(monkeypatch, family, lams):
    """Path edges whose nodes' lifted points have these lambdas, each
    (num, den) kept over its own denominator: the start edge, then the
    edges that ``walk`` yields from its head, patched in."""
    import rankgames.algorithms as algorithms
    from rankgames.labeledpath import V_FIXED, PathEdge, PathNode
    from rankgames.polytope import Vertex

    m, v = family.m, Vertex(frozenset(), frozenset())

    def node(num, den):
        point = (*[0] * m, num, 0)
        return PathNode(v, Vertex(frozenset(), frozenset(), None, (point, den)), 1, 1)

    nodes = [node(*lam) for lam in lams]
    edges = [PathEdge(V_FIXED, v, None, tail, head) for tail, head in zip(nodes, nodes[1:])]
    monkeypatch.setattr(algorithms, "walk", lambda fam, first: iter(edges[1:]))
    return edges


def test_edges_until_raises_on_a_falling_lambda_by_value_not_numerator(monkeypatch):
    # lambda 3/5 -> 2/3 rises though its numerator falls; 2/3 -> 4/7 falls
    # though its numerator rises. The walk yields the first edge and raises
    # at the second.
    from rankgames.algorithms import _edges_until

    fam = GameFamily(R1A.a, R1A.a.scale(-1), R1A.beta)
    edges = _lambda_walk(monkeypatch, fam, [(3, 5), (2, 3), (4, 7), (5, 7)])
    walked = []
    with pytest.raises(RankGamesError, match="^lambda decreases along the path$"):
        for edge in _edges_until(fam, edges[0], Fraction(10)):
            walked.append(edge)
    assert walked == edges[:1]


def test_edges_until_stops_past_max_gamma_but_not_at_it(monkeypatch):
    # With max gamma 2/3, a head at 4/6 = 2/3 does not stop the walk, and the
    # first head past it, 5/7, ends it after its edge; a numerator compare
    # would stop at 4/6, and >= would too.
    from rankgames.algorithms import _edges_until

    fam = GameFamily(R1A.a, R1A.a.scale(-1), R1A.beta)
    edges = _lambda_walk(monkeypatch, fam, [(1, 2), (4, 6), (5, 7), (6, 7)])
    assert list(_edges_until(fam, edges[0], Fraction(2, 3))) == edges[:2]
    assert list(_edges_until(fam, edges[0], Fraction(5, 7))) == edges
    assert list(_edges_until(fam, edges[0], Fraction(1, 3))) == edges[:1]


def test_enumeration_reads_points_only_for_answers_and_edge_data_only_where_analyzed(monkeypatch):
    # On the rank1-enumerate bench corpus (random.Random(1), sizes 4, 5, 4,
    # 7, 5, 4, 5, 4, 7, 8 three times, the wide spans, decomposed as the CLI
    # does), enumerate_rank1 reads each node's lambda and hyperplane value off
    # its integers. It builds no vertex's Fraction coords, not even for an
    # answer, whose fixed vertex gives its integer point. It never reads an
    # edge's integer base point (EdgeDescriptor.origin), and reads its
    # direction (column) only on a ray that path_crossings analyzes, whose
    # open end is a point at infinity; path_crossings analyzes a ray, or an
    # edge whose two end values do not share one strict sign.
    import rankgames.algorithms as algorithms
    import rankgames.paramlp as paramlp
    from rankgames.algorithms import rank1_family
    from rankgames.games import decompose_rank1
    from rankgames.paramlp import Hyperplane
    from rankgames.polytope import EdgeDescriptor, Vertex

    reads = {"coords": [], "origin": [], "column": []}
    for owner, name in ((Vertex, "coords"), (EdgeDescriptor, "origin"), (EdgeDescriptor, "column")):
        # A view (cached_property) computes by its func, a ReadOff by its read.
        slot = owner.__dict__[name]
        attr = "func" if isinstance(slot, cached_property) else "read"
        monkeypatch.setattr(slot, attr, lambda obj, name=name, read=getattr(slot, attr):
                            reads[name].append(obj) or read(obj))
    walked, analyzed = [], []
    real_until, real_records = algorithms._edges_until, paramlp.crossing_records

    def until(*args):
        for edge in real_until(*args):
            walked.append(edge)
            yield edge

    monkeypatch.setattr(algorithms, "_edges_until", until)
    monkeypatch.setattr(paramlp, "crossing_records",
                        lambda h, edge: analyzed.append((h, edge)) or real_records(h, edge))
    rng, runs = random.Random(1), []
    for s in (4, 5, 4, 7, 5, 4, 5, 4, 7, 8) * 3:
        d = decompose_rank1(random_rank1(rng, s, s, span=99, gamma_span=20, beta_span=50).game())
        for name in reads:
            reads[name].clear()
        walked.clear(), analyzed.clear()
        try:
            answers = len(enumerate_rank1(d))
        except DegeneracyError:
            answers = None
        runs.append((d, answers, list(walked), list(analyzed),
                     {name: list(objs) for name, objs in reads.items()}))
    counts = Counter()
    for d, answers, edges, crossed, built in runs:
        h = Hyperplane(rank1_family(d)[0].gamma)
        hits = [edge for _, edge in crossed if real_records(h, edge)]
        assert built["coords"] == [] and len(hits) == (answers or 0)
        assert {id(e) for e in built["origin"] + built["column"]} <= {
            id(edge.moving) for _, edge in crossed}
        assert all(e.unbounded for e in built["column"])
        for edge in edges:
            ends = [hyperplane_value(h, u.w.coords) for u in (edge.tail, edge.head) if u]
            analyze = len(ends) < 2 or ends[0] * ends[1] <= 0
            assert analyze == any(edge is e for _, e in crossed)
            counts["ray" if len(ends) < 2 else "edge", "analyzed" if analyze else "skipped"] += 1
        counts["answers"] += answers or 0
        counts["failed"] += answers is None
        for name, objs in built.items():
            counts[name] += len(objs)
    # Section edges carry their integers, so only pivots' edges read them.
    assert counts == {
        ("edge", "skipped"): 323, ("edge", "analyzed"): 32, ("ray", "analyzed"): 37,
        "answers": 44, "failed": 0, "coords": 0, "origin": 0, "column": 20,
    }


def _fraction_finalize(game, crossing, provenance):
    """The reference for ``algorithms._finalize``: the profile sliced from
    the crossing's ``Fraction`` coordinates, verified by the ``Fraction``
    reference, priced by ``fixtures.fraction_payoffs`` and indexed on
    ``game``, in that order."""
    from rankgames.algorithms import index_of
    from rankgames.games import EquilibriumRecord

    from fixtures import fraction_payoffs, fraction_verify_equilibrium

    profile = MixedProfile(crossing.w_coords[: game.m], crossing.v_coords[: game.n])
    if not fraction_verify_equilibrium(game, profile):
        raise NotEquilibrium("hyperplane crossing failed exact verification")
    pays, support = fraction_payoffs(game, profile), profile.support()
    return EquilibriumRecord(profile, *pays, support, index_of(game, support, crossing),
                             provenance)


def test_integer_crossings_and_their_answers_equal_the_fraction_ones(monkeypatch, tmp_path):
    # On the three bench corpora through the CLI, and on the small-entry
    # yardstick (its 200 rank-1 games by enumerate_rank1 and bin_search, as
    # the CLI decomposes them, and the 200 general games of
    # random.Random(78) by enumerate_general), each hit that _analyze_edge
    # keeps in integers equals the Fraction reference's point_at(t*), with
    # its index; each answer _finalize makes from it, record or error, has
    # the repr that the reference crossing's Fraction coordinates give, and
    # _finalize reads neither crossing's coordinates.
    import contextlib
    import io

    import rankgames.algorithms as algorithms
    import rankgames.paramlp as paramlp
    from rankgames.cli import main
    from rankgames.linalg import rationals

    from fixtures import bench_corpus_texts, reference_analyze_edge

    real_analyze, real_finalize = paramlp._analyze_edge, algorithms._finalize
    references, counts, faults = {}, Counter(), []

    def analyze(edge, h):
        ours = real_analyze(edge, h)
        if ours[0] == "point":
            hit, (kind, want) = ours[1], reference_analyze_edge(edge, h)
            got = ("point", rationals(*hit.v_point), rationals(*hit.w_point), hit.orient_index)
            if got != (kind, want.v_coords, want.w_coords, want.orient_index):
                faults.append(("crossing", got, want))
            references[id(hit)] = hit, want
            counts["crossing"] += 1
        return ours

    def outcome(run, *args):
        try:
            return run(*args)
        except RankGamesError as exc:
            return exc

    def finalize(game, crossing, provenance):
        got = outcome(real_finalize, game, crossing, provenance)
        want = outcome(_fraction_finalize, game, references[id(crossing)][1], provenance)
        if repr(got) != repr(want) or any(name in vars(crossing)
                                          for name in ("v_coords", "w_coords")):
            faults.append(("answer", got, want))
        counts["answer" if not isinstance(got, RankGamesError) else "rejected"] += 1
        if isinstance(got, RankGamesError):
            raise got
        return got

    monkeypatch.setattr(paramlp, "_analyze_edge", analyze)
    monkeypatch.setattr(algorithms, "_finalize", finalize)
    for i, (verb, text) in enumerate(bench_corpus_texts()):
        path = tmp_path / f"bench{i}.game"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main([verb, "--input", str(path), "--json"])
    for _, d in cli_rank1_draws("yardstick"):
        for run in (enumerate_rank1, bin_search):
            outcome(run, d)
    rng = random.Random(78)
    for g in range(200):
        s = 3 + g % 3
        a, b = (Matrix([[rng.randint(-2, 2) for _ in range(s)] for _ in range(s)])
                for _ in range(2))
        outcome(enumerate_general, BimatrixGame(a, b))
    assert faults == []
    # Probes' hits of index -1 and hits on walks that later meet a
    # degeneracy are never answers.
    assert counts == {"crossing": 556, "answer": 538}


def test_each_answer_is_verified_and_recorded_once_on_the_input_game(monkeypatch):
    # A crossing is only a point: the solvers verify each answer once, on the
    # game they were given rather than on the integerized or constant-beta
    # reduced copy the path ran on, and build its record once, with the
    # payoffs that check returns: those of the input game. Every
    # EquilibriumRecord built is counted, a dataclasses.replace copy too.
    import sys

    import rankgames.games as games

    from fixtures import fraction_payoffs

    seen = {"verify": [], "record": []}
    real_verify, real_init = games.verify_equilibrium, games.EquilibriumRecord.__init__

    def verify(game, *args, **kwargs):
        seen["verify"].append(game)
        return real_verify(game, *args, **kwargs)

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        seen["record"].append(self)

    general = random_general_games(33, 6, min_mn=3, max_mn=5, pipeline=enumerate_general)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rankgames" and vars(module).get(
                "verify_equilibrium") is real_verify:
            monkeypatch.setattr(module, "verify_equilibrium", verify)
    monkeypatch.setattr(games.EquilibriumRecord, "__init__", init)
    # Each fractional game is its fixture's game over 3; integerize scales it.
    fractional = [
        Rank1Decomposition(d.a.scale(Fraction(1, 3)), tuple(g * Fraction(2, 3) for g in d.gamma),
                           tuple(b / 2 for b in d.beta))
        for d in (R1A, R1B, R1C)
    ]
    constant = [Rank1Decomposition(Matrix([[3, -1], [-2, 2]]), (1, 2), (2, 2)),
                Rank1Decomposition(Matrix([[1, 0], [0, 1]]), (1, 1), (1, 1))]
    runs = [(d.game(), lambda d=d: [bin_search(d).equilibrium]) for d in fractional + constant]
    runs += [(d.game(), lambda d=d: enumerate_rank1(d))
             for d in [R1A, R1B, R1C] + fractional + constant]
    runs += [(g, lambda g=g: enumerate_general(g)) for g in general + [MATCHING_PENNIES]]
    for game, solve in runs:
        seen["verify"].clear(), seen["record"].clear()
        recs = solve()
        assert recs and all(verify_equilibrium(game, rec.profile) for rec in recs)
        assert len({rec.key() for rec in recs}) == len(recs)
        assert seen["verify"] == [game] * len(recs)
        assert list(map(id, seen["record"])) == list(map(id, recs))
        assert all((rec.payoff1, rec.payoff2) == fraction_payoffs(game, rec.profile)
                   for rec in recs)
    assert fractional[0].game() != integerize(fractional[0])[0].game()


def test_enumerate_general_ex1_game_proper_subset_of_oracle():
    # The all-ones row weights sit in the family's cycle component, so the
    # path walk returns a strict (odd) subset of the oracle set.
    game = BimatrixGame(EX1_A, EX1_C + Matrix.outer((0, 1, 1), EX1_BETA))
    recs = enumerate_general(game, beta=EX1_BETA)
    oracle = support_enumeration(game)
    oracle_keys = set(keys(oracle.equilibria))
    assert len(recs) == 3 and len(oracle_keys) == 5
    assert len(recs) % 2 == 1  # the path crosses an odd number of times
    for rec in recs:
        assert (rec.profile.x, rec.profile.y) in oracle_keys


def test_enumerate_general_ex1_unit_gamma_is_degenerate():
    # With unit row weights the hyperplane passes exactly through a node of
    # the fully-labeled set; the policy is to refuse rather than emit.
    game = BimatrixGame(EX1_A, EX1_C + Matrix.outer((1, 1, 1), EX1_BETA))
    with pytest.raises(DegeneracyError):
        enumerate_general(game, beta=EX1_BETA)


@pytest.fixture(scope="module")
def large_rank1_answers():
    """(draw, enumerate_rank1's records, bin_search's report) of four
    wide-span rank-1 draws at each of 8x8, 12x12, 16x16 and 24x24:
    ``random_rank1`` of a fresh random.Random(23) for each size. No oracle
    reaches these sizes, and every draw is nondegenerate."""
    answers = []
    for size in (8, 12, 16, 24):
        rng = random.Random(23)
        for _ in range(4):
            d = random_rank1(rng, size, size, span=99, gamma_span=20, beta_span=50)
            answers.append((d, enumerate_rank1(d), bin_search(d)))
    return answers


def indexed(records) -> set:
    return {(r.profile.x, r.profile.y, r.index) for r in records}


def test_large_rank1_answer_sets_are_odd_with_index_sum_one(large_rank1_answers):
    # The index theorem on every answer set.
    for _, recs, _ in large_rank1_answers:
        assert len(recs) % 2 == 1 and sum(r.index for r in recs) == 1
    assert sum(len(recs) for _, recs, _ in large_rank1_answers) == 44


def test_bin_search_answer_is_in_the_large_rank1_enumeration(large_rank1_answers):
    for _, recs, report in large_rank1_answers:
        assert indexed([report.equilibrium]) <= indexed(recs)


def test_permuting_strategies_permutes_the_large_rank1_enumeration(large_rank1_answers):
    # Rows permuted with gamma and columns with beta: the answer set is
    # permuted the same way and keeps its indices.
    rng = random.Random(6)
    for d, recs, _ in large_rank1_answers:
        m, n = d.a.rows, d.a.cols
        rows, cols = rng.sample(range(m), m), rng.sample(range(n), n)
        permuted = Rank1Decomposition(
            Matrix([[d.a[i, j] for j in cols] for i in rows]),
            tuple(d.gamma[i] for i in rows), tuple(d.beta[j] for j in cols),
        )
        moved = {(tuple(x[i] for i in rows), tuple(y[j] for j in cols), index)
                 for x, y, index in indexed(recs)}
        assert indexed(enumerate_rank1(permuted)) == moved


def test_positive_scaling_leaves_the_large_rank1_answers_unchanged(large_rank1_answers):
    # A and gamma times s > 0 scale both payoff matrices by s: the same
    # equilibria with the same indices, and bin_search answers with the same
    # profile after as many probes.
    for d, recs, report in large_rank1_answers:
        for s in (3, Fraction(1, 2)):
            scaled = Rank1Decomposition(d.a.scale(s), tuple(s * g for g in d.gamma), d.beta)
            assert indexed(enumerate_rank1(scaled)) == indexed(recs)
            out = bin_search(scaled)
            assert (out.equilibrium.profile, out.iterations) == (
                report.equilibrium.profile, report.iterations)


def test_enumerate_general_with_the_games_own_beta_equals_enumerate_rank1(large_rank1_answers):
    # With the game's own beta the general embedding is the rank-1 family:
    # wherever it answers, the same equilibria with the same indices. The
    # rest raise "tied extreme entries".
    compared = 0
    for d, recs, _ in large_rank1_answers[:12]:  # 8x8 to 16x16
        try:
            general = enumerate_general(d.game(), d.beta)
        except DegeneracyError:
            continue
        assert indexed(general) == indexed(recs)
        compared += 1
    assert compared == 10


def test_enumerate_general_default_beta_misses_equilibria_of_a_rank1_game(large_rank1_answers):
    # The first 16x16 draw: the default beta's path crosses 3 of its 7.
    d, recs, _ = large_rank1_answers[8]
    general = enumerate_general(d.game())
    assert (len(general), len(recs)) == (3, 7)
    assert indexed(general) < indexed(recs)


def test_solve_general_matching_pennies():
    rec = solve_general(MATCHING_PENNIES)
    assert rec.profile.x == (Fraction(1, 2), Fraction(1, 2))
    assert rec.profile.y == (Fraction(1, 2), Fraction(1, 2))


def test_solve_general_membership_in_oracle_set():
    games = random_general_games(seed=40, count=10, pipeline=solve_general)
    for game in games:
        rec = solve_general(game)
        oracle_keys = set(keys(support_enumeration(game).equilibria))
        assert (rec.profile.x, rec.profile.y) in oracle_keys
        assert verify_equilibrium(game, rec.profile)


def test_solve_general_degenerate_raises():
    # Identical rows of A make the row polytope degenerate.
    game = BimatrixGame(Matrix([[1, 2], [1, 2]]), Matrix([[0, 1], [3, 1]]))
    with pytest.raises(DegeneracyError):
        solve_general(game)


# -------------------------------------------------------------------- index


def test_index_cross_check_runs_on_every_r1b_equilibrium():
    # enumerate_rank1 raises IndexMismatch internally if the two index
    # computations ever disagree; reaching here means they agreed.
    recs = enumerate_rank1(R1B)
    assert all(r.index in (1, -1) for r in recs)


def test_pure_equilibrium_of_positive_game_has_index_one():
    game = BimatrixGame(Matrix([[2, 2], [0, 0]]), Matrix([[1, 0], [0, 0]]))
    d = decompose_rank_k(game)  # not rank-1; use the general path
    recs = enumerate_general(game)
    pure = [r for r in recs if r.support == ((1,), (1,))]
    assert pure and pure[0].index == 1


# ----------------------------------------------------------- homeomorphisms


@pytest.fixture(scope="module")
def r1a_family():
    return GameFamily(R1A.a, R1A.a.scale(-1), R1A.beta)


@pytest.fixture(scope="module")
def r1a_trace(r1a_family):
    return trace_path(r1a_family)


def test_homeo_forward_single_row():
    # m = 1: the image is the single value beta . y + alpha_1.
    a = Matrix([[1, 3]])
    fam = GameFamily(a, a.scale(-1), (1, 2))
    alpha = (Fraction(5),)
    # G(5) pays the column player -a + 5*beta = (4, 7): pure second column.
    profile = MixedProfile((Fraction(1),), (Fraction(0), Fraction(1)))
    out = homeo_forward(fam, (alpha,), profile)[0]
    assert out == (vdot(fam.beta, profile.y) + 5,)
    assert out == (Fraction(7),)


def test_homeo_forward_requires_equilibrium(r1a_family):
    bad = MixedProfile((1, 0, 0), (1, 0, 0))
    with pytest.raises(NotEquilibrium):
        homeo_forward(r1a_family, (R1A.gamma,), bad)


def test_homeo_forward_direct_substitution(r1a_family):
    profile = MixedProfile(R1A_NE_X, R1A_NE_Y)
    out = homeo_forward(r1a_family, (R1A.gamma,), profile)[0]
    g1 = vdot(R1A.beta, R1A_NE_Y) + vdot(R1A.gamma, R1A_NE_X)
    assert out == (g1, R1A.gamma[1] - R1A.gamma[0], R1A.gamma[2] - R1A.gamma[0])


def test_homeo_round_trip_exact(r1a_family, r1a_trace):
    rng = random.Random(23)
    for _ in range(20):
        alpha_prime = tuple(
            Fraction(rng.randint(-500, 500), rng.randint(1, 60)) for _ in range(3)
        )
        alpha, profile = homeo_inverse(r1a_family, alpha_prime)
        assert (alpha, profile) == reference_homeo_inverse(r1a_family, alpha_prime, r1a_trace)
        assert homeo_forward(r1a_family, (alpha,), profile)[0] == alpha_prime


def test_homeo_inverse_low_values_sit_on_low_ray(r1a_family, r1a_trace):
    sd = ray_anchors(R1A.a, R1A.a.scale(-1), R1A.beta)
    alpha_prime = (Fraction(-1000), Fraction(0), Fraction(0))
    alpha, profile = homeo_inverse(r1a_family, alpha_prime)
    assert (alpha, profile) == reference_homeo_inverse(r1a_family, alpha_prime, r1a_trace)
    expected_x = [Fraction(0)] * 3
    expected_x[sd.i_s - 1] = Fraction(1)
    assert list(profile.x) == expected_x
    assert homeo_forward(r1a_family, (alpha,), profile)[0] == alpha_prime


def test_homeo_inverse_probes_sections_and_never_walks_the_path(monkeypatch, r1a_family):
    # The inverse bisects lambda with section probes, one solve_lp_delta call
    # each and at most step_budget of them: spies on trace_path and walk,
    # wherever the package binds them, see no call.
    import sys

    import rankgames.algorithms as algorithms
    import rankgames.labeledpath as labeledpath

    walks, probes = [], []
    for attr in ("trace_path", "walk"):
        real = getattr(labeledpath, attr)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "rankgames" and vars(module).get(attr) is real:
                monkeypatch.setattr(module, attr,
                                    lambda *args, real=real: walks.append(1) or real(*args))
    real_probe = algorithms.solve_lp_delta
    monkeypatch.setattr(algorithms, "solve_lp_delta",
                        lambda *args: probes.append(1) or real_probe(*args))
    rng = random.Random(29)
    targets = [(Fraction(g1), Fraction(0), Fraction(0)) for g1 in (-1000, 1000)]
    targets.append(tuple(Fraction(rng.randint(-500, 500), rng.randint(1, 60)) for _ in range(3)))
    for alpha_prime in targets:
        probes.clear()
        alpha, profile = homeo_inverse(r1a_family, alpha_prime)
        assert homeo_forward(r1a_family, (alpha,), profile)[0] == alpha_prime
        assert 1 <= len(probes) <= step_budget(3, 3)
    assert walks == []


def test_homeo_inverse_raises_at_the_first_probe_that_repeats_an_edge(r1a_family, r1a_trace):
    # A mutant of the inverse whose bracket end moves only to the probe
    # point, not to the probed edge's lambda end, never reaches a target on
    # an edge of constant lambda: it probes the edges beside it in turn, and
    # without the check it probes on to step_budget (700 at 3x3). The
    # inverse raises at the first probe that lands on an edge probed before.
    # Targets: the middles of the path's bounded edges of constant lambda.
    import inspect
    import textwrap

    import rankgames.algorithms as algorithms
    from rankgames.labeledpath import W_FIXED, g_at

    source = textwrap.dedent(inspect.getsource(algorithms.homeo_inverse))
    assert source.count("hi = w_coords[m]") == source.count("lo = w_coords[m]") == 1
    mutant_source = source.replace("hi = w_coords[m]", "hi = mid").replace(
        "lo = w_coords[m]", "lo = mid")
    keys = []

    def probe(*args):
        sec = algorithms.solve_lp_delta(*args)
        keys.append(sec.edge.key())
        return sec

    namespace = {**vars(algorithms), "solve_lp_delta": probe}
    exec(mutant_source, namespace)
    mutant = namespace["homeo_inverse"]
    targets = []
    for edge in r1a_trace.edges:
        if edge.kind == W_FIXED and edge.moving.t_max is not None:
            ends = (g_at(r1a_family, *edge.point_at(t)) for t in (0, edge.moving.t_max))
            targets.append((sum(ends) / 2, Fraction(0), Fraction(0)))
    assert len(targets) == 3
    for alpha_prime in targets:
        alpha, profile = homeo_inverse(r1a_family, alpha_prime)
        assert homeo_forward(r1a_family, (alpha,), profile)[0] == alpha_prime
        keys.clear()
        with pytest.raises(RankGamesError, match="repeats a path edge"):
            mutant(r1a_family, alpha_prime)
        assert keys[-1] in keys[:-1] and len(set(keys)) == len(keys) - 1
        assert len(keys) < 20


def test_homeo_inverse_round_trips_bin_search_where_beta_has_tied_ends():
    # The first three 16x16 large rank-1 draws: the inverse maps the image of
    # bin_search's answer back to it exactly. On draws 1 and 2 beta's least
    # or greatest entry is tied, so the path's rays, and with them the
    # trace-based reference, are refused there.
    rng = random.Random(11)
    for draw in range(3):
        d = random_rank1(rng, 16, 16, span=99, gamma_span=20, beta_span=50)
        fam = GameFamily(d.a, d.a.scale(-1), d.beta)
        profile = bin_search(d).equilibrium.profile
        target = homeo_forward(fam, (d.gamma,), profile)[0]
        assert homeo_inverse(fam, target) == (d.gamma, profile)
        if draw < 2:
            with pytest.raises(DegeneratePolytope, match="tied extreme entries"):
                reference_homeo_inverse(fam, target)
        else:
            assert reference_homeo_inverse(fam, target) == (d.gamma, profile)


def test_family_preconditions():
    # The path and its maps need one beta, a game needs one row weight per
    # beta, a section needs c = -a, and a family needs at least one beta.
    d = decompose_rank_k(K2_GAME)
    family = GameFamily(d.a, -d.a, *d.betas)
    for needs_one_beta in (
        lambda: family.beta,
        lambda: trace_path(family),
        lambda: solve_lp_delta(family, 0),
        lambda: homeo_inverse(family, (0,) * family.m),
        lambda: family.game_at(d.gammas[0]),
    ):
        with pytest.raises(DimensionMismatch):
            needs_one_beta()
    with pytest.raises(RankGamesError, match="c = -a"):
        solve_lp_k(GameFamily(K2_GAME.a, K2_GAME.b, *d.betas), (0, 0))
    with pytest.raises(NoBetas):
        GameFamily(d.a, -d.a)


def test_homeo_k_forward_on_k2_and_g_distinctness():
    # The rank-2 fixture is a degenerate game (unbalanced-support equilibria),
    # so its equilibrium is verified directly rather than taken from the
    # equal-support oracle.
    d = decompose_rank_k(K2_GAME)
    kfam = GameFamily(d.a, -d.a, *d.betas)
    profile = MixedProfile((0, 1, 0), (Fraction(1, 2), 0, Fraction(1, 2)))
    assert verify_equilibrium(K2_GAME, profile)
    out = homeo_forward(kfam, d.gammas, profile)
    for l in range(d.k):
        lam = vdot(d.gammas[l], profile.x)
        assert out[l][0] == lam + vdot(d.betas[l], profile.y)
        assert out[l][1:] == tuple(
            d.gammas[l][i] - d.gammas[l][0] for i in range(1, kfam.m)
        )
    # Distinctness of the leading coordinates across different games' equilibria.
    alphas2 = tuple(
        tuple(g + 1 for g in gamma) for gamma in d.gammas
    )
    rec2 = support_enumeration(kfam.game_at(*alphas2)).equilibria[0]
    out2 = homeo_forward(kfam, alphas2, rec2.profile)
    assert tuple(o[0] for o in out) != tuple(o2[0] for o2 in out2)


# ----------------------------------------------------------- fixed points


def test_fixed_point_search_rank1_matches_bin_search():
    kfam = GameFamily(R1A.a, -R1A.a, R1A.beta)
    point, rec = fixed_point_search(kfam, [R1A.gamma])
    assert fixed_point_eval(kfam, [R1A.gamma], point) == point  # exact fixed point
    assert rec == fixed_point_record(kfam, [R1A.gamma], solve_lp_k(kfam, point))
    report = bin_search(R1A)
    assert rec.profile == report.equilibrium.profile


def test_fixed_point_search_accepts_given_fixed_point():
    kfam = GameFamily(R1A.a, -R1A.a, R1A.beta)
    assert fixed_point_search(kfam, [R1A.gamma])[0] == (R1A_NE_LAMBDA,)


def test_fixed_point_search_k2():
    d = decompose_rank_k(K2_GAME)
    kfam = GameFamily(d.a, -d.a, *d.betas)
    point, rec = fixed_point_search(kfam, d.gammas)
    assert fixed_point_eval(kfam, d.gammas, point) == point
    assert verify_equilibrium(K2_GAME, rec.profile)


def basis_scan_fixed_points(kfam, gammas):
    """Reference: every exact fixed point that the affine piece of some
    nondegenerate vertex of P yields, by a scan over all bases of P.

    On v's piece the lifted point solves v's complementary system with
    lambda = delta, so x(delta) = x0 + X delta and the piece's fixed point
    solves (I - Gamma X) a = Gamma x0. It counts when it lies in the box and
    the box map fixes it exactly.
    """
    m, n, k = kfam.m, kfam.n, kfam.k
    lows, highs = box_bounds(gammas)
    unit = Matrix.identity(m + k + 1)
    points = set()
    for basis in combinations(range(1, m + n + 1), n):
        v = kfam.p.try_vertex(basis)
        if v is None or len(v.labels) != n:
            continue
        lacks = [fraction_row(kfam.qp, lab)[0] for lab in range(1, m + n + 1) if lab not in v.labels]
        system = Matrix([fraction_row(kfam.qp, 0)[0]] + [unit.row(m + l) for l in range(k)] + lacks)
        try:
            x0 = solve_linear_system(system, [1] + [0] * (k + m))[:m]
            xs = [solve_linear_system(system, unit.row(1 + l))[:m] for l in range(k)]
            a = solve_linear_system(
                Matrix.identity(k) - Matrix([[vdot(g, x) for x in xs] for g in gammas]),
                [vdot(g, x0) for g in gammas],
            )
        except Singular:
            continue
        if any(not lo <= x <= hi for x, lo, hi in zip(a, lows, highs)):
            continue
        try:
            if fixed_point_eval(kfam, gammas, a) == a:
                points.add(a)
        except DegeneracyError:
            continue
    return points


def test_fixed_point_search_matches_basis_scan_on_rank_k_corpus():
    # Seeded rank-2 and rank-3 families: every walk answer is one of the
    # reference's fixed points and its record verifies. The walk gives up on
    # the 3 games whose box centre has a degenerate section; the scan, which
    # needs no start, still finds a fixed point on one of them.
    rng = random.Random(11)
    found = degenerate = scan_found = 0
    for g in range(24):
        k = 2 + g % 2
        m = n = rng.randint(k + 1, 4)
        a, betas, gammas = random_rank_k(rng, k, m, n)
        kfam = GameFamily(a, -a, *betas)
        reference = basis_scan_fixed_points(kfam, gammas)
        scan_found += bool(reference)
        try:
            point, rec = fixed_point_search(kfam, gammas)
        except DegeneratePolytope:
            degenerate += 1
            continue
        assert point in reference
        assert verify_equilibrium(kfam.game_at(*gammas), rec.profile)
        found += 1
    assert (found, degenerate, scan_found) == (21, 3, 22)


# ---------------------------------------------------------------- regions


def test_region_graph_worked_example():
    fam = ex1_family()
    graph = region_graph(fam, trace_path(fam))
    assert graph.kind == "path"
    assert len(graph.regions) == 3
    assert graph.regions[0].kind == HALF_SPACE
    assert graph.regions[-1].kind == HALF_SPACE
    assert len(graph.regions[0].hyperplanes) == 1
    assert len(graph.regions[-1].hyperplanes) == 1
    middle = graph.regions[1]
    assert middle.kind == TWO_HYPERPLANE_UNION  # |I| = 2 at the interior vertex
    assert len(middle.hyperplanes) == 2
    assert degree(graph, 0) == 1 and degree(graph, 1) == 2 and degree(graph, 2) == 1


def test_region_graph_slab_kind_exists():
    # A path with a singleton-support interior vertex yields parallel planes.
    a = Matrix([[-2, -7, -8], [7, 3, 8], [0, -5, 0]])
    fam = GameFamily(a, a.scale(-1), (4, 3, 2))
    graph = region_graph(fam, trace_path(fam))
    slabs = [r for r in graph.regions if r.kind == SLAB]
    assert slabs
    for reg in slabs:
        h1, h2 = reg.hyperplanes
        assert h1.coeffs == h2.coeffs  # parallel: same x coefficients
        assert h1.offset != h2.offset


def test_region_graph_sampling_recovers_vertex():
    fam = GameFamily(R1A.a, R1A.a.scale(-1), R1A.beta)
    graph = region_graph(fam, trace_path(fam))
    rng = random.Random(9)
    checked = 0
    for reg in graph.regions:
        if reg.kind != SLAB and reg.kind != TWO_HYPERPLANE_UNION:
            continue
        h1, h2 = reg.hyperplanes
        # a point on a hyperplane strictly between the two bounding ones
        mid_offset = (h1.offset + h2.offset) / 2
        coeffs = tuple((c1 + c2) / 2 for c1, c2 in zip(h1.coeffs, h2.coeffs))
        support = [i for i, c in enumerate(coeffs) if c > 0]
        if not support:
            continue
        i0 = support[0]
        alpha = [Fraction(0)] * fam.m
        alpha[i0] = mid_offset / coeffs[i0]
        try:
            recs = enumerate_general(fam.game_at(alpha), beta=R1A.beta)
        except (DegeneracyError, RankGamesError):
            continue
        y_vertex = reg.vertex.coords[: fam.n]
        assert any(rec.profile.y == y_vertex for rec in recs)
        checked += 1
    assert checked >= 1
