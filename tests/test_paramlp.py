import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest

from rankgames.errors import (
    DegeneracyError,
    DegeneratePolytope,
    DimensionMismatch,
    OutOfBox,
    RankGamesError,
)
from rankgames.games import MixedProfile, decompose_rank_k, family_game, verify_equilibrium
from rankgames.labeledpath import V_FIXED, W_FIXED, trace_path
from rankgames.linalg import (
    Matrix,
    integers,
    rationals,
    sign,
    solve_linear_system,
    vdot,
    vscale,
)
from rankgames.lp import EQ, LE, LinearProgram, solve_lp
from rankgames.paramlp import (
    Crossing,
    Hyperplane,
    _h_at,
    box_bounds,
    cell_rows,
    crossing_records,
    fixed_point_eval,
    improving_labels,
    in_lowest_terms,
    integer_objective,
    is_ne,
    lifted_section,
    piece_fixed_point,
    solve_lp_delta,
    solve_lp_k,
)
from rankgames.polytope import GameFamily, Polytope

from fixtures import (
    K2_GAME,
    R1A,
    R1A_NE_LAMBDA,
    R1A_NE_X,
    R1A_NE_Y,
    R1C,
    checked_exchange_pivot,
    checked_integer_determinant,
    cli_rank1_draws,
    column_dots,
    edge_views,
    fraction_ineqs,
    fraction_lifted_section,
    fraction_row,
    full_basis_tableau,
    h_linear,
    hyperplane_value,
    polytope_lp,
    random_rank1,
    random_rank_k,
    ray_anchors,
    reference_analyze_edge,
    reference_edge_rates,
    reference_piece_fixed_point,
    reference_section_edge,
    reference_z_rows,
    record_faults,
    record_views,
    section_gap,
    section_objective,
    watch_solve_lp,
)


@pytest.fixture(scope="module")
def r1a_family():
    return GameFamily(R1A.a, R1A.a.scale(-1), R1A.beta)


@pytest.fixture(scope="module")
def k2():
    d = decompose_rank_k(K2_GAME)
    return d, GameFamily(d.a, -d.a, *d.betas)


def test_section_at_gamma_min_has_zero_objective(r1a_family):
    opt = solve_lp_delta(r1a_family, min(R1A.gamma))
    assert section_gap((r1a_family.beta,), opt.v_coords, opt.w_coords) == 0
    assert opt.w_coords[r1a_family.m] == min(R1A.gamma)


def test_section_below_lambda_bound_lands_on_low_ray(r1a_family):
    sd = ray_anchors(R1A.a, R1A.a.scale(-1), R1A.beta)
    delta = sd.lambda_s - 5
    opt = solve_lp_delta(r1a_family, delta)
    x = opt.w_coords[: r1a_family.m]
    expected = [Fraction(0)] * r1a_family.m
    expected[sd.i_s - 1] = Fraction(1)
    assert list(x) == expected
    assert opt.edge.moving.unbounded


def test_sections_are_fully_labeled_and_distinct(r1a_family):
    rng = random.Random(6)
    full = frozenset(range(1, r1a_family.m + r1a_family.n + 1))
    g_vals = []
    deltas = sorted(
        Fraction(rng.randint(-300, 300), 100) for _ in range(10)
    )
    for delta in deltas:
        opt = solve_lp_delta(r1a_family, delta)
        v_labels = r1a_family.p.labels_at(opt.v_coords)
        w_labels = r1a_family.qp.labels_at(opt.w_coords)
        assert (v_labels | w_labels) == full
        assert opt.w_coords[r1a_family.m] == delta
        g_vals.append(
            vdot(r1a_family.beta, opt.v_coords[: r1a_family.n]) + delta
        )
    assert all(b > a for a, b in zip(g_vals, g_vals[1:]))  # strictly monotone


def test_objective_zero_certificate_strict_on_non_labeled_points(r1a_family):
    rng = random.Random(13)
    fam = r1a_family
    m, n = fam.m, fam.n
    for _ in range(50):
        y = [Fraction(rng.randint(1, 9)) for _ in range(n)]
        total = sum(y)
        y = [v / total for v in y]
        pi1 = max(vdot(fam.a.row(i), y) for i in range(m)) + rng.randint(1, 5)
        x = [Fraction(rng.randint(1, 9)) for _ in range(m)]
        total = sum(x)
        x = [v / total for v in x]
        lam = Fraction(rng.randint(-50, 50), 7)
        pi2 = max(
            vdot(fraction_row(fam.qp, m + 1 + j)[0][:m], x) + fam.beta[j] * lam for j in range(n)
        )
        v_coords = tuple(y) + (pi1,)
        w_coords = tuple(x) + (lam, pi2)
        assert section_gap((fam.beta,), v_coords, w_coords) < 0


def test_probe_records_keep_the_dataclass_contract(r1a_family):
    sec = solve_lp_k(r1a_family, (R1A_NE_LAMBDA,))
    # w_coords is a view of w_point, built on first read, and kept.
    assert "w_coords" not in vars(sec)
    assert sec.w_coords[: r1a_family.m] == R1A_NE_X and vars(sec)["w_coords"] is sec.w_coords
    h = Hyperplane(R1A.gamma)
    found = is_ne(r1a_family, h, R1A_NE_LAMBDA)
    # A crossing's coords are views of its integer points, held in lowest
    # terms, built on first read and kept; one given the same points over
    # other denominators, put in lowest terms, compares and hashes equal.
    hit = found.crossing
    assert "v_coords" not in vars(hit) and "w_coords" not in vars(hit)
    assert hit.v_coords[: r1a_family.n] == R1A_NE_Y and vars(hit)["v_coords"] is hit.v_coords
    assert rationals(*hit.w_point) == hit.w_coords
    assert all(gcd(den, *nums) == 1 for nums, den in (hit.v_point, hit.w_point, sec.w_point))
    scaled = [([3 * x for x in nums], 3 * den) for nums, den in (hit.v_point, hit.w_point)]
    given = Crossing(*(in_lowest_terms(*point) for point in scaled), hit.orient_index)
    assert given == hit and hash(given) == hash(hit)
    assert Crossing(*scaled, hit.orient_index) != hit
    records = (sec, solve_lp_delta(r1a_family, R1A_NE_LAMBDA), found,
               is_ne(r1a_family, h, min(R1A.gamma)), hit, given)
    assert [type(r).__name__ for r in records] == [
        "Section", "OptSet", "IsNEOutcome", "IsNEOutcome", "Crossing", "Crossing"]
    assert [fault for record in records for fault in record_faults(record)] == []
    assert [record_views(type(r)) for r in records[:2] + records[-1:]] == [
        ["w_coords"], ["w_coords"], ["v_coords", "w_coords"]]


def test_is_ne_found_at_equilibrium_lambda(r1a_family):
    out = is_ne(r1a_family, Hyperplane(R1A.gamma), R1A_NE_LAMBDA)
    assert out.kind == "found"
    hit = out.crossing
    assert hit.w_coords[: r1a_family.m] == R1A_NE_X
    assert hit.v_coords[: r1a_family.n] == R1A_NE_Y


def test_is_ne_below_at_gamma_min(r1a_family):
    assert is_ne(r1a_family, Hyperplane(R1A.gamma), min(R1A.gamma)).kind == "below"


def test_is_ne_above_at_gamma_max(r1a_family):
    assert is_ne(r1a_family, Hyperplane(R1A.gamma), max(R1A.gamma)).kind == "above"


def test_is_ne_zero_gamma_finds_zero_sum_equilibrium(r1a_family):
    gamma0 = (Fraction(0),) * 3
    out = is_ne(r1a_family, Hyperplane(gamma0), Fraction(0))
    assert out.kind == "found"
    hit = out.crossing
    zero_sum = r1a_family.game_at(gamma0)
    profile = MixedProfile(hit.w_coords[: r1a_family.m], hit.v_coords[: r1a_family.n])
    assert verify_equilibrium(zero_sum, profile)
    assert hit.w_coords[r1a_family.m] == 0


def test_edge_intersection_midpoint(r1a_family):
    # Build the containing edge of the equilibrium lambda and check the hit.
    opt = solve_lp_delta(r1a_family, R1A_NE_LAMBDA)
    h = Hyperplane(R1A.gamma)
    hits = crossing_records(h, opt.edge)
    assert len(hits) == 1
    point = hits[0].w_coords
    assert point[: r1a_family.m] == R1A_NE_X
    assert hyperplane_value(h, point) == 0


def test_edge_intersection_empty_off_hyperplane(r1a_family):
    opt = solve_lp_delta(r1a_family, min(R1A.gamma))
    assert crossing_records(Hyperplane(R1A.gamma), opt.edge) == []


def test_every_enumerated_equilibrium_is_a_unique_edge_hit(r1a_family):
    from rankgames.algorithms import enumerate_rank1

    recs = enumerate_rank1(R1A)
    trace = trace_path(r1a_family)
    hits = []
    for edge in trace.edges:
        hits.extend(crossing_records(Hyperplane(R1A.gamma), edge))
    assert len(hits) == len(recs)


def lifted_lp_point(lifted: Polytope, delta):
    """Reference section point in the lifted polytope, by LP: minimize pi2
    with lambda pinned to delta (k = len(delta) lambda rows)."""
    k, unit = len(delta), Matrix.identity(lifted.dim)
    m = lifted.dim - k - 1
    rows = [a for a, _ in fraction_ineqs(lifted)] + [fraction_row(lifted, 0)[0]] + [unit.row(m + l) for l in range(k)]
    rels = [LE] * len(fraction_ineqs(lifted)) + [EQ] * (k + 1)
    rhs = [b for _, b in fraction_ineqs(lifted)] + [fraction_row(lifted, 0)[1], *delta]
    sol = solve_lp(LinearProgram.build(vscale(-1, unit.row(m + k)), rows, rels, rhs))
    assert sol.optimal
    return sol.point


def _walked_edges():
    """(gammas, edges) of 20 seeded general and 20 rank-1 games, 4x4
    to 7x7, whose paths are nondegenerate: the edges of each one's path, and
    for rank 1 also those that ``enumerate_rank1`` walks from its min-gamma
    section. The gammas are the one the path runs on and one drawn from
    -9..9."""
    from rankgames.algorithms import _edges_until, general_family, rank1_family
    from rankgames.games import BimatrixGame

    rng = random.Random(2026)
    walked = Counter()
    while min(walked[kind] for kind in ("general", "rank-1")) < 20:
        kind = ("general", "rank-1")[walked["general"] >= 20]
        size = 4 + walked[kind] % 4
        if kind == "rank-1":
            run, fam = rank1_family(random_rank1(rng, size, size, span=99, gamma_span=20,
                                                 beta_span=50))
            gamma = run.gamma
        else:
            a, b = (Matrix([[rng.randint(-99, 99) for _ in range(size)] for _ in range(size)])
                    for _ in range(2))
            fam, gamma = general_family(BimatrixGame(a, b)), (Fraction(0),) * size
        gammas = (gamma, tuple(Fraction(rng.randint(-9, 9)) for _ in range(size)))
        try:
            edges = list(trace_path(fam).edges)
            if kind == "rank-1":
                start = solve_lp_delta(fam, min(run.gamma)).edge
                edges += _edges_until(fam, start, max(run.gamma))
        except DegeneracyError:
            walked["skipped"] += 1
            continue
        walked[kind] += 1
        yield gammas, edges
    assert walked["skipped"] == 3  # tied extreme entries or ratio ties


def test_tableau_hyperplane_values_match_fraction_values():
    # The hyperplane value at each moving edge's base and its rate along the
    # edge, as integer dots with the edge's integer base point and direction,
    # equal its Fraction value (hyperplane_value) at the coordinates and the
    # direction, on every walked edge. At each fixed vertex of Q' the number _h_at reads,
    # an integer dot off its tableau, has the value's sign. Section edges,
    # read off P's tableau, carry their integers but no Q' tableau, and fixed
    # section vertices carry no tableau (their value is read off their
    # integer point); they are compared too.
    kinds = Counter()
    for gammas, edges in _walked_edges():
        for gamma in gammas:
            h = Hyperplane(gamma)
            for edge in edges:
                if edge.kind == W_FIXED:
                    want = hyperplane_value(h, edge.fixed.coords)
                    assert sign(_h_at(h, edge.fixed)) == sign(want)
                    on_tableau = edge.fixed.tableau is not None
                else:
                    ed = edge.moving
                    want = (hyperplane_value(h, ed.base.coords),
                            hyperplane_value(h, ed.direction))
                    assert h_linear(edge, h) == want
                    on_tableau = ed.tableau is not None
                kinds[edge.kind, on_tableau] += 1
    # Per gamma: 20 section edges without a tableau (recounted: still 20)
    # and 20 fixed section vertices, which are read off their integer point;
    # both rays carry tableaux.
    assert kinds == {(V_FIXED, True): 932, (W_FIXED, True): 812,
                     (V_FIXED, False): 40, (W_FIXED, False): 40}


def _yardstick_walks():
    """(gammas, edges) of the small-entry yardstick: 200 rank-1 games from
    random.Random(77), s cycling 3, 4, 5, with the edges of each path and of
    ``enumerate_rank1``'s walk, and 200 general games from random.Random(78)
    with entries in -2..2, with their paths' edges. A path that meets a
    degeneracy is left out; an enumeration walk keeps the edges it reached
    before one. The gammas are as in ``_walked_edges``, the
    second drawn from -1..1."""
    from rankgames.algorithms import _edges_until, general_family, rank1_family
    from rankgames.games import BimatrixGame

    def walked(fam, run=None):
        edges = []
        for walk in ("path", "enumeration") if run else ("path",):
            try:
                if walk == "path":
                    edges += trace_path(fam).edges
                else:
                    start = solve_lp_delta(fam, min(run.gamma)).edge
                    edges += _edges_until(fam, start, max(run.gamma))
            except DegeneracyError:
                pass
        return edges

    rng = random.Random(77)
    for s in (3, 4, 5) * 66 + (3, 4):
        run, fam = rank1_family(random_rank1(rng, s, s, span=2, gamma_span=1, beta_span=3))
        yield (run.gamma, tuple(Fraction(rng.randint(-1, 1)) for _ in range(s))), walked(fam, run)
    rng = random.Random(78)
    for g in range(200):
        s = 3 + g % 3
        a, b = (Matrix([[rng.randint(-2, 2) for _ in range(s)] for _ in range(s)])
                for _ in range(2))
        gammas = ((Fraction(0),) * s, tuple(Fraction(rng.randint(-1, 1)) for _ in range(s)))
        yield gammas, walked(general_family(BimatrixGame(a, b)))


def test_integer_edge_analysis_matches_the_fraction_reference():
    # On every walked edge of both corpora, under each gamma, the crossing
    # decided by integer cross-multiplication equals the Fraction reference's:
    # the side, the crossing point and its index, or the error class and
    # message; a hit's integer points equal the reference's point_at(t*). Every outcome occurs, and hits occur with the value rising
    # along the edge parameter (forward, +1) and falling (forward -1 and
    # backward +1), so t* = -h0 / dh is taken with dh of either sign.
    from itertools import chain

    from rankgames.paramlp import _analyze_edge

    def outcome(analyze, edge, h):
        try:
            return analyze(edge, h)
        except RankGamesError as exc:
            return type(exc).__name__, str(exc)

    counts = Counter()
    for gammas, edges in chain(_walked_edges(), _yardstick_walks()):
        for gamma in gammas:
            h = Hyperplane(gamma)
            for edge in edges:
                ours = outcome(_analyze_edge, edge, h)
                theirs = outcome(reference_analyze_edge, edge, h)
                if ours[0] == "point":
                    hit = ours[1]  # its integer points, read before its coords
                    assert (rationals(*hit.v_point), rationals(*hit.w_point)) == (
                        theirs[1].v_coords, theirs[1].w_coords)
                    counts["point", edge.direction, hit.orient_index] += 1
                else:
                    counts[ours[0]] += 1
                assert ours == theirs
    assert counts == {
        "none": 2460, "DegeneratePolytope": 133, "EdgeInHyperplane": 72,
        ("point", "forward", 1): 287, ("point", "backward", 1): 78,
        ("point", "forward", -1): 50,
    }


def _reached(walk) -> list:
    """The edges a walk yields before it meets a degeneracy, if it does."""
    edges = []
    try:
        for edge in walk():
            edges.append(edge)
    except DegeneracyError:
        pass
    return edges


def _rank1_walks():
    """(gammas, edges) of the rank-1 families of section_corpus(), each with
    its path's edges and ``enumerate_rank1``'s walk from each of its
    sections to the largest section lambda, under two gammas drawn from
    -20..20 and -3..3; then the 60 wide draws as the CLI decomposes them
    (``cli_rank1_draws("wide")``), with ``enumerate_rank1``'s walk under the
    gamma it runs on."""
    from rankgames.algorithms import _edges_until, rank1_family

    families = {}
    for corpus, fam, *_, delta in section_corpus():
        if corpus != "rank-k":
            families.setdefault(fam, []).append(delta[0])
    rng = random.Random(30)
    for fam, deltas in families.items():
        edges = _reached(lambda: trace_path(fam).edges)
        for delta in deltas:
            edges += _reached(lambda: _edges_until(fam, solve_lp_delta(fam, delta).edge,
                                                   max(deltas)))
        yield tuple(tuple(Fraction(rng.randint(-span, span)) for _ in range(fam.m))
                    for span in (20, 3)), edges
    for _, d in cli_rank1_draws("wide"):
        run, fam = rank1_family(d)
        yield (run.gamma,), _reached(
            lambda: _edges_until(fam, solve_lp_delta(fam, min(run.gamma)).edge, max(run.gamma)))


def test_per_node_crossing_test_matches_the_edge_analysis(monkeypatch):
    # path_crossings takes the hyperplane's value once per node and skips an
    # edge whose two end values share one strict sign; the other edges go
    # through _analyze_edge. Over each whole walk, whose consecutive edges
    # share their nodes, and on every edge alone, it gives what _analyze_edge
    # gives edge by edge: the crossings with their orientation indices, or
    # the first error's class and message. The walks are those of the
    # section corpus's rank-1 families, the wide draws (_rank1_walks and
    # _walked_edges) and the yardstick, each under its gammas.
    from itertools import chain

    import rankgames.paramlp as paramlp
    from rankgames.paramlp import _analyze_edge, path_crossings

    def outcome(run):
        try:
            return run()
        except RankGamesError as exc:
            return type(exc).__name__, str(exc)

    def edge_by_edge(h, edges):
        return [hit for edge in edges for kind, hit in [_analyze_edge(edge, h)] if kind == "point"]

    analyzed, real = [], paramlp.crossing_records
    monkeypatch.setattr(paramlp, "crossing_records",
                        lambda h, edge: analyzed.append(edge) or real(h, edge))
    counts = Counter()
    for gammas, edges in chain(_rank1_walks(), _walked_edges(), _yardstick_walks()):
        for gamma in gammas:
            h = Hyperplane(gamma)
            ours = outcome(lambda: list(path_crossings(h, edges)))
            assert ours == outcome(lambda: edge_by_edge(h, edges))
            counts["walk", "error" if isinstance(ours, tuple) else "crossings"] += 1
            for edge in edges:
                analyzed.clear()
                alone = outcome(lambda: list(path_crossings(h, [edge])))
                assert alone == outcome(lambda: edge_by_edge(h, [edge]))
                if isinstance(alone, tuple) or alone:
                    assert analyzed == [edge]
                kind = "error" if isinstance(alone, tuple) else "hit" if alone else "none"
                ray = edge.tail is None or edge.head is None
                counts[kind, "ray" if ray else "edge", "analyzed" if analyzed else "skipped"] += 1
    # Every bounded edge with neither hit nor error is skipped.
    assert counts == {
        ("walk", "crossings"): 974, ("walk", "error"): 62,
        ("none", "edge", "skipped"): 3330, ("none", "ray", "analyzed"): 532,
        ("hit", "edge", "analyzed"): 470, ("hit", "ray", "analyzed"): 229,
        ("error", "edge", "analyzed"): 155, ("error", "ray", "analyzed"): 50,
    }


def test_solve_lp_k_specializes_to_rank1(r1a_family):
    # At k = 1, solve_lp_k and solve_lp_delta give the same section, and its
    # lifted point is the one an LP over Q' with lambda pinned finds.
    kfam = GameFamily(R1A.a, -R1A.a, R1A.beta)
    rng = random.Random(10)
    for _ in range(5):
        delta = Fraction(rng.randint(-200, 200), 67)
        opt1 = solve_lp_delta(r1a_family, delta)
        optk = solve_lp_k(kfam, (delta,))
        assert optk.v_coords == opt1.v_coords
        assert optk.w_coords == opt1.w_coords == lifted_lp_point(r1a_family.qp, (delta,))

    # Wide-span corpus at the sections enumeration and bisection use, plus one
    # on the low ray. Degenerate rejects are counted, not skipped unseen.
    rng = random.Random(3)
    checked = rejected = 0
    for k in range(10):
        size = 4 + k % 2
        d = random_rank1(rng, size, size, span=99, gamma_span=20, beta_span=50)
        fam = GameFamily(d.a, d.a.scale(-1), d.beta)
        kfam = GameFamily(d.a, -d.a, d.beta)
        lo, hi = min(d.gamma), max(d.gamma)
        deltas = [lo, hi, (lo + hi) / 2]
        try:
            deltas.append(ray_anchors(d.a, d.a.scale(-1), d.beta).lambda_s - 1)
        except DegeneracyError:
            rejected += 1
        for delta in deltas:
            try:
                opt1 = solve_lp_delta(fam, delta)
            except DegeneracyError:
                rejected += 1
                continue
            optk = solve_lp_k(kfam, (delta,))
            assert optk.v_coords == opt1.v_coords
            assert optk.w_coords == opt1.w_coords == lifted_lp_point(fam.qp, (delta,))
            checked += 1
    assert (checked, rejected) == (39, 1)  # the reject: tied extremes, no low ray


def test_solve_lp_k_matches_lifted_lp_on_rank_k_corpus():
    # Seeded rank-2 and rank-3 families at points of their box: a section is
    # either the LP reference's optimum with zero duality gap, or a P optimum
    # with more than n tight rows, rejected as degenerate. Both counts are
    # asserted.
    rng = random.Random(4)
    matched = rejected = 0
    for g in range(16):
        k = 2 + g % 2
        m = n = rng.randint(k + 1, 4)
        a, betas, gammas = random_rank_k(rng, k, m, n)
        kfam = GameFamily(a, -a, *betas)
        lows, highs = box_bounds(gammas)
        for _ in range(4):
            delta = tuple(
                lo + (hi - lo) * Fraction(rng.randint(0, 8), 8) for lo, hi in zip(lows, highs)
            )
            w_ref = lifted_lp_point(kfam.qp, delta)
            try:
                opt = solve_lp_k(kfam, delta)
            except DegeneratePolytope:
                rejected += 1
                continue
            assert opt.w_coords == w_ref
            weighted = sum(
                (delta[l] * vdot(kfam.betas[l], opt.v_coords[:n]) for l in range(k)), Fraction(0)
            )
            assert weighted - opt.v_coords[n] == w_ref[m + k]
            matched += 1
    assert (matched, rejected) == (54, 10)


def test_rank_k_sections_make_no_lp_call(k2, monkeypatch):
    # A section walks P's own tableau and takes its lifted side from
    # complementary slackness: one section per call, no generic LP. The cell
    # walk's facet test is the one LP left on the solver path.
    import rankgames.paramlp as paramlp
    from rankgames.algorithms import fixed_point_search

    lp_calls = watch_solve_lp(monkeypatch)
    sections = []
    real_section = paramlp._section
    monkeypatch.setattr(paramlp, "_section", lambda *a: sections.append(a) or real_section(*a))
    d, kfam = k2
    lows, highs = box_bounds(d.gammas)
    mid = tuple((lo + hi) / 2 for lo, hi in zip(lows, highs))
    solve_lp_k(kfam, mid)
    assert len(sections) == 1
    fixed_point_eval(kfam, d.gammas, mid)
    assert len(sections) == 2
    assert lp_calls == []
    rng = random.Random(4)
    m = rng.randint(3, 4)
    a, betas, gammas = random_rank_k(rng, 2, m, m)
    fixed_point_search(GameFamily(a, -a, *betas), gammas)
    assert len(lp_calls) == 6  # the cell walk's facet tests, all in the watch


def test_solver_path_makes_no_linear_solve(k2, monkeypatch):
    # A section's lifted point and its path edge come off P's edge rates, so
    # the rank-1 verbs and the box map solve no linear system; the cell walk
    # solves one k x k system per cell for the cell's fixed point.
    import rankgames.paramlp as paramlp
    from rankgames.algorithms import fixed_point_search

    shapes = []
    real = paramlp.solve_linear_system
    monkeypatch.setattr(
        paramlp, "solve_linear_system",
        lambda system, rhs: shapes.append((system.rows, system.cols)) or real(system, rhs),
    )
    fam = GameFamily(R1A.a, R1A.a.scale(-1), R1A.beta)
    kinds = set()
    for node in trace_path(fam).nodes:
        lam = fam.lambda_of(node.w)
        kinds |= {solve_lp_delta(fam, lam).edge.kind, solve_lp_delta(fam, lam + 1).edge.kind}
    assert kinds == {V_FIXED, W_FIXED}
    d, kfam = k2
    lows, highs = box_bounds(d.gammas)
    mid = tuple((lo + hi) / 2 for lo, hi in zip(lows, highs))
    solve_lp_k(kfam, mid)
    fixed_point_eval(kfam, d.gammas, mid)
    assert shapes == []
    fixed_point_search(kfam, d.gammas)
    a, betas, gammas = random_rank_k(random.Random(3), 3, 4, 4)
    fixed_point_search(GameFamily(a, -a, *betas), gammas)
    assert shapes and set(shapes) == {(2, 2), (3, 3)}


def section_corpus():
    """(family, P, lifted polytope, betas, delta) of seeded sections:
    wide-span rank-1 games at min gamma, max gamma and their midpoint;
    small-span rank-1 games at the same three; rank-2 and rank-3 families at
    points of their box."""
    rng = random.Random(8)
    for size in (3, 4, 4, 5, 5, 6, 6, 7):
        d = random_rank1(rng, size, size, span=99, gamma_span=20, beta_span=50)
        fam = GameFamily(d.a, d.a.scale(-1), d.beta)
        lo, hi = min(d.gamma), max(d.gamma)
        for delta in (lo, hi, (lo + hi) / 2):
            yield "wide", fam, fam.p, fam.qp, (fam.beta,), (delta,)
    rng = random.Random(2024)
    for _ in range(40):
        d = random_rank1(rng, rng.randint(2, 5), rng.randint(2, 5))
        fam = GameFamily(d.a, d.a.scale(-1), d.beta)
        lo, hi = min(d.gamma), max(d.gamma)
        for delta in (lo, hi, (lo + hi) / 2):
            yield "small", fam, fam.p, fam.qp, (fam.beta,), (delta,)
    rng = random.Random(4)
    for g in range(16):
        k = 2 + g % 2
        m = n = rng.randint(k + 1, 4)
        a, betas, gammas = random_rank_k(rng, k, m, n)
        kfam = GameFamily(a, -a, *betas)
        lows, highs = box_bounds(gammas)
        for _ in range(4):
            delta = tuple(
                lo + (hi - lo) * Fraction(rng.randint(0, 8), 8) for lo, hi in zip(lows, highs)
            )
            yield "rank-k", kfam, kfam.p, kfam.qp, kfam.betas, delta


def test_section_walk_matches_generic_lp_reference(monkeypatch):
    # The section walk against the generic two-phase LP over P's rows. Where
    # the reference optimum has n tight rows the walk finds the same v, or
    # another optimum with a zero-rate edge (the optimum is not unique); w is
    # the lifted LP's point. Where the reference has more, the walk rejects it
    # too or finds an optimum of the same value. The walk rejects no section
    # that the reference accepts. On the rank-1 sections whose lifted point
    # lies inside an edge of the path, that edge runs along the direction of
    # v's complementary square system: the equality row, lambda at rate 1 and
    # the m lifted rows that v's labels lack.
    import rankgames.paramlp as paramlp

    pivots = Counter()
    for name in ("pivot", "simplex_pivot"):
        def counted(self, v, r, name=name, real=getattr(Polytope, name)):
            pivots[name] += 1
            return real(self, v, r)

        monkeypatch.setattr(Polytope, name, counted)
    counts = Counter()
    rank1 = []
    for corpus, family, p, lifted, betas, delta in section_corpus():
        objective = section_objective(betas, delta)
        ref = solve_lp(polytope_lp(p, objective))
        assert ref.optimal
        ref_ok = len(p.labels_at(ref.point)) == p.n
        try:
            sec = paramlp._section(family, delta)
        except DegeneratePolytope:
            counts[corpus, "rejected by both" if not ref_ok else "rejected by the walk"] += 1
            continue
        v, w_coords = sec.v, sec.w_coords
        assert vdot(objective, v.coords) == ref.value
        if not ref_ok:
            counts[corpus, "accepted by the walk"] += 1
            continue
        assert w_coords == lifted_lp_point(lifted, delta)
        if corpus != "rank-k":
            rank1.append((family, delta[0], v))
        if v.coords == ref.point:
            counts[corpus, "matched"] += 1
        else:
            rates = reference_edge_rates(p, v, betas).values()
            assert any(vdot(g, delta) == c for g, c in rates)
            counts[corpus, "another optimum"] += 1
    assert not any(kind == "rejected by the walk" for _, kind in counts)
    assert dict(counts) == {
        ("wide", "matched"): 24,
        ("small", "matched"): 100,
        ("small", "another optimum"): 1,
        ("small", "rejected by both"): 19,
        ("rank-k", "matched"): 54,
        ("rank-k", "rejected by both"): 10,
    }
    # Nondegenerate pivots tried, and Bland's-rule pivots, which only the
    # rejected sections take here; the generic LP takes 4,529 pivots on the
    # same sections.
    assert dict(pivots) == {"pivot": 350, "simplex_pivot": 52}
    v_fixed = 0
    for fam, delta, v in rank1:
        try:
            edge = solve_lp_delta(fam, delta).edge
        except DegeneratePolytope:  # a degenerate lifted point or edge in Q'
            continue
        if edge.kind != V_FIXED:
            continue
        m, unit = fam.m, Matrix.identity(fam.m + 2)
        lacks = [fraction_row(fam.qp, lab)[0] for lab in range(1, m + fam.n + 1) if lab not in v.labels]
        system = Matrix([fraction_row(fam.qp, 0)[0], unit.row(m), *lacks])
        direction = solve_linear_system(system, [0, 1] + [0] * m)
        assert edge.moving.direction in (direction, vscale(-1, direction))
        v_fixed += 1
    assert v_fixed == 109


def _section_edge_cases():
    """(corpus, family, delta) of rank-1 sections: the rank-1 sections of
    section_corpus(); the families of the rank-1 bench corpora (wide spans,
    random.Random(1), and the 14x14 reproducer) and of the small-entry
    yardstick at a sweep of delta over the gamma range in eighths, one step
    past each end; and constant-beta families, whose section edges are full
    lines."""
    for corpus, fam, *_, delta in section_corpus():
        if corpus != "rank-k":
            yield corpus, fam, delta[0]
    wide = dict(span=99, gamma_span=20, beta_span=50)
    draws = []
    for sizes, rounds in (((4, 4, 5), 20), ((4, 5, 4, 7, 5, 4, 5, 4, 7, 8), 3)):
        rng = random.Random(1)
        draws += [("bench", random_rank1(rng, s, s, **wide)) for s in sizes * rounds]
    draws.append(("bench", random_rank1(random.Random(14), 14, 14, **wide)))
    rng = random.Random(77)
    draws += [("yardstick", random_rank1(rng, s, s, span=2, gamma_span=1, beta_span=3))
              for s in (3, 4, 5) * 66 + (3, 4)]
    for corpus, d in draws:
        fam = GameFamily(d.a, d.a.scale(-1), d.beta)
        lo, hi = min(d.gamma), max(d.gamma)
        step = (hi - lo) / 8 or Fraction(1)
        for i in range(-1, 10):
            yield corpus, fam, lo + i * step
    rng = random.Random(3)
    for g in range(20):
        a = Matrix([[rng.randint(-9, 9) for _ in range(3 + g % 2)] for _ in range(3 + g % 2)])
        yield "constant beta", GameFamily(a, a.scale(-1), (2,) * a.cols), Fraction(1)


def test_section_edge_matches_edge_through_point():
    # The section edge read off P's tableau in integers equals the edge that
    # Polytope.edge_through_point finds through the lifted point w in
    # Fractions: end bases, labels and coordinates, t_max, relaxed and
    # direction. w's tight labels, its zero slacks, are labels_at's. Where
    # the reference raises (ratio ties, mostly on the small-entry yardstick,
    # and full lines), the section edge raises the same class and message.
    from rankgames.paramlp import section_edge

    def outcome(build):
        try:
            return build()
        except RankGamesError as exc:
            return type(exc).__name__, str(exc)

    counts = Counter()
    for corpus, fam, delta in _section_edge_cases():
        try:
            sec = solve_lp_k(fam, (delta,))
        except DegeneracyError:
            counts[corpus, "no section"] += 1
            continue
        tight = frozenset(lab for lab, slack in enumerate(sec.slacks, 1) if not slack)
        assert tight == fam.qp.labels_at(sec.w_coords)
        if len(tight) != fam.m:
            counts[corpus, "w is a vertex" if len(tight) == fam.m + 1 else "more tight"] += 1
            continue
        ours = outcome(lambda: section_edge(fam, integers(fam.beta), sec, tight))
        theirs = outcome(lambda: reference_section_edge(fam, sec))
        if isinstance(ours, tuple):
            assert ours == theirs
            counts[corpus, ours[1].split(" between")[0]] += 1
            continue
        assert ours == theirs and edge_views(ours) == edge_views(theirs)
        assert ours.point_at(Fraction(0)) == ours.base.coords
        if ours.far_end is not None:
            assert ours.point_at(ours.t_max) == ours.far_end.coords
        counts[corpus, "edge" if ours.far_end else "ray"] += 1
    full_line = "edge is a full line; polytope not pointed"
    assert dict(counts) == {
        ("wide", "edge"): 11, ("wide", "ray"): 13,
        ("small", "edge"): 56, ("small", "ray"): 29, ("small", "ratio tie"): 6,
        ("small", "w is a vertex"): 8, ("small", "more tight"): 2, ("small", "no section"): 19,
        ("bench", "edge"): 575, ("bench", "ray"): 419, ("bench", "no section"): 7,
        ("yardstick", "edge"): 573, ("yardstick", "ray"): 376, ("yardstick", "ratio tie"): 313,
        ("yardstick", "w is a vertex"): 265, ("yardstick", "more tight"): 69,
        ("yardstick", "no section"): 604,
        ("constant beta", full_line): 17, ("constant beta", "no section"): 3,
    }


def test_probes_below_or_above_build_no_edge_data_and_no_fraction_point(monkeypatch):
    # bin_search on the rank1-solve bench corpus (60 wide-span rank-1 games,
    # random.Random(1), sizes 4, 4, 5) and the 4x5 reproducer. A probe that
    # reports below or above builds neither base point nor direction of any
    # walk pivot: the walk reads only far ends. Its lifted point and the
    # ends of its section edge are still integers: no Fraction point is
    # built. Once read, they are the reference's: the walk pivots' origin
    # and column are the full-width tableau's, the lifted point is the
    # lifted LP's, and the section edge is edge_through_point's through it
    # (test_section_edge_matches_edge_through_point).
    import rankgames.algorithms as algorithms
    import rankgames.paramlp as paramlp
    from rankgames.algorithms import bin_search

    edges, lifts, sections, counts = [], [], [], Counter()
    real_pivot, real_delta, real_is_ne = Polytope.pivot, paramlp.solve_lp_delta, algorithms.is_ne
    real_lift = paramlp.lifted_section

    def pivot_spy(self, v, relax):
        edges.append((self, real_pivot(self, v, relax)))
        return edges[-1][1]

    def delta_spy(*args):
        sections.append(real_delta(*args))
        return sections[-1]

    def lift_spy(*args):
        lifts.append(real_lift(*args))
        return lifts[-1]

    def checked_is_ne(family, h, delta, start=None):
        edges.clear(), lifts.clear(), sections.clear()
        out = real_is_ne(family, h, delta, start)
        if out.kind == "found":
            return out
        (sec,) = sections
        edge = sec.edge
        walk = [(poly, ed) for poly, ed in edges if ed is not edge.moving]
        assert all(ed.__dict__["column"] is ed.__dict__["origin"] is None for _, ed in walk)
        ends = [edge.moving.base, edge.moving.far_end] if edge.kind == V_FIXED else [edge.fixed]
        assert all("w_coords" not in vars(lift) for lift in (*lifts, sec))
        assert all("coords" not in vars(u) for u in ends if u is not None)
        for poly, ed in walk:
            z_rows = reference_z_rows(poly, full_basis_tableau(poly, ed.base.basis))
            col = ed.tableau.cols.index(ed.relaxed)
            assert ed.origin == tuple(row[-1] for row in z_rows)
            assert ed.column == tuple(-poly.scales[ed.relaxed] * row[col] for row in z_rows)
        assert sec.w_coords == lifted_lp_point(family.qp, (delta,))
        if edge.kind == V_FIXED:
            want = reference_section_edge(family, sec)
            assert edge.moving == want and edge_views(edge.moving) == edge_views(want)
        else:
            assert edge.fixed.coords == sec.w_coords
        counts[out.kind, edge.kind] += 1
        counts["walk pivots"] += len(walk)
        return out

    monkeypatch.setattr(Polytope, "pivot", pivot_spy)
    monkeypatch.setattr(paramlp, "solve_lp_delta", delta_spy)
    monkeypatch.setattr(paramlp, "lifted_section", lift_spy)
    monkeypatch.setattr(algorithms, "is_ne", checked_is_ne)
    rng = random.Random(1)
    for size in (4, 4, 5) * 20:
        bin_search(random_rank1(rng, size, size, span=99, gamma_span=20, beta_span=50))
    bin_search(R1C)
    assert dict(counts) == {("below", V_FIXED): 45, ("above", V_FIXED): 33,
                            ("below", W_FIXED): 1, "walk pivots": 149}


def _section_breakpoints(fam) -> list[Fraction]:
    """Every lambda at which a section edge of the family ends, ascending:
    probe below, between and above the breakpoints found so far, from
    lambda = 0, until no probe reports a new one."""
    found, probed, todo = set(), set(), [Fraction(0)]
    while todo:
        probed.update(todo)
        for delta in todo:
            edge = solve_lp_delta(fam, delta).edge
            if edge.kind == V_FIXED:
                found |= {fam.lambda_of(u.w) for u in (edge.tail, edge.head) if u is not None}
            else:
                found.add(fam.lambda_of(edge.fixed))
        pts = sorted(found)
        sweep = [pts[0] - 1, pts[-1] + 1, *((lo + hi) / 2 for lo, hi in zip(pts, pts[1:]))]
        todo = [delta for delta in sweep if delta not in probed]
    return sorted(found)


def test_section_optima_are_the_path_vertices_of_p():
    # The shadow view: on GameFamily(A, -A, beta) the section at lambda =
    # delta maximizes delta * beta . y - pi1 over P, and the path's vertices
    # of P are its optima. The section edges' lambda breakpoints are the
    # path's node lambdas, and over a sweep of delta through every
    # breakpoint, every midpoint between two, one point below the first and
    # one above the last, the distinct section optima are the distinct P
    # vertices along trace_path.
    rng = random.Random(5)
    counts = Counter()
    for g in range(24):
        size = 3 + g % 4
        a = Matrix([[rng.randint(-99, 99) for _ in range(size)] for _ in range(size)])
        fam = GameFamily(a, a.scale(-1), tuple(rng.sample(range(1, 200), size)))
        try:
            path = trace_path(fam)
            breaks = _section_breakpoints(fam)
            sweep = [breaks[0] - 1, breaks[-1] + 1, *breaks,
                     *((lo + hi) / 2 for lo, hi in zip(breaks, breaks[1:]))]
            optima = {solve_lp_delta(fam, delta).v.basis for delta in sweep}
        except DegeneracyError:
            counts["degenerate"] += 1
            continue
        assert breaks == sorted({fam.lambda_of(node.w) for node in path.nodes})
        assert optima == {node.v.basis for node in path.nodes}
        counts["vertices"] += len(optima)
    assert dict(counts) == {"vertices": 155, "degenerate": 2}


def test_sections_take_each_column_once_and_build_no_fraction_rates(monkeypatch):
    # The walk picks its labels off P's integer tableau: it reads each
    # visited vertex's rows (section_rows, whose entries are the dots with
    # its basis columns) once, the optimum's included, whether it returns
    # or rejects, and the lifted section keeps the optimum's.
    import rankgames.paramlp as paramlp

    taken = []
    real_rows = paramlp.section_rows

    def rows_spy(p, v, betas):
        taken.append((v.basis, real_rows(p, v, betas)))
        return taken[-1][1]

    monkeypatch.setattr(paramlp, "section_rows", rows_spy)
    counts = Counter()
    for _, fam, *_, delta in section_corpus():
        taken.clear()
        try:
            sec = paramlp._section(fam, delta)
        except DegeneratePolytope:
            counts["rejected"] += 1
            continue
        finally:
            bases = [basis for basis, _ in taken]
            assert len(set(bases)) == len(bases)
        assert bases[-1] == sec.v.basis and sec.rows is taken[-1][1]
        counts["returned"] += 1
    assert dict(counts) == {"returned": 179, "rejected": 29}


def test_integer_improving_labels_match_the_fraction_rates(monkeypatch):
    # At every vertex the walk visits, the labels that the integer sign test
    # reads off P's tableau are exactly those of positive Fraction rate
    # g . delta - c: on the section corpus, and on three wide-span 12x12
    # rank-1 games at min gamma, max gamma and their midpoint. The Fraction
    # rates are the reference's, off the dots with each basis column.
    import rankgames.paramlp as paramlp

    visited = []
    real = paramlp.section_rows
    monkeypatch.setattr(
        paramlp, "section_rows", lambda p, v, betas: visited.append(v) or real(p, v, betas)
    )
    counts = Counter()
    for fam, delta in [*_corpus_sections(), *_wide_12x12_sections()]:
        visited.clear()
        try:
            paramlp._section(fam, delta)
        except DegeneratePolytope:
            pass
        objective = integer_objective(fam.int_betas, delta)
        for v in visited:
            labels = paramlp.improving_labels(real(fam.p, v, fam.int_betas), objective.weights)
            rates = reference_edge_rates(fam.p, v, fam.betas)
            assert labels == [r for r, (g, c) in rates.items() if vdot(g, delta) > c]
            counts["improving" if labels else "optimal"] += 1
    assert dict(counts) == {"improving": 378, "optimal": 217}


def test_a_warm_section_ends_at_the_cold_optimum_where_it_is_unique():
    # Each section of a family in the corpus starts at the optimum of the
    # family's previous section, as bin_search's probes do. Where the cold
    # section's optimum is unique (no edge of rate zero), the warm walk ends
    # at the same vertex with the same lifted point; a rejected cold section
    # is rejected warm too.
    import rankgames.paramlp as paramlp

    counts = Counter()
    family = start = None
    for _, fam, p, lifted, betas, delta in section_corpus():
        if fam is not family:
            family, start = fam, None
        try:
            cold = paramlp._section(fam, delta)
        except DegeneratePolytope:
            cold = None
        if start is not None:
            try:
                warm = paramlp._section(fam, delta, start)
            except DegeneratePolytope:
                warm = None
            if cold is None:
                assert warm is None
                counts["rejected"] += 1
            elif all(vdot(g, delta) != c
                     for g, c in reference_edge_rates(p, cold.v, betas).values()):
                assert (warm.v.basis, warm.w_coords) == (cold.v.basis, cold.w_coords)
                counts["unique"] += 1
            else:
                counts["tied"] += 1
        if cold is not None:
            start = cold.v
    assert dict(counts) == {"unique": 114, "tied": 7, "rejected": 6}


def test_integer_lifted_section_matches_the_fraction_reference(monkeypatch):
    # At every vertex a section walk visits, optimal or not, the integer
    # lifted section returns the reference's point or raises its error with
    # its message: on the section corpus, and on the 60 seeded rank-k draws
    # decomposed as the CLI does (so betas may be fractions and the lifted
    # rows carry scales), at the box centre and both corners. The Fraction
    # rates are the reference's, off the dots with each basis column.
    import rankgames.paramlp as paramlp

    visited = []
    real = paramlp.section_rows
    monkeypatch.setattr(
        paramlp, "section_rows", lambda p, v, betas: visited.append(v) or real(p, v, betas)
    )

    def outcome(lift):
        try:
            return lift()
        except RankGamesError as exc:
            return type(exc).__name__, str(exc)

    counts = Counter()
    for fam, delta in [*_corpus_sections(), *_rank_k_corpus_sections()]:
        visited.clear()
        try:
            paramlp._section(fam, delta)
        except DegeneracyError:
            pass
        p, lifted, betas = fam.p, fam.qp, fam.betas
        objective = integer_objective(fam.int_betas, delta)
        for v in visited:
            rates = reference_edge_rates(p, v, betas)
            rows = real(p, v, fam.int_betas)
            ours = outcome(lambda: lifted_section(p, lifted, v, rows, delta, objective).w_coords)
            assert ours == outcome(lambda: fraction_lifted_section(lifted, betas, v, rates, delta))
            counts[ours[0] if isinstance(ours[0], str) else "point"] += 1
    assert dict(counts) == {"point": 388, "NonzeroOptimum": 469, "RankGamesError": 91}


def _rank_k_corpus():
    """(family, gammas) of the rank-k corpus: the 60 draws of
    random.Random(11) decomposed as the CLI does."""
    rng = random.Random(11)
    for g in range(60):
        k, size = 2 + g % 2, 3 + (g // 2) % 3
        a, betas, gammas = random_rank_k(rng, k, size, size)
        d = decompose_rank_k(family_game(a, -a, gammas, betas))
        yield GameFamily(d.a, -d.a, *d.betas), d.gammas


def _box_points(gammas):
    """The box centre and both corners."""
    lows, highs = box_bounds(gammas)
    return tuple((lo + hi) / 2 for lo, hi in zip(lows, highs)), lows, highs


def _rank_k_corpus_sections():
    """(family, delta) of the rank-k corpus at the box centre and both
    corners."""
    for fam, gammas in _rank_k_corpus():
        for delta in _box_points(gammas):
            yield fam, delta


def _wide_12x12_sections():
    """(family, (delta,)) of three wide-span 12x12 rank-1 games at min
    gamma, max gamma and their midpoint."""
    rng = random.Random(12)
    for _ in range(3):
        d = random_rank1(rng, 12, 12, span=99, gamma_span=20, beta_span=50)
        fam = GameFamily(d.a, d.a.scale(-1), d.beta)
        lo, hi = min(d.gamma), max(d.gamma)
        for delta in (lo, hi, (lo + hi) / 2):
            yield fam, (delta,)


def _corpus_sections():
    """(family, delta) of the section corpus."""
    return [(fam, delta) for _, fam, *_, delta in section_corpus()]


def test_section_rows_equal_the_dots_with_each_basis_column(monkeypatch):
    # At every vertex that a section walks, on the section corpus, the
    # rank-k corpus (centre and both corners) and three wide 12x12 rank-1
    # games, the rows read off P's tableau give each basis label's g_r and
    # c_r, and beta . y and pi1 at the vertex, equal to the integer dots
    # with its column on the tableau and with the tableau's rhs
    # (fixtures.column_dots).
    import rankgames.paramlp as paramlp

    visited = []
    real = paramlp.section_rows
    monkeypatch.setattr(
        paramlp, "section_rows", lambda p, v, betas: visited.append(v) or real(p, v, betas)
    )
    sections = [*_corpus_sections(), *_rank_k_corpus_sections(), *_wide_12x12_sections()]
    counts = Counter()
    for fam, delta in sections:
        visited.clear()
        try:
            paramlp._section(fam, delta)
        except DegeneracyError:
            pass
        p, betas = fam.p, fam.int_betas
        for v in visited:
            rows = real(p, v, betas)
            columns, (beta_y, pi1) = column_dots(p, v, betas)
            cols = rows.tab.cols
            assert list(columns) == list(cols)
            for j, r in enumerate(cols):
                g = tuple(-p.scales[r] * row[j] for row in rows.betas)
                assert (g, -p.scales[r] * rows.pi1[j]) == columns[r]
            assert (tuple(row[-1] for row in rows.betas), rows.pi1[-1]) == (beta_y, pi1)
            counts["rank-k" if fam.k > 1 else "rank-1"] += 1
    assert dict(counts) == {"rank-1": 428, "rank-k": 584}


def test_cell_rows_and_pieces_match_the_fraction_rates(monkeypatch):
    # At every vertex that the cell walk or a section walk (box centre and
    # both corners) visits on the rank-k corpus, and on each draw's family
    # with a / 7, whose rows of P carry a scale of 7, each integer cell row is
    # the reference's half-space g_r . a <= c_r times the positive unit
    # Q * denom, the piece's fixed point is the Fraction solve of
    # (I + Gamma_B G_B) a = Gamma_B c_B on the reference rates, and there the
    # section walk's sign test finds no improving label exactly where no
    # reference rate is positive. The cell walk reads each vertex's rows
    # once, when it reaches it: the start's are its section's.
    import rankgames.algorithms as algorithms
    import rankgames.paramlp as paramlp

    real = {name: getattr(algorithms, name)
            for name in ("solve_lp_k", "section_rows", "cell_rows")}
    real_rows = paramlp.section_rows
    starts, read, walked, visited = [], [], [], {}

    def start_spy(*args):
        starts.append(real["solve_lp_k"](*args))
        return starts[-1]

    def read_spy(p, v, betas):
        read.append((v, real["section_rows"](p, v, betas)))
        return read[-1][1]

    def section_spy(p, v, betas):
        visited.setdefault(v.basis, v)
        return real_rows(p, v, betas)

    monkeypatch.setattr(algorithms, "solve_lp_k", start_spy)
    monkeypatch.setattr(algorithms, "section_rows", read_spy)
    monkeypatch.setattr(algorithms, "cell_rows", lambda fam, rows: (
        walked.append(rows) or real["cell_rows"](fam, rows)))
    monkeypatch.setattr(paramlp, "section_rows", section_spy)
    counts = Counter()
    draws = list(_rank_k_corpus())
    sevenths = [(GameFamily(fam.a.scale(Fraction(1, 7)), fam.a.scale(Fraction(-1, 7)), *fam.betas),
                 gammas) for fam, gammas in draws]
    for kind, fam, gammas in [*(("a", *d) for d in draws), *(("a / 7", *d) for d in sevenths)]:
        for calls in (starts, read, walked, visited):
            calls.clear()
        for delta in _box_points(gammas):
            try:
                paramlp._section(fam, delta)
            except DegeneracyError:
                pass
        try:
            algorithms.fixed_point_search(fam, gammas)
        except DegeneracyError:
            counts[kind, "search gave up"] += 1
        cell_walk = [(s.v, s.rows) for s in starts] + read
        assert [id(rows) for rows in walked] == [id(rows) for _, rows in cell_walk]
        assert len({v.basis for v, _ in cell_walk}) == len(cell_walk)
        counts[kind, "cell walk"] += len(cell_walk)
        visited.update((v.basis, v) for v, _ in cell_walk)
        p, betas = fam.p, fam.betas
        for v in visited.values():
            rows, rates = real_rows(p, v, fam.int_betas), reference_edge_rates(p, v, betas)
            unit, cell = cell_rows(fam, rows)
            assert unit > 0 and list(cell) == list(rates)
            for r, (h, e) in cell.items():
                g, c = rates[r]
                assert (h, e) == (tuple(unit * x for x in g), unit * c)
            a = piece_fixed_point(fam, gammas, unit, cell)
            assert a == reference_piece_fixed_point(fam, gammas, rates)
            if a is None:
                counts[kind, "singular"] += 1
                continue
            in_cell = not improving_labels(rows, integer_objective(fam.int_betas, a).weights)
            assert in_cell == all(vdot(g, a) <= c for g, c in rates.values())
            counts[kind, "in its cell" if in_cell else "outside its cell"] += 1
    # On the corpus itself the cell walk takes 54 starts and reaches 68
    # more vertices; 335 vertices are checked there, and 256 with a / 7.
    assert dict(counts) == {
        ("a", "search gave up"): 7, ("a", "cell walk"): 122, ("a", "singular"): 2,
        ("a", "in its cell"): 66, ("a", "outside its cell"): 267,
        ("a / 7", "search gave up"): 11, ("a / 7", "cell walk"): 125, ("a / 7", "singular"): 2,
        ("a / 7", "in its cell"): 72, ("a / 7", "outside its cell"): 182,
    }


def test_the_cell_walk_builds_one_cell_per_vertex_it_checks(monkeypatch):
    # Over the 60 rank-k draws, fixed_point_search builds the cell_rows of
    # each vertex it checks once, on that vertex's rows: the start's, whose
    # rows are its section's, and each vertex whose rows it reads. The
    # piece's fixed point and the facet LPs both read that one cell.
    import rankgames.algorithms as algorithms
    import rankgames.paramlp as paramlp

    real = {name: getattr(algorithms, name)
            for name in ("solve_lp_k", "section_rows", "cell_rows")}
    checked, built = [], []

    def start_spy(*args):
        start = real["solve_lp_k"](*args)
        checked.append(id(start.rows))
        return start

    def read_spy(*args):
        rows = real["section_rows"](*args)
        checked.append(id(rows))
        return rows

    monkeypatch.setattr(algorithms, "solve_lp_k", start_spy)
    monkeypatch.setattr(algorithms, "section_rows", read_spy)
    for module in (algorithms, paramlp):
        monkeypatch.setattr(module, "cell_rows", lambda fam, rows: (
            built.append(id(rows)) or real["cell_rows"](fam, rows)))
    vertices = 0
    for fam, gammas in _rank_k_corpus():
        checked.clear(), built.clear()
        try:
            algorithms.fixed_point_search(fam, gammas)
        except DegeneracyError:
            pass
        assert built == checked
        vertices += len(checked)
    assert vertices == 122


def test_section_walk_leaves_a_degenerate_start(monkeypatch):
    # Every column of A has tied best rows, so every pure vertex of P is
    # degenerate. The walk starts on one and leaves it by Bland's rule; for
    # -2 < delta < 2 the optimum y = (1/2, 1/2) has the two tight rows 2 and 4.
    import rankgames.paramlp as paramlp

    a = Matrix([[3, 0], [3, 1], [0, 3], [1, 3]])
    fam = GameFamily(a, a.scale(-1), (0, 1))
    bland = []
    real = Polytope.simplex_pivot
    monkeypatch.setattr(
        Polytope, "simplex_pivot", lambda self, v, r: bland.append(r) or real(self, v, r)
    )
    for delta in (-1, 0, Fraction(3, 2)):
        sec = paramlp._section(fam, (Fraction(delta),))
        v, w_coords = sec.v, sec.w_coords
        ref = solve_lp(polytope_lp(fam.p, section_objective((fam.beta,), (delta,))))
        assert v.coords == ref.point and v.coords[:2] == (Fraction(1, 2), Fraction(1, 2))
        assert v.labels == {2, 4}
        assert w_coords == lifted_lp_point(fam.qp, (delta,))
    assert bland


def test_solve_lp_k_zero_objective_at_box_corner(k2):
    d, kfam = k2
    lows, _ = box_bounds(d.gammas)
    opt = solve_lp_k(kfam, lows)
    total = sum(
        (lows[l] * vdot(d.betas[l], opt.v_coords[: kfam.n]) for l in range(d.k)),
        Fraction(0),
    )
    assert total - opt.v_coords[kfam.n] - opt.w_coords[kfam.m + kfam.k] == 0


def test_solve_lp_k_sections_distinct(k2):
    d, kfam = k2
    lows, highs = box_bounds(d.gammas)
    a1 = tuple(lo + (hi - lo) / 3 for lo, hi in zip(lows, highs))
    a2 = tuple(lo + 2 * (hi - lo) / 3 for lo, hi in zip(lows, highs))
    o1 = solve_lp_k(kfam, a1)
    o2 = solve_lp_k(kfam, a2)
    g1 = tuple(
        a1[l] + vdot(d.betas[l], o1.v_coords[: kfam.n]) for l in range(d.k)
    )
    g2 = tuple(
        a2[l] + vdot(d.betas[l], o2.v_coords[: kfam.n]) for l in range(d.k)
    )
    assert g1 != g2


def test_solve_lp_k_unique_w_side_under_permutation(k2):
    # Permuting the row order of the game permutes the section point the same
    # way; the optimal lifted-side point is unique either way.
    d, kfam = k2
    lows, highs = box_bounds(d.gammas)
    rng = random.Random(3)
    perm = [1, 2, 0]
    a_perm = Matrix([kfam.a.row(i) for i in perm])
    betas = d.betas
    kfam_perm = GameFamily(a_perm, -a_perm, *betas)
    for _ in range(10):
        a = tuple(
            lo + (hi - lo) * Fraction(rng.randint(1, 99), 100)
            for lo, hi in zip(lows, highs)
        )
        w = solve_lp_k(kfam, a).w_coords
        w_perm = solve_lp_k(kfam_perm, a).w_coords
        assert tuple(w_perm[i] for i in range(kfam.m)) == tuple(
            w[perm[i]] for i in range(kfam.m)
        )
        assert w_perm[kfam.m:] == w[kfam.m:]


def test_fixed_point_eval_maps_into_box(k2):
    d, kfam = k2
    lows, highs = box_bounds(d.gammas)
    rng = random.Random(77)
    for _ in range(8):
        a = tuple(
            lo + (hi - lo) * Fraction(rng.randint(0, 64), 64)
            for lo, hi in zip(lows, highs)
        )
        fa = fixed_point_eval(kfam, d.gammas, a)
        assert all(lo <= v <= hi for v, lo, hi in zip(fa, lows, highs))


def test_fixed_point_eval_fixed_at_equilibrium_lambda(r1a_family):
    kfam = GameFamily(R1A.a, -R1A.a, R1A.beta)
    fa = fixed_point_eval(kfam, [R1A.gamma], (R1A_NE_LAMBDA,))
    assert fa == (R1A_NE_LAMBDA,)


def test_fixed_point_eval_out_of_box(k2):
    d, kfam = k2
    _, highs = box_bounds(d.gammas)
    with pytest.raises(OutOfBox):
        fixed_point_eval(kfam, d.gammas, tuple(h + 1 for h in highs))


def test_a_lambda_of_the_wrong_length_is_a_dimension_mismatch(k2):
    # The section, the box map and the cell walk check the shapes before
    # anything else: a too-long a whose first k entries lie in the box is a
    # shape error, not a point outside the box, as is a too-short one, and
    # so is a gamma too many or too few.
    from rankgames.algorithms import fixed_point_search

    d, kfam = k2
    centre, _, _ = _box_points(d.gammas)
    for wrong in ((), centre[:1], (*centre, centre[0])):
        with pytest.raises(DimensionMismatch, match=f"delta has length {len(wrong)}, expected 2"):
            solve_lp_k(kfam, wrong)
        with pytest.raises(DimensionMismatch, match=f"{len(wrong)} lambdas and 2 gammas for 2"):
            fixed_point_eval(kfam, d.gammas, wrong)
    for gammas in (d.gammas[:1], (*d.gammas, d.gammas[0])):
        with pytest.raises(DimensionMismatch, match=f"2 lambdas and {len(gammas)} gammas for 2"):
            fixed_point_eval(kfam, gammas, centre)
        with pytest.raises(DimensionMismatch, match=f"delta has length {len(gammas)}"):
            fixed_point_search(kfam, gammas)


def test_fixed_point_eval_piecewise_linear_probe(k2):
    # Three collinear points inside one linearity piece: the middle value is
    # the average of the ends (or a basis change breaks collinearity, which we
    # detect and skip).
    d, kfam = k2
    lows, highs = box_bounds(d.gammas)
    rng = random.Random(20)
    seen_affine = 0
    for _ in range(10):
        base = tuple(
            lo + (hi - lo) * Fraction(rng.randint(10, 50), 100)
            for lo, hi in zip(lows, highs)
        )
        stepv = tuple((hi - lo) / 512 for lo, hi in zip(lows, highs))
        pts = [
            tuple(b + i * s for b, s in zip(base, stepv)) for i in range(3)
        ]
        vals = [fixed_point_eval(kfam, d.gammas, p) for p in pts]
        mid_expected = tuple((a + c) / 2 for a, c in zip(vals[0], vals[2]))
        if vals[1] == mid_expected:
            seen_affine += 1
    assert seen_affine >= 8  # tiny steps stay within one piece almost always


def _large_rank1_draws():
    """The first large rank-1 draw at 16x16 and at 32x32: ``random_rank1``
    of a fresh random.Random(11) with entries in -99..99, gamma in -20..20
    and beta in 1..50."""
    for s in (16, 32):
        yield random_rank1(random.Random(11), s, s, span=99, gamma_span=20, beta_span=50)


def _run_kernel_corpora():
    """Every section of the section corpus, the 60 rank-k draws' cell walks,
    the small-entry yardstick's walks, and ``bin_search`` and
    ``enumerate_rank1`` on the large draws, and on the large draws and the
    yardstick's rank-1 games as the CLI decomposes them (``cli_rank1_draws``:
    gamma is fractional on the large ones); a degeneracy is passed over."""
    import rankgames.algorithms as algorithms
    import rankgames.paramlp as paramlp

    for _, fam, *_, delta in section_corpus():
        try:
            paramlp._section(fam, delta)
        except DegeneracyError:
            pass
    for fam, gammas in _rank_k_corpus():
        try:
            algorithms.fixed_point_search(fam, gammas)
        except DegeneracyError:
            pass
    for _ in _yardstick_walks():
        pass
    for d in _large_rank1_draws():
        algorithms.bin_search(d)
        algorithms.enumerate_rank1(d)
    for _, d in cli_rank1_draws("large", "yardstick"):
        for run in (algorithms.bin_search, algorithms.enumerate_rank1):
            try:
                run(d)
            except DegeneracyError:
                pass


def test_every_kernel_division_is_exact(monkeypatch):
    # Every entry of a fraction-free pivot and of a Bareiss determinant is a
    # subdeterminant of the starting integer rows, so each // divides
    # exactly. Checked copies of linalg.exchange_pivot and of
    # integer_determinant's Bareiss loop assert it, patched in wherever the
    # package binds them, over the section corpus, the 60 rank-k draws'
    # cell walks, the small-entry yardstick's walks and the solves of the
    # large draws and the yardstick, as generated and as the CLI decomposes
    # them. Each pivot call must give the kernel's rows and denominator,
    # share the rows the kernel shares and leave its input as it was; each
    # determinant call must give the kernel's value.
    import sys

    import rankgames.linalg as linalg

    real = {"exchange_pivot": linalg.exchange_pivot,
            "integer_determinant": linalg.integer_determinant}
    calls = Counter()

    def pivot_spy(rows, r, c, d, at=None):
        before = list(map(tuple, rows))
        want = real["exchange_pivot"](rows, r, c, d, at)
        got = checked_exchange_pivot(rows, r, c, d, at)
        assert got == want and list(map(tuple, rows)) == before
        assert [x is y for x, y in zip(got[0], rows)] == [x is y for x, y in zip(want[0], rows)]
        calls["exchange_pivot"] += 1
        return want

    def determinant_spy(a):
        want = real["integer_determinant"]([list(row) for row in a])
        assert checked_integer_determinant(a) == want
        calls["integer_determinant"] += 1
        return want

    spies = {"exchange_pivot": pivot_spy, "integer_determinant": determinant_spy}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rankgames":
            for attr, spy in spies.items():
                if vars(module).get(attr) is real[attr]:
                    monkeypatch.setattr(module, attr, spy)
    _run_kernel_corpora()
    # Every build exchange and every path step calls the kernel, so a pivot
    # or a build that went round it would make the first count fall. A
    # zero payoff row is no sign row, so its builds exchange it too.
    assert calls == {"exchange_pivot": 10765, "integer_determinant": 1608}


def test_every_tableau_denominator_is_within_the_hadamard_bound(monkeypatch):
    # A tableau's denominator is |det| of its basis rows over the z columns:
    # d of the polytope's integer rows. So Hadamard's inequality bounds its
    # square by the product of the d largest squared norms of those rows
    # over the z columns, the polynomial size of a vertex that the paper's
    # bound rests on. Every tableau that a build or a pivot makes is
    # compared with it in integers, over the corpora of the exact-division
    # test.
    bounds, bits = {}, []

    def check(poly, tab):
        if poly not in bounds:
            norms = sorted((sum(x * x for x in row[: poly.dim]) for row in poly.int_rows),
                           reverse=True)
            bounds[poly] = prod(norms[: poly.dim])
        assert tab.denom ** 2 <= bounds[poly]
        bits.append(tab.denom.bit_length())
        return tab

    real_build, real_pivot = Polytope._basis_tableau, Polytope._pivot_to
    monkeypatch.setattr(Polytope, "_basis_tableau",
                        lambda self, basis: check(self, real_build(self, basis)))

    def pivot_to(self, *args):
        vertex = real_pivot(self, *args)
        check(self, vertex.tableau)
        return vertex

    monkeypatch.setattr(Polytope, "_pivot_to", pivot_to)
    _run_kernel_corpora()
    # 4,489 tableaux; the largest denominator has 148 bits.
    assert len(bits) > 2000 and max(bits) > 100
