import random
from collections import Counter
from fractions import Fraction

import pytest

from rankgames.errors import (
    DegeneracyError,
    DegeneratePolytope,
    OutOfBox,
    RankGamesError,
)
from rankgames.games import MixedProfile, decompose_rank_k, family_game, verify_equilibrium
from rankgames.labeledpath import V_FIXED, W_FIXED, trace_path
from rankgames.linalg import Matrix, integers, solve_linear_system, vdot, vscale
from rankgames.lp import EQ, LE, LinearProgram, solve_lp
from rankgames.paramlp import (
    Hyperplane,
    box_bounds,
    crossing_records,
    edge_rates,
    fixed_point_eval,
    integer_objective,
    is_ne,
    lifted_section,
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
    fraction_lifted_section,
    polytope_lp,
    random_rank1,
    random_rank_k,
    ray_anchors,
    reference_section_edge,
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
            vdot(fam.qp.row(m + 1 + j)[0][:m], x) + fam.beta[j] * lam for j in range(n)
        )
        v_coords = tuple(y) + (pi1,)
        w_coords = tuple(x) + (lam, pi2)
        assert section_gap((fam.beta,), v_coords, w_coords) < 0


def test_is_ne_found_at_equilibrium_lambda(r1a_family):
    out = is_ne(r1a_family, R1A.gamma, R1A_NE_LAMBDA)
    assert out.kind == "found"
    hit = out.crossing
    assert hit.w_coords[: r1a_family.m] == R1A_NE_X
    assert hit.v_coords[: r1a_family.n] == R1A_NE_Y


def test_is_ne_below_at_gamma_min(r1a_family):
    assert is_ne(r1a_family, R1A.gamma, min(R1A.gamma)).kind == "below"


def test_is_ne_above_at_gamma_max(r1a_family):
    assert is_ne(r1a_family, R1A.gamma, max(R1A.gamma)).kind == "above"


def test_is_ne_zero_gamma_finds_zero_sum_equilibrium(r1a_family):
    gamma0 = (Fraction(0),) * 3
    out = is_ne(r1a_family, gamma0, Fraction(0))
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
    assert h.value_at(point) == 0


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
    rows = [a for a, _ in lifted.ineqs] + [lifted.eq[0]] + [unit.row(m + l) for l in range(k)]
    rels = [LE] * len(lifted.ineqs) + [EQ] * (k + 1)
    rhs = [b for _, b in lifted.ineqs] + [lifted.eq[1], *delta]
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
    # The hyperplane value at each edge's base and its rate along the edge,
    # as integer dots with the edge's integer base point and direction, equal
    # Hyperplane.value_at on the Fraction coordinates and direction, on every
    # walked edge of both kinds. Section edges, read off P's tableau, carry
    # their integers but no Q' tableau, and fixed section vertices carry no
    # tableau (their value is read off their Fraction coordinates); they are
    # compared too.
    from rankgames.paramlp import _h_linear

    kinds = Counter()
    for gammas, edges in _walked_edges():
        for gamma in gammas:
            h = Hyperplane(gamma)
            for edge in edges:
                if edge.kind == W_FIXED:
                    want = (h.value_at(edge.fixed.coords), 0)
                    on_tableau = edge.fixed.tableau is not None
                else:
                    ed = edge.moving
                    want = (h.value_at(ed.base.coords), h.value_at(ed.direction))
                    on_tableau = ed.tableau is not None
                assert _h_linear(edge, h) == want
                kinds[edge.kind, on_tableau] += 1
    # Per gamma: 20 section edges without a tableau (recounted: still 20)
    # and 20 fixed section vertices, which take the Fraction route; both
    # rays carry tableaux.
    assert kinds == {(V_FIXED, True): 932, (W_FIXED, True): 812,
                     (V_FIXED, False): 40, (W_FIXED, False): 40}


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
            sec = paramlp._section(p, lifted, betas, delta)
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
            rates = edge_rates(p, v, betas).values()
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
        lacks = [fam.qp.row(lab)[0] for lab in range(1, m + fam.n + 1) if lab not in v.labels]
        system = Matrix([fam.qp.eq[0], unit.row(m), *lacks])
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
        assert ours == outcome(lambda: reference_section_edge(fam, sec))
        if isinstance(ours, tuple):
            counts[corpus, ours[1].split(" between")[0]] += 1
            continue
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
    # The walk picks its labels off P's integer tableau: it takes each
    # visited vertex's basis columns once, the optimum's included, and the
    # lifted section keeps the optimum's. No section builds Fraction edge
    # rates, whether it returns or rejects.
    import rankgames.paramlp as paramlp

    rated, taken = [], []
    real_rates, real_columns = paramlp.edge_rates, paramlp.basis_columns

    def columns_spy(p, v):
        taken.append((v.basis, real_columns(p, v)))
        return taken[-1][1]

    monkeypatch.setattr(
        paramlp, "edge_rates", lambda p, v, betas: rated.append(v) or real_rates(p, v, betas)
    )
    monkeypatch.setattr(paramlp, "basis_columns", columns_spy)
    counts = Counter()
    for _, _, p, lifted, betas, delta in section_corpus():
        taken.clear()
        try:
            sec = paramlp._section(p, lifted, betas, delta)
        except DegeneratePolytope:
            counts["rejected"] += 1
            continue
        finally:
            bases = [basis for basis, _ in taken]
            assert len(set(bases)) == len(bases)
        assert bases[-1] == sec.v.basis and sec.columns is taken[-1][1]
        counts["returned"] += 1
    assert rated == []
    assert dict(counts) == {"returned": 179, "rejected": 29}


def test_integer_improving_labels_match_the_fraction_rates(monkeypatch):
    # At every vertex the walk visits, the labels that the integer sign test
    # reads off P's tableau are exactly those of positive Fraction rate
    # g . delta - c: on the section corpus, and on three wide-span 12x12
    # rank-1 games at min gamma, max gamma and their midpoint.
    import rankgames.paramlp as paramlp

    visited = []
    real = paramlp.basis_columns
    monkeypatch.setattr(paramlp, "basis_columns", lambda p, v: visited.append(v) or real(p, v))
    sections = [(p, lifted, betas, delta) for *_, p, lifted, betas, delta in section_corpus()]
    rng = random.Random(12)
    for _ in range(3):
        d = random_rank1(rng, 12, 12, span=99, gamma_span=20, beta_span=50)
        fam = GameFamily(d.a, d.a.scale(-1), d.beta)
        lo, hi = min(d.gamma), max(d.gamma)
        sections += [(fam.p, fam.qp, fam.betas, (delta,)) for delta in (lo, hi, (lo + hi) / 2)]
    counts = Counter()
    for p, lifted, betas, delta in sections:
        visited.clear()
        try:
            paramlp._section(p, lifted, betas, delta)
        except DegeneratePolytope:
            pass
        objective = integer_objective(betas, delta)
        for v in list(visited):  # edge_rates takes columns too
            labels = paramlp.improving_labels(real(p, v), objective)
            rates = edge_rates(p, v, betas)
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
            cold = paramlp._section(p, lifted, betas, delta)
        except DegeneratePolytope:
            cold = None
        if start is not None:
            try:
                warm = paramlp._section(p, lifted, betas, delta, start)
            except DegeneratePolytope:
                warm = None
            if cold is None:
                assert warm is None
                counts["rejected"] += 1
            elif all(vdot(g, delta) != c for g, c in edge_rates(p, cold.v, betas).values()):
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
    # rows carry scales), at the box centre and both corners.
    import rankgames.paramlp as paramlp

    visited = []
    real = paramlp.basis_columns
    monkeypatch.setattr(paramlp, "basis_columns", lambda p, v: visited.append(v) or real(p, v))
    sections = [(p, lifted, betas, delta) for *_, p, lifted, betas, delta in section_corpus()]
    rng = random.Random(11)
    for g in range(60):
        k, size = 2 + g % 2, 3 + (g // 2) % 3
        a, betas, gammas = random_rank_k(rng, k, size, size)
        d = decompose_rank_k(family_game(a, -a, gammas, betas))
        fam = GameFamily(d.a, -d.a, *d.betas)
        lows, highs = box_bounds(d.gammas)
        for delta in (tuple((lo + hi) / 2 for lo, hi in zip(lows, highs)), lows, highs):
            sections.append((fam.p, fam.qp, fam.betas, delta))

    def outcome(lift):
        try:
            return lift()
        except RankGamesError as exc:
            return type(exc).__name__, str(exc)

    counts = Counter()
    for p, lifted, betas, delta in sections:
        visited.clear()
        try:
            paramlp._section(p, lifted, betas, delta)
        except DegeneracyError:
            pass
        objective = integer_objective(betas, delta)
        for v in list(visited):  # edge_rates takes columns too
            rates = edge_rates(p, v, betas)
            columns = real(p, v)
            ours = outcome(lambda: lifted_section(p, lifted, v, columns, delta, objective).w_coords)
            assert ours == outcome(lambda: fraction_lifted_section(lifted, betas, v, rates, delta))
            counts[ours[0] if isinstance(ours[0], str) else "point"] += 1
    assert dict(counts) == {"point": 388, "NonzeroOptimum": 469, "RankGamesError": 91}


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
        sec = paramlp._section(fam.p, fam.qp, (fam.beta,), (Fraction(delta),))
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
