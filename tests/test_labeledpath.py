import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest

import rankgames.labeledpath
import rankgames.linalg
import rankgames.lp

from rankgames.algorithms import bin_search, enumerate_general, enumerate_rank1, general_family
from rankgames.errors import ConstantBeta, DegeneracyError, NotFullyLabeled, RankGamesError, SeedOnPath
from rankgames.labeledpath import (
    V_FIXED,
    W_FIXED,
    export_lines,
    make_node,
    node_sign,
    step,
    trace_cycle,
    trace_path,
    walk,
)
from rankgames.games import BimatrixGame
from rankgames.linalg import Matrix, determinant, sign
from rankgames.polytope import GameFamily, Polytope

from fixtures import (
    EX1_A,
    EX1_C,
    EX1_CYCLE_P_DECIMALS,
    EX1_CYCLE_P_VERTICES,
    EX1_PATH_P_VERTICES,
    ex1_family,
    full_node_sign,
    fully_labeled_pairs,
    g_value,
    nondegenerate_rank1_fixtures,
    ray_anchors,
    random_rank1,
    record_faults,
)


@pytest.fixture(scope="module")
def ex1():
    return ex1_family()


@pytest.fixture(scope="module")
def ex1_path(ex1):
    return trace_path(ex1)


@pytest.fixture(scope="module")
def ex1_cycle(ex1, ex1_path):
    path_keys = {u.key() for u in ex1_path.nodes}
    seed_pair = next(
        (v, w)
        for v, w in fully_labeled_pairs(ex1)
        if (v.basis, w.basis) not in path_keys
    )
    return trace_cycle(ex1, make_node(ex1, *seed_pair))


def test_start_node_sign_is_positive(ex1):
    v_s, ray = ex1.ray(high=False)
    u0 = make_node(ex1, v_s, ray.base)
    assert u0.sign == 1
    assert u0.duplicate == ex1.m + ray_anchors(EX1_A, EX1_C, ex1.beta).jstar_s


def test_make_node_rejects_partial_labeling(ex1):
    v_s = ex1.ray(high=False)[0]
    w_bad = ex1.qp.vertex_from_basis({1, 2, ex1.m + 1, ex1.m + 2})
    # x3 = 1 with columns 1,2 tight: rows 1,2 and label 3 missing from the union
    with pytest.raises(NotFullyLabeled):
        make_node(ex1, v_s, w_bad)


def test_path_matches_worked_example(ex1, ex1_path):
    vertices = []
    for node in ex1_path.nodes:
        vt = (node.v.coords[:3], node.v.coords[3])
        if vt not in vertices:
            vertices.append(vt)
    assert tuple(vertices) == EX1_PATH_P_VERTICES


def test_path_edges_alternate_and_signs_flip(ex1_path):
    kinds = [e.kind for e in ex1_path.edges]
    assert kinds[0] == V_FIXED and kinds[-1] == V_FIXED
    for first, second in zip(kinds, kinds[1:]):
        assert first != second
    signs = [u.sign for u in ex1_path.nodes]
    assert signs[0] == 1
    for s, t in zip(signs, signs[1:]):
        assert s * t == -1


def test_path_rays_span_the_lambda_bounds(ex1, ex1_path):
    first, last = ex1_path.edges[0], ex1_path.edges[-1]
    sd = ray_anchors(EX1_A, EX1_C, ex1.beta)
    assert first.moving.unbounded and last.moving.unbounded
    assert ex1.lambda_of(first.moving.base) == sd.lambda_s
    assert ex1.lambda_of(last.moving.base) == sd.lambda_e
    assert first.moving.direction[ex1.m] < 0  # to -infinity
    assert last.moving.direction[ex1.m] > 0  # to +infinity


def test_cycle_matches_worked_example(ex1_cycle):
    got = {(u.v.coords[:3], u.v.coords[3]) for u in ex1_cycle.nodes}
    assert got == set(EX1_CYCLE_P_VERTICES)
    assert len(ex1_cycle.nodes) == 6
    assert len(ex1_cycle.edges) == 6


def test_cycle_vertices_match_printed_decimals(ex1_cycle):
    exact = {(u.v.coords[:3], u.v.coords[3]) for u in ex1_cycle.nodes}
    for coords, payoff in EX1_CYCLE_P_DECIMALS:
        hit = any(
            all(abs(float(c) - d) <= 0.01 for c, d in zip(v, coords))
            and abs(float(p) - payoff) <= 0.01
            for v, p in exact
        )
        assert hit, (coords, payoff)


def test_cycle_sign_alternation_wraps(ex1_cycle):
    signs = [u.sign for u in ex1_cycle.nodes]
    for s, t in zip(signs, signs[1:] + signs[:1]):
        assert s * t == -1


def test_cycle_edge_kinds_alternate_wrapping(ex1_cycle):
    kinds = [e.kind for e in ex1_cycle.edges]
    for a, b in zip(kinds, kinds[1:] + kinds[:1]):
        assert a != b


def test_step_reversibility(ex1, ex1_path):
    u0 = ex1_path.nodes[0]
    edge, u1 = step(ex1, u0, "P")
    assert edge.kind == W_FIXED
    back_edge, u0_again = step(ex1, u1, "P")
    assert u0_again.key() == u0.key()
    edge_q, u2 = step(ex1, u1, "Q")
    _, u1_again = step(ex1, u2, "Q")
    assert u1_again.key() == u1.key()


def test_step_traverses_worked_path(ex1, ex1_path):
    # Alternating relaxations starting in P reach the far endpoint.
    node = ex1_path.nodes[0]
    sides = ["P", "Q", "P"]
    for side in sides:
        _, node = step(ex1, node, side)
    assert node.v.coords == (1, 0, 0, 9)


def test_cycle_retrace_is_identical(ex1, ex1_cycle):
    again = trace_cycle(ex1, ex1_cycle.nodes[0])
    assert [u.key() for u in again.nodes] == [u.key() for u in ex1_cycle.nodes]


def test_trace_cycle_rejects_path_seed(ex1, ex1_path):
    with pytest.raises(SeedOnPath):
        trace_cycle(ex1, ex1_path.nodes[0])


def test_path_records_keep_the_dataclass_contract(ex1, ex1_path, ex1_cycle):
    # Both rays, the path's bounded edges and a cycle's, with every node,
    # and the vertices and polytope edges that they pair and move along.
    nodes, edges = (*ex1_path.nodes, *ex1_cycle.nodes), (*ex1_path.edges, *ex1_cycle.edges)
    records = [*nodes, *edges, *(u.v for u in nodes), *(u.w for u in nodes),
               *(e.moving for e in edges)]
    assert {type(r).__name__ for r in records} == {
        "PathNode", "PathEdge", "Vertex", "EdgeDescriptor"}
    assert [fault for record in records for fault in record_faults(record)] == []


def test_export_lines_shape(ex1, ex1_path):
    lines = export_lines(ex1, ex1_path)
    assert lines[0].startswith("trace kind=path")
    node_lines = [l for l in lines if l.startswith("node ")]
    edge_lines = [l for l in lines if l.startswith("edge ")]
    assert len(node_lines) == len(ex1_path.nodes)
    assert len(edge_lines) == len(ex1_path.edges)
    assert "sign=+1" in node_lines[0]
    assert "dup=4" in node_lines[0]


def test_trivial_1x2_path():
    # Two row-polytope vertices pair with the single lifted vertex: two nodes
    # joined by one bounded edge, rays on both sides.
    fam = GameFamily(Matrix([[0, 1]]), Matrix([[0, -1]]), (1, 2))
    trace = trace_path(fam)
    assert len(trace.nodes) == 2
    assert len(trace.edges) == 3
    assert trace.edges[0].moving.unbounded and trace.edges[-1].moving.unbounded
    assert not trace.edges[1].moving.unbounded
    assert len(fully_labeled_pairs(fam)) == 2


def test_random_rank1_paths_alternate_and_are_monotone():
    fixtures = nondegenerate_rank1_fixtures(
        seed=31,
        count=12,
        min_mn=2,
        max_mn=4,
        pipeline=lambda d: trace_path(GameFamily(d.a, d.a.scale(-1), d.beta)),
    )
    for d in fixtures:
        fam = GameFamily(d.a, d.a.scale(-1), d.beta)
        trace = trace_path(fam)
        signs = [u.sign for u in trace.nodes]
        for s, t in zip(signs, signs[1:]):
            assert s * t == -1
        gs = [g_value(fam, u) for u in trace.nodes]
        assert all(b > a for a, b in zip(gs, gs[1:]))
        lams = [fam.lambda_of(u.w) for u in trace.nodes]
        assert all(b >= a for a, b in zip(lams, lams[1:]))
        bys = [gv - lam for gv, lam in zip(gs, lams)]
        assert all(b >= a for a, b in zip(bys, bys[1:]))


def test_rank1_paths_cover_all_fully_labeled_pairs():
    fixtures = nondegenerate_rank1_fixtures(
        seed=77,
        count=8,
        min_mn=2,
        max_mn=4,
        pipeline=lambda d: trace_path(GameFamily(d.a, d.a.scale(-1), d.beta)),
    )
    for d in fixtures:
        fam = GameFamily(d.a, d.a.scale(-1), d.beta)
        trace = trace_path(fam)
        pairs = fully_labeled_pairs(fam)
        trace_keys = {u.key() for u in trace.nodes}
        pair_keys = {(v.basis, w.basis) for v, w in pairs}
        assert trace_keys == pair_keys  # no cycles on rank-1 instances


def test_rays_match_closed_form_anchors():
    # Both rays, and the traced path's first and last edges, against the
    # column-ratio reference on rank-1 and general families whose extremes
    # and lambda bounds are unique: the rays' bases, and tableaux on both
    # vertices and the edge, as every walked edge carries them.
    games = [(d.a, d.a.scale(-1), d.beta) for d in nondegenerate_rank1_fixtures(
        seed=5, count=10, min_mn=2, max_mn=5,
        pipeline=lambda d: trace_path(GameFamily(d.a, d.a.scale(-1), d.beta)),
    )]
    rng = random.Random(5)
    for size in (2, 3, 4, 5) * 3:
        a, c = (Matrix([[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)])
                for _ in range(2))
        games.append((a, c, tuple(rng.randint(1, 9) for _ in range(size))))
    checked = 0
    for a, c, beta in games:
        try:
            sd = ray_anchors(a, c, beta)
        except DegeneracyError:
            continue
        fam = GameFamily(a, c, beta)
        path = trace_path(fam)
        ends = [(False, sd.lambda_s, sd.jstar_s, path.edges[0]),
                (True, sd.lambda_e, sd.jstar_e, path.edges[-1])]
        for high, lam, jstar, edge in ends:
            v, ray = fam.ray(high)
            i, j = (sd.i_e, sd.j_e) if high else (sd.i_s, sd.j_s)
            assert v.basis == {i} | {fam.m + col for col in range(1, fam.n + 1) if col != j}
            tight = {row for row in range(1, fam.m + 1) if row != i} | {fam.m + j}
            assert ray.base.basis == tight | {fam.m + jstar}
            assert fam.ray_bases(high) == (v.basis, ray.base.basis, ray.relaxed)
            assert None not in (v.tableau, ray.base.tableau, ray.tableau, ray.column)
            assert v.coords == sd.pure_vertex(fam.n, a, high)
            assert ray.unbounded and edge.moving.unbounded
            assert fam.lambda_of(ray.base) == lam
            assert ray.relaxed == fam.m + jstar
            assert (ray.direction[fam.m] > 0) == high
            assert edge.fixed.basis == v.basis
            assert edge.moving.base.basis == ray.base.basis
        checked += 1
    assert checked == 18  # of 22; the rest tie an extreme or a lambda bound


def test_tied_max_beta_with_a_second_ray_path_is_rejected():
    # beta's maximum is tied, and 4 fully-labeled pairs open a ray in Q': the
    # family holds two ray-to-ray paths. Dropping the high-end uniqueness
    # check would return one of them as "the" path.
    fam = GameFamily(
        Matrix([[-2, -9, 5], [7, 8, -7], [-4, 6, -5]]),
        Matrix([[7, 4, 0], [3, 2, 1], [8, -9, -4]]),
        (1, 4, 4),
    )
    rays = sum(
        step(fam, make_node(fam, v, w), "Q")[1] is None for v, w in fully_labeled_pairs(fam)
    )
    assert rays == 4
    with pytest.raises(DegeneracyError):
        trace_path(fam)


def test_general_families_partition_into_path_and_cycles():
    # Exhaustive ground truth on random general instances: the traced
    # components are disjoint, stay inside the fully-labeled pair set, and
    # together cover it exactly (every pair has degree two in one component).
    import random

    from rankgames.errors import DegeneracyError
    from rankgames.linalg import Matrix

    rng = random.Random(58)
    done = cyclic = 0
    while done < 12:
        a = Matrix([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        c = Matrix([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        beta = tuple(rng.randint(1, 4) for _ in range(3))
        if len(set(beta)) == 1:
            continue
        try:
            fam = GameFamily(a, c, beta)
            pairs = fully_labeled_pairs(fam)
            path = trace_path(fam)
        except (DegeneracyError, RankGamesError):
            continue
        pair_keys = {(v.basis, w.basis) for v, w in pairs}
        covered = {u.key() for u in path.nodes}
        assert covered <= pair_keys
        remaining = pair_keys - covered
        components = 1
        while remaining:
            key = min(remaining, key=lambda k: (sorted(k[0]), sorted(k[1])))
            v, w = next(p for p in pairs if (p[0].basis, p[1].basis) == key)
            cycle = trace_cycle(fam, make_node(fam, v, w))
            cycle_keys = {u.key() for u in cycle.nodes}
            assert cycle_keys <= pair_keys
            assert not (cycle_keys & covered)
            covered |= cycle_keys
            remaining -= cycle_keys
            components += 1
        assert covered == pair_keys
        if components > 1:
            cyclic += 1
        done += 1
    assert cyclic >= 2  # the batch genuinely exercises cycle components


def test_ex1_pairs_split_into_path_and_cycle(ex1, ex1_path, ex1_cycle):
    pair_keys = {(v.basis, w.basis) for v, w in fully_labeled_pairs(ex1)}
    component_keys = {u.key() for u in ex1_path.nodes} | {
        u.key() for u in ex1_cycle.nodes
    }
    assert pair_keys == component_keys
    assert len(pair_keys) == len(ex1_path.nodes) + len(ex1_cycle.nodes)


def reference_node_sign(family, v, w, duplicate):
    """The node sign from two Fraction matrices built from the payoffs: the
    row player's tight system over (y_Y, y_-Y, pi1) and the column player's,
    built by columns over (lambda, x_X, x_-X, pi2)."""
    m, n = family.m, family.n
    a, c, beta = family.a, family.c, family.beta
    big_x = sorted(lab for lab in v.labels if lab <= m)
    big_y = sorted(lab - m for lab in w.labels if lab > m)
    minus_x = sorted(set(range(1, m + 1)) - set(big_x))
    minus_y = sorted(set(range(1, n + 1)) - set(big_y))
    dup_is_row = duplicate <= m

    y_order = big_y + minus_y
    y_pos = {j: idx for idx, j in enumerate(y_order)}
    ev_rows = [[Fraction(1)] * n + [Fraction(0)]]
    for i in big_x:
        ev_rows.append([a[i - 1, j - 1] for j in y_order] + [Fraction(-1)])
    for j in ([] if dup_is_row else [duplicate - m]) + minus_y:
        unit = [Fraction(0)] * (n + 1)
        unit[y_pos[j]] = Fraction(-1)
        ev_rows.append(unit)
    det_v = determinant(Matrix(ev_rows))

    x_order = big_x + minus_x
    x_pos = {i: idx for idx, i in enumerate(x_order)}
    cols = [[Fraction(0)] + [Fraction(1)] * m + [Fraction(0)]]
    for j in big_y:
        cols.append([beta[j - 1]] + [c[i - 1, j - 1] for i in x_order] + [Fraction(-1)])
    for i in ([duplicate] if dup_is_row else []) + minus_x:
        unit = [Fraction(0)] * (m + 2)
        unit[1 + x_pos[i]] = Fraction(-1)
        cols.append(unit)
    det_w = determinant(Matrix(cols).transpose())
    return sign(det_v * det_w)


def test_node_sign_matches_fraction_reference_on_traces_and_cycles():
    # Every node of the worked example's path and cycle, of seeded rank-1
    # paths and of every component of 16 seeded general families.
    families = [ex1_family()]
    families += [GameFamily(d.a, d.a.scale(-1), d.beta) for d in nondegenerate_rank1_fixtures(
        seed=31, count=12, min_mn=2, max_mn=4,
        pipeline=lambda d: trace_path(GameFamily(d.a, d.a.scale(-1), d.beta)),
    )]
    rng = random.Random(2)
    while len(families) < 29:
        size = 3 + len(families) % 2
        a, c = (Matrix([[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)])
                for _ in range(2))
        fam = GameFamily(a, c, tuple(rng.randint(1, 4) for _ in range(size)))
        try:
            trace_path(fam)
        except (ConstantBeta, DegeneracyError):
            continue
        families.append(fam)
    checked = cycles = 0
    for fam in families:
        components = [trace_path(fam)]
        seen = {u.key() for u in components[0].nodes}
        for v, w in fully_labeled_pairs(fam):
            if (v.basis, w.basis) not in seen:
                components.append(trace_cycle(fam, make_node(fam, v, w)))
                seen |= {u.key() for u in components[-1].nodes}
                cycles += 1
        for u in (u for comp in components for u in comp.nodes):
            assert node_sign(fam, u.v, u.w, u.duplicate) == u.sign
            assert reference_node_sign(fam, u.v, u.w, u.duplicate) == u.sign
            checked += 1
    assert (checked, cycles) == (220, 4)


def _wide_general_family(rng, size):
    """The general embedding of the next size x size game with entries in
    [-99, 99] drawn from ``rng`` whose path traces, and that path."""
    while True:
        a, b = (Matrix([[rng.randint(-99, 99) for _ in range(size)] for _ in range(size)])
                for _ in range(2))
        fam = general_family(BimatrixGame(a, b))
        try:
            return fam, trace_path(fam)
        except DegeneracyError:
            continue


def _spy_node_signs(monkeypatch) -> dict[str, list[int]]:
    """Check the sign of every node that a walk starts from or steps to, in
    ``labeledpath``, through which every walk calls ``node_sign`` and
    ``step``: each equals the sign of the full systems (``full_node_sign``),
    and each step's far node has the opposite of its near node's sign.
    Returns the checked signs by the function that gave them."""
    real_sign, real_step = rankgames.labeledpath.node_sign, rankgames.labeledpath.step
    signs = {"node_sign": [], "step": []}

    def checked_sign(family, v, w, duplicate):
        signs["node_sign"].append(real_sign(family, v, w, duplicate))
        assert signs["node_sign"][-1] == full_node_sign(family, v, w, duplicate)
        return signs["node_sign"][-1]

    def checked_step(family, node, side):
        edge, far = real_step(family, node, side)
        if far is not None:
            assert far.sign == -node.sign
            assert far.sign == full_node_sign(family, far.v, far.w, far.duplicate)
            signs["step"].append(far.sign)
        return edge, far

    monkeypatch.setattr(rankgames.labeledpath, "node_sign", checked_sign)
    monkeypatch.setattr(rankgames.labeledpath, "step", checked_step)
    return signs


def test_node_sign_matches_the_full_systems_past_the_seed_sizes(monkeypatch):
    # Every node made while tracing wide-entry general paths at 8x8 to 14x14
    # and walking the rank-1 paths of six 12x12 and 16x16 games, whether its
    # sign came from node_sign or from a step: supports are far smaller than
    # n there, so the support block is much smaller than the full systems.
    signs = _spy_node_signs(monkeypatch)
    rng = random.Random(18)
    for size in (8, 10, 12, 14):
        _wide_general_family(rng, size)
    rng = random.Random(11)
    for size in (12, 12, 12, 16, 16, 16):
        enumerate_rank1(random_rank1(rng, size, size, span=99, gamma_span=20, beta_span=50))
    walked = signs["node_sign"] + signs["step"]
    assert len(walked) == 631 and set(walked) == {-1, 1}


def test_node_sign_takes_bareiss_on_the_support_block_only(monkeypatch):
    # The sign rows are expanded away: P's determinant has order |supp y| + 1
    # and Q''s |supp x| + 2, where the full systems have n + 1 and m + 2.
    # Only a walk's start takes them, both at once: the low ray's node of a
    # traced path, and both nodes of the section edge that enumerate_rank1
    # walks from, of a 16x16 draw. A step takes none.
    real_det, real_sign = rankgames.labeledpath.integer_determinant, node_sign
    orders, expected = [], []

    def sized(rows):
        orders.append(len(rows))
        return real_det(rows)

    def supports(family, v, w, duplicate):
        y, x = v.coords[: family.n], w.coords[: family.m]
        expected.extend((sum(map(bool, y)) + 1, sum(map(bool, x)) + 2))
        return real_sign(family, v, w, duplicate)

    fam, _ = _wide_general_family(random.Random(12), 12)
    d = random_rank1(random.Random(11), 16, 16, span=99, gamma_span=20, beta_span=50)
    monkeypatch.setattr(rankgames.labeledpath, "integer_determinant", sized)
    monkeypatch.setattr(rankgames.labeledpath, "node_sign", supports)
    path = trace_path(fam)
    assert orders == expected and len(orders) == 2 and max(orders) < 13
    assert len(path.nodes) == 114
    orders.clear(), expected.clear()
    assert len(enumerate_rank1(d)) == 1
    assert orders == expected and len(orders) == 4 and max(orders) < 17


def _walk_corpus(name):
    """Run the walks of one named corpus; a walk that meets a degeneracy is
    left where it stops. "sections": the rank-1 families of
    section_corpus(), each family's path and the walk from each section's
    edge to the high ray. "walks": the walks of _walked_edges() and
    _yardstick_walks(). "bench": enumerate_rank1 on the rank1-enumerate
    bench corpus (random.Random(1), sizes 4, 5, 4, 7, 5, 4, 5, 4, 7, 8 three
    times, the wide spans, decomposed as the CLI does). "large-16" and
    "large-32": enumerate_rank1 on the large draw at that size."""
    from test_paramlp import _large_rank1_draws, _walked_edges, _yardstick_walks, section_corpus

    from rankgames.games import decompose_rank1
    from rankgames.paramlp import solve_lp_delta

    if name == "sections":
        traced = None
        for kind, fam, *_, delta in section_corpus():
            if kind == "rank-k":
                continue
            try:
                if fam is not traced:  # a family's sections come together
                    traced = fam
                    trace_path(fam)
                edge = solve_lp_delta(fam, delta[0]).edge
                for _ in walk(fam, edge.head) if edge.head is not None else ():
                    pass
            except DegeneracyError:
                pass
    elif name == "walks":
        for _ in chain(_walked_edges(), _yardstick_walks()):
            pass
    elif name == "bench":
        rng = random.Random(1)
        for s in (4, 5, 4, 7, 5, 4, 5, 4, 7, 8) * 3:
            d = decompose_rank1(random_rank1(rng, s, s, span=99, gamma_span=20,
                                             beta_span=50).game())
            try:
                enumerate_rank1(d)
            except DegeneracyError:
                pass
    else:
        size = int(name.split("-")[1])
        enumerate_rank1(next(d for d in _large_rank1_draws() if d.a.rows == size))


@pytest.mark.parametrize("corpus", ["sections", "walks", "bench", "large-16", "large-32"])
def test_every_walked_node_takes_the_full_systems_sign_and_alternates(monkeypatch, corpus):
    # A step gives its far node the opposite of its near node's sign and
    # takes no determinant; only walk starts take node_sign. The spy checks
    # both against the full systems at every node, and the alternation at
    # every step. The counts are (node_sign nodes, stepped nodes).
    counts = {"sections": (178, 467), "walks": (301, 1293), "bench": (43, 342),
              "large-16": (2, 64), "large-32": (2, 180)}
    signs = _spy_node_signs(monkeypatch)
    _walk_corpus(corpus)
    assert (len(signs["node_sign"]), len(signs["step"])) == counts[corpus]


def test_a_step_that_keeps_its_sign_fails_the_spy(monkeypatch, ex1):
    # The mutant gives one far node its near node's sign, at each step of the
    # worked example's path in turn; the spy must fail at every one.
    steps = len(trace_path(ex1).nodes) - 1
    real = step
    for wrong in range(steps):
        calls = []

        def mutant(family, node, side):
            edge, far = real(family, node, side)
            calls.append(far)
            if far is not None and len(calls) == wrong + 1:
                far = replace(far, sign=node.sign)
                edge = replace(edge, head=far)
            return edge, far

        with monkeypatch.context() as patch:
            patch.setattr(rankgames.labeledpath, "step", mutant)
            _spy_node_signs(patch)
            with pytest.raises(AssertionError):
                trace_path(ex1)
            assert len(calls) == wrong + 1


def _count_calls(monkeypatch, counts):
    """Count calls of the linear solver, the determinant, the generic LP, the
    labeling and the edge through a point, wherever a module holds them."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "rankgames"]
    for owner, name in ((rankgames.linalg, "solve_linear_system"),
                        (rankgames.linalg, "determinant"), (rankgames.lp, "solve_lp")):
        fn = getattr(owner, name)
        wrapper = counted(name, fn)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapper)
    for name in ("labels_at", "edge_through_point"):
        monkeypatch.setattr(Polytope, name, counted(name, getattr(Polytope, name)))


def test_walk_makes_no_solve_labeling_or_determinant_call(monkeypatch):
    # Past the two rays a step is one tableau pivot: the traced path makes
    # exactly the calls its two rays make on their own.
    rng = random.Random(5)
    a, b = (Matrix([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]) for _ in range(2))
    fam = GameFamily(a, b, tuple(range(1, 7)))
    counts = Counter()
    _count_calls(monkeypatch, counts)
    fam.ray(high=False)
    fam.ray(high=True)
    ray_counts = Counter(counts)
    counts.clear()
    path = trace_path(fam)
    assert counts == ray_counts
    assert len(path.nodes) == 34


def test_paths_build_no_edge_or_labels_from_points(monkeypatch):
    # Both rays are built from their bases, and each section's edge is read
    # off P's tableau: enumerate_general, trace_path, bin_search and
    # enumerate_rank1 make no Polytope.edge_through_point, no
    # Polytope.labels_at and no lp.solve_lp call: only the rank-k cell walk
    # solves a generic LP.
    counts = Counter()
    _count_calls(monkeypatch, counts)
    rng = random.Random(5)
    solved = 0
    for size in (3, 4, 5, 6) * 3:
        a, b = (Matrix([[rng.randint(-99, 99) for _ in range(size)] for _ in range(size)])
                for _ in range(2))
        try:
            enumerate_general(BimatrixGame(a, b))
        except DegeneracyError:
            continue
        solved += 1
    nondegenerate_rank1_fixtures(
        seed=5, count=6, pipeline=lambda d: trace_path(GameFamily(d.a, d.a.scale(-1), d.beta)),
    )
    assert solved == 9
    for pipeline in (bin_search, enumerate_rank1):
        assert len(nondegenerate_rank1_fixtures(seed=6, count=12, pipeline=pipeline)) == 12
    assert counts["edge_through_point"] == counts["labels_at"] == counts["solve_lp"] == 0


def ray_degeneracies(a: Matrix, c: Matrix, beta) -> list[tuple[str, str]]:
    """Every degeneracy of the two rays' anchors, as (kind, message), in the
    order the path checks them: constant beta; a tied least, then greatest
    beta; a tied best row of the low, then the high ray's column; a tied
    lambda bound of the low, then the high ray. A bound is looked at only
    where its column and row are unique."""
    m, n = a.rows, a.cols
    beta = [Fraction(b) for b in beta]
    if len(set(beta)) == 1:
        return [("constant beta", "beta is constant; no distinct path endpoints")]
    found, ends, rows = [], [], []
    for kind, extreme in (("least beta", min), ("greatest beta", max)):
        hits = [k for k, b in enumerate(beta) if b == extreme(beta)]
        found += [(kind, f"tied extreme entries at positions {hits}")] * (len(hits) > 1)
        ends.append(hits[0] if len(hits) == 1 else None)
    for kind, j in zip(("low best row", "high best row"), ends):
        col = [] if j is None else a.col(j)
        hits = [i for i, x in enumerate(col) if x == max(col)]
        found += [(kind, f"tied extreme entries at positions {hits}")] * (len(hits) > 1)
        rows.append(hits[0] if len(hits) == 1 else None)
    for kind, i, j, extreme in zip(("low bound", "high bound"), rows, ends, (min, max)):
        if i is None:
            continue
        bounds = {m + k + 1: (c[i, j] - c[i, k]) / (beta[k] - beta[j]) for k in range(n) if k != j}
        hits = [lab for lab, b in bounds.items() if b == extreme(bounds.values())]
        tight = sorted({r + 1 for r in range(m) if r != i} | {m + j + 1})
        found += [(kind, f"ratio tie between rows {hits} leaving {tight}")] * (len(hits) > 1)
    return found


def test_ray_degeneracy_messages_come_in_check_order(monkeypatch):
    # On small-entry families that tie often, trace_path raises the first ray
    # degeneracy of the reference, with its class and message: a tied high
    # extreme is reported before a tied low bound, and the low bound before
    # the high one. Families without one build both rays, off anchors found
    # once a family (four unique-extreme checks) that equal the reference's.
    import rankgames.polytope as polytope

    real_extreme, extremes = polytope._unique_arg_extreme, []

    def extreme(values, want_max):
        extremes.append(want_max)
        return real_extreme(values, want_max)

    monkeypatch.setattr(polytope, "_unique_arg_extreme", extreme)
    rng = random.Random(21)
    seen = Counter()
    for g in range(200):
        size = 3 + g % 2
        a, c = (Matrix([[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)])
                for _ in range(2))
        beta = tuple(rng.randint(1, 3) for _ in range(size))
        fam = GameFamily(a, c, beta)
        found = ray_degeneracies(a, c, beta)
        seen[tuple(kind for kind, _ in found)] += 1
        if not found:
            extremes.clear()
            fam.ray(high=False)
            fam.ray(high=True)
            sd = ray_anchors(a, c, beta)
            assert fam.ray_anchors == ((sd.i_s - 1, sd.j_s - 1), (sd.i_e - 1, sd.j_e - 1))
            assert extremes == [False, True, True, True]
            continue
        kind, message = found[0]
        with pytest.raises(ConstantBeta if kind == "constant beta" else DegeneracyError) as exc:
            trace_path(fam)
        assert str(exc.value) == message
    for pair in [("least beta", "greatest beta"), ("low best row", "high best row"),
                 ("greatest beta", "low bound"), ("high best row", "low bound"),
                 ("low bound", "high bound")]:
        assert seen[pair] > 0
    assert seen[("high bound",)] > 0 and seen[()] > 0
