import copy
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

import pytest

from rankgames.errors import (
    ConstantBeta,
    DegeneratePolytope,
    DependentBetas,
    RankGamesError,
    Singular,
    TooLarge,
    ZeroBeta,
)
from rankgames.linalg import (
    Matrix,
    integers,
    least_ratios,
    solve_linear_system,
    vadd,
    vdot,
    vscale,
)
from rankgames.paramlp import solve_lp_k
from rankgames.polytope import (
    EdgeDescriptor,
    GameFamily,
    Polytope,
    Vertex,
    build_p,
    build_qprime,
)

from fixtures import (
    EX1_A,
    EX1_C,
    check_nondegenerate,
    edge_column,
    enumerate_vertices,
    ex1_family,
    feasible,
    fraction_ineqs,
    fraction_polytope_rows,
    fraction_row,
    full_basis_tableau,
    full_pivot,
    n_labels,
    nonbasic_columns,
    reference_z_rows,
    random_rank1,
    random_rank_k,
    ray_anchors,
    record_faults,
    record_views,
    shift,
    tableau_point,
)


def test_build_p_single_strategy_vertex():
    p = build_p(Matrix([[5]]))
    v = p.vertex_from_basis({1})
    assert v.coords == (Fraction(1), Fraction(5))


def test_build_p_worked_example_endpoint():
    p = build_p(EX1_A)
    v = p.vertex_from_basis({1, 4, 6})
    assert v.coords == (Fraction(0), Fraction(1), Fraction(0), Fraction(9))
    assert v.labels == frozenset({1, 4, 6})


def test_build_p_enumerated_vertices_are_feasible():
    rng = random.Random(3)
    for _ in range(5):
        a = Matrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(4)])
        p = build_p(a)
        for v in enumerate_vertices(p):
            assert feasible(p, v.coords)
            assert p.labels_at(v.coords) == v.labels


def test_build_qprime_single_strategy_ray():
    # With one row the lifted polytope has no vertex; the boundary line
    # pi2 = c + beta*lambda carries the single column label.
    q = build_qprime(Matrix([[-7]]), [((2,), 1)])
    assert enumerate_vertices(q) == []
    for lam in (Fraction(-3), Fraction(0), Fraction(5)):
        point = (Fraction(1), lam, -7 + 2 * lam)
        assert feasible(q, point)
        assert q.labels_at(point) == frozenset({2})


def test_build_qprime_rejects_zero_beta():
    with pytest.raises(ZeroBeta):
        build_qprime(Matrix([[1, 2]]), [((0, 0), 1)])


def test_build_qprime_start_vertex_exists():
    fam = ex1_family()
    w = fam.ray(high=False)[1].base
    assert w.coords == (Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(15))
    assert w.labels == frozenset({2, 3, 4, 5})


def test_qprime_slice_matches_direct_best_response_polytope():
    # Substituting lambda = alpha . x turns each lifted column row into the
    # direct polytope row for the alpha game, coefficient by coefficient.
    rng = random.Random(9)
    fam = ex1_family()
    m, n = fam.m, fam.n
    for _ in range(5):
        alpha = tuple(Fraction(rng.randint(-4, 4)) for _ in range(m))
        game_b = fam.game_at(alpha).b
        for j in range(n):
            lifted, _ = fraction_row(fam.qp, m + 1 + j)
            direct = tuple(
                lifted[i] + lifted[m] * alpha[i] for i in range(m)
            )  # fold the lambda coefficient through the substitution
            assert direct == tuple(game_b.col(j))
            assert lifted[m + 1] == -1


def test_pivot_worked_example_step():
    fam = ex1_family()
    v_s = fam.ray(high=False)[0]
    ed = fam.p.pivot(v_s, 4)  # relax the duplicate of the first node
    assert not ed.unbounded
    assert ed.far_end.coords == (
        Fraction(2, 11),
        Fraction(9, 11),
        Fraction(0),
        Fraction(81, 11),
    )


def test_pivot_unbounded_ray():
    fam = ex1_family()
    w0 = fam.ray(high=False)[1].base
    ed = fam.qp.pivot(w0, fam.m + 1)  # relax the bounding column constraint
    assert ed.unbounded
    assert ed.direction[fam.m] < 0  # lambda heads to -infinity


def test_pivot_involution():
    fam = ex1_family()
    v_s = fam.ray(high=False)[0]
    ed = fam.p.pivot(v_s, 4)
    new_label = next(iter(ed.far_end.basis - (v_s.basis - {4})))
    back = fam.p.pivot(ed.far_end, new_label)
    assert back.far_end.coords == v_s.coords
    assert back.far_end.basis == v_s.basis


def test_pivot_involution_over_all_edges():
    # Relax every basis row of every vertex; bounded edges must return home.
    fam = ex1_family()
    for poly in (fam.p, fam.qp):
        for v in enumerate_vertices(poly):
            for label in sorted(v.basis):
                ed = poly.pivot(v, label)
                if ed.unbounded:
                    continue
                new_label = next(iter(ed.far_end.basis - (v.basis - {label})))
                back = poly.pivot(ed.far_end, new_label)
                assert back.far_end.basis == v.basis
                assert back.far_end.coords == v.coords


def fraction_slack(poly, lab, point):
    a, b = fraction_row(poly, lab)
    return b - vdot(a, point)


def fraction_labels(poly, point):
    return frozenset(
        lab for lab in range(1, n_labels(poly) + 1) if fraction_slack(poly, lab, point) == 0
    )


class FractionVertex(NamedTuple):
    coords: tuple
    basis: frozenset
    labels: frozenset


class FractionEdge(NamedTuple):
    direction: tuple
    t_max: Optional[Fraction]
    far_end: Optional[FractionVertex]


def reference_pivot(poly, vertex, relax):
    """The pivot by a fresh d x d solve and Fraction slacks: the direction
    from the equality, the kept basis rows and the relaxed row; the ratio test
    over every row outside the basis; the far vertex's labels from its slacks.
    Its edge and far vertex hold ``Fraction``s only, to compare with the
    views of the records that ``Polytope.pivot`` makes."""
    kept = vertex.basis - {relax}
    rows = [fraction_row(poly, lab)[0] for lab in (0, *sorted(kept), relax)]
    direction = solve_linear_system(
        Matrix(rows), [Fraction(0)] * (len(rows) - 1) + [Fraction(-1)]
    )
    best_t, hits = None, []
    for lab in range(1, n_labels(poly) + 1):
        if lab in vertex.basis:
            continue
        rate = vdot(fraction_row(poly, lab)[0], direction)
        if rate <= 0:
            continue
        t = fraction_slack(poly, lab, vertex.coords) / rate
        if best_t is None or t < best_t:
            best_t, hits = t, [lab]
        elif t == best_t:
            hits.append(lab)
    tight = sorted(vertex.basis)
    if best_t == 0:
        raise DegeneratePolytope(f"extra tight row {hits[0]} leaving {tight}")
    if len(hits) > 1:
        raise DegeneratePolytope(f"ratio tie between rows {hits} leaving {tight}")
    if best_t is None:
        return FractionEdge(direction, None, None)
    coords = vadd(vertex.coords, vscale(best_t, direction))
    far = FractionVertex(coords, kept | {hits[0]}, fraction_labels(poly, coords))
    if len(far.labels) > poly.basis_size:
        raise DegeneratePolytope(f"vertex {sorted(far.basis)} has {len(far.labels)} tight rows")
    return FractionEdge(direction, best_t, far)


def _pivot_outcome(poly, vertex, relax):
    try:
        ed = poly.pivot(vertex, relax)
    except DegeneratePolytope as exc:
        return str(exc)
    return ed


def _reference_outcome(poly, vertex, relax):
    try:
        return reference_pivot(poly, vertex, relax)
    except DegeneratePolytope as exc:
        return str(exc)


def _pivot_corpus():
    """P and Q' of seeded rank-1 and general families, and Q' of rank-k
    ones, with small spans so that degenerate vertices, ties and rays occur."""
    rng = random.Random(8)
    polys = []
    for size in (2, 3, 3, 4):
        d = random_rank1(rng, size, size + 1, span=3, gamma_span=2, beta_span=3)
        fam = GameFamily(d.a, d.a.scale(-1), d.beta)
        polys += [fam.p, fam.qp]
        a, c = (Matrix([[rng.randint(-4, 4) for _ in range(size)] for _ in range(size + 1)])
                for _ in range(2))
        fam = GameFamily(a, c, tuple(rng.randint(1, 4) for _ in range(size)))
        polys += [fam.p, fam.qp]
    for k, size in ((2, 3), (2, 4), (3, 4)):
        a, betas, _ = random_rank_k(rng, k, size, size)
        polys.append(build_qprime(a.scale(-1), [integers(b) for b in betas]))
    return polys


def test_tableau_pivot_matches_fraction_reference_on_every_edge():
    # Every edge of every vertex, then every edge of each far end, whose
    # tableau came from the pivot: direction, step, far vertex and every
    # degeneracy message equal the Fraction reference's. The far end's
    # tableau equals one built from its basis, row for row by basic variable,
    # and pivoting leaves the base vertex's tableau as it was.
    compared = messages = rays = 0
    for poly in _pivot_corpus():
        for v in enumerate_vertices(poly):
            for relax in sorted(v.basis):
                got, want = _pivot_outcome(poly, v, relax), _reference_outcome(poly, v, relax)
                compared += 1
                if isinstance(want, str):
                    assert got == want
                    messages += 1
                    continue
                assert (got.direction, got.t_max) == (want.direction, want.t_max)
                if want.far_end is None:
                    assert got.far_end is None
                    rays += 1
                    continue
                far = got.far_end
                assert (far.coords, far.basis, far.labels) == (
                    want.far_end.coords, want.far_end.basis, want.far_end.labels)
                built = poly.tableau(replace(far, tableau=None))
                assert far.tableau.denom == built.denom
                assert dict(zip(far.tableau.basic, far.tableau.rows)) == dict(
                    zip(built.basic, built.rows))
                snapshot = copy.deepcopy(far.tableau)
                for again in sorted(far.basis):
                    got2 = _pivot_outcome(poly, far, again)
                    want2 = _reference_outcome(poly, far, again)
                    compared += 1
                    if isinstance(want2, str):
                        assert got2 == want2
                        messages += 1
                        continue
                    assert (got2.direction, got2.t_max) == (want2.direction, want2.t_max)
                    assert (got2.far_end is None) == (want2.far_end is None)
                    if got2.far_end is not None:
                        assert (got2.far_end.coords, got2.far_end.labels) == (
                            want2.far_end.coords, want2.far_end.labels)
                assert far.tableau == snapshot
    assert (compared, messages, rays) == (2163, 312, 125)


def test_narrow_tableaux_equal_the_full_width_reference(monkeypatch):
    # Every tableau that a build, a written-down pure vertex of P or a pivot
    # makes equals the full-width reference's nonbasic columns and rhs, row
    # for row, on every row but the z rows of the sign-constrained
    # coordinates, with the same basic variables and denominator; the
    # reference pivots its own full-width tableau alongside. Builds come from
    # every vertex of the pivot corpus, pivots from every edge of each vertex
    # and of its far end (Bland's rule takes the degenerate ones too), and
    # pure vertices and pivots from every section walk, which starts at a
    # written-down pure vertex. The corpus adds P of a game with a zero row
    # of A (-pi1 <= 0) and Q' of a family with a zero lifted column row
    # (-pi2 <= 0): neither is a coordinate's sign row.
    from test_paramlp import section_corpus

    zero_row = GameFamily(Matrix([[0, 0, 0], [1, 3, 2], [2, 1, 4]]),
                          Matrix([[1, 0, 2], [3, 0, 1], [2, 0, 3]]), (2, 0, 5))
    assert zero_row.p.int_rows[1] == (0, 0, 0, -1, 0)
    assert zero_row.qp.int_rows[3 + 2] == (0, 0, 0, 0, -1, 0)

    reference = {}  # id of a narrow tableau -> (that tableau, its full-width reference)
    counts = Counter()
    build, pivot_to, pure = Polytope._basis_tableau, Polytope._pivot_to, GameFamily.pure_vertex

    def checked_build(self, basis):
        try:
            full = full_basis_tableau(self, basis)
        except Singular as want:
            counts["singular"] += 1
            with pytest.raises(Singular) as got:
                build(self, basis)
            assert str(got.value) == str(want)
            raise
        tab = build(self, basis)
        assert tab == nonbasic_columns(self, full)
        reference[id(tab)] = tab, full
        counts["build"] += 1
        return tab

    def checked_pure(self, i, j):
        v = pure(self, i, j)
        full = full_basis_tableau(self.p, v.basis)
        assert v.tableau == nonbasic_columns(self.p, full)
        reference[id(v.tableau)] = v.tableau, full
        counts["pure"] += 1
        return v

    def checked_pivot(self, vertex, tab, relax, hit):
        far = pivot_to(self, vertex, tab, relax, hit)
        full = full_pivot(self, reference[id(tab)][1], relax, hit)
        assert far.tableau == nonbasic_columns(self, full)
        reference[id(far.tableau)] = far.tableau, full
        counts["pivot"] += 1
        return far

    monkeypatch.setattr(Polytope, "_basis_tableau", checked_build)
    monkeypatch.setattr(Polytope, "_pivot_to", checked_pivot)
    monkeypatch.setattr(GameFamily, "pure_vertex", checked_pure)
    for poly in (*_pivot_corpus(), zero_row.p, zero_row.qp):
        for v in enumerate_vertices(poly):
            for relax in sorted(v.basis):
                far = poly.simplex_pivot(v, relax)
                for again in sorted(far.basis) if far is not None else ():
                    poly.simplex_pivot(far, again)
    for _, fam, *_, delta in section_corpus():
        try:
            solve_lp_k(fam, delta)
        except RankGamesError:
            counts["rejected"] += 1
    assert counts == {"build": 674, "pure": 208, "singular": 152, "pivot": 2637, "rejected": 29}


def test_a_written_down_pure_vertex_is_the_one_a_basis_builds():
    # GameFamily.pure_vertex writes P's vertex y = e_j with row i tight down
    # from the integer rows and scales. For every column j and each best row
    # i, ties included, it equals the vertex that vertex_from_basis builds
    # by elimination: basis, labels (every other best row's zero slack),
    # tableau and integer point. A row that is not best is infeasible for
    # both, with one message. The games are the three bench corpora, the
    # 200 small-entry yardstick rank-1 games, and those times -3/4, whose
    # rows of P have scales 1, 2 and 4.
    from rankgames.cli import parse_game_file

    from fixtures import bench_corpus_texts

    rng = random.Random(77)
    yardstick = [random_rank1(rng, s, s, span=2, gamma_span=1, beta_span=3).a
                 for s in (3, 4, 5) * 66 + (3, 4)]
    matrices = [parse_game_file(text).a for _, text in bench_corpus_texts()]
    matrices += yardstick + [a.scale(Fraction(-3, 4)) for a in yardstick]
    counts, scales = Counter(), set()
    for a in matrices:
        m, n = a.rows, a.cols
        fam = GameFamily(a, -a, tuple(range(1, n + 1)))  # P is a's alone
        scales.update(fam.p.scales)
        for j in range(n):
            col = [row[j] for row in a.int_rows]
            for i in range(m):
                basis = {i + 1} | {m + c + 1 for c in range(n) if c != j}
                if col[i] < max(col):
                    with pytest.raises(DegeneratePolytope) as want:
                        fam.p.vertex_from_basis(basis)
                    with pytest.raises(DegeneratePolytope) as got:
                        fam.pure_vertex(i, j)
                    assert str(got.value) == str(want.value)
                    counts["infeasible"] += 1
                    continue
                got, want = fam.pure_vertex(i, j), fam.p.vertex_from_basis(basis)
                assert (got.basis, got.labels, got.tableau, got.integer_point) == (
                    want.basis, want.labels, want.tableau, want.integer_point)
                counts["tied" if col.count(col[i]) > 1 else "unique"] += 1
    assert scales == {1, 2, 4}
    assert counts == {"unique": 2138, "tied": 1370, "infeasible": 10021}


def _copy_exchange_move_pivot_to(poly, vertex, tab, relax, hit):
    """The reference for ``Polytope._pivot_to``, the far vertex made in
    passes: a list copy of the exchanged rows (``exchange_pivot`` without
    ``at``), hit's column moved into label order row by row, every row frozen
    with ``tuple``, and the labels read by ``_tableau_vertex``'s rescan."""
    from bisect import bisect

    from rankgames.linalg import exchange_pivot
    from rankgames.polytope import Tableau

    d, c = poly.dim, tab.cols.index(relax)
    r = tab.basic.index(d + hit - 1)
    exchanged, denom = exchange_pivot(tab.rows, r, c, tab.denom)
    rows = [list(row) for row in exchanged]
    cols = [*tab.cols[:c], *tab.cols[c + 1:]]
    k = bisect(cols, hit)
    cols.insert(k, hit)
    for row in rows:
        row.insert(k, row.pop(c))
    basic = tab.basic[:r] + (d + relax - 1,) + tab.basic[r + 1:]
    z_at = list(tab.z_at)
    for lab, at in ((hit, -hit), (relax, r)):
        if lab in poly.signs:
            z_at[poly.signs.index(lab)] = at
    tab = Tableau(tuple(map(tuple, rows)), denom, basic, tuple(cols), tuple(z_at))
    return poly._tableau_vertex(vertex.basis - {relax} | {hit}, tab)


def _spy_far_vertices(monkeypatch, one_pass) -> tuple[Counter, list]:
    """Patch ``Polytope.pivot`` and ``simplex_pivot`` so that each call runs
    twice, with ``one_pass`` and with the copy-exchange-move reference as
    ``_pivot_to``, and records any difference in the far vertex's tableau,
    basis and labels, or in the ``DegeneratePolytope`` message; the call
    returns ``one_pass``'s outcome. Returns the counts and the differences,
    which a CLI run cannot swallow."""
    counts, faults = Counter(), []
    real = {name: getattr(Polytope, name) for name in ("pivot", "simplex_pivot")}
    monkeypatch.setattr(Polytope, "_pivot_to", one_pass)

    def run(name, poly, vertex, relax, pivot_to):
        Polytope._pivot_to = pivot_to
        try:
            result = real[name](poly, vertex, relax)
        except DegeneratePolytope as exc:
            return exc, str(exc)
        finally:
            Polytope._pivot_to = one_pass
        far = result.far_end if isinstance(result, EdgeDescriptor) else result
        return result, None if far is None else (far.tableau, far.basis, far.labels)

    def spy(name):
        def checked(poly, vertex, relax):
            result, got = run(name, poly, vertex, relax, one_pass)
            _, want = run(name, poly, vertex, relax, _copy_exchange_move_pivot_to)
            if got != want:
                faults.append((name, sorted(vertex.basis), relax, got, want))
            counts[name, "raises" if isinstance(got, str) else "ray" if got is None
                   else "far"] += 1
            if isinstance(result, DegeneratePolytope):
                raise result
            return result
        return checked

    for name in real:
        monkeypatch.setattr(Polytope, name, spy(name))
    return counts, faults


def _pivot_equivalence_corpora(tmp_path):
    """The three bench corpora through the CLI (each verb as the bench runs
    it), every edge of every vertex of the pivot corpus and of each far end,
    and the small-entry yardstick's walks."""
    import contextlib
    import io

    from rankgames.cli import main
    from test_paramlp import _yardstick_walks

    from fixtures import bench_corpus_texts

    for i, (verb, text) in enumerate(bench_corpus_texts()):
        path = tmp_path / f"bench{i}.game"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main([verb, "--input", str(path), "--json"])
    for poly in _pivot_corpus():
        for v in enumerate_vertices(poly):
            for relax in sorted(v.basis):
                far = poly.simplex_pivot(v, relax)
                for again in sorted(far.basis) if far is not None else ():
                    try:
                        poly.pivot(far, again)
                    except DegeneratePolytope:
                        pass
    for _ in _yardstick_walks():
        pass


def test_one_pass_far_vertices_equal_the_copy_exchange_move_reference(monkeypatch, tmp_path):
    # Every far vertex that pivot and simplex_pivot make, built in one pass
    # by _pivot_to, equals the one the reference makes in separate passes:
    # copy, exchange, move, freeze, rescan. Tableau, basis and labels are
    # equal, and so is every DegeneratePolytope message, on the three bench
    # corpora, the pivot corpus and the small-entry yardstick.
    counts, faults = _spy_far_vertices(monkeypatch, Polytope._pivot_to)
    _pivot_equivalence_corpora(tmp_path)
    assert faults == []
    assert counts == {("pivot", "far"): 4836, ("pivot", "raises"): 739, ("pivot", "ray"): 783,
                      ("simplex_pivot", "far"): 525, ("simplex_pivot", "ray"): 125}


def test_a_one_pass_pivot_that_drops_a_zero_rhs_row_fails_the_spy(monkeypatch, tmp_path):
    # A mutant of _pivot_to whose label scan stops one row short, so that it
    # misses a zero rhs in the last slack row, makes far vertices whose
    # labels, and degeneracy messages, the spy finds to differ.
    import inspect
    import textwrap

    import rankgames.polytope as polytope

    source = textwrap.dedent(inspect.getsource(Polytope._pivot_to))
    scan = "zip(basic[start:], rows[start:])"
    assert source.count(scan) == 1
    namespace = dict(vars(polytope))
    exec(source.replace(scan, "zip(basic[start:], rows[start:-1])"), namespace)
    _, faults = _spy_far_vertices(monkeypatch, namespace["_pivot_to"])
    _pivot_equivalence_corpora(tmp_path)
    assert len(faults) == 154


def test_compact_tableaux_read_the_reference_z_rows(monkeypatch):
    # A tableau keeps no row for y_j in P or x_i in Q': each is a copy of its
    # sign slack's row, or -denom in that slack's column. On every basis of
    # the pivot corpus, and at every pivot of test_paramlp's walked edges,
    # the rows kept equal the full-width reference's rows of the same basic
    # variables, entry for entry; the coordinates, every basis label's
    # column (edge_column) and a pivot's base point (origin), all read through
    # Tableau.z_column, equal the reference's z rows.
    from test_paramlp import _walked_edges

    counts = Counter()

    def check(poly, tab, full) -> list:
        want = nonbasic_columns(poly, full)
        assert (tab.denom, tab.cols) == (want.denom, want.cols)
        assert dict(zip(tab.basic, tab.rows)) == dict(zip(want.basic, want.rows))
        signed = poly.n if poly.which == "P" else poly.m  # y_j in P, x_i in Q'
        assert len(tab.rows) == len(want.rows) == len(full.rows) - signed
        z_rows = reference_z_rows(poly, full)
        assert [tab.z_column(j) for j in range(-1, len(tab.cols))] == [
            [row[j] for row in z_rows] for j in range(-1, len(tab.cols))]
        assert tableau_point(tab) == tuple(Fraction(row[-1], tab.denom) for row in z_rows)
        for k, lab in enumerate(tab.cols):
            want_column = tuple(-poly.scales[lab] * row[k] for row in z_rows)
            assert edge_column(poly, tab, lab) == want_column
        return z_rows

    for poly in _pivot_corpus():
        for basis in combinations(range(1, n_labels(poly) + 1), poly.basis_size):
            try:
                full = full_basis_tableau(poly, basis)
            except Singular:
                continue
            check(poly, poly._basis_tableau(frozenset(basis)), full)
            counts["basis"] += 1

    real_pivot = Polytope.pivot

    def checked_pivot(self, vertex, relax):
        ed = real_pivot(self, vertex, relax)
        full = full_basis_tableau(self, vertex.basis)
        z_rows = check(self, ed.tableau, full)
        col = ed.tableau.cols.index(relax)
        assert ed.origin == tuple(row[-1] for row in z_rows)
        assert ed.column == tuple(-self.scales[relax] * row[col] for row in z_rows)
        if ed.far_end is not None:
            (hit,) = ed.far_end.basis - vertex.basis
            check(self, ed.far_end.tableau, full_pivot(self, full, relax, hit))
        counts["pivot", self.which] += 1
        return ed

    monkeypatch.setattr(Polytope, "pivot", checked_pivot)
    for _ in _walked_edges():
        pass
    assert counts == {"basis": 643, ("pivot", "P"): 439, ("pivot", "Qprime"): 466}


def test_start_builds_exchange_only_the_rows_that_are_not_sign_rows(monkeypatch):
    # A basis sign row (y_j >= 0 in P, x_i >= 0 in Q') sets its variable
    # equal to its slack, so its column is taken as already pivoted: a build
    # makes one exchange for the equality and one per other basis label, on
    # every nonsingular basis of the pivot corpus. So a pure vertex of P
    # takes 2 and Q''s vertex on a ray 3, whatever the dimension d.
    import rankgames.linalg as linalg

    calls = []
    real = linalg.exchange_pivot

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(linalg, "exchange_pivot", counted)

    def exchanges(poly, basis) -> int:
        calls.clear()
        poly._basis_tableau(frozenset(basis))
        return len(calls)

    counts = Counter()
    for poly in _pivot_corpus():
        m, n = poly.m, poly.n
        signs = set(range(m + 1, m + n + 1) if poly.which == "P" else range(1, m + 1))
        for basis in combinations(range(1, n_labels(poly) + 1), poly.basis_size):
            try:
                got = exchanges(poly, basis)
            except Singular:
                counts["singular"] += 1
                continue
            assert got == 1 + len(set(basis) - signs)
            counts["built", got] += 1
    assert counts == {"singular": 148, ("built", 2): 100, ("built", 3): 273,
                      ("built", 4): 218, ("built", 5): 51, ("built", 6): 1}
    rng = random.Random(1)
    fams = [ex1_family()]
    for s in (4, 6, 8):
        a = Matrix([[rng.randint(-99, 99) for _ in range(s + 1)] for _ in range(s)])
        fams.append(GameFamily(a, a.scale(-1), rng.sample(range(1, 200), s + 1)))
    for fam in fams:
        for high in (False, True):
            v_basis, w_basis, _ = fam.ray_bases(high)
            assert (exchanges(fam.p, v_basis), exchanges(fam.qp, w_basis)) == (2, 3)
    # A zero payoff row reads -pi1 <= 0 but is no coordinate's sign row:
    # with y_1 >= 0 beside it a build exchanges it as any payoff row, and a
    # second such row makes the basis singular, as in the reference.
    p = build_p(Matrix([[0, 0], [0, 0], [1, 2]]))
    assert exchanges(p, {1, 4}) == 2
    assert p._basis_tableau(frozenset({1, 4})) == nonbasic_columns(
        p, full_basis_tableau(p, {1, 4}))
    with pytest.raises(Singular) as want:
        full_basis_tableau(p, {1, 2})
    with pytest.raises(Singular) as got:
        p._basis_tableau(frozenset({1, 2}))
    assert str(got.value) == str(want.value)


def test_polytope_rows_equal_the_fraction_rows_made_integer():
    # build_p and build_qprime read the matrices' integer rows; on integer
    # and fractional matrices alike, each row and scale is the one that
    # linalg.integers makes of the Fraction row.
    rng = random.Random(20)
    for q in (1, 1, 2, 3, 6, 7):
        m, n = rng.randint(1, 4), rng.randint(2, 4)
        a, c = (Matrix([[Fraction(rng.randint(-9, 9), q) for _ in range(n)] for _ in range(m)])
                for _ in range(2))
        betas = [tuple(Fraction(rng.randint(1, 6), rng.choice((1, q))) for _ in range(n))]
        if rng.random() < 0.5 and n > 2:
            betas.append(tuple(Fraction(rng.randint(-6, 6)) for _ in range(n)))
        try:
            qp = build_qprime(c, [integers(b) for b in betas])
        except DependentBetas:
            continue
        p = build_p(a)
        assert ((p.int_rows, p.scales), (qp.int_rows, qp.scales)) == fraction_polytope_rows(
            a, c, betas)
        assert fraction_ineqs(p)[0] == (tuple(a.row(0)) + (-1,), 0)


def test_integer_labels_and_feasibility_match_fraction_slacks():
    # At each vertex and at points before, on and past the far end of each
    # bounded edge.
    checked = infeasible = 0
    for poly in _pivot_corpus():
        for v in enumerate_vertices(poly):
            points = [v.coords]
            for relax in sorted(v.basis):
                try:
                    ed = poly.pivot(v, relax)
                except DegeneratePolytope:
                    continue
                if ed.t_max is not None:
                    points += [ed.point_at(ed.t_max * t) for t in (Fraction(1, 3), 1, 2)]
            for point in points:
                assert poly.labels_at(point) == fraction_labels(poly, point)
                expected = all(
                    fraction_slack(poly, lab, point) >= 0 for lab in range(1, n_labels(poly) + 1)
                )
                assert feasible(poly, point) == expected
                checked += 1
                infeasible += not expected
    assert (checked, infeasible) == (1108, 328)


def test_start_vertices_worked_example():
    fam = ex1_family()
    assert fam.ray(high=False)[0].coords == (0, 1, 0, 9)
    assert fam.ray(high=True)[0].coords == (1, 0, 0, 9)


def test_start_vertices_forced_1x2():
    a = Matrix([[0, 1]])
    fam = GameFamily(a, a.scale(-1), (1, 2))
    assert fam.ray(high=False)[0].coords == (1, 0, 0)
    assert fam.ray(high=True)[0].coords == (0, 1, 1)


def test_start_vertices_random_feasible():
    rng = random.Random(14)
    done = 0
    while done < 8:
        a = Matrix([[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)])
        beta = tuple(rng.randint(1, 5) for _ in range(3))
        if len(set(beta)) == 1:
            continue
        fam = GameFamily(a, a.scale(-1), beta)
        try:
            v_s, v_e = fam.ray(high=False)[0], fam.ray(high=True)[0]
        except DegeneratePolytope:
            continue
        for v in (v_s, v_e):
            assert feasible(fam.p, v.coords)
            assert len(v.labels) == fam.p.basis_size
        done += 1


def test_start_vertices_constant_beta():
    with pytest.raises(ConstantBeta):
        GameFamily(EX1_A, EX1_C, (2, 2, 2)).ray(high=False)


def test_lambda_bounds_single_ratio():
    fam = GameFamily(Matrix([[0, 1]]), Matrix([[0, 0]]), (1, 2))
    assert fam.lambda_of(fam.ray(high=False)[1].base) == 0


def test_lambda_bounds_worked_example():
    fam = ex1_family()
    low, high = fam.ray(high=False)[1], fam.ray(high=True)[1]
    assert fam.lambda_of(low.base) == 1  # min((8-6)/(9-7), (8-6)/(8-7)) on row 1
    assert fam.lambda_of(high.base) == Fraction(-1, 2)


def test_lambda_bounds_infeasible_beyond():
    # Just past the low bound the ray's defining system leaves the polytope.
    fam = ex1_family()
    w0 = fam.ray(high=False)[1].base
    ray = fam.qp.pivot(w0, fam.m + ray_anchors(EX1_A, EX1_C, fam.beta).jstar_s)
    probe = ray.point_at(Fraction(-1))  # one unit against the ray: lambda > lambda_s
    assert not feasible(fam.qp, probe)
    assert feasible(fam.qp, ray.point_at(Fraction(1)))


def test_lambda_bounds_sign_convention_by_lp_probe():
    # Independent route: fix the low ray's pure strategy and pin lambda; the
    # section LP is feasible at the bound and infeasible just beyond it.
    from rankgames.lp import EQ, LE, LinearProgram, solve_lp
    from fixtures import R1A

    a, c, beta = R1A.a, R1A.a.scale(-1), R1A.beta
    fam = GameFamily(a, c, beta)
    sd = ray_anchors(a, c, beta)
    lambda_s = fam.lambda_of(fam.ray(high=False)[1].base)
    m = fam.m

    def probe(lam) -> str:
        rows = [row for row, _ in fraction_ineqs(fam.qp)] + [fraction_row(fam.qp, 0)[0]]
        rhs = [b for _, b in fraction_ineqs(fam.qp)] + [fraction_row(fam.qp, 0)[1]]
        rels = [LE] * len(fraction_ineqs(fam.qp)) + [EQ]
        for i in range(m):  # pin x to the pure strategy of the low ray
            unit = [Fraction(0)] * (m + 2)
            unit[i] = Fraction(1)
            rows.append(tuple(unit))
            rhs.append(Fraction(1 if i == sd.i_s - 1 else 0))
            rels.append(EQ)
        lam_row = [Fraction(0)] * (m + 2)
        lam_row[m] = Fraction(1)
        rows.append(tuple(lam_row))
        rhs.append(lam)
        rels.append(EQ)
        # full labeling on the ray keeps the min-beta column tight
        tight_row, tight_rhs = fraction_row(fam.qp, m + sd.j_s)
        rows.append(tight_row)
        rhs.append(tight_rhs)
        rels.append(EQ)
        lp = LinearProgram.build([Fraction(0)] * (m + 2), rows, rels, rhs)
        return solve_lp(lp).status

    assert lambda_s == sd.lambda_s
    assert probe(lambda_s) == "optimal"
    assert probe(lambda_s - 1) == "optimal"  # inside the ray
    assert probe(lambda_s + Fraction(1, 7)) == "infeasible"


def test_build_qprime_rejects_dependent_betas():
    with pytest.raises(DependentBetas):
        build_qprime(EX1_A.scale(-1), [((1, 2, 3), 1), ((2, 4, 6), 1)])


def test_build_qprime_wedge_vertices_match_enumeration():
    # k = 2, m = 1: three-dimensional wedge over (x1, l1, l2, pi2).
    a = Matrix([[1, 0, 2]])
    qk = build_qprime(a.scale(-1), [((1, 0, 1), 1), ((0, 1, 2), 1)])
    vertices = enumerate_vertices(qk)
    for v in vertices:
        assert feasible(qk, v.coords)
        assert len(v.labels) == qk.basis_size
    combos = 0
    for c in combinations(range(1, n_labels(qk) + 1), qk.basis_size):
        if qk.try_vertex(c) is not None:
            combos += 1
    assert combos == len(vertices)  # nondegenerate: one basis per vertex


def test_simplex_pivot_steps_through_a_degenerate_vertex():
    # At y = e_1 rows 1 and 2 of A tie, so the vertex with basis {1, 6} has
    # the extra tight row 2. Relaxing y_2 >= 0 (label 6) meets row 2 at once:
    # pivot rejects that zero step, simplex_pivot takes it to basis {1, 2} at
    # the same point. Relaxing row 1 lets pi1 grow without bound.
    p = build_p(Matrix([[3, 0], [3, 1], [0, 3], [1, 3]]))
    v = p.vertex_from_basis({1, 6})
    assert v.labels == {1, 2, 6}
    with pytest.raises(DegeneratePolytope):
        p.pivot(v, 6)
    far = p.simplex_pivot(v, 6)
    assert (far.basis, far.labels, far.coords) == ({1, 2}, {1, 2, 6}, v.coords)
    tab, built = far.tableau, p.vertex_from_basis({1, 2}).tableau  # rows in another order
    assert tab.denom == built.denom
    assert sorted(zip(tab.basic, tab.rows)) == sorted(zip(built.basic, built.rows))
    assert p.simplex_pivot(v, 1) is None


def test_ratio_test_orders_only_the_tied_labels():
    # Each simplex_pivot below leaves Tableau.basic out of label order, so the
    # ratio rows come in dictionary order and least_ratios meets the tied
    # labels out of order. Bland's rule still enters the lowest, and each
    # message names the tied labels ascending and the lowest zero step.
    cases = (
        ([[2, 3], [1, 3]], {1, 2}, 2, 4, [3, 2], 2,
         "ratio tie between rows [2, 3] leaving [1, 4]"),
        ([[1, 3], [1, 0], [1, 3]], {1, 2}, 1, 5, [3, 1], 1,
         "extra tight row 1 leaving [2, 5]"),
    )
    for a, start, first, relax, met, enters, message in cases:
        p = build_p(Matrix(a))
        v = p.simplex_pivot(p.vertex_from_basis(start), first)
        assert list(v.tableau.basic) != sorted(v.tableau.basic)
        assert least_ratios(p._ratio_rows(v.tableau, relax))[2] == met
        assert p.simplex_pivot(v, relax).basis == v.basis - {relax} | {enters}
        with pytest.raises(DegeneratePolytope) as err:
            p.pivot(v, relax)
        assert str(err.value) == message


def test_hot_path_records_keep_the_dataclass_contract():
    fam = ex1_family()
    v_s, ray = fam.ray(high=False)
    ed = fam.p.pivot(v_s, 4)
    # The Fraction reference gives its ends and its edge integer state too,
    # so point_at works on its edge, and it equals the pivot's edge.
    mid = ed.point_at(ed.t_max / 2)
    ref = fam.p.edge_through_point(ed.tight_set, mid, ed.direction)
    assert ref == ed and (ref.base.coords, ref.far_end.coords) == (v_s.coords, ed.far_end.coords)
    assert (ref.direction, ref.t_max, ref.point_at(ed.t_max / 2)) == (ed.direction, ed.t_max, mid)
    for record in (v_s, ed.far_end, ed, ray.base, ray, ref, ref.base, ref.far_end):
        assert record_faults(record) == []
    assert (record_views(Vertex), record_views(EdgeDescriptor)) == (
        ["coords"], ["direction", "t_max"])
    # An integer field given as None is still read off the tableau on first
    # use, and kept; the coordinates are a view of it, built on first read.
    lazy = Vertex(v_s.basis, v_s.basis, v_s.tableau)
    assert vars(lazy)["integer_point"] is None and "coords" not in vars(lazy)
    assert lazy.coords == v_s.coords == (Fraction(0), Fraction(1), Fraction(0), Fraction(9))
    assert vars(lazy)["coords"] is lazy.coords
    assert vars(lazy)["integer_point"] == v_s.integer_point


def test_a_family_decides_minus_a_without_building_a_matrix(monkeypatch):
    # GameFamily decides c = -a on the integer rows: a family builds no
    # Matrix at k = 1, where one nonzero beta needs no rank either, and only
    # the betas' matrix for its rank at k >= 2.
    real_init, real_of_ints = Matrix.__init__, Matrix._of_ints.__func__
    made = []
    monkeypatch.setattr(Matrix, "__init__",
                        lambda self, data: made.append("init") or real_init(self, data))
    monkeypatch.setattr(Matrix, "_of_ints", classmethod(
        lambda cls, rows, denom: made.append("ints") or real_of_ints(cls, rows, denom)))
    rng = random.Random(43)
    a = Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
                for _ in range(3)])
    a2, betas, _ = random_rank_k(rng, 2, 3, 4)
    cases = [(a, -a, [(1, 2, 3, 5)], True), (a, a, [(1, 2, 3, 5)], False),
             (a, shift(-a, 1), [(Fraction(1, 2), 2, 3, 5)], False),
             (a, Matrix((-a).tolists()), [(1, 2, 3, 5)], True),
             (EX1_A, EX1_C, [(9, 7, 8)], False), (a2, -a2, betas, True), (a2, a2, betas, False)]
    for a, c, betas, minus_a in cases:
        made.clear()
        fam = GameFamily(a, c, *betas)
        assert fam.minus_a is minus_a
        assert made == ([] if len(betas) == 1 else ["init"])


def test_check_nondegenerate_worked_example():
    assert check_nondegenerate(build_p(EX1_A))


def test_check_nondegenerate_duplicate_rows():
    assert not check_nondegenerate(build_p(Matrix([[1, 2], [1, 2]])))


def test_check_nondegenerate_after_perturbation():
    a = Matrix([[1, 2], [1, 2]])
    bumped = a + Matrix([[0, 0], [Fraction(1, 997), Fraction(1, 991)]])
    assert check_nondegenerate(build_p(bumped))


def test_check_nondegenerate_guard():
    with pytest.raises(TooLarge):
        check_nondegenerate(build_p(EX1_A), guard=2)


def test_label_union_bound_on_vertex_pairs():
    # Union of pair labels never exceeds m+n; at the bound the overlap is one.
    fam = ex1_family()
    total = fam.m + fam.n
    for v in enumerate_vertices(fam.p):
        for w in enumerate_vertices(fam.qp):
            union = v.labels | w.labels
            assert len(union) <= total
            if len(union) == total:
                assert len(v.labels & w.labels) == 1
