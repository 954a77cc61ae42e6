"""Shared fixtures: the worked example, canonical rank-1 games, generators."""
from __future__ import annotations

import dataclasses
import inspect
import random
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import ceil, comb, factorial, lcm
from operator import mul
from typing import NamedTuple

from rankgames.algorithms import RegionGraph, rank1_family
from rankgames.errors import (
    DegeneracyError,
    DegeneratePolytope,
    EdgeInHyperplane,
    NonzeroOptimum,
    NotEquilibrium,
    RankGamesError,
    Singular,
    TooLarge,
)
from rankgames.games import (
    BimatrixGame,
    EquilibriumRecord,
    MixedProfile,
    Rank1Decomposition,
    decompose_rank1,
    verify_equilibrium,
)
from rankgames.linalg import (
    Matrix,
    integer_determinant,
    integer_pivot,
    integers,
    matrix_rank,
    rationals,
    sign,
    solve_linear_system,
    vdot,
    vector,
)
from rankgames.lp import EQ, LE, LinearProgram, solve_lp
from rankgames.labeledpath import V_FIXED, W_FIXED, g_at, trace_path
from rankgames.paramlp import Crossing, Hyperplane, in_lowest_terms
from rankgames.polytope import (
    GameFamily,
    Polytope,
    ReadOff,
    Tableau,
    Vertex,
    _edge_column,
    build_p,
)

# Worked example: a game family whose fully-labeled set is a path plus one
# 3-cycle. Derived path vertices (exact): ((0,1,0),9) -> ((2/11,9/11,0),81/11)
# -> ((1,0,0),9); cycle vertices ((1/2,0,1/2),11/2), ((13/34,3/17,15/34),189/34),
# ((2/5,0,3/5),27/5).
EX1_A = Matrix([[0, 9, 9], [6, 6, 5], [9, 7, 2]])
EX1_C = Matrix([[6, 8, 6], [5, 8, 8], [4, 3, 0]])
EX1_BETA = (Fraction(9), Fraction(7), Fraction(8))

EX1_PATH_P_VERTICES = (
    ((Fraction(0), Fraction(1), Fraction(0)), Fraction(9)),
    ((Fraction(2, 11), Fraction(9, 11), Fraction(0)), Fraction(81, 11)),
    ((Fraction(1), Fraction(0), Fraction(0)), Fraction(9)),
)
EX1_CYCLE_P_VERTICES = (
    ((Fraction(1, 2), Fraction(0), Fraction(1, 2)), Fraction(11, 2)),
    ((Fraction(13, 34), Fraction(3, 17), Fraction(15, 34)), Fraction(189, 34)),
    ((Fraction(2, 5), Fraction(0), Fraction(3, 5)), Fraction(27, 5)),
)
# Paper prints the same vertices rounded to two decimals.
EX1_PATH_P_DECIMALS = (((0.0, 1.0, 0.0), 9.0), ((0.18, 0.82, 0.0), 7.36), ((1.0, 0.0, 0.0), 9.0))
EX1_CYCLE_P_DECIMALS = (((0.5, 0.0, 0.5), 5.5), ((0.38, 0.18, 0.44), 5.56), ((0.4, 0.0, 0.6), 5.4))


def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)])


def shift(mat: Matrix, s) -> Matrix:
    """``mat`` with the constant s added to every entry, on its integer rows."""
    s = Fraction(s)
    d, add = s.denominator, s.numerator * mat.denom
    return Matrix._of_ints([[x * d + add for x in row] for row in mat.int_rows], mat.denom * d)


def min_entry(mat: Matrix) -> Fraction:
    """The least entry of a nonempty ``mat``, off its integer rows."""
    return Fraction(min(min(row) for row in mat.int_rows), mat.denom)


def submatrix(mat: Matrix, row_idx, col_idx) -> Matrix:
    """The rows ``row_idx`` and the columns ``col_idx`` of ``mat``, taken
    from its integer rows over its denominator."""
    rows = mat.int_rows
    return Matrix._of_ints([[rows[i][j] for j in col_idx] for i in row_idx], mat.denom)


def n_labels(poly: Polytope) -> int:
    return len(poly.int_rows) - 1


def fraction_row(poly: Polytope, index: int) -> tuple:
    """Row ``index`` of a polytope, (a, b) in ``Fraction``s: its integer row
    over its scale; the equality at index 0, inequality l at index l."""
    if not 0 <= index <= n_labels(poly):
        raise IndexError(f"row {index} out of 0..{n_labels(poly)}")
    row, scale = poly.int_rows[index], poly.scales[index]
    return tuple(Fraction(x, scale) for x in row[:-1]), Fraction(row[-1], scale)


def fraction_ineqs(poly: Polytope) -> tuple:
    """Every inequality (a, b) of a polytope in ``Fraction``s, label order."""
    return tuple(fraction_row(poly, lab) for lab in range(1, n_labels(poly) + 1))


def polytope_lp(poly: Polytope, objective) -> LinearProgram:
    """A polytope's rows as a generic LP: the reference for its section walk."""
    (a_eq, b_eq), rows = fraction_row(poly, 0), fraction_ineqs(poly)
    return LinearProgram.build(objective, [a for a, _ in rows] + [a_eq],
                               [LE] * len(rows) + [EQ], [b for _, b in rows] + [b_eq])


def fraction_polytope_rows(a: Matrix, c: Matrix, betas) -> tuple:
    """The reference for ``build_p`` and ``build_qprime``'s integer rows:
    each polytope's rows built in ``Fraction``s, the equality first, and
    each made integer by ``linalg.integers``. Returns (int_rows, scales) of
    P over (y, pi1) and of Q' over (x, lambda_1..lambda_k, pi2)."""
    m, n, k = a.rows, a.cols, len(betas)

    def unit(i: int, width: int) -> tuple:
        return tuple(Fraction(-1 if col == i else 0) for col in range(width)) + (Fraction(0),)

    p_rows = [(*[Fraction(1)] * n, Fraction(0), Fraction(1))]
    p_rows += [(*a.row(i), Fraction(-1), Fraction(0)) for i in range(m)]
    p_rows += [unit(j, n + 1) for j in range(n)]
    q_rows = [(*[Fraction(1)] * m, *[Fraction(0)] * (k + 1), Fraction(1))]
    q_rows += [unit(i, m + k + 1) for i in range(m)]
    q_rows += [(*c.col(j), *(Fraction(b[j]) for b in betas), Fraction(-1), Fraction(0))
               for j in range(n)]
    def integer_form(rows) -> tuple:
        scaled = [integers(row) for row in rows]
        return tuple(tuple(r) for r, _ in scaled), tuple(scale for _, scale in scaled)

    return integer_form(p_rows), integer_form(q_rows)


class FullTableau(NamedTuple):
    """A polytope tableau over every column: z_0..z_{d-1}, the slacks of
    labels 1..L and the rhs, over ``denom``; ``basic`` as in ``Tableau``."""

    rows: tuple
    denom: int
    basic: tuple


def full_basis_tableau(poly: Polytope, basis) -> FullTableau:
    """The reference for ``Polytope._basis_tableau``: Gauss-Jordan with
    ``linalg.integer_pivot`` on the full-width tableau, each row's slack
    column an explicit unit column."""
    d, labels = poly.dim, n_labels(poly)
    rows = [[*row[:d], *([0] * labels), row[d]] for row in poly.int_rows]
    basic = [-1] + list(range(d, d + labels))
    for lab in range(1, labels + 1):
        rows[lab][d + lab - 1] = 1
    free, denom = [0, *sorted(basis)], 1
    for col in range(d):
        r = next((r for r in free if rows[r][col]), None)
        if r is None:
            raise Singular(f"basis {sorted(basis)} is singular in {poly.which}")
        free.remove(r)
        denom = integer_pivot(rows, r, col, denom)
        basic[r] = col
    order = sorted(range(len(rows)), key=basic.__getitem__)
    sign = 1 if denom > 0 else -1
    return FullTableau(tuple(tuple(sign * x for x in rows[r]) for r in order),
                       sign * denom, tuple(basic[r] for r in order))


def full_pivot(poly: Polytope, tab: FullTableau, relax: int, hit: int) -> FullTableau:
    """The reference for ``Polytope._pivot_to``: one ``integer_pivot`` on a
    copy of the full-width tableau, relax's slack entering at hit's row."""
    d, col = poly.dim, poly.dim + relax - 1
    r = tab.basic.index(d + hit - 1)
    rows = [list(row) for row in tab.rows]
    denom = integer_pivot(rows, r, col, tab.denom)
    return FullTableau(tuple(map(tuple, rows)), denom,
                       tab.basic[:r] + (col,) + tab.basic[r + 1:])


def _narrow(poly: Polytope, tab: FullTableau) -> tuple[tuple, list]:
    """The basis labels of a full-width tableau, and a map of its rows onto
    their nonbasic slack columns, in label order, and the rhs."""
    d = poly.dim
    labels = tuple(lab for lab in range(1, n_labels(poly) + 1) if d + lab - 1 not in tab.basic)
    return labels, [(*(row[d + lab - 1] for lab in labels), row[-1]) for row in tab.rows]


def nonbasic_columns(poly: Polytope, tab: FullTableau) -> Tableau:
    """A full-width tableau's nonbasic slack columns, in label order, and its
    rhs, on every row but the z rows of the sign-constrained coordinates
    (``Polytope.signs``), whose variables a ``Tableau`` reads off their sign
    slacks."""
    d = poly.dim
    labels, rows = _narrow(poly, tab)
    kept = [r for r, var in enumerate(tab.basic) if var >= d or not poly.signs[var]]
    basic = tuple(tab.basic[r] for r in kept)
    z_at = tuple(basic.index(d + lab - 1 if lab else c) if lab not in labels else -lab
                 for c, lab in enumerate(poly.signs))
    return Tableau(tuple(rows[r] for r in kept), tab.denom, basic, labels, z_at)


def reference_z_rows(poly: Polytope, tab: FullTableau) -> list:
    """A full-width tableau's rows of z_0..z_{d-1}, on its nonbasic slack
    columns and the rhs: the reference for ``Tableau.z_column``."""
    _, rows = _narrow(poly, tab)
    return [row for _, row in sorted((var, row) for var, row in zip(tab.basic, rows)
                                     if var < poly.dim)]


def tableau_point(tab: Tableau) -> tuple:
    """A tableau's vertex in ``Fraction``s: the rhs of its z rows over
    ``denom`` (``Tableau.z_column``)."""
    return rationals(tab.z_column(-1), tab.denom)


def edge_column(poly: Polytope, tab: Tableau, relax: int) -> tuple:
    """Relax's edge direction times ``tab.denom``, as the edge that
    ``Polytope.pivot`` makes reads it (``EdgeDescriptor.column``)."""
    return _edge_column(tab, relax, poly.scales[relax])


def enumerate_vertices(poly: Polytope, guard: int = 10**6) -> list[Vertex]:
    """All basic feasible points by exhaustive basis enumeration (guarded)."""
    count = comb(n_labels(poly), poly.basis_size)
    if count > guard:
        raise TooLarge(f"{count} bases exceeds guard {guard}")
    seen: dict[tuple, Vertex] = {}
    for combo in combinations(range(1, n_labels(poly) + 1), poly.basis_size):
        v = poly.try_vertex(combo)
        if v is not None and v.coords not in seen:
            seen[v.coords] = v
    return list(seen.values())


def check_nondegenerate(poly: Polytope, guard: int = 10**6) -> bool:
    """True when no basic feasible point has extra tight rows (exhaustive, guarded)."""
    return all(len(v.labels) == poly.basis_size for v in enumerate_vertices(poly, guard))


def column_dots(p: Polytope, v, betas) -> tuple[dict, tuple]:
    """The reference for ``paramlp.section_rows``: integer dots with each
    basis label's column on v's tableau (``edge_column``) and with its
    rhs (``Tableau.z_column(-1)``), for integer betas (b_l, q_l). Returns
    ((b_l . col_r)_l, col_r's pi1) per basis label r, in label order, which
    are g_r and c_r times denom (and q_l), and ((b_l . rhs)_l, rhs's pi1),
    which are beta_l . y and pi1 at v times denom (and q_l)."""
    tab = p.tableau(v)

    def dots(vec) -> tuple:
        return tuple(sum(map(mul, b, vec)) for b, _ in betas), vec[p.n]

    return {r: dots(edge_column(p, tab, r)) for r in tab.cols}, dots(tab.z_column(-1))


def reference_edge_rates(p: Polytope, v, betas) -> dict:
    """(g_r, c_r) per basis label r of a vertex v of P, in ``Fraction``s, off
    the ``column_dots`` of the betas, over q_l * denom and denom: along r's
    edge the section objective sum_l delta_l * (beta_l . y) - pi1 changes at
    rate g_r . delta - c_r. The reference for ``paramlp.cell_rows``."""
    scaled = [integers(beta) for beta in betas]
    denom = p.tableau(v).denom
    columns, _ = column_dots(p, v, scaled)
    return {
        r: (tuple(Fraction(g, q * denom) for g, (_, q) in zip(gs, scaled)), Fraction(c, denom))
        for r, (gs, c) in columns.items()
    }


def reference_piece_fixed_point(family: GameFamily, gammas, rates: dict):
    """The reference for ``paramlp.piece_fixed_point``: the ``Fraction``
    solve of (I + Gamma G_B) a = Gamma c_B, with G_B's row i and c_B's entry
    i the ``reference_edge_rates`` (g_i, c_i) on the vertex's basis rows and
    zero on the others; None when the system is singular."""
    m, k, gam = family.m, family.k, Matrix(gammas)
    g_b = Matrix([rates[i][0] if i in rates else (0,) * k for i in range(1, m + 1)])
    c_b = [rates[i][1] if i in rates else 0 for i in range(1, m + 1)]
    try:
        return solve_linear_system(Matrix.identity(k) + gam @ g_b, gam.mul_vec(c_b))
    except Singular:
        return None


def watch_solve_lp(monkeypatch) -> list:
    """Record every ``lp.solve_lp`` call: the function is rebound in every
    ``rankgames`` module that holds it, since ``from .lp import solve_lp``
    copies it. Returns the list of recorded argument tuples."""
    import rankgames.lp as lp

    calls: list = []
    real = lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rankgames" and vars(module).get("solve_lp") is real:
            monkeypatch.setattr(module, "solve_lp", counted)
    return calls


def section_objective(betas, delta) -> tuple:
    """The section LP's objective on P at lambda = delta: max sum_l delta_l
    * (beta_l . y) - pi1."""
    return tuple(vdot(delta, col) for col in zip(*betas)) + (Fraction(-1),)


def feasible(poly: Polytope, point) -> bool:
    """The point meets the polytope's equality and every inequality, each
    slack taken exactly in the polytope's integer rows."""
    ea, eb = fraction_row(poly, 0)
    return vdot(ea, point) == eb and min(poly._slacks(point)[0]) >= 0


def section_gap(betas, v_coords, w_coords) -> Fraction:
    """sum_l lambda_l * (beta_l . y) - pi1 - pi2 for k betas over the lifted
    coordinates (x, lambda_1..lambda_k, pi2); nonpositive, zero iff fully labeled.

    Valid on families with c = -a, where the two polytope systems sum to this bound.
    """
    n, k = len(betas[0]), len(betas)
    lams = w_coords[-k - 1: -1]
    weighted = sum((lam * vdot(b, v_coords[:n]) for lam, b in zip(lams, betas)), Fraction(0))
    return weighted - v_coords[n] - w_coords[-1]


def full_node_sign(family: GameFamily, v, w, duplicate: int) -> int:
    """The reference for ``labeledpath.node_sign``: the sign of the two full
    tight systems, of order n + 1 in P and m + 2 in Q', sign rows included.

    P's rows are the equality, v's tight payoff rows, the duplicate if it is
    a column label and y_j >= 0 off w's tight columns, over (y_Y, y_-Y, pi1);
    Q''s are the equality, w's tight column rows, the duplicate if it is a row
    label and x_i >= 0 off v's tight rows, over (lambda, x_X, x_-X, pi2).
    Returns 0 where either system is singular.
    """
    m, n = family.m, family.n
    big_x = sorted(lab for lab in v.labels if lab <= m)
    big_y = sorted(lab - m for lab in w.labels if lab > m)
    minus_x = sorted(set(range(1, m + 1)) - set(big_x))
    minus_y = sorted(set(range(1, n + 1)) - set(big_y))
    dup_is_row = duplicate <= m

    def det(poly: Polytope, labels, order) -> int:
        rows = [poly.int_rows[0], *(poly.int_rows[lab] for lab in labels)]
        return integer_determinant([[row[col] for col in order] for row in rows])

    det_v = det(
        family.p,
        big_x + ([] if dup_is_row else [duplicate]) + [m + j for j in minus_y],
        [j - 1 for j in big_y + minus_y] + [n],
    )
    det_w = det(
        family.qp,
        [m + j for j in big_y] + ([duplicate] if dup_is_row else []) + minus_x,
        [m] + [i - 1 for i in big_x + minus_x] + [m + 1],
    )
    return sign(det_v * det_w)


def fraction_payoff_rows(mat: Matrix, rows, y) -> list:
    """``mat @ y`` on ``rows`` in ``Fraction``s, summed over the support of y."""
    support = [(j, yj) for j, yj in enumerate(y) if yj]
    return [sum((mat.row(i)[j] * yj for j, yj in support), Fraction(0)) for i in rows]


def fraction_payoffs(game: BimatrixGame, p: MixedProfile) -> tuple:
    """The reference for the payoffs that ``games.verify_equilibrium``
    returns at an equilibrium: ``x . A y`` and ``x . B y`` in ``Fraction``s,
    summed over both supports."""
    rows = [i for i, xi in enumerate(p.x) if xi]
    return tuple(
        sum((p.x[i] * v for i, v in zip(rows, fraction_payoff_rows(mat, rows, p.y))),
            Fraction(0))
        for mat in (game.a, game.b)
    )


def fraction_verify_equilibrium(game: BimatrixGame, p: MixedProfile) -> bool:
    """The reference for the truth value of ``games.verify_equilibrium``:
    every row payoff ``A y`` and column payoff ``x B`` in ``Fraction``s, each
    summed over the other player's support, and every played strategy at the
    max."""
    row_payoffs = fraction_payoff_rows(game.a, range(game.m), p.y)
    best1 = max(row_payoffs)
    if any(xi > 0 and row_payoffs[i] != best1 for i, xi in enumerate(p.x)):
        return False
    col_payoffs = [Fraction(0)] * game.n
    for i, xi in enumerate(p.x):
        if xi:
            col_payoffs = [t + xi * e for t, e in zip(col_payoffs, game.b.row(i))]
    best2 = max(col_payoffs)
    return not any(yj > 0 and col_payoffs[j] != best2 for j, yj in enumerate(p.y))


def _exact(num: int, den: int) -> int:
    """num // den, checked to divide exactly."""
    quo, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"inexact division: {num} // {den} leaves {rem}")
    return quo


def checked_exchange_pivot(rows, r: int, c: int, d: int, at=None) -> tuple[list, int]:
    """``linalg.exchange_pivot`` with every ``//`` checked to divide exactly:
    the same formulas, new rows and shared rows (at d = 1 it checks the
    division by 1 that the kernel leaves out)."""
    prow = rows[r]
    p = prow[c]
    moved = at is not None and at != c
    out = []
    for i, row in enumerate(rows):
        f = row[c]
        if i == r:
            new, f = list(row), -d
        elif not f:
            if p == d and not moved:
                out.append(row)
                continue
            new = list(row) if p == d else [_exact(x * p, d) for x in row]
        elif p != d:
            new = [_exact(x * p - f * y, d) for x, y in zip(row, prow)]
        else:
            new = [x - _exact(f * y, d) for x, y in zip(row, prow)]
        if moved:
            del new[c]
            new.insert(at, -f)
        else:
            new[c] = -f
        out.append(tuple(new))
    return out, p


def checked_integer_determinant(a: list) -> int:
    """``linalg.integer_determinant``'s Bareiss loop with every ``//``
    checked to divide exactly; the rows of ``a`` are overwritten."""
    n = len(a)
    if n == 0:
        return 1
    sign_, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign_ = -sign_
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = _exact(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
            a[i][k] = 0
        prev = a[k][k]
    return sign_ * a[n - 1][n - 1]


def naive_determinant(m: Matrix) -> Fraction:
    """Independent O(n!) Leibniz-expansion determinant, on the ``Fraction``
    entries."""
    n = m.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):  # parity by counting inversions
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= m[i, perm[i]]
        total += sign * term
    return total


def reference_peel(m: Matrix):
    """The reference for ``games._peel``, on ``Matrix`` arithmetic: one
    rank-1 term split off m at its first nonzero entry (row-major), as
    (gamma, beta, m - gamma . beta^T), with beta that entry's row and gamma
    its column over it; None when every entry is zero."""
    rows = m.int_rows
    pivot = next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x), None)
    if pivot is None:
        return None
    i0, j0 = pivot
    beta = tuple(Fraction(x, m.denom) for x in rows[i0])
    gamma = tuple(Fraction(row[j0], rows[i0][j0]) for row in rows)
    return gamma, beta, m - Matrix.outer(gamma, beta)


def reference_rank_k_terms(m: Matrix) -> list:
    """The reference for ``games.decompose_rank_k``: the (gamma, beta) of
    each ``reference_peel`` of the rest, until the rest is zero."""
    terms = []
    while (peel := reference_peel(m)) is not None:
        gamma, beta, m = peel
        terms.append((gamma, beta))
    return terms


def fraction_lifted_section(lifted, betas, v, rates, delta):
    """The reference for ``paramlp.lifted_section``, in ``Fraction``s: row i's
    multiplier is c_i - g_i . delta on v's basis rows, lambda = delta, and
    pi2 the largest lifted column row; the point must be feasible and have
    zero section gap."""
    m, k = lifted.m, len(betas)
    x = tuple(
        rates[i][1] - vdot(rates[i][0], delta) if i in rates else Fraction(0)
        for i in range(1, m + 1)
    )
    x_lam = x + tuple(delta)
    pi2 = max(vdot(a[: m + k], x_lam) for a, _ in fraction_ineqs(lifted)[m:])
    w_coords = x_lam + (pi2,)
    if not feasible(lifted, w_coords):
        raise RankGamesError("complementary lifted point is infeasible")
    gap = section_gap(betas, v.coords, w_coords)
    if gap != 0:
        raise NonzeroOptimum(f"section objective is {gap}, expected 0")
    return w_coords


def reference_section_edge(family: GameFamily, sec):
    """The reference for ``paramlp.section_edge``: the edge of Q' through
    the section's lifted point w that ``Polytope.edge_through_point`` finds
    in ``Fraction``s, through w's labels from its slacks (``labels_at``),
    along v's edge rates (``reference_edge_rates``): lambda at rate 1, x at
    -g_i on v's basis rows and pi2 at beta . y."""
    m, v = family.m, sec.v
    rates = reference_edge_rates(family.p, v, family.betas)
    dx = tuple(-rates[i][0][0] if i in rates else Fraction(0) for i in range(1, m + 1))
    direction = (*dx, Fraction(1), vdot(family.beta, v.coords[: family.n]))
    tight = family.qp.labels_at(sec.w_coords)
    return family.qp.edge_through_point(tight, sec.w_coords, direction)


def edge_views(ed) -> tuple:
    """An edge's ends (basis, labels, coordinates), relaxed label, direction
    and length: its ``Fraction`` views, to compare with a ``Fraction``
    reference's, where equality compares only base, relaxed and far end."""
    ends = ((u.basis, u.labels, u.coords) if u else None for u in (ed.base, ed.far_end))
    return (*ends, ed.relaxed, ed.direction, ed.t_max)


def hyperplane_value(h: Hyperplane, w_coords) -> Fraction:
    """lambda - gamma . x at a point of Q' in ``Fraction``s: the reference
    for the hyperplane's integer dots (``Hyperplane.dot``)."""
    m = len(h.gamma)
    return w_coords[m] - vdot(h.gamma, w_coords[:m])


def h_linear(edge, h) -> tuple:
    """(h0, dh), the hyperplane's value at a path edge's base and its rate
    along the edge parameter, in ``Fraction``s: integer dots with a moving
    edge's integer base point and direction over their unit, and on a fixed
    vertex of Q' its value off its coordinates, with rate zero."""
    if edge.kind == W_FIXED:
        return hyperplane_value(h, edge.fixed.coords), Fraction(0)
    ed = edge.moving
    unit = h.scale * ed.denom
    return Fraction(h.dot(ed.origin), unit), Fraction(h.dot(ed.column), unit)


def edge_runs_forward(edge) -> bool:
    """Whether a path edge's parameter runs from its tail to its head: the
    tail holds the base of the edge's moving side."""
    tail = edge.tail
    if tail is None:
        return False
    return (tail.w if edge.kind == V_FIXED else tail.v) is edge.moving.base


def reference_analyze_edge(edge, h):
    """The reference for ``paramlp._analyze_edge``, in ``Fraction``s: t* =
    -h0 / dh against 0 and the edge's ``t_max``. The edge parameter runs
    forward, from tail to head, when the tail holds the moving side's base
    (``edge_runs_forward``)."""
    h0, dh = h_linear(edge, h)
    t_max = edge.moving.t_max
    if dh == 0:
        if h0 == 0:
            raise EdgeInHyperplane(
                "edge lies inside the selection hyperplane (degenerate game)"
            )
        return ("none", 1 if h0 > 0 else -1)
    t_star = -h0 / dh
    inside = t_star > 0 and (t_max is None or t_star < t_max)
    boundary = t_star == 0 or (t_max is not None and t_star == t_max)
    if boundary:
        raise DegeneratePolytope(
            "equilibrium at a vertex pair of the fully-labeled set (degenerate game)"
        )
    if not inside:
        return ("none", 1 if h0 > 0 else -1)
    rising = dh > 0 if edge_runs_forward(edge) else dh < 0
    v, w = (in_lowest_terms(*integers(point)) for point in edge.point_at(t_star))
    return ("point", Crossing(v, w, 1 if rising else -1))


def record_views(cls) -> list[str]:
    """The names of a record class's views: its ``cached_property``s."""
    return sorted({name for klass in cls.__mro__ for name, attr in vars(klass).items()
                   if isinstance(attr, cached_property)})


def record_faults(record) -> list[str]:
    """What is wrong with a frozen dataclass record: the parameters of a
    constructor written by hand against ``dataclasses.fields``, in order and
    with the same defaults (a ``ReadOff`` default is taken as None), a field
    annotated as a ``Fraction`` point or number (``Vec``, ``Rat``), a view
    (``record_views``) not kept after its first read, a field or view that
    can be assigned, and a ``dataclasses.replace`` copy that is not equal,
    hashes otherwise or reads other views."""
    cls, faults = type(record), []
    fields = dataclasses.fields(cls)
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    want = [(f.name, None if isinstance(f.default, ReadOff)
             else inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
            for f in fields]
    if [(p.name, p.default) for p in params] != want:
        return [f"{cls.__name__}.__init__ parameters differ from its fields {want}"]
    faults += [f"{cls.__name__}.{f.name} is a Fraction field" for f in fields
               if re.search(r"\b(Vec|Rat)\b", str(f.type))]
    views = record_views(cls)
    for name in views:
        value = getattr(record, name)
        if name not in vars(record) or vars(record)[name] is not value:
            faults.append(f"{cls.__name__}.{name} is not kept after its first read")
    for name in [*(f.name for f in fields), *views]:
        try:
            setattr(record, name, None)
        except dataclasses.FrozenInstanceError:
            continue
        faults.append(f"{cls.__name__}.{name} can be assigned")
    copy = dataclasses.replace(record)
    if copy != record or hash(copy) != hash(record):
        faults.append(f"{cls.__name__}: replace makes an unequal copy")
    elif any(getattr(copy, name) != getattr(record, name) for name in views):
        faults.append(f"{cls.__name__}: replace makes a copy with other views")
    return faults


def degree(graph: RegionGraph, idx: int) -> int:
    """The number of regions next to region ``idx`` of a region graph."""
    if graph.kind == "cycle":
        return 2
    return sum(1 for j in (idx - 1, idx + 1) if 0 <= j < len(graph.regions))


def render_game(game: BimatrixGame) -> str:
    """A game as the text of a game file (``cli.parse_game_file``)."""
    lines = [f"{game.m} {game.n}"]
    for mat in (game.a, game.b):
        for i in range(mat.rows):
            lines.append(" ".join(str(x) for x in mat.row(i)))
    return "\n".join(lines) + "\n"


def ex1_family() -> GameFamily:
    return GameFamily(EX1_A, EX1_C, EX1_BETA)


@dataclass(frozen=True)
class RayAnchors:
    """Closed-form ends of the path, 1-based: column j has the least (low
    ray) or greatest (high ray) beta and row i is its best row; column jstar
    bounds the ray at lambda."""

    i_s: int
    j_s: int
    lambda_s: Fraction
    jstar_s: int
    i_e: int
    j_e: int
    lambda_e: Fraction
    jstar_e: int

    def pure_vertex(self, n: int, a: Matrix, high: bool) -> tuple:
        """Coordinates (y, pi1) of the row polytope vertex y = e_j."""
        i, j = (self.i_e, self.j_e) if high else (self.i_s, self.j_s)
        return tuple(Fraction(int(col == j - 1)) for col in range(n)) + (a[i - 1, j - 1],)


def ray_anchors(a: Matrix, c: Matrix, beta) -> RayAnchors:
    """Reference anchors from the column ratios on the pure rows.

    On the low ray x = e_i and column j is tight; column j' binds where
    c[i,j] + beta_j lambda = c[i,j'] + beta_j' lambda, and the least such
    lambda bounds the ray (the greatest one on the high ray). Raises
    ``DegeneracyError`` on a tied extreme or a tied bound.
    """
    beta = tuple(Fraction(b) for b in beta)
    n = len(beta)

    def unique_arg(values, best):
        hits = [k for k, v in enumerate(values) if v == best(values)]
        if len(hits) > 1:
            raise DegeneracyError(f"tied extreme at {hits}")
        return hits[0]

    def end(want_max):
        j = unique_arg(beta, max if want_max else min)
        i = unique_arg(a.col(j), max)
        ratios = {
            jj: (c[i, j] - c[i, jj]) / (beta[jj] - beta[j]) for jj in range(n) if jj != j
        }
        lam = (max if want_max else min)(ratios.values())
        hits = [jj for jj, r in ratios.items() if r == lam]
        if len(hits) > 1:
            raise DegeneracyError(f"tied lambda bound at columns {hits}")
        return i + 1, j + 1, lam, hits[0] + 1

    return RayAnchors(*end(False), *end(True))


def rank1_game(a: Matrix, gamma, beta) -> BimatrixGame:
    return BimatrixGame(a, -a + Matrix.outer(gamma, beta))


# Canonical rank-1 fixture: clean pipeline end to end (nondegenerate
# polytopes, 6-node path, no cycles), unique fully-mixed-x equilibrium
# x = (0, 7/11, 4/11), y = (13/21, 8/21, 0) at lambda = 9/11, and the
# section probes at the two gamma extremes fall strictly below/above the
# selection hyperplane.
R1A = Rank1Decomposition(
    Matrix([[-7, 4, -2], [1, 7, 4], [9, -6, 8]]),
    (Fraction(-2), Fraction(3), Fraction(-3)),
    (Fraction(3), Fraction(1), Fraction(4)),
)
R1A_NE_X = (Fraction(0), Fraction(7, 11), Fraction(4, 11))
R1A_NE_Y = (Fraction(13, 21), Fraction(8, 21), Fraction(0))
R1A_NE_LAMBDA = Fraction(9, 11)

# Rank-1 fixture with three equilibria (indices +1, -1, +1): exercises
# oddness, the index-sum theorem, and multi-crossing enumeration.
R1B = Rank1Decomposition(
    Matrix([[9, 3, -8], [-5, 0, -4], [1, -4, 1]]),
    (Fraction(-3), Fraction(3), Fraction(-3)),
    (Fraction(3), Fraction(4), Fraction(2)),
)
R1B_NE_KEYS = (
    ((Fraction(0), Fraction(0), Fraction(1)), (Fraction(0), Fraction(0), Fraction(1))),
    (
        (Fraction(0), Fraction(1, 3), Fraction(2, 3)),
        (Fraction(0), Fraction(5, 9), Fraction(4, 9)),
    ),
    (
        (Fraction(2, 61), Fraction(31, 61), Fraction(28, 61)),
        (Fraction(1, 169), Fraction(94, 169), Fraction(74, 169)),
    ),
)

# Rank-1 4x5 fixture with three equilibria (indices +1, -1, +1) on which a
# bisection probe lands on the -1 crossing's edge.
R1C = Rank1Decomposition(
    Matrix([[-11, -12, 22, 20, -27], [2, -29, -19, -8, -15], [-29, 20, -18, 29, 10],
            [-29, 19, -9, -14, 23]]),
    tuple(Fraction(g) for g in (7, -19, -18, 0)),
    tuple(Fraction(b) for b in (17, 17, 13, 10, 11)),
)


# Rank-2 fixture: the worked example's row matrix with a two-term payoff sum.
K2_A = EX1_A
K2_B = -K2_A + Matrix.outer((1, 0, 0), (1, 2, 3)) + Matrix.outer((0, 1, 0), (5, 1, 4))
K2_GAME = BimatrixGame(K2_A, K2_B)


def random_rank1(rng: random.Random, m: int, n: int, span: int = 9,
                 gamma_span: int = 3, beta_span: int = 4) -> Rank1Decomposition:
    """One random integer rank-1 decomposition (beta nonconstant)."""
    while True:
        a = Matrix([[rng.randint(-span, span) for _ in range(n)] for _ in range(m)])
        gamma = tuple(Fraction(rng.randint(-gamma_span, gamma_span)) for _ in range(m))
        beta = tuple(Fraction(rng.randint(1, beta_span)) for _ in range(n))
        if len(set(beta)) == 1:
            continue
        return Rank1Decomposition(a, gamma, beta)


WIDE_SPANS = dict(span=99, gamma_span=20, beta_span=50)


def integer_scale(d: Rank1Decomposition) -> int:
    """The lcm of a's denominator and every denominator of gamma and beta:
    the c for which a*c^2, gamma*c and beta*c are integers, as in the
    integerized copy that ``algorithms.bin_search`` reads its bound off."""
    return lcm(d.a.denom, *(x.denominator for x in d.gamma), *(x.denominator for x in d.beta))


def reference_ceil_log2(n: int) -> int:
    """The least k >= 0 with 2^k >= n, by doubling: the reference for
    ``algorithms._ceil_log2``, which reads it off a bit length."""
    k = 0
    while 1 << k < n:
        k += 1
    return k


def reference_bound_k(d: Rank1Decomposition) -> int:
    """``bin_search``'s bound_k in ``Fraction`` arithmetic: the reference for
    ``algorithms.iteration_bound``. c is read off d, and the entries off the
    decomposition the path runs on (``rank1_family``, which reduces a
    constant beta to zero gamma)."""
    c = integer_scale(d)
    run, _ = rank1_family(d)
    gamma = run.gamma
    b_max = max(run.a.max_abs() * c * c, max(map(abs, run.beta)) * c, max(map(abs, gamma)) * c)
    delta_bound = factorial(run.a.rows + 2) * int(b_max) ** (run.a.rows + 2)
    return reference_ceil_log2(delta_bound * delta_bound * int((max(gamma) - min(gamma)) * c))


def integerize(d: Rank1Decomposition) -> tuple[Rank1Decomposition, Fraction]:
    """Clear denominators: a*c^2, gamma*c, beta*c with c =
    ``integer_scale(d)``, the copy whose integers ``bin_search``'s bound is
    proved on.

    Scales both payoff matrices by c^2, which leaves the equilibrium set
    untouched; returns the scale c^2.
    """
    c = integer_scale(d)
    scaled = Rank1Decomposition(
        d.a.scale(c * c),
        tuple(g * c for g in d.gamma),
        tuple(b * c for b in d.beta),
    )
    return scaled, Fraction(c * c)


def cli_rank1_draws(*tags: str) -> list[tuple[str, Rank1Decomposition]]:
    """(tag, decomposition) of rank-1 draws as the CLI decomposes them,
    ``decompose_rank1`` of the game, which makes gamma fractional. The tags:
    "yardstick", the 200 small-entry games random_rank1(random.Random(77),
    s, s, span=2, gamma_span=1, beta_span=3) with s cycling 3, 4, 5;
    "wide", 60 draws of random.Random(2024) with the wide spans and s
    cycling 4, 4, 5; "large", the first draw at 16x16 and at 32x32, each of
    a fresh random.Random(11) with the wide spans."""
    draws = []
    if "yardstick" in tags:
        rng = random.Random(77)
        draws += [("yardstick", random_rank1(rng, s, s, span=2, gamma_span=1, beta_span=3))
                  for s in (3, 4, 5) * 66 + (3, 4)]
    if "wide" in tags:
        rng = random.Random(2024)
        draws += [("wide", random_rank1(rng, s, s, **WIDE_SPANS)) for s in (4, 4, 5) * 20]
    if "large" in tags:
        draws += [("large", random_rank1(random.Random(11), s, s, **WIDE_SPANS)) for s in (16, 32)]
    return [(tag, decompose_rank1(d.game())) for tag, d in draws]


def bench_corpus_texts() -> list[tuple[str, str]]:
    """(verb, game file text) of the three bench corpora, drawn as
    bench/run.py draws them from random.Random(1): rank1-solve's 60 rank-1
    games at 4, 4, 5 with both item-1 reproducers (the 4x5 game and the
    first 14x14 draw of random.Random(14)), rank1-enumerate's 30 at 4 to 8,
    with the wide spans, B = -A + gamma beta^T; and general-enumerate's 120
    at 4, 5, 7, 8 with A and B uniform in -99..99."""
    def text(a, b) -> str:
        rows = [f"{len(a)} {len(a[0])}", *(" ".join(map(str, row)) for row in [*a, *b])]
        return "\n".join(rows) + "\n"

    def rank1(d) -> str:
        a = d.a.tolists()
        return text(a, [[-x + Fraction(g) * b for x, b in zip(row, d.beta)]
                        for row, g in zip(a, d.gamma)])

    item1 = Rank1Decomposition(
        Matrix([[-11, -12, 22, 20, -27], [2, -29, -19, -8, -15], [-29, 20, -18, 29, 10],
                [-29, 19, -9, -14, 23]]), (7, -19, -18, 0), (17, 17, 13, 10, 11))
    texts = [("solve", rank1(item1)),
             ("solve", rank1(random_rank1(random.Random(14), 14, 14, **WIDE_SPANS)))]
    for verb, sizes, rounds in (("solve", (4, 4, 5), 20),
                                ("enumerate", (4, 5, 4, 7, 5, 4, 5, 4, 7, 8), 3)):
        rng = random.Random(1)
        texts += [(verb, rank1(random_rank1(rng, s, s, **WIDE_SPANS))) for s in sizes * rounds]
    rng = random.Random(1)
    for s in (4, 5, 7, 8) * 30:
        a, b = ([[rng.randint(-99, 99) for _ in range(s)] for _ in range(s)] for _ in range(2))
        texts.append(("enumerate", text(a, b)))
    return texts


def random_rank_k(rng: random.Random, k: int, m: int, n: int):
    """(a, betas, gammas) of one random rank-k family: entries of a in -9..9,
    k independent betas from 1..6 and gammas from -3..3."""
    a = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
    while True:
        betas = [[rng.randint(1, 6) for _ in range(n)] for _ in range(k)]
        if matrix_rank(Matrix(betas)) == k:
            break
    gammas = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
    return a, betas, gammas


def nondegenerate_rank1_fixtures(seed: int, count: int, min_mn=2, max_mn=5,
                                 pipeline=None) -> list[Rank1Decomposition]:
    """Deterministic list of rank-1 instances that survive the full pipeline.

    ``pipeline`` is called on each candidate and may raise degeneracy errors;
    those candidates are skipped so the returned fixtures are operationally
    clean. Any other library error propagates.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(min_mn, max_mn)
        n = rng.randint(min_mn, max_mn)
        d = random_rank1(rng, m, n)
        try:
            if pipeline is not None:
                pipeline(d)
        except DegeneracyError:
            continue
        out.append(d)
    return out


def random_general_games(seed: int, count: int, min_mn=2, max_mn=4, span=9,
                         pipeline=None) -> list[BimatrixGame]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(min_mn, max_mn)
        n = rng.randint(min_mn, max_mn)
        game = BimatrixGame(
            Matrix([[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]),
            Matrix([[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]),
        )
        try:
            if pipeline is not None:
                pipeline(game)
        except DegeneracyError:
            continue
        out.append(game)
    return out


MATCHING_PENNIES = BimatrixGame(
    Matrix([[1, -1], [-1, 1]]), Matrix([[-1, 1], [1, -1]])
)


def positivity_shift(game: BimatrixGame) -> tuple[BimatrixGame, Fraction, Fraction]:
    """Shift each payoff matrix by ceil(|min|) + 1 where needed (else 0)."""

    def shift_for(m: Matrix) -> Fraction:
        lowest = min_entry(m)
        return Fraction(0) if lowest > 0 else Fraction(ceil(abs(lowest)) + 1)

    s1, s2 = shift_for(game.a), shift_for(game.b)
    return BimatrixGame(shift(game.a, s1), shift(game.b, s2)), s1, s2


def zero_sum_solve(a: Matrix):
    """Exact minimax strategies and value of the game (a, -a), by two
    ``lp.solve_lp`` calls; the answer is verified on that game."""
    m, n = a.rows, a.cols
    # Row player: maximize v subject to v <= x . a_col_j, x in the simplex.
    rows = []
    rhs = []
    rels = []
    for j in range(n):
        rows.append(tuple(-e for e in a.col(j)) + (Fraction(1),))
        rhs.append(Fraction(0))
        rels.append(LE)
    for i in range(m):
        unit = [Fraction(0)] * (m + 1)
        unit[i] = Fraction(-1)
        rows.append(tuple(unit))
        rhs.append(Fraction(0))
        rels.append(LE)
    rows.append(tuple([Fraction(1)] * m + [Fraction(0)]))
    rhs.append(Fraction(1))
    rels.append(EQ)
    objective = [Fraction(0)] * m + [Fraction(1)]
    row_sol = solve_lp(LinearProgram.build(objective, rows, rels, rhs))
    x = row_sol.point[:m]

    # Column player: minimize u subject to a_row_i . y <= u, y in the simplex.
    rows2 = []
    rhs2 = []
    rels2 = []
    for i in range(m):
        rows2.append(tuple(a.row(i)) + (Fraction(-1),))
        rhs2.append(Fraction(0))
        rels2.append(LE)
    for j in range(n):
        unit = [Fraction(0)] * (n + 1)
        unit[j] = Fraction(-1)
        rows2.append(tuple(unit))
        rhs2.append(Fraction(0))
        rels2.append(LE)
    rows2.append(tuple([Fraction(1)] * n + [Fraction(0)]))
    rhs2.append(Fraction(1))
    rels2.append(EQ)
    objective2 = [Fraction(0)] * n + [Fraction(-1)]
    col_sol = solve_lp(LinearProgram.build(objective2, rows2, rels2, rhs2))
    y = col_sol.point[:n]

    game = BimatrixGame(a, a.scale(-1))
    profile = MixedProfile(x, y)
    if not verify_equilibrium(game, profile):
        raise NotEquilibrium("minimax strategies failed verification")
    return EquilibriumRecord(profile, *fraction_payoffs(game, profile), profile.support(), None,
                             "zero-sum-lp")


def fully_labeled_pairs(family: GameFamily, guard: int = 4) -> list[tuple]:
    """Every fully-labeled vertex pair (v, w) by exhaustive basis
    enumeration, in basis order."""
    if family.m > guard or family.n > guard:
        raise TooLarge(f"{family.m}x{family.n} exceeds the pair-enumeration guard {guard}")
    full = frozenset(range(1, family.m + family.n + 1))
    p_vertices = enumerate_vertices(family.p)
    q_vertices = enumerate_vertices(family.qp)
    pairs = [
        (v, w)
        for v in p_vertices
        for w in q_vertices
        if (v.labels | w.labels) == full
    ]
    pairs.sort(key=lambda vw: (sorted(vw[0].basis), sorted(vw[1].basis)))
    return pairs


def extreme_equilibria(game: BimatrixGame, guard: int = 6) -> list:
    """Every extreme equilibrium of the game, as verified records in (x, y)
    order: the completely labeled pairs of a vertex of ``build_p(A)``, over
    (y, pi1), and one of ``build_p(B^T)``, over (x, pi2), as lrsnash lists
    them (von Stengel 2002; Avis, Rosenberg, Savani and von Stengel 2010).
    The second's labels 1..n, its columns' best-response rows, are m+1..m+n
    in the first's numbering, and its sign labels n+1..n+m, x_i = 0, are
    1..m. On a degenerate game these are more than ``support_enumeration``
    finds. A game with more than ``guard`` strategies a side raises
    ``TooLarge``.
    """
    m, n = game.m, game.n
    if m > guard or n > guard:
        raise TooLarge(f"{m}x{n} exceeds the extreme-equilibrium guard {guard}")
    full = frozenset(range(1, m + n + 1))
    xs = [(w, frozenset(m + lab if lab <= n else lab - n for lab in w.labels))
          for w in enumerate_vertices(build_p(game.b.transpose()))]
    records = []
    for v in enumerate_vertices(build_p(game.a)):
        for w, labels in xs:
            if v.labels | labels == full:
                profile = MixedProfile(w.coords[:m], v.coords[:n])
                if not verify_equilibrium(game, profile):
                    raise NotEquilibrium("a completely labeled pair failed exact verification")
                records.append(EquilibriumRecord(profile, *fraction_payoffs(game, profile),
                                                 profile.support(), None, "extreme-equilibria"))
    return sorted(records, key=lambda r: (r.profile.x, r.profile.y))


def g_value(family: GameFamily, node) -> Fraction:
    """Path coordinate beta . y + lambda of a node (strictly monotone on rank-1 paths)."""
    return g_at(family, node.v.coords, node.w.coords)


def reference_homeo_inverse(family: GameFamily, alpha_prime, trace=None):
    """The reference for ``algorithms.homeo_inverse``: the whole path
    (``trace``, else ``trace_path``), bisected over the strictly increasing
    path coordinates of its nodes (``g_value``), the point solved on the
    located node or edge, the row weights from the remaining affine system,
    and the result verified exactly. The rays' anchors need unique extreme
    beta entries, so it raises on ties where the probes need none."""
    if not family.minus_a:
        raise RankGamesError("homeomorphism maps are defined on families with c = -a")
    alpha_prime = vector(alpha_prime)
    target = alpha_prime[0]
    if trace is None:
        trace = trace_path(family)
    gs = [g_value(family, u) for u in trace.nodes]
    if any(b <= a for a, b in zip(gs, gs[1:])):
        raise RankGamesError("path coordinate is not strictly increasing")
    pos = bisect_left(gs, target)
    if pos < len(gs) and gs[pos] == target:
        node = trace.nodes[pos]
        v_coords, w_coords = node.v.coords, node.w.coords
    else:
        edge = trace.edges[pos]
        g0 = g_at(family, *edge.point_at(0))  # g is affine along the edge
        dg = g_at(family, *edge.point_at(1)) - g0
        if dg == 0:
            raise RankGamesError("path coordinate is constant on a located edge")
        t_star = (target - g0) / dg
        if t_star < 0 or (edge.moving.t_max is not None and t_star > edge.moving.t_max):
            raise RankGamesError("located edge does not span the requested value")
        v_coords, w_coords = edge.point_at(t_star)
    x, y = w_coords[: family.m], v_coords[: family.n]
    a1 = target - vdot(family.beta, y) - sum(
        (x[i] * alpha_prime[i] for i in range(1, family.m)), Fraction(0)
    )
    alpha = (a1,) + tuple(alpha_prime[i] + a1 for i in range(1, family.m))
    profile = MixedProfile(x, y)
    if not verify_equilibrium(family.game_at(alpha), profile):
        raise NotEquilibrium("inverse map produced a non-equilibrium (degenerate input?)")
    return alpha, profile
