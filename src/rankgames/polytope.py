"""Labeled polytopes for the path machinery: construction, vertices, pivoting.

Two constraint systems share one representation: the row player's polytope
over (y, pi1), and the lifted column polytope over (x, lambda_1..lambda_k,
pi2), with k = 1 on the path. Inequalities carry the labels 1..m+n (rows of
player 1 first, then columns of player 2); each polytope additionally has the
single probability equality.

Each polytope holds its rows as integers, each row times its own least
positive scale (``Polytope.int_rows``, ``Polytope.scales``), built straight
from the matrices' integer rows; the ``Fraction`` rows are built only when
read. Pivoting runs on a fraction-free integer tableau of the polytope that
each vertex carries (integer pivoting as in lrsnash: Avis, Rosenberg, Savani
& von Stengel, 2010), on ``linalg``'s one exact kernel. The tableau is a
dictionary: it keeps only the d - 1 nonbasic slack columns and the rhs, in
label order. A vertex given only by its basis gets its tableau from
``linalg.gauss_jordan`` on the integer rows. A pivot is one
``linalg.exchange_pivot`` on a copy of the base vertex's tableau; the edge
direction, the ratio test (``linalg.least_ratios``), the far vertex and its
labels are read off that tableau, so the walk solves no system. Coordinates,
directions and steps are still returned as ``Fraction``, but a pivot's far
vertex and its edge are made without their coordinates and direction: those
are read off the tableau when first used, which on most path edges is never.
Each edge keeps its base point and direction as integers over one
denominator. A section walk reads its edges off the tableau as integer
columns (``_column``: the edge direction times ``denom``), so it builds no
``Fraction`` direction at all.
"""
from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import (
    ConstantBeta,
    DegeneratePolytope,
    DependentBetas,
    DimensionMismatch,
    NoBetas,
    Singular,
    TooLarge,
    ZeroBeta,
)
from .games import BimatrixGame, family_game
from .linalg import (
    Matrix,
    Rat,
    Vec,
    exchange_pivot,
    gauss_jordan,
    integers,
    least_ratios,
    matrix_rank,
    vadd,
    vector,
    vscale,
)


class Tableau(NamedTuple):
    """Fraction-free dictionary of a polytope at one vertex.

    One row per row of ``Polytope.int_rows``, over the nonbasic columns only:
    the slacks of the basis labels ``cols``, ascending, then the right-hand
    side; the true dictionary is ``rows / denom`` with ``denom > 0``. Every
    entry is the one the full tableau over z_0..z_{d-1}, the slacks of labels
    1..L and the rhs holds in that column; its basic columns, ``denom`` on
    their row and zero elsewhere, are left out. Row r's basic variable is the
    full tableau's column ``basic[r]``: z_r in the first d rows, then one
    slack per row, the slacks outside the basis (label l's is column
    d + l - 1). The slack of label l is measured in ``int_rows[l]``, so it is
    the true slack times ``Polytope.scales[l]``.
    """

    rows: tuple[tuple[int, ...], ...]
    denom: int
    basic: tuple[int, ...]
    cols: tuple[int, ...]

    def point(self) -> Vec:
        """The vertex's coordinates: the rhs of the z rows over ``denom``.
        There are d of them: d - 1 slack columns and the rhs."""
        d = len(self.rows[0])
        return tuple(Fraction(row[-1], self.denom) for row in self.rows[:d])


class _ReadOff:
    """A dataclass field that may be given as None: it is then computed by
    ``read`` from the instance (off its tableau) on first use, and kept.

    It has no default, so the field stays positional and required; equality,
    hashing and ``dataclasses.replace`` see the computed value.
    """

    def __init__(self, read: Callable):
        self.read = read

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # no class-level default
        value = obj.__dict__[self.name]
        if value is None:
            value = obj.__dict__[self.name] = self.read(obj)
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class Vertex:
    """Basic feasible point keyed by its defining tight-row set.

    ``tableau`` is the polytope's tableau at this vertex, set by ``pivot`` and
    ``try_vertex``; when it is None ``Polytope.tableau`` builds it. Those two
    make the vertex with ``coords`` None, which are read off the tableau when
    first used.
    """

    coords: Vec = _ReadOff(lambda v: v.tableau.point())
    basis: frozenset[int]
    labels: frozenset[int]
    tableau: Optional[Tableau] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EdgeDescriptor:
    """One-dimensional face reached by relaxing one inequality at a vertex.

    Points are ``base.coords + t * direction`` for t in [0, t_max], with
    t_max None on unbounded edges. Every edge the package makes holds its
    base point as ``origin`` and its direction as ``column``, integers over
    one positive ``denom``; ``point_at`` reads them, and ``direction`` is
    read off them when first used. An edge that ``pivot`` makes carries its
    base's ``tableau`` too: ``origin`` is its rhs on the z rows and
    ``column`` the relaxed slack's nonbasic column there, times minus the
    row's scale. The section edge of ``paramlp.solve_lp_delta`` is read off
    P's tableau at the section optimum (``paramlp.section_edge``) and
    carries no tableau.
    """

    base: Vertex
    relaxed: int
    direction: Vec = _ReadOff(lambda e: tuple(Fraction(k, e.denom) for k in e.column))
    t_max: Optional[Rat]
    far_end: Optional[Vertex]
    tableau: Optional[Tableau] = field(default=None, compare=False, repr=False)
    column: Optional[tuple[int, ...]] = field(default=None, compare=False, repr=False)
    origin: Optional[tuple[int, ...]] = field(default=None, compare=False, repr=False)
    denom: int = field(default=1, compare=False, repr=False)

    @property
    def unbounded(self) -> bool:
        return self.t_max is None

    @property
    def tight_set(self) -> frozenset[int]:
        return self.base.basis - {self.relaxed}

    def point_at(self, t: Rat) -> Vec:
        """The point at edge parameter t, one ``Fraction`` per coordinate."""
        p, q = t.numerator, t.denominator
        return tuple(Fraction(o * q + p * c, self.denom * q)
                     for o, c in zip(self.origin, self.column))


def min_ratio(steps: Iterable[tuple[int, int, int]],
              tight: frozenset[int]) -> tuple[int, int, Optional[int]]:
    """The shortest step over (label, slack, rate) integer triples in
    ascending label order, as (slack, rate), with its label; the label is
    None when no rate is positive. A zero step or a tie is degenerate;
    ``tight`` names the edge in the message.
    """
    best_s, best_r, hits = least_ratios(steps)
    if not hits:
        return 0, 0, None
    if best_s == 0:
        raise DegeneratePolytope(f"extra tight row {hits[0]} leaving {sorted(tight)}")
    if len(hits) > 1:
        raise DegeneratePolytope(f"ratio tie between rows {hits} leaving {sorted(tight)}")
    return best_s, best_r, hits[0]


class Polytope:
    """Inequalities ``a . z <= b`` labeled 1..m+n plus one equality row.

    ``int_rows[l]`` is row l's (a, b) in integers, times its least positive
    scale ``scales[l]``: the equality at index 0, inequality l at index l.
    """

    def __init__(self, which: str, dim: int, int_rows: Sequence[Sequence[int]],
                 scales: Sequence[int], m: int, n: int):
        self.which = which
        self.dim = dim
        self.int_rows = tuple(map(tuple, int_rows))
        self.scales = tuple(scales)
        self.m = m
        self.n = n

    def _fraction_row(self, index: int) -> tuple[Vec, Rat]:
        row, scale = self.int_rows[index], self.scales[index]
        return tuple(Fraction(x, scale) for x in row[:-1]), Fraction(row[-1], scale)

    @property
    def ineqs(self) -> tuple[tuple[Vec, Rat], ...]:
        """Every inequality (a, b) in ``Fraction``s, label order."""
        return tuple(self._fraction_row(lab) for lab in range(1, len(self.int_rows)))

    @property
    def eq(self) -> tuple[Vec, Rat]:
        """The probability equality (a, b) in ``Fraction``s."""
        return self._fraction_row(0)

    @property
    def n_labels(self) -> int:
        return len(self.int_rows) - 1

    @property
    def basis_size(self) -> int:
        return self.dim - 1  # one equality is always active

    def row(self, label: int) -> tuple[Vec, Rat]:
        if not 1 <= label <= self.n_labels:
            raise IndexError(f"label {label} out of 1..{self.n_labels}")
        return self._fraction_row(label)

    def _dots(self, v: Sequence[Fraction]) -> tuple[list[int], int]:
        """``a . v`` of every inequality, times its row scale and q, the least
        common denominator of ``v``; returns those integers and q."""
        z, q = integers(v)
        return [sum(map(mul, row, z)) for row in self.int_rows[1:]], q

    def _slacks(self, point: Sequence[Fraction]) -> tuple[list[int], int]:
        """Every inequality's slack at ``point`` in the units of ``_dots``:
        exact in sign and in being zero."""
        dots, q = self._dots(point)
        return [row[-1] * q - dot for row, dot in zip(self.int_rows[1:], dots)], q

    def labels_at(self, point: Sequence[Fraction]) -> frozenset[int]:
        slacks, _ = self._slacks(point)
        return frozenset(lab for lab, s in enumerate(slacks, 1) if s == 0)

    def try_vertex(self, basis: Iterable[int]) -> Optional[Vertex]:
        """Vertex for a basis, with its tableau, or None when singular or infeasible."""
        basis = frozenset(basis)
        try:
            tab = self._basis_tableau(basis)
        except Singular:
            return None
        if any(row[-1] < 0 for row in tab.rows[self.dim:]):
            return None
        return self._tableau_vertex(basis, tab)

    def vertex_from_basis(self, basis: Iterable[int]) -> Vertex:
        v = self.try_vertex(basis)
        if v is None:
            raise DegeneratePolytope(f"basis {sorted(basis)} is not a feasible vertex")
        return v

    def tableau(self, vertex: Vertex) -> Tableau:
        """The vertex's tableau, built from its basis when it carries none."""
        return self._basis_tableau(vertex.basis) if vertex.tableau is None else vertex.tableau

    def _basis_tableau(self, basis: frozenset[int]) -> Tableau:
        """The tableau of a basis, built with d exchanges (``gauss_jordan``)
        on the integer rows [z | rhs], each bringing one z into the equality
        row or a basis row; the equality's column, which has no slack, is
        dropped and the basis slacks' columns are put in label order."""
        if len(basis) != self.basis_size:
            raise DimensionMismatch(
                f"basis size {len(basis)} != {self.basis_size} for {self.which}"
            )
        d = self.dim
        rows = [list(row) for row in self.int_rows]
        pivots, denom = gauss_jordan(rows, [0, *sorted(basis)], d)
        if None in pivots:
            raise Singular(f"basis {sorted(basis)} is singular in {self.which}")
        basic = [-1, *range(d, d + self.n_labels)]  # the equality has no slack
        for col, r in enumerate(pivots):
            basic[r] = col
        order = sorted(range(len(rows)), key=basic.__getitem__)
        # Column j now holds the slack of row pivots[j], which is its label.
        keep = sorted((r, j) for j, r in enumerate(pivots) if r)
        if denom < 0:
            rows, denom = [[-x for x in row] for row in rows], -denom
        pick = itemgetter(*(j for _, j in keep), d)
        return Tableau(
            tuple(pick(rows[r]) for r in order),
            denom,
            tuple(basic[r] for r in order),
            tuple(lab for lab, _ in keep),
        )

    def _tableau_vertex(self, basis: frozenset[int], tab: Tableau) -> Vertex:
        """The vertex of a tableau: labels the basis and every basic slack at
        zero; its coordinates are read off the z rows when first used."""
        d = self.dim
        zeros = {var - d + 1 for var, row in zip(tab.basic[d:], tab.rows[d:]) if not row[-1]}
        return Vertex(None, basis, basis | zeros, tab)

    def _column(self, tab: Tableau, relax: int) -> tuple[int, ...]:
        """Relax's edge direction times ``tab.denom``: the slack's column on
        the z rows, times minus the row's scale."""
        col, scale = tab.cols.index(relax), -self.scales[relax]
        return tuple(scale * row[col] for row in tab.rows[: self.dim])

    def _ratio_rows(self, tab: Tableau, relax: int) -> list[tuple[int, int, int]]:
        """(label, slack, rate) of every basic slack along relax's edge, in label order."""
        d, col = self.dim, tab.cols.index(relax)
        slack_rows = zip(tab.basic[d:], tab.rows[d:])
        return sorted((var - d + 1, row[-1], row[col]) for var, row in slack_rows)

    def _pivot_to(self, vertex: Vertex, tab: Tableau, relax: int, hit: int) -> Vertex:
        """One exchange on a copy of the tableau: relax leaves the basis, hit
        enters, and hit's slack column moves to its place in label order."""
        d, c = self.dim, tab.cols.index(relax)
        r = tab.basic.index(d + hit - 1)
        rows = [list(row) for row in tab.rows]
        denom = exchange_pivot(rows, rows[r], c, tab.denom)
        cols = [*tab.cols[:c], *tab.cols[c + 1:]]
        k = bisect(cols, hit)
        cols.insert(k, hit)
        if k != c:
            for row in rows:
                row.insert(k, row.pop(c))
        basic = tab.basic[:r] + (d + relax - 1,) + tab.basic[r + 1:]
        tab = Tableau(tuple(map(tuple, rows)), denom, basic, tuple(cols))
        return self._tableau_vertex(vertex.basis - {relax} | {hit}, tab)

    def pivot(self, vertex: Vertex, relax: int) -> EdgeDescriptor:
        """Exact ratio test along the edge obtained by relaxing one basis row,
        and one integer pivot on a copy of the vertex's tableau to its far end."""
        if relax not in vertex.basis:
            raise ValueError(f"label {relax} not in basis {sorted(vertex.basis)}")
        tab = self.tableau(vertex)
        column = self._column(tab, relax)
        origin = tuple(row[-1] for row in tab.rows[: self.dim])
        slack, rate, hit = min_ratio(self._ratio_rows(tab, relax), vertex.basis)
        if hit is None:
            return EdgeDescriptor(vertex, relax, None, None, None, tab, column, origin, tab.denom)
        far = self._pivot_to(vertex, tab, relax, hit)
        if (tight := len(far.labels)) > self.basis_size:
            raise DegeneratePolytope(f"vertex {sorted(far.basis)} has {tight} tight rows")
        step = Fraction(slack, rate * self.scales[relax])
        return EdgeDescriptor(vertex, relax, None, step, far, tab, column, origin, tab.denom)

    def simplex_pivot(self, vertex: Vertex, relax: int) -> Optional[Vertex]:
        """The basis after relaxing ``relax`` with Bland's leaving rule: the
        lowest label of least ratio enters. Zero steps and extra tight rows are
        allowed; None when the edge is unbounded."""
        tab = self.tableau(vertex)
        _, _, hits = least_ratios(self._ratio_rows(tab, relax))
        return self._pivot_to(vertex, tab, relax, hits[0]) if hits else None

    def edge_through_point(self, tight: Iterable[int], point: Sequence[Fraction],
                           direction: Vec) -> EdgeDescriptor:
        """Maximal edge through an interior point with the given tight rows.

        ``direction`` is a nonzero vector along the edge (it keeps the equality
        and the ``tight`` rows). The base vertex of the returned edge is the
        end on the -direction side, and the edge runs along +direction; when
        that side is unbounded, the base is the other end and the edge runs
        along -direction. The package does not call it: it is the ``Fraction``
        reference that the tests hold ``paramlp.section_edge`` to, and its
        edge carries no integer base point or column.
        """
        tight = frozenset(tight)
        point, direction = vector(point), vector(direction)
        # Row l's step along direction is (slack / rate) * unit.
        slacks, p_scale = self._slacks(point)
        rates, d_scale = self._dots(direction)
        unit = Fraction(d_scale, p_scale)

        def ratio(sign: int) -> tuple[Optional[Rat], Optional[int]]:
            s, r, lab = min_ratio(
                ((lab, s, sign * r) for lab, (s, r) in enumerate(zip(slacks, rates), 1)
                 if lab not in tight),
                tight,
            )
            return (None, None) if lab is None else (Fraction(s, r) * unit, lab)

        t_pos, lab_pos = ratio(1)
        t_neg, lab_neg = ratio(-1)
        if t_pos is None and t_neg is None:
            raise DegeneratePolytope("edge is a full line; polytope not pointed")

        def end_vertex(t: Rat, lab: int, d: Vec) -> Vertex:
            coords = vadd(point, vscale(t, d))
            basis = tight | {lab}
            vert = Vertex(coords, basis, self.labels_at(coords))
            if len(vert.labels) > self.basis_size:
                raise DegeneratePolytope(f"degenerate edge endpoint {sorted(basis)}")
            return vert

        pos_v = end_vertex(t_pos, lab_pos, direction) if t_pos is not None else None
        neg_v = end_vertex(t_neg, lab_neg, vscale(-1, direction)) if t_neg is not None else None
        if neg_v is None:
            neg_v, pos_v = pos_v, None
            t_neg, t_pos = t_pos, None
            direction = vscale(-1, direction)
        base = neg_v
        relaxed = next(iter(base.basis - tight))
        t_total = None if pos_v is None else t_pos + t_neg
        return EdgeDescriptor(base, relaxed, direction, t_total, pos_v)


def _integer_row(nums: Sequence[int], q: int, tail: Sequence[Rat]) -> tuple[tuple[int, ...], int]:
    """The row (nums / q, *tail) in integers, times its least positive scale,
    and that scale; ``tail`` holds ints or Fractions."""
    scale = lcm(q // gcd(q, *nums), *(t.denominator for t in tail))
    return (*(x * scale // q for x in nums),
            *(t.numerator * (scale // t.denominator) for t in tail)), scale


def _sign_row(i: int, width: int) -> tuple[tuple[int, ...], int]:
    """z_i >= 0 as -z_i <= 0, over ``width`` columns with the rhs."""
    return tuple(-1 if col == i else 0 for col in range(width)), 1


def build_p(a: Matrix) -> Polytope:
    """Best-response polytope of the row player over (y, pi1), from the
    integer rows of ``a``."""
    m, n = a.rows, a.cols
    rows = [((*[1] * n, 0, 1), 1)]
    rows += [_integer_row(row, a.denom, (-1, 0)) for row in a.int_rows]
    rows += [_sign_row(j, n + 2) for j in range(n)]
    int_rows, scales = zip(*rows)
    return Polytope("P", n + 1, int_rows, scales, m, n)


def build_qprime(c: Matrix, betas: Sequence[Sequence[Fraction]]) -> Polytope:
    """Lifted column-player polytope over (x, lambda_1..lambda_k, pi2), one
    lambda per beta; column j's row is c_j . x + sum_l beta_l[j] lambda_l <= pi2,
    built from the integer rows of ``c``."""
    betas = tuple(vector(b) for b in betas)
    if not betas:
        raise NoBetas("the lifted polytope needs at least one beta")
    if any(all(b == 0 for b in beta) for beta in betas):
        raise ZeroBeta("beta must be nonzero")
    m, n, k = c.rows, c.cols, len(betas)
    if any(len(beta) != n for beta in betas):
        raise DimensionMismatch("beta length differs from column count")
    if matrix_rank(Matrix(betas)) != k:
        raise DependentBetas("beta vectors are linearly dependent")
    rows = [((*[1] * m, *[0] * (k + 1), 1), 1)]
    rows += [_sign_row(i, m + k + 2) for i in range(m)]
    rows += [_integer_row(col, c.denom, (*(beta[j] for beta in betas), -1, 0))
             for j, col in enumerate(zip(*c.int_rows))]
    int_rows, scales = zip(*rows)
    return Polytope("Qprime", m + k + 1, int_rows, scales, m, n)


def _unique_arg_extreme(values: Sequence[int], want_max: bool) -> int:
    best = max(values) if want_max else min(values)
    idxs = [i for i, v in enumerate(values) if v == best]
    if len(idxs) > 1:
        raise DegeneratePolytope(f"tied extreme entries at positions {idxs}")
    return idxs[0]


class GameFamily:
    """Shared-row-player game family: fixed a, c and k betas with free row weights.

    Bundles the two polytopes for everything downstream. With k = 1 it also
    builds the path's two rays from their bases, in integers; with c = -a
    (``minus_a``) its sections are the box map's, for every k.
    """

    def __init__(self, a: Matrix, c: Matrix, *betas: Sequence[Fraction]):
        if (a.rows, a.cols) != (c.rows, c.cols):
            raise DimensionMismatch("a and c differ in shape")
        self.a = a
        self.c = c
        self.betas = tuple(vector(b) for b in betas)
        self.k = len(self.betas)
        self.m, self.n = a.rows, a.cols
        self.p = build_p(a)
        self.qp = build_qprime(c, self.betas)
        self.minus_a = c == a.scale(-1)

    @property
    def beta(self) -> Vec:
        """The single beta, which the path needs: one lambda to walk along."""
        if self.k != 1:
            raise DimensionMismatch(f"the path needs one beta, the family has {self.k}")
        return self.betas[0]

    def game_at(self, *alphas: Sequence[Fraction]) -> BimatrixGame:
        """The family's game at row weights alpha_1..alpha_k, one per beta."""
        if len(alphas) != self.k:
            raise DimensionMismatch(f"{len(alphas)} row weights for {self.k} betas")
        return family_game(self.a, self.c, alphas, self.betas)

    def ray_bases(self, high: bool) -> tuple[frozenset[int], frozenset[int], int]:
        """Bases of one ray of the path, found in integers: P's pure vertex,
        Q''s bound vertex, and the label that the ray edge relaxes there.

        Column j has the least beta on the low ray (lambda -> -inf) and the
        greatest on the high ray; i is its best row. Along x = e_i with column
        j's row tight, column k's slack is (c_ij - c_ik) + (beta_j - beta_k)
        lambda, so the bounding column k has the least ratio of c_ij - c_ik
        over beta_k - beta_j (low ray) or beta_j - beta_k (high ray): positive
        rates, slacks of either sign.
        """
        m, n = self.m, self.n
        beta, _ = integers(self.beta)
        if all(b == beta[0] for b in beta):
            raise ConstantBeta("beta is constant; no distinct path endpoints")
        # Both rays' columns, then both rows, are unique before either bound.
        cols = [_unique_arg_extreme(beta, want_max) for want_max in (False, True)]
        rows = [_unique_arg_extreme([row[j] for row in self.a.int_rows], True) for j in cols]
        i, j = rows[high], cols[high]
        tight = frozenset(row + 1 for row in range(m) if row != i) | {m + j + 1}
        c, side = self.c.int_rows[i], -1 if high else 1
        _, _, hits = least_ratios(
            (m + k + 1, c[j] - c[k], side * (beta[k] - beta[j])) for k in range(n) if k != j
        )
        if len(hits) > 1:
            raise DegeneratePolytope(f"ratio tie between rows {hits} leaving {sorted(tight)}")
        v_basis = frozenset(m + col + 1 for col in range(n) if col != j) | {i + 1}
        return v_basis, tight | {hits[0]}, hits[0]

    def ray(self, high: bool) -> tuple[Vertex, EdgeDescriptor]:
        """Pure vertex of P and unbounded edge of Q' on one ray of the path,
        built from ``ray_bases``: both vertices carry their tableaux, and the
        edge is the one ``Polytope.pivot`` makes at the lambda bound."""
        v_basis, w_basis, relax = self.ray_bases(high)
        w = self.qp.vertex_from_basis(w_basis)
        return self.p.vertex_from_basis(v_basis), self.qp.pivot(w, relax)

    def lambda_of(self, w: Vertex) -> Rat:
        return w.coords[self.m]


def basis_count(poly: Polytope) -> int:
    return comb(poly.n_labels, poly.basis_size)


def enumerate_vertices(poly: Polytope, guard: int = 10**6) -> list[Vertex]:
    """All basic feasible points by exhaustive basis enumeration (guarded)."""
    if basis_count(poly) > guard:
        raise TooLarge(f"{basis_count(poly)} bases exceeds guard {guard}")
    seen: dict[Vec, Vertex] = {}
    for combo in combinations(range(1, poly.n_labels + 1), poly.basis_size):
        v = poly.try_vertex(combo)
        if v is not None and v.coords not in seen:
            seen[v.coords] = v
    return list(seen.values())


def check_nondegenerate(poly: Polytope, guard: int = 10**6) -> bool:
    """True when no basic feasible point has extra tight rows (exhaustive, guarded)."""
    return all(len(v.labels) == poly.basis_size for v in enumerate_vertices(poly, guard))
