"""Labeled polytopes for the path machinery: construction, vertices, pivoting.

Two constraint systems share one representation: the row player's polytope
over (y, pi1), and the lifted column polytope over (x, lambda_1..lambda_k,
pi2), with k = 1 on the path. Inequalities carry the labels 1..m+n (rows of
player 1 first, then columns of player 2); each polytope additionally has the
single probability equality.

Each polytope holds its rows as integers, each row times its own least
positive scale (``Polytope.int_rows``, ``Polytope.scales``), built once,
straight from the matrices' integer rows and the family's integer betas,
with no ``Fraction``. Pivoting runs on a fraction-free integer
tableau of the polytope that each vertex carries (integer pivoting as in
lrsnash: Avis, Rosenberg, Savani & von Stengel, 2010), on ``linalg``'s one
exact kernel. The tableau is a dictionary: it keeps only the d - 1 nonbasic
slack columns and the rhs, in label order, and as lrsnash's dictionary it
keeps rows only for the slacks and the free coordinates (pi1 in P, lambda
and pi2 in Q'). A sign-constrained coordinate (y_j in P, x_i in Q') equals
its sign row's slack, and every reader of coordinates reads it off that
slack's row through one accessor, ``Tableau.z_column``. A pure vertex of P,
the start of a section walk and of the low ray, has its tableau written down
from P's integer rows and scales, with no elimination
(``GameFamily.pure_vertex``). Every other vertex given only by its basis
gets its tableau from ``linalg.gauss_jordan`` on the integer rows but the
sign rows, with the columns of its sign rows (y_j >= 0, x_i >= 0) taken as
already pivoted: one exchange for the equality and one per other basis row.
A pivot is one ``linalg.exchange_pivot`` of the base vertex's tableau, which
is left as it is: each far row is built once, as a tuple, with the entering
slack's column already in its label-order place, and the far
labels are read off the new rhs. The edge direction, the ratio test
(``linalg.least_ratios``), the far vertex and its labels are read off the
tableaux, so the walk solves no system. The ratio test zips the slack rows'
columns in dictionary order and sorts only the labels that tie, so Bland's
rule and every degeneracy message see them in label order. Every record
holds its point once, in integers: a vertex its point over one denominator
(``Vertex.integer_point``), an edge its base point and direction over one
denominator and its length as an integer ratio, and a pivot's far vertex and
edge read even those off the tableau on first use (``EdgeDescriptor.origin``
and ``column``). Their ``Fraction`` coordinates, direction and length are
views, built when first read, which on most path edges is never. A section
walk reads two rows of each vertex's tableau (``Tableau.z_row``) and only the
far end of each pivot, so it builds no edge column, base point or
``Fraction`` direction at all.
"""
from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from itertools import repeat
from operator import itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    ConstantBeta,
    DegeneratePolytope,
    DependentBetas,
    DimensionMismatch,
    NoBetas,
    Singular,
    TiedBeta,
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
    rationals,
    vadd,
    vector,
    vscale,
)


class Tableau(NamedTuple):
    """Fraction-free dictionary of a polytope at one vertex.

    Rows over the nonbasic columns only: the slacks of the basis labels
    ``cols``, ascending, then the right-hand side; the true dictionary is
    ``rows / denom`` with ``denom > 0``. Every entry is the one the full
    tableau over z_0..z_{d-1}, the slacks of labels 1..L and the rhs holds
    in that column; its basic columns, ``denom`` on their row and zero
    elsewhere, are left out. Row r's basic variable is the full tableau's
    column ``basic[r]``: first the z_c of each free coordinate (pi1 in P,
    lambda and pi2 in Q'), then one slack per row, the slacks outside the
    basis (label l's is column d + l - 1). The slack of label l is measured
    in ``int_rows[l]``, so it is the true slack times ``Polytope.scales[l]``.

    A sign-constrained coordinate (y_j in P, x_i in Q') has no row of its
    own: its sign row -z_c <= 0 (label l) makes z_c equal to that row's
    slack, so its row in the full tableau is a copy of the slack's row, or
    ``-denom`` in the slack's column, zero elsewhere, when l is in the
    basis. ``z_at[c]`` is the index of the row that z_c reads, its own or
    its sign slack's, or -l for that unit row; ``z_column`` reads them.
    """

    rows: tuple[tuple[int, ...], ...]
    denom: int
    basic: tuple[int, ...]
    cols: tuple[int, ...]
    z_at: tuple[int, ...]

    def z_column(self, j: int) -> list[int]:
        """Column j of the full tableau's rows of z_0..z_{d-1}: the
        nonbasic column j, or the rhs for j = -1. The one reader of the
        vertex's coordinates and of its edges' directions."""
        rows = self.rows
        if j == -1:
            return [rows[r][-1] if r >= 0 else 0 for r in self.z_at]
        unit, lab = -self.denom, -self.cols[j]
        return [rows[r][j] if r >= 0 else unit if r == lab else 0 for r in self.z_at]

    def z_row(self, coeffs: Sequence[int]) -> list[int]:
        """The row of sum_c coeffs[c] * z_c over the nonbasic columns and the
        rhs: its entry j is the dot of ``coeffs`` with ``z_column(j)``, for
        every column at once. A coordinate with a row of its own adds that
        row; one whose sign slack is in the basis adds -denom in the
        slack's column."""
        rows, picked, units = self.rows, [], []
        for x, r in zip(coeffs, self.z_at):
            if x:
                (picked if r >= 0 else units).append((x, r))
        if picked:
            xs, rs = zip(*picked)
            row = [sum(map(mul, xs, col)) for col in zip(*(rows[r] for r in rs))]
        else:
            row = [0] * len(rows[0])
        for x, r in units:
            row[self.cols.index(-r)] -= x * self.denom
        return row


class ReadOff:
    """A dataclass field's default that reads the field off the instance, off
    its tableau, when the field was given as None: ``read`` runs on first
    use, and the value is kept.

    Given as ``field(default=ReadOff(...))``, the field is optional, and the
    record's constructor takes None for it; ``dataclasses.replace`` sees the
    value read. Each record that has one fills its instance dict in its own
    constructor; ``__set__`` is defined so that the descriptor, not the
    instance dict, answers every read.
    """

    def __init__(self, read: Callable):
        self.read = read

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name]
        if value is None:
            value = obj.__dict__[self.name] = self.read(obj)
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


IntPoint = tuple[Sequence[int], int]  # integers over one positive denominator


@dataclass(frozen=True, init=False)
class Vertex:
    """Basic feasible point keyed by its defining tight-row set.

    ``tableau`` is the polytope's tableau at this vertex, set by ``pivot``,
    ``try_vertex`` and ``GameFamily.pure_vertex``; when it is None
    ``Polytope.tableau`` builds it. The point
    is held once, as ``integer_point``: integers over one positive
    denominator. A vertex with a tableau reads it off the tableau when first
    used, the rhs of its z rows over ``denom``; one made without a tableau
    (the ends of ``paramlp.section_edge``, a section's lifted point, the ends
    of ``Polytope.edge_through_point``) is given it. ``coords``, one
    ``Fraction`` per coordinate, is a view of it, built on first read.
    Equality and hashing are on (basis, labels): within one polytope a
    basis fixes the point. The constructor fills the instance dict in one
    update: a pivot makes one vertex per step.
    """

    basis: frozenset[int]
    labels: frozenset[int]
    tableau: Optional[Tableau] = field(default=None, compare=False, repr=False)
    integer_point: Optional[IntPoint] = field(
        default=ReadOff(lambda v: None if v.tableau is None
                        else (v.tableau.z_column(-1), v.tableau.denom)),
        compare=False, repr=False)

    def __init__(self, basis: frozenset[int], labels: frozenset[int],
                 tableau: Optional[Tableau] = None, integer_point: Optional[IntPoint] = None):
        self.__dict__.update(basis=basis, labels=labels, tableau=tableau,
                             integer_point=integer_point)

    @cached_property
    def coords(self) -> Vec:
        return rationals(*self.integer_point)


@dataclass(frozen=True, init=False)
class EdgeDescriptor:
    """One-dimensional face reached by relaxing one inequality at a vertex.

    Points are ``origin + t * column`` over ``denom`` for t in [0, t_max],
    with no far end on an unbounded edge. The edge holds its base point as
    ``origin``, its direction as ``column``, integers over one positive
    ``denom``, and a bounded one its length as ``step``, integers (num, den
    > 0); ``point_at`` reads them. ``direction`` and ``t_max`` are
    ``Fraction`` views of ``column`` and ``step``, built on first read. An
    edge that ``pivot`` makes carries its base's ``tableau`` and the relaxed
    row's ``scale``, and ``origin`` and ``column`` are read off them on first
    use: ``origin`` is its point's rhs (``Tableau.z_column``) and ``column``
    the relaxed slack's nonbasic column there, times minus the scale. A
    section walk reads only the far end, so it builds neither. The section
    edge of ``paramlp.solve_lp_delta`` is read off P's tableau at the section
    optimum (``paramlp.section_edge``) and carries no tableau. Equality and
    hashing are on (base, relaxed, far_end). As ``Vertex``, it fills its
    instance dict in one update.
    """

    base: Vertex
    relaxed: int
    far_end: Optional[Vertex]
    tableau: Optional[Tableau] = field(default=None, compare=False, repr=False)
    column: Optional[tuple[int, ...]] = field(
        default=ReadOff(lambda e: _edge_column(e.tableau, e.relaxed, e.scale)),
        compare=False, repr=False)
    origin: Optional[tuple[int, ...]] = field(
        default=ReadOff(lambda e: None if e.tableau is None else tuple(e.tableau.z_column(-1))),
        compare=False, repr=False)
    denom: int = field(default=1, compare=False, repr=False)
    step: Optional[tuple[int, int]] = field(default=None, compare=False, repr=False)
    scale: int = field(default=1, compare=False, repr=False)

    def __init__(self, base: Vertex, relaxed: int, far_end: Optional[Vertex],
                 tableau: Optional[Tableau] = None,
                 column: Optional[tuple[int, ...]] = None,
                 origin: Optional[tuple[int, ...]] = None,
                 denom: int = 1, step: Optional[tuple[int, int]] = None, scale: int = 1):
        self.__dict__.update(base=base, relaxed=relaxed, far_end=far_end, tableau=tableau,
                             column=column, origin=origin, denom=denom, step=step, scale=scale)

    @cached_property
    def direction(self) -> Vec:
        return rationals(self.column, self.denom)

    @cached_property
    def t_max(self) -> Optional[Rat]:
        """The edge's length; None on an unbounded edge."""
        return None if self.step is None else Fraction(*self.step)

    @property
    def unbounded(self) -> bool:
        return self.far_end is None

    @property
    def tight_set(self) -> frozenset[int]:
        return self.base.basis - {self.relaxed}

    def point_at(self, t: Rat) -> Vec:
        """The point at edge parameter t, one ``Fraction`` per coordinate."""
        p, q = t.numerator, t.denominator
        return tuple(Fraction(o * q + p * c, self.denom * q)
                     for o, c in zip(self.origin, self.column))


def _edge_column(tab: Optional[Tableau], relax: int, scale: int) -> Optional[tuple[int, ...]]:
    """Relax's edge direction times ``tab.denom``: the slack's column on the
    z rows (``Tableau.z_column``), times minus ``scale``, the relaxed row's;
    None without a tableau."""
    if tab is None:
        return None
    return tuple(map((-scale).__mul__, tab.z_column(tab.cols.index(relax))))


def min_ratio(steps: Iterable[tuple[int, int, int]],
              tight: frozenset[int]) -> tuple[int, int, Optional[int]]:
    """The shortest step over (label, slack, rate) integer triples, in any
    order, as (slack, rate), with its label; the label is None when no rate
    is positive. A zero step or a tie is degenerate: the message names the
    lowest label of a zero step, or the tied labels in ascending order, and
    ``tight`` names the edge.
    """
    best_s, best_r, hits = least_ratios(steps)
    if not hits:
        return 0, 0, None
    if best_s == 0:
        raise DegeneratePolytope(f"extra tight row {min(hits)} leaving {sorted(tight)}")
    if len(hits) > 1:
        raise DegeneratePolytope(f"ratio tie between rows {sorted(hits)} leaving {sorted(tight)}")
    return best_s, best_r, hits[0]


class Polytope:
    """Inequalities ``a . z <= b`` labeled 1..m+n plus one equality row.

    ``int_rows[l]`` is row l's (a, b) in integers, times its least positive
    scale ``scales[l]``: the equality at index 0, inequality l at index l.
    ``signs[c]`` is the label of coordinate c's sign row -z_c <= 0, 0 for a
    free coordinate; a tableau keeps no row for the others (``Tableau``).
    """

    def __init__(self, which: str, dim: int, int_rows: Sequence[Sequence[int]],
                 scales: Sequence[int], m: int, n: int, signs: Sequence[int]):
        self.which = which
        self.dim = dim
        self.int_rows = tuple(map(tuple, int_rows))
        self.scales = tuple(scales)
        self.m = m
        self.n = n
        self.signs = tuple(signs)
        # A tableau's slack rows follow the z rows of the free coordinates.
        self._slacks_from = self.signs.count(0)
        self._sign_coord = {lab: c for c, lab in enumerate(self.signs) if lab}
        # The variable whose row coordinate c reads: z_c, or its sign slack.
        self._z_vars = tuple(dim + lab - 1 if lab else c for c, lab in enumerate(self.signs))
        # The rows a build eliminates: every row but the coordinates' sign rows.
        self._kept = tuple(i for i in range(len(self.int_rows)) if i not in self._sign_coord)

    @property
    def basis_size(self) -> int:
        return self.dim - 1  # one equality is always active

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
        if any(row[-1] < 0 for row in tab.rows[self._slacks_from:]):
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
        """The tableau of a basis, built by ``gauss_jordan`` on the integer
        rows [z | rhs] that are no coordinate's sign row. A basis sign row
        -z_c <= 0 sets z_c equal to its slack, so its column is taken as
        already pivoted; one exchange each brings the other z's into the
        equality row and the other basis rows. The row that z_c of a sign
        coordinate takes equals its sign slack's row, and it is kept as that
        slack's. The dictionary is unique, over |det| of the basis rows. The
        equality's column, which has no slack, is dropped and the basis
        slacks' columns are put in label order."""
        if len(basis) != self.basis_size:
            raise DimensionMismatch(
                f"basis size {len(basis)} != {self.basis_size} for {self.which}"
            )
        d, kept, signs = self.dim, self._kept, self.signs
        at = {i: r for r, i in enumerate(kept)}
        # Two sign rows of one column make the basis singular: the first
        # is overwritten, and one column is left without a free row.
        labels, free = [None] * d, [0]
        for lab in sorted(basis):
            c = self._sign_coord.get(lab)
            if c is None:
                free.append(at[lab])
            else:
                labels[c] = lab
        rows = [self.int_rows[i] for i in kept]  # each exchange builds new rows: no copy
        # A sign coordinate's own sign row is not eliminated: -1 marks it pivoted.
        pivots = [None if lab is None else at.get(lab, -1) for lab in labels]
        pivots, denom = gauss_jordan(rows, free, d, pivots)
        if None in pivots:
            raise Singular(f"basis {sorted(basis)} is singular in {self.which}")
        basic = [-1, *(d + i - 1 for i in kept[1:])]  # the equality has no slack
        for col, r in enumerate(pivots):
            if r >= 0:
                basic[r] = d + signs[col] - 1 if signs[col] else col
                labels[col] = kept[r]
        order = sorted(range(len(rows)), key=basic.__getitem__)
        basic = tuple(basic[r] for r in order)
        # Column j now holds the slack of labels[j]; the equality's is dropped.
        keep = sorted((lab, j) for j, lab in enumerate(labels) if lab)
        if denom < 0:
            rows, denom = [[-x for x in row] for row in rows], -denom
        pick = itemgetter(*(j for _, j in keep), d)
        row_of = {var: r for r, var in enumerate(basic)}
        return Tableau(
            tuple(pick(rows[r]) for r in order),
            denom,
            basic,
            tuple(lab for lab, _ in keep),
            tuple(row_of.get(var, -lab) for var, lab in zip(self._z_vars, signs)),
        )

    def _tableau_vertex(self, basis: frozenset[int], tab: Tableau) -> Vertex:
        """The vertex of a tableau: labels the basis and every basic slack at
        zero; its coordinates are read off the z rows when first used."""
        d, start = self.dim, self._slacks_from
        zeros = {var - d + 1 for var, row in zip(tab.basic[start:], tab.rows[start:])
                 if not row[-1]}
        return Vertex(basis, basis | zeros, tab)

    def _ratio_rows(self, tab: Tableau, relax: int) -> Iterator[tuple[int, int, int]]:
        """(label, slack, rate) of every basic slack along relax's edge, in
        dictionary order: the ratio test orders only tied labels. The triples
        are zipped from the rows' columns, with no Python frame per row."""
        col, start = tab.cols.index(relax), self._slacks_from
        rows = tab.rows[start:]
        return zip(map(sub, tab.basic[start:], repeat(self.dim - 1)),
                   map(itemgetter(-1), rows), map(itemgetter(col), rows))

    def _pivot_to(self, vertex: Vertex, tab: Tableau, relax: int, hit: int) -> Vertex:
        """One exchange (``exchange_pivot``) of the tableau: relax leaves the
        basis and hit enters. Each far row is built once, as a tuple, with
        hit's slack column already in its place in label order; the far
        labels are the basis and every basic slack whose new rhs is zero."""
        d, c, start = self.dim, tab.cols.index(relax), self._slacks_from
        r = tab.basic.index(d + hit - 1)
        cols = [*tab.cols[:c], *tab.cols[c + 1:]]
        k = bisect(cols, hit)
        cols.insert(k, hit)
        rows, denom = exchange_pivot(tab.rows, r, c, tab.denom, k)
        basic = tab.basic[:r] + (d + relax - 1,) + tab.basic[r + 1:]
        # Row r was hit's slack's and is relax's: a sign coordinate that read
        # it reads its unit row now, and one that read relax's reads it.
        z_at, coord = tab.z_at, self._sign_coord
        if hit in coord or relax in coord:
            z_at = list(z_at)
            if hit in coord:
                z_at[coord[hit]] = -hit
            if relax in coord:
                z_at[coord[relax]] = r
            z_at = tuple(z_at)
        basis = vertex.basis - {relax} | {hit}
        zeros = {var - d + 1 for var, row in zip(basic[start:], rows[start:]) if not row[-1]}
        tab = Tableau(tuple(rows), denom, basic, tuple(cols), z_at)
        return Vertex(basis, basis | zeros, tab)

    def pivot(self, vertex: Vertex, relax: int) -> EdgeDescriptor:
        """Exact ratio test along the edge obtained by relaxing one basis row,
        and one integer exchange of the vertex's tableau to its far end.
        The edge's base point and direction are read off the tableau when
        first used."""
        if relax not in vertex.basis:
            raise ValueError(f"label {relax} not in basis {sorted(vertex.basis)}")
        tab, scale = self.tableau(vertex), self.scales[relax]
        slack, rate, hit = min_ratio(self._ratio_rows(tab, relax), vertex.basis)
        if hit is None:
            return EdgeDescriptor(vertex, relax, None, tab, denom=tab.denom, scale=scale)
        far = self._pivot_to(vertex, tab, relax, hit)
        if (tight := len(far.labels)) > self.basis_size:
            raise DegeneratePolytope(f"vertex {sorted(far.basis)} has {tight} tight rows")
        return EdgeDescriptor(vertex, relax, far, tab, denom=tab.denom,
                              step=(slack, rate * scale), scale=scale)

    def simplex_pivot(self, vertex: Vertex, relax: int) -> Optional[Vertex]:
        """The basis after relaxing ``relax`` with Bland's leaving rule: the
        lowest label of least ratio enters. Zero steps and extra tight rows are
        allowed; None when the edge is unbounded."""
        tab = self.tableau(vertex)
        _, _, hits = least_ratios(self._ratio_rows(tab, relax))
        return self._pivot_to(vertex, tab, relax, min(hits)) if hits else None

    def edge_through_point(self, tight: Iterable[int], point: Sequence[Fraction],
                           direction: Vec) -> EdgeDescriptor:
        """Maximal edge through an interior point with the given tight rows.

        ``direction`` is a nonzero vector along the edge (it keeps the equality
        and the ``tight`` rows). The base vertex of the returned edge is the
        end on the -direction side, and the edge runs along +direction; when
        that side is unbounded, the base is the other end and the edge runs
        along -direction. The package does not call it: it is the ``Fraction``
        reference that the tests hold ``paramlp.section_edge`` to. Its ends'
        points and its edge's base point, direction and length are made
        integers (``linalg.integers``) from its ``Fraction`` work.
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
            vert = Vertex(basis, self.labels_at(coords), None, integers(coords))
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
        d = len(direction)
        nums, q = integers((*base.coords, *direction))
        step = None if pos_v is None else (t_pos + t_neg).as_integer_ratio()
        return EdgeDescriptor(base, relaxed, pos_v, None, tuple(nums[d:]), tuple(nums[:d]), q, step)


def _sign_rows(count: int, width: int) -> list[tuple[int, ...]]:
    """z_c >= 0 as -z_c <= 0 for each c < ``count``, over ``width`` columns
    with the rhs; each row's scale is 1."""
    rows = []
    for c in range(count):
        row = [0] * width
        row[c] = -1
        rows.append(tuple(row))
    return rows


def build_p(a: Matrix) -> Polytope:
    """Best-response polytope of the row player over (y, pi1), from the
    integer rows of ``a``: row i is a_i . y - pi1 <= 0 times s_i = q / g, q
    the denominator of ``a`` and g the gcd of q and the row's integers."""
    m, n, q = a.rows, a.cols, a.denom
    rows, scales = [(*[1] * n, 0, 1)], [1]
    for row in a.int_rows:
        g = gcd(q, *row)
        rows.append((*(x // g for x in row), -(q // g), 0))
        scales.append(q // g)
    rows += _sign_rows(n, n + 2)
    scales += [1] * n
    return Polytope("P", n + 1, rows, scales, m, n, (*range(m + 1, m + n + 1), 0))


def build_qprime(c: Matrix, betas: Sequence[tuple[Sequence[int], int]]) -> Polytope:
    """Lifted column-player polytope over (x, lambda_1..lambda_k, pi2), one
    lambda per beta; column j's row is c_j . x + sum_l beta_l[j] lambda_l <= pi2,
    built from the integer rows of ``c`` and each beta as integers b over q
    (``linalg.integers``, as ``GameFamily.int_betas`` holds them). The row's
    scale s is the least common denominator of c_j and of each b[j] / q: with
    g the gcd of c's denominator d and c_j's integers, s is a multiple of d /
    g, so c_j's integers x become x / g times s / (d / g)."""
    if not betas:
        raise NoBetas("the lifted polytope needs at least one beta")
    if any(not any(b) for b, _ in betas):
        raise ZeroBeta("beta must be nonzero")
    m, n, k, q = c.rows, c.cols, len(betas), c.denom
    if any(len(b) != n for b, _ in betas):
        raise DimensionMismatch("beta length differs from column count")
    # One nonzero beta has rank 1: only k >= 2 betas take a rank.
    if k > 1 and matrix_rank(Matrix([b for b, _ in betas])) != k:
        raise DependentBetas("beta vectors are linearly dependent")
    rows, scales = [(*[1] * m, *[0] * (k + 1), 1), *_sign_rows(m, m + k + 2)], [1] * (m + 1)
    for j, col in enumerate(zip(*c.int_rows)):
        bs = [(b[j], qb) for b, qb in betas]
        g = gcd(q, *col)
        s = lcm(q // g, *(qb // gcd(qb, x) for x, qb in bs))
        f = s * g // q
        rows.append((*(x // g * f for x in col), *(x * s // qb for x, qb in bs), -s, 0))
        scales.append(s)
    return Polytope("Qprime", m + k + 1, rows, scales, m, n,
                    (*range(1, m + 1), *[0] * (k + 1)))


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
        self.int_betas = tuple(integers(b) for b in self.betas)
        self.p = build_p(a)
        self.qp = build_qprime(c, self.int_betas)
        # Both integer forms are over their least common denominators.
        self.minus_a = c == -a

    @property
    def beta(self) -> Vec:
        """The single beta, which the path needs: one lambda to walk along."""
        return self.betas[self._one_beta()]

    @property
    def int_beta(self) -> tuple[list[int], int]:
        """The single beta as integers over its least common denominator:
        ``linalg.integers`` of ``beta``, taken once (``int_betas``)."""
        return self.int_betas[self._one_beta()]

    def _one_beta(self) -> int:
        if self.k != 1:
            raise DimensionMismatch(f"the path needs one beta, the family has {self.k}")
        return 0

    def game_at(self, *alphas: Sequence[Fraction]) -> BimatrixGame:
        """The family's game at row weights alpha_1..alpha_k, one per beta."""
        if len(alphas) != self.k:
            raise DimensionMismatch(f"{len(alphas)} row weights for {self.k} betas")
        return family_game(self.a, self.c, alphas, self.betas)

    @cached_property
    def ray_anchors(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """(i, j) of the low ray and of the high ray, found once for both:
        column j has the least beta on the low ray (lambda -> -inf) and the
        greatest on the high ray, and row i is its best; each is unique. A
        tie in beta raises ``TiedBeta``: it is the family's, which a
        perturbation of the game that keeps A + B keeps too. A tied best row
        raises a plain ``DegeneratePolytope``."""
        beta, _ = self.int_beta
        if all(b == beta[0] for b in beta):
            raise ConstantBeta("beta is constant; no distinct path endpoints")
        try:
            cols = [_unique_arg_extreme(beta, want_max) for want_max in (False, True)]
        except DegeneratePolytope as exc:
            raise TiedBeta(str(exc)) from None
        rows = [_unique_arg_extreme([row[j] for row in self.a.int_rows], True) for j in cols]
        return tuple(zip(rows, cols))

    def ray_bases(self, high: bool) -> tuple[frozenset[int], frozenset[int], int]:
        """Bases of one ray of the path, found in integers: P's pure vertex,
        Q''s bound vertex, and the label that the ray edge relaxes there.

        At the ray's anchor (``ray_anchors``), along x = e_i with column j's
        row tight, column k's slack is (c_ij - c_ik) + (beta_j - beta_k)
        lambda, so the bounding column k has the least ratio of c_ij - c_ik
        over beta_k - beta_j (low ray) or beta_j - beta_k (high ray): positive
        rates, slacks of either sign.
        """
        m, n = self.m, self.n
        beta, _ = self.int_beta
        i, j = self.ray_anchors[high]
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
        built from ``ray_bases``: both vertices carry their tableaux, P's
        written down at the ray's anchor (``pure_vertex``), and the edge is
        the one ``Polytope.pivot`` makes at the lambda bound."""
        _, w_basis, relax = self.ray_bases(high)
        w = self.qp.vertex_from_basis(w_basis)
        return self.pure_vertex(*self.ray_anchors[high]), self.qp.pivot(w, relax)

    def pure_vertex(self, i: int, j: int) -> Vertex:
        """P's vertex y = e_j with row i tight, whose basis is row i and every
        sign row but y_j's, with its tableau written down from P's integer
        rows, as lrsnash reads a dictionary straight off them: no elimination.

        Here a_kc are the integers of P's row of a_k, a's row k times the
        row's scale s_k, so the row is sum_c a_kc y_c - s_k pi1 <= 0, and
        they are a's entries when every scale is 1. The denominator is s_i, the
        |det| of the basis rows; the columns are row i's slack, then y_c for
        each c != j, then the rhs; the rows are pi1's, each other row k's
        slack, then y_j's:

            pi1:  -1,    a_ij - a_ic,                                 a_ij
            k:    -s_k,  s_i (a_kc - a_kj) - s_k (a_ic - a_ij),       s_k a_ij - s_i a_kj
            y_j:  0,     s_i,                                         s_i

        Row k's rhs is s_i s_k times its true slack, the amount by which a_i
        beats a_k in column j, so the vertex is feasible when row i is a best
        row of column j, and it raises ``DegeneratePolytope`` as
        ``Polytope.vertex_from_basis`` does otherwise. Its labels are the
        basis and every other best row. It is the vertex that
        ``Polytope.vertex_from_basis`` builds for that basis, tableau and
        all, which the tests hold it to.
        """
        m, n, p = self.m, self.n, self.p
        others = [c for c in range(n) if c != j]
        basis = frozenset({i + 1, *(m + c + 1 for c in others)})
        r_i, s_i = p.int_rows[i + 1], p.scales[i + 1]
        top = r_i[j]
        gains = [r_i[c] - top for c in others]
        rows, ks = [(-1, *(-g for g in gains), top)], [k for k in range(m) if k != i]
        for k in ks:
            r_k, s_k = p.int_rows[k + 1], p.scales[k + 1]
            low = r_k[j]
            rhs = s_k * top - s_i * low
            if rhs < 0:
                raise DegeneratePolytope(f"basis {sorted(basis)} is not a feasible vertex")
            rows.append((-s_k, *(s_i * (r_k[c] - low) - s_k * g for c, g in zip(others, gains)),
                         rhs))
        rows.append((0, *[s_i] * len(others), s_i))
        d = n + 1
        tab = Tableau(tuple(rows), s_i, (n, *(d + k for k in ks), d + m + j),
                      (i + 1, *(m + c + 1 for c in others)),
                      (*(m if c == j else -(m + c + 1) for c in range(n)), 0))
        return Vertex(basis, basis | {k + 1 for k, row in zip(ks, rows[1:]) if not row[-1]}, tab)

    def lambda_of(self, w: Vertex) -> Rat:
        return w.coords[self.m]

