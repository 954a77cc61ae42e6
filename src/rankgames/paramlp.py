"""Lambda-section LPs, hyperplane probes, and rank-k fixed-point evaluation.

The section LP at a parameter value has one entry, ``solve_lp_k``, which
``solve_lp_delta`` and ``is_ne`` call at rank 1. It is a primal walk on the
row polytope's own tableau (``Polytope.pivot``, and ``Polytope.simplex_pivot``
by Bland's rule where every improving pivot is degenerate), from the best
pure vertex, read off a's integer columns, whose tableau is written down
from P's integer rows with no elimination (``GameFamily.pure_vertex``), or
from a vertex the caller gives, such as an earlier probe's optimum, which
carries its tableau. At each vertex the walk reads two kinds of row off
P's integer tableau (``polytope.Tableau``), as lrsnash keeps its cost row:
beta_l . y for each beta, and pi1's own z row (``section_rows``). Their
entries in the column of a basis label are that label's edge rates, and
their rhs entries beta_l . y and pi1 at the vertex. The objective's row, one
weighted sum of them, gives the improving labels by its signs, and, at the
optimum, the multipliers of the lifted point, a fully-labeled partner with
combined objective exactly zero: its feasibility and zero gap are checked in integers,
which leaves its slack of every label, and the point is kept as integers
until read. The rank-k cell walk reads a vertex's cell of the box map off
the same rows once (``cell_rows``), and the fixed point of its affine piece
off that cell (``piece_fixed_point``). On a rank-1 section the path edge
through that point is read off the same rows' label rates, by the reader
that ``cell_rows`` uses (``section_edge``): one integer ratio test per side
gives its ends, and no Q' tableau is built. A section's objective weights
come off delta's numerators and denominators (``integer_objective``), with
no ``Fraction`` division.
Intersecting the containing edge with a game's selection hyperplane yields a
crossing point or a side classification; the crossing is only geometry,
which the caller verifies on its own game. The hyperplane's value is linear
in the lifted point, so an edge's crossing is read off its two ends alone:
one integer dot of the hyperplane's integer row with each end's point
(``Vertex.integer_point``), or, at a ray's open end, with the ray's
direction, a point at infinity. Opposite signs place the hit between the
ends in integers, and a fixed vertex of Q' gives only a side. A hit is kept
as integer points in lowest terms (``Crossing``), as a section keeps its
lifted point (``Section``): their fields are integers only, and their
``Fraction`` coordinates are read-only views, built only when asked. Along
a path (``path_crossings``) that dot is taken once per lifted point, and an
edge whose two end values share one strict sign is skipped: only an edge
with a zero or a sign change at its ends, or a ray, is analyzed, and only a
ray's direction is read. Every point is read off a tableau through
``Tableau.z_column``, or kept as integers where no tableau is built: a
tableau holds no row for a sign-constrained coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    DegeneratePolytope,
    DimensionMismatch,
    EdgeInHyperplane,
    NonzeroOptimum,
    OutOfBox,
    RankGamesError,
    Singular,
)
from .labeledpath import (
    V_FIXED,
    W_FIXED,
    PathEdge,
    oriented_edge,
)
from .linalg import (
    Matrix,
    Vec,
    frac,
    integers,
    lowest_terms,
    rationals,
    solve_linear_system,
    vdot,
    vector,
)
from .polytope import (
    EdgeDescriptor,
    GameFamily,
    IntPoint,
    Polytope,
    Tableau,
    Vertex,
    min_ratio,
)

IntBetas = Sequence[tuple[Sequence[int], int]]  # each beta as (b, q): see GameFamily.int_betas
Cell = dict[int, tuple[tuple[int, ...], int]]  # (h_r, e_r) per basis label r: see cell_rows


@dataclass(frozen=True)
class Hyperplane:
    """Selection hyperplane lambda = gamma . x over lifted coordinates.

    ``row`` is lambda - gamma . x over (x, lambda, pi2) times ``scale``, the
    least positive integer that makes it integral. On a vector held as
    integers over one denominator, such as a tableau column, the hyperplane's
    value, times that denominator and ``scale``, is then one integer dot.
    """

    gamma: Vec
    scale: int = field(init=False, compare=False, repr=False)
    row: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        gamma = vector(self.gamma)
        numerators, scale = integers(gamma)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "row", (*(-g for g in numerators), scale, 0))

    def dot(self, numerators: Iterable[int]) -> int:
        """The value at a vector held as integers over one positive
        denominator, times that denominator and ``scale``."""
        return sum(map(mul, self.row, numerators))


def in_lowest_terms(numerators: Iterable[int], denom: int) -> IntPoint:
    """The point ``numerators / denom`` (``denom > 0``) in lowest terms
    (``linalg.lowest_terms``): the one form of a crossing's or a section's
    point, so that their equality and hashing are the fields'."""
    (numerators,), denom = lowest_terms((numerators,), denom)
    return numerators, denom


@dataclass(frozen=True)
class Crossing:
    """A hyperplane hit strictly inside an oriented edge: the (v, w) point.

    ``v_point`` and ``w_point`` hold v and w as integers over one positive
    denominator, in lowest terms (``in_lowest_terms``), as ``_analyze_edge``
    finds them between the edge's two ends; ``v_coords`` and ``w_coords``
    are their ``Fraction`` views, built on first read. Equality and hashing
    are on the points and the orientation.
    """

    v_point: IntPoint
    w_point: IntPoint
    orient_index: int  # +1 when the hyperplane value rises tail-to-head

    @cached_property
    def v_coords(self) -> Vec:
        return rationals(*self.v_point)

    @cached_property
    def w_coords(self) -> Vec:
        return rationals(*self.w_point)


@dataclass(frozen=True)
class IsNEOutcome:
    """One probe's answer."""

    kind: str  # "found" | "below" | "above"
    optimum: Vertex  # the section's optimum over P: a warm start for the next probe
    crossing: Optional[Crossing] = None  # the hit, when found


class SectionRows(NamedTuple):
    """The section's integers at a vertex v of P: rows of v's tableau
    ``tab`` over its nonbasic columns (``tab.cols``), then the rhs.

    ``betas[l]`` is the row of b_l . y, for each beta as integers b_l over
    q_l (``GameFamily.int_betas``): the sum of b_l[c] times the row that
    ``z_at[c]`` names, with -b_l[c] * denom in a basis sign slack's column
    (``Tableau.z_row``). ``pi1`` is pi1's own z row. Column j is the slack
    of the basis label r = cols[j], whose edge runs along -scales[r] times
    the z rows' column j over denom (``Polytope.pivot``). So along r's edge
    g = -scales[r] * betas[l][j] is the rate of b_l . y and c =
    -scales[r] * pi1[j] that of pi1, each times denom. The rhs entries are
    b_l . y and pi1 at v, times denom.
    """

    tab: Tableau
    betas: tuple[list[int], ...]
    pi1: Sequence[int]

    def objective(self, weights: Sequence[int]) -> list[int]:
        """The row of the objective whose ``Objective.weights`` are
        ``weights``: their sum with the betas' rows and pi1's."""
        return [sum(map(mul, weights, col)) for col in zip(*self.betas, self.pi1)]


class Objective(NamedTuple):
    """The section objective sum_l delta_l * (beta_l . y) - pi1 in integers,
    times D > 0: ``weights`` (N_1..N_k, -D) on (b_l . y, pi1), with N_l / D =
    delta_l / q_l, and ``row``, D * (w, -1) over (y, pi1) with w = sum_l
    delta_l * beta_l."""

    weights: tuple[int, ...]
    row: tuple[int, ...]


@dataclass(frozen=True)
class Section:
    """Optimal section at lambda = delta: the optimum v of P and the lifted
    point w that with v certifies both optima.

    ``w_point`` is w as integers over one positive denominator, in lowest
    terms (``in_lowest_terms``), and ``w_coords`` its ``Fraction`` view,
    built on first read. ``rows`` are v's ``section_rows``. ``slacks`` holds
    the slack at w of every label of the lifted polytope, in label order, as
    integers over one positive unit, each times its row's scale: w's tight
    labels are its zero slacks. Equality and hashing are on v and w_point.
    """

    v: Vertex
    w_point: IntPoint
    rows: SectionRows = field(compare=False, repr=False)
    slacks: tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def w_coords(self) -> Vec:
        return rationals(*self.w_point)

    @property
    def v_coords(self) -> Vec:
        return self.v.coords


@dataclass(frozen=True)
class OptSet(Section):
    """A rank-1 section with the edge of the path containing it."""

    edge: PathEdge


def section_rows(p: Polytope, v: Vertex, betas: IntBetas) -> SectionRows:
    """The ``SectionRows`` of a vertex v of P, read off its tableau."""
    tab = p.tableau(v)
    return SectionRows(tab, tuple(tab.z_row(b) for b, _ in betas), tab.rows[tab.z_at[p.n]])


def _label_rates(rows: SectionRows, scales: Sequence[int], row: Sequence[int],
                 factor: int) -> dict[int, int]:
    """-scales[r] * factor * row[j] for each basis label r = tab.cols[j], in
    label order: along r's edge, the rate of the quantity that ``row``, one
    of a vertex's ``SectionRows``, holds, times ``factor`` and its tableau's
    denominator."""
    f = -factor
    return {r: f * scales[r] * x for r, x in zip(rows.tab.cols, row)}


def cell_rows(family: GameFamily, rows: SectionRows) -> tuple[int, Cell]:
    """The cell of a vertex v of P with these ``section_rows``, the a where no
    edge at v raises the section objective: one integer half-space h_r . a <=
    e_r per basis label r, in label order, with its ``unit`` Q * denom, Q =
    lcm(q_l). Along r's edge the objective's rate is g_r . a - c_r, and (h_r,
    e_r) is (g_r, c_r) times ``unit``: h_r's entry l is beta row l's rate
    (``_label_rates``) times Q / q_l, e_r pi1's times Q."""
    scales, betas = family.p.scales, family.int_betas
    big_q = lcm(*(q for _, q in betas))
    hs = [_label_rates(rows, scales, row, big_q // q) for row, (_, q) in zip(rows.betas, betas)]
    es = _label_rates(rows, scales, rows.pi1, big_q)
    return big_q * rows.tab.denom, {r: (tuple(h[r] for h in hs), e) for r, e in es.items()}


def improving_labels(rows: SectionRows, weights: Sequence[int]) -> list[int]:
    """The basis labels of a vertex of P whose edge raises the section
    objective, in label order, decided on its rows alone.

    ``weights`` are the objective's (``Objective.weights``). The objective's
    rate along r's edge is -scales[r] times its row's entry in r's column,
    over D * denom > 0, so r improves where that entry is negative.
    """
    return [r for r, o in zip(rows.tab.cols, rows.objective(weights)) if o < 0]


def nondegenerate_far_end(p: Polytope, v: Vertex, r: int) -> Optional[Vertex]:
    """Far end of r's edge at v; None when that pivot is degenerate or the edge unbounded."""
    try:
        return p.pivot(v, r).far_end
    except DegeneratePolytope:
        return None


def integer_objective(betas: IntBetas, delta: Vec) -> Objective:
    """The section objective at lambda = delta of the integer betas, with D
    the least common denominator of the delta_l / q_l.

    Each delta_l / q_l is read off delta_l's numerator n_l and denominator
    e_l in lowest terms: with g_l = gcd(n_l, q_l) it is (n_l / g_l) over
    e_l * q_l / g_l, so no ``Fraction`` division is made."""
    nums, dens = [], []
    for d, (_, q) in zip(delta, betas):
        g = gcd(d.numerator, q)
        nums.append(d.numerator // g)
        dens.append(d.denominator * (q // g))
    scale = lcm(*dens)
    weights = [n * (scale // e) for n, e in zip(nums, dens)]
    row = (sum(map(mul, weights, col)) for col in zip(*(b for b, _ in betas)))
    return Objective((*weights, -scale), (*row, -scale))


def _best_pure_vertex(family: GameFamily, objective: Sequence[int]) -> Vertex:
    """The pure vertex y = e_j of P of best objective, preferring columns with
    one best row; ties go to the lowest column. Column j of a is read off
    a's integer rows over ``a.denom``, as ``GameFamily.ray_anchors`` reads it,
    and the vertex, tight at the column's first best row, is written down
    from P's integer rows (``GameFamily.pure_vertex``)."""
    n, scale, denom = family.n, -objective[-1], family.a.denom
    cols = list(zip(*family.a.int_rows))
    starts = [j for j, col in enumerate(cols) if col.count(max(col)) == 1] or range(n)
    j = max(starts, key=lambda j: objective[j] * denom - scale * max(cols[j]))
    return family.pure_vertex(cols[j].index(max(cols[j])), j)


def _section_walk(family: GameFamily, objective: Objective,
                  start: Optional[Vertex]) -> tuple[Vertex, SectionRows]:
    """The optimum over P of the family's section whose ``integer_objective``
    is ``objective``, by a primal walk on P's tableau, with its rows.

    ``solve_lp_k`` calls it once per section. The walk starts at ``start``, a
    vertex of P such as an earlier probe's optimum, whose tableau it reuses;
    without one, at the best pure vertex (``_best_pure_vertex``). It
    relaxes the lowest basis label of positive rate whose pivot is
    nondegenerate (a strict gain), else takes the simplex pivot on the lowest
    such label by Bland's rule, which cannot cycle, so it ends from any start.
    The signs of the rates come off the vertex's rows, read once at each
    vertex (``improving_labels``); the optimum must have exactly n tight rows.
    """
    p, betas = family.p, family.int_betas
    v = _best_pure_vertex(family, objective.row) if start is None else start
    rows = section_rows(p, v, betas)
    while improving := improving_labels(rows, objective.weights):
        fars = (nondegenerate_far_end(p, v, r) for r in improving)
        v = next(filter(None, fars), None) or p.simplex_pivot(v, improving[0])
        rows = section_rows(p, v, betas)
    if len(v.labels) != p.n:
        raise DegeneratePolytope(f"section optimum has {len(v.labels)} tight rows in P")
    return v, rows


def lifted_section(p: Polytope, lifted: Polytope, v: Vertex, rows: SectionRows, delta: Vec,
                   objective: Objective) -> Section:
    """The section at lambda = delta whose optimum over P is v, a vertex with n
    tight rows and these ``section_rows``, where no edge raises the section
    objective; ``objective`` is its ``integer_objective``.

    The multiplier of row i is minus the rate of its edge, x_i = c_i - g_i .
    delta, on v's basis rows and zero on the others: over D * denom it is
    scales[i] times the objective row's entry in i's column, the entry whose
    sign ``improving_labels`` reads. lambda = delta, and pi2 is the least
    feasible, the largest of the lifted column rows c_j . x + w_j. The point
    is feasible when x >= 0 sums to 1, and with v it certifies both optima
    when pi2 equals the section value w . y - pi1, the objective row's rhs
    over D * denom. Every check is on integers, and the point is kept as
    integers (``Section.w_point``). The slacks at w that the checks compute
    are kept: x on the row labels, and the lifted column rows' slacks.
    """
    m, tab, scales = p.m, rows.tab, p.scales
    unit = -objective.weights[-1] * tab.denom  # D * denom: x, pi2 and the value are over it
    *cost, value = rows.objective(objective.weights)
    x = [0] * m
    for r, entry in zip(tab.cols, cost):
        if r > m:
            break
        x[r - 1] = scales[r] * entry
    if sum(x) != unit or min(x) < 0:
        raise RankGamesError("complementary lifted point is infeasible")
    # pi2 - c_j . x - w_j with pi2 at the section value, over unit and times
    # the scale s of column j's lifted row: the gap is their least over s * unit.
    slacks = [
        (s * (value - w * tab.denom) - sum(map(mul, row, x)), s)
        for row, s, w in zip(lifted.int_rows[m + 1:], lifted.scales[m + 1:], objective.row)
    ]
    if min(slack for slack, _ in slacks) != 0:
        gap = min(Fraction(slack, s * unit) for slack, s in slacks)
        raise NonzeroOptimum(f"section objective is {gap}, expected 0")
    den = lcm(*(d.denominator for d in delta))  # w = (x, delta, pi2) over unit * den
    lams = (d.numerator * (den // d.denominator) * unit for d in delta)
    point = in_lowest_terms((*(xi * den for xi in x), *lams, value * den), unit * den)
    return Section(v, point, rows, (*x, *(slack for slack, _ in slacks)))


def section_edge(family: GameFamily, sec: Section, tight: frozenset[int]) -> EdgeDescriptor:
    """The edge of Q' through the lifted point w of a rank-1 section, whose m
    tight labels in Q' are ``tight``, read off the rows of P's tableau at
    the optimum v (``sec.rows``).

    Along the edge v stays optimal. Each of v's basis labels r has slack
    c_r - g_r * lambda, ``sec.slacks`` at w, with g_r and c_r the rates of
    beta . y and of pi1 along r's edge, read straight off the beta row and
    pi1's row (``_label_rates``, as ``cell_rows`` reads them), both over
    the unit u = q * denom; w's tight labels stay at zero. One ratio test
    per side (``min_ratio``, rising lambda first) gives each end's entering
    label r, at lambda = c_r / g_r. Base, far end and direction are those
    of ``Polytope.edge_through_point``, its reference in the tests. On the
    edge x_i = c_i - g_i * lambda on v's basis rows, and pi2 = lambda *
    beta . y - pi1. The ends keep their points as integers.
    """
    qp, m, (_, q), rows = family.qp, family.m, family.int_beta, sec.rows
    scales, (beta_row,) = family.p.scales, rows.betas
    u = q * rows.tab.denom
    g = _label_rates(rows, scales, beta_row, 1)  # g_r * u
    c = _label_rates(rows, scales, rows.pi1, q)  # c_r * u
    steps = [(r, sec.slacks[r - 1], qp.scales[r] * g[r]) for r in g]
    *_, high = min_ratio(steps, tight)
    *_, low = min_ratio(((r, s, -rate) for r, s, rate in steps), tight)
    if high is None and low is None:
        raise DegeneratePolytope("edge is a full line; polytope not pointed")
    beta_y, pi1 = beta_row[-1], rows.pi1[-1]  # beta . y over u, pi1 over denom

    def end(r: int) -> tuple[int, int]:
        """lambda = c_r / g_r, where r's slack reaches zero, as (num, den > 0)."""
        num, den = c[r], g[r]
        return (num, den) if den > 0 else (-num, -den)

    def point(num: int, den: int) -> tuple[int, ...]:
        """The point at lambda = num / den, times u * den."""
        xs = (den * c[i] - num * g[i] if i in c else 0 for i in range(1, m + 1))
        return (*xs, num * u, num * beta_y - q * den * pi1)

    def vertex(r: int, ints: tuple[int, ...], den: int) -> Vertex:
        basis = tight | {r}
        return Vertex(basis, basis, None, (ints, den))

    relaxed = high if low is None else low
    num, den = end(relaxed)
    origin = point(num, den)
    base, far, step = vertex(relaxed, origin, u * den), None, None
    if low is not None and high is not None:
        far_num, far_den = end(high)
        far = vertex(high, point(far_num, far_den), u * far_den)
        step = (far_num * den - num * far_den, far_den * den)
    # Rising lambda from the lower end, else falling from the upper, over u * den.
    scale = -den if low is None else den
    direction = (*(-g[i] if i in g else 0 for i in range(1, m + 1)), u, beta_y)
    return EdgeDescriptor(base, relaxed, far, None, tuple(scale * k for k in direction), origin,
                          u * den, step)


def solve_lp_delta(family: GameFamily, delta, start: Optional[Vertex] = None) -> OptSet:
    """``solve_lp_k`` at lambda = delta, from ``start`` when given, with the
    edge of the path containing the section: the family has one beta.

    w's tight labels in Q' are its zero slacks. With m of them w lies inside
    an edge of Q' (``section_edge``); with m + 1 it is a vertex of Q', and
    the edge moves in P.
    """
    m = family.m
    sec = solve_lp_k(family, (frac(delta),), start)
    v = sec.v
    w_labels = frozenset(lab for lab, slack in enumerate(sec.slacks, 1) if not slack)
    if len(w_labels) == m:
        edge = oriented_edge(family, V_FIXED, v, section_edge(family, sec, w_labels))
    elif len(w_labels) == m + 1:
        # The zero gap makes the pair fully labeled, so its n + m + 1 labels
        # share exactly one: the duplicate.
        ed = family.p.pivot(v, min(v.labels & w_labels))
        if ed.unbounded:
            raise RankGamesError("unexpected unbounded edge in the row polytope")
        w = Vertex(w_labels, w_labels, None, sec.w_point)
        edge = oriented_edge(family, W_FIXED, w, ed)
    else:
        raise DegeneratePolytope(f"section optimum has {len(w_labels)} tight rows in Q'")
    return OptSet(v, sec.w_point, sec.rows, sec.slacks, edge)


def _h_at(h: Hyperplane, w: Vertex) -> int:
    """A number with the sign of the hyperplane's value at a vertex of Q':
    an integer dot with its point's integers (``Vertex.integer_point``)."""
    return h.dot(w.integer_point[0])


def _analyze_edge(edge: PathEdge, h: Hyperplane):
    """('none', side_sign) | ('point', Crossing) for the hit strictly inside.

    The hyperplane's value is linear in w, so it is read at the edge's two
    ends alone, tail then head: an integer dot with each end's lifted point
    (``Vertex.integer_point``), or the fixed w's one value at both ends of
    an edge moving in P. A ray's open end is the point at infinity along
    its ``column``, over denominator 0; every unbounded edge of Q' moves
    lambda, so that end's value is never zero. Two zero values put the edge
    in the hyperplane, one puts the hit at a vertex pair, and one strict
    sign at both ends is the side. Values ht < 0 < hh, or ht > 0 > hh, put
    the hit at (ht * P_h - hh * P_t) / (ht * d_h - hh * d_t) between the
    ends P_t / d_t and P_h / d_h, kept in lowest terms with v the fixed
    vertex's ``integer_point``, so no ``Fraction`` is built; its index is +1
    when the value rises from tail to head.
    """
    if edge.kind == W_FIXED:
        ht = hh = _h_at(h, edge.fixed)
    else:
        (pt, dt), (ph, dh) = ((edge.moving.column, 0) if node is None else node.w.integer_point
                              for node in (edge.tail, edge.head))
        ht, hh = h.dot(pt), h.dot(ph)
    if ht * hh > 0:
        return ("none", 1 if ht > 0 else -1)
    if ht == hh == 0:
        raise EdgeInHyperplane("edge lies inside the selection hyperplane (degenerate game)")
    if ht == 0 or hh == 0:
        raise DegeneratePolytope(
            "equilibrium at a vertex pair of the fully-labeled set (degenerate game)"
        )
    # Opposite signs: a W-fixed edge has one value, so w moves and v is fixed.
    num, den = [ht * a - hh * b for a, b in zip(ph, pt)], ht * dh - hh * dt
    if den < 0:
        num, den = [-x for x in num], -den
    return ("point", Crossing(in_lowest_terms(*edge.fixed.integer_point),
                              in_lowest_terms(num, den), 1 if ht < 0 else -1))


def crossing_records(h: Hyperplane, edge: PathEdge) -> list[Crossing]:
    """The hyperplane's crossing strictly inside one edge, if any.

    ``h`` is ``Hyperplane(gamma)``: a path builds it once for all its edges.
    A crossing is only a point; the caller verifies it on its own game.
    """
    kind, hit = _analyze_edge(edge, h)
    return [hit] if kind == "point" else []


def path_crossings(h: Hyperplane, edges: Iterable[PathEdge]) -> Iterator[Crossing]:
    """The hyperplane's crossings strictly inside the edges, in their order.

    The hyperplane's value is taken once per lifted point (``_h_at`` on a
    node's w): an edge's head is the next edge's tail, and a W-fixed edge's
    two nodes share its fixed w. The value is linear along an edge, so
    where it has one strict sign at both ends the edge has no hit and
    ``_analyze_edge`` would raise nothing; such an edge is skipped. An edge
    with a zero or a sign change at its ends, and a ray, goes through
    ``crossing_records``, so every crossing, index and error is its.
    """
    seen = (None, 0)  # the last lifted point valued, and its value
    for edge in edges:
        ends = []
        for node in (edge.tail, edge.head):
            if node is None:
                continue
            if node.w is not seen[0]:
                seen = (node.w, _h_at(h, node.w))
            ends.append(seen[1])
        if len(ends) < 2 or ends[0] * ends[1] <= 0:
            yield from crossing_records(h, edge)


def is_ne(family: GameFamily, h: Hyperplane, delta,
          start: Optional[Vertex] = None) -> IsNEOutcome:
    """Probe one lambda value against the selection hyperplane ``h``
    (``Hyperplane(gamma)``, built once per search): the crossing on the
    containing edge, or its side, with the section's optimum. The section
    walk starts at ``start``, a vertex of the family's P such as an earlier
    probe's optimum, when given."""
    sec = solve_lp_delta(family, delta, start)
    kind, hit = _analyze_edge(sec.edge, h)
    if kind == "none":
        return IsNEOutcome("below" if hit < 0 else "above", sec.v)
    return IsNEOutcome("found", sec.v, hit)


def solve_lp_k(family: GameFamily, delta: Sequence[Fraction],
               start: Optional[Vertex] = None) -> Section:
    """Optimal section at a fixed lambda vector, one entry per beta, of a
    family with c = -a: the one section entry. A primal walk on P's tableau
    (``_section_walk``) from ``start``, a vertex of the family's P, when
    given, else from the best pure vertex; the rows at its optimum give the
    dual in the lifted polytope (``lifted_section``)."""
    if not family.minus_a:
        raise RankGamesError("section LP needs a family with c = -a")
    delta = vector(delta)
    if len(delta) != family.k:
        raise DimensionMismatch(f"delta has length {len(delta)}, expected {family.k}")
    objective = integer_objective(family.int_betas, delta)
    v, rows = _section_walk(family, objective, start)
    return lifted_section(family.p, family.qp, v, rows, delta, objective)


def box_bounds(gammas: Sequence[Sequence[Fraction]]) -> tuple[Vec, Vec]:
    return tuple(min(g) for g in gammas), tuple(max(g) for g in gammas)


def fixed_point_eval(family: GameFamily, gammas: Sequence[Sequence[Fraction]],
                     a: Sequence[Fraction]) -> Vec:
    """One evaluation of the piecewise-linear box self-map at a."""
    gammas = tuple(vector(g) for g in gammas)
    a = vector(a)
    if not len(a) == len(gammas) == family.k:
        raise DimensionMismatch(f"{len(a)} lambdas and {len(gammas)} gammas for {family.k} betas")
    lows, highs = box_bounds(gammas)
    if any(not lo <= ai <= hi for ai, lo, hi in zip(a, lows, highs)):
        raise OutOfBox(f"{a} outside box {lows}..{highs}")
    x = solve_lp_k(family, a).w_coords[: family.m]
    return tuple(vdot(g, x) for g in gammas)


def piece_fixed_point(family: GameFamily, gammas: Sequence[Vec], unit: int,
                      cell: Cell) -> Optional[Vec]:
    """Fixed point of the affine piece of the box map on the cell of a vertex
    v of P, given v's ``cell_rows``, ``unit`` and ``cell``.

    On that cell the section's x(a) is c_B - G_B a on v's basis rows and zero
    on the others, so the map is a -> Gamma x(a), and its fixed point solves
    (I + Gamma_B G_B) a = Gamma_B c_B, here times ``unit``: the cell's
    (h_i, e_i) are (G_i, c_i) times ``unit``. None when that system is
    singular. The point may lie outside the cell.
    """
    m, k, gam = family.m, family.k, Matrix(gammas)
    h_x = Matrix([cell[i][0] if i in cell else (0,) * k for i in range(1, m + 1)])
    e_x = [cell[i][1] if i in cell else 0 for i in range(1, m + 1)]
    try:
        return solve_linear_system(Matrix.identity(k).scale(unit) + gam @ h_x, gam.mul_vec(e_x))
    except Singular:
        return None
