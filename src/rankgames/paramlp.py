"""Lambda-section LPs, hyperplane probes, and rank-k fixed-point evaluation.

The section LP at a parameter value is a primal walk on the row polytope's own
tableau (``Polytope.pivot``, and ``Polytope.simplex_pivot`` by Bland's rule
where every improving pivot is degenerate), from the best pure vertex or from
a vertex the caller gives, such as the previous probe's optimum, which carries
its tableau. The walk chooses its improving labels off P's integer tableau, a
dictionary of the basis labels' slack columns (``polytope.Tableau``), by the
sign of one integer dot with each label's column, and builds the ``Fraction``
edge rates once, at its optimum. The same dots, negated, are the multipliers
of the lifted point, a fully-labeled partner with combined objective exactly
zero: its feasibility and zero gap are checked in integers, and only the point
is built in ``Fraction``s. The edge rates give the path edge through that
partner and the affine piece of the rank-k box map, so no square system is
solved. Intersecting the containing edge with a game's selection hyperplane
yields a crossing point or a side classification; the crossing is only
geometry, which the caller verifies on its own game. On a path edge that
``Polytope.pivot`` made, the hyperplane's value and its rate are integer dots
of the hyperplane's integer row with the Q' tableau's rhs and the relaxed
slack's column; only crossings and the section's edge and vertex, built from
``Fraction`` points in ``solve_lp_delta``, use coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DegeneratePolytope,
    EdgeInHyperplane,
    NonzeroOptimum,
    OutOfBox,
    RankGamesError,
    Singular,
)
from .labeledpath import (
    FORWARD,
    V_FIXED,
    W_FIXED,
    PathEdge,
    oriented_edge,
)
from .linalg import Matrix, Rat, Vec, frac, integers, solve_linear_system, vdot, vector
from .polytope import GameFamily, Polytope, Tableau, Vertex

Rates = dict[int, tuple[Vec, Rat]]  # (g_r, c_r) per basis label r: see edge_rates


@dataclass(frozen=True)
class Hyperplane:
    """Selection hyperplane lambda = gamma . x over lifted coordinates.

    ``row`` is lambda - gamma . x over (x, lambda, pi2) times ``scale``, the
    least positive integer that makes it integral. On a vector held as
    integers over one denominator, such as a tableau column, the hyperplane's
    value is then one integer dot (``over``).
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

    def value_at(self, w_coords: Sequence[Fraction]) -> Rat:
        m = len(self.gamma)
        return w_coords[m] - vdot(self.gamma, w_coords[:m])

    def over(self, numerators: Iterable[int], denom: int) -> Rat:
        """The value at the vector ``numerators / denom``."""
        return Fraction(sum(map(mul, self.row, numerators)), self.scale * denom)


@dataclass(frozen=True)
class Crossing:
    """A hyperplane hit strictly inside an oriented edge: the (v, w) point."""

    v_coords: Vec
    w_coords: Vec
    orient_index: int  # +1 when the hyperplane value rises tail-to-head


@dataclass(frozen=True)
class IsNEOutcome:
    kind: str  # "found" | "below" | "above"
    optimum: Vertex  # the section's optimum over P: a warm start for the next probe
    crossing: Optional[Crossing] = None  # the hit, when found


@dataclass(frozen=True)
class Section:
    """Optimal section at lambda = delta: the optimum v of P, the lifted point
    w that with v certifies both optima, and v's edge rates."""

    v: Vertex
    w_coords: Vec
    rates: Rates = field(compare=False, repr=False)

    @property
    def v_coords(self) -> Vec:
        return self.v.coords


@dataclass(frozen=True)
class OptSet(Section):
    """A rank-1 section with the edge of the path containing it."""

    edge: PathEdge


def edge_rates(p: Polytope, v: Vertex, betas: Sequence[Vec]) -> Rates:
    """(g_r, c_r) per basis label r of a vertex v of P, in label order: along r's
    edge direction d the section objective sum_l delta_l * (beta_l . y) - pi1
    changes at rate g_r . delta - c_r, with g_r = (beta_l . d_y)_l, c_r = d_pi1.

    Each is one integer dot with r's column on v's tableau (``Polytope._column``:
    r's nonbasic column on the z rows, which is d times ``denom``), over
    ``denom`` and the beta's own lcm.
    """
    tab = p.tableau(v)
    scaled = [integers(beta) for beta in betas]
    rates = {}
    for r in sorted(v.basis):
        col = p._column(tab, r)
        g = tuple(Fraction(sum(map(mul, b, col)), q * tab.denom) for b, q in scaled)
        rates[r] = g, Fraction(col[p.n], tab.denom)
    return rates


def improving_labels(p: Polytope, v: Vertex, objective: Sequence[int]) -> list[int]:
    """The basis labels of a vertex v of P whose edge raises the section
    objective, in label order, decided on v's integer tableau alone.

    ``objective`` is D * (w, -1) over (y, pi1) with w = sum_l delta_l * beta_l
    and D > 0 the lcm of w's denominators. r's column is its edge direction
    times ``denom`` > 0, so the objective's dot with it has the sign of r's
    rate g_r . delta - c_r.
    """
    tab = p.tableau(v)
    return [r for r in sorted(v.basis) if sum(map(mul, objective, p._column(tab, r))) > 0]


def nondegenerate_far_end(p: Polytope, v: Vertex, r: int) -> Optional[Vertex]:
    """Far end of r's edge at v; None when that pivot is degenerate or the edge unbounded."""
    try:
        return p.pivot(v, r).far_end
    except DegeneratePolytope:
        return None


def _on_rows(m: int, rates: Rates, value) -> Vec:
    """value(g_i, c_i) for each row label i <= m of the rates' basis, zero on
    the other rows."""
    return tuple(value(*rates[i]) if i in rates else Fraction(0) for i in range(1, m + 1))


def integer_objective(betas: Sequence[Vec], delta: Vec) -> tuple[int, ...]:
    """The section objective sum_l delta_l * (beta_l . y) - pi1 over (y, pi1)
    in integers: D * (w, -1), with w = sum_l delta_l * beta_l and D > 0 the
    lcm of w's denominators."""
    numerators, scale = integers(tuple(vdot(delta, col) for col in zip(*betas)))
    return (*numerators, -scale)


def _best_pure_vertex(p: Polytope, objective: Sequence[int]) -> Vertex:
    """The pure vertex y = e_j of P of best objective, preferring columns with
    one best row; ties go to the lowest column."""
    n, m, scale = p.n, p.m, -objective[-1]
    # Column j of a over the payoff rows' common scale, read off P's integer rows.
    rows, scales = p.int_rows[1: m + 1], p.scales[1: m + 1]
    common = lcm(*scales)
    cols = [[row[j] * (common // s) for row, s in zip(rows, scales)] for j in range(n)]
    starts = [j for j, col in enumerate(cols) if col.count(max(col)) == 1] or range(n)
    j = max(starts, key=lambda j: objective[j] * common - scale * max(cols[j]))
    i = cols[j].index(max(cols[j]))
    return p.vertex_from_basis({i + 1} | {m + c + 1 for c in range(n) if c != j})


def _section_walk(p: Polytope, betas: Sequence[Vec], objective: Sequence[int],
                  start: Optional[Vertex]) -> tuple[Vertex, Rates]:
    """The optimum over P of the section whose ``integer_objective`` is
    ``objective``, by a primal walk on P's tableau, with its edge rates.

    The walk starts at ``start``, a vertex of P such as the previous probe's
    optimum, whose tableau it reuses; without one, at the best pure vertex. It
    relaxes the lowest basis label of positive rate whose pivot is
    nondegenerate (a strict gain), else takes the simplex pivot on the lowest
    such label by Bland's rule, which cannot cycle, so it ends from any start.
    The signs of the rates come off the integer tableau
    (``improving_labels``); the ``Fraction`` rates are built once, at the
    optimum, which must have exactly n tight rows.
    """
    v = _best_pure_vertex(p, objective) if start is None else start
    while improving := improving_labels(p, v, objective):
        fars = (nondegenerate_far_end(p, v, r) for r in improving)
        v = next(filter(None, fars), None) or p.simplex_pivot(v, improving[0])
    if len(v.labels) != p.n:
        raise DegeneratePolytope(f"section optimum has {len(v.labels)} tight rows in P")
    return v, edge_rates(p, v, betas)


def lifted_section(p: Polytope, lifted: Polytope, v: Vertex, rates: Rates, delta: Vec,
                   objective: Sequence[int]) -> Section:
    """The section at lambda = delta whose optimum over P is v, a vertex with n
    tight rows and these edge rates, where no edge raises the section
    objective; ``objective`` is its ``integer_objective``.

    The multiplier of row i is minus the rate of its edge, x_i = c_i - g_i .
    delta, on v's basis rows and zero on the others: on v's tableau it is
    -(objective . col_i) / (D * denom), minus the dot ``improving_labels``
    takes. lambda = delta, and pi2 is the least feasible, the largest of the
    lifted column rows c_j . x + w_j. The point is feasible when x >= 0 sums to
    1, and with v it certifies both optima when pi2 equals the section value
    w . y - pi1, which is objective . rhs over D * denom. Every check is on
    integers; only the returned point is built in ``Fraction``s.
    """
    m, tab = p.m, p.tableau(v)
    unit = -objective[-1] * tab.denom  # D * denom: x, pi2 and the value are over it
    x = [-sum(map(mul, objective, p._column(tab, i))) if i in v.basis else 0
         for i in range(1, m + 1)]
    if sum(x) != unit or min(x) < 0:
        raise RankGamesError("complementary lifted point is infeasible")
    value = sum(map(mul, objective, _rhs(tab)))
    # pi2 - c_j . x - w_j with pi2 at the section value, over unit and times
    # the scale s of column j's lifted row: the gap is their least over s * unit.
    slacks = [
        (s * (value - w * tab.denom) - sum(map(mul, row, x)), s)
        for row, s, w in zip(lifted.int_rows[m + 1:], lifted.scales[m + 1:], objective)
    ]
    if min(slack for slack, _ in slacks) != 0:
        gap = min(Fraction(slack, s * unit) for slack, s in slacks)
        raise NonzeroOptimum(f"section objective is {gap}, expected 0")
    w_coords = (*(Fraction(xi, unit) for xi in x), *delta, Fraction(value, unit))
    return Section(v, w_coords, rates)


def _section(p: Polytope, lifted: Polytope, betas: Sequence[Vec], delta: Vec,
             start: Optional[Vertex] = None) -> Section:
    """Optimal section at lambda = delta: a primal walk on P's tableau from
    ``start`` (else the best pure vertex), whose integer dots at the optimum
    give the dual in the lifted polytope."""
    objective = integer_objective(betas, delta)
    v, rates = _section_walk(p, betas, objective, start)
    return lifted_section(p, lifted, v, rates, delta, objective)


def solve_lp_delta(family: GameFamily, delta, start: Optional[Vertex] = None) -> OptSet:
    """``solve_lp_k`` at lambda = delta, from ``start`` when given, with the
    edge of the path containing the section: the family has one beta."""
    beta = family.beta
    m, qp = family.m, family.qp
    sec = solve_lp_k(family, (frac(delta),), start)
    v, w_coords = sec.v, sec.w_coords
    w_labels = qp.labels_at(w_coords)
    if len(w_labels) == m:
        # Along the edge lambda rises at rate 1, x moves at -g_i on v's basis
        # rows, and pi2 at beta . y (the rows of v's support stay tight).
        dx = _on_rows(m, sec.rates, lambda g, c: -g[0])
        direction = dx + (Fraction(1), vdot(beta, v.coords[: family.n]))
        edge = oriented_edge(
            family, V_FIXED, v, qp.edge_through_point(w_labels, w_coords, direction)
        )
    elif len(w_labels) == m + 1:
        # The zero gap makes the pair fully labeled, so its n + m + 1 labels
        # share exactly one: the duplicate.
        ed = family.p.pivot(v, min(v.labels & w_labels))
        if ed.unbounded:
            raise RankGamesError("unexpected unbounded edge in the row polytope")
        edge = oriented_edge(family, W_FIXED, Vertex(w_coords, w_labels, w_labels), ed)
    else:
        raise DegeneratePolytope(f"section optimum has {len(w_labels)} tight rows in Q'")
    return OptSet(v, w_coords, sec.rates, edge)


def _rhs(tab: Tableau) -> Iterator[int]:
    """A tableau's rhs column. Its first d entries, the z rows, are the
    vertex's point times ``tab.denom``; ``Hyperplane.over`` reads no more."""
    return (row[-1] for row in tab.rows)


def _h_at(h: Hyperplane, w: Vertex) -> Rat:
    """The hyperplane value at a vertex of Q', off its tableau when it carries one."""
    if w.tableau is None:
        return h.value_at(w.coords)
    return h.over(_rhs(w.tableau), w.tableau.denom)


def _h_linear(edge: PathEdge, h: Hyperplane) -> tuple[Rat, Rat]:
    """Coefficients (h0, dh) of the hyperplane value along the edge parameter.

    On an edge that ``Polytope.pivot`` made, both are integer dots with its
    base's tableau: the rhs, and the relaxed column. Only the section edge
    (``edge_through_point``) has its direction in ``Fraction``s, which are
    put over their common denominator.
    """
    if edge.kind == W_FIXED:
        return _h_at(h, edge.fixed), Fraction(0)
    ed = edge.moving
    if ed.tableau is None:
        return _h_at(h, ed.base), h.over(*integers(ed.direction))
    return h.over(_rhs(ed.tableau), ed.tableau.denom), h.over(ed.column, ed.tableau.denom)


def _analyze_edge(edge: PathEdge, h: Hyperplane):
    """('none', side_sign) | ('point', Crossing) for the hit strictly inside."""
    h0, dh = _h_linear(edge, h)
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
    return ("point", Crossing(*edge.point_at(t_star), _orient_index(edge, dh)))


def _orient_index(edge: PathEdge, dh: Rat) -> int:
    rising = dh > 0 if edge.direction == FORWARD else dh < 0
    return 1 if rising else -1


def crossing_records(h: Hyperplane, edge: PathEdge) -> list[Crossing]:
    """The hyperplane's crossing strictly inside one edge, if any.

    ``h`` is ``Hyperplane(gamma)``: a path builds it once for all its edges.
    A crossing is only a point; the caller verifies it on its own game.
    """
    kind, hit = _analyze_edge(edge, h)
    return [hit] if kind == "point" else []


def is_ne(family: GameFamily, gamma: Sequence[Fraction], delta,
          start: Optional[Vertex] = None) -> IsNEOutcome:
    """Probe one lambda value: the crossing on the containing edge, or its
    side, with the section's optimum. The section walk starts at ``start``, a
    vertex of the family's P such as the previous probe's optimum, when given."""
    sec = solve_lp_delta(family, delta, start)
    kind, hit = _analyze_edge(sec.edge, Hyperplane(gamma))
    if kind == "none":
        return IsNEOutcome("below" if hit < 0 else "above", sec.v)
    return IsNEOutcome("found", sec.v, hit)


def solve_lp_k(family: GameFamily, delta: Sequence[Fraction],
               start: Optional[Vertex] = None) -> Section:
    """Optimal section at a fixed lambda vector, one entry per beta, of a
    family with c = -a; the walk starts at ``start``, a vertex of the family's
    P, when given."""
    if not family.minus_a:
        raise RankGamesError("section LP needs a family with c = -a")
    delta = vector(delta)
    if len(delta) != family.k:
        raise OutOfBox(f"delta has length {len(delta)}, expected {family.k}")
    return _section(family.p, family.qp, family.betas, delta, start)


def box_bounds(gammas: Sequence[Sequence[Fraction]]) -> tuple[Vec, Vec]:
    return tuple(min(g) for g in gammas), tuple(max(g) for g in gammas)


def fixed_point_eval(family: GameFamily, gammas: Sequence[Sequence[Fraction]],
                     a: Sequence[Fraction]) -> Vec:
    """One evaluation of the piecewise-linear box self-map at a."""
    gammas = tuple(vector(g) for g in gammas)
    a = vector(a)
    lows, highs = box_bounds(gammas)
    if any(not lo <= ai <= hi for ai, lo, hi in zip(a, lows, highs)):
        raise OutOfBox(f"{a} outside box {lows}..{highs}")
    x = solve_lp_k(family, a).w_coords[: family.m]
    return tuple(vdot(g, x) for g in gammas)


def piece_fixed_point(family: GameFamily, gammas: Sequence[Vec], rates: Rates) -> Optional[Vec]:
    """Fixed point of the affine piece of the box map on the cell of a vertex
    v of P, given v's edge rates.

    On that cell the section's x(a) is c_B - G_B a on v's basis rows and zero
    on the others, so the map is a -> Gamma x(a), and its fixed point solves
    the k x k system (I + Gamma_B G_B) a = Gamma_B c_B. None when that system
    is singular. The point may lie outside the cell.
    """
    m, k, gam = family.m, family.k, Matrix(gammas)
    g_x = Matrix([rates[i][0] if i in rates else (0,) * k for i in range(1, m + 1)])
    try:
        return solve_linear_system(Matrix.identity(k) + gam @ g_x,
                                   gam.mul_vec(_on_rows(m, rates, lambda g, c: c)))
    except Singular:
        return None
