"""Lambda-section LPs, hyperplane probes, and rank-k fixed-point evaluation.

The section LP at a parameter value is a primal walk on the row polytope's own
tableau (``Polytope.pivot``, and ``Polytope.simplex_pivot`` by Bland's rule
where every improving pivot is degenerate); complementary slackness gives its
dual optimum on the lifted polytope, a fully-labeled partner with combined
objective exactly zero. Intersecting the containing edge with a game's
selection hyperplane yields equilibria or a side classification.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DegeneratePolytope,
    EdgeInHyperplane,
    NonzeroOptimum,
    NotEquilibrium,
    OutOfBox,
    RankGamesError,
    Singular,
)
from .games import EquilibriumRecord, MixedProfile, make_record, verify_equilibrium
from .labeledpath import (
    FORWARD,
    V_FIXED,
    W_FIXED,
    PathEdge,
    make_node,
    oriented_edge,
)
from .linalg import Matrix, Rat, Vec, frac, solve_linear_system, vdot, vector, vsub
from .polytope import GameFamily, Polytope, RankKFamily, Vertex


@dataclass(frozen=True)
class Hyperplane:
    """Selection hyperplane lambda = gamma . x over lifted coordinates."""

    gamma: Vec

    def value_at(self, w_coords: Sequence[Fraction]) -> Rat:
        m = len(self.gamma)
        return w_coords[m] - vdot(self.gamma, w_coords[:m])


@dataclass(frozen=True)
class Crossing:
    """A hyperplane hit strictly inside an oriented edge."""

    edge: PathEdge
    t: Rat
    v_coords: Vec
    w_coords: Vec
    orient_index: int  # +1 when the hyperplane value rises tail-to-head


@dataclass(frozen=True)
class FoundEquilibrium:
    record: EquilibriumRecord
    crossing: Crossing


@dataclass(frozen=True)
class IsNEOutcome:
    kind: str  # "found" | "below" | "above"
    found: tuple[FoundEquilibrium, ...] = ()


@dataclass(frozen=True)
class OptSet:
    """A point of the optimal section, with its containing edge."""

    v_coords: Vec
    w_coords: Vec
    edge: PathEdge


def _section_gap(betas: Sequence[Vec], v_coords: Sequence[Fraction],
                 w_coords: Sequence[Fraction]) -> Rat:
    """sum_l lambda_l * (beta_l . y) - pi1 - pi2 for k betas over the lifted
    coordinates (x, lambda_1..lambda_k, pi2); nonpositive, zero iff fully labeled."""
    n, k = len(betas[0]), len(betas)
    lams = w_coords[-k - 1: -1]
    weighted = sum((lam * vdot(b, v_coords[:n]) for lam, b in zip(lams, betas)), Fraction(0))
    return weighted - v_coords[n] - w_coords[-1]


def labeling_gap(family: GameFamily, v_coords: Sequence[Fraction],
                 w_coords: Sequence[Fraction]) -> Rat:
    """lambda * (beta . y) - pi1 - pi2; nonpositive, zero iff fully labeled.

    Valid on rank-1 families (c = -a), where the two polytope systems sum to
    this bound.
    """
    return _section_gap((family.beta,), v_coords, w_coords)


def _complementary_system(lifted: Polytope, v_labels: frozenset[int],
                          lam_rows: Sequence[Vec], lam_rhs: Sequence[Fraction]
                          ) -> tuple[Matrix, list[Fraction]]:
    """Square system of the lifted point complementary to a row-polytope vertex
    with ``v_labels``: the equality row, k rows that fix lambda, and the m rows
    of the labels v lacks."""
    tight = sorted(frozenset(range(1, lifted.n_labels + 1)) - v_labels)
    rows = [lifted.eq[0], *lam_rows] + [lifted.row(lab)[0] for lab in tight]
    rhs = [lifted.eq[1], *lam_rhs] + [lifted.row(lab)[1] for lab in tight]
    return Matrix(rows), rhs


def edge_rates(p: Polytope, v: Vertex, betas: Sequence[Vec]) -> dict[int, tuple[Vec, Rat]]:
    """(g_r, c_r) per basis label r of a vertex v of P, in label order: along r's
    edge direction d the section objective sum_l delta_l * (beta_l . y) - pi1
    changes at rate g_r . delta - c_r, with g_r = (beta_l . d_y)_l, c_r = d_pi1."""
    dirs = {r: p.edge_direction(v, r) for r in sorted(v.basis)}
    return {r: (tuple(vdot(beta, d[: p.n]) for beta in betas), d[p.n]) for r, d in dirs.items()}


def nondegenerate_far_end(p: Polytope, v: Vertex, r: int) -> Optional[Vertex]:
    """Far end of r's edge at v; None when that pivot is degenerate or the edge unbounded."""
    try:
        return p.pivot(v, r).far_end
    except DegeneratePolytope:
        return None


def _section(p: Polytope, lifted: Polytope, betas: Sequence[Vec],
             delta: Vec) -> tuple[Vertex, Vec, Matrix]:
    """Optimal section at lambda = delta: a primal walk on P's tableau, then
    the dual in the lifted polytope from complementary slackness.

    The walk starts at the best pure vertex y = e_j, preferring columns with
    one best row. It relaxes the lowest basis label of positive rate whose
    pivot is nondegenerate (a strict gain), else takes the simplex pivot on
    the lowest such label by Bland's rule, which cannot cycle. Its optimum v
    must have exactly n tight rows; the dual optimum is then unique, tight on
    the m labels v lacks, and solves the square system of the equality row,
    the k rows lambda_l = delta_l and those m rows. Returns v, the lifted
    point w and that system; a feasible w with zero gap certifies both optima.
    """
    n, m, k = p.n, p.m, len(betas)
    weights = tuple(vdot(delta, col) for col in zip(*betas))
    cols = [[a[j] for a, _ in p.ineqs[:m]] for j in range(n)]
    starts = [j for j, col in enumerate(cols) if col.count(max(col)) == 1] or range(n)
    j = max(starts, key=lambda j: weights[j] - max(cols[j]))  # ties: the lowest column
    i = cols[j].index(max(cols[j]))
    v = p.vertex_from_basis({i + 1} | {m + c + 1 for c in range(n) if c != j})
    while improving := [r for r, (g, c) in edge_rates(p, v, betas).items() if vdot(g, delta) > c]:
        fars = (nondegenerate_far_end(p, v, r) for r in improving)
        v = next(filter(None, fars), None) or p.simplex_pivot(v, improving[0])
    if len(v.labels) != n:
        raise DegeneratePolytope(f"section optimum has {len(v.labels)} tight rows in P")

    unit = Matrix.identity(m + k + 1)
    system, rhs = _complementary_system(
        lifted, v.labels, [unit.row(m + l) for l in range(k)], delta
    )
    w_coords = solve_linear_system(system, rhs)  # Singular is an internal failure
    if not lifted.feasible(w_coords):
        raise RankGamesError("complementary lifted point is infeasible")
    gap = _section_gap(betas, v.coords, w_coords)
    if gap != 0:
        raise NonzeroOptimum(f"section objective is {gap}, expected 0")
    return v, w_coords, system


def solve_lp_delta(family: GameFamily, delta) -> OptSet:
    """Optimal section at lambda = delta, with the edge of the path containing it."""
    if not family.rank1:
        raise RankGamesError("section LP needs the rank-1 family (c = -a)")
    m, qp = family.m, family.qp
    v, w_coords, system = _section(family.p, qp, (family.beta,), (frac(delta),))
    w_labels = qp.labels_at(w_coords)
    if len(w_labels) == m:
        # Along the edge the m tight rows stay tight while lambda rises at rate 1.
        rate = [Fraction(0), Fraction(1)] + [Fraction(0)] * m
        direction = solve_linear_system(system, rate)
        edge = oriented_edge(
            family, V_FIXED, v, qp.edge_through_point(w_labels, w_coords, direction)
        )
    elif len(w_labels) == m + 1:
        w = Vertex(w_coords, w_labels, w_labels)
        ed = family.p.pivot(v, make_node(family, v, w).duplicate)
        if ed.unbounded:
            raise RankGamesError("unexpected unbounded edge in the row polytope")
        edge = oriented_edge(family, W_FIXED, w, ed)
    else:
        raise DegeneratePolytope(f"section optimum has {len(w_labels)} tight rows in Q'")
    return OptSet(v.coords, w_coords, edge)


def _h_linear(family: GameFamily, edge: PathEdge, h: Hyperplane) -> tuple[Rat, Rat]:
    """Coefficients (h0, dh) of the hyperplane value along the edge parameter."""
    if edge.kind == W_FIXED:
        return h.value_at(edge.fixed.coords), Fraction(0)
    h0 = h.value_at(edge.moving.base.coords)
    d = edge.moving.direction
    m = family.m
    dh = d[m] - vdot(h.gamma, d[:m])
    return h0, dh


def _analyze_edge(family: GameFamily, edge: PathEdge, h: Hyperplane):
    """('none', side_sign) | ('point', Crossing) for the hit strictly inside."""
    h0, dh = _h_linear(family, edge, h)
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
        sign_at_zero = 1 if h0 > 0 else -1
        return ("none", sign_at_zero)
    if edge.kind == V_FIXED:
        w_coords = edge.moving.point_at(t_star)
        v_coords = edge.fixed.coords
    else:
        v_coords = edge.moving.point_at(t_star)
        w_coords = edge.fixed.coords
    return ("point", Crossing(edge, t_star, v_coords, w_coords, _orient_index(edge, dh)))


def _orient_index(edge: PathEdge, dh: Rat) -> int:
    rising = dh > 0 if edge.direction == FORWARD else dh < 0
    return 1 if rising else -1


def _verified(family: GameFamily, gamma: Vec, crossing: Crossing,
              provenance: str) -> FoundEquilibrium:
    """The crossing as an exactly verified equilibrium of the gamma game."""
    profile = MixedProfile(crossing.w_coords[: family.m], crossing.v_coords[: family.n])
    game = family.game_at(gamma)
    if not verify_equilibrium(game, profile):
        raise NotEquilibrium("hyperplane crossing failed exact verification")
    return FoundEquilibrium(make_record(game, profile, provenance), crossing)


def crossing_records(
    family: GameFamily, gamma: Sequence[Fraction], edge: PathEdge, provenance: str
) -> list[FoundEquilibrium]:
    """Equilibria of the gamma game on one edge, with orientation indices."""
    gamma = vector(gamma)
    kind, hit = _analyze_edge(family, edge, Hyperplane(gamma))
    return [_verified(family, gamma, hit, provenance)] if kind == "point" else []


def is_ne(family: GameFamily, gamma: Sequence[Fraction], delta) -> IsNEOutcome:
    """Probe one lambda value: equilibrium on the containing edge, or its side."""
    gamma = vector(gamma)
    opt = solve_lp_delta(family, delta)
    kind, hit = _analyze_edge(family, opt.edge, Hyperplane(gamma))
    if kind == "none":
        return IsNEOutcome("below" if hit < 0 else "above")
    found = _verified(family, gamma, hit, f"section-probe(delta={frac(delta)})")
    return IsNEOutcome("found", (found,))


@dataclass(frozen=True)
class KSectionOpt:
    v: Vertex
    w_coords: Vec

    @property
    def v_coords(self) -> Vec:
        return self.v.coords


def solve_lp_k(kfam: RankKFamily, delta: Sequence[Fraction]) -> KSectionOpt:
    """Optimal section of the rank-k system at a fixed lambda vector."""
    delta = vector(delta)
    if len(delta) != kfam.k:
        raise OutOfBox(f"delta has length {len(delta)}, expected {kfam.k}")
    v, w_coords, _ = _section(kfam.p, kfam.qk, kfam.betas, delta)
    return KSectionOpt(v, w_coords)


def box_bounds(gammas: Sequence[Sequence[Fraction]]) -> tuple[Vec, Vec]:
    lows = tuple(min(g) for g in gammas)
    highs = tuple(max(g) for g in gammas)
    return lows, highs


def fixed_point_eval(kfam: RankKFamily, gammas: Sequence[Sequence[Fraction]],
                     a: Sequence[Fraction]) -> Vec:
    """One evaluation of the piecewise-linear box self-map at a."""
    gammas = tuple(vector(g) for g in gammas)
    a = vector(a)
    lows, highs = box_bounds(gammas)
    if any(not lo <= ai <= hi for ai, lo, hi in zip(a, lows, highs)):
        raise OutOfBox(f"{a} outside box {lows}..{highs}")
    opt = solve_lp_k(kfam, a)
    x = opt.w_coords[: kfam.m]
    return tuple(vdot(g, x) for g in gammas)


def piece_fixed_point(kfam: RankKFamily, gammas: Sequence[Vec], v: Vertex) -> Optional[Vec]:
    """Fixed point of the affine piece of the box map on the cell of v.

    On that cell the lifted point solves v's complementary system with lambda
    = delta, so the map is a -> Gamma x(a). Replacing each row lambda_l =
    delta_l by lambda_l = gamma_l . x makes lambda its own image: one square
    solve (the k x k system (I - Gamma X_v) a = Gamma x_0 before elimination).
    None when that system is singular. The point may lie outside the cell.
    """
    m, k = kfam.m, kfam.k
    unit = Matrix.identity(m + k + 1)
    lam_rows = [vsub(unit.row(m + l), tuple(g) + (0,) * (k + 1)) for l, g in enumerate(gammas)]
    system, rhs = _complementary_system(kfam.qk, v.labels, lam_rows, [Fraction(0)] * k)
    try:
        w_coords = solve_linear_system(system, rhs)
    except Singular:
        return None
    return w_coords[m: m + k]
