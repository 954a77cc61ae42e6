"""Lambda-section LPs, hyperplane probes, and rank-k fixed-point evaluation.

The section LP at a parameter value is solved on the row polytope; complementary
slackness gives its dual optimum on the lifted polytope, a fully-labeled partner
with combined objective exactly zero. Intersecting the containing edge with a
game's selection hyperplane yields equilibria or a side classification.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegeneratePolytope,
    EdgeInHyperplane,
    NonzeroOptimum,
    NotEquilibrium,
    OutOfBox,
    RankGamesError,
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
from .linalg import Matrix, Rat, Vec, frac, solve_linear_system, vdot, vector
from .lp import EQ, LE, LinearProgram, solve_lp
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


def polytope_lp(poly: Polytope, objective: Sequence[Fraction]) -> LinearProgram:
    rows = [a for a, _ in poly.ineqs] + [poly.eq[0]]
    rhs = [b for _, b in poly.ineqs] + [poly.eq[1]]
    rels = [LE] * len(poly.ineqs) + [EQ]
    return LinearProgram.build(objective, rows, rels, rhs)


def _with_rows(lp: LinearProgram, rows, rels, rhs) -> LinearProgram:
    return LinearProgram(
        lp.objective,
        lp.rows + tuple(vector(r) for r in rows),
        lp.relations + tuple(rels),
        lp.rhs + vector(rhs),
    )


def labeling_gap(family: GameFamily, v_coords: Sequence[Fraction],
                 w_coords: Sequence[Fraction]) -> Rat:
    """lambda * (beta . y) - pi1 - pi2; nonpositive, zero iff fully labeled.

    Valid on rank-1 families (c = -a), where the two polytope systems sum to
    this bound.
    """
    y = v_coords[: family.n]
    pi1 = v_coords[family.n]
    lam = w_coords[family.m]
    pi2 = w_coords[family.m + 1]
    return lam * vdot(family.beta, y) - pi1 - pi2


def solve_lp_delta(family: GameFamily, delta) -> OptSet:
    """Optimal section at lambda = delta: the row-polytope LP, then its dual in
    Q', which is unique (v is nondegenerate) and tight on the labels v lacks."""
    if not family.rank1:
        raise RankGamesError("section LP needs the rank-1 family (c = -a)")
    delta = frac(delta)
    n, m = family.n, family.m
    p_obj = tuple(delta * b for b in family.beta) + (Fraction(-1),)
    p_sol = solve_lp(polytope_lp(family.p, p_obj))
    if not p_sol.optimal:
        raise RankGamesError(f"row polytope LP is {p_sol.status}")
    v_coords = p_sol.point
    v_labels = family.p.labels_at(v_coords)
    if len(v_labels) != n:
        raise DegeneratePolytope(f"section optimum has {len(v_labels)} tight rows in P")
    v = Vertex(v_coords, v_labels, v_labels)

    qp = family.qp
    lam_row = [Fraction(0)] * (m + 2)
    lam_row[m] = Fraction(1)
    tight = sorted(frozenset(range(1, m + n + 1)) - v_labels)
    rows = [qp.eq[0], lam_row] + [qp.row(lab)[0] for lab in tight]
    rhs = [qp.eq[1], delta] + [qp.row(lab)[1] for lab in tight]
    w_coords = solve_linear_system(Matrix(rows), rhs)  # Singular is an internal failure
    if not qp.feasible(w_coords):
        raise RankGamesError("complementary lifted point is infeasible")
    w_labels = qp.labels_at(w_coords)

    combined = labeling_gap(family, v_coords, w_coords)
    if combined != 0:
        raise NonzeroOptimum(f"section objective is {combined}, expected 0")

    if len(w_labels) == m:
        edge = oriented_edge(family, V_FIXED, v, qp.edge_through_point(w_labels, w_coords))
    elif len(w_labels) == m + 1:
        w = Vertex(w_coords, w_labels, w_labels)
        ed = family.p.pivot(v, make_node(family, v, w).duplicate)
        if ed.unbounded:
            raise RankGamesError("unexpected unbounded edge in the row polytope")
        edge = oriented_edge(family, W_FIXED, w, ed)
    else:
        raise DegeneratePolytope(f"section optimum has {len(w_labels)} tight rows in Q'")
    return OptSet(v_coords, w_coords, edge)


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
    """('whole',) | ('none', side_sign) | ('point', t, w_coords, v_coords)."""
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
    return ("point", t_star, w_coords, v_coords)


def _orient_index(edge: PathEdge, dh: Rat) -> int:
    rising = dh > 0 if edge.direction == FORWARD else dh < 0
    return 1 if rising else -1


def crossing_records(
    family: GameFamily, gamma: Sequence[Fraction], edge: PathEdge, provenance: str
) -> list[FoundEquilibrium]:
    """Equilibria of the gamma game on one edge, with orientation indices."""
    h = Hyperplane(vector(gamma))
    res = _analyze_edge(family, edge, h)
    if res[0] != "point":
        return []
    _, t_star, w_coords, v_coords = res
    _, dh = _h_linear(family, edge, h)
    profile = MixedProfile(w_coords[: family.m], v_coords[: family.n])
    game = family.game_at(gamma)
    if not verify_equilibrium(game, profile):
        raise NotEquilibrium("hyperplane crossing failed exact verification")
    record = make_record(game, profile, provenance)
    crossing = Crossing(edge, t_star, v_coords, w_coords, _orient_index(edge, dh))
    return [FoundEquilibrium(record, crossing)]


def is_ne(family: GameFamily, gamma: Sequence[Fraction], delta) -> IsNEOutcome:
    """Probe one lambda value: equilibria on the containing edge, or its side."""
    gamma = vector(gamma)
    opt = solve_lp_delta(family, delta)
    h = Hyperplane(gamma)
    res = _analyze_edge(family, opt.edge, h)
    if res[0] == "none":
        return IsNEOutcome("below" if res[1] < 0 else "above")
    found = crossing_records(family, gamma, opt.edge, f"section-probe(delta={frac(delta)})")
    return IsNEOutcome("found", tuple(found))


@dataclass(frozen=True)
class KSectionOpt:
    v_coords: Vec
    w_coords: Vec


def solve_lp_k(kfam: RankKFamily, delta: Sequence[Fraction],
               check_unique: bool = True) -> KSectionOpt:
    """Optimal section of the rank-k system at a fixed lambda vector.

    Asserts the zero-objective certificate and, unless disabled, that the
    lifted-side optimum is the unique point of its optimal face.
    """
    delta = vector(delta)
    if len(delta) != kfam.k:
        raise OutOfBox(f"delta has length {len(delta)}, expected {kfam.k}")
    m, n, k = kfam.m, kfam.n, kfam.k
    p_obj = tuple(
        sum((delta[l] * kfam.betas[l][j] for l in range(k)), Fraction(0))
        for j in range(n)
    ) + (Fraction(-1),)
    p_sol = solve_lp(polytope_lp(kfam.p, p_obj))
    if not p_sol.optimal:
        raise RankGamesError(f"row polytope LP is {p_sol.status}")
    v_coords = p_sol.point

    q_obj = [Fraction(0)] * (m + k + 1)
    q_obj[m + k] = Fraction(-1)
    lam_rows = []
    for l in range(k):
        row = [Fraction(0)] * (m + k + 1)
        row[m + l] = Fraction(1)
        lam_rows.append(row)
    base_lp = _with_rows(polytope_lp(kfam.qk, q_obj), lam_rows, [EQ] * k, delta)
    q_sol = solve_lp(base_lp)
    if not q_sol.optimal:
        raise RankGamesError(f"lifted section LP is {q_sol.status}")
    w_coords = q_sol.point
    pi2 = w_coords[m + k]

    combined = (
        sum((delta[l] * vdot(kfam.betas[l], v_coords[:n]) for l in range(k)), Fraction(0))
        - v_coords[n]
        - pi2
    )
    if combined != 0:
        raise NonzeroOptimum(f"rank-k section objective is {combined}, expected 0")

    if check_unique:
        pin_row = [Fraction(0)] * (m + k + 1)
        pin_row[m + k] = Fraction(1)
        pinned = _with_rows(base_lp, [pin_row], [EQ], [pi2])
        for i in range(m):
            probe = [Fraction(0)] * (m + k + 1)
            probe[i] = Fraction(1)
            hi = solve_lp(replace(pinned, objective=vector(probe)))
            lo = solve_lp(replace(pinned, objective=vector([-q for q in probe])))
            if not (hi.optimal and lo.optimal) or hi.value != -lo.value:
                raise DegeneratePolytope(
                    "lifted-side section optimum is not unique"
                )
    return KSectionOpt(v_coords, w_coords)


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
    opt = solve_lp_k(kfam, a, check_unique=False)
    x = opt.w_coords[: kfam.m]
    return tuple(vdot(g, x) for g in gammas)
