"""Top-level solving procedures built on the path machinery.

Binary search and full enumeration for rank-1 games, a path-following solver
for arbitrary bimatrix games, equilibrium indices with a built-in cross-check,
the forward/inverse homeomorphism maps, the exact rank-k fixed-point search
(a breadth-first walk over the affine cells of the box map), and game-space
region extraction. A path walk reads each node's lifted point once, as
integers: enumeration's lambda checks compare by cross-multiplication, and
the crossing test (``paramlp.path_crossings``) takes the hyperplane's value
there, so no node builds ``Fraction`` coordinates; an answer builds only
its x and y, off the crossing's integer points.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import factorial, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DegeneratePolytope,
    IndexMismatch,
    IterationCapExceeded,
    NotEquilibrium,
    RankGamesError,
    StepBudgetExceeded,
)
from .games import (
    BimatrixGame,
    EquilibriumRecord,
    MixedProfile,
    Rank1Decomposition,
    default_beta,
    reduce_constant_beta,
    verify_equilibrium,
)
from .labeledpath import (
    V_FIXED,
    ComponentTrace,
    PathEdge,
    PathNode,
    g_at,
    g_rate,
    step_budget,
    trace_path,
    walk,
)
from .linalg import (
    Matrix,
    Rat,
    Vec,
    integer_determinant,
    integers,
    rationals,
    sign,
    vdot,
    vector,
    vscale,
)
from .lp import EQ, LE, LinearProgram, solve_lp
from .paramlp import (
    Crossing,
    Hyperplane,
    Section,
    box_bounds,
    cell_rows,
    improving_labels,
    integer_objective,
    is_ne,
    lifted_section,
    nondegenerate_far_end,
    path_crossings,
    piece_fixed_point,
    section_rows,
    solve_lp_delta,
    solve_lp_k,
)
from .polytope import GameFamily, Vertex


@dataclass(frozen=True)
class BinSearchReport:
    equilibrium: EquilibriumRecord
    iterations: int  # midpoint probes inside the loop
    bound_k: int  # proven iteration bound, from the integerized instance's integers
    history: tuple[tuple[Rat, Rat], ...]  # (a1, a2) in the input's lambda after each loop step


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def _trivial_single_strategy(game: BimatrixGame, provenance: str) -> Optional[EquilibriumRecord]:
    """A game where one player has a single strategy: the other plays its
    unique best reply, an equilibrium of index +1. With n = 1 the row player
    picks A's best row, with m = 1 the column player B's best column; a tie is
    degenerate. None when both players have two or more strategies."""
    if game.n == 1:
        payoffs, kind = game.a.col(0), "rows in a single-column"
    elif game.m == 1:
        payoffs, kind = game.b.row(0), "columns in a single-row"
    else:
        return None
    best = max(payoffs)
    picks = [i for i, v in enumerate(payoffs) if v == best]
    if len(picks) > 1:
        raise DegeneratePolytope(f"tied best {kind} game")
    pure = tuple(Fraction(int(i == picks[0])) for i in range(len(payoffs)))
    one = (Fraction(1),)
    profile = MixedProfile(pure, one) if game.n == 1 else MixedProfile(one, pure)
    pays = verify_equilibrium(game, profile)
    if not pays:
        raise NotEquilibrium("single-strategy best reply failed exact verification")
    return EquilibriumRecord(profile, *pays, profile.support(), 1, provenance)


def index_of(game: BimatrixGame, support: tuple[tuple[int, ...], tuple[int, ...]],
             crossing: Crossing) -> int:
    """Index of the equilibrium on the 1-based ``support`` (I, J); asserts the
    determinant and orientation routes agree.

    The determinant route is (-1)^(|I|+1) * sign(det A_I^J * det B_I^J) on a
    strictly positive shift of the game, taken here on the game itself: each
    support block bordered by ones, [[A_I^J, 1], [1^T, 0]], keeps its
    determinant when constants are added to rows or columns and its sign
    under a positive scale, and on a positive game its sign is -sign(det
    A_I^J) at an equilibrium. The orientation value comes from which side of
    the hyperplane the directed edge enters from.
    """
    big_i, big_j = support
    if len(big_i) != len(big_j):
        raise DegeneratePolytope("unbalanced support at an equilibrium")
    # The bordered blocks on the integer rows: a positive denominator
    # changes no sign.
    det_a, det_b = (
        integer_determinant([*([rows[i - 1][j - 1] for j in big_j] + [1] for i in big_i),
                             [1] * len(big_j) + [0]])
        for rows in (game.a.int_rows, game.b.int_rows)
    )
    det_index = (-1) ** (len(big_i) + 1) * sign(det_a * det_b)
    if det_index == 0:
        raise DegeneratePolytope("singular support submatrix")
    if det_index != crossing.orient_index:
        raise IndexMismatch(
            f"determinant index {det_index} != orientation index {crossing.orient_index}"
        )
    return det_index


def _finalize(game: BimatrixGame, crossing: Crossing, provenance: str) -> EquilibriumRecord:
    """A crossing as an answer: its profile, verified and priced exactly on
    ``game``, the caller's input game, and recorded there once with its
    cross-checked index. Only x and y are built as ``Fraction``s."""
    (v, v_den), (w, w_den) = crossing.v_point, crossing.w_point
    profile = MixedProfile(rationals(w[: game.m], w_den), rationals(v[: game.n], v_den))
    pays = verify_equilibrium(game, profile)
    if not pays:
        raise NotEquilibrium("hyperplane crossing failed exact verification")
    support = profile.support()
    return EquilibriumRecord(profile, *pays, support, index_of(game, support, crossing),
                             provenance)


def rank1_family(d: Rank1Decomposition) -> tuple[Rank1Decomposition, GameFamily]:
    """The decomposition the path runs on, and its family (c = -a).

    A constant beta is reduced to the zero-sum game with the default beta: the
    path needs distinct extreme entries of beta, and the reduction keeps the
    equilibrium set.
    """
    if all(b == d.beta[0] for b in d.beta):
        d = reduce_constant_beta(d)
    return d, GameFamily(d.a, -d.a, d.beta)


def _better_start(family: GameFamily, delta: Rat, low: Vertex, high: Vertex) -> Vertex:
    """Of the optima of the bracket ends, the one whose section objective at
    lambda = delta is larger; a tie goes to ``low``. At a vertex of P the
    objective is one integer dot of its ``integer_objective`` row with the
    vertex's integers (``Vertex.integer_point``), over D times their
    denominator, so the two are compared by cross-multiplication."""
    row = integer_objective(family.int_betas, (delta,)).row
    (lo, lo_den), (hi, hi_den) = low.integer_point, high.integer_point
    return high if sum(map(mul, row, hi)) * lo_den > sum(map(mul, row, lo)) * hi_den else low


def iteration_bound(a: Matrix, gamma: tuple[Sequence[int], int],
                    beta: tuple[Sequence[int], int]) -> int:
    """``bin_search``'s probe bound for the game -a + gamma . beta^T, with
    gamma and beta as integers over their least common denominators
    (``linalg.integers``).

    It is read off the integerized copy (a c^2, gamma c, beta c), c the lcm
    of all three denominators: with b_max the copy's largest entry in
    absolute value and delta = (m + 2)! b_max^(m + 2), its vertex-denominator
    bound, it is ceil(log2(delta^2 (max gamma - min gamma) c)). Every entry
    of the copy is an integer, so the floor divisions that read b_max and
    (max gamma - min gamma) c off the integer forms are exact, and no
    ``Fraction`` is built.
    """
    rows, qa = a.int_rows, a.denom
    (gs, gq), (bs, bq) = gamma, beta
    c = lcm(qa, gq, bq)
    b_max = max(max(map(abs, chain.from_iterable(rows))) * c * c // qa,
                max(map(abs, bs)) * c // bq, max(map(abs, gs)) * c // gq)
    delta_bound = factorial(a.rows + 2) * b_max ** (a.rows + 2)
    return _ceil_log2(delta_bound * delta_bound * ((max(gs) - min(gs)) * c // gq))


def bin_search(d: Rank1Decomposition) -> BinSearchReport:
    """Binary search on the path's lambda coordinate for one equilibrium.

    Probes d's own family, and verifies the answer on ``d.game()``, the
    caller's game when ``decompose_rank1`` made d. The iteration cap comes
    from the vertex-denominator bound of the integerized copy (a c^2, gamma
    c, beta c), read off the integers of a, gamma and beta
    (``iteration_bound``): that copy maps each section onto a scaled one, so
    it has the same optima and crossings. Both bracket-end probes, at min
    gamma and max gamma, start at the best pure vertex; each midpoint probe
    starts at the optimum of the bracket end with the larger section
    objective there.
    Constant beta is reduced away first; with constant gamma the bound is 0
    and the low probe must find the equilibrium.
    """
    game = d.game()
    if (rec := _trivial_single_strategy(game, "bin-search")) is not None:
        return BinSearchReport(rec, 0, 0, ())

    run, family = rank1_family(d)
    gamma = run.gamma
    g_min, g_max = min(gamma), max(gamma)

    def report_for(crossing: Crossing, iters: int, bound: int, hist) -> BinSearchReport:
        if crossing.orient_index != 1:
            raise IndexMismatch("binary search landed on a negatively indexed crossing")
        rec = _finalize(game, crossing, "bin-search")
        return BinSearchReport(rec, iters, bound, tuple(hist))

    bound_k = iteration_bound(run.a, integers(gamma), family.int_beta)

    h = Hyperplane(gamma)
    low = is_ne(family, h, g_min)
    if low.kind == "found":
        return report_for(low.crossing, 0, bound_k, ())
    if low.kind != "below":
        raise RankGamesError("low probe is not on the low side of the hyperplane")
    high = is_ne(family, h, g_max)
    if high.kind == "found":
        return report_for(high.crossing, 0, bound_k, ())
    if high.kind != "above":
        raise RankGamesError("high probe is not on the high side of the hyperplane")

    # Invariant: the path is below the hyperplane at a1 and above it just
    # before a2, so (a1, a2) holds a +1 crossing. Along the path lambda never
    # decreases and the hyperplane value falls through every -1 crossing, so a
    # probe that hits one is above just before its lambda and becomes a2. The
    # invariant is the one the bound's proof uses, so bound_k still holds.
    a1, a2 = g_min, g_max
    v1, v2 = low.optimum, high.optimum  # the section optima at a1 and a2
    history: list[tuple[Rat, Rat]] = []
    for it in range(1, bound_k + 2):
        a = (a1 + a2) / 2
        out = is_ne(family, h, a, _better_start(family, a, v1, v2))
        if out.kind == "found" and out.crossing.orient_index == 1:
            return report_for(out.crossing, it, bound_k, history)
        if out.kind == "below":
            a1, v1 = a, out.optimum
        else:
            a2, v2 = a, out.optimum
        history.append((a1, a2))
    raise IterationCapExceeded(f"no equilibrium within {bound_k + 1} probes")


def _edges_until(family: GameFamily, start: PathEdge, lam_max: Rat) -> Iterator[PathEdge]:
    """The oriented path from ``start`` through the first edge whose head lambda
    exceeds ``lam_max``: lambda never decreases along the path, and every
    equilibrium has lambda = gamma . x <= max gamma. Each node's lambda is
    read off its lifted point's integers (``Vertex.integer_point``), and both
    checks compare by cross-multiplication."""
    m, top, top_den = family.m, lam_max.numerator, lam_max.denominator

    def lam(node: PathNode) -> tuple[int, int]:
        nums, den = node.w.integer_point
        return nums[m], den

    for edge in chain([start], walk(family, start.head) if start.head is not None else ()):
        ends = [lam(u) for u in (edge.tail, edge.head) if u is not None]
        if len(ends) == 2 and ends[0][0] * ends[1][1] > ends[1][0] * ends[0][1]:
            raise RankGamesError("lambda decreases along the path")
        yield edge
        if edge.head is not None and ends[-1][0] * top_den > top * ends[-1][1]:
            return


def _path_equilibria(
    game: BimatrixGame, gamma: Sequence[Fraction], edges: Iterable[PathEdge], provenance: str
) -> list[EquilibriumRecord]:
    """Hyperplane crossings of the edges, in path order, as answers on ``game``."""
    crossings = list(path_crossings(Hyperplane(gamma), edges))
    if not crossings:
        raise RankGamesError("path walk found no equilibrium; theory guarantees one")
    return [_finalize(game, hit, provenance) for hit in crossings]


def enumerate_rank1(d: Rank1Decomposition) -> list[EquilibriumRecord]:
    """All equilibria of a rank-1 game, in path order, with indices attached,
    each verified on ``d.game()``: the caller's game when ``decompose_rank1``
    made d."""
    game = d.game()
    if (rec := _trivial_single_strategy(game, "enumeration")) is not None:
        return [rec]
    run, family = rank1_family(d)
    start = solve_lp_delta(family, min(run.gamma)).edge
    edges = _edges_until(family, start, max(run.gamma))
    return _path_equilibria(game, run.gamma, edges, "enumeration")


def general_family(game: BimatrixGame, beta: Optional[Sequence[Fraction]] = None) -> GameFamily:
    """The family that embeds an arbitrary game at zero row weights: c = b."""
    return GameFamily(game.a, game.b, default_beta(game.n) if beta is None else beta)


def enumerate_general(
    game: BimatrixGame, beta: Optional[Sequence[Fraction]] = None
) -> list[EquilibriumRecord]:
    """Equilibria found on the full path of the general embedding.

    Complete for a rank-1 input B = -A + gamma beta^T when ``beta`` is its own
    beta: the embedding is then a rank-1 family, whose fully-labeled set is
    one path. With any other beta, the default included, and for larger rank,
    at least one equilibrium is guaranteed (equilibria on cycle components
    are not visited).
    """
    if (rec := _trivial_single_strategy(game, "general-path")) is not None:
        return [rec]
    family = general_family(game, beta)
    gamma = vector([0] * game.m)
    return _path_equilibria(game, gamma, trace_path(family).edges, "general-path")


def solve_general(
    game: BimatrixGame, beta: Optional[Sequence[Fraction]] = None
) -> EquilibriumRecord:
    """One verified equilibrium of an arbitrary bimatrix game (first path hit)."""
    return enumerate_general(game, beta)[0]


def homeo_forward(family: GameFamily, alphas: Sequence[Sequence[Fraction]],
                  profile: MixedProfile) -> tuple[Vec, ...]:
    """Game-space image of a verified equilibrium point of the family's game
    at ``alphas``: one vector per beta."""
    if not family.minus_a:
        raise RankGamesError("homeomorphism maps are defined on families with c = -a")
    alphas = tuple(vector(al) for al in alphas)
    if not verify_equilibrium(family.game_at(*alphas), profile):
        raise NotEquilibrium("profile is not an equilibrium of the alpha game")
    return tuple(
        (vdot(al, profile.x) + vdot(beta, profile.y), *(a - al[0] for a in al[1:]))
        for al, beta in zip(alphas, family.betas)
    )


def homeo_inverse(family: GameFamily, alpha_prime: Sequence[Fraction]) -> tuple[Vec, MixedProfile]:
    """Unique equilibrium point mapping to the given game-space vector.

    The point is where the path coordinate g = beta . y + lambda, strictly
    increasing along the path, equals the first component g*. As y lies in
    the simplex, its lambda lies in [g* - max beta, g* - min beta], and
    section probes (``solve_lp_delta``, each from the last optimum) bisect
    that bracket. On a probe's path edge g and lambda are affine in the edge
    parameter, g with the rate ``g_rate`` from its value at the base: the
    point is solved there when the edge spans g*, and else the bracket end
    on g*'s side moves to the edge's end nearest g*. So a g* on an edge of
    constant lambda (moving in P) is probed where the two ends meet. Each
    unanswered probe thus moves the bracket past its edge, and a probe that
    lands on an edge probed before raises. The row weights solve the
    remaining affine system, and the answer is verified exactly.
    """
    if not family.minus_a:
        raise RankGamesError("homeomorphism maps are defined on families with c = -a")
    alpha_prime = vector(alpha_prime)
    target, m = alpha_prime[0], family.m
    lo, hi = target - max(family.beta), target - min(family.beta)
    start, budget, probed = None, step_budget(m, family.n), set()
    for _ in range(budget):  # each probe lands on a path edge not seen before
        mid = (lo + hi) / 2
        sec = solve_lp_delta(family, mid, start)
        edge, start = sec.edge, sec.v
        if edge.key() in probed:
            raise RankGamesError(f"probe at lambda = {mid} repeats a path edge: "
                                 "the bracket did not shrink")
        probed.add(edge.key())
        g0 = g_at(family, *edge.point_at(0))  # g is affine along the edge
        dg = Fraction(*g_rate(family, edge.kind, edge.moving))  # nonzero: oriented_edge checks it
        t_star = (target - g0) / dg
        t_max = edge.moving.t_max
        t_end = max(t_star, 0) if t_max is None else min(max(t_star, 0), t_max)
        v_coords, w_coords = edge.point_at(t_end)
        if t_end == t_star:
            break
        if target < g0 + dg * t_end:
            hi = w_coords[m]
        else:
            lo = w_coords[m]
    else:
        raise StepBudgetExceeded(f"no path point at g = {target} within {budget} probes")

    x = w_coords[:m]
    y = v_coords[: family.n]
    a1 = target - vdot(family.beta, y) - sum(
        (x[i] * alpha_prime[i] for i in range(1, m)), Fraction(0)
    )
    alpha = (a1,) + tuple(alpha_prime[i] + a1 for i in range(1, m))
    profile = MixedProfile(x, y)
    if not verify_equilibrium(family.game_at(alpha), profile):
        raise NotEquilibrium("inverse map produced a non-equilibrium (degenerate input?)")
    return alpha, profile


def fixed_point_record(
    family: GameFamily, gammas: Sequence[Sequence[Fraction]], section: Section
) -> EquilibriumRecord:
    """The section at an exact fixed point as a verified equilibrium record."""
    profile = MixedProfile(section.w_coords[: family.m], section.v_coords[: family.n])
    pays = verify_equilibrium(family.game_at(*gammas), profile)
    if not pays:
        raise NotEquilibrium("exact fixed point failed equilibrium verification")
    return EquilibriumRecord(profile, *pays, profile.support(), None, "fixed-point")


def fixed_point_search(
    family: GameFamily, gammas: Sequence[Sequence[Fraction]]
) -> tuple[Vec, EquilibriumRecord]:
    """Exact fixed point of the box map, by a breadth-first walk over its cells.

    A cell is a vertex v of P with exactly n tight rows, over the part of the
    box where v is the section optimum: there no edge of P at v raises the
    section objective, and the map is affine. Each vertex's ``section_rows``
    are read once (the start's are its section's) and its ``cell_rows`` are
    built once from them; the piece's fixed point (``piece_fixed_point``, one
    k x k solve) and the facet LPs both read that cell. A cell's fixed point
    is accepted when it lies in the box and in the cell, where the section
    walk finds no improving label, and ``fixed_point_record`` verifies the
    cell's section there. The walk starts at the section optimum of the box
    centre and pivots across every edge whose zero-rate facet meets box and
    cell (a k-variable feasibility LP on the cell's rows). Returns the point
    with its verified record; raises ``DegeneratePolytope`` when no cell
    reached holds one.
    """
    gammas = tuple(vector(g) for g in gammas)
    lows, highs = box_bounds(gammas)
    start = solve_lp_k(family, tuple((lo + hi) / 2 for lo, hi in zip(lows, highs)))
    p, k = family.p, family.k
    unit = Matrix.identity(k)
    box = [(unit.row(l), highs[l]) for l in range(k)]
    box += [(vscale(-1, unit.row(l)), -lows[l]) for l in range(k)]
    seen, queue = {start.v.basis}, deque([start.v])
    while queue:
        v = queue.popleft()
        rows = start.rows if v is start.v else section_rows(p, v, family.int_betas)
        unit, cell = cell_rows(family, rows)  # h . a - e is r's edge's objective rate, times unit
        a = piece_fixed_point(family, gammas, unit, cell)
        if a is not None and all(lo <= ai <= hi for ai, lo, hi in zip(a, lows, highs)):
            objective = integer_objective(family.int_betas, a)
            if not improving_labels(rows, objective.weights):
                section = lifted_section(p, family.qp, v, rows, a, objective)
                return a, fixed_point_record(family, gammas, section)
        for r, facet in cell.items():
            rest = [he for s, he in cell.items() if s != r] + box
            lp = LinearProgram.build(
                [0] * k, [facet[0]] + [h for h, _ in rest],
                [EQ] + [LE] * len(rest), [facet[1]] + [e for _, e in rest],
            )
            if solve_lp(lp).status == "infeasible":
                continue
            far = nondegenerate_far_end(p, v, r)  # a degenerate neighbour has no cell
            if far is not None and far.basis not in seen:
                seen.add(far.basis)
                queue.append(far)
    raise DegeneratePolytope("no cell of the box map holds a verified fixed point")


HALF_SPACE = "half_space"
SLAB = "slab"
TWO_HYPERPLANE_UNION = "two_hyperplane_union"


@dataclass(frozen=True)
class RegionHyperplane:
    """Game-space hyperplane sum_i coeffs_i * alpha_i = offset."""

    coeffs: Vec
    offset: Rat


@dataclass(frozen=True)
class Region:
    vertex: Vertex  # row-polytope vertex owning the region
    hyperplanes: tuple[RegionHyperplane, ...]
    kind: str
    support_size: int


@dataclass(frozen=True)
class RegionGraph:
    regions: tuple[Region, ...]
    kind: str  # inherited from the trace: "path" | "cycle"


def region_graph(family: GameFamily, trace: ComponentTrace) -> RegionGraph:
    """Game-space regions of the traced component, in traversal order.

    Each row-polytope vertex owns a region bounded by the hyperplanes of the
    bounding lifted vertices of its edge: one hyperplane on the two rays, two
    parallel ones for singleton supports, two general ones otherwise.
    """
    m = family.m
    regions: list[Region] = []
    for edge in trace.edges:
        if edge.kind != V_FIXED:
            continue
        v = edge.fixed
        bounding = [edge.moving.base]
        if edge.moving.far_end is not None:
            bounding.append(edge.moving.far_end)
        planes = tuple(
            RegionHyperplane(w.coords[:m], w.coords[m])
            for w in sorted(bounding, key=lambda w: w.coords[m])
        )
        support_size = sum(1 for lab in v.labels if lab <= m)
        if len(planes) == 1:
            kind = HALF_SPACE
        elif support_size == 1:
            kind = SLAB
        else:
            kind = TWO_HYPERPLANE_UNION
        regions.append(Region(v, planes, kind, support_size))
    return RegionGraph(tuple(regions), trace.kind)
