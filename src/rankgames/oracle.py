"""Independent ground truth at desk scale.

Brute-force support enumeration, exhaustive fully-labeled vertex-pair search,
and a minimax LP solver. Guards are hard errors: a silently truncated oracle
is worse than none.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import NotEquilibrium, Singular, TooLarge
from .games import (
    BimatrixGame,
    EquilibriumRecord,
    MixedProfile,
    make_record,
    verify_equilibrium,
)
from .linalg import Matrix, Vec, solve_linear_system
from .lp import EQ, LE, LinearProgram, solve_lp
from .polytope import GameFamily, Vertex, enumerate_vertices


@dataclass(frozen=True)
class OracleResult:
    equilibria: tuple[EquilibriumRecord, ...]
    method: str


def _indifference_solve(payoff: Matrix, own: tuple[int, ...], opp: tuple[int, ...]):
    """Mix over ``own`` making every strategy in ``opp`` equally good.

    Solves sum_{i in own} p_i * payoff[i][j] = value for j in opp together
    with sum p_i = 1; returns (weights, value) or None when singular or not
    strictly interior.
    """
    size = len(own)
    rows = [[payoff[i, j] for i in own] + [Fraction(-1)] for j in opp]
    rows.append([Fraction(1)] * size + [Fraction(0)])
    rhs = [Fraction(0)] * size + [Fraction(1)]
    try:
        sol = solve_linear_system(Matrix(rows), rhs)
    except Singular:
        return None
    weights = sol[:size]
    if any(wt <= 0 for wt in weights):
        return None
    return weights, sol[size]


def support_enumeration(game: BimatrixGame, guard: int = 6) -> OracleResult:
    """All equilibria of a nondegenerate game by equal-size support search."""
    m, n = game.m, game.n
    if m > guard or n > guard:
        raise TooLarge(f"{m}x{n} exceeds the support-enumeration guard {guard}")
    records: list[EquilibriumRecord] = []
    seen: set[tuple[Vec, Vec]] = set()
    for size in range(1, min(m, n) + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                x_part = _indifference_solve(game.b, rows, cols)
                if x_part is None:
                    continue
                y_part = _indifference_solve(game.a.transpose(), cols, rows)
                if y_part is None:
                    continue
                x = [Fraction(0)] * m
                for i, wt in zip(rows, x_part[0]):
                    x[i] = wt
                y = [Fraction(0)] * n
                for j, wt in zip(cols, y_part[0]):
                    y[j] = wt
                profile = MixedProfile(tuple(x), tuple(y))
                if not verify_equilibrium(game, profile):
                    continue
                key = (profile.x, profile.y)
                if key not in seen:
                    seen.add(key)
                    records.append(make_record(game, profile, "support-enumeration"))
    records.sort(key=lambda r: (r.profile.x, r.profile.y))
    return OracleResult(tuple(records), "support-enumeration")


def fully_labeled_pairs(family: GameFamily, guard: int = 4) -> list[tuple[Vertex, Vertex]]:
    """Every fully-labeled vertex pair by exhaustive basis enumeration."""
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


def zero_sum_solve(a: Matrix) -> EquilibriumRecord:
    """Exact minimax strategies and value of the game (a, -a)."""
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
    return make_record(game, profile, "zero-sum-lp")
