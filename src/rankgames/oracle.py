"""Independent ground truth at desk scale.

Brute-force support enumeration. Its guard is a hard error: a silently
truncated oracle is worse than none.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import Singular, TooLarge
from .games import (
    BimatrixGame,
    EquilibriumRecord,
    MixedProfile,
    verify_equilibrium,
)
from .linalg import Matrix, Vec, solve_linear_system


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
    a_t = game.a.transpose()
    for size in range(1, min(m, n) + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                x_part = _indifference_solve(game.b, rows, cols)
                if x_part is None:
                    continue
                y_part = _indifference_solve(a_t, cols, rows)
                if y_part is None:
                    continue
                x = [Fraction(0)] * m
                for i, wt in zip(rows, x_part[0]):
                    x[i] = wt
                y = [Fraction(0)] * n
                for j, wt in zip(cols, y_part[0]):
                    y[j] = wt
                profile = MixedProfile(tuple(x), tuple(y))
                pays = verify_equilibrium(game, profile)
                if not pays:
                    continue
                key = (profile.x, profile.y)
                if key not in seen:
                    seen.add(key)
                    records.append(EquilibriumRecord(profile, *pays, profile.support(), None,
                                                     "support-enumeration"))
    records.sort(key=lambda r: (r.profile.x, r.profile.y))
    return OracleResult(tuple(records), "support-enumeration")

