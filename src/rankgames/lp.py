"""Exact simplex solver for small dense LPs over free rational variables.

Constraints are rows ``a . z <= b`` or ``a . z = b`` over unrestricted
variables; nonnegativity must be stated as explicit rows. The solver converts
to standard form (variable splitting, slacks, artificials), runs a two-phase
simplex with Bland's smallest-index rule, and reports an exact basic optimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import MalformedLP, PivotLimitExceeded
from .linalg import Rat, Vec, frac, vdot, vector

LE = "<="
EQ = "="


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . z`` subject to rows ``a_i . z (<=|=) b_i``."""

    objective: Vec
    rows: tuple[Vec, ...]
    relations: tuple[str, ...]
    rhs: Vec

    @classmethod
    def build(cls, objective, rows, relations, rhs) -> "LinearProgram":
        return cls(
            vector(objective),
            tuple(vector(r) for r in rows),
            tuple(relations),
            vector(rhs),
        )

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    def validate(self) -> None:
        if len(self.rows) != len(self.relations) or len(self.rows) != len(self.rhs):
            raise MalformedLP("row/relation/rhs counts differ")
        if any(len(r) != self.n_vars for r in self.rows):
            raise MalformedLP("row length differs from variable count")
        if any(rel not in (LE, EQ) for rel in self.relations):
            raise MalformedLP("relations must be '<=' or '='")


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: Optional[Vec]
    value: Optional[Rat]
    pivots: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Tableau:
    """Dense simplex tableau in canonical form with Bland's rule."""

    def __init__(self, rows: list[list[Fraction]], basis: list[int], max_pivots: Optional[int]):
        self.rows = rows
        self.basis = basis
        self.max_pivots = max_pivots
        self.pivots = 0

    def price_out(self, cost: list[Fraction]) -> list[Fraction]:
        costrow = list(cost) + [Fraction(0)]
        for i, b in enumerate(self.basis):
            if costrow[b] != 0:
                f = costrow[b]
                costrow = [x - f * y for x, y in zip(costrow, self.rows[i])]
        return costrow

    def run(self, costrow: list[Fraction], allowed: Sequence[bool]) -> str:
        while True:
            enter = next(
                (j for j in range(len(allowed)) if allowed[j] and costrow[j] > 0), None
            )
            if enter is None:
                return "optimal"
            best_t = None
            leave = None
            for i, row in enumerate(self.rows):
                coef = row[enter]
                if coef > 0:
                    t = row[-1] / coef
                    if best_t is None or t < best_t or (t == best_t and self.basis[i] < self.basis[leave]):
                        best_t, leave = t, i
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter, costrow)

    def pivot(self, r: int, c: int, costrow: list[Fraction]) -> None:
        self.pivots += 1
        if self.max_pivots is not None and self.pivots > self.max_pivots:
            raise PivotLimitExceeded(f"more than {self.max_pivots} pivots")
        prow = self.rows[r]
        pv = prow[c]
        prow = [x / pv for x in prow]
        self.rows[r] = prow
        for i, row in enumerate(self.rows):
            if i != r and row[c] != 0:
                f = row[c]
                self.rows[i] = [x - f * y for x, y in zip(row, prow)]
        if costrow[c] != 0:
            f = costrow[c]
            costrow[:] = [x - f * y for x, y in zip(costrow, prow)]
        self.basis[r] = c


def solve_lp(lp: LinearProgram, max_pivots: Optional[int] = None) -> LPSolution:
    """Exact optimal basic solution of ``lp``, deterministic across runs."""
    lp.validate()
    n = lp.n_vars
    m = len(lp.rows)
    n_slack = sum(1 for rel in lp.relations if rel == LE)
    width = 2 * n + n_slack + m  # p, q, slacks, artificials

    rows: list[list[Fraction]] = []
    slack_at = 0
    for i in range(m):
        row = [Fraction(0)] * (width + 1)
        for j, a in enumerate(lp.rows[i]):
            row[j] = a
            row[n + j] = -a
        if lp.relations[i] == LE:
            row[2 * n + slack_at] = Fraction(1)
            slack_at += 1
        row[-1] = frac(lp.rhs[i])
        if row[-1] < 0:
            row = [-x for x in row]
        row[2 * n + n_slack + i] = Fraction(1)
        rows.append(row)

    tab = _Tableau(rows, [2 * n + n_slack + i for i in range(m)], max_pivots)
    art_start = 2 * n + n_slack

    phase1_cost = [Fraction(0)] * width
    for j in range(art_start, width):
        phase1_cost[j] = Fraction(-1)
    costrow = tab.price_out(phase1_cost)
    tab.run(costrow, [True] * width)
    if -costrow[-1] != 0:
        return LPSolution("infeasible", None, None, tab.pivots)

    # Drive leftover artificials out of the basis; drop redundant rows.
    for i in reversed(range(len(tab.basis))):
        if tab.basis[i] >= art_start:
            col = next((j for j in range(art_start) if tab.rows[i][j] != 0), None)
            if col is None:
                del tab.rows[i], tab.basis[i]
            else:
                tab.pivot(i, col, costrow)

    allowed = [j < art_start for j in range(width)]
    phase2_cost = [Fraction(0)] * width
    for j in range(n):
        phase2_cost[j] = frac(lp.objective[j])
        phase2_cost[n + j] = -frac(lp.objective[j])
    costrow = tab.price_out(phase2_cost)
    status = tab.run(costrow, allowed)
    if status == "unbounded":
        return LPSolution("unbounded", None, None, tab.pivots)

    point = [Fraction(0)] * (2 * n)
    for i, b in enumerate(tab.basis):
        if b < 2 * n:
            point[b] = tab.rows[i][-1]
    z = tuple(point[j] - point[n + j] for j in range(n))
    value = vdot(lp.objective, z)
    return LPSolution("optimal", z, value, tab.pivots)

