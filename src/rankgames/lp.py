"""Exact simplex solver for small dense LPs over free rational variables.

Constraints are rows ``a . z <= b`` or ``a . z = b`` over unrestricted
variables; nonnegativity must be stated as explicit rows. The solver converts
to standard form (variable splitting, slacks, artificials), runs a two-phase
simplex with Bland's smallest-index rule, and reports an exact basic optimum.
It runs on ``linalg``'s exact kernel: the tableau is fraction-free, integer
rows over one common denominator (``linalg.integers``), each pivot one
exact-division update (``linalg.integer_pivot``), as in integer pivoting for
equilibrium enumeration (Avis, Rosenberg, Savani & von Stengel, 2010), and the
leaving row comes from the package's one ratio test (``linalg.least_ratios``),
with Bland's tie-break on the least basic variable. Points and values are
still returned as ``Fraction``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import MalformedLP
from .linalg import Rat, Vec, integer_pivot, integers, least_ratios, vdot, vector

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
    """Dense simplex tableau in canonical form with Bland's rule, kept
    fraction-free: integer rows with one positive common denominator
    ``denom``, the true tableau being ``rows / denom``."""

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows
        self.basis = basis
        self.pivots = 0
        self.denom = 1

    def price_out(self, cost: list[int]) -> list[int]:
        """``denom * cost - sum_i cost[basis[i]] * rows[i]``: the reduced costs
        over the same denominator, zero on every basic column."""
        costrow = [self.denom * x for x in cost] + [0]
        for row, b in zip(self.rows, self.basis):
            f = cost[b]
            if f:
                costrow = [x - f * y for x, y in zip(costrow, row)]
        return costrow

    def run(self, costrow: list[int]) -> str:
        while True:
            enter = next((j for j, x in enumerate(costrow[:-1]) if x > 0), None)
            if enter is None:
                return "optimal"
            _, _, hits = least_ratios(
                (b, row[-1], row[enter]) for b, row in zip(self.basis, self.rows)
            )
            if not hits:
                return "unbounded"
            self.pivot(self.basis.index(min(hits)), enter, costrow)

    def pivot(self, r: int, c: int, costrow: list[int]) -> None:
        self.pivots += 1
        every = self.rows + [costrow]
        self.denom = integer_pivot(every, r, c, self.denom)
        if self.denom < 0:  # a negative pivot, met only in the artificial drive-out
            for row in every:
                row[:] = [-x for x in row]
            self.denom = -self.denom
        self.basis[r] = c


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Exact optimal basic solution of ``lp``, deterministic across runs.

    Every constraint row and the rhs are scaled by one common integer, and the
    objective by its own, so the tableau is integer; positive scaling of rows
    and columns leaves every Bland choice unchanged.
    """
    lp.validate()
    n = lp.n_vars
    m = len(lp.rows)
    n_slack = sum(1 for rel in lp.relations if rel == LE)
    art_start = 2 * n + n_slack
    width = art_start + m  # p, q, slacks, artificials
    scaled, _ = integers([x for row in (*lp.rows, lp.rhs) for x in row])
    rhs = scaled[m * n:]

    rows: list[list[int]] = []
    slack_at = 0
    for i in range(m):
        row = [0] * (width + 1)
        coefs = scaled[i * n: (i + 1) * n]
        row[:n] = coefs
        row[n: 2 * n] = [-a for a in coefs]
        if lp.relations[i] == LE:
            row[2 * n + slack_at] = 1
            slack_at += 1
        row[-1] = rhs[i]
        if row[-1] < 0:
            row = [-x for x in row]
        row[art_start + i] = 1
        rows.append(row)

    tab = _Tableau(rows, [art_start + i for i in range(m)])
    costrow = tab.price_out([0] * art_start + [-1] * m)
    tab.run(costrow)
    if costrow[-1] != 0:
        return LPSolution("infeasible", None, None, tab.pivots)

    # Drive leftover artificials out of the basis; drop redundant rows.
    for i in reversed(range(len(tab.basis))):
        if tab.basis[i] >= art_start:
            col = next((j for j in range(art_start) if tab.rows[i][j] != 0), None)
            if col is None:
                del tab.rows[i], tab.basis[i]
            else:
                tab.pivot(i, col, costrow)
    # No artificial is basic now, and phase 2 never lets one enter: drop their columns.
    for row in tab.rows:
        del row[art_start:width]

    objective, _ = integers(lp.objective)
    costrow = tab.price_out(objective + [-x for x in objective] + [0] * n_slack)
    if tab.run(costrow) == "unbounded":
        return LPSolution("unbounded", None, None, tab.pivots)

    point = [Fraction(0)] * (2 * n)
    for row, b in zip(tab.rows, tab.basis):
        if b < 2 * n:
            point[b] = Fraction(row[-1], tab.denom)
    z = tuple(point[j] - point[n + j] for j in range(n))
    value = vdot(lp.objective, z)
    return LPSolution("optimal", z, value, tab.pivots)
