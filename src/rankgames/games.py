"""Bimatrix games, payoff-sum factorizations, and exact equilibrium checks.

A factorization reads a + b's integer rows: a rank-1 decomposition is
checked on the integer 2x2 minors before any ``Fraction`` is built, and it
keeps the game it factorized, so a solver verifies on the caller's game.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionMismatch, NotConstantBeta, RankTooHigh
from .linalg import IntRows, Matrix, Rat, Vec, integers, lowest_terms, vector


@dataclass(frozen=True)
class BimatrixGame:
    """Two payoff matrices of equal shape; rows belong to player 1."""

    a: Matrix
    b: Matrix

    def __post_init__(self):
        if (self.a.rows, self.a.cols) != (self.b.rows, self.b.cols):
            raise DimensionMismatch("payoff matrices differ in shape")
        if self.a.rows < 1 or self.a.cols < 1:
            raise DimensionMismatch("empty game")

    @classmethod
    def from_lists(cls, a, b) -> "BimatrixGame":
        return cls(Matrix(a), Matrix(b))

    @property
    def m(self) -> int:
        return self.a.rows

    @property
    def n(self) -> int:
        return self.a.cols

    def payoff_sum(self) -> Matrix:
        return self.a + self.b

    def scale(self, s) -> "BimatrixGame":
        return BimatrixGame(self.a.scale(s), self.b.scale(s))


@dataclass(frozen=True)
class MixedProfile:
    """Exact mixed strategies of both players (simplex membership enforced).

    ``int_x`` and ``int_y`` hold x and y as integers over their least common
    denominators, ``(numerators, q)``, which the simplex check computes; the
    answer checks (``verify_equilibrium``, which also takes the payoffs, and
    ``support``) read them, so a profile is integerized once. Neither takes
    part in equality, hashing or repr.
    """

    x: Vec
    y: Vec
    int_x: tuple[tuple[int, ...], int] = field(init=False, compare=False, repr=False)
    int_y: tuple[tuple[int, ...], int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x", vector(self.x))
        object.__setattr__(self, "y", vector(self.y))
        for name, side in (("int_x", self.x), ("int_y", self.y)):
            numerators, q = integers(side)  # the side over its least common denominator
            if min(numerators, default=0) < 0 or sum(numerators) != q:
                raise DimensionMismatch(f"not a probability vector: {side}")
            object.__setattr__(self, name, (tuple(numerators), q))

    def support(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """1-based supports (I, J)."""
        return tuple(tuple(i + 1 for i, p in enumerate(side[0]) if p > 0)
                     for side in (self.int_x, self.int_y))


@dataclass(frozen=True)
class EquilibriumRecord:
    profile: MixedProfile
    payoff1: Rat
    payoff2: Rat
    support: tuple[tuple[int, ...], tuple[int, ...]]
    index: Optional[int]  # +1, -1, or None when unknown
    provenance: str

    def key(self) -> tuple[Vec, Vec]:
        return (self.profile.x, self.profile.y)


def verify_equilibrium(game: BimatrixGame, p: MixedProfile) -> Optional[tuple[Rat, Rat]]:
    """Exact best-response check: every played pure strategy attains the max.

    Every row and column payoff is an integer dot on the matrices' integer
    rows, with the profile's x and y over their least common denominators
    (``MixedProfile.int_x``, ``int_y``): one positive scale per player, which
    changes no comparison. At an equilibrium the two maxima, over those
    scales, are the payoffs (x . A y, x . B y): it returns them, else None.
    """
    if len(p.x) != game.m or len(p.y) != game.n:
        raise DimensionMismatch("profile does not match game shape")
    (x, qx), (y, qy) = p.int_x, p.int_y
    row_payoffs = [sum(map(mul, row, y)) for row in game.a.int_rows]
    best1 = max(row_payoffs)
    if any(xi > 0 and v != best1 for xi, v in zip(x, row_payoffs)):
        return None
    col_payoffs = [sum(map(mul, col, x)) for col in zip(*game.b.int_rows)]
    best2 = max(col_payoffs)
    if any(yj > 0 and v != best2 for yj, v in zip(y, col_payoffs)):
        return None
    return Fraction(best1, qy * game.a.denom), Fraction(best2, qx * game.b.denom)


def default_beta(n: int) -> Vec:
    """Deterministic nonconstant embedding vector (1, 2, ..., n)."""
    return vector(range(1, n + 1))


def family_game(a: Matrix, c: Matrix, alphas: Iterable[Sequence],
                betas: Iterable[Sequence]) -> BimatrixGame:
    """The game (a, c + sum_l alpha_l . beta_l^T) of a family at row weights alpha."""
    b = c
    for alpha, beta in zip(alphas, betas):
        b = b + Matrix.outer(alpha, beta)
    return BimatrixGame(a, b)


@dataclass(frozen=True)
class Rank1Decomposition:
    """Factorization b = -a + gamma . beta^T of a rank-1 payoff sum.

    ``source`` is the game that ``decompose_rank1`` factorized, kept so that
    ``game()`` returns it instead of rebuilding b; a decomposition built by
    hand has none. It takes no part in equality, hashing or repr.
    """

    a: Matrix
    gamma: Vec
    beta: Vec
    source: Optional[BimatrixGame] = field(default=None, init=False, compare=False, repr=False)

    def game(self) -> BimatrixGame:
        """The game (a, -a + gamma . beta^T): the factorized game itself when
        there is one (``source``), else built in one pass over a's integer
        rows and the integers of gamma and beta."""
        if self.source is not None:
            return self.source
        (gs, gq), (bs, bq) = integers(self.gamma), integers(self.beta)
        rows, qa = self.a.int_rows, self.a.denom
        q = lcm(qa, gq * bq)
        fa, fg = q // qa, q // (gq * bq)
        gs = [g * fg for g in gs]
        b = [[g * y - fa * x for x, y in zip(row, bs)] for row, g in zip(rows, gs)]
        return BimatrixGame(self.a, Matrix._of_ints(b, q))


@dataclass(frozen=True)
class RankKDecomposition:
    """Factorization b = -a + sum_l gamma^l . beta^l^T with independent betas."""

    a: Matrix
    gammas: tuple[Vec, ...]
    betas: tuple[Vec, ...]

    @property
    def k(self) -> int:
        return len(self.betas)

    def game(self) -> BimatrixGame:
        return family_game(self.a, -self.a, self.gammas, self.betas)


def _pivot(rows: IntRows) -> Optional[tuple[int, int]]:
    """(i0, j0) of the first nonzero entry of integer rows, row-major; None
    when every entry is zero."""
    return next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x), None)


def _term(rows: IntRows, denom: int, i0: int, j0: int) -> tuple[Vec, Vec]:
    """The rank-1 term of ``rows / denom`` through its nonzero entry p =
    rows[i0][j0]: gamma, column j0 over p, and beta, row i0 over ``denom``."""
    p = rows[i0][j0]
    return tuple(Fraction(row[j0], p) for row in rows), tuple(Fraction(b, denom) for b in rows[i0])


def _minors(rows: IntRows, top: Sequence[int], j0: int) -> Iterator[list[int]]:
    """The 2x2 minors through p = top[j0] != 0, one row at a time, as they
    are read: rows[i][j] * p - rows[i][j0] * top[j]. With ``top`` a row of
    ``rows`` or its negative, they are p times the rows minus gamma . beta^T
    of that row's ``_term``; they are all zero iff ``rows`` has rank 1."""
    p = top[j0]
    return ([x * p - row[j0] * b for x, b in zip(row, top)] for row in rows)


def _peel(rows: IntRows, denom: int) -> Optional[tuple[Vec, Vec, tuple[IntRows, int]]]:
    """One rank-1 term of the matrix ``rows / denom`` (``denom > 0``), split off
    at its first nonzero entry p = rows[i0][j0] (``_pivot``): gamma and beta
    (``_term``), and the rest, the matrix minus gamma . beta^T, as integer
    rows over a positive denominator in lowest terms: the ``_minors``
    through p over p * denom, each negated with p when p < 0. None when
    every entry is zero."""
    pivot = _pivot(rows)
    if pivot is None:
        return None
    i0, j0 = pivot
    p = rows[i0][j0]
    s = 1 if p > 0 else -1
    top = [s * b for b in rows[i0]]
    return (*_term(rows, denom, i0, j0), lowest_terms(_minors(rows, top, j0), s * p * denom))


def decompose_rank1(
    game: BimatrixGame, beta_default: Optional[Sequence] = None
) -> Rank1Decomposition:
    """Exact rank-1 factorization of a + b; raises RankTooHigh above rank 1.

    a + b has rank 1 iff its 2x2 minors through its first nonzero entry
    (``_minors``) are zero; they are read row by row, in integers, and the
    first nonzero one raises before any ``Fraction`` is built. Then gamma and
    beta are that entry's ``_term``. For zero-sum games (a + b = 0) gamma is
    zero and beta falls back to the caller-supplied vector or the generic
    default (1, ..., n). The decomposition keeps ``game`` as its ``source``.
    """
    s = game.payoff_sum()
    rows = s.int_rows
    pivot = _pivot(rows)
    if pivot is None:
        beta = vector(beta_default) if beta_default is not None else default_beta(game.n)
        d = Rank1Decomposition(game.a, vector([0] * game.m), beta)
    else:
        i0, j0 = pivot
        if any(map(any, _minors(rows, rows[i0], j0))):
            raise RankTooHigh("payoff sum has rank >= 2")
        d = Rank1Decomposition(game.a, *_term(rows, s.denom, i0, j0))
    object.__setattr__(d, "source", game)
    return d


def decompose_rank_k(game: BimatrixGame) -> RankKDecomposition:
    """Greedy rank-1 peeling of a + b: ``_peel`` its rest until it is zero,
    which yields k = rank(a + b) staircase terms."""
    gammas: list[Vec] = []
    betas: list[Vec] = []
    s = game.payoff_sum()
    rest = s.int_rows, s.denom
    while (peel := _peel(*rest)) is not None:
        gamma, beta, rest = peel
        gammas.append(gamma)
        betas.append(beta)
    return RankKDecomposition(game.a, tuple(gammas), tuple(betas))


def reduce_constant_beta(d: Rank1Decomposition) -> Rank1Decomposition:
    """Collapse a constant-beta rank-1 game to the zero-sum game (a, -a), as
    a decomposition with zero gamma and the default beta.

    With beta = t*(1,...,1) the column player's payoffs differ from -a by the
    per-row constants t*gamma_i, which never change a column argmax, so the
    equilibrium set is preserved exactly.
    """
    if any(b != d.beta[0] for b in d.beta):
        raise NotConstantBeta(f"beta {d.beta} is not constant")
    return Rank1Decomposition(d.a, vector([0] * d.a.rows), default_beta(d.a.cols))

