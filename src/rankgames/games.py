"""Bimatrix games, payoff-sum factorizations, and exact equilibrium checks."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, NotConstantBeta, RankTooHigh
from .linalg import Matrix, Rat, Vec, integers, vector


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
    answer checks (``verify_equilibrium``, ``payoffs``, ``support``) read
    them, so a profile is integerized once. Neither takes part in equality,
    hashing or repr.
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


def _check_shape(game: BimatrixGame, p: MixedProfile) -> None:
    if len(p.x) != game.m or len(p.y) != game.n:
        raise DimensionMismatch("profile does not match game shape")


def payoffs(game: BimatrixGame, p: MixedProfile) -> tuple[Rat, Rat]:
    """``x . A y`` and ``x . B y``: integer dots on the matrices' integer
    rows, with the profile's x and y over their least common denominators
    (``MixedProfile.int_x``, ``int_y``), and one ``Fraction`` per payoff."""
    _check_shape(game, p)
    (x, qx), (y, qy) = p.int_x, p.int_y
    rows = [(i, xi) for i, xi in enumerate(x) if xi]
    return tuple(
        Fraction(sum(xi * sum(map(mul, mat.int_rows[i], y)) for i, xi in rows),
                 qx * qy * mat.denom)
        for mat in (game.a, game.b)
    )


def make_record(
    game: BimatrixGame, p: MixedProfile, provenance: str, index: Optional[int] = None
) -> EquilibriumRecord:
    p1, p2 = payoffs(game, p)
    return EquilibriumRecord(p, p1, p2, p.support(), index, provenance)


def verify_equilibrium(game: BimatrixGame, p: MixedProfile) -> bool:
    """Exact best-response check: every played pure strategy attains the max.

    Every row and column payoff is an integer dot on the matrices' integer
    rows, with the profile's x and y over their least common denominators
    (``MixedProfile.int_x``, ``int_y``): one positive scale per player, which
    changes no comparison.
    """
    _check_shape(game, p)
    (x, _), (y, _) = p.int_x, p.int_y
    row_payoffs = [sum(map(mul, row, y)) for row in game.a.int_rows]
    best1 = max(row_payoffs)
    if any(xi > 0 and v != best1 for xi, v in zip(x, row_payoffs)):
        return False
    col_payoffs = [sum(map(mul, col, x)) for col in zip(*game.b.int_rows)]
    best2 = max(col_payoffs)
    return not any(yj > 0 and v != best2 for yj, v in zip(y, col_payoffs))


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
    """Factorization b = -a + gamma . beta^T of a rank-1 payoff sum."""

    a: Matrix
    gamma: Vec
    beta: Vec

    def game(self) -> BimatrixGame:
        """The game (a, -a + gamma . beta^T), built in one pass over a's
        integer rows and the integers of gamma and beta."""
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


def _first_nonzero(rows: Sequence[Sequence[int]]) -> Optional[tuple[int, int]]:
    """(i, j) of the first nonzero entry, row-major; None when every entry is zero."""
    return next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x), None)


def _peel_rank1(m: Matrix) -> tuple[Vec, Vec, Matrix]:
    """Split off one rank-1 term at the first nonzero entry (row-major)."""
    rows = m.int_rows
    pivot = _first_nonzero(rows)
    if pivot is None:
        raise ValueError("zero matrix has no rank-1 term")
    i0, j0 = pivot
    beta = tuple(Fraction(x, m.denom) for x in rows[i0])
    gamma = tuple(Fraction(row[j0], rows[i0][j0]) for row in rows)
    return gamma, beta, m - Matrix.outer(gamma, beta)


def decompose_rank1(
    game: BimatrixGame, beta_default: Optional[Sequence] = None
) -> Rank1Decomposition:
    """Exact rank-1 factorization of a + b; raises RankTooHigh above rank 1.

    For zero-sum games (a + b = 0) gamma is zero and beta falls back to the
    caller-supplied vector or the generic default (1, ..., n).
    """
    s = game.payoff_sum()
    rows = s.int_rows
    pivot = _first_nonzero(rows)
    if pivot is None:
        beta = vector(beta_default) if beta_default is not None else default_beta(game.n)
        return Rank1Decomposition(game.a, vector([0] * game.m), beta)
    # Rank 1 iff every 2x2 minor through the first nonzero entry vanishes:
    # s[i][j] * s[i0][j0] == s[i][j0] * s[i0][j]; the first that does not
    # decides, before any term is peeled off. The integer rows are s times
    # its denominator, which scales every minor alike.
    i0, j0 = pivot
    p, top = rows[i0][j0], rows[i0]
    for row in rows:
        if any(x * p != row[j0] * b for x, b in zip(row, top)):
            raise RankTooHigh("payoff sum has rank >= 2")
    beta = tuple(Fraction(b, s.denom) for b in top)
    return Rank1Decomposition(game.a, tuple(Fraction(row[j0], p) for row in rows), beta)


def decompose_rank_k(game: BimatrixGame) -> RankKDecomposition:
    """Greedy rank-1 peeling of a + b; yields k = rank(a + b) staircase terms."""
    gammas: list[Vec] = []
    betas: list[Vec] = []
    residue = game.payoff_sum()
    while not residue.is_zero():
        g, b, residue = _peel_rank1(residue)
        gammas.append(g)
        betas.append(b)
    return RankKDecomposition(game.a, tuple(gammas), tuple(betas))


def integer_scale(d: Rank1Decomposition) -> int:
    """The lcm of a's denominator and every denominator of gamma and beta:
    the c for which a*c^2, gamma*c and beta*c are integers, as in the
    integerized copy that ``algorithms.bin_search`` reads its bound off."""
    return lcm(d.a.denom, *(x.denominator for x in d.gamma), *(x.denominator for x in d.beta))


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

