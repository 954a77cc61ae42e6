"""Exact rational linear algebra: dense matrices, determinants, rank, solving.

All scalars are ``fractions.Fraction``; every operation is exact. Vectors are
plain tuples of Fractions. Matrices are immutable and row-major: each stores
integer rows over one least common denominator, and builds its ``Fraction``
rows only when an entry, row or column is read (see ``Matrix``).

The package's one exact integer kernel lives here, as in the integer pivoting
of lrsnash (Avis, Rosenberg, Savani & von Stengel, 2010): one integerizer
(``integers``), one ratio test (``least_ratios``), one fraction-free pivot
on a dictionary, which keeps only the nonbasic columns and returns the new
rows, sharing those it leaves unchanged (``exchange_pivot``), with its form
on a full tableau (``integer_pivot``), and one Gauss-Jordan
loop of exchanges (``gauss_jordan``), which solves, ranks and builds every
polytope tableau; a build takes the columns of its sign rows (-z_c <= 0) as
already pivoted and exchanges only the rest. Each division is exact and
every entry stays a subdeterminant of the integer input, so no intermediate
Fraction is normalised. Determinants use Bareiss elimination
(``integer_determinant``), which does about a third of Gauss-Jordan's row
work.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul, neg
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, NotSquare, Singular

Rat = Fraction
Vec = tuple[Fraction, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def vector(entries: Iterable) -> Vec:
    return tuple(frac(e) for e in entries)


def vdot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vadd(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"add of lengths {len(u)} and {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vscale(s, u: Sequence[Fraction]) -> Vec:
    s = frac(s)
    return tuple(s * a for a in u)


IntRows = tuple[tuple[int, ...], ...]


class Matrix:
    """Immutable dense matrix of Fractions with bounds-checked access.

    A matrix stores one form: integer rows (``int_rows``) over the least
    positive common denominator of its entries (``denom``), as a polytope
    tableau holds rows / denom. ``Matrix(data)`` takes any values that
    ``Fraction`` accepts, and keeps plain ``int`` entries as they are, so an
    integer matrix builds no ``Fraction``; whole-matrix arithmetic works on
    the integer rows alone. The ``Fraction`` grid is a view, built from the
    integer rows when an entry, row or column is first read, and kept. The
    integer form is the same however a matrix was made, so equal matrices
    compare and hash equal.
    """

    __slots__ = ("rows", "cols", "_grid", "_ints")

    def __init__(self, data: Iterable[Iterable]):
        rows = tuple(map(tuple, data))
        q = 1
        if not all(type(x) is int for row in rows for x in row):
            values = [[x if type(x) is int else frac(x) for x in row] for row in rows]
            q = lcm(*(x.denominator for row in values for x in row))
            rows = tuple(tuple(x.numerator * (q // x.denominator) for x in row)
                         for row in values)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged rows")
        self._store(rows, q)

    @classmethod
    def _of_ints(cls, rows: Iterable[Sequence[int]], denom: int) -> "Matrix":
        """The matrix ``rows / denom`` (``denom > 0``), in lowest terms."""
        m = object.__new__(cls)
        m._store(*lowest_terms(rows, denom))
        return m

    def _store(self, rows: IntRows, denom: int) -> None:
        """Set the integer form; the grid is left to be built on first read."""
        object.__setattr__(self, "_grid", None)
        object.__setattr__(self, "_ints", (rows, denom))
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # Rebuild from the integer form: the default protocol would set slots via setattr.
        return (Matrix._of_ints, self._ints)

    @property
    def _data(self) -> tuple[Vec, ...]:
        """The ``Fraction`` grid, built from the integer rows on first read."""
        grid = self._grid
        if grid is None:
            rows, q = self._ints
            if q == 1:
                grid = tuple(tuple(map(Fraction, row)) for row in rows)
            else:
                grid = tuple(tuple(Fraction(x, q) for x in row) for row in rows)
            object.__setattr__(self, "_grid", grid)
        return grid

    @property
    def int_rows(self) -> IntRows:
        """The entries as integer numerators over ``denom``."""
        return self._ints[0]

    @property
    def denom(self) -> int:
        """The least positive common denominator of the entries."""
        return self._ints[1]

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def outer(cls, u: Sequence, v: Sequence) -> "Matrix":
        (nu, qu), (nv, qv) = integers(vector(u)), integers(vector(v))
        return cls._of_ints([[a * b for b in nv] for a in nu], qu * qv)

    def _check(self, i: int, j: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) out of bounds for {self.rows}x{self.cols}")

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        self._check(i, j)
        return self._data[i][j]

    def row(self, i: int) -> Vec:
        self._check(i, 0)
        return self._data[i]

    def col(self, j: int) -> Vec:
        self._check(0, j)
        return tuple(r[j] for r in self._data)

    def transpose(self) -> "Matrix":
        rows, q = self._ints
        return Matrix._of_ints(zip(*rows), q)

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """``self + sign * other`` over the lcm of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"matrix {'add' if sign > 0 else 'sub'} shape mismatch")
        (ra, qa), (rb, qb) = self._ints, other._ints
        q = lcm(qa, qb)
        fa, fb = q // qa, sign * (q // qb)
        return Matrix._of_ints(
            [[x * fa + y * fb for x, y in zip(a, b)] for a, b in zip(ra, rb)], q)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        """Negated integer rows over the same denominator: negation keeps
        lowest terms, so no gcd is taken."""
        rows, q = self._ints
        m = object.__new__(Matrix)
        m._store(tuple(tuple(map(neg, row)) for row in rows), q)
        return m

    def scale(self, s) -> "Matrix":
        s = frac(s)
        rows, q = self._ints
        p = s.numerator
        return Matrix._of_ints([[x * p for x in row] for row in rows], q * s.denominator)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shape mismatch")
        (ra, qa), (rb, qb) = self._ints, other._ints
        cols = list(zip(*rb))
        return Matrix._of_ints(
            [[sum(map(mul, r, c)) for c in cols] for r in ra], qa * qb)

    def mul_vec(self, v: Sequence[Fraction]) -> Vec:
        return tuple(vdot(r, v) for r in self._data)

    def max_abs(self) -> Fraction:
        rows, q = self._ints
        return Fraction(max(map(abs, chain.from_iterable(rows)), default=0), q)

    def tolists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._data]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._ints == other._ints

    def __hash__(self) -> int:
        return hash(self._ints)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def lowest_terms(rows: Iterable[Sequence[int]], denom: int) -> tuple[IntRows, int]:
    """The integer rows ``rows / denom`` (``denom > 0``) as tuples, with the
    gcd of ``denom`` and every entry divided out: one form for equal values."""
    rows = tuple(map(tuple, rows))
    g = gcd(denom, *chain.from_iterable(rows))
    if g != 1:
        rows = tuple(tuple(x // g for x in row) for row in rows)
        denom //= g
    return rows, denom


def integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over q, their least common
    denominator; returns (numerators, q)."""
    q = lcm(*(x.denominator for x in values))
    return [x.numerator * (q // x.denominator) for x in values], q


_ZERO = Fraction(0)


def rationals(numerators: Iterable[int], denom: int) -> Vec:
    """The values ``numerators / denom``, one ``Fraction`` each: the inverse
    of ``integers``. Every zero is one shared ``Fraction(0)``, which costs no
    gcd: most entries of a mixed strategy are zero."""
    return tuple(Fraction(x, denom) if x else _ZERO for x in numerators)


def least_ratios(steps: Iterable[tuple[int, int, int]]) -> tuple[int, int, list[int]]:
    """The ratio test: the least slack / rate, as (slack, rate), over the
    positive rates of (label, slack, rate) integer triples, with every label
    reaching it in input order; no labels when no rate is positive."""
    best_s = best_r = 0
    hits: list[int] = []
    for lab, s, r in steps:
        if r <= 0:
            continue
        if not hits or s * best_r < best_s * r:
            best_s, best_r, hits = s, r, [lab]
        elif s * best_r == best_s * r:
            hits.append(lab)
    return best_s, best_r, hits


def exchange_pivot(rows: Sequence[Sequence[int]], r: int, c: int, d: int,
                   at: Optional[int] = None) -> tuple[list[Sequence[int]], int]:
    """Fraction-free pivot of a dictionary at column ``c`` of row ``r``, on
    integer rows whose true values are ``row / d``: the variable of column
    ``c`` enters at row ``r``, and the variable basic there leaves and takes
    column ``c``. Returns the new rows and the new common denominator ``p =
    rows[r][c]``; ``rows`` is left as it is.

    The rows hold only the nonbasic columns; each basic variable's column,
    ``d`` on its own row and zero elsewhere, is left implicit. The pivot row
    is kept and every other row becomes ``(row * p - f * prow) / d``, with
    ``f = row[c]``; where ``p == d`` that is ``row - f * prow / d``, with no
    division at all when ``d == 1``. The leaving variable's column is then
    written into column ``c``: ``-f`` on every other row and ``d`` on the
    pivot row. With ``at``, that column is moved to index ``at`` as each row
    is built, the columns between shifting by one. Each new row is a tuple,
    but a row that the exchange leaves as it was (f = 0, p == d, no move) is
    the input row itself, shared.
    Each division is exact: every entry stays a subdeterminant of the
    starting integer rows (Edmonds' integer-preserving elimination, as in
    Bareiss), and is the one the full tableau holds in that column.
    """
    prow = rows[r]
    p = prow[c]
    moved = at is not None and at != c
    out = []
    for i, row in enumerate(rows):
        f = row[c]
        if i == r:
            new, f = list(row), -d  # the leaving variable's column holds d here
        elif not f:
            if p == d and not moved:
                out.append(row)
                continue
            new = list(row) if p == d else [x * p // d for x in row]
        elif p != d:
            new = [(x * p - f * y) // d for x, y in zip(row, prow)]
        elif d != 1:
            new = [x - f * y // d for x, y in zip(row, prow)]
        else:
            new = [x - f * y for x, y in zip(row, prow)]
        if moved:
            del new[c]
            new.insert(at, -f)
        else:
            new[c] = -f
        out.append(tuple(new))
    return out, p


def integer_pivot(rows: Sequence[list[int]], r: int, c: int, d: int) -> int:
    """``exchange_pivot`` on a full tableau, which keeps every column, in
    place: column ``c`` becomes basic, ``p = rows[r][c]`` on the pivot row
    and zero on every other row. Returns the new common denominator ``p``."""
    new, p = exchange_pivot(rows, r, c, d)
    for row, exchanged in zip(rows, new):
        row[:] = exchanged
        row[c] = 0
    rows[r][c] = p
    return p


def gauss_jordan(rows: list[Sequence[int]], free: Iterable[int], cols: int,
                 pivots: Optional[Sequence[Optional[int]]] = None,
                 ) -> tuple[list[Optional[int]], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows by exchanges
    (``exchange_pivot``): the list ``rows`` is updated in place, each row
    replaced by its exchanged row.

    Each row r carries an implicit basic variable of its own, its slack:
    ``rows`` is a dictionary with those basic. Columns 0..cols-1 are taken in
    turn; each is pivoted on the first row in ``free``, row indices in the
    order given, with a nonzero entry there, and that row leaves ``free`` and
    its slack takes the column. Every row is updated, free or not. Returns the
    pivot row of each column, None where no free row has a nonzero entry, and
    the final common denominator (of either sign): the true dictionary is
    ``rows / denom``, and each column without a pivot, such as those past
    ``cols``, is the reduced echelon form's.

    ``pivots``, when given, holds a row for each column already pivoted and
    None for the rest; those columns are skipped. Column c may be taken as
    pivoted on row r when r reads -z_c + s_r = 0, one -1 and zeros elsewhere,
    rhs included: z_c = s_r, so the exchange there changes no true entry of
    any row, and at denominator 1 the dictionary stays the rows as given.
    Such a row may be left out of ``rows`` and marked by an index outside
    them, such as -1.
    """
    free = list(free)
    pivots = [None] * cols if pivots is None else list(pivots)
    denom = 1
    for col, done in enumerate(pivots):
        if done is None:
            r = next((r for r in free if rows[r][col]), None)
            if r is not None:
                free.remove(r)
                rows[:], denom = exchange_pivot(rows, r, col, denom)
            pivots[col] = r
    return pivots, denom


def integer_determinant(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination; the rows of ``a`` are overwritten."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinant(m: Matrix) -> Fraction:
    """Exact determinant: the Bareiss core on the integer rows, over
    ``denom`` to the order."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    return Fraction(integer_determinant([list(r) for r in m.int_rows]), m.denom ** m.rows)


def matrix_rank(m: Matrix) -> int:
    """Exact rank over the rationals: the columns that take a pivot in
    fraction-free Gauss-Jordan elimination of the integer rows."""
    pivots, _ = gauss_jordan([list(r) for r in m.int_rows], range(m.rows), m.cols)
    return sum(r is not None for r in pivots)


def solve_linear_system(m: Matrix, rhs: Sequence[Fraction]) -> Vec:
    """Solve m @ z = rhs exactly by fraction-free Gauss-Jordan elimination;
    raises Singular when no unique solution exists."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    if len(rhs) != n:
        raise DimensionMismatch("rhs length mismatch")
    # (rows / q) z = b / qb, times q * qb: integer rows [rows * qb | b * q].
    b, qb = integers(vector(rhs))
    aug = [[x * qb for x in row] + [bi * m.denom] for row, bi in zip(m.int_rows, b)]
    pivots, denom = gauss_jordan(aug, range(n), n)
    if None in pivots:
        raise Singular(f"zero pivot in column {pivots.index(None)}")
    return tuple(Fraction(aug[r][n], denom) for r in pivots)
