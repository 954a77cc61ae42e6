import random
from fractions import Fraction
from math import lcm

import pytest

from rankgames.errors import DimensionMismatch, NotSquare, Singular
from rankgames.linalg import (
    Matrix,
    determinant,
    exchange_pivot,
    gauss_jordan,
    integer_pivot,
    integers,
    least_ratios,
    matrix_rank,
    solve_linear_system,
)

from fixtures import EX1_A, EX1_C, min_entry, naive_determinant, shift, submatrix, zero_matrix


def test_determinant_identity():
    assert determinant(Matrix.identity(3)) == 1


def test_determinant_2x2():
    assert determinant(Matrix([[0, 9], [6, 6]])) == -54


def test_determinant_requires_square():
    with pytest.raises(NotSquare):
        determinant(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_determinant_matches_naive_oracle():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = Matrix(
            [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        assert determinant(m) == naive_determinant(m)


def test_determinant_of_first_path_vertex_system_positive():
    # Tight system of the first bounded node of the worked example; its sign
    # anchors the traversal orientation. Value cross-checked by the naive oracle.
    ev = Matrix([[1, 1, 1, 0], [0, 9, 9, -1], [-1, 0, 0, 0], [0, 0, -1, 0]])
    ew = Matrix(
        [
            [0, 9, 7, 0, 0],
            [1, 6, 8, 0, 0],
            [1, 5, 8, -1, 0],
            [1, 4, 3, 0, -1],
            [0, -1, -1, 0, 0],
        ]
    )
    prod = determinant(ev) * determinant(ew)
    assert prod == naive_determinant(ev) * naive_determinant(ew)
    assert prod > 0


def test_solve_identity():
    sol = solve_linear_system(Matrix.identity(2), (Fraction(2, 3), Fraction(-1)))
    assert sol == (Fraction(2, 3), Fraction(-1))


def test_solve_symmetric_pair():
    sol = solve_linear_system(Matrix([[1, 1], [1, -1]]), (1, 0))
    assert sol == (Fraction(1, 2), Fraction(1, 2))


def test_solve_vertex_basis_of_worked_example():
    # Rows 1 and 3 tight plus y3 = 0 and the simplex equality give the interior
    # path vertex y = (2/11, 9/11, 0), payoff 81/11 (solves 9 - 9t = 7 + 2t).
    rows = [
        [1, 1, 1, 0],
        [0, 9, 9, -1],
        [9, 7, 2, -1],
        [0, 0, 1, 0],
    ]
    sol = solve_linear_system(Matrix(rows), (1, 0, 0, 0))
    assert sol == (Fraction(2, 11), Fraction(9, 11), Fraction(0), Fraction(81, 11))


def test_solve_singular():
    with pytest.raises(Singular):
        solve_linear_system(Matrix([[1, 1], [2, 2]]), (1, 2))


def test_rank_zero_matrix():
    assert matrix_rank(zero_matrix(3, 4)) == 0


def test_rank_outer_product():
    assert matrix_rank(Matrix.outer((1, 2, 3), (4, 5))) == 1


def test_rank_of_dense_sum():
    assert matrix_rank(EX1_A + EX1_C) == 3


def test_rank_of_wide_products_of_known_rank():
    # U (24 x r) times V (r x 24) has rank at most r, and at least r where
    # its leading r x r minor, det U_r * det V_r, is nonzero. Elimination
    # that never divides doubles the entries' bit length at every column and
    # takes minutes here; fraction-free Gauss-Jordan keeps them subdeterminants.
    rng = random.Random(24)
    for r in (5, 12, 24):
        u = Matrix([[rng.randint(-10**6, 10**6) for _ in range(r)] for _ in range(24)])
        v = Matrix([[rng.randint(-10**6, 10**6) for _ in range(24)] for _ in range(r)])
        product = u @ v
        assert determinant(submatrix(product, range(r), range(r))) != 0
        assert matrix_rank(product) == r
        assert matrix_rank(product.scale(Fraction(1, 7))) == r


def test_least_ratios_takes_the_least_positive_rate_ratio_exactly():
    assert least_ratios([]) == (0, 0, [])
    # Rates at or below zero never bound the step, however small the ratio.
    assert least_ratios([(1, 0, 0), (2, 5, -1)]) == (0, 0, [])
    assert least_ratios([(1, 0, -3), (2, 6, 3), (3, 1, 0), (4, 9, 2)]) == (6, 3, [2])
    # (big + 1) / big and big / (big - 1) are equal as floats, not as ratios.
    big = 10**40
    assert least_ratios([(7, big, big - 1), (8, big + 1, big)]) == (big + 1, big, [8])
    # Every tied label, in input order; the first hit's (slack, rate) is kept.
    assert least_ratios([(5, 2, 4), (3, 1, 2), (6, 5, 1), (9, 3, 6)]) == (2, 4, [5, 3, 9])
    assert least_ratios(iter([(2, 0, 1), (1, 0, 5)])) == (0, 1, [2, 1])


def test_gauss_jordan_pivots_each_column_on_its_first_free_nonzero_row():
    # Row r's slack s_r is basic and left implicit; each pivot column ends
    # holding the slack column of its pivot row, and an unpivoted column is
    # the reduced echelon form's: rows / -1 is over (s_0, z_1, s_1), and
    # [[1, 3], [2, 5]]^-1 is -[[5, -3], [-2, 1]].
    rows = [[1, 2, 3], [2, 4, 5]]
    assert gauss_jordan(rows, [0, 1], 3) == ([0, None, 1], -1)
    assert rows == [[5, -2, -3], [-2, 0, 1]]
    # Free rows are tried in the order given; a dependent row keeps its slack
    # basic: rows / 3 is over (s_2, s_1), and row 0 reads s_0 = 2 s_1 - s_2.
    rows = [[0, 1], [3, 4], [6, 7]]
    assert gauss_jordan(rows, [2, 1, 0], 2) == ([2, 1], 3)
    assert rows == [[3, -6], [-3, 6], [4, -7]]
    # A column given as pivoted is skipped: row 1 reads -z_0 + s_1 = 0, so
    # z_0 = s_1 as the rows stand, and one exchange brings z_1 into row 0.
    # rows / 2 is over (s_1, s_0): z_1 = 3/2 - s_1/2 - s_0/2, z_0 = s_1.
    rows = [[1, 2, 3], [-1, 0, 0], [2, 5, 4]]
    assert gauss_jordan(rows, [0], 2, [1, None]) == ([1, 0], 2)
    assert rows == [[1, 1, 3], [-2, 0, 0], [-1, -5, -7]]


def test_exchange_pivot_keeps_the_full_pivots_nonbasic_columns():
    # The full tableau over (z_0, z_1, s_0, s_1 | rhs) with s_0, s_1 basic,
    # and its dictionary over (z_0, z_1 | rhs): z_1 enters at row 1. The
    # dictionary's columns become (z_0, s_1), each the full pivot's column.
    full = [[2, 1, 1, 0, 4], [1, 3, 0, 1, 6]]
    narrow = [[2, 1, 4], [1, 3, 6]]
    assert integer_pivot(full, full[1], 1, 1) == exchange_pivot(narrow, narrow[1], 1, 1) == 3
    assert narrow == [[row[0], row[3], row[4]] for row in full] == [[5, -1, 6], [1, 1, 6]]


def test_integers_are_numerators_over_the_least_common_denominator():
    assert integers((Fraction(1, 2), Fraction(-2, 3), Fraction(4))) == ([3, -4, 24], 6)
    assert integers(()) == ([], 1)


def test_matrix_access_is_bounds_checked():
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        m[2, 0]
    with pytest.raises(IndexError):
        m[0, -1]


def test_matrix_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])


def test_matrix_pickles_and_deep_copies_as_an_equal_immutable_matrix():
    import copy
    import pickle

    m = Matrix([[Fraction(1, 3), -2], [0, Fraction(7, 5)]])
    for clone in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert clone == m
        assert hash(clone) == hash(m)
        assert (clone.rows, clone.cols) == (2, 2)
        with pytest.raises(AttributeError):
            clone.rows = 3


def random_rational_matrix(rng, rows, cols):
    return Matrix(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols)]
         for _ in range(rows)]
    )


def test_solve_rational_systems_exactly():
    rng = random.Random(17)
    solved = singular = 0
    for _ in range(80):
        n = rng.randint(1, 6)
        m = random_rational_matrix(rng, n, n)
        rhs = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n))
        try:
            z = solve_linear_system(m, rhs)
        except Singular:
            assert determinant(m) == 0
            singular += 1
            continue
        assert m.mul_vec(z) == rhs
        solved += 1
    assert (solved, singular) == (78, 2)


def test_singular_message_names_the_first_column_without_a_pivot():
    # Rational matrices whose column j is a combination of the columns before
    # it: elimination finds no nonzero entry at or below the diagonal there.
    # The pinned columns are the ones the Fraction elimination named.
    rng = random.Random(23)
    messages = []
    for _ in range(24):
        n = rng.randint(2, 6)
        j = rng.randint(0, n - 1)
        cols = random_rational_matrix(rng, n, n).transpose().tolists()
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(j)]
        cols[j] = [sum((w * cols[k][i] for k, w in enumerate(weights)), Fraction(0))
                   for i in range(n)]
        with pytest.raises(Singular) as err:
            solve_linear_system(Matrix(cols).transpose(), (Fraction(1),) * n)
        messages.append(str(err.value))
    pinned = (0, 2, 1, 0, 1, 1, 0, 0, 2, 1, 0, 1, 2, 1, 0, 1, 0, 1, 3, 1, 2, 0, 0, 1)
    assert messages == [f"zero pivot in column {c}" for c in pinned]


DENOMS = (1, 1, 2, 3, 7)  # integers and coprime denominators


def mixed_grid(rng, rows, cols):
    """Negative, zero and fractional entries, as lists of Fractions."""
    return [[Fraction(rng.randint(-9, 9), rng.choice(DENOMS)) for _ in range(cols)]
            for _ in range(rows)]


def assert_holds(m, grid):
    """``m`` holds ``grid`` entry by entry in both forms, its integer rows
    are over the least common denominator, and it equals and hashes as
    ``Matrix(grid)``."""
    q = lcm(*(x.denominator for row in grid for x in row))
    assert (m.rows, m.cols) == (len(grid), len(grid[0]) if grid else 0)
    assert m.denom == q
    assert [[Fraction(x, q) for x in row] for row in m.int_rows] == grid
    assert m.tolists() == grid
    assert m == Matrix(grid) and hash(m) == hash(Matrix(grid))


def test_integer_matrix_matches_the_fraction_grid():
    # Each operation on the integer rows against the same computation on the
    # Fraction grid, on a matrix built from the grid and on one built by
    # arithmetic, whose grid is read off its integer rows.
    rng = random.Random(19)
    shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(40)]
    grids = [mixed_grid(rng, r, c) for r, c in shapes + [(1, 5), (5, 1), (1, 1)]]
    grids += [[[Fraction(0)] * 3 for _ in range(2)], []]
    for grid in grids:
        rows, cols = len(grid), len(grid[0]) if grid else 0
        s = Fraction(rng.randint(-9, 9), rng.choice(DENOMS))
        other = mixed_grid(rng, rows, cols)
        right = mixed_grid(rng, cols, rng.randint(1, 3)) if cols else []
        row_idx = rng.sample(range(rows), rng.randint(1, rows)) if rows else []
        col_idx = rng.sample(range(cols), rng.randint(1, cols)) if cols else []
        u, v = (mixed_grid(rng, 1, k)[0] if k else [] for k in (rows, cols))
        assert_holds(Matrix.outer(u, v), [[a * b for b in v] for a in u])
        entries = [x for row in grid for x in row]
        for m in (Matrix(grid), Matrix(grid).scale(1)):
            assert_holds(m, grid)
            assert_holds(m.scale(s), [[s * x for x in row] for row in grid])
            assert_holds(shift(m, s), [[x + s for x in row] for row in grid])
            assert_holds(m + Matrix(other), [[x + y for x, y in zip(r, o)]
                                             for r, o in zip(grid, other)])
            assert_holds(m - Matrix(other), [[x - y for x, y in zip(r, o)]
                                             for r, o in zip(grid, other)])
            assert_holds(-m, [[-x for x in row] for row in grid])
            assert_holds(m.transpose(), [list(c) for c in zip(*grid)])
            assert_holds(submatrix(m, row_idx, col_idx),
                         [[grid[i][j] for j in col_idx] for i in row_idx])
            assert_holds(m @ Matrix(right), [
                [sum((r[k] * right[k][j] for k in range(cols)), Fraction(0))
                 for j in range(len(right[0]) if right else 0)] for r in grid])
            if entries:
                assert min_entry(m) == min(entries)
            assert m.max_abs() == max(map(abs, entries), default=Fraction(0))
            assert m.is_zero() == all(x == 0 for x in entries)
            if rows == cols:
                assert determinant(m) == naive_determinant(Matrix(grid))


def test_equal_matrices_compare_and_hash_equal_however_built():
    half = Matrix([[Fraction(1, 2), 1]])
    for built in (
        Matrix([[1, 2]]).scale(Fraction(1, 2)),
        Matrix([[Fraction(1, 4), Fraction(1, 2)]]) + Matrix([[Fraction(1, 4), Fraction(1, 2)]]),
        shift(Matrix([[Fraction(3, 2), 2]]), -1),
        Matrix.outer((Fraction(1, 3),), (Fraction(3, 2), 3)),
        Matrix([[Fraction(1, 2)], [1]]).transpose(),
        submatrix(Matrix([[7, Fraction(1, 2), 1]]), [0], [1, 2]),
    ):
        assert built == half and hash(built) == hash(half)
        assert (built.int_rows, built.denom) == (((1, 2),), 2)
    assert Matrix([[1, 2]]) != Matrix([[1], [2]])
    assert Matrix([]) != Matrix([[]])
    assert Matrix([[1, 2]]).scale(0) == zero_matrix(1, 2)
    assert zero_matrix(1, 2).denom == 1


def test_integer_built_matrix_pickles_and_stays_immutable():
    import pickle

    m = Matrix([[Fraction(1, 3), -2], [0, Fraction(7, 5)]]).scale(Fraction(5, 2))
    clone = pickle.loads(pickle.dumps(m))
    assert clone == m and hash(clone) == hash(m)
    assert clone.tolists() == [[Fraction(5, 6), -5], [0, Fraction(7, 2)]]
    for attr in ("rows", "int_rows", "denom"):
        with pytest.raises(AttributeError):
            setattr(m, attr, 1)
