from fractions import Fraction
from itertools import combinations

import pytest

from rankgames.errors import MalformedLP, Singular
from rankgames.linalg import Matrix, matrix_rank, solve_linear_system, vdot
from rankgames.lp import EQ, LE, LinearProgram, solve_lp


def segment_lp(objective):
    # y1 + y2 = 1, y >= 0
    return LinearProgram.build(
        objective,
        [[-1, 0], [0, -1], [1, 1]],
        [LE, LE, EQ],
        [0, 0, 1],
    )


def test_segment_maximum():
    sol = solve_lp(segment_lp([1, 0]))
    assert sol.optimal
    assert sol.value == 1
    assert sol.point == (Fraction(1), Fraction(0))


def test_infeasible():
    lp = LinearProgram.build(
        [0, 0],
        [[1, 0], [-1, 0], [0, -1], [1, 1]],
        [LE, LE, LE, EQ],
        [-1, 0, 0, 1],  # y1 <= -1 contradicts y1 >= 0
    )
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram.build([1], [[-1]], [LE], [0])  # max z, z >= 0
    assert solve_lp(lp).status == "unbounded"


def test_malformed():
    with pytest.raises(MalformedLP):
        solve_lp(LinearProgram.build([1, 2], [[1]], [LE], [0]))


def test_deterministic_basis():
    lp = segment_lp([1, 1])
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first.point == second.point
    assert first.pivots == second.pivots


def test_solution_satisfies_tight_basis_exactly():
    lp = LinearProgram.build(
        [2, 3, -1],
        [[1, 1, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 2, 0]],
        [LE, LE, LE, LE, LE],
        [4, 0, 0, 0, 5],
    )
    sol = solve_lp(lp)
    assert sol.optimal
    for i, (row, rel, b) in enumerate(zip(lp.rows, lp.relations, lp.rhs)):
        lhs = vdot(row, sol.point)
        assert lhs <= b if rel == LE else lhs == b
    # the optimum is basic: its tight rows pin down every coordinate
    tight = [lp.rows[i] for i in range(len(lp.rows)) if vdot(lp.rows[i], sol.point) == lp.rhs[i]]
    assert matrix_rank(Matrix(tight)) == lp.n_vars


def brute_force_value(lp: LinearProgram):
    """Vertex-enumeration oracle for small bounded LPs with free variables."""
    n = lp.n_vars
    best = None
    for combo in combinations(range(len(lp.rows)), n):
        try:
            point = solve_linear_system(
                Matrix([lp.rows[i] for i in combo]), [lp.rhs[i] for i in combo]
            )
        except Singular:
            continue
        feasible = all(
            vdot(row, point) <= b if rel == LE else vdot(row, point) == b
            for row, rel, b in zip(lp.rows, lp.relations, lp.rhs)
        )
        if feasible:
            value = vdot(lp.objective, point)
            if best is None or value > best:
                best = value
    return best


def test_bland_terminates_on_classic_cycling_example():
    # Beale's degenerate LP cycles under largest-coefficient pivoting.
    lp = LinearProgram.build(
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            [Fraction(1, 4), -60, Fraction(-1, 25), 9],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3],
            [0, 0, 1, 0],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
        ],
        [LE] * 7,
        [0, 0, 1, 0, 0, 0, 0],
    )
    sol = solve_lp(lp, max_pivots=500)
    assert sol.optimal
    assert sol.value == brute_force_value(lp)


def test_matches_vertex_enumeration_oracle_on_random_lps():
    import random

    rng = random.Random(12)
    checked = 0
    while checked < 25:
        n = rng.randint(1, 3)
        n_rows = rng.randint(n + 1, n + 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n_rows)]
        rhs = [rng.randint(0, 6) for _ in range(n_rows)]
        # keep the region bounded: cap each coordinate both ways
        for j in range(n):
            unit = [0] * n
            unit[j] = 1
            rows += [list(unit), [-u for u in unit]]
            rhs += [10, 10]
        obj = [rng.randint(-3, 3) for _ in range(n)]
        lp = LinearProgram.build(obj, rows, [LE] * len(rows), rhs)
        sol = solve_lp(lp)
        oracle = brute_force_value(lp)
        if oracle is None:
            assert sol.status == "infeasible"
            continue
        assert sol.optimal
        assert sol.value == oracle
        checked += 1
