import random
from fractions import Fraction
from itertools import combinations

import pytest

from rankgames.algorithms import rank1_family
from rankgames.errors import MalformedLP, Singular
from rankgames.linalg import Matrix, matrix_rank, solve_linear_system, vdot
from rankgames.lp import EQ, LE, LinearProgram, solve_lp

from fixtures import polytope_lp, random_rank1, section_objective


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
    sol = solve_lp(lp)
    assert sol.optimal
    assert sol.value == brute_force_value(lp)


def test_matches_vertex_enumeration_oracle_on_random_lps():
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


def rational_lp_corpus(seed: int, count: int):
    """Seeded bounded LPs with non-integer rational data, '<=' rows whose rhs
    may be negative (the tableau negates those rows), one equality, and on
    every other LP a rational multiple of that equality (a redundant row that
    phase 1 leaves with an artificial basic at zero, so it is deleted)."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    for t in range(count):
        n = rng.randint(2, 3)
        rows = [[q() for _ in range(n)] for _ in range(rng.randint(1, 3))]
        rhs = [q() for _ in rows]
        rels = [LE] * len(rows)
        eq, eq_rhs = [q() for _ in range(n)], q()
        if t % 4 == 2:
            # a positive combination of '<=' rows with rhs 0, held at 0: every
            # row ends tight, and phase 1 may leave the equality's artificial
            # basic at zero, to be driven out on a negative entry
            rhs = [Fraction(0)] * len(rows)
            weights = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in rows]
            eq = [sum((w * r[j] for w, r in zip(weights, rows)), Fraction(0)) for j in range(n)]
            eq_rhs = Fraction(0)
        rows.append(eq)
        rhs.append(eq_rhs)
        rels.append(EQ)
        redundant = t % 2 == 1
        if redundant:
            s = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
            rows.append([s * x for x in eq])
            rhs.append(s * eq_rhs)
            rels.append(EQ)
        for j in range(n):  # keep the region bounded: |z_j| <= 5
            for sgn in (1, -1):
                rows.append([sgn if i == j else 0 for i in range(n)])
                rhs.append(Fraction(5))
                rels.append(LE)
        yield LinearProgram.build([q() for _ in range(n)], rows, rels, rhs), redundant


def test_integer_tableau_matches_oracle_on_rational_lps(monkeypatch):
    import rankgames.lp as lp_module

    negative_pivots = []
    plain_pivot = lp_module.integer_pivot

    def watched(rows, r, c, d):
        negative_pivots.append(rows[r][c] < 0)
        return plain_pivot(rows, r, c, d)

    monkeypatch.setattr(lp_module, "integer_pivot", watched)
    counts = {"optimal": 0, "infeasible": 0, "redundant": 0, "negative_rhs": 0}
    pivots = 0
    for lp, redundant in rational_lp_corpus(31, 80):
        sol = solve_lp(lp)
        pivots += sol.pivots
        counts["negative_rhs"] += any(b < 0 for b in lp.rhs)
        oracle = brute_force_value(lp)
        if oracle is None:
            assert sol.status == "infeasible"
            counts["infeasible"] += 1
            continue
        assert sol.optimal
        assert sol.value == oracle == vdot(lp.objective, sol.point)
        for row, rel, b in zip(lp.rows, lp.relations, lp.rhs):
            lhs = vdot(row, sol.point)
            assert lhs <= b if rel == LE else lhs == b
        counts["optimal"] += 1
        counts["redundant"] += redundant
    assert counts == {"optimal": 69, "infeasible": 11, "redundant": 34, "negative_rhs": 54}
    assert sum(negative_pivots) == 20  # drive-out pivots on a negative entry
    assert pivots == 978  # the total the Fraction tableau took


def test_section_lp_pivot_count_is_pinned():
    # The rank-1 section LPs (P at lambda = delta) at min gamma, max gamma and
    # their midpoint on seeded wide-span games, as generic LPs. 724 is the total
    # the Fraction tableau took: integer pivoting makes the same Bland choices.
    rng = random.Random(8)
    total = 0
    for size in (3, 4, 4, 5, 5, 6, 6, 7):
        d = random_rank1(rng, size, size, span=99, gamma_span=20, beta_span=50)
        family = rank1_family(d)[1]
        lo, hi = min(d.gamma), max(d.gamma)
        for delta in (lo, hi, (lo + hi) / 2):
            sol = solve_lp(polytope_lp(family.p, section_objective([family.beta], [delta])))
            assert sol.optimal
            total += sol.pivots
    assert total == 724
