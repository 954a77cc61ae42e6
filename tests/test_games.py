import random
from fractions import Fraction

import pytest

from rankgames.algorithms import index_of
from rankgames.errors import DimensionMismatch, NotConstantBeta, RankTooHigh
from rankgames.games import (
    BimatrixGame,
    MixedProfile,
    Rank1Decomposition,
    decompose_rank1,
    decompose_rank_k,
    payoffs,
    reduce_constant_beta,
    verify_equilibrium,
)
from rankgames.linalg import Matrix, determinant, sign, vdot
from rankgames.oracle import support_enumeration
from rankgames.paramlp import Crossing

from fixtures import (
    EX1_A,
    EX1_BETA,
    EX1_C,
    K2_GAME,
    MATCHING_PENNIES,
    fraction_payoffs,
    fraction_verify_equilibrium,
    integerize,
    min_entry,
    naive_determinant,
    positivity_shift,
    rank1_game,
    submatrix,
    zero_matrix,
)

HALF = Fraction(1, 2)


def test_verify_matching_pennies_mixed():
    p = MixedProfile((HALF, HALF), (HALF, HALF))
    assert verify_equilibrium(MATCHING_PENNIES, p)


def test_verify_rejects_unilateral_deviation():
    p = MixedProfile((1, 0), (1, 0))
    assert not verify_equilibrium(MATCHING_PENNIES, p)


def test_verify_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        verify_equilibrium(MATCHING_PENNIES, MixedProfile((1, 0, 0), (1, 0)))


def test_profile_validation():
    # A side that does not sum to 1, one with a negative entry, and an empty one.
    with pytest.raises(DimensionMismatch) as exc:
        MixedProfile((HALF, HALF, HALF), (1, 0))
    assert str(exc.value) == (
        "not a probability vector: (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))")
    with pytest.raises(DimensionMismatch) as exc:
        MixedProfile((Fraction(3, 2), Fraction(-1, 2)), (1, 0))
    assert str(exc.value) == "not a probability vector: (Fraction(3, 2), Fraction(-1, 2))"
    with pytest.raises(DimensionMismatch) as exc:
        MixedProfile((), (1,))
    assert str(exc.value) == "not a probability vector: ()"


def test_verify_scaling_invariance():
    rng = random.Random(8)
    for _ in range(10):
        game = BimatrixGame(
            Matrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]),
            Matrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]),
        )
        scaled = game.scale(Fraction(7, 3))
        for rec in support_enumeration(game).equilibria:
            assert verify_equilibrium(scaled, rec.profile)


def test_support_sums_match_dense_products():
    # Reference: dense products with a transpose. Profiles put zero weight on
    # some strategies, and each game has a pure or mixed equilibrium.
    rng = random.Random(21)
    checked = equilibria = 0
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        game = BimatrixGame(
            Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(m)]),
            Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]),
        )
        profiles = [rec.profile for rec in support_enumeration(game).equilibria]
        for _ in range(3):
            x = [rng.choice((0, 0, 1, 2)) for _ in range(m)]
            y = [rng.choice((0, 0, 1, 2)) for _ in range(n)]
            x[rng.randrange(m)] += 1
            y[rng.randrange(n)] += 1
            profiles.append(MixedProfile([Fraction(v, sum(x)) for v in x],
                                         [Fraction(v, sum(y)) for v in y]))
        for p in profiles:
            ay, by = game.a.mul_vec(p.y), game.b.mul_vec(p.y)
            bx = game.b.transpose().mul_vec(p.x)
            assert payoffs(game, p) == (vdot(p.x, ay), vdot(p.x, by))
            dense = all(ay[i] == max(ay) for i in range(m) if p.x[i]) and all(
                bx[j] == max(bx) for j in range(n) if p.y[j])
            assert verify_equilibrium(game, p) == dense
            checked += 1
            equilibria += dense
    assert (checked, equilibria) == (195, 81)


def test_per_answer_checks_match_the_fraction_references():
    # Games with fractional payoffs over coprime denominators; every answer
    # of support_enumeration, and near misses that move half of one support
    # entry's weight onto another of the same player's, which must fail.
    rng = random.Random(33)

    def grid(m, n):
        return [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(n)]
                for _ in range(m)]

    answers = near_misses = 0
    for _ in range(40):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        a, b = grid(m, n), grid(m, n)
        game = BimatrixGame(Matrix(a), Matrix(b))
        shifted, s1, s2 = positivity_shift(game)
        a_pos = [[x + s1 for x in row] for row in a]
        b_pos = [[x + s2 for x in row] for row in b]
        for rec in support_enumeration(game).equilibria:
            p = rec.profile
            assert verify_equilibrium(game, p) and fraction_verify_equilibrium(game, p)
            assert payoffs(game, p) == fraction_payoffs(game, p) == (rec.payoff1, rec.payoff2)
            # The index (-1)^(|I|+1) * sign(det A_I^J * det B_I^J) on the
            # positive shift; index_of, on the input game's bordered support
            # blocks, must agree with it.
            rows, cols = ([k - 1 for k in side] for side in rec.support)
            checked = determinant(submatrix(shifted.a, rows, cols)) * determinant(
                submatrix(shifted.b, rows, cols))
            reference = [naive_determinant(Matrix([[mat[i][j] for j in cols] for i in rows]))
                         for mat in (a_pos, b_pos)]
            assert sign(checked) == sign(reference[0] * reference[1]) != 0
            classic = (-1) ** (len(rows) + 1) * sign(checked)
            assert index_of(game, rec, Crossing((), (), classic)) == classic
            answers += 1
            for side in (0, 1):
                vec = list((p.x, p.y)[side])
                support = [k for k, w in enumerate(vec) if w]
                if len(support) < 2:
                    continue
                i, j = rng.sample(support, 2)
                vec[i], vec[j] = vec[i] / 2, vec[j] + vec[i] / 2
                miss = MixedProfile(*((vec, p.y) if side == 0 else (p.x, vec)))
                assert not verify_equilibrium(game, miss)
                assert not fraction_verify_equilibrium(game, miss)
                assert payoffs(game, miss) == fraction_payoffs(game, miss)
                near_misses += 1
    assert (answers, near_misses) == (67, 42)


def test_decompose_rank1_zero_sum_defaults():
    d = decompose_rank1(BimatrixGame(EX1_A, -EX1_A))
    assert all(g == 0 for g in d.gamma)
    assert d.beta == (1, 2, 3)
    assert d.game().b == -EX1_A


def test_decompose_rank1_recovers_outer_product():
    a = Matrix([[3, 1], [1, 2]])
    b = -a + Matrix.outer((1, 2), (1, 3))
    d = decompose_rank1(BimatrixGame(a, b))
    assert Matrix.outer(d.gamma, d.beta) == Matrix.outer((1, 2), (1, 3))
    assert d.game().b == b


def test_decompose_rank1_rejects_higher_rank():
    b = EX1_C + Matrix.outer((1, 1, 1), EX1_BETA)
    with pytest.raises(RankTooHigh):
        decompose_rank1(BimatrixGame(EX1_A, b))


def test_decompose_rank1_checks_every_minor_through_the_first_entry():
    # Every 2x2 minor through the first nonzero entry vanishes but the one
    # with the last row and column.
    s = Matrix([[2, 4, 6], [1, 2, 3], [3, 6, 10]])
    with pytest.raises(RankTooHigh):
        decompose_rank1(BimatrixGame(EX1_A, s - EX1_A))


def test_decompose_rank1_factors_sums_with_zero_rows_and_columns():
    # The first nonzero entry is (1, 1): its row is beta, its column over it
    # is gamma, as in a rank-k peel of the same sum.
    a = Matrix([[1, -2, 3, 0], [4, 0, -1, 2], [5, 1, 1, -3]])
    s = Matrix.outer((0, 2, Fraction(-1, 2)), (0, 3, 0, -6))
    game = BimatrixGame(a, s - a)
    d = decompose_rank1(game)
    assert d.gamma == (0, 1, Fraction(-1, 4))
    assert d.beta == (0, 6, 0, -12)
    assert d.game() == game
    k = decompose_rank_k(game)
    assert (k.gammas, k.betas) == ((d.gamma,), (d.beta,))


def test_decompose_rank1_agrees_with_the_rank_k_peel():
    rng = random.Random(7)
    ranks = []
    for _ in range(60):
        m, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 2)
        s = zero_matrix(m, n)
        for _ in range(k):
            s = s + Matrix.outer([rng.choice((0, 0, 1, -2, 3)) for _ in range(m)],
                                 [rng.choice((0, 1, -1, 2)) for _ in range(n)])
        a = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        game = BimatrixGame(a, s - a)
        peel = decompose_rank_k(game)
        ranks.append(peel.k)
        if peel.k >= 2:
            with pytest.raises(RankTooHigh):
                decompose_rank1(game)
        elif peel.k == 1:
            d = decompose_rank1(game)
            assert (peel.gammas, peel.betas) == ((d.gamma,), (d.beta,))
    assert min(ranks) == 0 and max(ranks) == 2


def test_decompose_rank_k_zero_sum_is_empty():
    d = decompose_rank_k(BimatrixGame(EX1_A, -EX1_A))
    assert d.k == 0
    assert d.game().b == -EX1_A


def test_decompose_rank_k_rank1_game():
    g = rank1_game(EX1_A, (1, 2, 0), (1, 3, 2))
    d = decompose_rank_k(g)
    assert d.k == 1
    assert Matrix.outer(d.gammas[0], d.betas[0]) == g.payoff_sum()


def test_decompose_rank_k_two_terms():
    d = decompose_rank_k(K2_GAME)
    assert d.k == 2
    assert d.game().b == K2_GAME.b


def test_integerize_integral_input_is_identity():
    d = Rank1Decomposition(EX1_A, (1, 2, 0), (1, 3, 2))
    d2, scale = integerize(d)
    assert scale == 1
    assert d2 == d


def test_integerize_clears_denominators():
    d = Rank1Decomposition(
        Matrix([[Fraction(1, 2)]]), (Fraction(1, 3),), (Fraction(1),)
    )
    d2, scale = integerize(d)
    assert scale == 36
    assert d2.a == Matrix([[18]])
    assert d2.gamma == (Fraction(2),)
    assert d2.beta == (Fraction(6),)


def test_integerize_preserves_equilibria():
    rng = random.Random(21)
    a = Matrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
    )
    gamma = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3))
    beta = (Fraction(1, 2), Fraction(2), Fraction(3))
    d = Rank1Decomposition(a, gamma, beta)
    d2, _ = integerize(d)
    first = support_enumeration(d.game()).equilibria
    second = support_enumeration(d2.game()).equilibria
    assert [(r.profile.x, r.profile.y) for r in first] == [
        (r.profile.x, r.profile.y) for r in second
    ]


def test_reduce_constant_beta_zero_vector():
    d = Rank1Decomposition(EX1_A, (1, 1, 1), (0, 0, 0))
    reduced = reduce_constant_beta(d).game()
    assert reduced.a == EX1_A
    assert reduced.b == -EX1_A


def test_reduce_constant_beta_unique_equilibrium():
    d = Rank1Decomposition(Matrix([[1, 0], [0, 1]]), (1, 1), (1, 1))
    reduced = reduce_constant_beta(d).game()
    recs = support_enumeration(reduced).equilibria
    assert len(recs) == 1
    assert recs[0].profile.x == (HALF, HALF)
    assert recs[0].profile.y == (HALF, HALF)


def test_reduce_constant_beta_preserves_equilibrium_set():
    rng = random.Random(5)
    for _ in range(5):
        a = Matrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)])
        gamma = tuple(rng.randint(-3, 3) for _ in range(2))
        c = rng.randint(-2, 2)
        d = Rank1Decomposition(a, gamma, (c, c, c))
        original = support_enumeration(d.game()).equilibria
        reduced = support_enumeration(reduce_constant_beta(d).game()).equilibria
        assert [(r.profile.x, r.profile.y) for r in original] == [
            (r.profile.x, r.profile.y) for r in reduced
        ]


def test_reduce_constant_beta_rejects_nonconstant():
    with pytest.raises(NotConstantBeta):
        reduce_constant_beta(Rank1Decomposition(EX1_A, (1, 1, 1), (1, 2, 3)))


def test_positivity_shift_rules():
    game = BimatrixGame(Matrix([[2, 3], [4, 5]]), Matrix([[1, 1], [1, 1]]))
    shifted, s1, s2 = positivity_shift(game)
    assert (s1, s2) == (0, 0)
    assert shifted.a == game.a

    game2 = BimatrixGame(Matrix([[-3, 3], [0, 1]]), Matrix([[0, 0], [0, 0]]))
    shifted2, s1, s2 = positivity_shift(game2)
    assert s1 == 4  # ceil(|-3|) + 1
    assert s2 == 1  # zero entries still need a bump
    assert min_entry(shifted2.a) > 0
    assert min_entry(shifted2.b) > 0


def test_positivity_shift_preserves_equilibria():
    recs = support_enumeration(MATCHING_PENNIES).equilibria
    shifted, _, _ = positivity_shift(MATCHING_PENNIES)
    for rec in recs:
        assert verify_equilibrium(shifted, rec.profile)


def test_reconstruction_identity_for_every_decomposition_type():
    rng = random.Random(33)
    for _ in range(8):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        a = Matrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        gamma = tuple(rng.randint(-3, 3) for _ in range(m))
        beta = tuple(rng.randint(1, 4) for _ in range(n))
        source = BimatrixGame(a, -a + Matrix.outer(gamma, beta))
        assert decompose_rank1(source).game().b == source.b
        assert decompose_rank_k(source).game().b == source.b
        general = BimatrixGame(
            a, Matrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        )
        assert decompose_rank_k(general).game().b == general.b
