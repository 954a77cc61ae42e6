import random
from collections import Counter
from fractions import Fraction

import pytest

from rankgames.algorithms import index_of
from rankgames import games
from rankgames.errors import DimensionMismatch, NotConstantBeta, RankTooHigh
from rankgames.games import (
    BimatrixGame,
    MixedProfile,
    Rank1Decomposition,
    decompose_rank1,
    decompose_rank_k,
    family_game,
    reduce_constant_beta,
    verify_equilibrium,
)
from rankgames.linalg import Matrix, determinant, matrix_rank, sign, vdot
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
    random_rank1,
    random_rank_k,
    rank1_game,
    reference_peel,
    reference_rank_k_terms,
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
            assert fraction_payoffs(game, p) == (vdot(p.x, ay), vdot(p.x, by))
            dense = all(ay[i] == max(ay) for i in range(m) if p.x[i]) and all(
                bx[j] == max(bx) for j in range(n) if p.y[j])
            got = verify_equilibrium(game, p)
            assert bool(got) == dense
            assert got == (fraction_payoffs(game, p) if dense else None)
            checked += 1
            equilibria += dense
    assert (checked, equilibria) == (195, 81)


def test_per_answer_checks_match_the_fraction_references():
    # Games with fractional payoffs over coprime denominators; every answer
    # of support_enumeration, and near misses that move half of one support
    # entry's weight onto another of the same player's, which must fail.
    # verify_equilibrium prices an answer as best1 / (qy A.denom) and
    # best2 / (qx B.denom); on the answers counted in ``apart`` qx != qy,
    # A.denom != B.denom, qy A.denom != qx B.denom and both payoffs are
    # nonzero, so any swap of those denominators changes a payoff.
    rng = random.Random(33)

    def grid(m, n):
        return [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(n)]
                for _ in range(m)]

    answers = near_misses = apart = 0
    for _ in range(40):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        a, b = grid(m, n), grid(m, n)
        game = BimatrixGame(Matrix(a), Matrix(b))
        shifted, s1, s2 = positivity_shift(game)
        a_pos = [[x + s1 for x in row] for row in a]
        b_pos = [[x + s2 for x in row] for row in b]
        for rec in support_enumeration(game).equilibria:
            p = rec.profile
            assert fraction_verify_equilibrium(game, p)
            assert verify_equilibrium(game, p) == fraction_payoffs(game, p) == (
                rec.payoff1, rec.payoff2)
            (_, qx), (_, qy) = p.int_x, p.int_y
            apart += (qx != qy and game.a.denom != game.b.denom
                      and qy * game.a.denom != qx * game.b.denom
                      and 0 not in (rec.payoff1, rec.payoff2))
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
            assert index_of(game, rec.support, Crossing((), (), classic)) == classic
            answers += 1
            for side in (0, 1):
                vec = list((p.x, p.y)[side])
                support = [k for k, w in enumerate(vec) if w]
                if len(support) < 2:
                    continue
                i, j = rng.sample(support, 2)
                vec[i], vec[j] = vec[i] / 2, vec[j] + vec[i] / 2
                miss = MixedProfile(*((vec, p.y) if side == 0 else (p.x, vec)))
                assert verify_equilibrium(game, miss) is None
                assert not fraction_verify_equilibrium(game, miss)
                near_misses += 1
    assert (answers, near_misses, apart) == (67, 42, 12)


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


def _peel_cases():
    """(tag, game) of the peel's corpora: the rank-k corpus's 60 draws; the
    small-entry yardstick's 200 rank-1 and 200 general games; those 460
    games times -2/7, whose sums have Fraction entries and whose first
    nonzero entry changes sign; and sums with leading zero rows and columns
    and a negative first nonzero entry."""
    games = []
    rng = random.Random(11)
    for g in range(60):
        k, size = 2 + g % 2, 3 + (g // 2) % 3
        a, betas, gammas = random_rank_k(rng, k, size, size)
        games.append(("rank-k", family_game(a, -a, gammas, betas)))
    rng = random.Random(77)
    games += [("yardstick", random_rank1(rng, s, s, span=2, gamma_span=1, beta_span=3).game())
              for s in (3, 4, 5) * 66 + (3, 4)]
    rng = random.Random(78)
    for g in range(200):
        s = 3 + g % 3
        a, b = (Matrix([[rng.randint(-2, 2) for _ in range(s)] for _ in range(s)])
                for _ in range(2))
        games.append(("yardstick", BimatrixGame(a, b)))
    games += [("times -2/7", game.scale(Fraction(-2, 7))) for _, game in games]
    sums = (
        [[0, 0, 0], [0, -2, 4], [0, 3, -6]],
        [[0, 0, 0, 0], [0, 0, Fraction(-1, 2), 3], [0, Fraction(5, 3), 1, 0]],
        [[0, 0], [0, 0], [-3, Fraction(7, 4)], [6, -1]],
    )
    games += [("leading zeros", BimatrixGame(zero_matrix(len(s), len(s[0])), Matrix(s)))
              for s in sums]
    return games


def _peel_faults(peel) -> tuple[int, int]:
    """(faults, negatives) of ``peel`` over every peel of every case's payoff
    sum down to zero: a fault is a term or rest, as integer rows over its
    denominator, that differs from ``reference_peel``'s; a negative is a
    peel whose first nonzero entry is negative."""
    faults = negatives = 0
    for _, game in _peel_cases():
        m = game.payoff_sum()
        while (ref := reference_peel(m)) is not None:
            gamma, beta, rest = ref
            faults += peel(m.int_rows, m.denom) != (gamma, beta, (rest.int_rows, rest.denom))
            negatives += next(x for row in m.int_rows for x in row if x) < 0
            m = rest
        faults += peel(m.int_rows, m.denom) is not None
    return faults, negatives


def test_decompositions_match_the_matrix_peel_reference():
    # decompose_rank1 peels a + b once, and returns the term or raises
    # RankTooHigh; decompose_rank_k peels until the rest is zero, and its k
    # is the rank that the rank verb prints. Both equal the Matrix-based
    # reference on every case, and so does every peel of the chain.
    counts = Counter()
    for tag, game in _peel_cases():
        s = game.payoff_sum()
        terms = reference_rank_k_terms(s)
        d = decompose_rank_k(game)
        assert list(zip(d.gammas, d.betas)) == terms
        assert d.k == matrix_rank(s)
        if len(terms) >= 2:
            with pytest.raises(RankTooHigh, match="payoff sum has rank >= 2"):
                decompose_rank1(game)
        elif terms:
            d1 = decompose_rank1(game)
            assert (d1.gamma, d1.beta) == terms[0]
        counts[tag, len(terms)] += 1
    assert counts == {
        ("rank-k", 1): 1, ("rank-k", 2): 29, ("rank-k", 3): 30,
        ("yardstick", 0): 5, ("yardstick", 1): 195, ("yardstick", 2): 4,
        ("yardstick", 3): 67, ("yardstick", 4): 63, ("yardstick", 5): 66,
        ("times -2/7", 0): 5, ("times -2/7", 1): 196, ("times -2/7", 2): 33,
        ("times -2/7", 3): 97, ("times -2/7", 4): 63, ("times -2/7", 5): 66,
        ("leading zeros", 1): 1, ("leading zeros", 2): 2,
    }
    assert _peel_faults(games._peel) == (0, 1138)


def test_a_peel_that_keeps_a_negative_denominator_fails_the_reference():
    # Without its sign normalization, a peel at a negative first entry leaves
    # its rest over a negative denominator: every such peel, and no other,
    # differs from the reference's Matrix, whose denominator is positive.
    import inspect
    import textwrap

    source = textwrap.dedent(inspect.getsource(games._peel))
    assert source.count("s = 1 if p > 0 else -1") == 1
    namespace = dict(vars(games))
    exec(source.replace("s = 1 if p > 0 else -1", "s = 1"), namespace)
    faults, negatives = _peel_faults(namespace["_peel"])
    assert faults == negatives == 1138


def test_decompose_rank1_above_rank_1_raises_before_building_a_fraction(monkeypatch):
    # On every case of the peel's corpora of rank 2 or more, decompose_rank1
    # raises RankTooHigh off the integer minors alone: games.Fraction, here
    # a function that fails, is never called.
    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    cases = [game for _, game in _peel_cases() if matrix_rank(game.payoff_sum()) >= 2]
    monkeypatch.setattr(games, "Fraction", no_fraction)
    for game in cases:
        with pytest.raises(RankTooHigh, match="payoff sum has rank >= 2"):
            decompose_rank1(game)
    assert len(cases) == 520


def test_decompose_rank1_keeps_its_game_and_the_identity_of_a_hand_built_decomposition():
    # decompose_rank1 keeps the game it factorized, and game() returns it:
    # on the 403 cases of the peel's corpora of rank 0 or 1, and on 20
    # zero-sum games with and without a Fraction beta override. A
    # decomposition built by hand from the same a, gamma and beta holds no
    # game, rebuilds an equal one, and is equal, hashes equal and prints
    # the same; so does a copy made by dataclasses.replace.
    import dataclasses

    cases = [game for _, game in _peel_cases() if matrix_rank(game.payoff_sum()) <= 1]
    zero_sum = [BimatrixGame(game.a, -game.a) for game in cases[:20]]
    assert len(cases) == 403
    overrides = [(game, None) for game in cases + zero_sum]
    overrides += [(game, tuple(Fraction(j, 3) for j in range(game.n, 0, -1))) for game in zero_sum]
    for game, beta in overrides:
        d = decompose_rank1(game, beta)
        assert d.game() is game and d.source is game
        built = Rank1Decomposition(d.a, d.gamma, d.beta)
        assert built.source is None
        assert built.game() == game and built.game() is not game
        assert d == built and hash(d) == hash(built) and repr(d) == repr(built)
        assert "source" not in repr(d)
        copy = dataclasses.replace(d)
        assert copy.source is None and copy == d and copy.game() == game


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
