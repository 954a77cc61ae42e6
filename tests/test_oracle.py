import random
from collections import Counter
from fractions import Fraction

import pytest

from rankgames.errors import NotEquilibrium, TooLarge
from rankgames.games import BimatrixGame, verify_equilibrium
from rankgames.linalg import Matrix
from rankgames.oracle import support_enumeration
from rankgames.polytope import GameFamily, build_p

from fixtures import (
    MATCHING_PENNIES,
    R1A,
    R1B,
    R1C,
    check_nondegenerate,
    enumerate_vertices,
    extreme_equilibria,
    fraction_verify_equilibrium,
    fully_labeled_pairs,
    nondegenerate_rank1_fixtures,
    random_general_games,
    shift,
    zero_matrix,
    zero_sum_solve,
)


def test_matching_pennies_unique_mixed():
    result = support_enumeration(MATCHING_PENNIES)
    assert len(result.equilibria) == 1
    rec = result.equilibria[0]
    assert rec.profile.x == (Fraction(1, 2), Fraction(1, 2))
    assert rec.profile.y == (Fraction(1, 2), Fraction(1, 2))
    assert rec.index is None


def test_dominant_strategy_game():
    game = BimatrixGame(Matrix([[2, 2], [0, 0]]), Matrix([[1, 0], [0, 0]]))
    result = support_enumeration(game)
    assert [(r.profile.x, r.profile.y) for r in result.equilibria] == [
        ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)))
    ]


def test_all_outputs_verify_and_counts_are_odd():
    fixtures = nondegenerate_rank1_fixtures(
        seed=71,
        count=10,
        min_mn=2,
        max_mn=4,
        pipeline=lambda d: support_enumeration(d.game()),
    )
    for d in fixtures:
        result = support_enumeration(d.game())
        assert result.equilibria
        for rec in result.equilibria:
            assert verify_equilibrium(d.game(), rec.profile)
        keys = [(r.profile.x, r.profile.y) for r in result.equilibria]
        assert len(set(keys)) == len(keys)
        assert len(keys) % 2 == 1


def test_size_guard():
    big = BimatrixGame(shift(zero_matrix(7, 3), 1), shift(zero_matrix(7, 3), 2))
    with pytest.raises(TooLarge):
        support_enumeration(big)


def test_fully_labeled_pairs_single_strategy_pair():
    fam = GameFamily(Matrix([[2, 1]]), Matrix([[-2, -1]]), (1, 2))
    pairs = fully_labeled_pairs(fam)
    assert len(pairs) == 2  # both row-polytope vertices pair with the vertex


def test_fully_labeled_pairs_1x1_has_no_vertex_pairs():
    # With one strategy each, the lifted polytope is a half-plane without
    # vertices, so the fully-labeled set is a single edge and the vertex-pair
    # enumeration is honestly empty.
    fam = GameFamily(Matrix([[5]]), Matrix([[-5]]), (2,))
    assert enumerate_vertices(fam.qp) == []
    assert fully_labeled_pairs(fam) == []


def test_fully_labeled_pairs_guard():
    a = shift(zero_matrix(5, 5), 1)
    with pytest.raises(TooLarge):
        fully_labeled_pairs(GameFamily(a, a.scale(-1), (1, 2, 3, 4, 5)))


def test_fully_labeled_pairs_match_components_on_r1b():
    from rankgames.labeledpath import trace_path

    fam = GameFamily(R1B.a, R1B.a.scale(-1), R1B.beta)
    pairs = fully_labeled_pairs(fam)
    trace = trace_path(fam)
    assert {(v.basis, w.basis) for v, w in pairs} == {u.key() for u in trace.nodes}


def test_extreme_equilibria_contain_support_enumeration_and_equal_it_when_nondegenerate():
    # The completely labeled vertex pairs of build_p(A) and build_p(B^T) are
    # the extreme equilibria. On a nondegenerate game, where both polytopes
    # are simple, they are exactly support_enumeration's equilibria; on a
    # degenerate one they contain them, and on some hold more. Every pair
    # verifies exactly, by the Fraction reference too.
    games = [("fixture", MATCHING_PENNIES), *(("fixture", d.game()) for d in (R1A, R1B, R1C))]
    games += [("small", g) for g in random_general_games(42, 20, min_mn=2, max_mn=4, span=2)]
    games += [("wide", g) for g in random_general_games(60, 20, min_mn=2, max_mn=4, span=30)]
    counts = Counter()
    for corpus, game in games:
        extreme = extreme_equilibria(game)
        for rec in extreme:
            assert verify_equilibrium(game, rec.profile)
            assert fraction_verify_equilibrium(game, rec.profile)
        keys = [(r.profile.x, r.profile.y) for r in extreme]
        support = [(r.profile.x, r.profile.y) for r in support_enumeration(game).equilibria]
        assert len(set(keys)) == len(keys) and set(support) <= set(keys)
        simple = check_nondegenerate(build_p(game.a)) and check_nondegenerate(
            build_p(game.b.transpose()))
        if simple:
            assert keys == support
        counts[corpus, "nondegenerate" if simple else "degenerate",
               "equal" if keys == support else "more"] += 1
    assert counts == {
        ("fixture", "nondegenerate", "equal"): 3, ("fixture", "degenerate", "equal"): 1,
        ("small", "nondegenerate", "equal"): 2, ("small", "degenerate", "equal"): 11,
        ("small", "degenerate", "more"): 7,
        ("wide", "nondegenerate", "equal"): 18, ("wide", "degenerate", "equal"): 1,
        ("wide", "degenerate", "more"): 1,
    }


def test_extreme_equilibria_guard():
    with pytest.raises(TooLarge):
        extreme_equilibria(BimatrixGame(zero_matrix(7, 7), zero_matrix(7, 7)))
    with pytest.raises(TooLarge):
        extreme_equilibria(MATCHING_PENNIES, guard=1)


def test_zero_sum_matching_pennies():
    rec = zero_sum_solve(Matrix([[1, -1], [-1, 1]]))
    assert rec.payoff1 == 0
    assert rec.profile.x == (Fraction(1, 2), Fraction(1, 2))


def test_zero_sum_1x1():
    rec = zero_sum_solve(Matrix([[1]]))
    assert rec.payoff1 == 1


def test_zero_sum_duality_on_random_matrices():
    rng = random.Random(19)
    for _ in range(5):
        a = Matrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
        rec = zero_sum_solve(a)
        # duality: the column player's own LP value is the negative
        rec_t = zero_sum_solve(a.scale(-1).transpose())
        assert rec.payoff1 == -rec_t.payoff1
        assert verify_equilibrium(BimatrixGame(a, a.scale(-1)), rec.profile)


def test_zero_sum_solve_raises_when_verification_fails(monkeypatch):
    # The check is a raise, not an assert, so it also holds under python -O.
    import fixtures

    monkeypatch.setattr(fixtures, "verify_equilibrium", lambda game, profile: False)
    with pytest.raises(NotEquilibrium):
        zero_sum_solve(Matrix([[1, -1], [-1, 1]]))
