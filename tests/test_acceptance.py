"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Random corpora are generated deterministically; degenerate candidates
are rejected by polytope-level checks (exhaustive basis enumeration) plus the
degeneracy signals the algorithms themselves raise, never by wrong answers.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from rankgames.algorithms import (
    bin_search,
    enumerate_rank1,
    fixed_point_search,
    homeo_forward,
    homeo_inverse,
    solve_general,
)
from rankgames.errors import DegeneracyError
from rankgames.games import (
    MixedProfile,
    Rank1Decomposition,
    decompose_rank_k,
    verify_equilibrium,
)
from rankgames.labeledpath import g_value, trace_path
from rankgames.linalg import vdot
from rankgames.oracle import fully_labeled_pairs, support_enumeration
from rankgames.paramlp import (
    box_bounds,
    fixed_point_eval,
    solve_lp_delta,
)
from rankgames.polytope import GameFamily

from fixtures import (
    EX1_CYCLE_P_DECIMALS,
    EX1_CYCLE_P_VERTICES,
    EX1_PATH_P_VERTICES,
    K2_GAME,
    R1A,
    check_nondegenerate,
    ex1_family,
    random_general_games,
    random_rank1,
    section_gap,
)


def report(number: int, description: str):
    """Context that prints the criterion verdict."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number}: {verdict} - {description}")
            return False

    return _Ctx()


def _family(d: Rank1Decomposition) -> GameFamily:
    return GameFamily(d.a, d.a.scale(-1), d.beta)


def _clean_rank1_corpus(seed: int, count: int, min_mn: int, max_mn: int):
    """Deterministic nondegenerate rank-1 instances with a rejection cap."""
    rng = random.Random(seed)
    corpus = []
    rejected = 0
    while len(corpus) < count:
        m = rng.randint(min_mn, max_mn)
        n = rng.randint(min_mn, max_mn)
        d = random_rank1(rng, m, n)
        try:
            fam = _family(d)
            if not check_nondegenerate(fam.p) or not check_nondegenerate(fam.qp):
                rejected += 1
                continue
            trace_path(fam)
            enumerate_rank1(d)  # raises on game-level degeneracy
        except DegeneracyError:
            rejected += 1
            continue
        corpus.append(d)
    # A systematic machinery bug would reject nearly everything.
    assert rejected < 6 * count, f"rejected {rejected} candidates for {count} kept"
    return corpus


@pytest.fixture(scope="module")
def corpus100():
    return _clean_rank1_corpus(seed=1001, count=100, min_mn=2, max_mn=5)


@pytest.fixture(scope="module")
def corpus30():
    return _clean_rank1_corpus(seed=3003, count=30, min_mn=2, max_mn=4)


def test_criterion_1_worked_example_reproduction():
    with report(1, "worked example: exact path and single 3-cycle"):
        started = time.monotonic()
        fam = ex1_family()
        trace = trace_path(fam)
        path_vertices = []
        for node in trace.nodes:
            vt = (node.v.coords[:3], node.v.coords[3])
            if vt not in path_vertices:
                path_vertices.append(vt)
        assert tuple(path_vertices) == EX1_PATH_P_VERTICES

        pairs = fully_labeled_pairs(fam)
        path_keys = {u.key() for u in trace.nodes}
        off_path = [
            (v, w) for v, w in pairs if (v.basis, w.basis) not in path_keys
        ]
        from rankgames.labeledpath import make_node, trace_cycle

        cycle = trace_cycle(fam, make_node(fam, *off_path[0]))
        assert len(cycle.nodes) == 6  # one 3-cycle in the row projection
        cycle_keys = {u.key() for u in cycle.nodes}
        assert cycle_keys == {(v.basis, w.basis) for v, w in off_path}
        exact = {(u.v.coords[:3], u.v.coords[3]) for u in cycle.nodes}
        assert exact == set(EX1_CYCLE_P_VERTICES)
        for coords, payoff in EX1_CYCLE_P_DECIMALS:
            assert any(
                all(abs(float(c) - dc) <= 0.01 for c, dc in zip(v, coords))
                and abs(float(p) - payoff) <= 0.01
                for v, p in exact
            )
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_oracle_equivalence(corpus100):
    with report(2, "enumeration equals the support oracle on 100 games"):
        started = time.monotonic()
        for d in corpus100:
            recs = enumerate_rank1(d)
            oracle = support_enumeration(d.game())
            assert sorted((r.profile.x, r.profile.y) for r in recs) == sorted(
                (r.profile.x, r.profile.y) for r in oracle.equilibria
            )
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_bin_search_bound(corpus100):
    with report(3, "binary search: verified, index +1, within the bound"):
        for d in corpus100:
            rep = bin_search(d)
            rec = rep.equilibrium
            assert verify_equilibrium(d.game(), rec.profile)
            oracle_keys = {
                (r.profile.x, r.profile.y)
                for r in support_enumeration(d.game()).equilibria
            }
            assert (rec.profile.x, rec.profile.y) in oracle_keys
            assert rec.index == 1
            assert rep.iterations <= rep.bound_k + 1


def test_criterion_4_oddness_and_index_theorem(corpus100):
    with report(4, "odd counts, index sum +1, alternating signs"):
        for d in corpus100:
            recs = enumerate_rank1(d)  # raises IndexMismatch on disagreement
            assert len(recs) % 2 == 1
            assert sum(r.index for r in recs) == 1
            trace = trace_path(_family(d))
            signs = [u.sign for u in trace.nodes]
            assert all(s * t == -1 for s, t in zip(signs, signs[1:]))


def test_criterion_5_no_cycles_for_rank1(corpus30):
    with report(5, "rank-1: all fully-labeled pairs lie on the path"):
        for d in corpus30:
            fam = _family(d)
            trace = trace_path(fam)
            pairs = fully_labeled_pairs(fam)
            assert {(v.basis, w.basis) for v, w in pairs} == {
                u.key() for u in trace.nodes
            }


def test_criterion_6_monotonicity(corpus30):
    with report(6, "path coordinate strictly increasing, parts nondecreasing"):
        for d in corpus30:
            fam = _family(d)
            trace = trace_path(fam)
            gs = [g_value(fam, u) for u in trace.nodes]
            assert all(b > a for a, b in zip(gs, gs[1:]))
            lams = [fam.lambda_of(u.w) for u in trace.nodes]
            assert all(b >= a for a, b in zip(lams, lams[1:]))
            bys = [g - lam for g, lam in zip(gs, lams)]
            assert all(b >= a for a, b in zip(bys, bys[1:]))


def test_criterion_7_homeomorphism_round_trip(corpus30):
    with report(7, "forward/inverse maps are exact inverses; rank-2 analogue"):
        rng = random.Random(707)
        fixtures = corpus30[:10]
        for d in fixtures:
            fam = _family(d)
            trace = trace_path(fam)
            for _ in range(20):
                alpha_prime = tuple(
                    Fraction(rng.randint(-900, 900), rng.randint(1, 90))
                    for _ in range(fam.m)
                )
                alpha, profile = homeo_inverse(fam, alpha_prime, trace)
                assert homeo_forward(fam, (alpha,), profile)[0] == alpha_prime
        # rank-2 analogue with leading-coordinate distinctness
        d2 = decompose_rank_k(K2_GAME)
        kfam = GameFamily(d2.a, -d2.a, *d2.betas)
        profile = MixedProfile((0, 1, 0), (Fraction(1, 2), 0, Fraction(1, 2)))
        assert verify_equilibrium(K2_GAME, profile)
        image = homeo_forward(kfam, d2.gammas, profile)
        for l in range(d2.k):
            lam = vdot(d2.gammas[l], profile.x)
            assert image[l][0] == lam + vdot(d2.betas[l], profile.y)
        alphas2 = tuple(tuple(g + 1 for g in gamma) for gamma in d2.gammas)
        rec2 = support_enumeration(kfam.game_at(*alphas2)).equilibria[0]
        image2 = homeo_forward(kfam, alphas2, rec2.profile)
        assert tuple(i[0] for i in image) != tuple(i[0] for i in image2)


def test_criterion_8_general_game_guarantee():
    with report(8, "general games: the path equilibrium is an oracle member"):
        games = random_general_games(
            seed=808, count=50, min_mn=2, max_mn=4, pipeline=solve_general
        )
        assert len(games) == 50
        for game in games:
            rec = solve_general(game)
            assert verify_equilibrium(game, rec.profile)
            oracle_keys = {
                (r.profile.x, r.profile.y)
                for r in support_enumeration(game).equilibria
            }
            assert (rec.profile.x, rec.profile.y) in oracle_keys


def test_criterion_9_objective_zero_certificate(corpus30):
    with report(9, "section optimum exactly zero; strict gap off the set"):
        rng = random.Random(909)
        fixtures = corpus30[:10]
        full_checks = 0
        for d in fixtures:
            fam = _family(d)
            full = frozenset(range(1, fam.m + fam.n + 1))
            for _ in range(10):
                delta = Fraction(rng.randint(-500, 500), rng.randint(1, 50))
                opt = solve_lp_delta(fam, delta)
                assert section_gap((fam.beta,), opt.v_coords, opt.w_coords) == 0
                assert opt.w_coords[fam.m] == delta
                v_labels = fam.p.labels_at(opt.v_coords)
                w_labels = fam.qp.labels_at(opt.w_coords)
                assert (v_labels | w_labels) == full
            for _ in range(5):
                y = [Fraction(rng.randint(1, 9)) for _ in range(fam.n)]
                y = [v / sum(y) for v in y]
                pi1 = max(vdot(fam.a.row(i), y) for i in range(fam.m)) + rng.randint(1, 4)
                x = [Fraction(rng.randint(1, 9)) for _ in range(fam.m)]
                x = [v / sum(x) for v in x]
                lam = Fraction(rng.randint(-40, 40), 3)
                pi2 = max(
                    vdot(fam.qp.row(fam.m + 1 + j)[0][: fam.m], x)
                    + fam.beta[j] * lam
                    for j in range(fam.n)
                )
                gap = section_gap((fam.beta,), tuple(y) + (pi1,), tuple(x) + (lam, pi2))
                assert gap < 0
                full_checks += 1
        assert full_checks == 50


def test_criterion_10_rank_k_fixed_point():
    with report(10, "rank-2 box map; exact fixed points verify; k=1 agreement"):
        d = decompose_rank_k(K2_GAME)
        kfam = GameFamily(d.a, -d.a, *d.betas)
        lows, highs = box_bounds(d.gammas)
        rng = random.Random(1010)
        for _ in range(20):
            a = tuple(
                lo + (hi - lo) * Fraction(rng.randint(0, 128), 128)
                for lo, hi in zip(lows, highs)
            )
            fa = fixed_point_eval(kfam, d.gammas, a)
            assert all(lo <= v <= hi for v, lo, hi in zip(fa, lows, highs))
        point, rec = fixed_point_search(kfam, d.gammas)
        assert fixed_point_eval(kfam, d.gammas, point) == point
        assert verify_equilibrium(K2_GAME, rec.profile)
        # k = 1: the exact fixed point reproduces the binary-search equilibrium.
        kfam1 = GameFamily(R1A.a, -R1A.a, R1A.beta)
        point1, rec1 = fixed_point_search(kfam1, [R1A.gamma])
        assert fixed_point_eval(kfam1, [R1A.gamma], point1) == point1
        assert rec1.profile == bin_search(R1A).equilibrium.profile
