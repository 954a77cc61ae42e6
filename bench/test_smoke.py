"""Smoke test of the benchmark harness at a tiny size.

Run from the repository root with ``python3 -m pytest bench``.
"""
import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import check
import run

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
FULL = dict(run.WORKLOADS)
TINY = {
    "rank1-solve": run.Workload("solve", True, (3, 4), 2),
    "rank1-enumerate": run.Workload("enumerate", True, (3, 4), 2),
    "general-enumerate": run.Workload("enumerate", False, (3, 4), 3),
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(run.TESTS))
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setattr(run, "WORKLOADS", TINY)


def bench(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    text = out.getvalue()
    return text, json.loads(text.splitlines()[-1])


def corpus_texts(workload: run.Workload, seed: int) -> list[str]:
    import fixtures

    fixed, games = run.corpus(workload, seed, fixtures)
    return [inst.text() for inst in fixed + games]


@pytest.mark.parametrize("name", ["rank1-solve", "rank1-enumerate", "general-enumerate"])
def test_same_seed_same_corpus(name):
    workload = FULL[name]
    texts = corpus_texts(workload, 7)
    assert corpus_texts(workload, 7) == texts
    # Another seed calls the same games in another order.
    other = corpus_texts(workload, 8)
    assert other != texts and sorted(other) == sorted(texts)


@pytest.mark.parametrize("name", sorted(TINY))
def test_attempted_and_failed_do_not_depend_on_seed_or_time(name):
    results = [bench(name, seed, 0)[1] for seed in (1, 2)]
    assert results[0]["attempted"] == TINY[name].rounds * len(TINY[name].round_sizes)
    assert [(r["attempted"], r["failed"]) for r in results] == [
        (results[0]["attempted"], results[0]["failed"])] * 2


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, kind):
    text, result = bench("rank1-solve", 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in text.splitlines())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        _, result = bench("rank1-enumerate", 3, 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["paramlp.solve_lp_delta.calls"] > 0


def test_general_enumerate_makes_no_lp_call():
    _, result = bench("general-enumerate", 1, 1)
    assert result["metrics"]["lp.solve_lp.calls"]["value"] == 0
    assert result["metrics"]["labeledpath.step.calls"]["value"] > 0


def test_wrappers_are_removed():
    bench("rank1-solve", 2, 1)
    polytope = sys.modules["rankgames.polytope"]
    owners = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "rankgames"]
    for owner in owners + [polytope.Polytope]:
        assert not [k for k, v in vars(owner).items() if hasattr(v, "__wrapped__")]


def answers(verb: str, tmp_path, count: int):
    """(instance, CLI answer) for the first verified instances of a tiny corpus."""
    import fixtures
    from rankgames import cli

    _, games = run.corpus(run.Workload("enumerate", True, (3, 4), 2 * count), 1, fixtures)
    found = []
    for inst, path in run.write(games, tmp_path):
        att = run.attempt(cli, verb, inst, path)
        if att.code == 0 and not check.check_answer(inst, verb, att.stdout, run.oracle_keys):
            found.append((inst, json.loads(att.stdout)))
    assert len(found) >= count
    return found[:count]


def rejected(inst, verb: str, doc: dict) -> bool:
    return bool(check.check_answer(inst, verb, json.dumps(doc), run.oracle_keys))


def test_check_rejects_corrupted_answers(tmp_path):
    off_equilibrium = 0
    for verb in ("solve", "enumerate"):
        for inst, doc in answers(verb, tmp_path, 3):
            eq = doc["equilibria"][0]
            bad = copy.deepcopy(doc)
            bad["equilibria"][0]["payoff1"] = str(Fraction(eq["payoff1"]) + 1)
            assert rejected(inst, verb, bad)
            bad = copy.deepcopy(doc)
            bad["equilibria"][0]["index"] = -eq["index"]
            assert rejected(inst, verb, bad)
            bad = copy.deepcopy(doc)
            bad["equilibria"].append(eq)
            assert rejected(inst, verb, bad)
            y = [Fraction(v) for v in eq["y"]]
            for i in range(inst.m):
                x = [Fraction(int(k == i)) for k in range(inst.m)]
                if not check.is_equilibrium(inst.a, inst.b, x, y):
                    bad = copy.deepcopy(doc)
                    bad["equilibria"][0]["x"] = [str(v) for v in x]
                    assert rejected(inst, verb, bad)
                    off_equilibrium += 1
    assert off_equilibrium


def test_check_rejects_even_rank1_enumeration(tmp_path):
    for inst, doc in answers("enumerate", tmp_path, 8):
        if len(doc["equilibria"]) >= 3:
            doc["equilibria"].pop()
            assert rejected(inst, "enumerate", doc)
            return
    pytest.fail("no rank-1 game with three equilibria in the tiny corpus")


def test_repeat_with_another_answer_is_wrong(tmp_path):
    (inst, doc), = answers("enumerate", tmp_path, 1)
    text = json.dumps(doc)
    first = [run.Attempt(inst, 0.1, 0, text, "") for _ in range(2)]
    run.classify(first, "enumerate", [run.Attempt(inst, 0.1, 0, text, "")] * 3)
    assert [a.outcome for a in first] == ["ok", "ok"]
    run.classify(first, "enumerate", [run.Attempt(inst, 0.1, 0, text, "")] * 2
                 + [run.Attempt(inst, 0.1, 3, "", "")])
    assert [a.outcome for a in first] == ["wrong_answer", "ok"]
