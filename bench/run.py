"""Seeded benchmark of the rankgames ``solve`` and ``enumerate`` verbs.

Run from the repository root:

    python3 bench/run.py --workload rank1-solve --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one caller: the CLI entry point
``rankgames.cli.main([verb, "--input", file, "--json"])`` is called in this
process on one instance after another. A workload's corpus is fixed; the seed
sets the order in which its instances are called. The timed loop calls every
instance once, then goes round the corpus again until ``--seconds`` have
passed. Every first answer is checked exactly after the timed loop, and every
repeat must print the same answer. Times are scaled to a fixed machine speed,
which a reference computation timed before every call measures. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the corpus untraced and then
traced, and prints the per-layer metrics. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from check import ORACLE_MAX, check_answer
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC, TESTS = ROOT / "src", ROOT / "tests"
WORK = ROOT / ".bench_work"

CORPUS_SEED = 1  # seeds the games of every workload's corpus
SETUP_REPEATS = 15
SPEED_WINDOW = 4  # reference samples on each side of a call that scale its time
REF_SIZE = 10  # order of the Hilbert matrix the reference computation reduces
REF_NOMINAL_S = 0.0025  # reference time at the speed that timings are scaled to
OUTCOMES = ("ok", "degenerate", "guard", "internal_error", "wrong_answer")
EXIT_OUTCOME = {3: "degenerate", 4: "guard"}  # rankgames.cli exit codes


@dataclass(frozen=True)
class Workload:
    verb: str
    rank1: bool
    round_sizes: tuple[int, ...]  # one square instance per entry
    rounds: int  # the corpus holds this many rounds
    fixed: bool = False  # attempt the item-1 reproducers first, outside --seconds


# Each corpus takes about 10 s to call once at the nominal speed, so that the
# first pass ends within a 25-second run on a machine twice as slow. Rounds
# repeat the cheap sizes, so that p50 and p75 fall inside a size block rather
# than between two. Seeded sizes stop at 8 and rank1-solve keeps to 4x4 and
# 5x5, where one game's cost is small against the corpus; the 14x14 reproducer
# covers the large end. Rounds skip 6x6, whose oracle check costs ~0.5 s.
WORKLOADS = {
    # bin_search: the section LPs (lp via paramlp) do almost all the work.
    "rank1-solve": Workload("solve", True, (4, 4, 5), 20, fixed=True),
    # enumerate_rank1: two anchor LPs per game, then the full path walk.
    "rank1-enumerate": Workload("enumerate", True, (4, 5, 4, 7, 5, 4, 5, 4, 7, 8), 3),
    # enumerate_general: no LP at all; polytope, linalg and labeledpath.
    "general-enumerate": Workload("enumerate", False, (4, 5, 7, 8), 30),
}

RANK1_SPANS = dict(span=99, gamma_span=20, beta_span=50)
GENERAL_SPAN = 99

# ROADMAP item 1, first reproducer: B = -A + gamma beta^T.
ITEM1_A = [[-11, -12, 22, 20, -27], [2, -29, -19, -8, -15], [-29, 20, -18, 29, 10],
           [-29, 19, -9, -14, 23]]
ITEM1_GAMMA = [7, -19, -18, 0]
ITEM1_BETA = [17, 17, 13, 10, 11]


@dataclass(frozen=True)
class Instance:
    name: str
    a: list  # payoff rows of Fractions
    b: list
    rank1: bool

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.a[0])

    def text(self) -> str:
        rows = [f"{self.m} {self.n}"] + [" ".join(map(str, r)) for r in self.a + self.b]
        return "\n".join(rows) + "\n"


def _rank1_instance(name: str, a, gamma, beta) -> Instance:
    a = [[Fraction(v) for v in row] for row in a]
    b = [[-a[i][j] + Fraction(gamma[i]) * beta[j] for j in range(len(beta))]
         for i in range(len(a))]
    return Instance(name, a, b, True)


def corpus(workload: Workload, seed: int, fixtures) -> tuple[list, list]:
    """The fixed members, and the corpus in the order that ``seed`` sets.

    The games are the same for every seed: ``CORPUS_SEED`` draws them, round
    after round. Rank-1 instances come from ``fixtures.random_rank1`` with the
    wide spans; general instances draw A and B uniformly from [-99, 99].
    Nothing is filtered, so degenerate instances stay in and are counted.
    """
    fixed = []
    if workload.fixed:
        fixed.append(_rank1_instance("item1-4x5", ITEM1_A, ITEM1_GAMMA, ITEM1_BETA))
        d = fixtures.random_rank1(random.Random(14), 14, 14, **RANK1_SPANS)
        fixed.append(_rank1_instance("item1-14x14", d.a.tolists(), d.gamma, d.beta))
    rng = random.Random(CORPUS_SEED)
    games = []
    for count in range(workload.rounds * len(workload.round_sizes)):
        size = workload.round_sizes[count % len(workload.round_sizes)]
        name = f"{count:05d}-{size}x{size}"
        if workload.rank1:
            d = fixtures.random_rank1(rng, size, size, **RANK1_SPANS)
            games.append(_rank1_instance(name, d.a.tolists(), d.gamma, d.beta))
        else:
            a, b = ([[Fraction(rng.randint(-GENERAL_SPAN, GENERAL_SPAN))
                      for _ in range(size)] for _ in range(size)] for _ in range(2))
            games.append(Instance(name, a, b, False))
    random.Random(seed).shuffle(games)
    return fixed, games


def write(instances: list[Instance], workdir: Path) -> list[tuple[Instance, str]]:
    """Each instance with the path of its game file, written under ``workdir``."""
    items = []
    for inst in instances:
        path = workdir / f"{inst.name}.txt"
        path.write_text(inst.text(), encoding="utf-8")
        items.append((inst, str(path)))
    return items


def reference() -> float:
    """Seconds taken by a fixed exact computation: a probe of the machine's speed.

    The speed of a shared machine changes by up to 1.9x from one stretch of
    seconds to the next, and by a third between hours. Gaussian elimination
    of a Hilbert matrix in ``Fraction`` is the same kind of work as the
    solver's, and it does not depend on the code under test.
    """
    start = time.perf_counter()
    rows = [[Fraction(1, i + j + 1) for j in range(REF_SIZE)] for i in range(REF_SIZE)]
    for k in range(REF_SIZE):
        for r in range(k + 1, REF_SIZE):
            f = rows[r][k] / rows[k][k]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
    return time.perf_counter() - start


def scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """Each time scaled by the median reference sample around it."""
    out = []
    for i, t in enumerate(seconds):
        window = refs[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1]
        out.append(t * REF_NOMINAL_S / statistics.median(window))
    return out


def set_up(workload: Workload, seed: int, workdir: Path):
    """Fresh import of the package; the fixed members and the corpus written out."""
    for name in [n for n in sys.modules if n.split(".")[0] in ("rankgames", "fixtures")]:
        del sys.modules[name]
    cli = importlib.import_module("rankgames.cli")
    fixtures = importlib.import_module("fixtures")
    fixed, games = corpus(workload, seed, fixtures)
    return cli, write(fixed, workdir), write(games, workdir)


@dataclass
class Attempt:
    instance: Instance
    seconds: float
    code: object  # CLI exit code, or None when an exception escaped
    stdout: str
    stderr: str
    outcome: str = ""
    reason: str = ""
    ref: float = 0.0  # reference time measured just before the call
    spans: tuple[int, int] = (0, 0)  # the call's span ids in a traced pass


def attempt(cli, verb: str, inst: Instance, path: str) -> Attempt:
    ref = reference()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([verb, "--input", path, "--json"])
    except Exception as exc:  # an escaped library error is an outcome to count
        code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return Attempt(inst, seconds, code, out.getvalue(), err.getvalue(), ref=ref)


def oracle_keys(inst: Instance) -> set:
    """(x, y) of every equilibrium, by support enumeration (ground truth)."""
    oracle = importlib.import_module("rankgames.oracle")
    games = importlib.import_module("rankgames.games")
    game = games.BimatrixGame.from_lists(inst.a, inst.b)
    return {(r.profile.x, r.profile.y)
            for r in oracle.support_enumeration(game, guard=ORACLE_MAX).equilibria}


def classify(attempts: list[Attempt], verb: str, repeats: list[Attempt] = ()) -> None:
    """Fill in each attempt's outcome; runs outside every timed region.

    ``repeats`` are later calls on the same instances, in the same order; an
    instance whose repeat prints another answer is a wrong answer.
    """
    for att in attempts:
        if att.code == 0:
            att.reason = check_answer(att.instance, verb, att.stdout, oracle_keys)
            att.outcome = "wrong_answer" if att.reason else "ok"
        else:
            att.outcome = EXIT_OUTCOME.get(att.code, "internal_error")
            att.reason = att.stderr.strip().splitlines()[-1] if att.stderr.strip() else ""
    for att, again in zip(itertools.cycle(attempts), repeats):
        if (again.code, again.stdout) != (att.code, att.stdout):
            att.outcome, att.reason = "wrong_answer", "a repeat printed another answer"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def busy(attempts: list[Attempt]) -> float:
    """Summed scaled time of the calls."""
    return sum(scaled([a.seconds for a in attempts], [a.ref for a in attempts]))


def per_instance(calls: list[Attempt], count: int) -> list[float]:
    """Median scaled time of each of the first ``count`` calls' instances."""
    seconds = scaled([a.seconds for a in calls], [a.ref for a in calls])
    return [statistics.median(seconds[i::count]) for i in range(count)]


def end_to_end(fixed: list[Attempt], first: list[Attempt], seconds: list[float],
               setup_s: float) -> dict:
    """Rates and latencies of the corpus inside ``--seconds``; outcomes of all.

    ``seconds`` holds each corpus instance's median scaled time, so every
    instance weighs the same however often the loop reached it.
    """
    ok = [a.outcome == "ok" for a in first]
    # A failed instance misses every latency limit.
    latency = [t if good else math.inf for t, good in zip(seconds, ok)]
    verified = sum(a.outcome == "ok" for a in fixed + first)
    return {
        "solved_per_s": (sum(ok) / sum(seconds), "1/s"),
        "latency_p50_s": (percentile(latency, 0.50), "s"),
        "latency_p75_s": (percentile(latency, 0.75), "s"),
        "verified_frac": (verified / len(fixed + first), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(attempts: list[Attempt], tracer: Tracer, overhead: float) -> dict:
    calls, self_s = tracer.summary()
    ok = [a for a in attempts if a.outcome == "ok"]
    answers = [json.loads(a.stdout) for a in ok]
    iterations = sum(doc.get("iterations", 0) for doc in answers)
    bound = sum(doc.get("bound_k", 0) for doc in answers)
    equilibria = sum(len(doc["equilibria"]) for doc in answers)
    step = tracer.names.index("labeledpath.step")
    ok_steps = sum(tracer.span_name[lo:hi].count(step) for lo, hi in (a.spans for a in ok))
    lp_calls = calls["lp.solve_lp"]
    metrics = {
        "lp.solve_lp.calls": (lp_calls, "count"),
        "lp.solve_lp.self_s": (self_s["lp.solve_lp"], "s"),
        "lp.pivots": (tracer.lp_pivots, "count"),
        "lp.pivots_per_solve": (tracer.lp_pivots / lp_calls if lp_calls else 0.0, "ratio"),
        "paramlp.is_ne.calls": (calls["paramlp.is_ne"], "count"),
        "algorithms.bin_search.iterations": (iterations, "count"),
        "algorithms.bin_search.iterations_per_bound": (
            iterations / bound if bound else 0.0, "ratio"),
        "labeledpath.steps_per_equilibrium": (
            ok_steps / equilibria if equilibria else 0.0, "ratio"),
    }
    for name in ("paramlp.solve_lp_delta", "polytope.pivot", "polytope.edge_through_point",
                 "linalg.solve_linear_system", "labeledpath.node_sign", "linalg.determinant",
                 "paramlp.crossing_records", "games.verify_equilibrium"):
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics["labeledpath.step.calls"] = (calls["labeledpath.step"], "count")
    for name in ("games.decompose_rank1", "cli.parse_game_file", "algorithms.bin_search",
                 "algorithms.enumerate_rank1", "algorithms.enumerate_general"):
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for outcome in OUTCOMES:
        metrics[f"outcome.{outcome}"] = (sum(a.outcome == outcome for a in attempts), "count")
    metrics["failed_frac"] = (
        sum(a.outcome != "ok" for a in attempts) / len(attempts), "ratio")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    """Metrics, attempts and the tracer (None when untraced) of one run."""
    workload = WORKLOADS[workload_name]
    verb = workload.verb
    workdir = WORK / f"games-{workload_name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, refs = [], []
        for _ in range(SETUP_REPEATS):
            refs.append(reference())
            start = time.perf_counter()
            cli, fixed_items, items = set_up(workload, seed, workdir)
            setups.append(time.perf_counter() - start)
        setup_s = statistics.median(scaled(setups, refs))
        if not trace:
            # The fixed members run before the clock and count only in outcomes.
            fixed = [attempt(cli, verb, inst, path) for inst, path in fixed_items]
            calls = []
            deadline = time.perf_counter() + seconds
            while len(calls) < len(items) or time.perf_counter() < deadline:
                inst, path = items[len(calls) % len(items)]
                calls.append(attempt(cli, verb, inst, path))
            first = calls[:len(items)]
            classify(fixed, verb)
            classify(first, verb, calls[len(items):])
            print(f"{len(calls)} timed calls on {len(items)} instances")
            metrics = end_to_end(fixed, first, per_instance(calls, len(items)), setup_s)
            return metrics, fixed + first, None

        untraced = [attempt(cli, verb, inst, path) for inst, path in items]
        attempts = []
        with Tracer() as tracer:
            for inst, path in fixed_items + items:
                start = len(tracer.span_start)
                attempts.append(attempt(cli, verb, inst, path))
                attempts[-1].spans = (start, len(tracer.span_start))
        classify(attempts, verb)
        overhead = busy(attempts[len(fixed_items):]) / busy(untraced) - 1
        return per_layer(attempts, tracer, overhead), attempts, tracer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rankgames" / "cli.py").is_file() or not (TESTS / "fixtures.py").is_file():
        print(f"error: no rankgames source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [p for p in (str(SRC), str(TESTS)) if p not in sys.path]

    metrics, attempts, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.tsv")

    failed = sum(a.outcome != "ok" for a in attempts)
    wrong = [a for a in attempts if a.outcome == "wrong_answer"]
    counts = {o: sum(a.outcome == o for a in attempts) for o in OUTCOMES}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(attempts)} attempted, {failed} failed, failed_frac {failed / len(attempts):.4f}")
    print("outcomes " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"reference median {statistics.median(a.ref for a in attempts):.6f} s, "
          f"timings scaled to {REF_NOMINAL_S} s")
    for att in attempts:
        if att.outcome not in ("ok", "degenerate"):
            print(f"  {att.outcome} {att.instance.name}: {att.reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
