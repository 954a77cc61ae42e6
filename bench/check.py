"""Exact answer check for the benchmark, independent of the solver's own checks.

Every reported equilibrium is tested with a direct ``Fraction`` best-response
computation on the instance's payoff lists. Small instances are compared with
the support-enumeration oracle, which is ground truth only.
"""
from __future__ import annotations

import json
from fractions import Fraction

ORACLE_MAX = 6  # support enumeration stays cheap up to 6x6


def _profile(vec: list[str], size: int) -> tuple[Fraction, ...]:
    values = tuple(Fraction(v) for v in vec)
    if len(values) != size or any(p < 0 for p in values) or sum(values) != 1:
        raise ValueError(f"not a probability vector of length {size}: {vec}")
    return values


def is_equilibrium(a, b, x, y) -> bool:
    """Every pure strategy played with positive weight is a best response."""
    rows = [sum(aij * yj for aij, yj in zip(row, y)) for row in a]
    cols = [sum(b[i][j] * x[i] for i in range(len(x))) for j in range(len(y))]
    best_row, best_col = max(rows), max(cols)
    return all(r == best_row for r, p in zip(rows, x) if p > 0) and all(
        c == best_col for c, q in zip(cols, y) if q > 0
    )


def check_answer(instance, verb: str, stdout: str, oracle) -> str:
    """'' when the CLI's JSON answer is exact and complete, else the reason.

    ``oracle(instance)`` returns the set of (x, y) keys of all equilibria; it
    is called only for instances of at most ``ORACLE_MAX`` strategies a side.
    """
    try:
        doc = json.loads(stdout)
        found = doc["equilibria"]
        keys, indices = [], []
        for eq in found:
            x = _profile(eq["x"], instance.m)
            y = _profile(eq["y"], instance.n)
            if not is_equilibrium(instance.a, instance.b, x, y):
                return "reported profile is not an equilibrium"
            payoff1 = sum(x[i] * instance.a[i][j] * y[j]
                          for i in range(instance.m) for j in range(instance.n))
            payoff2 = sum(x[i] * instance.b[i][j] * y[j]
                          for i in range(instance.m) for j in range(instance.n))
            if Fraction(eq["payoff1"]) != payoff1 or Fraction(eq["payoff2"]) != payoff2:
                return "reported payoffs differ from the profile's payoffs"
            if eq["index"] not in (1, -1):
                return f"index {eq['index']!r} is not +1 or -1"
            keys.append((x, y))
            indices.append(eq["index"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable answer: {exc}"
    if not keys or len(set(keys)) != len(keys):
        return "no equilibrium, or one reported twice"
    if verb == "solve":
        if len(keys) != 1 or indices[0] != 1:
            return "solve must report one equilibrium of index +1"
    elif instance.rank1 and (len(keys) % 2 != 1 or sum(indices) != 1):
        return "rank-1 enumeration must be odd with index sum +1"
    if max(instance.m, instance.n) <= ORACLE_MAX:
        truth = oracle(instance)
        if verb == "solve" or not instance.rank1:
            # General enumeration is complete only on the path component.
            if not set(keys) <= truth:
                return "equilibrium missing from the oracle's set"
        elif set(keys) != truth:
            return "enumeration differs from the oracle's set"
    return ""
