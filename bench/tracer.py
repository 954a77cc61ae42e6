"""Per-layer spans recorded from outside the library.

A :class:`Tracer` replaces public functions of ``rankgames`` with timing
wrappers while it is installed. Each wrapper rebinds the name in every
``rankgames`` module that holds it (``from .lp import solve_lp`` copies the
function into ``paramlp`` and ``oracle``), so every call site is seen. Spans
are kept in memory as flat arrays; a layer's self time is its span's duration
minus the durations of the spans it directly caused.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

# (module, attribute, span name). ``Polytope.pivot`` is a method: the class
# attribute is replaced, which every instance sees.
TARGETS = (
    ("rankgames.cli", "main", "cli.main"),
    ("rankgames.cli", "parse_game_file", "cli.parse_game_file"),
    ("rankgames.games", "verify_equilibrium", "games.verify_equilibrium"),
    ("rankgames.games", "decompose_rank1", "games.decompose_rank1"),
    ("rankgames.linalg", "solve_linear_system", "linalg.solve_linear_system"),
    ("rankgames.linalg", "determinant", "linalg.determinant"),
    ("rankgames.lp", "solve_lp", "lp.solve_lp"),
    ("rankgames.polytope", "Polytope.pivot", "polytope.pivot"),
    ("rankgames.polytope", "Polytope.edge_through_point", "polytope.edge_through_point"),
    ("rankgames.labeledpath", "step", "labeledpath.step"),
    ("rankgames.labeledpath", "node_sign", "labeledpath.node_sign"),
    ("rankgames.paramlp", "is_ne", "paramlp.is_ne"),
    ("rankgames.paramlp", "solve_lp_delta", "paramlp.solve_lp_delta"),
    ("rankgames.paramlp", "crossing_records", "paramlp.crossing_records"),
    ("rankgames.algorithms", "bin_search", "algorithms.bin_search"),
    ("rankgames.algorithms", "enumerate_rank1", "algorithms.enumerate_rank1"),
    ("rankgames.algorithms", "enumerate_general", "algorithms.enumerate_general"),
)


class Tracer:
    """Span recorder; use as a context manager around the traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.lp_pivots = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_start.append(clock())
            self.span_end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_pivots(self, solution) -> None:
        self.lp_pivots += solution.pivots

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._rebind(owner, method, self._wrap(name, vars(owner)[method]))
                continue
            original = getattr(module, attr)
            hook = self._count_pivots if name == "lp.solve_lp" else None
            wrapper = self._wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "rankgames":
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)
        return self

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def summary(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self time (seconds) per span name."""
        calls: Counter = Counter()
        duration = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(duration)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += duration[idx]
        self_s = {name: 0.0 for name in self.names}
        for idx, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += duration[idx] - child[idx]
        for name in self.names:
            calls.setdefault(name, 0)
        return calls, self_s

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, name, start and end in seconds."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for idx in range(len(self.span_start)):
                fh.write(
                    f"{idx}\t{self.span_parent[idx]}\t{self.names[self.span_name[idx]]}\t"
                    f"{self.span_start[idx] - t0:.6f}\t{self.span_end[idx] - t0:.6f}\n"
                )
