"""The traced benchmark wraps library names by string; a rename must fail here."""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import rankgames

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    assert tracer.TARGETS
    for module_name, attr, _span in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert part in vars(owner), f"{module_name}.{attr} is missing"
            owner = vars(owner)[part]
        assert callable(owner), f"{module_name}.{attr} is not callable"


def test_pivot_hook_reads_lp_solution_pivots():
    # lp.pivots in the traced bench is the sum of LPSolution.pivots.
    from rankgames.lp import LE, LinearProgram, solve_lp

    sol = solve_lp(LinearProgram.build([1, 1], [[1, 0], [0, 1]], [LE, LE], [1, 1]))
    tracer = load_tracer().Tracer()
    tracer._count_pivots(sol)
    assert tracer.lp_pivots == sol.pivots == 2


def wrapped_attributes() -> list[str]:
    """Attributes of the rankgames modules and of Polytope that carry
    ``__wrapped__``, by which the bench smoke test tells a tracer wrapper."""
    from rankgames.polytope import Polytope

    modules = [importlib.import_module(f"rankgames.{info.name}")
               for info in pkgutil.iter_modules(rankgames.__path__)]
    return [f"{owner.__name__}.{key}" for owner in [rankgames, *modules, Polytope]
            for key, value in vars(owner).items() if hasattr(value, "__wrapped__")]


# Taken when this file is imported, before any test can install a tracer.
WRAPPED_AT_IMPORT = wrapped_attributes()


def test_library_has_no_attribute_a_tracer_would_leave():
    # bench/test_smoke.py::test_wrappers_are_removed takes every such
    # attribute for a wrapper left behind, so the library must have none of
    # its own; the default test run does not collect bench/.
    assert WRAPPED_AT_IMPORT == []
    with load_tracer().Tracer():
        assert wrapped_attributes()
    assert wrapped_attributes() == []
