"""The traced benchmark wraps library names by string; a rename must fail here."""
import importlib
import importlib.util
from pathlib import Path

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
