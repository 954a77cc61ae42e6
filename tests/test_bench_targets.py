"""The traced benchmark wraps library names by string; a rename must fail here."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, attr, _span in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert part in vars(owner), f"{module_name}.{attr} is missing"
            owner = vars(owner)[part]
        assert callable(owner), f"{module_name}.{attr} is not callable"
