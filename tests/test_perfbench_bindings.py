"""The benchmark's tracer wraps library functions by the names callers look
them up by, and stops a traced run when one is missing. This checks the same
names here, without installing any wrapper, so a library change that drops
a traced binding fails the unit suite instead of the benchmark."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_are_callable():
    tracing = _tracing_module()
    missing = [f"{mod.__name__}.{attr}" for _name, mod, attr in tracing.FUNCTIONS
               if not callable(getattr(mod, attr, None))]
    assert not missing


def test_traced_methods_are_defined_on_their_class():
    tracing = _tracing_module()
    missing = [f"{cls.__qualname__}.{attr}" for _name, cls, attr in tracing.METHODS
               if attr not in cls.__dict__]
    assert not missing
