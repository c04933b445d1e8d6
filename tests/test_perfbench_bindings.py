"""The benchmark's tracer wraps library functions by the names callers look
them up by, and stops a traced run when one is missing. This checks the same
names here, without installing any wrapper, so a library change that drops
a traced binding fails the unit suite instead of the benchmark. It also runs
the benchmark's self-test, so a library change that breaks one of the
benchmark's output checks fails here too."""

import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import ssitls

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_library_subclass_redefines_a_traced_method():
    """The tracer wraps each method on its class; a subclass that defines it
    again would run unwrapped for the subclass's instances."""
    tracing = _tracing_module()
    for module in pkgutil.iter_modules(ssitls.__path__):
        importlib.import_module(f"ssitls.{module.name}")
    redefined = [f"{sub.__module__}.{sub.__qualname__}.{attr}"
                 for _name, cls, attr in tracing.METHODS
                 for sub in _subclasses(cls)
                 if sub.__module__.startswith("ssitls.") and attr in sub.__dict__]
    assert not redefined


def test_benchmark_selftest_passes():
    result = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
