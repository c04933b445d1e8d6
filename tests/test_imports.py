"""Every library module imports on its own in a fresh interpreter, so an
import cycle shows whichever module a program happens to load first."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ssitls

SOURCE_ROOT = str(Path(ssitls.__path__[0]).parent)
MODULES = sorted(module.name for module in pkgutil.iter_modules(ssitls.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_on_its_own(name):
    env = dict(os.environ, PYTHONPATH=SOURCE_ROOT)
    result = subprocess.run([sys.executable, "-c", f"import ssitls.{name}"],
                            capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
