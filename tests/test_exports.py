"""Each package's export table is its one list of exports: `__all__`,
`dir()` and the lazy `__getattr__` all read it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PACKAGES = [
    "overrun_lint",
    "overrun_lint.frontend",
    "overrun_lint.semantics",
    "overrun_lint.detectors",
    "overrun_lint.reporting",
    "overrun_lint.runtime",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    assert len(package.__all__) == len(set(package.__all__))
    for export in package.__all__:
        getattr(package, export)


def run_fresh(code: str) -> None:
    """Run code in a fresh interpreter: this one has read every export
    already, and a read name stays on its package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_exported_name_before_any_is_read(name):
    run_fresh(
        f"import sys, {name} as p\n"
        "before = set(sys.modules)\n"
        "assert set(p.__all__) <= set(dir(p)), set(p.__all__) - set(dir(p))\n"
        "assert set(sys.modules) == before, 'dir() imported a module'\n"
    )


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_in_a_fresh_interpreter(name):
    run_fresh(f"from {name} import *\nimport {name} as p\nassert all(n in globals() for n in p.__all__)\n")


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
