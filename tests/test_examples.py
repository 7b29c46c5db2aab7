"""Regression tests: every example script must run end to end.

Examples are documentation that executes; running them in-process (module
import + ``main()``) keeps them from silently rotting as the library
evolves.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: pathlib.Path):
    """Import an example file as a throwaway module."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_exist():
    """The deliverable requires at least three runnable examples."""
    assert len(EXAMPLE_FILES) >= 3


# An example that calls a deprecated repro API fails here.  The filter is
# scoped to warnings attributed to the examples themselves (loaded as
# ``example_<stem>``) and to repro modules, so third-party import-time
# deprecations cannot trip it.
@pytest.mark.filterwarnings("error::DeprecationWarning:(example_|repro)")
@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    module = load_example(path)
    assert hasattr(module, "main"), f"{path.name} must expose main()"
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} produced no output"
