"""The demos stay runnable against the public API.

Three demos run in process.  `coefficient_spectra.py` integrates the
master equation over a detuning scan (about 10 s) and is only checked
for its imports.
"""
import ast
import contextlib
import io
import runpy
from pathlib import Path

import pytest

import nlfaraday

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize(
    "name", ["pulse_dynamics.py", "scaling_campaign.py", "shot_noise_budget.py"]
)
def test_fast_demo_runs(name):
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(DEMO_DIR / name), run_name="__main__")


def test_demo_imports_are_exported():
    assert len(DEMOS) == 4
    for path in DEMOS:
        names = [
            alias.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "nlfaraday"
            for alias in node.names
        ]
        assert names, path.name
        assert set(names) <= set(nlfaraday.__all__), path.name
