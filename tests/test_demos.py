"""Every walk-through in demos/ runs cleanly against the library as it is."""

import os
import pathlib
import subprocess
import sys

import pytest

import opalg

SRC = pathlib.Path(opalg.__file__).resolve().parent.parent
DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# lines a demo must print where a clean exit alone would not show a wrong result
EXPECTED_LINES = {"04_quadratic_bunches": "extraction recovers (R, rho) exactly: True"}


def test_the_demos_are_found():
    assert DEMOS and set(EXPECTED_LINES) <= {d.stem for d in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    lines = [line.strip() for line in result.stdout.splitlines()]
    assert lines
    if demo.stem in EXPECTED_LINES:
        assert EXPECTED_LINES[demo.stem] in lines
