import importlib.util
import os
import sys

import pytest

from opalg import core, formula


@pytest.fixture(autouse=True, scope="session")
def _formula_cache_outside_the_source_tree(tmp_path_factory):
    """The nests the tests compile, among them hundreds of random formulas,
    are cached under a session directory, as ``-X pycache_prefix=`` would put
    them, not beside formula.py."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "pycache_prefix", str(tmp_path_factory.mktemp("pycache")))
        os.makedirs(os.path.dirname(importlib.util.cache_from_source(formula.__file__)))
        yield


@pytest.fixture(autouse=True)
def _scan_guards_are_restored():
    """Every test leaves the scan guards as it found them: applied."""
    yield
    assert core._FORCE.get() is False, "the test left opalg.forced() in effect"
