import pytest

from opalg import core


@pytest.fixture(autouse=True)
def _scan_guards_are_restored():
    """Every test leaves the scan guards as it found them: applied."""
    yield
    assert core._FORCE.get() is False, "the test left opalg.forced() in effect"
