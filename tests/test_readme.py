"""Every python code block in README.md runs cleanly against the library as it is."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
