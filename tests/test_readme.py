"""Every python code block in README.md runs cleanly against the library as it
is, the command-line section names the options, suites, search targets and
catalog kinds the code has, and the records said to need a Lie bracket are
those that refuse one that is not."""

import argparse
import pathlib
import re

import pytest

from opalg import PreconditionError, catalog
from opalg.cli import _build_parser
from opalg.searches import SEARCH_TARGETS
from opalg.suites import SUITES
from test_lie_proof import ON_A_NON_LIE_BRACKET

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


# ---------------------------------------------------------------------------
# The "Command line" section states the same facts as the code.

COMMAND_LINE = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]


def _listed(after: str, before: str) -> list:
    """The `names` the section lists between two phrases."""
    return re.findall(r"`([^`]+)`", COMMAND_LINE.split(after, 1)[1].split(before, 1)[0])


def _leaf_parsers(parser, path=()):
    """(words after `opalg`, parser) for every subcommand that has no subcommands."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


def test_each_synopsis_line_names_the_options_of_its_subcommand():
    synopsis = re.search(r"^```\n(.*?)^```", COMMAND_LINE, re.M | re.S)[1].splitlines()
    leaves = dict(_leaf_parsers(_build_parser()))
    stated = {}
    for line in synopsis:
        words = line.split()
        path = next(p for p in leaves if tuple(words[1 : 1 + len(p)]) == p)
        stated[path] = set(re.findall(r"--[a-z][a-z0-9-]*", line))
    assert sorted(stated) == sorted(leaves)
    for path, parser in leaves.items():
        options = {s for a in parser._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings}
        assert stated[path] == options, path


def test_the_listed_suites_search_targets_and_catalog_kinds_match_the_code():
    assert _listed("Suites:", ".  Each suite") == list(SUITES)
    assert _listed("Search targets", ".  Asking") == list(SEARCH_TARGETS)
    kinds = {re.sub(r"(<n>|\d+)$", "", name.split("[")[0]) for name in _listed("Catalog names:", ";")}
    assert kinds == set(catalog._KINDS)


def test_the_records_listed_as_needing_a_lie_bracket_are_those_that_refuse_a_non_lie_one():
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.findall(r"`([^`]+)`", text.split("every constructor that needs a Lie bracket (", 1)[1].split(")", 1)[0])
    refusing = []
    for cls, fields in ON_A_NON_LIE_BRACKET.items():
        try:
            cls(*fields)
        except PreconditionError:
            refusing.append(cls.__name__)
    assert sorted(listed) == sorted(refusing)
