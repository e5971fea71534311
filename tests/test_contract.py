"""The exit-code contract, fuzzed: whatever the input, `opalg` ends in 0, 1 or 2.

Hypothesis generates argv for every subcommand over valid and malformed
algebra files and catalog specs with n up to 10^8, and runs each case
in-process under a wall-clock bound.  Some files hold a 3000-digit scalar,
whose computed products pass the 4300-digit str() limit, or one over the
int() limit.  Exit 2 (usage, parse or guard error) must print exactly one
stderr line; exit 3 (a crash) or a case that outlives its bound fails the
test.  `--force` is never passed, so the dimension guards
are what keeps every case small.  A second test draws argv that does not
parse at all, which must also end in exit 2 with one `error:` line.  Last,
named cases pin each exit code to its cause: a computed scalar too long for
`str()` still ends in its verdict, an input too long for `int()` is exit 2
with a message naming it, each malformed scalar is exit 2 with a message
naming its place, and an internal `ValueError` is exit 3.
"""

import contextlib
import io
import json
import signal
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opalg.algfile import algebra_file_to_dict, entry_to_algebra_file, render_algebra_file
from opalg.catalog import _KINDS, build_entry
from opalg.cli import main
from opalg.searches import SEARCH_TARGETS, THEOREM_TARGETS
from opalg.suites import SUITES

SECONDS_PER_CASE = 5
OPERATOR_NAMES = ("R", "R1", "R2", "xi", "rho")
LONG = "7" * 3000  # valid; its products pass the str() limit
NEGATED = {"0": "0", "1": "-1", "-1": "1", "2": "-2", LONG: "-" + LONG, "1/2": "-1/2", "-3/4": "3/4"}
SCALARS = tuple(NEGATED)
BAD_SCALARS = ("7" * (sys.get_int_max_str_digits() + 1), "2/4", "1/0", "x", "", 1)


class CaseTimeout(BaseException):
    """Raised by SIGALRM; a BaseException, so the CLI's crash handler cannot turn it into exit 3."""


def _alarm(signum, frame):
    raise CaseTimeout(f"a case ran longer than {SECONDS_PER_CASE} s")


def _rarely(draw) -> bool:
    """True for about one case in eight: most cases are well formed, so that
    they get past parsing to the checks and the guards."""
    return draw(st.integers(0, 7)) == 3  # not 0: Hypothesis draws the bounds often


# Sizes: small ones run real checks; the large ones lie above every guard.
# Sizes in between are legal but take the guard's few seconds per scan.
small = st.integers(0, 4)
huge = st.integers(37, 10**8)


@st.composite
def catalog_specs(draw) -> str:
    kind = draw(st.sampled_from(tuple(_KINDS)))
    name = f"{kind}{draw(small | huge)}" if kind != "example1-so" or _rarely(draw) else "example1-so3"
    if _rarely(draw):
        junk = ("q=seed:x", "q=diag:1,2", "q=diag:1,1/0", "q=", "q", "triple=none", "color=red", "q=id&q=id")
        return f"{name}?{draw(st.sampled_from(junk))}"
    if kind == "example1-so" and draw(st.booleans()):
        return f"{name}?triple=two-term"
    if kind.startswith("example") and kind != "example1-so" and draw(st.booleans()):
        return f"{name}?q={draw(st.sampled_from(('id', 'seed:3', 'seed:11')))}"
    return name


def _rows(draw, dim: int, arity: int) -> list:
    """Sparse rows on indices below min(dim, 4), antisymmetric in the first
    two about half the time; now and then a malformed or a repeated row."""
    index = st.integers(0, min(dim, 4) - 1)
    rows = draw(st.lists(st.tuples(*[index] * arity, st.sampled_from(SCALARS)).map(list), max_size=5))
    if draw(st.booleans()):
        rows += [[j, i, *rest[:-1], NEGATED[rest[-1]]] for i, j, *rest in rows]
    if _rarely(draw):
        rows.append(draw(st.sampled_from(([0], [dim, 0, 0, 0, "1"][: arity + 1], [0] * arity + ["x"]))))
    unique = {tuple(row[:-1]): row for row in rows}
    return list(unique.values()) if not _rarely(draw) else rows


@st.composite
def algebra_texts(draw) -> str:
    """Exported catalog entries, files built field by field, and broken JSON."""
    how = draw(st.sampled_from(("catalog", "fields", "fields", "fields")))
    if how == "catalog":
        exported = ("so3", "gl2", "example1-so3", "example2-gl2", "example3-gl2", "example4-so3")
        spec = draw(st.sampled_from(exported))
        return render_algebra_file(entry_to_algebra_file(build_entry(spec)))
    if _rarely(draw):
        broken = ("", "{", "[]", "null", '{"dimension": 2', "[" * 5000, '{"dimension": 2, "x": 1}')
        return draw(st.sampled_from(broken))
    dim = draw(st.sampled_from((0, -1, True, 2.5, "3", None)) if _rarely(draw) else st.integers(1, 4) | huge)
    data = {"dimension": dim}
    size = dim if isinstance(dim, int) and 0 < dim else 2
    if not _rarely(draw):
        data["bracket"] = _rows(draw, size, 3)
    if draw(st.booleans()):
        data["triple"] = _rows(draw, size, 4)
    names = OPERATOR_NAMES[: draw(st.integers(0, 4))] if _rarely(draw) else OPERATOR_NAMES
    if size <= 4:
        side = size + 1 if _rarely(draw) else size
        scalars = st.sampled_from(BAD_SCALARS) if _rarely(draw) else st.sampled_from(SCALARS)
        data["operators"] = {n: [[draw(scalars) for _ in range(side)] for _ in range(side)] for n in names}
    elif size <= 140:  # zero operators, just around the dim^2 limit of 128
        data["operators"] = {name: [["0"] * size] * size for name in names}
    if _rarely(draw):
        data["basis_names"] = ["e"] * (size if draw(st.booleans()) else 1)
    return json.dumps(data)


def _options(draw, *flags) -> list:
    argv = []
    for flag, values in flags:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    return argv


@st.composite
def cases(draw) -> tuple:
    """(argv with INPUT and OUT placeholders, algebra file text or None)."""
    commands = ("check", "check", "check", "derive", "derive", "catalog", "search", "convert", "findings")
    command = draw(st.sampled_from(commands))
    text = None
    if command in ("check", "derive", "convert"):
        if draw(st.booleans()):
            source = "catalog:" + draw(catalog_specs())
        else:
            source, text = "INPUT", draw(algebra_texts())
    if command == "check":
        argv = ["check", source, "--suite", draw(st.sampled_from(sorted(SUITES)))]
        argv += _options(
            draw,
            ("--operator", OPERATOR_NAMES),
            ("--operator2", OPERATOR_NAMES),
            ("--variant", ("jacobson", "alternate", "jacobson", "classical")),
            ("--format", ("text", "json")),
        )
    elif command == "derive":
        what = draw(st.sampled_from(("derived-bracket", "quadratic-bracket", "derived-triple")))
        argv = ["derive", source, "--what", what]
        argv += _options(
            draw,
            ("--mode", ("full", "reduced")),
            ("--operator", OPERATOR_NAMES),
            ("--operator2", OPERATOR_NAMES),
        )
    elif command == "catalog":
        argv = ["catalog", "export", draw(catalog_specs())] if draw(st.booleans()) else ["catalog", "list"]
    elif command == "search":
        target = draw(st.sampled_from((*SEARCH_TARGETS, *THEOREM_TARGETS, "perpetual-motion")))
        seed = str(draw(st.integers(-(10**9), 10**9)))
        argv = ["search", target, "--seed", seed, "--trials", str(draw(st.integers(1, 4)))]
        if draw(st.booleans()):
            argv += ["--dim", str(draw(st.integers(-3, 3) | huge | huge.map(lambda n: -n)))]
        bounds = ("-1", "0", "1", "3", "7")
        argv += _options(draw, ("--entry-bound", bounds), ("--format", ("text", "json")))
    elif command == "convert":
        argv = ["convert", source, "--to", draw(st.sampled_from(("xi", "pair")))]
        argv += _options(draw, ("--operator", OPERATOR_NAMES), ("--operator2", OPERATOR_NAMES))
    else:
        argv = ["findings"]
    if command != "catalog" or argv[1] == "export":
        argv += ["--out", "OUT"] if draw(st.integers(0, 3)) == 0 else []
    return argv, text


@settings(
    derandomize=True,
    database=None,
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=cases())
def test_every_input_ends_in_a_documented_exit_code(tmp_path, case):
    argv, text = case
    path, out = tmp_path / "input.json", tmp_path / "out.txt"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "INPUT" else str(out) if a == "OUT" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_CASE)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), stderr.getvalue()
    if code == 2:
        assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()


@st.composite
def unparsed_argv(draw) -> list:
    """argv that argparse refuses: a non-integer --seed or --trials, an
    unknown flag or suite, a missing required option, a missing subcommand."""
    search = ["search", draw(st.sampled_from(sorted(SEARCH_TARGETS))), "--seed", "1", "--trials", "2"]
    check = ["check", "catalog:so3", "--suite", draw(st.sampled_from(sorted(SUITES)))]
    flaw = draw(st.sampled_from(("integer", "flag", "suite", "required", "subcommand")))
    if flaw == "integer":
        search[draw(st.sampled_from((3, 5)))] = draw(st.sampled_from(("x", "1.5", "", "0x10", "--dim")))
        return search
    if flaw == "flag":
        argv = draw(st.sampled_from((search, check, ["findings"], ["catalog", "list"])))
        return argv + [draw(st.sampled_from(("--bogus", "--seeds", "-z", "--no-force")))]
    if flaw == "suite":
        return check[:3] + [draw(st.text(min_size=1).filter(lambda name: name not in SUITES and name[0] != "-"))]
    if flaw == "required":
        argv = draw(st.sampled_from((search, check, ["derive", "catalog:so3"], ["convert", "catalog:so3"])))
        return argv[:2] + argv[4:] if argv[0] in ("search", "check") else argv
    return draw(st.sampled_from(([], ["--force"], ["catalog"], ["catalog", "--out", "x"])))


def _run(argv) -> tuple:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(argv=unparsed_argv())
def test_argv_that_does_not_parse_is_one_line_exit_2(argv):
    code, out, err = _run(argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: opalg"), err


def test_help_exits_zero():
    for argv in (["--help"], ["check", "--help"], ["search", "-h"]):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(argv) == 0
        assert stdout.getvalue().startswith("usage: opalg")


def _gl2_with_R(corner: str) -> dict:
    """The exported gl2 with an operator R that is 0 but for its (0, 0) entry."""
    data = json.loads(render_algebra_file(entry_to_algebra_file(build_entry("gl2"))))
    data["operators"] = {"R": [[corner if r == c == 0 else "0" for c in range(4)] for r in range(4)]}
    return data


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_witness_too_long_for_str_keeps_its_verdict(tmp_path, fmt):
    # every input scalar is under the digit limit; the mYB residual is not
    path = tmp_path / "gl2.json"
    path.write_text(json.dumps(_gl2_with_R("7" * 2200)))
    code, out, err = _run(["check", str(path), "--suite", "myb", "--format", fmt])
    assert (code, err) == (1, "")
    limit = sys.get_int_max_str_digits()
    if fmt == "json":
        myb = json.loads(out)["checks"][-1]
        assert myb["name"] == "myb" and not myb["passed"] and myb["witness"]["indices"] == [1, 2]
        assert max(len(x) for x in myb["witness"]["residual"]) > limit
    else:
        assert "FAIL myb (tuples=7) witness=(1, 2) residual=['-6049382716" in out
        assert max(map(len, out.split("'"))) > limit


def _input_cases(tmp_path) -> list:
    """(argv, the start of the one error line) for inputs too long for int(),
    malformed q specs, a file that is not UTF-8, basis names of the wrong
    length, operators that are not an object, an operator named twice (in
    either order its copies would decide the verdict differently), and a
    bracket that a Lie-only command refuses."""
    digits = sys.get_int_max_str_digits() + 1
    scalar_file, integer_file = tmp_path / "scalar.json", tmp_path / "integer.json"
    scalar_file.write_text(json.dumps(_gl2_with_R("7" * digits)))
    integer_file.write_text('{"dimension": ' + "1" * 5000 + "}")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"dimension": 1, "basis_names": ["é"]}'.encode("latin-1"))
    misnamed, listed = tmp_path / "misnamed.json", tmp_path / "listed-operators.json"
    misnamed.write_text(json.dumps({**_gl2_with_R("1"), "basis_names": ["e11", "e12", "e21"]}))
    listed.write_text(json.dumps({**_gl2_with_R("1"), "operators": [["1", "0", "0", "0"]] * 4}))
    twice = [tmp_path / "R-twice-identity-last.json", tmp_path / "R-twice-identity-first.json"]
    so3 = json.dumps(algebra_file_to_dict(entry_to_algebra_file(build_entry("so3")))["bracket"])
    identity = '[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]'
    corner = '[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]'
    for path, (first, last) in zip(twice, [(corner, identity), (identity, corner)]):
        path.write_text(f'{{"dimension": 3, "bracket": {so3}, "operators": {{"R": {first}, "R": {last}}}}}')
    not_lie = tmp_path / "not-lie.json"
    not_lie.write_text(json.dumps({"dimension": 2, "bracket": [[0, 0, 1, "1"]], "operators": {"R": [["1", "0"]] * 2}}))
    check = ["--suite", "lie-base"]
    return [
        (["check", str(scalar_file), *check], f"operators['R'][0][0]: scalar is {digits} characters long"),
        (["check", str(integer_file), *check], "invalid JSON: an integer has more than"),
        (["check", "catalog:example2-gl2?q=seed:x", *check], "q: seed is not an integer: 'x'"),
        (["check", "catalog:example4-so3?q=diag:1,1/0,2", *check], "q: zero denominator: '1/0'"),
        (["catalog", "export", "gl" + "1" * 5000], "catalog entry gl<n>: n is 5000 characters long"),
        (["check", str(latin1), *check], f"cannot read input {str(latin1)!r}: 'utf-8' codec can't decode"),
        (["check", str(misnamed), *check], "basis_names must be a list of 4 strings"),
        (["check", str(listed), *check], "operators must be an object"),
        *((["check", str(path), "--suite", "myb"], "repeated JSON key 'R'") for path in twice),
        (["derive", str(not_lie), "--what", "quadratic-bracket", "--operator2", "R"], "bracket is not a Lie bracket"),
    ]


def test_a_refused_input_is_one_error_line_naming_it(tmp_path):
    for argv, named in _input_cases(tmp_path):
        code, out, err = _run(argv)
        assert (code, out) == (2, ""), err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1, err
        assert "sys.set_int_max_str_digits" not in err and "int()" not in err


@pytest.mark.parametrize("where", ["operators['R'][0][0]", "bracket[0]"])
@pytest.mark.parametrize(
    "bad", BAD_SCALARS, ids=["over-int-limit", "unreduced", "zero-denominator", "not-a-number", "empty", "not-a-string"]
)
def test_a_malformed_scalar_is_one_error_line_naming_its_place(tmp_path, where, bad):
    data = _gl2_with_R("1")
    if where == "bracket[0]":
        data["bracket"][0][-1] = bad
    else:
        data["operators"]["R"][0][0] = bad
    path = tmp_path / "gl2.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(["check", str(path), "--suite", "lie-base"])
    assert (code, out) == (2, ""), err
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1, err


def test_an_internal_value_error_is_exit_3(monkeypatch):
    from opalg import cli

    def crash(*args):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "run_suite", crash)
    code, out, err = _run(["check", "catalog:so3", "--suite", "lie-base"])
    assert (code, out, err) == (3, "", "internal error: ValueError: internal\n")
