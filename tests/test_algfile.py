import json

import pytest

from opalg import gl_assoc, so_n
from opalg.algfile import (
    AlgebraFile,
    ParseError,
    algebra_file_digest,
    entry_to_algebra_file,
    parse_algebra_file,
    render_algebra_file,
)
from opalg.catalog import build_entry
from opalg.suites import run_suite


def test_minimal_abelian_file():
    af = parse_algebra_file('{"dimension": 1, "bracket": []}')
    assert af.dimension == 1
    assert af.bracket is not None
    assert af.bracket.sorted_rows() == []
    assert af.triple is None


def test_exported_catalog_entry_round_trips():
    so3 = so_n(3)
    text = render_algebra_file(entry_to_algebra_file(so3))
    af = parse_algebra_file(text)
    assert af.bracket == so3.bracket
    assert render_algebra_file(af) == text  # byte-for-byte after canonicalization


def test_operator_export_round_trips():
    entry = build_entry("example2-gl2?q=diag:1,2")
    text = render_algebra_file(entry_to_algebra_file(entry))
    af = parse_algebra_file(text)
    assert af.operators == dict(entry.operators)
    assert af.triple == entry.triple


def test_basis_names_round_trip_and_suites_accept_them(tmp_path):
    data = json.loads(render_algebra_file(entry_to_algebra_file(build_entry("example4-so3"))))
    data["basis_names"] = ["L_x", "L_y", "L_z"]
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    af = parse_algebra_file(text)
    assert af.basis_names == ("L_x", "L_y", "L_z")
    assert render_algebra_file(af) == text
    path = tmp_path / "so3-named.json"
    path.write_text(text)
    for suite in ("lie-base", "rrho"):
        report = run_suite(str(path), suite)
        assert report.passed and report.source == str(path), suite


def test_digest_is_deterministic():
    entry = build_entry("example4-so3")
    af = entry_to_algebra_file(entry)
    assert algebra_file_digest(af) == algebra_file_digest(af)


def test_unreduced_scalar_rejected():
    with pytest.raises(ParseError, match="bracket"):
        parse_algebra_file('{"dimension": 2, "bracket": [[0, 1, 0, "2/4"]]}')


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{", "invalid JSON"),
        ("[]", "top level"),
        ('{"dimension": 0}', "dimension"),
        ('{"dimension": 2, "extra": 1}', "unknown top-level"),
        ('{"dimension": 2, "bracket": [[0, 1, 2, "1"]]}', "out of range"),
        ('{"dimension": 2, "bracket": [[0, 1, 0, "1"], [0, 1, 0, "2"]]}', r"^bracket\[1\]: duplicate entry \(0, 1, 0\)$"),
        ('{"dimension": 2, "bracket": [[0, 1, "1"]]}', "expected"),
        ('{"dimension": 2, "triple": [[0, 0, 0, 0, "1"], [0, 0, 0, 0, "1"]]}', r"^triple\[1\]: duplicate entry \(0, 0, 0, 0\)$"),
        ('{"dimension": 2, "operators": {"R": [["1", "0"]]}}', "matrix"),
        ('{"dimension": 2, "operators": {"R": [["1", "0"], ["0", 1]]}}', "scalar"),
        ('{"dimension": 2, "basis_names": ["x"]}', "basis_names"),
        ('{"dimension": 2, "bracket": [[0, true, 0, "1"]]}', "out of range"),
        ('{"dimension": 2, "bracket": {}}', "bracket must be a list"),
        ('{"dimension": 2, "triple": "rows"}', "triple must be a list"),
        ('{"dimension": 2, "triple": [[0, 0, 0, "1"]]}', r"triple\[0\]: expected \[i, j, k, l, scalar\]"),
        ('{"dimension": 2, "triple": [[0, 0, 2, 0, "1"]]}', r"triple\[0\]: index 2 out of range"),
        ('{"dimension": 2, "triple": [[0, 0, 0, false, "1"]]}', r"triple\[0\]: index False out of range"),
        ('{"dimension": 1, "operators": {"R": [["1"]], "R": [["0"]]}}', r"^repeated JSON key 'R'$"),
        ('{"dimension": 1, "operators": {"R": [["0"]], "R": [["1"]]}}', r"^repeated JSON key 'R'$"),
        ('{"dimension": 2, "dimension": 1}', r"^repeated JSON key 'dimension'$"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_algebra_file(text)


def test_require_helpers():
    af = parse_algebra_file('{"dimension": 2}')
    with pytest.raises(ParseError):
        af.require_bracket()
    with pytest.raises(ParseError):
        af.require_triple()
    with pytest.raises(ParseError):
        af.require_operator("R")


def test_render_omits_empty_sections():
    af = AlgebraFile(dimension=2)
    text = render_algebra_file(af)
    assert "bracket" not in text and "operators" not in text
    assert parse_algebra_file(text).dimension == 2


def test_triple_round_trip_preserves_tensor():
    gl2 = gl_assoc(2)
    af = entry_to_algebra_file(gl2)
    back = parse_algebra_file(render_algebra_file(af))
    assert back.triple == gl2.triple
