"""Suites, searches, findings document, and the command-line contract."""

import collections
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from opalg import DimensionGuardError, WorkbenchError, catalog, cli, core, forced, searches
from opalg.algfile import ParseError, parse_algebra_file, render_algebra_file
from opalg.cli import _build_parser, main
from opalg.findings import open_question_findings, render_findings
from opalg.formula import Formula
from opalg.searches import TargetIsTheoremError, UnknownTargetError, run_search
from opalg.suites import SUITES, UnknownSuiteError, load_input, run_suite


# ---------------------------------------------------------------------------
# suites


def test_bi_myb_suite_on_multiplication_pair():
    report = run_suite("catalog:example2-gl2", "bi-myb")
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["antisymmetry", "jacobi", "bi-myb"]


def test_rrho_bunch_suite():
    report = run_suite("catalog:example4-so3", "rrho+bunch")
    assert report.passed
    names = [c.name for c in report.checks]
    assert "rrho" in names and "gamma-bunch" in names and "extraction-round-trip" in names


def test_failing_input_reports_witness_and_fails(tmp_path):
    # 3-dim candidate violating Jacobi: c(0,1)=e0, c(1,2)=e1, antisym-completed
    text = json.dumps(
        {
            "dimension": 3,
            "bracket": [
                [0, 1, 0, "1"],
                [1, 0, 0, "-1"],
                [1, 2, 1, "1"],
                [2, 1, 1, "-1"],
            ],
        }
    )
    path = tmp_path / "bad.json"
    path.write_text(text)
    report = run_suite(str(path), "lie-base")
    assert not report.passed
    jacobi = next(c for c in report.checks if c.name == "jacobi")
    assert jacobi.witness.indices == (0, 1, 2)
    assert report.exit_code() == 1


def test_unknown_suite_is_an_error():
    with pytest.raises(UnknownSuiteError):
        run_suite("catalog:so3", "frobenius")


@pytest.mark.parametrize(
    "suite, ignored",
    [(suite, ("operator", "operator2")) for suite in ("lie-base", "jordan-base", "design", "equivariance")]
    + [("myb", ("operator2",))],
)
def test_a_suite_ignores_operator_options_it_does_not_read(suite, ignored):
    plain = run_suite("catalog:example3-gl2", suite)
    report = run_suite("catalog:example3-gl2", suite, dict.fromkeys(ignored, "nope"))
    assert report.to_text() == plain.to_text()
    assert report.to_dict() == {**plain.to_dict(), "options": dict.fromkeys(ignored, "nope")}


@pytest.mark.parametrize(
    "suite, message",
    [
        ("rho", "input has no triple section"),
        ("triple-myb", "input has no triple section"),
        ("bi-myb", "input has no operator named 'R1'"),
    ],
)
def test_a_suite_refuses_a_missing_section_before_a_missing_operator(suite, message):
    # so3 has a bracket, and neither a triple nor an operator
    with pytest.raises(ParseError) as refused:
        run_suite("catalog:so3", suite)
    assert str(refused.value) == message


def test_algebra_files_and_run_reports_refuse_assignment():
    af, _ = load_input("catalog:so3")
    report = run_suite(af, "lie-base")
    assert report.source == "<memory>"
    for record, field in ((af, "operators"), (report, "checks")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_suite_reports_are_deterministic():
    a = run_suite("catalog:example2-gl2", "even-tempered")
    b = run_suite("catalog:example2-gl2", "even-tempered")
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()


def test_r0_probe_suite_emits_findings(monkeypatch):
    scans = []
    scan_tuples = core.scan_tuples

    def counted(name, *args, **kwargs):
        scans.append(name)
        return scan_tuples(name, *args, **kwargs)

    monkeypatch.setattr(core, "scan_tuples", counted)
    report = run_suite("catalog:example2-gl2", "r0-probe")
    assert report.passed  # midpoint-myb failure is informational
    assert report.findings
    assert report.findings[0]["kind"] == "midpoint-myb-outcome"
    # the suite reports the bi-mYB check that the probe ran as its precondition
    assert scans.count("myb-r1") == scans.count("myb-r2") == 1


def test_rrho_bunch_suite_scans_gamma_bunch_once(monkeypatch):
    scans = []
    scan_tuples = core.scan_tuples

    def counted(name, *args, **kwargs):
        scans.append(name)
        return scan_tuples(name, *args, **kwargs)

    monkeypatch.setattr(core, "scan_tuples", counted)
    report = run_suite("catalog:example4-so3", "rrho+bunch")
    assert report.passed
    assert [c.name for c in report.checks][-1] == "extraction-round-trip"
    # the suite reports the gamma-bunch check that the extraction ran as its precondition
    for d in range(5):
        assert scans.count(f"homomorphism-deg{d}") == 1
        if d == 0:  # b0's Lie proof holds its Jacobiator
            assert scans.count("jacobi-deg0") == 0 and scans.count("jacobi") == 1
        else:
            assert scans.count(f"jacobi-deg{d}") == 1


def _count_binds(monkeypatch) -> list:
    """Wrap Formula.bind; the list it returns collects each bound formula's name."""
    binds = []
    bind = Formula.bind

    def counted(self, structures):
        binds.append(self.name)
        return bind(self, structures)

    monkeypatch.setattr(Formula, "bind", counted)
    return binds


@pytest.mark.parametrize("suite", [name for name, (reads, _, _) in SUITES.items() if "bracket" in reads])
def test_lie_suites_prove_the_bracket_once(monkeypatch, suite):
    proofs = collections.Counter()
    bind = Formula.bind

    def counted(self, structures):
        if self.name in ("antisymmetry", "jacobi"):
            proofs[self.name, structures["bracket"]] += 1
        return bind(self, structures)

    monkeypatch.setattr(Formula, "bind", counted)
    entries = ["example2-gl2", "example2-gl3"]
    if suite in ("lie-base", "myb", "rrho", "rrho+bunch"):  # the suites that read only R and rho
        entries.append("example4-so4?q=seed:11")
    for entry in entries:
        proofs.clear()
        report = run_suite(f"catalog:{entry}", suite, {"force": True})
        bracket = catalog.build_entry(entry).bracket
        # the gate proves the bracket, and every record the body builds on it
        # takes that proof; gamma-bunch reports its b0's antisymmetry from it
        assert proofs.pop(("antisymmetry", bracket)) == 1, entry
        assert proofs.pop(("jacobi", bracket)) == 1, entry
        assert set(proofs.values()) <= {1}, entry


NO_BRACKET, NO_TRIPLE = "input has no bracket section", "input has no triple section"
UNKNOWN_VARIANT = "unknown triple-system identity variant: 'classical'"


def _no_operator(name):
    return f"input has no operator named {name!r}"


# suite -> its refusal of (a file with only a dimension, catalog:so9, which has
# a bracket only, a file with a triple only); None where the input is accepted
REFUSALS = {
    "lie-base": (NO_BRACKET, None, NO_BRACKET),
    "myb": (NO_BRACKET, _no_operator("R"), NO_BRACKET),
    "bi-myb": (NO_BRACKET, _no_operator("R1"), NO_BRACKET),
    "even-tempered": (NO_BRACKET, _no_operator("R1"), NO_BRACKET),
    "xi": (NO_BRACKET, _no_operator("R"), NO_BRACKET),
    "r0-probe": (NO_BRACKET, _no_operator("R1"), NO_BRACKET),
    "jordan-base": (NO_TRIPLE, NO_TRIPLE, None),
    "triple-myb": (NO_TRIPLE, NO_TRIPLE, _no_operator("R")),
    "triple-bi-myb": (NO_TRIPLE, NO_TRIPLE, _no_operator("R1")),
    "design": (NO_BRACKET, NO_TRIPLE, NO_BRACKET),
    "equivariance": (NO_BRACKET, NO_TRIPLE, NO_BRACKET),
    "rho": (NO_TRIPLE, NO_TRIPLE, _no_operator("rho")),
    "rrho": (NO_BRACKET, _no_operator("R"), NO_BRACKET),
    "rrho+bunch": (NO_BRACKET, _no_operator("R"), NO_BRACKET),
}
# the suites that read --operator, and those that also read --operator2
READS_OPERATOR = sorted(set(SUITES) - {"lie-base", "jordan-base", "design", "equivariance"})
READS_OPERATOR2 = sorted(set(READS_OPERATOR) - {"myb", "triple-myb"})


def _refusal_cases():
    for suite, refusals in REFUSALS.items():
        for source, message in zip(("dimension-only", "catalog:so9", "triple-only"), refusals):
            if message is not None:
                yield pytest.param(suite, source, (), message, id=f"{suite}-{source}")
        yield pytest.param(suite, "catalog:example3-gl2", ("--variant", "classical"), UNKNOWN_VARIANT, id=f"{suite}-variant")
    for suite in READS_OPERATOR:
        yield pytest.param(suite, "catalog:example3-gl2", ("--operator", "nope"), _no_operator("nope"), id=f"{suite}-operator")
    for suite in READS_OPERATOR2:
        yield pytest.param(suite, "catalog:example3-gl2", ("--operator2", "nope"), _no_operator("nope"), id=f"{suite}-operator2")
    # a missing section comes before an unknown variant, which comes before a missing operator
    yield pytest.param("jordan-base", "dimension-only", ("--variant", "classical"), NO_TRIPLE, id="section-before-variant")
    yield pytest.param("bi-myb", "catalog:so9", ("--variant", "classical"), UNKNOWN_VARIANT, id="variant-before-operator")


@pytest.mark.parametrize("suite, source, options, message", _refusal_cases())
def test_a_suite_refuses_before_any_scan(monkeypatch, capsys, tmp_path, suite, source, options, message):
    gl2, _ = load_input("catalog:gl2")
    files = {"dimension-only": '{"dimension": 2}', "triple-only": render_algebra_file(gl2.replace(bracket=None))}
    if source in files:
        path = tmp_path / f"{source}.json"
        path.write_text(files[source])
        source = str(path)
    binds = _count_binds(monkeypatch)
    assert run_cli(capsys, "check", source, "--suite", suite, *options) == (2, "", f"error: {message}\n")
    assert binds == []


def test_a_refusal_comes_before_a_failing_proof(tmp_path, capsys):
    # the bracket fails Jacobi and the file has no R: the missing operator is
    # refused before the proof runs, so the request is a usage error, not exit 1
    path = tmp_path / "not-lie.json"
    path.write_text(json.dumps({"dimension": 3, "bracket": [[0, 1, 0, "1"], [1, 0, 0, "-1"], [1, 2, 1, "1"], [2, 1, 1, "-1"]]}))
    assert run_cli(capsys, "check", str(path), "--suite", "myb") == (2, "", f"error: {_no_operator('R')}\n")
    assert run_cli(capsys, "check", str(path), "--suite", "lie-base")[0] == 1


def test_rrho_bunch_suite_tabulates_each_bracket_once(monkeypatch):
    binds = _count_binds(monkeypatch)
    assert run_suite("catalog:example4-so4?q=seed:11", "rrho+bunch").passed
    # the (R, rho) record tabulates each once, and check_rrho and build_bunch
    # both read them there; extraction compares nothing, since its passing
    # gamma-bunch report pins b1 and b2
    assert binds.count("derived-bracket") == 1
    assert binds.count("quadratic-bracket") == 1


def test_run_suite_force_holds_for_its_own_call_only(tmp_path):
    dim = core._SCAN_GUARDS[3] + 1
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dimension": dim, "bracket": []}))
    assert run_suite(str(path), "lie-base", {"force": True}).passed
    with pytest.raises(DimensionGuardError, match="jacobi"):
        run_suite(str(path), "lie-base")
    # without its own force option a suite is guarded, whatever its caller set
    with forced(), pytest.raises(DimensionGuardError, match="jacobi"):
        run_suite(str(path), "lie-base")


def test_jordan_base_suite_reports_both_variants():
    report = run_suite("catalog:gl2", "jordan-base")
    assert report.passed
    informational = [c for c in report.checks if c.informational]
    assert informational and informational[0].name == "jts-alternate"
    assert not informational[0].passed  # recorded, does not affect the verdict


def test_xi_suite():
    report = run_suite("catalog:example2-gl2", "xi", {"operator": "R1", "operator2": "xi"})
    assert report.passed


def test_rho_suite_with_derived_comparison():
    report = run_suite("catalog:example3-gl2", "rho", {"operator2": "R1"})
    assert report.passed
    myb = report.checks[0]
    assert myb.name == "triple-myb" and myb.passed and myb.notes == ("base-JTS-unverified",)
    assert [c.name for c in report.checks[1].subchecks] == ["rho-exchange", "rho-derived-transport"]


def test_rho_suite_transports_no_reduced_triple_where_triple_myb_fails():
    # (t, R) fails triple mYB, so its reduced tabulation is no derived triple
    report = run_suite("catalog:example3-gl2", "rho", {"operator2": "R"})
    assert not report.passed and report.exit_code() == 1
    myb, rho = report.checks
    assert myb.name == "triple-myb" and not myb.passed and myb.witness.indices == (0, 1, 3)
    assert rho.passed and [c.name for c in rho.subchecks] == ["rho-exchange"]


# ---------------------------------------------------------------------------
# searches


def test_search_so3_non_myb_finds_pinned_witness():
    report = run_search("so3-non-myb", seed=42, trials=10)
    assert report.findings
    first = report.findings[0]
    assert first["candidate"] == "diag(1,0,0)"
    assert first["witness"]["indices"] == [1, 2]
    assert "algebra" in first


def test_search_so3_non_myb_checks_each_candidate_as_it_draws_it(monkeypatch):
    log = []
    for name, label in (("random_operator", "draw"), ("check_myb_raw", "check")):
        fn = getattr(searches, name)
        monkeypatch.setattr(searches, name, lambda *args, fn=fn, label=label: log.append(label) or fn(*args))
    report = run_search("so3-non-myb", seed=42, trials=4)
    assert log == ["check"] + ["draw", "check"] * 3
    assert [f["candidate"] for f in report.findings][:1] == ["diag(1,0,0)"]


def test_search_mode_disagreement_finds_witness():
    report = run_search("triple-r-mode-disagreement", seed=3, trials=5)
    assert any(f["kind"] == "derived-triple-mode-disagreement" for f in report.findings)


def test_search_midpoint_not_myb():
    report = run_search("r0-not-myb", seed=42, trials=20)
    assert any(f["kind"] == "midpoint-not-myb" for f in report.findings)


def test_search_non_even_tempered():
    report = run_search("non-even-tempered", seed=5, trials=20)
    assert any(f["kind"] == "myb-but-not-even-tempered" for f in report.findings)


def test_search_diagonal_target_records_honestly():
    # diagonal mYB operators on so(3) are scalar, hence even-tempered; the
    # search records that no witness exists rather than inventing one
    report = run_search("non-even-tempered-diagonal-R", seed=7, trials=200, dim=3)
    kinds = {f["kind"] for f in report.findings}
    assert kinds == {"no-witness"}


def test_search_non_normal_triple():
    report = run_search("non-normal-triple", seed=9, trials=10)
    assert any(f["kind"].startswith("triple-bi-myb-not-") for f in report.findings)


def test_search_verdicts_that_find_nothing_and_a_factorization():
    # the verdicts judged on chosen candidates, so each branch that the seeded
    # searches never reach runs: the identity is mYB on so(3) and its full and
    # reduced derived triples agree on gl(2); diag(1,0,0,0) is not triple
    # bi-mYB on gl(2); and R = rho = R1 = R2 = 0 factorizes on so(3)
    so3, gl2 = catalog.build_entry("so3"), catalog.build_entry("gl2")
    assert searches._non_myb(so3, 0, core.Operator.identity(3)) is None
    assert searches._modes_disagree(gl2, 1, core.Operator.identity(4)) is None
    assert searches._not_normal(gl2, 1, core.Operator.diagonal([1, 0, 0, 0])) is None
    zero = core.Operator.zero(3)
    found = searches._factorization(so3, 2, R=zero, rho=zero, R1=zero, R2=zero)
    assert found == {"kind": "factorization-found", "trial": 2}
    # on the zero bracket, R1 = I and R2 = 0 commute, multiply to rho = 0 and are bi-mYB
    flat, one = so3.replace(bracket=core.BilinearStructure(3)), core.Operator.identity(3)
    found = searches._factorization(flat, 3, R=one, rho=zero, R1=one, R2=zero)
    assert found == {"kind": "factorization-found", "trial": 3}


def test_search_is_deterministic():
    a = run_search("r0-not-myb", seed=11, trials=5)
    b = run_search("r0-not-myb", seed=11, trials=5)
    assert a.to_json() == b.to_json()


def test_search_guards():
    with pytest.raises(TargetIsTheoremError, match="theorem, not a claim"):
        run_search("derived-bracket-jacobi", seed=1, trials=1)
    with pytest.raises(UnknownTargetError):
        run_search("perpetual-motion", seed=1, trials=1)
    with pytest.raises(Exception, match="trials"):
        run_search("so3-non-myb", seed=1, trials=0)


def test_search_proves_the_bracket_lie_once(monkeypatch):
    scans = []
    scan_tuples = core.scan_tuples

    def counted(name, *args, **kwargs):
        scans.append(name)
        return scan_tuples(name, *args, **kwargs)

    monkeypatch.setattr(core, "scan_tuples", counted)
    run_search("non-even-tempered", 1, 16, dim=3)
    # every trial's operator passes mYB and builds a LieBiOperator on the
    # same bracket; its Lie proof is scanned for the first one only
    assert scans.count("myb") == 16
    assert scans.count("antisymmetry") == scans.count("jacobi") == 1


# ---------------------------------------------------------------------------
# findings document


def test_findings_document_items_and_determinism():
    doc = open_question_findings()
    assert set(doc["items"]) == {
        "example1-operator-readings",
        "example1-triple-candidates",
        "example3-derived-triple-sign",
        "jts-identity-variant",
        "even-tempered-triple-first-expression",
    }
    for item in doc["items"].values():
        assert item["conclusion"]
    assert render_findings() == render_findings()


def test_findings_pin_the_adjudicated_outcomes():
    doc = open_question_findings()
    sign = doc["items"]["example3-derived-triple-sign"]
    assert sign["tensor-comparison"]["plus-candidate"]["passed"]
    assert not sign["tensor-comparison"]["minus-candidate"]["passed"]
    assert sign["free-expansion"]["reduced-minus-plus-residual"] == {}

    variant = doc["items"]["jts-identity-variant"]
    assert variant["gl2-tensor-checks"]["jacobson"]["passed"]
    assert not variant["gl2-tensor-checks"]["alternate"]["passed"]
    assert variant["free-expansion"]["jacobson-residual-is-zero"]
    assert variant["free-expansion"]["alternate-residual-words"]

    readings = doc["items"]["example1-operator-readings"]
    for verdict in readings["instances"].values():
        assert not verdict["myb"]["passed"]
        assert verdict["myb"]["witness"]

    chain = doc["items"]["even-tempered-triple-first-expression"]
    assert chain["gl2-tensor-checks"]["symmetrized-reading"]["passed"]
    assert not chain["gl2-tensor-checks"]["as-printed-reading"]["passed"]


# ---------------------------------------------------------------------------
# CLI contract


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_check_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "catalog:example2-gl2", "--suite", "bi-myb")
    assert code == 0
    assert "result: PASS" in out


def test_cli_check_failure_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 3,
                "bracket": [
                    [0, 1, 0, "1"],
                    [1, 0, 0, "-1"],
                    [1, 2, 1, "1"],
                    [2, 1, 1, "-1"],
                ],
            }
        )
    )
    code, out, _ = run_cli(capsys, "check", str(path), "--suite", "lie-base")
    assert code == 1
    assert "FAIL jacobi" in out


def test_cli_usage_errors_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "check", "catalog:nowhere", "--suite", "lie-base")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "check", "catalog:so3", "--suite", "myb")
    assert code == 2 and "operator" in err
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = run_cli(capsys, "check", str(path), "--suite", "lie-base")
    assert code == 2
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run_cli(capsys, "check", str(path), "--suite", "lie-base")
    assert code == 2 and "nested too deeply" in err
    code, _, err = run_cli(capsys, "search", "derived-bracket-jacobi", "--seed", "1", "--trials", "1")
    assert code == 2 and "theorem" in err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize(
    "argv", [("check", "catalog:so3", "--suite", "lie-base"), ("findings",)], ids=["check", "findings"]
)
def test_cli_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, where):
    out = tmp_path / "nowhere" / "r.txt" if where == "missing-directory" else tmp_path
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: cannot write output {str(out)!r}: ") and err.count("\n") == 1
    assert not (tmp_path / "nowhere").exists()


def test_cli_crash_exits_three_not_one(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    help_line, add_arguments, _ = cli._SUBCOMMANDS["findings"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "findings", (help_line, add_arguments, crash))
    code, _, err = run_cli(capsys, "findings")
    assert code == 3
    assert err == "internal error: RuntimeError: boom\n"


def test_cli_json_report_is_machine_readable(capsys):
    code, out, _ = run_cli(
        capsys, "check", "catalog:example4-so3", "--suite", "rrho", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["suite"] == "rrho"
    assert doc["input_digest"]


def test_cli_catalog_list_and_export(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert out == (
        "gl<n>\n"
        "so<n>\n"
        "example1-so3\n"
        "example2-gl<n>[?q=diag:...|seed:<int>|id]\n"
        "example3-gl<n>[?q=...]\n"
        "example4-so<n>[?q=...]\n"
    )
    code, out, _ = run_cli(capsys, "catalog", "export", "so3")
    assert code == 0
    af = parse_algebra_file(out)
    assert af.dimension == 3


GUARD_TEXT = "dim^3 scan at dim={} exceeds guard (limit 36); set the force flag to run it anyway"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("gl", "unknown catalog entry: 'gl'"),
        ("xgl3", "unknown catalog entry: 'xgl3'"),
        ("gl0", "gl(n) requires n >= 1"),
        ("so1", "so(n) requires n >= 2"),
        ("example1-so4", "example1 is defined on so(3)"),
        ("example1-so4?q=id", "catalog entry 'example1-so4' takes no q parameter"),
        ("example1-so4?color=red", "unsupported catalog parameters: ['color']"),
        ("so3?q=id", "catalog entry 'so3' takes no q parameter"),
        ("example2-gl2?q=seed:x", "q: seed is not an integer: 'x'"),
        ("gl7", GUARD_TEXT.format(49)),
        ("example4-so10?q=id", GUARD_TEXT.format(45)),
        ("so3?triple=two-term", "no alternate triple named 'two-term'"),
        ("gl" + "1" * 5000, f"catalog entry gl<n>: n is 5000 characters long, over the limit of {sys.get_int_max_str_digits()} digits"),
    ],
)
def test_cli_catalog_refusals_keep_their_text(capsys, spec, message):
    # the refusal order: name, size, guard, q, other parameters, size of the kind, triple
    assert run_cli(capsys, "catalog", "export", spec) == (2, "", f"error: {message}\n")


def test_convert_help_names_each_default_of_each_target(capsys):
    code, out, _ = run_cli(capsys, "convert", "--help")
    assert code == 0
    text = " ".join(out.split())  # argparse wraps at the terminal width
    first, second = text.split("--operator OPERATOR ")[1].split("--operator2 OPERATOR2 ")
    assert [*cli._CONVERSIONS] == ["xi", "pair"]
    for to, (read, _, _) in cli._CONVERSIONS.items():
        assert f"{read[0]} for --to {to}" in first and f"{read[1]} for --to {to}" in second
    assert "default R1 for --to xi, R for --to pair" in first
    assert "default R2 for --to xi, xi for --to pair" in second


def test_cli_convert_round_trip(tmp_path, capsys):
    xi_path = tmp_path / "xi.json"
    code, _, _ = run_cli(
        capsys, "convert", "catalog:example2-gl2", "--to", "xi", "--out", str(xi_path)
    )
    assert code == 0
    pair_path = tmp_path / "pair.json"
    code, _, _ = run_cli(capsys, "convert", str(xi_path), "--to", "pair", "--out", str(pair_path))
    assert code == 0
    from opalg import example2_gl

    e2 = example2_gl(2)
    back = parse_algebra_file(pair_path.read_text())
    assert back.operators["R1"] == e2.operators["R1"]
    assert back.operators["R2"] == e2.operators["R2"]


def test_cli_derive_emits_parseable_structure(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "catalog:example2-gl2", "--what", "derived-bracket", "--operator", "R1"
    )
    assert code == 0
    af = parse_algebra_file(out)
    from opalg import derived_bracket, example2_gl

    e2 = example2_gl(2)
    assert af.bracket == derived_bracket(e2.bracket, e2.operators["R1"])


REDUCED_R = ("derive", "catalog:example3-gl2", "--what", "derived-triple", "--operator", "R", "--mode", "reduced")
REDUCED_R_REFUSAL = (
    "error: reduced mode requires the triple mYB identity (fails at (0, 1, 3)); rerun with --mode full\n"
)


def test_cli_derive_refuses_a_reduced_triple_without_triple_myb(capsys):
    code, out, err = run_cli(capsys, *REDUCED_R)
    assert (code, out, err) == (2, "", REDUCED_R_REFUSAL)


def test_cli_derive_force_lifts_only_the_dimension_guard(capsys):
    code, out, err = run_cli(capsys, *REDUCED_R, "--force")
    assert (code, out, err) == (2, "", REDUCED_R_REFUSAL)
    code, out, _ = run_cli(capsys, *REDUCED_R[:-1], "full", "--force")
    assert code == 0
    from opalg import MODE_FULL, derived_triple, example3_gl

    e3 = example3_gl(2)
    assert parse_algebra_file(out).triple == derived_triple(e3.triple, e3.operators["R"], MODE_FULL)


def test_only_triple_r_and_one_search_tabulate_the_reduced_triple():
    import ast
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parent.parent
    sources = [*sorted((root / "src" / "opalg").glob("*.py")), *sorted((root / "demos").glob("*.py"))]
    for path in [*sources, root / "README.md"]:
        # the property is read as s.triple_r; nothing calls a triple_r function
        assert not re.search(r"(?<!def )\btriple_r\(", path.read_text(encoding="utf-8")), path
    readers = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "derived_triple":
                mode = node.args[2] if len(node.args) > 2 else None
                mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
                if getattr(mode, "id", None) != "MODE_FULL":
                    readers.add(path.name)
    assert readers == {"jordan.py", "searches.py"}


def test_cli_dimension_guard_and_force(capsys):
    # gl(3) has dimension 9: the alternate-variant dim^5 scan trips the guard
    code, _, err = run_cli(capsys, "check", "catalog:gl3", "--suite", "jordan-base")
    assert code == 2 and "guard" in err
    code, out, _ = run_cli(capsys, "check", "catalog:gl3", "--suite", "jordan-base", "--force")
    assert code == 0
    assert "jts-jacobson" in out


def test_cli_exit_code_does_not_depend_on_input_route(tmp_path, capsys):
    # a catalog entry is checked exactly as its exported file is: both routes
    # meet the dim^5 guard of the triple suite, and give the same reports
    code, exported, _ = run_cli(capsys, "catalog", "export", "example3-gl3")
    assert code == 0
    path = tmp_path / "example3-gl3.json"
    path.write_text(exported)
    reports = {"triple-myb": [], "myb": []}
    for source in ("catalog:example3-gl3", str(path)):
        argv = ("check", source, "--suite", "triple-myb", "--operator", "R1", "--format", "json")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "guard" in err
        code, out, _ = run_cli(capsys, *argv, "--force")
        assert code == 0
        reports["triple-myb"].append(out)
        code, out, _ = run_cli(capsys, "check", source, "--suite", "myb", "--operator", "R1", "--format", "json")
        assert code == 0
        reports["myb"].append(out)
    for outs in reports.values():
        docs = [json.loads(out) for out in outs]
        for doc in docs:
            del doc["source"], doc["input_digest"]
        assert docs[0] == docs[1]


def test_lie_suites_never_check_the_catalog_triple(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a Lie suite checked a triple-system identity")

    for name, module in list(sys.modules.items()):
        if name.startswith("opalg") and hasattr(module, "check_jts_identity"):
            monkeypatch.setattr(module, "check_jts_identity", refuse)
    for argv in (
        ("catalog:example2-gl4", "--suite", "bi-myb"),
        ("catalog:example2-gl3", "--suite", "myb", "--operator", "R1"),
    ):
        code, _, err = run_cli(capsys, "check", *argv)
        assert code == 0, err


def test_cli_guards_dim2_and_dim3_scans(tmp_path, capsys):
    # unguarded, lie-base would start a 3000^3-tuple Jacobi scan; the file
    # has no operator R, so derive stops on that before any scan (its guard
    # is asserted at dim 129 with an operator below)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimension": 3000, "bracket": []}))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "check", str(path), "--suite", "lie-base")
    assert code == 2 and "guard" in err
    code, _, err = run_cli(capsys, "derive", str(path), "--what", "derived-bracket")
    assert code == 2 and "no operator named 'R'" in err
    assert time.perf_counter() - start < 1


def test_cli_force_lifts_the_dim2_and_dim3_guards(tmp_path, capsys):
    # empty structures just above each limit are cheap to scan
    dim = core._SCAN_GUARDS[3] + 1
    path = tmp_path / "empty3.json"
    path.write_text(json.dumps({"dimension": dim, "bracket": []}))
    argv = ("check", str(path), "--suite", "lie-base")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "guard" in err
    code, out, _ = run_cli(capsys, *argv, "--force")
    assert code == 0 and f"PASS jacobi (tuples={dim ** 3})" in out

    dim = core._SCAN_GUARDS[2] + 1
    path = tmp_path / "empty2.json"
    zero = [["0"] * dim for _ in range(dim)]
    path.write_text(json.dumps({"dimension": dim, "bracket": [], "operators": {"R": zero}}))
    argv = ("derive", str(path), "--what", "derived-bracket")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "guard" in err
    code, out, _ = run_cli(capsys, *argv, "--force")
    assert code == 0 and parse_algebra_file(out).dimension == dim


def test_cli_guards_search_dim(capsys):
    # unguarded, both searches built gl(60) from matrices and scanned it
    start = time.perf_counter()
    for target in ("r0-not-myb", "non-normal-triple"):
        code, _, err = run_cli(capsys, "search", target, "--seed", "1", "--trials", "1", "--dim", "60")
        assert code == 2 and "guard" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "target, dim, expected",
    [("r0-not-myb", 7, 49), ("non-even-tempered-diagonal-R", 10, 45)],
    ids=["r0-not-myb-7", "non-even-tempered-diagonal-R-10"],
)
def test_cli_force_lifts_the_search_dim_guard(monkeypatch, capsys, target, dim, expected):
    # gl(7) has dimension 49 and so(10) 45, both above the dim^3 limit of 36;
    # unforced, no algebra is built and the search is never reached
    built, reached = [], []
    for name in ("gl_assoc", "so_n"):
        monkeypatch.setattr(catalog, name, lambda n, build=getattr(catalog, name): built.append(n) or build(n))

    def setup(rng, entry, *_):
        reached.append(entry.dim)
        return entry, None

    family, default, *_ = searches.SEARCH_TARGETS[target]
    monkeypatch.setitem(searches.SEARCH_TARGETS, target, (family, default, setup, lambda *_: {}, lambda *_: None))
    argv = ("search", target, "--seed", "1", "--trials", "1", "--dim", str(dim))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "guard" in err and not built and not reached
    code, _, _ = run_cli(capsys, *argv, "--force")
    assert code == 0 and built == [dim] and reached == [expected]


SRC = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))


def _python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh isolated interpreter that imports opalg from SRC,
    with its address space capped at 1 GiB."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60, preexec_fn=cap)


def test_cli_guards_catalog_construction():
    # unguarded, gl(40) was still being built after 8 s, and gl(99999999)
    # builds dense 10^8-wide matrices with no bound on memory: a child
    # process with capped memory runs them
    code = """
import time
from opalg.cli import main
for argv in (["check", "catalog:example2-gl40", "--suite", "myb"], ["catalog", "export", "gl99999999"]):
    start = time.perf_counter()
    print(main(argv), time.perf_counter() - start, flush=True)
"""
    proc = _python(code)
    results = [line.split() for line in proc.stdout.splitlines()]
    assert [exit_code for exit_code, _ in results] == ["2", "2"], proc.stderr
    assert all(float(seconds) < 1 for _, seconds in results)
    errors = proc.stderr.splitlines()
    assert len(errors) == 2 and all("guard" in line for line in errors)


def test_library_checks_are_guarded():
    # unguarded, check_jacobi on dimension 3000 was still scanning its
    # 2.7 * 10^10 tuples after 5 s: a child process with a timeout runs it
    code = """
import time
from opalg import BilinearStructure, DimensionGuardError, check_jacobi
start = time.perf_counter()
try:
    check_jacobi(BilinearStructure(3000))
except DimensionGuardError as exc:
    print(time.perf_counter() - start, exc)
"""
    proc = _python(code)
    seconds, message = proc.stdout.split(" ", 1)
    assert float(seconds) < 1 and "guard" in message, proc.stderr


def test_cli_freezes_the_collector_once_per_process_and_imports_do_not():
    code = """
import gc, json, os
counts = [gc.get_freeze_count()]
import opalg
counts.append(gc.get_freeze_count())
import opalg.cli
counts.append(gc.get_freeze_count())
argv = ["check", "catalog:so3", "--suite", "lie-base", "--out", os.devnull]
opalg.cli.main(argv)
counts.append(gc.get_freeze_count())
fresh = [[k] for k in range(10_000)]
opalg.cli.main(argv)
counts.append(gc.get_freeze_count())
print(json.dumps(counts))
"""
    proc = _python(code)
    before, after_opalg, after_cli, after_main, after_second_main = json.loads(proc.stdout)
    assert before == after_opalg == after_cli, proc.stderr
    assert after_main > after_cli
    assert after_second_main == after_main


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_cli_process_leaves_a_complete_report(tmp_path, to_file):
    # frozen objects are never finalized: the report must be flushed and its
    # file closed by the time the process exits
    out = tmp_path / "report.json"
    argv = [sys.executable, "-m", "opalg.cli", "check", "catalog:so3", "--suite", "lie-base", "--format", "json"]
    argv += ["--out", str(out)] if to_file else []
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert (proc.stdout == "") == to_file
    doc = json.loads(out.read_text(encoding="utf-8") if to_file else proc.stdout)
    assert doc["suite"] == "lie-base" and doc["passed"] is True


def _subparsers(parser, prefix=()) -> dict:
    """Every subparser under parser, nested ones included, by its command words."""
    found = {}
    for action in parser._actions:
        for name, child in getattr(action, "_name_parser_map", {}).items():
            found[(*prefix, name)] = child
            found.update(_subparsers(child, (*prefix, name)))
    return found


def _parse(parser, argv, capsys):
    try:
        return "parsed", vars(parser.parse_args(argv))
    except WorkbenchError as exc:
        return "error", str(exc)
    except SystemExit as exc:  # --help
        return "exit", exc.code, capsys.readouterr().out


PARSER_ARGVS = {
    "check": ["check", "catalog:so3", "--suite", "myb", "--operator", "R", "--format", "json", "--out", "r"],
    "derive": ["derive", "in.json", "--what", "derived-triple", "--mode", "full", "--force"],
    "catalog-list": ["catalog", "list"],
    "catalog-export": ["catalog", "export", "example2-gl2?q=diag:1,2", "--out", "e.json"],
    "search": ["search", "so3-non-myb", "--seed", "3", "--trials", "4", "--dim", "2", "--entry-bound", "2"],
    "convert": ["convert", "in.json", "--to", "pair", "--operator2", "xi"],
    "findings": ["findings", "--out", "f.md"],
    "no-arguments": [],
    "help": ["--help"],
    "h": ["-h"],
    "subcommand-help": ["check", "--help"],
    "catalog-alone": ["catalog"],
    "unknown-command": ["frobnicate", "x"],
    "missing-required-option": ["check", "catalog:so3"],
    "unknown-suite": ["check", "catalog:so3", "--suite", "no-such-suite"],
    "non-integer-seed": ["search", "so3-non-myb", "--seed", "x", "--trials", "1"],
    "extra-argument": ["findings", "surplus"],
}


@pytest.mark.parametrize("argv", PARSER_ARGVS.values(), ids=PARSER_ARGVS.keys())
def test_cli_single_subcommand_parser_matches_the_full_parser(argv, capsys):
    full, single = _build_parser(), _build_parser(argv[0] if argv else None)
    full_subparsers, single_subparsers = _subparsers(full), _subparsers(single)
    assert single_subparsers
    for words, subparser in single_subparsers.items():
        assert subparser.format_help() == full_subparsers[words].format_help()
    assert _parse(single, argv, capsys) == _parse(full, argv, capsys)


def test_cli_refuses_catalog_parameters_it_would_ignore(capsys):
    for spec in ("catalog:so3?q=diag:1,2,3", "catalog:example2-gl2?q=diag:1,2&q=id"):
        code, out, err = run_cli(capsys, "check", spec, "--suite", "lie-base")
        assert code == 2 and out == "" and err.count("\n") == 1 and "parameter" in err


def test_cli_catalog_export_force_lifts_the_guard(capsys):
    # so(10) has dimension 45, above the dim^3 limit of 36
    code, _, err = run_cli(capsys, "catalog", "export", "so10")
    assert code == 2 and "guard" in err
    code, out, _ = run_cli(capsys, "catalog", "export", "so10", "--force")
    assert code == 0 and parse_algebra_file(out).dimension == 45


def test_cli_entry_bound_below_one_is_a_usage_error(capsys):
    with pytest.raises(Exception, match="--entry-bound"):
        run_search("non-normal-triple", seed=1, trials=1, entry_bound=0)
    argv = ("search", "non-normal-triple", "--seed", "1", "--trials", "1")
    code, _, err = run_cli(capsys, *argv, "--entry-bound", "0")
    assert code == 2 and err.count("\n") == 1 and "--entry-bound" in err
    code, _, _ = run_cli(capsys, *argv, "--entry-bound", "1")
    assert code == 0


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_cli_search_dim_below_one_is_a_usage_error(capsys, dim):
    # --dim 0 is refused, not read as "no --dim"
    for target in ("r0-not-myb", "so3-non-myb"):
        code, out, err = run_cli(capsys, "search", target, "--seed", "1", "--trials", "1", "--dim", dim)
        assert code == 2 and out == "" and err == "error: --dim must be >= 1\n"
    with pytest.raises(Exception, match="--dim"):
        run_search("r0-not-myb", seed=1, trials=1, dim=int(dim))


def test_cli_search_dim_on_a_fixed_algebra_is_a_usage_error(capsys, monkeypatch):
    # so3-non-myb always works on so(3); a --dim it would ignore is refused
    # before the search runs, rather than echoed in the report
    reached = []
    family, default, _, *steps = searches.SEARCH_TARGETS["so3-non-myb"]
    row = (family, default, lambda *args: reached.append(args), *steps)
    monkeypatch.setitem(searches.SEARCH_TARGETS, "so3-non-myb", row)
    code, out, err = run_cli(capsys, "search", "so3-non-myb", "--seed", "1", "--trials", "2", "--dim", "5")
    assert code == 2 and out == "" and err == "error: search target 'so3-non-myb' takes no --dim\n"
    assert not reached
    assert [t for t, (family, *_) in searches.SEARCH_TARGETS.items() if family is None] == ["so3-non-myb"]


def test_importing_the_cli_loads_no_dataclass_machinery():
    proc = _python("import opalg.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_search_requests_never_import_hashlib():
    # only check reports carry an input digest
    proc = _python(
        "import opalg.cli\nfrom opalg.searches import run_search\n"
        "run_search('so3-non-myb', seed=1, trials=2)\nprint('hashlib' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_findings_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "findings")
    code2, out2, _ = run_cli(capsys, "findings")
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)
