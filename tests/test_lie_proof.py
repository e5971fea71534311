"""The Lie proof travels with the bracket: a LieBracket is a bracket that
check_lie has passed on, and every record built on a Lie bracket keeps one.
Every other precondition is checked by the call that needs it and returned
with its result, so no function takes a report as evidence."""

import inspect

import pytest

from opalg import bunch, core, jordan, lie, searches, suites
from opalg import (
    BilinearStructure,
    DesignCandidate,
    LieBiOperator,
    LieWithOperator,
    Operator,
    QuadraticBunch,
    RRhoAlgebra,
    TrilinearStructure,
    build_bunch,
    check_bi_myb,
    check_gamma_bunch,
    example2_gl,
    example4_so,
    extract_rrho,
    from_bi_myb,
    probe_r0,
    so_n,
)
from opalg.algfile import algebra_file_digest, entry_to_algebra_file, render_algebra_file
from opalg.core import LieBracket, prove_lie, require_lie
from opalg.formula import Formula
from opalg.suites import run_suite

NOT_ANTISYMMETRIC = BilinearStructure(2, {(0, 0): {1: 1}})
# antisymmetric, but Jacobi fails at (0, 1, 2)
NOT_JACOBI = BilinearStructure(3, {(0, 1): {0: 1}, (1, 0): {0: -1}, (1, 2): {1: 1}, (2, 1): {1: -1}})


def _lie_binds(monkeypatch, refuse=False) -> list:
    """Wrap Formula.bind; the list it returns collects each antisymmetry or
    Jacobi bind, and with refuse=True such a bind raises instead."""
    binds = []
    bind = Formula.bind

    def counted(self, structures):
        if self.name in ("antisymmetry", "jacobi"):
            if refuse:
                raise AssertionError(f"{self.name} scanned a bracket that was already proved Lie")
            binds.append(self.name)
        return bind(self, structures)

    monkeypatch.setattr(Formula, "bind", counted)
    return binds


def test_a_lie_bracket_is_its_plain_bracket_with_the_proof():
    plain = so_n(3).bracket
    report, proven = prove_lie(plain)
    assert report.passed and [s.name for s in report.subchecks] == ["antisymmetry", "jacobi"]
    assert isinstance(proven, LieBracket) and proven.lie is report
    assert proven == plain and plain == proven and hash(proven) == hash(plain)
    assert proven.sorted_rows() == plain.sorted_rows() and repr(proven) == repr(plain)
    assert require_lie(proven) is proven
    with pytest.raises(AttributeError):
        proven.lie = None
    # nothing but prove_lie makes one
    with pytest.raises(TypeError):
        LieBracket(3, {})
    with pytest.raises(TypeError):
        LieBracket.from_rows(3, [])


def test_a_failing_bracket_gets_a_report_and_no_proof():
    for bad, failing in ((NOT_ANTISYMMETRIC, "antisymmetry"), (NOT_JACOBI, "jacobi")):
        report, proven = prove_lie(bad)
        assert not report.passed and proven is None
        with pytest.raises(ValueError, match=f"{failing} fails"):
            require_lie(bad)


@pytest.mark.parametrize("bad", [NOT_ANTISYMMETRIC, NOT_JACOBI], ids=["antisymmetry", "jacobi"])
def test_every_record_on_a_lie_bracket_refuses_a_non_lie_one(bad):
    n = bad.dim
    one, zero = Operator.identity(n), Operator.zero(n)
    constructors = (
        lambda: LieWithOperator(bad, one),
        lambda: LieBiOperator(bad, one, one),
        lambda: RRhoAlgebra(bad, one, one),
        lambda: QuadraticBunch(bad, BilinearStructure(n), BilinearStructure(n), one, zero, zero),
        lambda: DesignCandidate(bad, TrilinearStructure(n)),
    )
    for construct in constructors:
        with pytest.raises(ValueError, match="not a Lie bracket"):
            construct()


def test_records_built_on_a_records_bracket_scan_nothing(monkeypatch):
    e2 = example2_gl(2)
    R1, R2 = e2.operators["R1"], e2.operators["R2"]
    g = LieBiOperator(e2.bracket, R1, R2)
    e4 = example4_so(3)
    a = RRhoAlgebra(e4.bracket, e4.operators["R"], e4.operators["rho"])
    bunch = build_bunch(a)
    # extraction scans gamma-bunch, whose antisymmetry lines bind again; the
    # (R, rho) pair it returns keeps the bunch's proven b0
    gamma, back = extract_rrho(bunch)
    assert gamma.passed and back == a and back.bracket is bunch.b0
    _lie_binds(monkeypatch, refuse=True)
    assert LieWithOperator(g.bracket, R1).bracket is g.bracket
    assert LieBiOperator(g.bracket, R2, R1).bracket is g.bracket
    assert RRhoAlgebra(g.bracket, R1 + R2, R1 @ R2).bracket is g.bracket
    assert DesignCandidate(g.bracket, e2.triple).bracket is g.bracket
    assert from_bi_myb(g).bracket is g.bracket
    assert build_bunch(a).b0 is a.bracket


def test_replacing_the_bracket_proves_the_new_one(monkeypatch):
    so3 = so_n(3)
    g = LieWithOperator(so3.bracket, Operator.identity(3))
    binds = _lie_binds(monkeypatch)
    assert g.replace(R=Operator.zero(3)).bracket is g.bracket and binds == []
    again = g.replace(bracket=so_n(3).bracket)
    assert binds == ["antisymmetry", "jacobi"]
    assert again == g and isinstance(again.bracket, LieBracket) and again.bracket is not g.bracket
    with pytest.raises(ValueError, match="not a Lie bracket"):
        g.replace(bracket=NOT_JACOBI)


def test_no_public_function_takes_a_report_as_lie_proof():
    assert list(inspect.signature(require_lie).parameters) == ["bracket"]
    assert list(inspect.signature(LieBiOperator).parameters) == ["bracket", "R1", "R2"]
    assert list(inspect.signature(probe_r0).parameters) == ["g"]
    assert list(inspect.signature(extract_rrho).parameters) == ["q"]
    for module in (core, lie, bunch, jordan, suites, searches):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
                parameters = inspect.signature(obj).parameters
                assert "lie" not in parameters, name
                # a precondition is checked by the call that needs it, never handed in
                for parameter in parameters.values():
                    assert "CheckReport" not in str(parameter.annotation), (name, parameter.name)


def test_extraction_reports_its_own_failing_gamma_bunch():
    e4 = example4_so(3)
    good = build_bunch(RRhoAlgebra(e4.bracket, e4.operators["R"], e4.operators["rho"]))
    b2 = {key: dict(good.b2.value(*key)) for key in good.b2.support()}
    b2.setdefault((0, 1), {})[0] = good.b2.value(0, 1).get(0, 0) + 1
    bad = good.replace(b2=BilinearStructure(3, b2))
    gamma, back = extract_rrho(bad)
    assert back is None and not gamma.passed
    assert gamma == check_gamma_bunch(bad)
    assert next(s.name for s in gamma.subchecks if not s.passed) == "antisymmetry-deg2"


def test_midpoint_probe_reports_its_own_failing_bi_myb():
    e2 = example2_gl(2)
    R1 = e2.operators["R1"]
    g = LieBiOperator(e2.bracket, R1, R1 @ R1)
    bi_myb, probe = probe_r0(g)
    assert probe is None and not bi_myb.passed
    assert bi_myb == check_bi_myb(g)
    # the verdict is this pair's own, not that of the catalog pair on the same bracket
    assert check_bi_myb(LieBiOperator(e2.bracket, R1, e2.operators["R2"])).passed


def test_run_suite_leaves_an_in_memory_file_unchanged(monkeypatch):
    af = entry_to_algebra_file(example2_gl(2))
    bracket, operators, text = af.bracket, dict(af.operators), render_algebra_file(af)
    binds = _lie_binds(monkeypatch)
    for _ in range(2):
        report = run_suite(af, "xi", {"operator": "R1", "operator2": "xi"})
        assert report.input_digest == algebra_file_digest(af)
    assert af.bracket is bracket and type(af.bracket) is BilinearStructure
    assert af.operators == operators and render_algebra_file(af) == text
    # a plain bracket is proved on every request; nothing is kept between them
    assert binds == ["antisymmetry", "jacobi"] * 2
