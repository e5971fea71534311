"""Proofs travel with the structure: a LieBracket is a bracket that check_lie
has passed on, a JordanTriple a triple that check_jts_identity has passed on
for one variant, and every record built on one keeps it.  Every other
precondition is checked by the call that needs it and returned with its
result, so no function takes a report as evidence."""

import inspect

import pytest

from opalg import bunch, core, jordan, lie, searches, suites
from opalg import (
    BilinearStructure,
    DesignCandidate,
    DimensionMismatchError,
    LieBiOperator,
    LieWithOperator,
    Operator,
    PreconditionError,
    QuadraticBunch,
    RRhoAlgebra,
    TrilinearStructure,
    TripleWithOperator,
    build_bunch,
    check_bi_myb,
    check_design,
    check_gamma_bunch,
    example2_gl,
    example3_gl,
    example4_so,
    extract_rrho,
    from_bi_myb,
    gl_assoc,
    probe_r0,
    so_n,
)
from opalg.algfile import algebra_file_digest, entry_to_algebra_file, render_algebra_file
from opalg.core import JordanTriple, LieBracket, prove_jts, prove_lie, require_lie
from opalg.formula import Formula
from opalg.jordan import BASE_UNVERIFIED_NOTE
from opalg.suites import run_suite

NOT_ANTISYMMETRIC = BilinearStructure(2, {(0, 0): {1: 1}})
# antisymmetric, but Jacobi fails at (0, 1, 2)
NOT_JACOBI = BilinearStructure(3, {(0, 1): {0: 1}, (1, 0): {0: -1}, (1, 2): {1: 1}, (2, 1): {1: -1}})
# fails both identity variants at (0, 0, 0, 1, 1)
NOT_JTS = TrilinearStructure(2, {(0, 0, 1): {0: 1}})
# <e0,e0,e0> = e1, every other product zero: passes both variants
SQUARE_ZERO = TrilinearStructure(2, {(0, 0, 0): {1: 1}})
LIE_FORMULAS = ("antisymmetry", "jacobi")
JTS_FORMULAS = ("jts-jacobson", "jts-alternate")


def _proof_binds(monkeypatch, names=LIE_FORMULAS, refuse=False) -> list:
    """Wrap Formula.bind; the list it returns collects each bind of a formula
    in names (of every formula if names is None), and with refuse=True such a
    bind raises instead."""
    binds = []
    bind = Formula.bind

    def counted(self, structures):
        if names is None or self.name in names:
            if refuse:
                raise AssertionError(f"{self.name} scanned a structure that was already proved")
            binds.append(self.name)
        return bind(self, structures)

    monkeypatch.setattr(Formula, "bind", counted)
    return binds


def _prove_jacobson(triple) -> tuple:
    return prove_jts(triple, "jacobson")


def _record(triple) -> TripleWithOperator:
    return TripleWithOperator(triple, Operator.identity(triple.dim))


# the plain structure, how it is proved, the proof's class and slot, the
# report's name and sub-check names, and how a record keeps a proven one
PROOFS = {
    "LieBracket": (
        so_n(3).bracket, prove_lie, LieBracket, "lie", ("lie", ["antisymmetry", "jacobi"]), require_lie,
    ),
    "JordanTriple": (
        gl_assoc(2).triple, _prove_jacobson, JordanTriple, "jts", ("jts-jacobson", []),
        lambda t: _record(t).triple,
    ),
}


@pytest.mark.parametrize("kind", PROOFS)
def test_a_proven_structure_is_the_plain_one_with_its_proof(monkeypatch, kind):
    plain, prove, cls, slot, names, keep = PROOFS[kind]
    report, proven = prove(plain)
    assert report.passed and (report.name, [s.name for s in report.subchecks]) == names
    assert isinstance(proven, cls) and getattr(proven, slot) is report
    assert proven == plain and plain == proven and hash(proven) == hash(plain)
    assert proven.sorted_rows() == plain.sorted_rows() and repr(proven) == repr(plain)
    _proof_binds(monkeypatch, LIE_FORMULAS + JTS_FORMULAS, refuse=True)
    assert keep(proven) is proven and prove(proven) == (report, proven) and prove(proven)[1] is proven
    with pytest.raises(AttributeError):
        setattr(proven, slot, None)
    # nothing but the prove function makes one
    with pytest.raises(TypeError):
        cls(3, {})
    with pytest.raises(TypeError):
        cls.from_rows(3, [])


# the failing structure, how it is proved, the first failing sub-check (the
# report itself for an identity variant), and the message a record on a
# bracket refuses it with; a record on a triple proves and refuses nothing
FAILURES = {
    "antisymmetry": (NOT_ANTISYMMETRIC, prove_lie, "antisymmetry", "antisymmetry fails"),
    "jacobi": (NOT_JACOBI, prove_lie, "jacobi", "jacobi fails"),
    "jts-jacobson": (NOT_JTS, _prove_jacobson, "jts-jacobson", None),
    "jts-alternate": (gl_assoc(2).triple, lambda t: prove_jts(t, "alternate"), "jts-alternate", None),
}


@pytest.mark.parametrize("kind", FAILURES)
def test_a_failing_structure_gets_a_report_and_no_proof(kind):
    bad, prove, failing, message = FAILURES[kind]
    report, proven = prove(bad)
    assert not report.passed and proven is None
    first = next((s for s in report.subchecks if not s.passed), report)
    assert first.name == failing and report.witness == first.witness is not None
    if message is None:
        assert _record(bad).notes == (BASE_UNVERIFIED_NOTE,)
    else:
        with pytest.raises(PreconditionError, match=message):
            require_lie(bad)


def test_an_alternate_proof_is_not_a_jacobson_proof(monkeypatch):
    binds = _proof_binds(monkeypatch, JTS_FORMULAS)
    jacobson, by_jacobson = prove_jts(SQUARE_ZERO, "jacobson")
    alternate, by_alternate = prove_jts(by_jacobson, "alternate")
    assert binds == ["jts-jacobson", "jts-alternate"]
    assert jacobson.passed and alternate.passed and alternate.name == "jts-alternate"
    assert by_alternate.jts is alternate and by_jacobson.jts is jacobson
    assert by_alternate == by_jacobson and by_alternate is not by_jacobson
    # each is proved again for the variant it does not carry, and only for that one
    assert prove_jts(by_alternate, "jacobson")[1] is not by_jacobson
    assert prove_jts(by_alternate, "alternate")[1] is by_alternate
    assert binds == ["jts-jacobson", "jts-alternate", "jts-jacobson"]


def algebra_record_fields(bracket, triple) -> dict:
    """Each record on an algebra -> its fields on bracket or triple (one
    dimension): the base first, then operators and tensors of that dimension."""
    n = bracket.dim
    one, zero, flat = Operator.identity(n), Operator.zero(n), BilinearStructure(n)
    return {
        LieWithOperator: (bracket, one),
        LieBiOperator: (bracket, one, one),
        RRhoAlgebra: (bracket, one, one),
        QuadraticBunch: (bracket, flat, flat, one, zero, zero),
        TripleWithOperator: (triple, one),
        DesignCandidate: (bracket, triple),
    }


ON_A_NON_LIE_BRACKET = algebra_record_fields(NOT_JACOBI, TrilinearStructure(3))
RECORDS = list(ON_A_NON_LIE_BRACKET)


def test_the_records_on_an_algebra_are_those_the_rule_is_tested_on():
    import importlib
    import pkgutil

    import opalg

    for module in pkgutil.iter_modules(opalg.__path__):
        importlib.import_module(f"opalg.{module.name}")
    assert set(core.AlgebraRecord.__subclasses__()) == set(RECORDS)


def _grown(structure):
    """A structure of the same kind, one dimension larger."""
    if isinstance(structure, Operator):
        return Operator.identity(structure.dim + 1)
    return type(structure)(structure.dim + 1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_field_of_another_dimension_is_refused_before_any_scan(monkeypatch, cls):
    # the base bracket is not Lie, so a proof before the dimensions would raise PreconditionError
    fields = ON_A_NON_LIE_BRACKET[cls]
    base = cls.__slots__[0]
    binds = _proof_binds(monkeypatch, names=None)
    for k in range(1, len(fields)):
        grown = (*fields[:k], _grown(fields[k]), *fields[k + 1 :])
        message = f"^{cls.__name__}: {cls.__slots__[k]} has dimension 4, {base} has dimension 3$"
        with pytest.raises(DimensionMismatchError, match=message):
            cls(*grown)
    assert binds == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_proves_a_base_bracket_only_and_keeps_every_other_field(monkeypatch, cls):
    gl2 = gl_assoc(2)
    fields = algebra_record_fields(gl2.bracket, gl2.triple)[cls]
    binds = _proof_binds(monkeypatch, names=None)
    values = cls(*fields)._values()
    assert all(value is field for value, field in zip(values[1:], fields[1:]))
    if isinstance(fields[0], BilinearStructure):
        assert binds == list(LIE_FORMULAS)
        assert isinstance(values[0], LieBracket) and values[0] == fields[0]
    else:  # a base triple is kept as given: gl(2)'s fails the alternate identity
        assert binds == [] and values[0] is fields[0]


@pytest.mark.parametrize("bad", [NOT_ANTISYMMETRIC, NOT_JACOBI], ids=["antisymmetry", "jacobi"])
def test_every_record_on_a_lie_bracket_refuses_a_non_lie_one(bad):
    for cls, fields in algebra_record_fields(bad, TrilinearStructure(bad.dim)).items():
        if isinstance(fields[0], BilinearStructure):
            with pytest.raises(PreconditionError, match="not a Lie bracket"):
                cls(*fields)


def test_records_built_on_a_records_bracket_scan_nothing(monkeypatch):
    e2 = example2_gl(2)
    R1, R2 = e2.operators["R1"], e2.operators["R2"]
    g = LieBiOperator(e2.bracket, R1, R2)
    e4 = example4_so(3)
    a = RRhoAlgebra(e4.bracket, e4.operators["R"], e4.operators["rho"])
    bunch = build_bunch(a)
    # extraction scans gamma-bunch, whose antisymmetry lines of b1 and b2
    # bind; the (R, rho) pair it returns keeps the bunch's proven b0
    gamma, back = extract_rrho(bunch)
    assert gamma.passed and back == a and back.bracket is bunch.b0
    _proof_binds(monkeypatch, refuse=True)
    assert LieWithOperator(g.bracket, R1).bracket is g.bracket
    assert LieBiOperator(g.bracket, R2, R1).bracket is g.bracket
    assert RRhoAlgebra(g.bracket, R1 + R2, R1 @ R2).bracket is g.bracket
    assert DesignCandidate(g.bracket, e2.triple).bracket is g.bracket
    pair, built = from_bi_myb(g)
    assert pair.passed and built.bracket is g.bracket
    assert build_bunch(a).b0 is a.bracket


def test_records_built_on_a_records_triple_scan_nothing(monkeypatch):
    e3 = example3_gl(2)
    R1, R2 = e3.operators["R1"], e3.operators["R2"]
    s = TripleWithOperator(_prove_jacobson(e3.triple)[1], R1)
    assert isinstance(s.triple, JordanTriple) and s.triple.jts.name == "jts-jacobson"
    _proof_binds(monkeypatch, JTS_FORMULAS, refuse=True)
    assert TripleWithOperator(s.triple, R2).triple is s.triple
    assert s.replace(R=R2).triple is s.triple
    d = DesignCandidate(e3.bracket, s.triple)
    assert d.triple is s.triple
    design = check_design(d)
    assert design.passed and design.sub("jts-jacobson") is s.triple.jts


def test_a_record_keeps_the_proof_its_triple_carries(monkeypatch):
    # a record proves nothing: another variant's proof is a step of its own,
    # and the record keeps the triple it is handed, proof and all
    s = _record(_prove_jacobson(SQUARE_ZERO)[1])
    binds = _proof_binds(monkeypatch, JTS_FORMULAS)
    alternate = s.replace(triple=prove_jts(s.triple, "alternate")[1])
    assert binds == ["jts-alternate"]
    assert alternate == s and alternate.triple is not s.triple
    assert alternate.triple.jts.name == "jts-alternate" and s.triple.jts.name == "jts-jacobson"
    assert alternate.notes == s.notes == ()
    assert s.replace(triple=SQUARE_ZERO).notes == (BASE_UNVERIFIED_NOTE,)
    assert binds == ["jts-alternate"]


def test_replacing_the_bracket_proves_the_new_one(monkeypatch):
    so3 = so_n(3)
    g = LieWithOperator(so3.bracket, Operator.identity(3))
    binds = _proof_binds(monkeypatch)
    assert g.replace(R=Operator.zero(3)).bracket is g.bracket and binds == []
    again = g.replace(bracket=so_n(3).bracket)
    assert binds == ["antisymmetry", "jacobi"]
    assert again == g and isinstance(again.bracket, LieBracket) and again.bracket is not g.bracket
    with pytest.raises(PreconditionError, match="not a Lie bracket"):
        g.replace(bracket=NOT_JACOBI)


def test_no_public_function_takes_a_report_as_lie_proof():
    assert list(inspect.signature(require_lie).parameters) == ["bracket"]
    # a record binds its fields in slot order: none is a proof, none holds a report
    assert LieBiOperator.__slots__ == ("bracket", "R1", "R2")
    gl2 = gl_assoc(2)
    for cls, fields in algebra_record_fields(gl2.bracket, gl2.triple).items():
        assert "lie" not in cls.__slots__, cls
        assert not any(isinstance(value, core.CheckReport) for value in cls(*fields)._values()), cls
    assert list(inspect.signature(probe_r0).parameters) == ["g"]
    assert list(inspect.signature(extract_rrho).parameters) == ["q"]
    assert list(inspect.signature(prove_jts).parameters) == ["triple", "variant"]
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
    binds = _proof_binds(monkeypatch)
    for _ in range(2):
        report = run_suite(af, "xi", {"operator": "R1", "operator2": "xi"})
        assert report.input_digest == algebra_file_digest(af)
    assert af.bracket is bracket and type(af.bracket) is BilinearStructure
    assert af.operators == operators and render_algebra_file(af) == text
    # a plain bracket is proved on every request; nothing is kept between them
    assert binds == ["antisymmetry", "jacobi"] * 2
