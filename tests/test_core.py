import collections
import functools

import pytest

from opalg import (
    BilinearStructure,
    DimensionGuardError,
    DimensionMismatchError,
    LieBiOperator,
    LieWithOperator,
    Operator,
    RRhoAlgebra,
    TrilinearStructure,
    TripleWithOperator,
    WorkbenchError,
    apply_bilinear,
    apply_trilinear,
    check_antisymmetry,
    check_jacobi,
    check_jts_identity,
    example2_gl,
    example3_gl,
    example4_so,
    forced,
    gl_assoc,
    op_polynomial,
    so_n,
)
from opalg.catalog import build_entry, example1_candidates
from opalg.core import prove_jts, prove_lie
from opalg.formula import Formula
from opalg.oracles import mat_mul
from opalg.scalars import scalar


def E(n, i, j):
    """Index of the matrix unit E_ij in the gl(n) basis."""
    return i * n + j


# ---------------------------------------------------------------------------
# operators


def test_operator_action_convention():
    # y_r = sum_c M[r][c] x_c
    op = Operator([[1, 2], [3, 4]])
    assert op.apply({0: 1}) == {0: 1, 1: 3}
    assert op.apply({1: 1}) == {0: 2, 1: 4}
    assert op.apply({0: 1, 1: 1}) == {0: 3, 1: 7}


def test_operator_composition_is_associative():
    a = Operator([[1, 2], [0, 1]])
    b = Operator([[0, 1], [1, 0]])
    c = Operator([[scalar(1, 2), 0], [3, 1]])
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ Operator.identity(2) == a
    assert Operator.identity(2) @ a == a


def test_operator_must_be_square():
    with pytest.raises(DimensionMismatchError):
        Operator([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatchError):
        Operator([])


def test_operator_is_a_frozen_record_of_its_rows():
    a, b = Operator([[1, scalar(1, 2)], [0, 3]]), Operator([[1, scalar(1, 2)], [0, 3]])
    assert a == b and a is not b and hash(a) == hash(b) and a.dim == 2
    assert a != Operator.identity(2) and a != a.rows
    c = a.replace(rows=[[0, 1], [1, 0]])
    assert type(c) is Operator and c == Operator([[0, 1], [1, 0]]) and c.dim == 2 and a.rows[0][0] == 1
    for name in ("rows", "dim", "_columns"):
        with pytest.raises(AttributeError, match="Operator is immutable"):
            setattr(a, name, None)
    assert a.column(1) is a.column(1) and a.column(1) == {0: scalar(1, 2), 1: 3}
    assert Operator.zero(2) == Operator([[0, 0], [0, 0]]) and Operator.identity(2).is_identity()
    assert a - b == Operator.zero(2) and a - Operator.identity(2) == Operator([[0, scalar(1, 2)], [0, 2]])


def test_op_polynomial_basics():
    R = Operator([[1, 1], [0, 2]])
    assert op_polynomial([0, 1], R) == R
    assert op_polynomial([1], R) == Operator.identity(2)
    assert op_polynomial([2, 0, 1], R) == (R @ R) + Operator.identity(2).scale(2)


def test_op_polynomial_right_multiplication_instance():
    # f(x) = 1 + x/2 applied to right multiplication by Q on gl(2):
    # the resulting operator is X -> X + (1/2) X Q, checked against the
    # matrix-form oracle on every basis element.
    gl2 = gl_assoc(2)
    Q = ((1, 0), (0, 2))
    right = gl2.operator_from_matrix_map(lambda x: mat_mul(x, Q))
    fr = op_polynomial([1, scalar(1, 2)], right)
    from opalg.oracles import mat_add, mat_scale

    oracle = gl2.operator_from_matrix_map(lambda x: mat_add(x, mat_scale(mat_mul(x, Q), scalar(1, 2))))
    assert fr == oracle


# ---------------------------------------------------------------------------
# structure tensors: one implementation for brackets and triples

# each arity's plain class, its kind, and how a proof is made of one
ARITIES = {
    2: (BilinearStructure, "bracket", prove_lie),
    3: (TrilinearStructure, "triple", lambda t: prove_jts(t, "jacobson")),
}


def _halved(arity: int, proven: bool):
    """so(3)'s bracket or gl(2)'s triple times 1/2, which is still Lie or a
    Jordan triple; with proven=True, as the LieBracket or JordanTriple."""
    plain = so_n(3).bracket if arity == 2 else gl_assoc(2).triple
    half = type(plain).from_rows(plain.dim, [(*row[:-1], row[-1] * scalar(1, 2)) for row in plain.sorted_rows()])
    return ARITIES[arity][2](half)[1] if proven else half


@pytest.mark.parametrize("proven", [False, True], ids=["plain", "proven"])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_bracket_never_equals_a_triple(dim, proven):
    empty = [BilinearStructure(dim), TrilinearStructure(dim)]
    if proven:
        empty = [ARITIES[t.arity][2](t)[1] for t in empty]
    bracket, triple = empty
    assert bracket != triple and triple != bracket
    assert bracket == BilinearStructure(dim) and triple == TrilinearStructure(dim)


@pytest.mark.parametrize("proven", [False, True], ids=["plain", "proven"])
@pytest.mark.parametrize("arity", ARITIES)
def test_integer_form_is_plain_and_scaled(arity, proven):
    cls = ARITIES[arity][0]
    t = _halved(arity, proven)
    assert (type(t) is cls) != proven
    form, d = t.integer_form()
    assert type(form) is cls and d == 2 and form != t
    assert form.sorted_rows() == [(*row[:-1], d * row[-1]) for row in t.sorted_rows()]
    assert form.integer_form() == (form, 1) and form.integer_form()[0] is form


@pytest.mark.parametrize("arity", ARITIES)
def test_integer_form_is_kept_and_shared_with_the_proof(arity):
    plain = _halved(arity, False)
    form, d = plain.integer_form()
    assert plain.integer_form()[0] is form
    proven = ARITIES[arity][2](plain)[1]
    assert proven.integer_form() == (form, d) and proven.integer_form()[0] is form
    # d = 1: each of the two records sharing the entries is its own integer form
    integer = ARITIES[arity][2](form)[1]
    assert form.integer_form() == (form, 1) and form.integer_form()[0] is form
    assert integer.integer_form()[0] is integer and form.integer_form()[0] is form


def test_operator_integer_form_is_kept():
    rational = Operator([[scalar(1, 2), 0], [3, scalar(-1, 3)]])
    form, d = rational.integer_form()
    assert (form, d) == (Operator([[3, 0], [18, -2]]), 6)
    assert rational.integer_form()[0] is form
    assert rational.replace(rows=rational.rows).integer_form() == (form, d)
    integer = Operator([[1, 2], [3, 4]])
    assert integer.integer_form() == (integer, 1) and integer.integer_form()[0] is integer


@pytest.mark.parametrize("arity", ARITIES)
def test_mirrored_is_read_from_the_entries_and_shared_with_the_proof(arity):
    cls = ARITIES[arity][0]
    plain = _halved(arity, False)
    proven = ARITIES[arity][2](plain)[1]
    assert plain.mirrored and vars(proven)["mirrored"]  # computed once, in the __dict__ they share
    key = (0,) * (arity - 1) + (1,)
    assert not cls(2, {key: {0: 1}}).mirrored
    assert cls(2, {key: {0: 1}, key[::-1]: {0: cls.mirror_sign}}).mirrored
    assert not cls(2, {key: {0: 1}, key[::-1]: {0: -cls.mirror_sign}}).mirrored
    # (0, 0, 0) is its own mirror; a bracket's (0, 0) entry would have to be its own negative
    assert cls(2, {(0,) * arity: {1: 1}}).mirrored == (arity == 3)


@pytest.mark.parametrize("arity", ARITIES)
def test_from_rows_refuses_duplicates_and_wrong_widths(arity):
    cls, kind, _ = ARITIES[arity]
    row = (0,) * (arity + 1) + (1,)
    with pytest.raises(WorkbenchError, match=rf"duplicate {kind} entry \({', '.join(['0'] * (arity + 1))}\)"):
        cls.from_rows(2, [row, row])
    with pytest.raises(DimensionMismatchError, match=f"{kind} row"):
        cls.from_rows(2, [row[1:]])


@pytest.mark.parametrize("proven", [False, True], ids=["plain", "proven"])
@pytest.mark.parametrize("arity", ARITIES)
def test_rows_repr_and_immutability(arity, proven):
    cls = ARITIES[arity][0]
    t = _halved(arity, proven)
    rows = t.sorted_rows()
    assert rows == sorted(rows) and len(rows) == sum(len(t.value(*key)) for key in t.support())
    backwards = cls.from_rows(t.dim, reversed(rows))
    assert backwards == t and backwards.sorted_rows() == rows
    assert repr(t) == f"{cls.__name__}(dim={t.dim}, entries={len(t.support())})"
    for name in ("dim", "_c", "_hash", "kind"):
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(t, name, None)
    assert t == _halved(arity, False) and hash(t) == hash(_halved(arity, False))


@pytest.mark.parametrize("proven", [False, True], ids=["plain", "proven"])
@pytest.mark.parametrize("arity", ARITIES)
def test_a_tensor_refuses_to_lose_a_field(arity, proven):
    # as a FrozenRecord refuses del, so does a structure tensor, proven or not
    cls = ARITIES[arity][0]
    t = _halved(arity, proven)
    t.entries_by(0)  # a derived value, kept in __dict__
    for name in ("dim", "_c", "_by_slot", *type(t).__slots__):
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            delattr(t, name)
    assert t == _halved(arity, False) and t.dim == _halved(arity, False).dim


@pytest.mark.parametrize("proven", [False, True], ids=["plain", "proven"])
@pytest.mark.parametrize("arity", ARITIES)
def test_entries_by_slot_list_every_entry_once(arity, proven):
    plain = _halved(arity, False)
    t = ARITIES[arity][2](plain)[1] if proven else plain
    assert t == plain and hash(t) == hash(plain)
    for slot in range(arity):
        by = t.entries_by(slot)
        assert by is plain.entries_by(slot)  # a proven tensor shares what its plain tensor derives
        listed = [(key, vec) for index, entries in by.items() for key, vec in entries if key[slot] == index]
        assert sorted(key for key, _ in listed) == sorted(t.support()) and len(listed) == len(t.support())
        assert all(vec is t.value(*key) for key, vec in listed)


def test_an_absent_entry_is_a_read_only_empty_vector():
    for vec in (BilinearStructure(2).value(0, 1), TrilinearStructure(2).value(0, 1, 1)):
        assert vec == {} and not vec
        with pytest.raises(TypeError):
            vec[0] = 1


# ---------------------------------------------------------------------------
# bilinear / trilinear evaluation


def test_apply_bilinear_cross_product():
    so3 = so_n(3)
    assert apply_bilinear(so3.bracket, {0: 1}, {1: 1}) == {2: 1}


def test_apply_bilinear_zero_vector():
    so3 = so_n(3)
    assert apply_bilinear(so3.bracket, {}, {1: 1}) == {}


def test_apply_bilinear_gl2_commutator():
    gl2 = gl_assoc(2)
    out = apply_bilinear(gl2.bracket, {E(2, 0, 1): 1}, {E(2, 1, 0): 1})
    assert out == {E(2, 0, 0): 1, E(2, 1, 1): -1}  # E11 - E22


def test_apply_bilinear_dimension_mismatch():
    so3 = so_n(3)
    with pytest.raises(DimensionMismatchError):
        apply_bilinear(so3.bracket, {5: 1}, {0: 1})
    with pytest.raises(DimensionMismatchError):
        apply_trilinear(gl_assoc(2).triple, {0: 1}, {0: 1}, {4: 1})


def test_apply_trilinear_idempotent():
    gl2 = gl_assoc(2)
    e11 = {E(2, 0, 0): 1}
    assert apply_trilinear(gl2.triple, e11, e11, e11) == {E(2, 0, 0): 2}


def test_apply_trilinear_zero_vector():
    gl2 = gl_assoc(2)
    assert apply_trilinear(gl2.triple, {0: 1}, {}, {0: 1}) == {}


def test_apply_trilinear_form_built_triple():
    # two-term triple F(X,Y)Z + F(Y,Z)X with the identity form:
    # <e1,e1,e2> = <e1,e1>e2 + <e1,e2>e1 = e2
    entry = example1_candidates()
    two = entry.extra_triples["two-term"]
    assert apply_trilinear(two, {0: 1}, {0: 1}, {1: 1}) == {1: 1}


def test_bilinearity_exact():
    gl2 = gl_assoc(2)
    a, b = scalar(2, 3), scalar(-5, 2)
    x1, x2, y = {0: 1, 3: 2}, {1: scalar(1, 2)}, {2: 3, 0: 1}
    lhs = apply_bilinear(gl2.bracket, {k: a * v for k, v in x1.items()}, y)
    for k, v in apply_bilinear(gl2.bracket, x2, y).items():
        lhs[k] = lhs.get(k, 0) + b * v
    combo = dict({k: a * v for k, v in x1.items()})
    for k, v in x2.items():
        combo[k] = combo.get(k, 0) + b * v
    rhs = apply_bilinear(gl2.bracket, combo, y)
    assert {k: v for k, v in lhs.items() if v} == rhs


# ---------------------------------------------------------------------------
# base checks with witnesses


def test_antisymmetry_passes_on_commutator_algebras():
    assert check_antisymmetry(so_n(3).bracket).passed
    assert check_antisymmetry(gl_assoc(3).bracket).passed


def test_antisymmetry_diagonal_violation():
    b = BilinearStructure(2, {(0, 0): {1: 1}})
    report = check_antisymmetry(b)
    assert not report.passed
    assert report.witness.indices == (0, 0)


def test_jacobi_passes_on_gl2():
    assert check_jacobi(gl_assoc(2).bracket).passed


def test_jacobi_passes_on_derived_bracket():
    gl2 = gl_assoc(2)
    right = gl2.operator_from_matrix_map(lambda x: mat_mul(x, ((1, 0), (0, 2))))
    derived = LieWithOperator(gl2.bracket, right).bracket_R
    assert check_jacobi(derived).passed


def test_jacobi_failure_witness():
    # c(0,1)=e0, c(1,2)=e1, c(0,2)=0, antisymmetry-completed: the Jacobi sum
    # at (e0,e1,e2) is [[e0,e1],e2] + [[e1,e2],e0] + [[e2,e0],e1]
    # = [e0,e2] + [e1,e0] + 0 = -e0.
    b = BilinearStructure(
        3,
        {
            (0, 1): {0: 1},
            (1, 0): {0: -1},
            (1, 2): {1: 1},
            (2, 1): {1: -1},
        },
    )
    assert check_antisymmetry(b).passed
    report = check_jacobi(b)
    assert not report.passed
    assert report.witness.indices == (0, 1, 2)
    assert report.witness.residual == (-1, 0, 0)


def test_jts_zero_triple_passes_both_variants():
    zero = TrilinearStructure(2)
    assert check_jts_identity(zero, "jacobson").passed
    assert check_jts_identity(zero, "alternate").passed


def test_jts_matrix_triple_variant_verdicts():
    gl2 = gl_assoc(2)
    assert check_jts_identity(gl2.triple, "jacobson").passed
    report = check_jts_identity(gl2.triple, "alternate")
    assert not report.passed
    # frozen from the exhaustive run; the free-word oracle confirms the
    # residual is nonzero identically (see the findings document)
    assert report.witness.indices == (0, 0, 0, 0, 1)


def test_jts_unknown_variant_rejected():
    with pytest.raises(ValueError):
        check_jts_identity(TrilinearStructure(2), "classical")


def test_dimension_guard_on_wide_scans():
    big = TrilinearStructure(9)
    with pytest.raises(DimensionGuardError):
        check_jts_identity(big, "jacobson")
    with forced():
        assert check_jts_identity(big, "jacobson").passed

    from opalg import check_equivariance

    wide = BilinearStructure(13)
    with pytest.raises(DimensionGuardError):
        check_equivariance(wide, TrilinearStructure(13))


def test_forced_is_reset_after_an_exception():
    wide = BilinearStructure(37)  # above the dim^3 limit of 36
    with pytest.raises(RuntimeError), forced():
        assert check_jacobi(wide).passed
        raise RuntimeError("inside the forced block")
    with pytest.raises(DimensionGuardError):
        check_jacobi(wide)


def test_report_invariant_passed_iff_no_witness():
    reports = [
        check_antisymmetry(so_n(3).bracket),
        check_antisymmetry(BilinearStructure(2, {(0, 0): {1: 1}})),
        check_jacobi(gl_assoc(2).bracket),
    ]
    for report in reports:
        assert report.passed == (report.witness is None)


def test_reports_are_deterministic():
    b = BilinearStructure(3, {(0, 1): {0: 1}, (1, 0): {0: -1}, (1, 2): {1: 1}, (2, 1): {1: -1}})
    assert check_jacobi(b) == check_jacobi(b)
    assert check_antisymmetry(b) == check_antisymmetry(b)


# ---------------------------------------------------------------------------
# records


def test_records_keep_value_semantics():
    from opalg import CheckReport, LieBiOperator, TripleWithOperator, Witness
    from opalg.algfile import AlgebraFile

    w = Witness((0, 1), (1, 0))
    report = CheckReport("myb", False, w, 2)
    assert w == Witness((0, 1), (1, 0)) and hash(w) == hash(Witness((0, 1), (1, 0)))
    assert report == CheckReport("myb", False, Witness((0, 1), (1, 0)), 2)
    assert hash(report) == hash(CheckReport("myb", False, Witness((0, 1), (1, 0)), 2))
    assert report != report.replace(tuples_evaluated=3)
    assert report != ("myb", False, w, 2, False, (), ())

    info = report.replace(informational=True)
    assert info is not report and info.informational and not report.informational
    assert info.replace(informational=False) == report

    gl2 = gl_assoc(2)
    frozen = [
        w,
        report,
        LieBiOperator(gl2.bracket, Operator.identity(4), Operator.identity(4)),
        TripleWithOperator(gl2.triple, Operator.identity(4)),
        gl2,
    ]
    for record in frozen:
        for field in record.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    assert report.passed is False and report.witness is w

    # catalog entries compare by identity, as they always have
    assert gl2 == gl2 and gl2 != gl2.replace()

    af = AlgebraFile(4, None, gl2.bracket, gl2.triple, {"R": Operator.identity(4)})
    assert (af.dimension, af.bracket, af.triple) == (4, gl2.bracket, gl2.triple)
    assert af == AlgebraFile(4, bracket=gl2.bracket, triple=gl2.triple, operators={"R": Operator.identity(4)})
    assert AlgebraFile(1).operators == {} and AlgebraFile(1).operators is not AlgebraFile(1).operators


def _record_classes() -> list:
    """FrozenRecord's subclasses, searched recursively once every opalg module
    is imported."""
    import importlib
    import pkgutil

    import opalg
    from opalg.core import FrozenRecord

    for module in pkgutil.iter_modules(opalg.__path__):
        importlib.import_module(f"opalg.{module.name}")
    found, todo = [], [FrozenRecord]
    while todo:
        subs = todo.pop().__subclasses__()
        found += subs
        todo += subs
    return found


def _records() -> list:
    """Every record class: each of FrozenRecord's subclasses with fields of its
    own, so not AlgebraRecord, the base of the records on an algebra."""
    return [c for c in _record_classes() if c.__slots__]


def _record_samples() -> dict:
    """One instance of each record class, keyed by class name."""
    from opalg import CheckReport, DesignCandidate, Witness
    from opalg.algfile import entry_to_algebra_file
    from opalg.bunch import build_bunch
    from opalg.suites import RunReport

    gl2, e4 = gl_assoc(2), example4_so(3)
    one = Operator.identity(4)
    rrho = RRhoAlgebra(e4.bracket, e4.operators["R"], e4.operators["rho"])
    witness = Witness((0, 1), (1, 0))
    return {
        type(r).__name__: r
        for r in (
            witness,
            CheckReport("myb", False, witness, 2, notes=("a-note",)),
            RunReport("gl2", "digest", "myb", {"force": True}, [CheckReport("myb", True)], [{"kind": "x"}]),
            entry_to_algebra_file(build_entry("example2-gl2")),
            gl2,
            one,
            LieWithOperator(gl2.bracket, one),
            LieBiOperator(gl2.bracket, one, one),
            rrho,
            build_bunch(rrho),
            TripleWithOperator(gl2.triple, one),
            DesignCandidate(gl2.bracket, gl2.triple),
        )
    }


def test_every_record_binds_its_fields_the_one_way_replace_relies_on():
    samples = _record_samples()
    records = _records()
    assert sorted(c.__name__ for c in records) == sorted(samples), "add a sample for each new record"
    validating = {c.__name__ for c in _record_classes() if "__init__" in vars(c)}
    assert validating == {"Operator", "AlgebraRecord"}
    for cls in records:
        record = samples[cls.__name__]
        slots, values = cls.__slots__, record._values()
        fields = dict(zip(slots, values))
        # positional in slot order and keywords by name build the same record,
        # and replace with no change keeps every value (catalog entries compare by identity)
        assert cls(*values)._values() == cls(**fields)._values() == values, cls
        assert record.replace()._values() == values, cls
        # a field given twice, a name that is no field, one argument too many
        # and a required field left out are refused
        bad = [
            lambda: cls(*values, **{slots[0]: values[0]}),
            lambda: cls(**fields, no_such_field=1),
            lambda: cls(*values, values[0]),
            lambda: cls(**{k: v for k, v in fields.items() if k != slots[0]}),
        ]
        if "__init__" not in vars(cls):
            assert set(cls._defaults) <= set(slots), cls
            required = [k for k in slots if k not in cls._defaults]
            bad += [lambda k=k: cls(**{n: v for n, v in fields.items() if n != k}) for k in required]
        for make in bad:
            with pytest.raises(TypeError):
                make()


@pytest.mark.parametrize("name", [c.__name__ for c in _records() if c._defaults])
def test_a_record_default_is_taken_for_a_field_left_out_or_none_and_containers_are_fresh(name):
    record = _record_samples()[name]
    cls = type(record)
    required = {k: getattr(record, k) for k in cls.__slots__ if k not in cls._defaults}
    bare, again = cls(**required), cls(**required, **dict.fromkeys(cls._defaults))
    for field, default in cls._defaults.items():
        value = getattr(bare, field)
        assert value == getattr(again, field) == (default() if callable(default) else default), field
        if isinstance(value, (dict, list, set)):
            assert value is not getattr(again, field), field


# how each record with derived values is made, the field replace changes,
# and the formulas its derived values bind when first read
DERIVED = {
    "LieWithOperator": (
        lambda e2, e3, e4: LieWithOperator(e2.bracket, e2.operators["R1"]), "R", {"derived-bracket": 1},
    ),
    "LieBiOperator": (
        lambda e2, e3, e4: LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"]), "R1",
        {"derived-bracket": 2},
    ),
    "RRhoAlgebra": (
        lambda e2, e3, e4: RRhoAlgebra(e4.bracket, e4.operators["R"], e4.operators["rho"]), "R",
        {"derived-bracket": 1, "quadratic-bracket": 1},
    ),
    "TripleWithOperator": (
        lambda e2, e3, e4: TripleWithOperator(e3.triple, e3.operators["R1"]), "R",
        {"triple-myb": 1, "derived-triple-reduced": 1},
    ),
}


@pytest.mark.parametrize("kind", DERIVED)
def test_a_record_keeps_its_derived_values_apart_from_its_fields(monkeypatch, kind):
    make, field, tabulations = DERIVED[kind]
    entries = example2_gl(2), example3_gl(2), example4_so(3)
    record, fresh = make(*entries), make(*entries)
    names = [name for name, value in vars(type(record)).items() if isinstance(value, functools.cached_property)]
    again = record.replace(**{field: getattr(record, field)})
    binds = collections.Counter()
    bind = Formula.bind

    def counted(self, structures):
        binds[self.name] += 1
        return bind(self, structures)

    monkeypatch.setattr(Formula, "bind", counted)
    values = [getattr(record, name) for name in names]
    assert binds == tabulations
    # read again, each is the value kept, and nothing is bound
    assert all(getattr(record, name) is value for name, value in zip(names, values))
    assert binds == tabulations
    # what the record keeps is not one of its fields
    assert record == fresh and hash(record) == hash(fresh) and repr(record) == repr(fresh)
    assert record._values() == fresh._values()
    # a replaced record has computed nothing yet, so it tabulates again
    assert again == record and [getattr(again, name) for name in names] == values
    assert binds == {name: 2 * count for name, count in tabulations.items()}


def test_derived_tensors_are_read_from_their_records_only():
    import pathlib
    import re

    import opalg
    from opalg import bunch, lie

    deleted = {opalg: ("bracket_r", "bracket_rho"), lie: ("bracket_r",), bunch: ("bracket_rho", "_structures")}
    assert [(m.__name__, n) for m, names in deleted.items() for n in names if hasattr(m, n)] == []
    root = pathlib.Path(opalg.__file__).resolve().parent.parent.parent
    files = [*(root / "src" / "opalg").glob("*.py"), *(root / "demos").glob("*.py"), root / "README.md"]
    calls = re.compile(r"(?<!def )\b(bracket_r|bracket_rho|_structures)\(")
    assert len(files) > 3 and [f.name for f in files if calls.search(f.read_text(encoding="utf-8"))] == []
