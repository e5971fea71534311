import random

import pytest

from opalg import (
    BilinearStructure,
    DesignCandidate,
    LieWithOperator,
    Operator,
    TripleWithOperator,
    TrilinearStructure,
    check_design,
    check_equivariance,
    check_jts_identity,
    check_rho_identity,
    check_triple_bi_myb,
    check_triple_myb,
    check_triple_myb_raw,
    check_triple_r_homomorphism,
    derived_triple,
    example1_candidates,
    example3_gl,
    forced,
    gl_assoc,
    so_n,
    triple_r,
)
from opalg.formula import Formula
from opalg.jordan import BASE_UNVERIFIED_NOTE, MODE_FULL, MODE_REDUCED
from opalg.oracles import mat_add, mat_mul, mat_transpose
from opalg.sampling import random_operator
from opalg.scalars import scalar


def qq_triple_oracle(entry, Q):
    """Tensor of XQYQZ + ZQYQX built straight from matrix products."""

    def monomial(x, y, z):
        return mat_mul(mat_mul(mat_mul(mat_mul(x, Q), y), Q), z)

    return entry.trilinear_tensor_from_matrices(
        lambda x, y, z: mat_add(monomial(x, y, z), monomial(z, y, x))
    )


# ---------------------------------------------------------------------------
# equivariance


def test_equivariance_of_matrix_triple():
    gl2 = gl_assoc(2)
    assert check_equivariance(gl2.bracket, gl2.triple).passed


def test_equivariance_of_form_triple_on_so3():
    entry = example1_candidates()
    assert check_equivariance(entry.bracket, entry.triple).passed
    assert check_equivariance(entry.bracket, entry.extra_triples["two-term"]).passed


def test_equivariance_of_trace_built_triple():
    # <X,Y,Z> = X tr(Y) tr(Z) is ad-invariant on gl(2) because commutators
    # are traceless; the exhaustive check adjudicates this candidate as a pass
    gl2 = gl_assoc(2)
    trace = {0: 1, 3: 1}  # indices of E11, E22
    entries = {}
    for i in range(4):
        for j in trace:
            for k in trace:
                entries[(i, j, k)] = {i: 1}
    candidate = TrilinearStructure(4, entries)
    assert check_equivariance(gl2.bracket, candidate).passed


def test_equivariance_failure_with_witness():
    # a tensor supported on a single coordinate triple is not ad-invariant
    gl2 = gl_assoc(2)
    candidate = TrilinearStructure(4, {(0, 0, 0): {0: 1}})
    report = check_equivariance(gl2.bracket, candidate)
    assert not report.passed
    assert report.witness.indices == (1, 0, 0, 0)


# ---------------------------------------------------------------------------
# designs


def test_matrix_triple_is_a_design():
    gl2 = gl_assoc(2)
    report = check_design(DesignCandidate(gl2.bracket, gl2.triple))
    assert report.passed
    assert report.sub("polarized-bracket-condition").passed


def test_zero_triple_is_a_design():
    so3 = so_n(3)
    report = check_design(DesignCandidate(so3.bracket, TrilinearStructure(3)))
    assert report.passed


def test_form_triples_design_verdicts():
    # both form-built candidates satisfy every design condition under the
    # jacobson variant; under the alternate variant the identity sub-check
    # fails (recorded behaviour, see the findings document)
    entry = example1_candidates()
    for triple in (entry.triple, entry.extra_triples["two-term"]):
        report = check_design(DesignCandidate(entry.bracket, triple))
        assert report.passed
        alt = check_design(DesignCandidate(entry.bracket, triple, "alternate"))
        assert not alt.passed
        assert not alt.sub("jts-alternate").passed
        assert alt.sub("equivariance").passed
        assert alt.sub("polarized-bracket-condition").passed


# ---------------------------------------------------------------------------
# triple mYB and derived triples


def test_triple_myb_right_multiplication():
    e3 = example3_gl(2)
    s = TripleWithOperator(e3.triple, e3.operators["R1"])
    assert check_triple_myb(s).passed


def test_triple_myb_scalar_operator():
    e3 = example3_gl(2)
    s = TripleWithOperator(e3.triple, Operator.identity(4).scale(scalar(-3, 2)))
    assert check_triple_myb(s).passed


def test_triple_myb_transpose_fails():
    gl2 = gl_assoc(2)
    transpose = gl2.operator_from_matrix_map(mat_transpose)
    report = check_triple_myb_raw(gl2.triple, transpose)
    assert not report.passed
    assert report.witness.indices == (0, 1, 3)


def _reduced(s):
    """triple_r(s)'s derived triple, once its triple mYB report has passed."""
    myb, derived = triple_r(s)
    assert myb.passed
    return derived


def test_triple_r_identity_operator():
    gl2 = gl_assoc(2)
    s = TripleWithOperator(gl2.triple, Operator.identity(4))
    assert derived_triple(s.triple, s.R, MODE_FULL) == gl2.triple  # 3 - 3 + 1 = 1 copy
    assert _reduced(s) == gl2.triple


def test_triple_r_zero_operator():
    gl2 = gl_assoc(2)
    s = TripleWithOperator(gl2.triple, Operator.zero(4))
    assert derived_triple(s.triple, s.R, MODE_FULL).sorted_rows() == []


def test_triple_r_matches_monomial_oracle_with_plus_sign():
    e3 = example3_gl(2)
    s = TripleWithOperator(e3.triple, e3.operators["R1"])
    derived = _reduced(s)
    assert derived == qq_triple_oracle(e3, e3.q)


def test_triple_r_reduced_mode_precondition():
    gl2 = gl_assoc(2)
    transpose = gl2.operator_from_matrix_map(mat_transpose)
    s = TripleWithOperator(gl2.triple, transpose)
    myb, derived = triple_r(s)
    assert derived is None and not myb.passed
    assert myb.name == "triple-myb" and myb.witness.indices == (0, 1, 3)
    # the transport check presupposes the same report and returns it unchanged
    assert check_triple_r_homomorphism(s) == (myb, None)


def test_full_and_reduced_agree_exactly_under_triple_myb():
    for n in (2, 3):
        e3 = example3_gl(n)
        for name in ("R1", "R2"):
            R = e3.operators[name]
            assert derived_triple(e3.triple, R, MODE_FULL) == derived_triple(
                e3.triple, R, MODE_REDUCED
            )


def test_full_and_reduced_differ_for_non_myb_operator():
    gl2 = gl_assoc(2)
    rng = random.Random(11)
    R = random_operator(rng, 4)
    assert not check_triple_myb_raw(gl2.triple, R).passed
    assert derived_triple(gl2.triple, R, MODE_FULL) != derived_triple(gl2.triple, R, MODE_REDUCED)


def test_triple_r_homomorphism_instances():
    e3 = example3_gl(2)
    for op in ("R1", "R2"):
        s = TripleWithOperator(e3.triple, e3.operators[op])
        myb, transport = check_triple_r_homomorphism(s)
        assert myb.passed and transport.passed
    for op in (Operator.identity(4), Operator.zero(4)):
        myb, transport = check_triple_r_homomorphism(TripleWithOperator(e3.triple, op))
        assert myb.passed and transport.passed


def test_derived_triple_is_again_a_triple_system():
    # the derived triple of the matrix triple passes the jacobson identity;
    # the alternate-variant outcome is recorded, not asserted
    e3 = example3_gl(2)
    s = TripleWithOperator(e3.triple, e3.operators["R1"])
    derived = _reduced(s)
    assert check_jts_identity(derived, "jacobson").passed
    alternate = check_jts_identity(derived, "alternate")
    assert alternate.passed == (alternate.witness is None)


def test_derived_structures_stay_equivariant():
    # equivariance transports from (bracket, triple) to the derived pair
    e3 = example3_gl(2)
    g = LieWithOperator(e3.bracket, e3.operators["R1"])
    s = TripleWithOperator(e3.triple, e3.operators["R1"])
    assert check_equivariance(e3.bracket, e3.triple).passed
    assert check_equivariance(g.bracket_R, _reduced(s)).passed


def test_derived_structures_form_a_design():
    # design conditions transport through the derived bracket and triple
    e3 = example3_gl(2)
    g = LieWithOperator(e3.bracket, e3.operators["R1"])
    s = TripleWithOperator(e3.triple, e3.operators["R1"])
    base = check_design(DesignCandidate(e3.bracket, e3.triple))
    derived = check_design(DesignCandidate(g.bracket_R, _reduced(s)))
    assert base.passed and derived.passed


def test_outer_symmetry_is_preserved_by_derivation():
    for n in (2, 3):
        e3 = example3_gl(n)
        t = e3.triple
        for (i, j, k) in t.support():
            assert t.value(i, j, k) == t.value(k, j, i)
        with forced():
            s = TripleWithOperator(t, e3.operators["R1"])
        derived = _reduced(s)
        for (i, j, k) in derived.support():
            assert derived.value(i, j, k) == derived.value(k, j, i)


# ---------------------------------------------------------------------------
# two-operator triple systems


def test_triple_bi_myb_multiplication_pair():
    e3 = example3_gl(2)
    report = check_triple_bi_myb(e3.triple, e3.operators["R1"], e3.operators["R2"])
    assert report.passed
    assert report.sub("normal").passed
    assert report.sub("even-tempered").passed
    assert report.sub("middle-rho-form").passed
    assert report.sub("middle-rho-consistency").passed
    assert not report.sub("even-tempered-as-printed").passed
    assert report.sub("even-tempered-as-printed").informational


def test_triple_bi_myb_equal_operators_lose_classification_flags():
    e3 = example3_gl(2)
    R = e3.operators["R1"]
    report = check_triple_bi_myb(e3.triple, R, R)
    assert report.passed  # core holds trivially
    assert not report.sub("normal").passed
    assert not report.sub("even-tempered").passed
    assert report.sub("middle-rho-consistency").passed
    assert report.sub("normal").witness is not None


def test_triple_bi_myb_identity_pair_all_flags():
    e3 = example3_gl(2)
    ident = Operator.identity(4)
    report = check_triple_bi_myb(e3.triple, ident, ident)
    assert report.passed
    assert report.sub("normal").passed
    assert report.sub("even-tempered").passed


def test_rho_identity_for_two_sided_multiplication():
    e3 = example3_gl(2)
    rho = e3.operators["rho"]
    assert check_rho_identity(e3.triple, rho).passed
    # rho X = QXQ is half the triple value <Q, X, Q>
    gl2 = gl_assoc(2)
    q_coords = gl2.expand(e3.q)
    half = scalar(1, 2)
    from_triple = Operator(
        tuple(
            tuple(
                half * e3.triple.apply_first_last(q_coords, c, q_coords).get(r, 0)
                for c in range(4)
            )
            for r in range(4)
        )
    )
    assert from_triple == rho


def test_rho_identity_identity_operator():
    e3 = example3_gl(2)
    assert check_rho_identity(e3.triple, Operator.identity(4)).passed


def test_rho_identity_random_operator_fails():
    e3 = example3_gl(2)
    rho = random_operator(random.Random(5), 4)
    report = check_rho_identity(e3.triple, rho)
    assert not report.passed
    assert report.witness is not None


def test_rho_identity_transport_against_derived_triple():
    e3 = example3_gl(2)
    s = TripleWithOperator(e3.triple, e3.operators["R1"])
    derived = _reduced(s)
    report = check_rho_identity(e3.triple, e3.operators["rho"], derived)
    assert report.passed
    assert report.sub("rho-derived-transport").passed


# ---------------------------------------------------------------------------
# construction contracts


def test_triple_with_operator_rejects_failing_base():
    gl2 = gl_assoc(2)
    with pytest.raises(ValueError):
        TripleWithOperator(gl2.triple, Operator.identity(4), "alternate")


def test_unchecked_construction_marks_reports():
    gl2 = gl_assoc(2)
    s = TripleWithOperator(gl2.triple, Operator.identity(4), "alternate", unchecked=True)
    assert s.unchecked
    report = check_triple_myb(s)
    assert BASE_UNVERIFIED_NOTE in report.notes


def test_replacing_a_field_of_an_unchecked_record_scans_nothing(monkeypatch):
    gl2 = gl_assoc(2)
    s = TripleWithOperator(gl2.triple, Operator.identity(4), "alternate", unchecked=True)

    def refuse(self, structures):
        raise AssertionError(f"an unchecked record bound {self.name}")

    monkeypatch.setattr(Formula, "bind", refuse)
    t = s.replace(R=Operator.zero(4))
    assert t.unchecked and t.notes == (BASE_UNVERIFIED_NOTE,)
    assert t.R == Operator.zero(4) and t.triple is s.triple


def test_guarded_dimension_requires_force():
    from opalg import DimensionGuardError

    gl3 = gl_assoc(3)
    # gl(3) has dimension 9, above the dim^5 limit, for either variant
    for variant in ("jacobson", "alternate"):
        with pytest.raises(DimensionGuardError):
            TripleWithOperator(gl3.triple, Operator.identity(9), variant)
