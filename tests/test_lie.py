import random

import pytest

from opalg import (
    DimensionMismatchError,
    LieBiOperator,
    LieWithOperator,
    Operator,
    check_bi_myb,
    check_even_tempered,
    check_even_tempered_xi,
    check_jacobi,
    check_myb,
    check_myb_raw,
    check_polynomial_closure,
    check_xi_characterization,
    convert_params,
    convert_params_inverse,
    derived_bracket,
    example2_gl,
    gl_assoc,
    op_polynomial,
    probe_r0,
    so_n,
)
from opalg.oracles import mat_mul, mat_sub
from opalg.sampling import random_operator
from opalg.scalars import scalar


def right_mult(entry, Q):
    return entry.operator_from_matrix_map(lambda x: mat_mul(x, Q))


def qy_bracket_oracle(entry, Q):
    """Tensor of XQY - YQX built straight from matrix products."""
    return entry.bilinear_tensor_from_matrices(
        lambda x, y: mat_sub(mat_mul(mat_mul(x, Q), y), mat_mul(mat_mul(y, Q), x))
    )


# ---------------------------------------------------------------------------
# mYB identity


def test_myb_right_multiplication_passes():
    e2 = example2_gl(2)
    g = LieWithOperator(e2.bracket, e2.operators["R1"])
    assert check_myb(g).passed


def test_myb_scalar_operator_passes():
    so3 = so_n(3)
    g = LieWithOperator(so3.bracket, Operator.identity(3).scale(scalar(3, 2)))
    assert check_myb(g).passed


def test_myb_projection_fails_with_pinned_witness():
    # R = diag(1,0,0) on the cross-product basis: at (e2,e3) the left side
    # vanishes and the right side is R^2[e2,e3] = e1.
    so3 = so_n(3)
    g = LieWithOperator(so3.bracket, Operator.diagonal([1, 0, 0]))
    report = check_myb(g)
    assert not report.passed
    assert report.witness.indices == (1, 2)
    assert report.witness.residual == (-1, 0, 0)


def test_constructor_rejects_non_lie_bracket():
    from opalg import BilinearStructure

    bad = BilinearStructure(2, {(0, 0): {1: 1}})
    with pytest.raises(ValueError):
        LieWithOperator(bad, Operator.identity(2))


# ---------------------------------------------------------------------------
# derived bracket


def test_bracket_r_identity_operator_reproduces_bracket():
    gl2 = gl_assoc(2)
    g = LieWithOperator(gl2.bracket, Operator.identity(4))
    assert g.bracket_R == gl2.bracket


def test_bracket_r_zero_operator_gives_zero():
    gl2 = gl_assoc(2)
    g = LieWithOperator(gl2.bracket, Operator.zero(4))
    assert g.bracket_R.sorted_rows() == []


def test_bracket_r_matches_matrix_oracle_entrywise():
    # [E12, E21]_R = E12 Q E21 - E21 Q E12 = 2 E11 - E22 for Q = diag(1,2)
    e2 = example2_gl(2)
    derived = LieWithOperator(e2.bracket, e2.operators["R1"]).bracket_R
    assert derived.value(1, 2) == {0: 2, 3: -1}
    assert derived == qy_bracket_oracle(e2, e2.q)


# ---------------------------------------------------------------------------
# polynomial closure


def test_polynomial_closure_affine():
    e2 = example2_gl(2)
    g = LieWithOperator(e2.bracket, e2.operators["R1"])
    assert all(r.passed for r in check_polynomial_closure(g, [1, 1]))  # f(x) = 1 + x


def test_polynomial_closure_identity_polynomial():
    e2 = example2_gl(2)
    g = LieWithOperator(e2.bracket, e2.operators["R1"])
    assert all(r.passed for r in check_polynomial_closure(g, [0, 1]))


def test_polynomial_closure_square_is_right_mult_by_q_squared():
    e2 = example2_gl(2)
    R = e2.operators["R1"]
    g = LieWithOperator(e2.bracket, R)
    assert all(r.passed for r in check_polynomial_closure(g, [0, 0, 1]))
    q_squared = mat_mul(e2.q, e2.q)
    assert op_polynomial([0, 0, 1], R) == right_mult(e2, q_squared)


def test_polynomial_closure_precondition_error():
    so3 = so_n(3)
    g = LieWithOperator(so3.bracket, Operator.diagonal([1, 0, 0]))
    base, closure = check_polynomial_closure(g, [0, 1])
    assert closure is None and not base.passed
    assert base.name == "myb" and base.witness.indices == (1, 2)


# ---------------------------------------------------------------------------
# bi-operator structures


def test_bi_myb_right_left_pair():
    e2 = example2_gl(2)
    g = LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"])
    report = check_bi_myb(g)
    assert report.passed
    oracle = qy_bracket_oracle(e2, e2.q)
    assert derived_bracket(e2.bracket, g.R1) == oracle
    assert derived_bracket(e2.bracket, g.R2) == oracle


def test_bi_myb_diagonal_pair():
    e2 = example2_gl(2)
    R = e2.operators["R1"]
    assert check_bi_myb(LieBiOperator(e2.bracket, R, R)).passed


def test_bi_myb_noncommuting_right_multiplications_fail():
    gl2 = gl_assoc(2)
    r_q = right_mult(gl2, ((1, 0), (0, 2)))
    r_qp = right_mult(gl2, ((0, 1), (1, 0)))  # QQ' != Q'Q
    report = check_bi_myb(LieBiOperator(gl2.bracket, r_q, r_qp))
    assert not report.passed
    failing = {s.name for s in report.subchecks if not s.passed}
    assert failing & {"operators-commute", "derived-brackets-coincide"}
    assert report.witness is not None


def test_even_tempered_right_left_pair():
    e2 = example2_gl(2)
    g = LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"])
    assert check_even_tempered(g).passed


def test_even_tempered_fails_for_equal_right_multiplications():
    e2 = example2_gl(2)
    R = e2.operators["R1"]
    g = LieBiOperator(e2.bracket, R, R)
    assert check_bi_myb(g).passed
    report = check_even_tempered(g)
    assert not report.passed
    assert report.witness is not None


def test_even_tempered_scalar_pair_passes():
    so3 = so_n(3)
    c = Operator.identity(3).scale(scalar(5, 3))
    assert check_even_tempered(LieBiOperator(so3.bracket, c, c)).passed


# ---------------------------------------------------------------------------
# xi characterization


def test_xi_characterization_for_multiplication_difference():
    e2 = example2_gl(2)
    g = LieWithOperator(e2.bracket, e2.operators["R1"])
    report = check_xi_characterization(g, e2.operators["xi"])
    assert report.passed
    assert all(s.passed for s in report.subchecks)


def test_xi_zero_passes():
    e2 = example2_gl(2)
    g = LieWithOperator(e2.bracket, e2.operators["R1"])
    assert check_xi_characterization(g, Operator.zero(4)).passed


def test_xi_identity_fails_derivation_on_first_noncommuting_pair():
    e2 = example2_gl(2)
    g = LieWithOperator(e2.bracket, e2.operators["R1"])
    report = check_xi_characterization(g, Operator.identity(4))
    assert not report.passed
    derivation = report.sub("xi-derivation")
    assert not derivation.passed
    assert derivation.witness.indices == (0, 1)  # [E11, E12] = E12 is nonzero


def test_even_tempered_xi_on_multiplication_pair():
    e2 = example2_gl(2)
    g = LieWithOperator(e2.bracket, e2.operators["R1"])
    assert check_even_tempered_xi(g, e2.operators["xi"]).passed


def test_even_tempered_xi_scalar_operator():
    so3 = so_n(3)
    g = LieWithOperator(so3.bracket, Operator.identity(3).scale(2))
    assert check_even_tempered_xi(g, Operator.zero(3)).passed


def test_even_tempered_xi_random_pair_fails_with_witness():
    so3 = so_n(3)
    rng = random.Random(99)
    g = LieWithOperator(so3.bracket, random_operator(rng, 3))
    report = check_even_tempered_xi(g, random_operator(rng, 3))
    assert not report.passed
    assert report.witness is not None


# ---------------------------------------------------------------------------
# midpoint probe and parameter conversion


def test_probe_r0_bracket_coincidence():
    e2 = example2_gl(2)
    g = LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"])
    bi_myb, report = probe_r0(g)
    assert bi_myb == check_bi_myb(g) and bi_myb.passed
    assert report.passed
    assert report.sub("midpoint-bracket-coincidence").passed
    assert report.sub("midpoint-myb").informational


def test_probe_r0_degenerate_midpoint():
    e2 = example2_gl(2)
    R = e2.operators["R1"]
    bi_myb, report = probe_r0(LieBiOperator(e2.bracket, R, R))
    assert bi_myb.passed
    assert report.passed
    assert report.sub("midpoint-myb").passed  # R0 = R is mYB here


def test_probe_r0_precondition():
    gl2 = gl_assoc(2)
    r_q = right_mult(gl2, ((1, 0), (0, 2)))
    r_qp = right_mult(gl2, ((0, 1), (1, 0)))
    g = LieBiOperator(gl2.bracket, r_q, r_qp)
    bi_myb, report = probe_r0(g)
    assert not bi_myb.passed and report is None
    assert bi_myb == check_bi_myb(g)


def test_convert_params_equal_operators_give_zero_xi():
    R = Operator([[1, 2], [3, 4]])
    _, xi = convert_params(R, R)
    assert xi == Operator.zero(2)


@pytest.mark.parametrize("convert", [convert_params, convert_params_inverse])
def test_convert_params_dimension_mismatch(convert):
    with pytest.raises(DimensionMismatchError, match="operator dims differ"):
        convert(Operator.identity(2), Operator.identity(3))


def test_convert_params_multiplication_pair():
    e2 = example2_gl(2)
    R, xi = convert_params(e2.operators["R1"], e2.operators["R2"])
    assert R == e2.operators["R1"]
    assert xi == e2.operators["xi"]


def test_convert_params_round_trip_random():
    rng = random.Random(7)
    for _ in range(5):
        r1, r2 = random_operator(rng, 3), random_operator(rng, 3)
        assert convert_params_inverse(*convert_params(r1, r2)) == (r1, r2)


# ---------------------------------------------------------------------------
# theorem-shaped invariants on concrete instances


def test_derived_bracket_of_myb_operator_is_lie():
    for n in (2, 3):
        entry = example2_gl(n)
        for name in ("R1", "R2"):
            derived = derived_bracket(entry.bracket, entry.operators[name])
            from opalg import check_antisymmetry

            assert check_antisymmetry(derived).passed
            assert check_jacobi(derived).passed


def test_myb_outcome_invariant_under_scaling():
    so3 = so_n(3)
    passing = Operator.identity(3).scale(scalar(2, 3))
    failing = Operator.diagonal([1, 0, 0])
    for op, expected in ((passing, True), (failing, False)):
        for c in (scalar(1, 2), 2, scalar(-7, 3)):
            assert check_myb_raw(so3.bracket, op.scale(c)).passed is expected
