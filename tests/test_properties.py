"""Property-based tests for the exact-arithmetic and identity-checking contracts."""

import random

from hypothesis import given, settings, strategies as st

from opalg import (
    BilinearStructure,
    LieBiOperator,
    LieWithOperator,
    Operator,
    QuadraticBunch,
    TrilinearStructure,
    apply_bilinear,
    apply_trilinear,
    check_antisymmetry,
    check_bi_myb,
    check_even_tempered,
    check_even_tempered_xi,
    check_gamma_bunch,
    check_jacobi,
    check_myb_raw,
    check_polynomial_closure,
    convert_params,
    derived_bracket,
    example2_gl,
    gl_assoc,
    op_polynomial,
    so_n,
)
from opalg.core import vec_iadd
from opalg.sampling import random_operator
from opalg.scalars import parse_scalar, render_scalar, scalar

scalars = st.builds(scalar, st.integers(-9, 9), st.integers(1, 9))
nonzero_scalars = scalars.filter(bool)


def vectors(dim, max_size=3):
    return st.dictionaries(st.integers(0, dim - 1), nonzero_scalars, max_size=max_size)


def bilinear_structures(dim):
    keys = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    return st.builds(
        lambda entries: BilinearStructure(dim, entries),
        st.dictionaries(keys, vectors(dim), max_size=6),
    )


def trilinear_structures(dim):
    keys = st.tuples(*(st.integers(0, dim - 1),) * 3)
    return st.builds(
        lambda entries: TrilinearStructure(dim, entries),
        st.dictionaries(keys, vectors(dim), max_size=6),
    )


def operators(dim):
    return st.builds(
        Operator,
        st.lists(st.lists(scalars, min_size=dim, max_size=dim), min_size=dim, max_size=dim),
    )


@given(scalars)
def test_scalar_render_parse_round_trip(s):
    assert parse_scalar(render_scalar(s)) == s


@given(bilinear_structures(3), vectors(3), vectors(3), vectors(3), scalars, scalars)
def test_bilinear_evaluation_is_exactly_linear(b, x1, x2, y, alpha, beta):
    combo = {k: alpha * v for k, v in x1.items()}
    for k, v in x2.items():
        t = combo.get(k, 0) + beta * v
        if t:
            combo[k] = t
        else:
            combo.pop(k, None)
    lhs = apply_bilinear(b, combo, y)
    rhs = {k: alpha * v for k, v in apply_bilinear(b, x1, y).items()}
    vec_iadd(rhs, apply_bilinear(b, x2, y), beta)
    assert lhs == {k: v for k, v in rhs.items() if v}


@given(trilinear_structures(3), vectors(3), vectors(3), vectors(3), vectors(3), scalars, scalars)
def test_trilinear_evaluation_is_exactly_linear(t, y1, y2, x, z, alpha, beta):
    combo = {k: alpha * v for k, v in y1.items()}
    for k, v in y2.items():
        s = combo.get(k, 0) + beta * v
        if s:
            combo[k] = s
        else:
            combo.pop(k, None)
    lhs = apply_trilinear(t, x, combo, z)
    rhs = {k: alpha * v for k, v in apply_trilinear(t, x, y1, z).items()}
    vec_iadd(rhs, apply_trilinear(t, x, y2, z), beta)
    assert lhs == {k: v for k, v in rhs.items() if v}


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@settings(max_examples=40)
@given(
    operators(3),
    st.lists(scalars, min_size=1, max_size=3),
    st.lists(scalars, min_size=1, max_size=3),
)
def test_polynomial_evaluation_is_multiplicative(R, f, g):
    assert op_polynomial(poly_mul(f, g), R) == op_polynomial(f, R) @ op_polynomial(g, R)


@given(bilinear_structures(3))
def test_check_reports_are_deterministic_across_runs(b):
    assert check_antisymmetry(b) == check_antisymmetry(b)
    assert check_jacobi(b) == check_jacobi(b)


@settings(max_examples=30)
@given(operators(3), nonzero_scalars)
def test_myb_outcome_is_scaling_invariant(R, c):
    bracket = so_n(3).bracket
    assert check_myb_raw(bracket, R.scale(c)).passed == check_myb_raw(bracket, R).passed


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(scalars, min_size=1, max_size=4),
)
def test_derived_bracket_of_polynomial_images_is_lie(q_rows, coeffs):
    # every f(R) of a right multiplication satisfies the mYB identity, so its
    # derived bracket must again be a Lie bracket
    entry = gl_assoc(2)
    from opalg.oracles import mat_mul

    right = entry.operator_from_matrix_map(lambda x: mat_mul(x, tuple(map(tuple, q_rows))))
    fr = op_polynomial(coeffs, right)
    assert check_myb_raw(entry.bracket, fr).passed
    derived = derived_bracket(entry.bracket, fr)
    assert check_antisymmetry(derived).passed
    assert check_jacobi(derived).passed


@settings(max_examples=15, deadline=None)
@given(st.lists(scalars, min_size=1, max_size=4))
def test_polynomial_closure_and_pair_transport(coeffs):
    e2 = example2_gl(2)
    g = LieWithOperator(e2.bracket, e2.operators["R1"])
    assert all(r.passed for r in check_polynomial_closure(g, coeffs))
    pair = LieBiOperator(
        e2.bracket,
        op_polynomial(coeffs, e2.operators["R1"]),
        op_polynomial(coeffs, e2.operators["R2"]),
    )
    assert check_bi_myb(pair).passed


@settings(max_examples=10, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2))
def test_affine_family_is_a_linear_bunch(q_rows):
    # [.,.] + l [.,.]_R from an mYB operator is a one-parameter family of
    # compatible Lie brackets: checked coefficient-wise via the bunch engine
    # with vanishing quadratic parts
    entry = gl_assoc(2)
    from opalg.oracles import mat_mul

    right = entry.operator_from_matrix_map(lambda x: mat_mul(x, tuple(map(tuple, q_rows))))
    bunch = QuadraticBunch(
        entry.bracket,
        derived_bracket(entry.bracket, right),
        BilinearStructure(entry.dim),
        Operator.identity(entry.dim),
        right,
        Operator.zero(entry.dim),
    )
    assert check_gamma_bunch(bunch).passed


def test_even_tempered_flags_agree_with_xi_form_on_seeded_pairs():
    # the two-operator identities and their (R, xi) rewriting have equal pass
    # flags on sampled pairs, passing or failing alike
    bracket = gl_assoc(2).bracket
    rng = random.Random(20260811)
    agree = 0
    for _ in range(50):
        r1, r2 = random_operator(rng, 4), random_operator(rng, 4)
        pair_flag = check_even_tempered(LieBiOperator(bracket, r1, r2)).passed
        R, xi = convert_params(r1, r2)
        xi_flag = check_even_tempered_xi(LieWithOperator(bracket, R), xi).passed
        assert pair_flag == xi_flag
        agree += 1
    assert agree == 50
