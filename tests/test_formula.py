"""The formula evaluator: parse errors, structure checks, documented formulas."""

import pytest

import opalg as oa
from opalg.bunch import QUADRATIC_BRACKET
from opalg.core import JACOBI, vec_iadd
from opalg.formula import Formula, scan, tabulate
from opalg.jordan import DERIVED_TRIPLES, TRIPLE_MYB
from opalg.lie import DERIVED_BRACKET, MYB
from opalg.scalars import render_scalar, scalar


@pytest.mark.parametrize("text", ["[X,Y", "[X,Y] + ", "<X,Y>", "[X,Y] ? [Y,X]", "R^[X,Y]"])
def test_malformed_formula_is_a_value_error(text):
    with pytest.raises(ValueError):
        scan(Formula("bad", "X Y", text), {"bracket": oa.so_n(3).bracket, "R": oa.Operator.identity(3)})


def test_structures_of_different_dimensions_are_refused():
    with pytest.raises(oa.DimensionMismatchError):
        scan(MYB, {"bracket": oa.so_n(3).bracket, "R": oa.Operator.identity(4)})


@pytest.mark.parametrize("c1, c2", [(1, 1), (2, -1), (scalar(1, 2), scalar(1, 2))])
def test_terms_under_one_operator_word_are_summed_exactly(c1, c2):
    e = oa.example2_gl(2, [[1, 2], [0, 3]])
    b, R = e.bracket, e.operators["R"]
    sign = "+" if c2 > 0 else "-"
    text = f"{render_scalar(c1)} R[RX,Y] {sign} {render_scalar(abs(c2))} R[X,RY] - R^2[X,Y]"
    table = tabulate(Formula("grouped", "X Y", text), {"bracket": b, "R": R})
    for i in range(4):
        for j in range(4):
            expected = {k: c1 * v for k, v in R.apply(b.apply_first(R.column(i), j)).items()}
            vec_iadd(expected, R.apply(b.apply_second(i, R.column(j))), c2)
            vec_iadd(expected, (R @ R).apply(b.value(i, j)), -1)
            assert table.value(i, j) == expected


@pytest.mark.parametrize(
    "fn, formula",
    [
        (oa.check_jacobi, JACOBI),
        (oa.check_myb_raw, MYB),
        (oa.derived_bracket, DERIVED_BRACKET),
        (oa.check_triple_myb_raw, TRIPLE_MYB),
        (oa.derived_triple, DERIVED_TRIPLES[oa.MODE_REDUCED]),
        (oa.bracket_rho, QUADRATIC_BRACKET),
    ],
)
def test_public_docstrings_state_their_formula(fn, formula):
    assert formula.text in fn.__doc__
