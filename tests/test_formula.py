"""The formula evaluator: parse errors, structure checks, documented formulas,
witness positions in the loop nest, and every stated formula against a
tree-walking interpreter."""

import itertools
import random
from fractions import Fraction

import pytest

import opalg as oa
from opalg import bunch, core, jordan, lie
from opalg.bunch import QUADRATIC_BRACKET
from opalg.core import JACOBI, vec_dense, vec_iadd
from opalg.formula import Formula, _Parser, scan, tabulate
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
        (oa.RRhoAlgebra.bracket_rho.func, QUADRATIC_BRACKET),
    ],
)
def test_public_docstrings_state_their_formula(fn, formula):
    assert formula.text in fn.__doc__


# ---------------------------------------------------------------------------
# witness position and tuple count


def _plus(u, v):
    return vec_iadd(dict(u), v)


# Each formula has a term computed at an outer loop of the nest ([X,Y], RX or
# <A,B,X>) plus a term needing every variable; arity 3 also has a partial
# application.  Beside each is the same residual written out by hand.
NESTS = {
    2: (
        Formula("nest-2", "X Y", "R[RX,Y] + [X,Y]"),
        lambda b, t, R, x, y: _plus(R.apply(b.apply_first(R.column(x), y)), b.value(x, y)),
    ),
    3: (
        Formula("nest-3", "X Y Z", "[[X,Y],Z] + <RX,RY,RZ>"),
        lambda b, t, R, x, y, z: _plus(
            b.apply_first(b.value(x, y), z), t.apply(R.column(x), R.column(y), R.column(z))
        ),
    ),
    4: (
        Formula("nest-4", "X Y Z W", "<[X,Y],Z,W> + <X,Y,[Z,W]>"),
        lambda b, t, R, x, y, z, w: _plus(
            t.apply_first(b.value(x, y), z, w), t.apply_last(x, y, b.value(z, w))
        ),
    ),
    5: (
        Formula("nest-5", "A B X Y Z", "<<A,B,X>,Y,Z> + <A,B,<X,Y,Z>>"),
        lambda b, t, R, a, bb, x, y, z: _plus(
            t.apply_first(t.value(a, bb, x), y, z), t.apply_last(a, bb, t.value(x, y, z))
        ),
    ),
}
DIM = 3
IDENTITY = oa.Operator.identity(DIM)
# (arity, bracket entries, triple entries, operator, first failure or None)
PLACES = [
    *((a, {(0, 0): {0: 1}}, {(0, 0, 0): {0: 1}}, IDENTITY, (0,) * a) for a in NESTS),
    *((a, {(2, 2): {2: 1}}, {(2, 2, 2): {2: 1}}, IDENTITY, (2,) * a) for a in NESTS),
    *((a, {}, {}, IDENTITY, None) for a in NESTS),
    # the outer term (R e0, [e0,e1], [e0,e0], <e0,e0,e0>) is empty at the failing prefix
    (2, {(0, 1): {0: 1}}, {}, oa.Operator.diagonal([0, 1, 1]), (0, 1)),
    (3, {(2, 2): {2: 1}}, {(0, 1, 0): {0: 1}}, IDENTITY, (0, 1, 0)),
    (4, {(2, 2): {2: 1}}, {(0, 0, 2): {0: 1}}, IDENTITY, (0, 0, 2, 2)),
    (5, {}, {(0, 0, 1): {1: 1}}, IDENTITY, (0, 0, 0, 0, 1)),
    # rational structures: the witness residuals are 5/9 e0 and 1/4 e2
    (2, {(0, 1): {0: scalar(1, 2)}}, {}, oa.Operator.diagonal([scalar(1, 3), 1, 1]), (0, 1)),
    (3, {}, {(0, 1, 0): {2: 1}}, oa.Operator.diagonal([1, scalar(1, 2), 1]), (0, 1, 0)),
]


@pytest.mark.parametrize("arity, brackets, triples, R, first", PLACES)
def test_witness_and_tuple_count_match_a_plain_loop(arity, brackets, triples, R, first):
    formula, by_hand = NESTS[arity]
    b, t = oa.BilinearStructure(DIM, brackets), oa.TrilinearStructure(DIM, triples)
    expected = (True, None, DIM**arity)
    for count, idx in enumerate(itertools.product(range(DIM), repeat=arity), 1):
        r = by_hand(b, t, R, *idx)
        if r:
            expected = (False, oa.Witness(idx, vec_dense(r, DIM)), count)
            break
    assert (expected[1].indices if expected[1] else None) == first
    report = scan(formula, {"bracket": b, "triple": t, "R": R})
    assert (report.passed, report.witness, report.tuples_evaluated) == expected


def test_scans_never_contract_the_full_triple_tensor(monkeypatch):
    e3 = oa.example3_gl(2)
    args = (e3.triple, e3.operators["R1"], e3.operators["R2"])
    expected = oa.check_triple_bi_myb(*args)

    def refuse(*args):
        raise AssertionError("full-tensor apply called")

    monkeypatch.setattr(oa.TrilinearStructure, "apply", refuse)
    assert expected.passed
    assert oa.check_triple_bi_myb(*args) == expected


# ---------------------------------------------------------------------------
# every stated formula, compiled and run once


def _stated_formulas() -> dict:
    found = {}
    for module in (core, lie, jordan, bunch):
        for value in vars(module).values():
            if isinstance(value, dict):
                value = list(value.values())
            for f in value if isinstance(value, (list, tuple)) else [value]:
                if isinstance(f, Formula):
                    found[f.name] = f
    return found


STATED = _stated_formulas()


def _interpret(t, idx, structures):
    """A term at one basis tuple, with full contractions only."""
    if t[0] == "var":
        return {idx[t[1]]: 1}
    if t[0] == "sum":
        acc = {}
        for c, s in t[1]:
            vec_iadd(acc, _interpret(s, idx, structures), c)
        return acc
    if t[0] == "op":
        v = _interpret(t[2], idx, structures)
        for name in reversed(t[1]):
            v = structures[name].apply(v)
        return v
    return structures[t[1]].apply(*(_interpret(a, idx, structures) for a in t[2:]))


def _generic_structures(rational: bool = False) -> dict:
    """Seeded structures on dimension 4 that satisfy none of the identities.

    Rational ones give the structures the denominators 2, 3, 4, 5, 6, 2, ...
    in turn, each entry p/q or p/1, so adjacent structures clear to integers
    with different denominators."""
    rng = random.Random(4)
    denominators = itertools.cycle((2, 3, 4, 5, 6) if rational else (1,))

    def entries(arity):
        q, keys = next(denominators), itertools.product(range(4), repeat=arity)
        return {
            key: {k: scalar(rng.randint(-2, 2), rng.choice((1, q))) for k in range(4)}
            for key in keys
            if rng.random() < 0.4
        }

    s = {}
    for name in ("R", "R1", "R2", "xi"):
        q = next(denominators)
        rows = [[scalar(rng.randint(-1, 2), rng.choice((1, q))) for _ in range(4)] for _ in range(4)]
        s[name] = oa.Operator(rows)
    s.update(S=s["R2"], rho=s["R1"] @ s["R2"], r0=s["R"], r1=s["R1"], r2=s["xi"])
    for key in ("bracket", "bracket_R", "bracket_rho", "bracket_b0", "bracket_b1", "bracket_b2"):
        s[key] = oa.BilinearStructure(4, entries(2))
    s.update(triple=oa.TrilinearStructure(4, entries(3)), triple_R=oa.TrilinearStructure(4, entries(3)))
    return s


def _interpreted(formula, structures) -> dict:
    top = _Parser(formula.text, formula.variables).residual()
    dim = next(iter(structures.values())).dim
    expected = {}
    for idx in itertools.product(range(dim), repeat=formula.arity):
        r = _interpret(top, idx, structures)
        if r:
            expected[idx] = r
    return expected


@pytest.mark.parametrize(
    "variables, text",
    [
        ("X Y Z", "R[X,Y] + [[X,Y],Z]"),  # a value from an outer loop starts an inner sum
        ("X Y", "R(R[X,Y] + [X,Y]) + [R[X,Y],Y]"),  # a value read again after a sum
        ("X Y", "[X,RY] + [X,RY] + [X,RY]"),  # one value summed with itself
        ("X Y Z", "<RZ,RX,RY>"),  # partial application, deep argument in each slot
        ("X Y Z", "<RX,RZ,RY>"),
        ("X Y Z", "<RX,RY,RZ>"),
        ("X Y Z", "<RX,RY,RY> + <RZ,RZ,RX>"),  # two arguments equally deep: full apply
    ],
)
def test_codegen_rules_match_an_interpreter(variables, text):
    formula = Formula("rules", variables, text)
    for structures in (_generic_structures(), _generic_structures(rational=True)):
        nonzero, _ = formula.bind(structures)
        assert dict(nonzero) == _interpreted(formula, structures)


def test_every_stated_formula_is_collected():
    assert len(STATED) >= 39


@pytest.mark.parametrize("name", sorted(STATED))
def test_stated_formula_compiles_and_matches_an_interpreter(name):
    formula = STATED[name]
    for structures in (_generic_structures(), _generic_structures(rational=True)):
        nonzero, _ = formula.bind(structures)
        assert dict(nonzero) == _interpreted(formula, structures)


def _empty_structures(dim: int) -> dict:
    """Every structure name a stated formula reads, zero on dimension dim."""
    s = {name: oa.Operator.zero(dim) for name in ("R", "R1", "R2", "S", "xi", "rho", "r0", "r1", "r2")}
    for key in ("bracket", "bracket_R", "bracket_rho", "bracket_b0", "bracket_b1", "bracket_b2"):
        s[key] = oa.BilinearStructure(dim)
    s.update(triple=oa.TrilinearStructure(dim), triple_R=oa.TrilinearStructure(dim))
    return s


@pytest.mark.parametrize("name", sorted(n for n, f in STATED.items() if f.arity in core._SCAN_GUARDS))
def test_bind_is_guarded_before_integer_forms(monkeypatch, name):
    formula = STATED[name]
    dim = core._SCAN_GUARDS[formula.arity] + 1
    structures = _empty_structures(dim)
    cleared = []
    for cls in (oa.Operator, oa.BilinearStructure, oa.TrilinearStructure):
        integer_form = cls.integer_form
        monkeypatch.setattr(cls, "integer_form", lambda self, f=integer_form: cleared.append(self) or f(self))
    with pytest.raises(oa.DimensionGuardError, match=f"{name}: dim\\^{formula.arity} scan at dim={dim}"):
        formula.bind(structures)
    assert cleared == []
    with oa.forced():
        _, bound_dim = formula.bind(structures)
    assert bound_dim == dim and cleared


def test_rational_structures_clear_to_distinct_denominators():
    denominators = {name: s.integer_form()[1] for name, s in _generic_structures(True).items()}
    assert set(denominators.values()) >= {2, 3, 4, 5, 6}
    assert all(s.integer_form() == (s, 1) for s in _generic_structures().values())


# ---------------------------------------------------------------------------
# scans run on integers


def _refuse_fraction_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a scan")

    for op in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "neg"):
        monkeypatch.setattr(Fraction, f"__{op}__", refuse)


def test_scans_run_on_integers_and_divide_back_exactly(monkeypatch):
    rng = random.Random(5)

    def q():
        return scalar(rng.randint(-3, 3), rng.randint(1, 6))

    # gl(2) with its bracket scaled by 2/3 is still a Lie algebra, now with a rational bracket
    rows = [(i, j, k, scalar(2, 3) * s) for i, j, k, s in oa.gl_assoc(2).bracket.sorted_rows()]
    bracket = oa.BilinearStructure.from_rows(4, rows)
    R, rho = (oa.Operator([[q() for _ in range(4)] for _ in range(4)]) for _ in "ab")
    keys = itertools.product(range(4), repeat=3)
    triple = oa.TrilinearStructure(4, {key: {k: q() for k in range(4)} for key in keys})
    a = oa.RRhoAlgebra(bracket, R, rho)
    bunch = oa.build_bunch(a)
    checks = [
        lambda: oa.check_myb_raw(bracket, R),
        lambda: oa.check_rrho(a),
        lambda: oa.check_gamma_bunch(bunch),
        lambda: oa.check_triple_myb_raw(triple, R),
    ]
    expected = [check() for check in checks]
    witnesses = [w for r in expected for w in [r.witness, *(s.witness for s in r.subchecks)] if w]
    assert any(isinstance(x, Fraction) for w in witnesses for x in w.residual)
    _refuse_fraction_arithmetic(monkeypatch)
    assert [check() for check in checks] == expected
