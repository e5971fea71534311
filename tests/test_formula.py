"""The formula evaluators: parse errors, structure checks, documented formulas,
witness positions in the loop nest and the joins, and every stated formula
against a tree-walking interpreter."""

import importlib.util
import itertools
import marshal
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import opalg as oa
from opalg import bunch, core, jordan, lie
from opalg import formula as formula_module
from opalg.catalog import build_entry
from opalg.bunch import QUADRATIC_BRACKET
from opalg.core import JACOBI, vec_dense, vec_iadd
from opalg.formula import Formula, _Joins, _Parser, scan, tabulate
from opalg.jordan import DERIVED_TRIPLES, TRIPLE_MYB
from opalg.lie import DERIVED_BRACKET, MYB
from opalg.scalars import render_scalar, scalar


@pytest.mark.parametrize("text", ["[X,Y", "[X,Y] + ", "<X,Y>", "[X,Y] ? [Y,X]", "R^[X,Y]"])
def test_malformed_formula_is_a_value_error(text):
    with pytest.raises(ValueError):
        scan(Formula("bad", "X Y", text), {"bracket": oa.so_n(3).bracket, "R": oa.Operator.identity(3)})


@pytest.mark.parametrize("evaluate", [scan, tabulate])
def test_a_formula_that_reads_no_structure_is_a_value_error(evaluate):
    # the second formula of the same text reads its nest from the first one's cache entry
    for _ in range(2):
        with pytest.raises(ValueError, match="no-structure: the formula reads no structure"):
            evaluate(Formula("no-structure", "X Y", "X - Y"), {})


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
        (oa.check_triple_myb, TRIPLE_MYB),
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
    # (R1, R2) pass triple mYB and read their reduced triples; R = left +
    # right fails it, so its full derived triple is tabulated
    e3 = oa.example3_gl(2)
    pairs = [("R1", "R2"), ("R", "R2")]

    def records(pair):
        return [oa.TripleWithOperator(e3.triple, e3.operators[name]) for name in pair]

    expected = [oa.check_triple_bi_myb(*records(pair)) for pair in pairs]

    def refuse(*args):
        raise AssertionError("full-tensor apply called")

    monkeypatch.setattr(oa.TrilinearStructure, "apply", refuse)
    assert expected[0].passed and not expected[1].passed
    assert [oa.check_triple_bi_myb(*records(pair)) for pair in pairs] == expected


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


def _tabulated(formula, structures) -> dict:
    """tabulate's tensor as {index tuple: vector}, comparable with _interpreted."""
    table = tabulate(formula, structures)
    return {key: table.value(*key) for key in table.support()}


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
        nonzero, _, _ = formula.bind(structures)
        assert dict(nonzero) == _interpreted(formula, structures)


def test_every_stated_formula_is_collected():
    assert len(STATED) >= 38


@pytest.mark.parametrize("name", sorted(STATED))
def test_stated_formula_compiles_and_matches_an_interpreter(name):
    formula = STATED[name]
    for structures in (_generic_structures(), _generic_structures(rational=True)):
        nonzero, _, _ = formula.bind(structures)
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
        _, bound_dim, _ = formula.bind(structures)
    assert bound_dim == dim and cleared


# ---------------------------------------------------------------------------
# joins: the evaluator of every formula of arity 4 and 5

JOINED = sorted(name for name, f in STATED.items() if f.arity >= 4)


def test_bind_compiles_a_nest_only_below_arity_4():
    structures = {"bracket": oa.BilinearStructure(DIM), "triple": oa.TrilinearStructure(DIM), "R": IDENTITY}
    for arity, (formula, _) in NESTS.items():
        fresh = Formula(formula.name, " ".join(formula.variables), formula.text)
        assert list(fresh.bind(structures)[0]) == []
        assert ("_nest" in vars(fresh)) == (arity <= 3)
    assert JOINED == ["equivariance", "jts-alternate", "jts-jacobson", "polarized-bracket-condition"]


@pytest.mark.parametrize("name", JOINED)
def test_joins_yield_the_interpreter_stream_in_lex_order(name):
    formula = STATED[name]
    for structures in (_generic_structures(), _generic_structures(rational=True)):
        nonzero, _, _ = formula.bind(structures)
        assert list(nonzero) == list(_interpreted(formula, structures).items())


@pytest.mark.parametrize(
    "variables, text",
    [
        ("A X Y Z", "<X,Y,Z>"),  # no term reads the first variable
        ("A X Y Z", "[A,X] - <X,Y,[A,Z]>"),  # a term missing variables is widened over them
        ("A X Y Z", "<A,A,[X,Y]> + <[Z,A],Z,X>"),  # repeated variables
        ("A B X Y", "R<RA,B,X> + [R1R2(Y + 1/2[A,B]),X]_R + xi<A,B,<X,Y,A>_R>"),  # operators, scales
        ("A B X Y Z", "<[A,B],X,R<Y,Z,A>> - 1/3<A,RB,[X,Y]>"),
    ],
)
def test_join_rules_match_an_interpreter(variables, text):
    formula = Formula("rules", variables, text)
    for structures in (_generic_structures(), _generic_structures(rational=True)):
        nonzero, _, _ = formula.bind(structures)
        assert list(nonzero) == list(_interpreted(formula, structures).items())


def _perturbed(structure):
    """The structure with the scalar of its middle sparse row moved by 1/2."""
    rows = structure.sorted_rows()
    *key, value = rows[len(rows) // 2]
    rows[len(rows) // 2] = (*key, value + scalar(1, 2))
    return core.TENSOR_CLASSES[structure.arity].from_rows(structure.dim, rows)


@pytest.mark.parametrize("spec", ["example3-gl2", "gl2", "example1-so3", "example1-so3?triple=two-term"])
def test_joins_find_a_perturbed_entry_where_the_interpreter_does(spec):
    entry = build_entry(spec)
    bracket, triple = entry.bracket, entry.triple
    cases = [(STATED[name], {"bracket": bracket, "triple": _perturbed(triple)}) for name in JOINED]
    cases += [(f, {"bracket": _perturbed(bracket), "triple": triple}) for f in (jordan.EQUIVARIANCE, jordan.POLARIZED_DESIGN)]
    for formula, structures in cases:
        expected = list(_interpreted(formula, structures).items())
        assert expected, formula.name  # the perturbation shows
        nonzero, dim, _ = formula.bind(structures)
        assert list(nonzero) == expected
        report = scan(formula, structures)
        assert report.witness == oa.Witness(expected[0][0], vec_dense(expected[0][1], dim))


def test_joins_read_the_index_the_triple_keeps():
    gl2 = build_entry("gl2")
    triple = gl2.triple
    assert triple.integer_form()[0] is triple
    assert jordan.check_design(jordan.DesignCandidate(gl2.bracket, triple)).passed
    assert "_by_slot" in vars(triple)  # built by the design's joins, kept by the triple
    kept = [triple.entries_by(s) for s in range(3)]
    assert core.check_jts_identity(triple, "jacobson").passed
    assert all(triple.entries_by(s) is index for s, index in enumerate(kept))


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
        lambda: oa.check_triple_myb(oa.TripleWithOperator(triple, R)),
    ]
    expected = [check() for check in checks]
    witnesses = [w for r in expected for w in [r.witness, *(s.witness for s in r.subchecks)] if w]
    assert any(isinstance(x, Fraction) for w in witnesses for x in w.residual)
    _refuse_fraction_arithmetic(monkeypatch)
    assert [check() for check in checks] == expected


# ---------------------------------------------------------------------------
# random formulas: the parser and both evaluators against the generated tree
#
# A tree is generated first, over the parser's grammar: ("var", name),
# ("op", ((operator, power), ...), t), ("br", key suffix, a, b),
# ("tr", key suffix, a, b, c) and ("sum", ((coefficient, t), ...)).  It is
# rendered to text for Formula, and the tree itself, not the parse, is
# interpreted at every basis tuple with dense contractions, so the parser is
# checked too.  Each formula runs on the loop nest and on the joins, whatever
# its arity.

RANDOM_SEED = 2026
RANDOM_COUNT = 120  # formulas, each run on integer structures at dim 2 and rational ones at dim 3
ORBIT_COUNT = 40  # symmetrized formulas, each run on four sets of structures
OPERATOR_NAMES = ("R", "R1", "R2", "xi", "rho")
COEFFICIENTS = (1, 1, 1, -1, -1, 2, -3, scalar(1, 2), scalar(-2, 3), scalar(5, 4))


def _random_term(rng, names: tuple, depth: int) -> tuple:
    roll = rng.random() if depth else 0
    if roll < 0.3:
        return ("var", rng.choice(names))
    if roll < 0.55:
        word = tuple((rng.choice(OPERATOR_NAMES), rng.choice((1, 1, 2, 3))) for _ in range(rng.choice((1, 1, 2))))
        return ("op", word, _random_term(rng, names, depth - 1))
    if roll < 0.75:
        return ("br", rng.choice(("", "_R", "_rho")), *(_random_argument(rng, names, depth) for _ in "ab"))
    if roll < 0.9:
        return ("tr", rng.choice(("", "_R")), *(_random_argument(rng, names, depth) for _ in "abc"))
    return _random_sum(rng, names, depth - 1)


def _random_argument(rng, names: tuple, depth: int) -> tuple:
    return _random_sum(rng, names, depth - 1) if rng.random() < 0.15 else _random_term(rng, names, depth - 1)


def _random_sum(rng, names: tuple, depth: int) -> tuple:
    return ("sum", tuple((rng.choice(COEFFICIENTS), _random_term(rng, names, depth)) for _ in range(rng.randint(1, 3))))


def _render(t) -> str:
    """The text of a term where a factor goes: a sum is parenthesized."""
    if t[0] == "var":
        return t[1]
    if t[0] == "sum":
        return f"({_render_sum(t)})"
    if t[0] == "op":
        return "".join(name if power == 1 else f"{name}^{power}" for name, power in t[1]) + _render(t[2])
    arguments = ",".join(_render_sum(a) if a[0] == "sum" else _render(a) for a in t[2:])
    return ("[{}]" if t[0] == "br" else "<{}>").format(arguments) + t[1]


def _render_sum(t) -> str:
    text = ""
    for c, u in t[1]:
        sign = "-" if c < 0 else "+" if text else ""
        text += f" {sign} " if text else sign
        text += ("" if abs(c) == 1 else render_scalar(abs(c))) + _render(u)
    return text


def _dense(t, at: dict, structures: dict) -> dict:
    """The generated term at the basis tuple `at` (variable name -> index),
    with operators applied row by row and contractions over every index tuple."""
    if t[0] == "var":
        return {at[t[1]]: 1}
    if t[0] == "sum":
        acc = {}
        for c, u in t[1]:
            vec_iadd(acc, _dense(u, at, structures), c)
        return acc
    if t[0] == "op":
        v = _dense(t[2], at, structures)
        for name, power in reversed(t[1]):
            rows = structures[name].rows
            for _ in range(power):
                v = {r: x for r, row in enumerate(rows) if (x := sum(row[c] * y for c, y in v.items()))}
        return v
    structure = structures[("bracket" if t[0] == "br" else "triple") + t[1]]
    vectors = [_dense(a, at, structures) for a in t[2:]]
    acc = {}
    for ix in itertools.product(*vectors):
        vec_iadd(acc, structure.value(*ix), math.prod(v[i] for v, i in zip(vectors, ix)))
    return acc


def _random_structures(rng, dim: int, rational: bool) -> dict:
    """Every name a random formula reads, seeded and sparse; rational ones
    give each structure its own denominator."""
    denominators = itertools.cycle((2, 3, 4, 5, 6) if rational else (1,))

    def entry(q):
        return scalar(rng.randint(-3, 3), rng.choice((1, q))) if rng.random() < 0.5 else 0

    def entries(arity, q):
        rows = {key: {k: x for k in range(dim) if (x := entry(q))} for key in itertools.product(range(dim), repeat=arity)}
        return {key: vec for key, vec in rows.items() if vec}

    s = {}
    for name in OPERATOR_NAMES:
        q = next(denominators)
        s[name] = oa.Operator([[entry(q) for _ in range(dim)] for _ in range(dim)])
    for suffix in ("", "_R", "_rho"):
        s["bracket" + suffix] = oa.BilinearStructure(dim, entries(2, next(denominators)))
    for suffix in ("", "_R"):
        s["triple" + suffix] = oa.TrilinearStructure(dim, entries(3, next(denominators)))
    return s


def _on_both_evaluators(formula: Formula, structures: dict, dim: int) -> tuple:
    """The yield streams of the loop nest, every loop over the full range, and
    of the joins on the structures, whatever the arity."""
    top, names = formula._parsed
    forms = {name: structures[name].integer_form() for name in names}
    integer = {name: form for name, (form, _) in forms.items()}
    denominators = {name: d for name, (_, d) in forms.items()}
    nest, _, orbit = formula._nest
    nest = nest(
        core.vec_iadd, core.vec_scale, core.vec_gather, range(dim),
        **{f"_from{b}": [range(dim)] * dim for b in formula_module._bounds(orbit)},
        **integer, **{f"_d_{name}": d for name, d in denominators.items()},
    )
    return list(nest), list(_Joins(top, formula.arity, dim, integer, denominators).residuals())


def _generated(t, names: tuple, structures: dict, dim: int) -> list:
    """[(indices, residual)] of the generated term t over the variables names
    at every basis tuple where it is nonzero, in lex order."""
    out = []
    for idx in itertools.product(range(dim), repeat=len(names)):
        residual = _dense(t, dict(zip(names, idx)), structures)
        if residual:
            out.append((idx, residual))
    return out


def _random_formula(rng, names: tuple, n: int) -> tuple:
    """(generated residual, Formula named random-<n>) over the variables names."""
    sides = [_random_sum(rng, names, 3) for _ in range(rng.choice((1, 2)))]
    text = " = ".join(map(_render_sum, sides)) + (" = 0" if len(sides) == 1 and rng.random() < 0.3 else "")
    t = sides[0] if len(sides) == 1 else ("sum", ((1, sides[0]), (-1, sides[1])))
    return t, Formula(f"random-{n}", " ".join(names), text)


def check_random_formulas(seed: int, count: int) -> set:
    """count random formulas drawn from seed, each on both evaluators against
    the generated tree, on integer structures at dim 2 and rational ones at dim
    3; the set of their arities."""
    rng = random.Random(seed)
    on = [(_random_structures(rng, 2, False), 2), (_random_structures(rng, 3, True), 3)]
    arities = set()
    for n in range(count):
        names = tuple(rng.sample("XYZW", rng.randint(1, 4)))
        t, formula = _random_formula(rng, names, n)
        arities.add(formula.arity)
        for structures, dim in on:
            expected = _generated(t, names, structures, dim)
            nest, joins = _on_both_evaluators(formula, structures, dim)
            assert nest == expected, formula.text
            assert joins == expected, formula.text
    return arities


def test_random_formulas_match_the_generated_tree_on_both_evaluators():
    assert check_random_formulas(RANDOM_SEED, RANDOM_COUNT) == {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# orbits: one tuple per orbit of a symmetry proven of the formula and of its structures


def _mirrored(structures: dict) -> dict:
    """The structures with each bracket made antisymmetric and each triple
    symmetric in its outer two slots: plus mirror_sign times its mirror image."""
    out = dict(structures)
    for name, s in structures.items():
        if isinstance(s, (oa.BilinearStructure, oa.TrilinearStructure)):
            entries = {}
            for key in itertools.product(range(s.dim), repeat=s.arity):
                entries[key] = vec_iadd(dict(s.value(*key)), s.value(*key[::-1]), s.mirror_sign)
            out[name] = core.TENSOR_CLASSES[s.arity](s.dim, entries)
            assert out[name].mirrored
    return out


def _broken(structures: dict) -> dict:
    """The structures with e0 added to each tensor's entry at (0, 1) or (0, 0, 1)
    alone, so that no bracket or triple is mirrored."""
    out = dict(structures)
    for name, s in structures.items():
        if isinstance(s, (oa.BilinearStructure, oa.TrilinearStructure)):
            key = (0,) * (s.arity - 1) + (1,)
            entries = {k: s.value(*k) for k in s.support()}
            entries[key] = vec_iadd(dict(s.value(*key)), {0: 1})
            out[name] = core.TENSOR_CLASSES[s.arity](s.dim, entries)
            assert not out[name].mirrored
    return out


def _assert_one_tuple_per_orbit(formula: Formula, structures: dict, expected: list) -> tuple:
    """bind yields exactly the lex-smallest tuple of each orbit among those of
    expected, the full scan's nonzero tuples, so its first yield is the full
    scan's first; tabulate gives expected's tensor.  Returns bind's orbit."""
    nonzero, dim, orbit = formula.bind(structures)
    smallest = [(idx, r) for idx, r in expected if all(idx <= tuple(idx[k] for k in p) for p, _ in orbit)]
    assert list(nonzero) == smallest, formula.text
    assert smallest[:1] == expected[:1], formula.text
    if formula.arity in core.TENSOR_CLASSES:
        assert tabulate(formula, structures) == core.TENSOR_CLASSES[formula.arity](dim, dict(expected)), formula.text
    return orbit


# The proven orbit of every stated formula of arity 2 and 3: (group size, _bounds).
ORBITS = {
    "i < j": (2, {1: (0, True)}),
    "i <= j": (2, {1: (0, False)}),
    "i < j < k": (6, {1: (0, True), 2: (1, True)}),
    "x <= z": (2, {2: (0, False)}),
    "none": (1, {}),
}
PROVEN = {
    "i < j": [
        "myb", "derived-bracket", "even-tempered", "xi-derivation", "xi-pair-identity",
        "xi-derivation-derived-bracket", "even-tempered-xi", "quadratic-bracket", "rho-bracket-homomorphism",
        "mixed-bracket-compatibility", "regular", *(f"homomorphism-deg{d}" for d in range(5)),
    ],
    "i <= j": ["antisymmetry"],
    "i < j < k": ["jacobi", *(f"jacobi-deg{d}" for d in range(1, 5))],
    "x <= z": [
        "triple-myb", "derived-triple-full", "derived-triple-reduced", "normal-reduced", "normal-outer-pair",
        "even-tempered-triple", "middle-rho", "rho-exchange", "rho-derived-transport", "triple-r-homomorphism",
    ],
    "none": ["even-tempered-as-printed", "operators-commute"],
}


def test_the_proven_orbit_of_every_stated_formula():
    assert sorted(n for names in PROVEN.values() for n in names) == sorted(n for n in STATED if n not in JOINED)
    for label, names in PROVEN.items():
        for name in names:
            orbit = STATED[name]._nest[2]
            assert (len(orbit), formula_module._bounds(orbit)) == ORBITS[label], name


@pytest.mark.parametrize("name", sorted(n for n in STATED if n not in JOINED))
def test_stated_formula_scans_one_tuple_per_orbit_on_mirrored_structures_only(name):
    formula = STATED[name]
    proven = formula._nest[2]
    for structures in (_generic_structures(), _generic_structures(rational=True)):
        mirrored = _mirrored(structures)
        for on, reduced in ((mirrored, True), (_mirrored(_broken(mirrored)), True), (_broken(mirrored), False)):
            orbit = _assert_one_tuple_per_orbit(formula, on, list(_interpreted(formula, on).items()))
            assert orbit == (proven if reduced else proven[:1])


@pytest.mark.parametrize("name", [n for label, names in PROVEN.items() if label != "none" for n in names])
def test_a_planted_asymmetric_term_turns_the_reduction_off(name):
    stated = STATED[name]
    planted = Formula(f"{name}-planted", " ".join(stated.variables), "R1X + " + stated.text)
    assert len(planted._nest[2]) == 1
    structures = _mirrored(_generic_structures(rational=True))
    expected = list(_interpreted(planted, structures).items())
    assert expected and _assert_one_tuple_per_orbit(planted, structures, expected) == planted._nest[2]


def test_the_printed_even_tempered_triple_and_a_perturbed_bracket_scan_in_full():
    e3 = oa.example3_gl(2)
    pair = {"triple": e3.triple, "R1": e3.operators["R1"], "R2": e3.operators["R2"]}
    assert e3.triple.mirrored and len(jordan.EVEN_TEMPERED_AS_PRINTED.bind(pair)[2]) == 1
    perturbed = {"bracket": _perturbed(oa.so_n(3).bracket), "R": oa.Operator.diagonal([1, 2, 3])}
    nonzero, _, orbit = MYB.bind(perturbed)
    assert orbit == MYB._nest[2][:1] and dict(nonzero) == _interpreted(MYB, perturbed)


def _sign(p: tuple) -> int:
    return (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))


# The groups a random formula is symmetrized over: (permutation, sign) pairs, the identity first.
SYMMETRIZED = [
    (((0, 1), 1), ((1, 0), -1)),
    (((0, 1), 1), ((1, 0), 1)),
    (((0, 1, 2), 1), ((2, 1, 0), 1)),
    (((0, 1, 2), 1), ((1, 0, 2), -1)),
    tuple((p, _sign(p)) for p in itertools.permutations(range(3))),
    tuple((p, 1) for p in itertools.permutations(range(3))),
]


def _renamed(t, names: dict) -> tuple:
    """The generated term t with each variable v read as names[v]."""
    if t[0] == "var":
        return ("var", names[t[1]])
    if t[0] == "sum":
        return ("sum", tuple((c, _renamed(u, names)) for c, u in t[1]))
    if t[0] == "op":
        return ("op", t[1], _renamed(t[2], names))
    return (*t[:2], *(_renamed(a, names) for a in t[2:]))


def check_random_orbits(seed: int, count: int) -> None:
    """count random formulas of arity 2 and 3 drawn from seed, each summed
    over its images under one group of SYMMETRIZED with their signs, against
    the generated tree.  On mirrored structures, at dim 2 and rational at dim
    3, and on perturbed ones that stay mirrored, bind scans one tuple per orbit
    of the proven group, which contains the symmetrizing one unless the normal
    form is 0; where no bracket or triple is mirrored, it scans in full."""
    rng = random.Random(seed)
    mirrored = _mirrored(_random_structures(rng, 3, True))
    on = [
        (_mirrored(_random_structures(rng, 2, False)), 2, True),
        (mirrored, 3, True),
        (_mirrored(_broken(mirrored)), 3, True),
        (_broken(mirrored), 3, False),
    ]
    for n in range(count):
        read = ()
        while not read:  # a formula that reads no structure has no dimension to bind at
            group = rng.choice(SYMMETRIZED)
            names = tuple(rng.sample("XYZ", len(group[0][0])))
            t, _ = _random_formula(rng, names, n)
            t = ("sum", tuple((sign, _renamed(t, dict(zip(names, (names[k] for k in p))))) for p, sign in group))
            formula = Formula(f"orbit-{n}", " ".join(names), _render_sum(t))
            top, read = formula._parsed
        proven = dict(formula._nest[2])
        if formula_module._normal(top, tuple(range(formula.arity))):
            assert all(proven.get(p) == sign for p, sign in group), formula.text
        for structures, dim, kept in on:
            orbit = _assert_one_tuple_per_orbit(formula, structures, _generated(t, names, structures, dim))
            tensors = any(name.startswith(("bracket", "triple")) for name in read)
            assert dict(orbit) == (proven if kept or not tensors else {tuple(range(formula.arity)): 1}), formula.text


def test_random_symmetrized_formulas_scan_one_tuple_per_orbit():
    check_random_orbits(RANDOM_SEED, ORBIT_COUNT)


# ---------------------------------------------------------------------------
# the machine's cache of compiled nests, beside formula.py's own bytecode

SRC = os.path.dirname(os.path.dirname(formula_module.__file__))
TAG = sys.implementation.cache_tag


@pytest.fixture
def cache(tmp_path, monkeypatch) -> str:
    """The directory of the nest cache under a fresh pycache_prefix, as
    ``-X pycache_prefix=`` sets it, created, empty and written to."""
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    directory = os.path.dirname(importlib.util.cache_from_source(formula_module.__file__))
    os.makedirs(directory)
    return directory


@pytest.fixture
def work(monkeypatch) -> list:
    """The names _Parser, _Codegen and compile, once for each call formula.py makes while the test runs."""
    calls = []
    for cls in (formula_module._Parser, formula_module._Codegen):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init, name=cls.__name__: calls.append(name) or init(self, *a))
    monkeypatch.setattr(formula_module, "compile", lambda *a, **k: calls.append("compile") or compile(*a, **k), raising=False)
    return calls


def _copy(formula: Formula) -> Formula:
    """The formula as a new object, which has parsed and compiled nothing yet."""
    return Formula(formula.name, " ".join(formula.variables), formula.text)


def _read(path: str):
    with open(path, "rb") as fh:
        return marshal.loads(fh.read())


def _myb_structures() -> dict:
    return {"bracket": oa.so_n(3).bracket, "R": oa.Operator([[scalar(1, 2), 1, 0], [0, 0, 1], [1, 0, scalar(-2, 3)]])}


def test_a_nest_is_compiled_once_and_then_read_from_the_cache(cache, work):
    structures = _myb_structures()
    expected = _interpreted(MYB, structures)
    work.clear()
    assert expected and _tabulated(_copy(MYB), structures) == expected
    assert sorted(set(work)) == ["_Codegen", "_Parser", "compile"]
    assert os.listdir(cache) == [f"formula.myb.{TAG}.nest"]
    work.clear()
    hit = _copy(MYB)
    assert _tabulated(hit, structures) == expected and work == []
    assert "_parsed" not in vars(hit)


def _rewritten_text(path) -> None:
    """The entry of another formula named myb, written by its bind."""
    Formula("myb", "X Y", "[X,Y] = 0").bind(_myb_structures())


def _rewritten_entry(change):
    def rewrite(path) -> None:
        data = change(_read(path))
        with open(path, "wb") as fh:
            fh.write(data)

    return rewrite


MISSES = {
    "text": _rewritten_text,
    "stamp": _rewritten_entry(lambda entry: marshal.dumps(((entry[0][0] - 1, *entry[0][1:]), *entry[1:]))),
    "truncated": _rewritten_entry(lambda entry: marshal.dumps(entry)[:-9]),
    "garbage": _rewritten_entry(lambda entry: b"\xffno entry here"),
    "shape": _rewritten_entry(lambda entry: marshal.dumps((entry[0], "bracket R"))),
}


@pytest.mark.parametrize("miss", sorted(MISSES))
def test_a_miss_compiles_again_and_rewrites_the_entry(cache, work, miss):
    structures = _myb_structures()
    expected = list(_copy(MYB).bind(structures)[0])
    path, key = formula_module._cache_file(_copy(MYB), "myb")
    MISSES[miss](path)
    if miss in ("text", "stamp"):
        assert _read(path)[0] != key
    work.clear()
    assert list(_copy(MYB).bind(structures)[0]) == expected
    assert {"_Codegen", "compile"} <= set(work)
    assert _read(path)[0] == key and os.listdir(cache) == [os.path.basename(path)]
    work.clear()
    assert list(_copy(MYB).bind(structures)[0]) == expected and work == []


def test_without_bytecode_writes_the_cache_is_read_but_not_written(cache, work, monkeypatch):
    structures = _myb_structures()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    expected = list(_copy(MYB).bind(structures)[0])
    assert "compile" in work and os.listdir(cache) == []
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    _copy(MYB).bind(structures)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    work.clear()
    assert list(_copy(MYB).bind(structures)[0]) == expected and work == []
    assert os.listdir(cache) == [f"formula.myb.{TAG}.nest"]


@pytest.mark.parametrize("where", ["no-directory", "failing-replace"])
def test_an_unwritable_cache_writes_nothing(tmp_path, monkeypatch, where):
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    if where == "failing-replace":
        os.makedirs(os.path.dirname(importlib.util.cache_from_source(formula_module.__file__)))

        def refuse(*args):
            raise PermissionError("read-only")

        monkeypatch.setattr(os, "replace", refuse)
    before = sorted(os.walk(tmp_path))
    structures = _myb_structures()
    for _ in range(2):
        assert _tabulated(_copy(MYB), structures) == _interpreted(MYB, structures)
    assert sorted(os.walk(tmp_path)) == before


def test_the_cached_code_of_every_stated_nest_is_a_fresh_compile_of_its_source(cache):
    nested = sorted(name for name, f in STATED.items() if f.arity <= 3)
    assert len(nested) == len(STATED) - len(JOINED)
    for name in nested:
        miss = _copy(STATED[name])
        nest, names, orbit = miss._nest
        ident = nest.__name__.removeprefix("nonzero_")
        path, key = formula_module._cache_file(miss, ident)
        source = miss._source(ident, orbit)
        assert _read(path) == (key, names, compile(source, "<string>", "exec", dont_inherit=True), orbit), name
        assert names == miss._parsed[1] and orbit == formula_module._orbit(miss._parsed[0], miss.arity)
        hit = _copy(STATED[name])
        assert hit._nest[0].__code__ == nest.__code__ and hit._nest[1:] == (names, orbit)
        assert "_parsed" not in vars(hit)
    assert len(os.listdir(cache)) == len(nested)


_CHECK_IN_A_CHILD = f"""
import sys
sys.path.insert(0, {SRC!r})
import opalg.cli
from opalg import formula
calls = []
for cls in (formula._Parser, formula._Codegen):
    cls.__init__ = (lambda init, name: lambda self, *a: calls.append(name) or init(self, *a))(cls.__init__, cls.__name__)
formula.compile = lambda *a, **k: calls.append("compile") or compile(*a, **k)
code = opalg.cli.main(["check", "catalog:example4-so3?q=seed:1", "--suite", "rrho+bunch"])
print(sorted(set(calls)), sorted({{"hashlib", "_hashlib"}} & set(sys.modules)), code, file=sys.stderr)
"""


def test_a_warm_check_compiles_no_nest_and_loads_no_openssl(tmp_path):
    argv = [sys.executable, "-I", "-X", f"pycache_prefix={tmp_path}", "-c", _CHECK_IN_A_CHILD]
    cold, warm = (subprocess.run(argv, capture_output=True, text=True, timeout=120) for _ in range(2))
    assert cold.stderr == "['_Codegen', '_Parser', 'compile'] [] 0\n"
    assert warm.stderr == "[] [] 0\n"
    assert warm.stdout == cold.stdout and "result: PASS" in cold.stdout
