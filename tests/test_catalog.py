import random
import sys

import pytest

from opalg import (
    Operator,
    check_antisymmetry,
    check_jacobi,
    check_jts_identity,
    check_lie,
    example1_candidates,
    example2_gl,
    example4_so,
    forced,
    gl_assoc,
    mult_operators,
    so_n,
)
from opalg import DimensionGuardError, catalog, core, searches
from opalg.catalog import CatalogError, build_entry
from opalg.oracles import (
    mat_add,
    mat_commutator,
    mat_det3,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_unit,
    word,
    word_add,
    word_commutator,
    word_is_zero,
    word_mul,
    word_triple,
)
from opalg.scalars import scalar


# ---------------------------------------------------------------------------
# base algebras


def test_so3_cross_product_structure():
    so3 = so_n(3)
    assert so3.dim == 3
    assert so3.bracket.value(0, 1) == {2: 1}
    assert so3.bracket.value(1, 2) == {0: 1}
    assert so3.bracket.value(2, 0) == {1: 1}


def test_so2_is_one_dimensional_abelian():
    so2 = so_n(2)
    assert so2.dim == 1
    assert so2.bracket.sorted_rows() == []


def test_so4_passes_base_checks():
    so4 = so_n(4)
    assert so4.dim == 6
    assert check_antisymmetry(so4.bracket).passed
    assert check_jacobi(so4.bracket).passed
    # the catalog builds its entries unchecked; their brackets are checked here
    for entry in [so_n(n) for n in range(2, 6)] + [gl_assoc(n) for n in range(1, 4)]:
        assert check_lie(entry.bracket).passed, entry.name


def test_so_requires_n_at_least_two():
    with pytest.raises(CatalogError):
        so_n(1)


def test_gl2_commutator_value():
    gl2 = gl_assoc(2)
    assert gl2.bracket.value(1, 2) == {0: 1, 3: -1}  # [E12, E21] = E11 - E22


def test_gl1_is_abelian_with_scalar_triple():
    gl1 = gl_assoc(1)
    assert gl1.dim == 1
    assert gl1.bracket.sorted_rows() == []
    assert gl1.triple.value(0, 0, 0) == {0: 2}  # <x,y,z> = 2xyz


def test_gl_triple_outer_symmetry():
    gl2 = gl_assoc(2)
    for (i, j, k) in gl2.triple.support():
        assert gl2.triple.value(i, j, k) == gl2.triple.value(k, j, i)


def test_basis_expansion_rejects_outside_span():
    so3 = so_n(3)
    with pytest.raises(CatalogError):
        so3.expand(mat_unit(3, 0, 0))  # not skew-symmetric


# ---------------------------------------------------------------------------
# multiplication operators


def test_right_multiplication_scales_columns():
    e2 = example2_gl(2)
    # E12 has basis index 1; E12 Q = 2 E12 for Q = diag(1,2)
    assert e2.operators["R1"].column(1) == {1: 2}


def test_identity_q_gives_identity_operators():
    gl2 = gl_assoc(2)
    ops = mult_operators(gl2, mat_identity(2))
    for name in ("R1", "R2", "rho"):
        assert ops[name] == Operator.identity(4)
    assert ops["R"] == Operator.identity(4).scale(2)
    assert ops["xi"] == Operator.zero(4)


@pytest.mark.parametrize("Q", [((1, 2), (0, 3)), (("1/2", "-2/3"), ("5", "3/4")), ((0, 0, 1), (2, "1/3", 0), (1, 1, -1))])
def test_the_multiplication_pair_is_r1_and_r2_of_the_five_operators(Q):
    entry = gl_assoc(len(Q))
    ops = mult_operators(entry, Q)
    assert catalog._mult_pair(entry, Q) == (ops["R1"], ops["R2"])
    with pytest.raises(CatalogError):
        catalog._mult_pair(entry, mat_identity(len(Q) + 1))


def test_searches_build_no_operator_they_do_not_read():
    # the one- and two-operator searches read R1 (and R2) of right/left multiplication only
    assert not hasattr(searches, "mult_operators")


def test_so3_conjugation_operator_entry():
    # rho(L1) = Q L1 Q = 6 L1 for Q = diag(1,2,3)
    entry = example4_so(3)
    assert entry.operators["rho"].column(0) == {0: 6}


def test_so_targets_reject_asymmetric_q():
    so3 = so_n(3)
    with pytest.raises(CatalogError):
        mult_operators(so3, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))


def test_q_shape_mismatch_rejected():
    with pytest.raises(CatalogError):
        mult_operators(gl_assoc(2), mat_identity(3))


def test_so_entries_emit_only_the_symmetric_pair():
    entry = example4_so(3)
    assert sorted(entry.operators) == ["R", "rho"]


# ---------------------------------------------------------------------------
# so(3) with a form


def test_form_projection_operator_values():
    entry = example1_candidates()  # form = identity, x0 = e3
    ra = entry.operators["Ra"]
    assert ra.column(2) == {2: 1}  # Ra(e3) = e3
    assert ra.column(0) == {}  # Ra(e1) = 0


def test_bracket_multiplication_operator_values():
    entry = example1_candidates()
    rb = entry.operators["Rb"]
    assert rb.column(0) == {1: 1}  # Rb(e1) = [e3, e1] = e2


def test_degenerate_form_rejected():
    with pytest.raises(CatalogError):
        example1_candidates(form=((1, 0, 0), (0, 1, 0), (0, 0, 0)))


def test_form_triples_are_valid_jacobson_systems():
    entry = example1_candidates()
    assert check_jts_identity(entry.triple, "jacobson").passed
    assert check_jts_identity(entry.extra_triples["two-term"], "jacobson").passed
    for n in range(1, 4):
        with forced():
            assert check_jts_identity(gl_assoc(n).triple, "jacobson").passed, n


# ---------------------------------------------------------------------------
# named entries


def test_build_entry_with_diagonal_parameter():
    entry = build_entry("example2-gl2?q=diag:1,2")
    assert entry.q == ((1, 0), (0, 2))
    assert sorted(entry.operators) == ["R", "R1", "R2", "rho", "xi"]


def test_build_entry_seeded_q_is_deterministic():
    a = build_entry("example4-so3?q=seed:7")
    b = build_entry("example4-so3?q=seed:7")
    assert a.q == b.q
    from opalg.oracles import mat_is_symmetric

    assert mat_is_symmetric(a.q)


def test_build_entry_alternate_triple_choice():
    entry = build_entry("example1-so3?triple=two-term")
    base = example1_candidates()
    assert entry.triple == base.extra_triples["two-term"]


def test_building_benchmark_entries_runs_no_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("building a catalog entry ran a check")

    # every scan goes through core.scan_tuples; the check_* names are patched
    # wherever a module imported them
    monkeypatch.setattr(core, "scan_tuples", refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("opalg"):
            for attr in dir(module):
                if attr.startswith("check_"):
                    monkeypatch.setattr(module, attr, refuse)
    specs = ["gl2", "gl3", "example1-so3", "example1-so3?triple=two-term"]
    specs += [f"example{k}-gl{n}{q}" for k in (2, 3) for n in (2, 3, 4) for q in ("", "?q=seed:1")]
    specs += [f"example4-so{n}{q}" for n in (3, 4, 5, 6) for q in ("", "?q=seed:1")]
    for spec in specs:
        assert build_entry(spec).bracket is not None


def test_build_entry_guards_the_dimension_before_building(monkeypatch):
    # so(10) has dimension 45, above the dim^3 limit of 36; so(9) has 36
    with forced():
        assert build_entry("so10").dim == 45
    assert build_entry("so9").dim == 36

    def refuse(*args, **kwargs):
        raise AssertionError("built part of an entry above the guard")

    for name in ("so_n", "gl_assoc", "_parse_q"):
        monkeypatch.setattr(catalog, name, refuse)
    for spec in ("so10", "gl7", "example2-gl7?q=seed:1", "example3-gl99999999", "example4-so10?q=id"):
        with pytest.raises(DimensionGuardError, match="guard"):
            build_entry(spec)


@pytest.mark.parametrize("kind", catalog.catalog_names())
def test_build_entry_guards_the_dimension_it_builds(monkeypatch, kind):
    # each kind at two sizes (example1 has one)
    priced = []
    monkeypatch.setattr(catalog, "guard_scan", lambda dim, arity: priced.append((dim, arity)))
    for n in ("3",) if "<n>" not in kind else ("3", "4"):
        priced.clear()
        entry = build_entry(kind.split("[")[0].replace("<n>", n))
        assert priced == [(entry.dim, 3)] and entry.dim == entry.bracket.dim


def test_the_example4_search_builds_so_n_once(monkeypatch):
    built = []
    monkeypatch.setattr(catalog, "so_n", lambda n, build=catalog.so_n: built.append(n) or build(n))
    searches.run_search("example4-non-factorizable", 1, 2)
    assert built == [3]


@pytest.mark.parametrize("spec", ["so3?q=diag:1,2,3", "gl2?q=id", "example1-so3?q=seed:1"])
def test_build_entry_refuses_a_q_it_would_ignore(spec):
    with pytest.raises(CatalogError, match="takes no q parameter"):
        build_entry(spec)


@pytest.mark.parametrize("spec", ["example2-gl2?q=diag:1,2&q=id", "example1-so3?triple=two-term&triple=x"])
def test_build_entry_refuses_a_repeated_parameter(spec):
    with pytest.raises(CatalogError, match="repeated catalog parameter"):
        build_entry(spec)


def test_build_entry_errors():
    with pytest.raises(CatalogError):
        build_entry("sp4")
    with pytest.raises(CatalogError):
        build_entry("example2-gl2?q=diag:1")
    with pytest.raises(CatalogError):
        build_entry("example2-gl2?color=red")
    with pytest.raises(CatalogError):
        build_entry("example1-so4")


def test_catalog_entries_are_built_afresh():
    a, b = so_n(3), so_n(3)
    assert a is not b and a.bracket is not b.bracket
    assert a.bracket == b.bracket and a.basis == b.basis
    g, h = gl_assoc(2), gl_assoc(2)
    assert g is not h
    assert g.bracket == h.bracket and g.triple == h.triple


# ---------------------------------------------------------------------------
# the sparse route against the dense oracle route


def _q_specs(n):
    return ("", "?q=seed:5", "?q=diag:" + ",".join(["2", "-1", "1/2", "3"][:n]))


SMALL_ENTRIES = (
    [f"gl{n}" for n in range(1, 5)]
    + [f"so{n}" for n in range(2, 5)]
    + ["example1-so3", "example1-so3?triple=two-term"]
    + [f"example{k}-gl{n}{q}" for k in (2, 3) for n in range(1, 5) for q in _q_specs(n)]
    + [f"example4-so{n}{q}" for n in range(2, 5) for q in _q_specs(n)]
)


def _dense_operators(entry) -> dict:
    """The multiplication operators, read off dense matrix products."""
    op, Q = entry.operator_from_matrix_map, entry.q
    if Q is None:
        return {}
    rho = op(lambda x: mat_mul(mat_mul(Q, x), Q))
    if entry.family == "so":
        return {"R": op(lambda x: mat_add(mat_mul(Q, x), mat_mul(x, Q))), "rho": rho}
    right, left = op(lambda x: mat_mul(x, Q)), op(lambda x: mat_mul(Q, x))
    return {"R1": right, "R2": left, "xi": left - right, "R": left + right, "rho": rho}


def _dense_form_structures(entry) -> tuple:
    """example1's triples and operators, from matrices and the form F."""

    def F(x, y):
        cx, cy = entry.expand(x), entry.expand(y)
        return sum(cx[i] * entry.form[i][j] * cy[j] for i in cx for j in cy)

    def two_term(x, y, z):
        return mat_add(mat_scale(z, F(x, y)), mat_scale(x, F(y, z)))

    x0 = entry.basis[2]  # the default X0 = e3
    triples = {
        "three-term": entry.trilinear_tensor_from_matrices(
            lambda x, y, z: mat_sub(two_term(x, y, z), mat_scale(y, F(x, z)))
        ),
        "two-term": entry.trilinear_tensor_from_matrices(two_term),
    }
    operators = {
        "Ra": entry.operator_from_matrix_map(lambda x: mat_scale(x0, F(x0, x))),
        "Rb": entry.operator_from_matrix_map(lambda x: mat_commutator(x0, x)),
    }
    return triples, operators


def _symmetric_form(seed: int):
    """A seeded symmetric rational 3 x 3 form, nondegenerate."""
    rng = random.Random(seed)
    while True:
        upper = {(i, j): scalar(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(3) for j in range(i, 3)}
        form = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(3)) for i in range(3))
        if mat_det3(form):
            return form


# example1 on forms other than the identity, built directly
FORM_ENTRIES = [
    pytest.param(((2, 0, 0), (0, -1, 0), (0, 0, scalar(1, 2))), id="example1-so3-form-diagonal"),
    pytest.param(_symmetric_form(3), id="example1-so3-form-seed3"),
]


@pytest.mark.parametrize("spec", SMALL_ENTRIES + FORM_ENTRIES)
def test_sparse_route_matches_the_dense_oracle_route(spec):
    entry = build_entry(spec) if isinstance(spec, str) else catalog.example1_candidates(form=spec)
    assert entry.bracket == entry.bilinear_tensor_from_matrices(mat_commutator)
    if entry.form is not None:
        triples, operators = _dense_form_structures(entry)
        expected = triples["two-term" if isinstance(spec, str) and "two-term" in spec else "three-term"]
        assert entry.triple == expected
        assert entry.extra_triples["two-term"] == triples["two-term"]
    else:
        operators = _dense_operators(entry)
        if entry.family == "gl":
            expected = entry.trilinear_tensor_from_matrices(
                lambda x, y, z: mat_add(mat_mul(mat_mul(x, y), z), mat_mul(mat_mul(z, y), x))
            )
            assert entry.triple == expected
        else:
            assert entry.triple is None
    assert sorted(entry.operators) == sorted(operators)
    for name, op in operators.items():
        assert entry.operators[name] == op, name


def test_sparse_expansion_keeps_its_span_check():
    so3 = so_n(3)
    basis = catalog._SparseBasis(so3.basis, so3.lead_positions)
    assert basis.expand({(2, 1): 5, (1, 2): -5}) == {0: 5}
    with pytest.raises(CatalogError, match="span"):
        basis.expand({(2, 1): 1})  # not skew-symmetric
    with pytest.raises(CatalogError, match="span"):
        basis.expand({(0, 0): 1})


# ---------------------------------------------------------------------------
# oracle machinery


def test_matrix_inverse_oracle():
    m = ((1, 2, 0), (0, 1, scalar(1, 2)), (3, 0, 1))
    assert mat_mul(m, mat_inverse(m)) == mat_identity(3)
    with pytest.raises(ZeroDivisionError):
        mat_inverse(((1, 1), (1, 1)))


def test_commutator_oracle_on_units():
    e12, e21 = mat_unit(2, 0, 1), mat_unit(2, 1, 0)
    assert mat_commutator(e12, e21) == ((1, 0), (0, -1))


def test_free_word_oracle_basics():
    x, y = word("x"), word("y")
    assert word_is_zero(word_add(word_commutator(x, y), word_commutator(y, x)))
    one_term = word_mul(word_mul(x, y), x)
    assert word_triple(x, y, x) == {k: 2 * v for k, v in one_term.items()}
