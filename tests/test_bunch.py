import collections
import random

import pytest

from opalg import (
    BilinearStructure,
    LieBiOperator,
    Operator,
    PreconditionError,
    QuadraticBunch,
    RRhoAlgebra,
    bracket_rho,
    build_bunch,
    check_antisymmetry,
    check_gamma_bunch,
    check_jacobi,
    check_rrho,
    example2_gl,
    example4_so,
    extract_rrho,
    from_bi_myb,
    gl_assoc,
    so_n,
)
from opalg.core import vec_iadd
from opalg.formula import Formula
from opalg.oracles import mat_inverse
from opalg.sampling import random_symmetric_matrix
from opalg.scalars import scalar


def conjugation_quadratic_coefficient(a: RRhoAlgebra) -> BilinearStructure:
    """Independent oracle for the quadratic bracket.

    Conjugates the base bracket by M_l = 1 + l R + l^2 rho at l = 1, 2, 3
    (exact inverses) and Lagrange-extracts the coefficient of l^2.
    """
    dim = a.bracket.dim

    def bracket_at(lam):
        m = Operator.identity(dim) + a.R.scale(lam) + a.rho.scale(lam * lam)
        minv = Operator(mat_inverse(m.rows))
        entries = {}
        for i in range(dim):
            for j in range(dim):
                vec = minv.apply(a.bracket.apply(m.column(i), m.column(j)))
                if vec:
                    entries[(i, j)] = vec
        return BilinearStructure(dim, entries)

    f1, f2, f3 = (bracket_at(k) for k in (1, 2, 3))
    half = scalar(1, 2)
    entries = {}
    for key in set(f1.support()) | set(f2.support()) | set(f3.support()):
        acc = dict(f1.value(*key))
        vec_iadd(acc, f2.value(*key), -2)
        vec_iadd(acc, f3.value(*key))
        acc = {k: half * v for k, v in acc.items()}
        if acc:
            entries[key] = acc
    return BilinearStructure(dim, entries)


def example4_algebra(n=3, Q=None) -> RRhoAlgebra:
    entry = example4_so(n, Q)
    return RRhoAlgebra(entry.bracket, entry.operators["R"], entry.operators["rho"])


# ---------------------------------------------------------------------------
# quadratic bracket


def test_bracket_rho_zero_operators():
    so3 = so_n(3)
    a = RRhoAlgebra(so3.bracket, Operator.zero(3), Operator.zero(3))
    assert bracket_rho(a).sorted_rows() == []


def test_bracket_rho_identity_operators_reproduce_bracket():
    so3 = so_n(3)
    a = RRhoAlgebra(so3.bracket, Operator.identity(3), Operator.identity(3))
    assert bracket_rho(a) == so3.bracket


def test_bracket_rho_matches_conjugation_oracle():
    a = example4_algebra()
    assert bracket_rho(a) == conjugation_quadratic_coefficient(a)


# ---------------------------------------------------------------------------
# the two defining identities


def test_rrho_identities_on_symmetric_q_pair():
    report = check_rrho(example4_algebra())
    assert report.passed
    assert report.sub("rho-bracket-homomorphism").passed
    assert report.sub("mixed-bracket-compatibility").passed


def test_rrho_zero_operators_pass():
    so3 = so_n(3)
    assert check_rrho(RRhoAlgebra(so3.bracket, Operator.zero(3), Operator.zero(3))).passed


def test_rrho_fails_without_rho():
    entry = example4_so(3)
    a = RRhoAlgebra(entry.bracket, entry.operators["R"], Operator.zero(3))
    report = check_rrho(a)
    assert not report.passed
    assert report.witness.indices == (0, 1)


# ---------------------------------------------------------------------------
# construction from a two-operator pair


def _pair_algebra(g: LieBiOperator) -> RRhoAlgebra:
    """from_bi_myb(g)'s (R, rho) pair, once its precondition report has passed."""
    report, a = from_bi_myb(g)
    assert report.passed
    return a


def test_from_bi_myb_multiplication_pair():
    e2 = example2_gl(2)
    g = LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"])
    a = _pair_algebra(g)
    assert a.R == e2.operators["R"]  # X -> XQ + QX
    assert a.rho == e2.operators["rho"]  # X -> QXQ
    report = check_rrho(a)
    assert report.passed
    assert report.sub("regular").passed


def test_from_bi_myb_scalar_pair():
    so3 = so_n(3)
    c = Operator.identity(3).scale(scalar(2, 3))
    a = _pair_algebra(LieBiOperator(so3.bracket, c, c))
    assert a.R == Operator.identity(3).scale(scalar(4, 3))
    assert a.rho == Operator.identity(3).scale(scalar(4, 9))


def test_from_bi_myb_requires_even_temperedness():
    e2 = example2_gl(2)
    R = e2.operators["R1"]
    g = LieBiOperator(e2.bracket, R, R)
    report, a = from_bi_myb(g)
    assert a is None and not report.passed and report.name == "even-tempered-pair"
    assert report.sub("bi-myb").passed
    failing = next(s for s in report.subchecks if not s.passed)
    assert failing.name == "even-tempered" and report.witness == failing.witness is not None


def test_from_bi_myb_scans_each_precondition_once(monkeypatch):
    e2 = example2_gl(2)
    g = LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"])
    binds = collections.Counter()
    bind = Formula.bind

    def counted(self, structures):
        binds[self.name] += 1
        return bind(self, structures)

    monkeypatch.setattr(Formula, "bind", counted)
    report, a = from_bi_myb(g)
    assert report.passed and [s.name for s in report.subchecks] == ["bi-myb", "even-tempered"]
    assert a.R == e2.operators["R"]
    # both reports, from one scan per operator of each identity
    assert binds == {"myb": 2, "derived-bracket": 2, "even-tempered": 2, "operators-commute": 1}


def test_from_bi_myb_gl3_random_diagonal():
    rng = random.Random(31)
    Q = tuple(
        tuple(rng.randint(1, 5) if r == c else 0 for c in range(3)) for r in range(3)
    )
    e2 = example2_gl(3, Q)
    g = LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"])
    report = check_rrho(_pair_algebra(g))
    assert report.passed
    assert report.sub("regular").passed


# ---------------------------------------------------------------------------
# quadratic bunches


def test_build_bunch_zero_operators_constant_family():
    so3 = so_n(3)
    a = RRhoAlgebra(so3.bracket, Operator.zero(3), Operator.zero(3))
    q = build_bunch(a)
    assert q.b1.sorted_rows() == [] and q.b2.sorted_rows() == []
    assert check_gamma_bunch(q).passed


def test_bunch_parameter_evaluation():
    q = build_bunch(example4_algebra())
    at_one = q.bracket_at(1)
    entries = {}
    for key in set(q.b0.support()) | set(q.b1.support()) | set(q.b2.support()):
        acc = dict(q.b0.value(*key))
        vec_iadd(acc, q.b1.value(*key))
        vec_iadd(acc, q.b2.value(*key))
        if acc:
            entries[key] = acc
    assert at_one == BilinearStructure(3, entries)


def test_gamma_bunch_passes_for_symmetric_q_pair():
    report = check_gamma_bunch(build_bunch(example4_algebra()))
    assert report.passed
    for d in range(5):
        assert report.sub(f"homomorphism-deg{d}").passed
        assert report.sub(f"jacobi-deg{d}").passed


def test_gamma_bunch_end_to_end_from_multiplication_pair():
    e2 = example2_gl(2)
    g = LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"])
    assert check_gamma_bunch(build_bunch(_pair_algebra(g))).passed


@pytest.mark.parametrize("coefficient, degree", [("b1", 1), ("b2", 2)], ids=["b1", "b2"])
def test_gamma_bunch_detects_perturbed_quadratic_coefficient(coefficient, degree):
    # with r0 = 1, the deg1 residual is b1 - [.,.]_R(r1) and then the deg2
    # residual is b2 - [.,.]_rho(r1, r2): a passing report pins both coefficients
    q = build_bunch(example4_algebra())
    b = getattr(q, coefficient)
    perturbed_entries = {key: dict(b.value(*key)) for key in b.support()}
    bump = perturbed_entries.setdefault((0, 1), {})
    bump[0] = bump.get(0, 0) + 1
    mirror = perturbed_entries.setdefault((1, 0), {})
    mirror[0] = mirror.get(0, 0) - 1  # keep antisymmetry so degree checks decide
    bad = q.replace(**{coefficient: BilinearStructure(3, perturbed_entries)})
    report = check_gamma_bunch(bad)
    assert not report.passed
    failing = [s.name for s in report.subchecks if not s.passed]
    assert failing[0] == f"homomorphism-deg{degree}"
    assert report.witness is not None
    assert extract_rrho(bad) == (report, None)


# ---------------------------------------------------------------------------
# extraction (inverse direction)


def test_extract_round_trip_on_catalog_instances():
    instances = [example4_algebra(3), example4_algebra(4)]
    e2 = example2_gl(2)
    instances.append(
        _pair_algebra(LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"]))
    )
    for a in instances:
        gamma, back = extract_rrho(build_bunch(a))
        assert gamma.passed and back == a


def test_extract_constant_bunch_gives_zero_operators():
    so3 = so_n(3)
    zero = BilinearStructure(3)
    q = QuadraticBunch(
        so3.bracket, zero, zero, Operator.identity(3), Operator.zero(3), Operator.zero(3)
    )
    gamma, a = extract_rrho(q)
    assert gamma.passed
    assert a.R == Operator.zero(3) and a.rho == Operator.zero(3)


def test_extract_recovers_multiplication_operators_exactly():
    e2 = example2_gl(2)
    g = LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"])
    a = _pair_algebra(g)
    gamma, back = extract_rrho(build_bunch(a))
    assert gamma.passed
    assert back.R == e2.operators["R"]
    assert back.rho == e2.operators["rho"]


def test_extract_requires_identity_constant_term():
    q = build_bunch(example4_algebra())
    shifted = QuadraticBunch(q.b0, q.b1, q.b2, q.r1, q.r1, q.r2)
    with pytest.raises(PreconditionError):
        extract_rrho(shifted)


def test_extract_rejects_non_gamma_bunch():
    q = build_bunch(example4_algebra())
    bad = QuadraticBunch(q.b0, q.b2, q.b1, q.r0, q.r1, q.r2)  # swapped coefficients
    gamma, back = extract_rrho(bad)
    assert not gamma.passed and back is None
    assert gamma == check_gamma_bunch(bad)


# ---------------------------------------------------------------------------
# theorem-shaped invariants on instances


def test_quadratic_bracket_is_lie_for_passing_instances():
    rng = random.Random(202)
    instances = [example4_algebra(3), example4_algebra(4)]
    for _ in range(3):
        instances.append(example4_algebra(3, random_symmetric_matrix(rng, 3)))
    for a in instances:
        assert check_rrho(a).passed
        b2 = bracket_rho(a)
        assert check_antisymmetry(b2).passed
        assert check_jacobi(b2).passed


def test_forward_and_backward_correspondence():
    rng = random.Random(303)
    for _ in range(3):
        a = example4_algebra(3, random_symmetric_matrix(rng, 3))
        assert check_rrho(a).passed
        bunch = build_bunch(a)
        gamma, back = extract_rrho(bunch)  # forward, then backward
        assert gamma.passed
        assert back == a
        assert check_rrho(back).passed


def test_factorization_search_is_recorded_not_asserted():
    from opalg.searches import run_search

    report = run_search("example4-non-factorizable", seed=17, trials=25, dim=3)
    kinds = [f["kind"] for f in report.findings]
    assert "factorization-search-summary" in kinds
    summary = next(f for f in report.findings if f["kind"] == "factorization-search-summary")
    assert summary["rrho-passed"] is True
    assert summary["trials"] == 25
