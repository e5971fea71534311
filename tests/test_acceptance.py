"""Acceptance suite: one test per exit criterion, each printing a PASS line.

All equality assertions are exact (zero tolerance); runtime bounds are the
stated budgets.  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion lines.
"""

import random
import time

from opalg import (
    DesignCandidate,
    LieBiOperator,
    LieWithOperator,
    Operator,
    RRhoAlgebra,
    TripleWithOperator,
    build_bunch,
    check_antisymmetry,
    check_bi_myb,
    check_design,
    check_equivariance,
    check_even_tempered,
    check_even_tempered_xi,
    check_jacobi,
    check_jts_identity,
    check_myb,
    check_polynomial_closure,
    check_rho_identity,
    check_rrho,
    check_triple_bi_myb,
    check_triple_r_homomorphism,
    check_xi_characterization,
    convert_params,
    convert_params_inverse,
    derived_bracket,
    derived_triple,
    example2_gl,
    example3_gl,
    example4_so,
    extract_rrho,
    forced,
    from_bi_myb,
    gl_assoc,
    op_polynomial,
    probe_r0,
    so_n,
)
from opalg.core import prove_jts
from opalg.findings import open_question_findings, render_findings
from opalg.jordan import MODE_FULL
from opalg.oracles import mat_add, mat_diag, mat_mul, mat_sub
from opalg.sampling import random_matrix, random_operator, random_polynomial, random_symmetric_matrix
from opalg.searches import run_search

BASE_SEED = 20260811
RANDOM_Q_COUNT = 20

_entry_cache = {}


def multiplication_entries(n):
    """diag(1..n) plus 20 seeded random rational Q on the n x n matrix algebra."""
    if n not in _entry_cache:
        rng = random.Random(BASE_SEED + n)
        qs = [mat_diag(range(1, n + 1))]
        qs.extend(random_matrix(rng, n) for _ in range(RANDOM_Q_COUNT))
        _entry_cache[n] = [example2_gl(n, q) for q in qs]
    return _entry_cache[n]


def pair_of(entry):
    return LieBiOperator(entry.bracket, entry.operators["R1"], entry.operators["R2"])


def qy_bracket_oracle(entry):
    Q = entry.q
    return entry.bilinear_tensor_from_matrices(
        lambda x, y: mat_sub(mat_mul(mat_mul(x, Q), y), mat_mul(mat_mul(y, Q), x))
    )


def qq_triple_oracle(entry, sign):
    Q = entry.q

    def monomial(x, y, z):
        return mat_mul(mat_mul(mat_mul(mat_mul(x, Q), y), Q), z)

    combine = mat_add if sign > 0 else mat_sub
    return entry.trilinear_tensor_from_matrices(
        lambda x, y, z: combine(monomial(x, y, z), monomial(z, y, x))
    )


def _done(label, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{label}: {elapsed:.1f}s exceeded the {budget}s budget"
    print(f"ACCEPTANCE {label}: PASS in {elapsed:.1f}s (budget {budget}s)")


def test_criterion_1_multiplication_pairs_and_oracle_brackets():
    started = time.monotonic()
    for n in (2, 3):
        for entry in multiplication_entries(n):
            g = pair_of(entry)
            assert check_bi_myb(g).passed
            assert check_even_tempered(g).passed
            oracle = qy_bracket_oracle(entry)
            assert derived_bracket(entry.bracket, g.R1) == oracle
            assert derived_bracket(entry.bracket, g.R2) == oracle
    _done("criterion-1 bi-myb pairs with oracle brackets", started, 10)


def test_criterion_2_derived_brackets_and_polynomial_transport():
    started = time.monotonic()
    rng = random.Random(BASE_SEED + 100)
    polynomials = [random_polynomial(rng, 3) for _ in range(5)]
    for n in (2, 3):
        for entry in multiplication_entries(n):
            g1 = LieWithOperator(entry.bracket, entry.operators["R1"])
            assert check_jacobi(g1.bracket_R).passed
            g2 = LieWithOperator(entry.bracket, entry.operators["R2"])
            for coeffs in polynomials:
                assert all(r.passed for r in check_polynomial_closure(g1, coeffs))
                assert all(r.passed for r in check_polynomial_closure(g2, coeffs))
                pair = LieBiOperator(
                    entry.bracket,
                    op_polynomial(coeffs, g1.R),
                    op_polynomial(coeffs, g2.R),
                )
                assert check_bi_myb(pair).passed
    _done("criterion-2 derived-bracket jacobi + polynomial transport", started, 30)


def test_criterion_3_triple_systems_with_sign_adjudication():
    started = time.monotonic()
    for n in (2, 3):
        # the triple XYZ + ZYX does not depend on Q: one jacobson scan per n,
        # and every record keeps the proven triple
        with forced():
            jacobson, proven = prove_jts(gl_assoc(n).triple, "jacobson")
        assert jacobson.passed
        for entry in multiplication_entries(n):
            triple_entry = example3_gl(n, entry.q)
            t = triple_entry.triple
            ops = triple_entry.operators
            assert t == proven
            systems = {"R1": TripleWithOperator(proven, ops["R1"])}
            # Q = 2I on gl(2) makes R2 = R1, and then one record serves both
            same = ops["R2"] == ops["R1"]
            systems["R2"] = systems["R1"] if same else TripleWithOperator(proven, ops["R2"])
            myb1, d1 = systems["R1"].triple_r
            myb2, d2 = systems["R2"].triple_r
            assert myb1.passed and myb2.passed
            assert d1 == d2
            assert derived_triple(t, ops["R1"], MODE_FULL) == d1
            if not same:
                assert derived_triple(t, ops["R2"], MODE_FULL) == d2
            myb, transport = check_triple_r_homomorphism(systems["R1"])
            assert myb == myb1 and transport.passed
            # the pair's triple-myb lines and full derived triples are the records' triple_r
            report = check_triple_bi_myb(systems["R1"], systems["R2"])
            assert report.passed
            assert report.sub("normal").passed
            assert report.sub("even-tempered").passed
            rho_report = check_rho_identity(systems["R1"], ops["rho"])
            assert rho_report.passed
            assert rho_report.sub("rho-derived-transport").passed
            assert d1 == qq_triple_oracle(triple_entry, +1)
            if n == 2:
                assert d1 != qq_triple_oracle(triple_entry, -1)
    # the sign verdict is part of the findings document, alongside both candidates
    sign_item = open_question_findings()["items"]["example3-derived-triple-sign"]
    assert sign_item["tensor-comparison"]["plus-candidate"]["passed"]
    assert not sign_item["tensor-comparison"]["minus-candidate"]["passed"]
    _done("criterion-3 derived triples, classification flags, sign verdict", started, 60)


def test_criterion_4_derived_structures_remain_designs():
    started = time.monotonic()
    alternate_outcomes = []
    for entry in multiplication_entries(2):
        triple_entry = example3_gl(2, entry.q)
        t = triple_entry.triple
        g = LieWithOperator(entry.bracket, entry.operators["R1"])
        s = TripleWithOperator(prove_jts(t, "jacobson")[1], entry.operators["R1"])
        derived_bracket_tensor = g.bracket_R
        myb, derived_triple_tensor = s.triple_r
        assert myb.passed
        assert check_jts_identity(derived_triple_tensor, "jacobson").passed
        assert check_equivariance(derived_bracket_tensor, derived_triple_tensor).passed
        # the design's jts-jacobson line is the proof s.triple carries
        assert check_design(DesignCandidate(entry.bracket, s.triple)).passed
        assert check_design(
            DesignCandidate(derived_bracket_tensor, derived_triple_tensor)
        ).passed
        alternate = check_jts_identity(derived_triple_tensor, "alternate")
        alternate_outcomes.append(alternate.passed)  # recorded, not asserted
    assert len(alternate_outcomes) == RANDOM_Q_COUNT + 1
    _done("criterion-4 design transport through derived structures", started, 60)


def test_criterion_5_rrho_identities_and_bunch_correspondence():
    started = time.monotonic()
    for n in (3, 4):
        rng = random.Random(BASE_SEED + 200 + n)
        qs = [random_symmetric_matrix(rng, n) for _ in range(10)]
        for q in qs:
            entry = example4_so(n, q)
            a = RRhoAlgebra(entry.bracket, entry.operators["R"], entry.operators["rho"])
            report = check_rrho(a)
            assert report.passed
            quadratic = a.bracket_rho
            assert check_antisymmetry(quadratic).passed
            assert check_jacobi(quadratic).passed
            gamma, back = extract_rrho(build_bunch(a))
            assert gamma.passed
            for d in range(5):
                assert gamma.sub(f"homomorphism-deg{d}").passed
                assert gamma.sub(f"jacobi-deg{d}").passed
            assert back == a
    _done("criterion-5 (R,rho) identities and two-way bunch correspondence", started, 20)


def test_criterion_6_pairs_give_regular_rrho_algebras():
    started = time.monotonic()
    for n in (2, 3):
        for entry in multiplication_entries(n):
            pair, a = from_bi_myb(pair_of(entry))
            assert pair.passed
            report = check_rrho(a)
            assert report.passed
            assert report.sub("regular").passed
    _done("criterion-6 regular (R,rho) from even-tempered pairs", started, 10)


def test_criterion_7_xi_characterization_and_conversion():
    started = time.monotonic()
    for n in (2, 3):
        for entry in multiplication_entries(n):
            R1, R2 = entry.operators["R1"], entry.operators["R2"]
            R, xi = convert_params(R1, R2)
            assert convert_params_inverse(R, xi) == (R1, R2)
            g = LieWithOperator(entry.bracket, R)
            assert check_xi_characterization(g, xi).passed
            assert check_even_tempered_xi(g, xi).passed
    bracket = multiplication_entries(2)[0].bracket
    rng = random.Random(BASE_SEED + 300)
    for _ in range(50):
        r1, r2 = random_operator(rng, 4), random_operator(rng, 4)
        pair_flag = check_even_tempered(LieBiOperator(bracket, r1, r2)).passed
        rr, xx = convert_params(r1, r2)
        xi_flag = check_even_tempered_xi(LieWithOperator(bracket, rr), xx).passed
        assert pair_flag == xi_flag
    _done("criterion-7 xi characterization and parameter conversion", started, 20)


def test_criterion_8_negative_witnesses_and_midpoint_findings():
    started = time.monotonic()
    # (a) non-mYB operator on so(3): the projection onto e1 must fail at (e2, e3)
    so3 = so_n(3)
    direct = check_myb(LieWithOperator(so3.bracket, Operator.diagonal([1, 0, 0])))
    assert not direct.passed
    assert direct.witness.indices == (1, 2)
    search_a = run_search("so3-non-myb", seed=BASE_SEED, trials=10)
    assert search_a.findings[0]["candidate"] == "diag(1,0,0)"
    assert search_a.findings[0]["witness"]["indices"] == [1, 2]
    # (b) full/reduced derived-triple disagreement for a non-mYB operator
    search_b = run_search("triple-r-mode-disagreement", seed=BASE_SEED, trials=5)
    assert any(f["kind"] == "derived-triple-mode-disagreement" for f in search_b.findings)
    # midpoint probe over the multiplication pairs: coincidence always holds,
    # mYB outcomes are findings
    midpoint_outcomes = []
    for n in (2, 3):
        for entry in multiplication_entries(n):
            bi_myb, probe = probe_r0(pair_of(entry))
            assert bi_myb.passed
            assert probe.sub("midpoint-bracket-coincidence").passed
            midpoint_outcomes.append(probe.sub("midpoint-myb").passed)
    assert len(midpoint_outcomes) == 2 * (RANDOM_Q_COUNT + 1)
    print(
        "ACCEPTANCE finding: midpoint operators satisfying the mYB identity on "
        f"{sum(midpoint_outcomes)} of {len(midpoint_outcomes)} instances"
    )
    _done("criterion-8 negative witnesses and midpoint probe", started, 30)


def test_criterion_9_findings_document_exists_and_is_deterministic():
    started = time.monotonic()
    text_a = render_findings()
    text_b = render_findings()
    assert text_a == text_b
    doc = open_question_findings()
    required = {
        "example1-operator-readings",
        "example1-triple-candidates",
        "example3-derived-triple-sign",
        "jts-identity-variant",
    }
    assert required <= set(doc["items"])
    for name in required:
        item = doc["items"][name]
        assert item["conclusion"]
        payload = str(item)
        assert "passed" in payload
    # every adjudicated failure carries an explicit witness
    readings = doc["items"]["example1-operator-readings"]["instances"]
    assert all(v["myb"]["witness"] for v in readings.values())
    variant = doc["items"]["jts-identity-variant"]
    assert variant["gl2-tensor-checks"]["alternate"]["witness"]
    _done("criterion-9 deterministic findings document", started, 30)
