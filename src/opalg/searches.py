"""Seeded searches for the unwitnessed "in general" failure claims.

Each target samples candidate instances deterministically from a seed, runs
the relevant checker, and records every witness found (with the instance
embedded as an algebra file).  Searches are informational: they never fail a
run, they only report.  Asking to "search" for a statement that is a theorem
of the workbench is a usage error.
"""

from __future__ import annotations

import random

from .algfile import AlgebraFile, algebra_file_to_dict, entry_to_algebra_file
from .bunch import RRhoAlgebra, check_rrho
from .catalog import _entry_dim, example4_so, gl_assoc, mult_operators, so_n
from .core import Operator, WorkbenchError, guard_scan
from .jordan import MODE_FULL, MODE_REDUCED, check_triple_bi_myb, check_triple_myb_raw, derived_triple, tensors_equal_report
from .lie import LieBiOperator, check_bi_myb, check_even_tempered, check_myb_raw
from .sampling import random_matrix, random_operator, random_scalar, random_symmetric_matrix
from .scalars import scalar
from .suites import RunReport


class UnknownTargetError(WorkbenchError):
    pass


class TargetIsTheoremError(WorkbenchError):
    pass


def _instance(entry, **operators) -> dict:
    af = entry_to_algebra_file(entry)
    af = AlgebraFile(af.dimension, af.basis_names, af.bracket, af.triple, dict(operators))
    return algebra_file_to_dict(af)


def _search_so3_non_myb(rng, trials, dim, entry_bound, findings):
    """Operators on so(3) failing the mYB identity; diag(1,0,0) is tried first."""
    entry = so_n(3)
    candidates = [("diag(1,0,0)", Operator.diagonal([1, 0, 0]))]
    for trial in range(max(0, trials - 1)):
        candidates.append((f"random[{trial}]", random_operator(rng, entry.dim, entry_bound, entry_bound)))
    for label, op in candidates:
        report = check_myb_raw(entry.bracket, op)
        if not report.passed:
            findings.append(
                {
                    "kind": "non-myb-operator",
                    "candidate": label,
                    "witness": report.witness.to_dict(),
                    "algebra": _instance(entry, R=op),
                }
            )


def _search_triple_r_modes(rng, trials, dim, entry_bound, findings):
    """Random operators where the full and reduced derived triples disagree."""
    n = dim or 2
    entry = gl_assoc(n)
    for trial in range(trials):
        op = random_operator(rng, entry.dim, entry_bound, entry_bound)
        full = derived_triple(entry.triple, op, MODE_FULL)
        reduced = derived_triple(entry.triple, op, MODE_REDUCED)
        eq = tensors_equal_report("modes-agree", full, reduced)
        if not eq.passed:
            myb = check_triple_myb_raw(entry.triple, op)
            findings.append(
                {
                    "kind": "derived-triple-mode-disagreement",
                    "trial": trial,
                    "witness": eq.witness.to_dict(),
                    "triple-myb-witness": myb.witness.to_dict() if myb.witness else None,
                    "algebra": _instance(entry, R=op),
                }
            )


def _search_r0_not_myb(rng, trials, dim, entry_bound, findings):
    """Midpoint operators (R1+R2)/2 of bi-mYB pairs that fail the mYB identity."""
    n = dim or 2
    entry = gl_assoc(n)
    for trial in range(trials):
        ops = mult_operators(entry, random_matrix(rng, n, entry_bound, entry_bound))
        r0 = (ops["R1"] + ops["R2"]).scale(scalar(1, 2))
        report = check_myb_raw(entry.bracket, r0, "midpoint-myb")
        if not report.passed:
            findings.append(
                {
                    "kind": "midpoint-not-myb",
                    "trial": trial,
                    "witness": report.witness.to_dict(),
                    "algebra": _instance(entry, R0=r0),
                }
            )


def _search_non_even_tempered(rng, trials, dim, entry_bound, findings):
    """mYB instances (R1 = R2 = right multiplication) failing even-temperedness."""
    n = dim or 2
    entry = gl_assoc(n)
    bracket = entry.bracket  # proved Lie by the first pair built on it
    for trial in range(trials):
        R = mult_operators(entry, random_matrix(rng, n, entry_bound, entry_bound))["R1"]
        myb = check_myb_raw(entry.bracket, R)
        if not myb.passed:
            continue
        g = LieBiOperator(bracket, R, R)
        bracket = g.bracket
        et = check_even_tempered(g)
        if not et.passed:
            findings.append(
                {
                    "kind": "myb-but-not-even-tempered",
                    "trial": trial,
                    "witness": et.witness.to_dict(),
                    "algebra": _instance(entry, R=R),
                }
            )


def _search_non_even_tempered_diagonal(rng, trials, dim, entry_bound, findings):
    """Diagonal mYB operators on so(n) failing even-temperedness (R1 = R2 = R)."""
    n = dim or 3
    entry = so_n(n)
    bracket = entry.bracket  # proved Lie by the first pair built on it
    for trial in range(trials):
        R = Operator.diagonal([random_scalar(rng, entry_bound, entry_bound) for _ in range(entry.dim)])
        if not check_myb_raw(entry.bracket, R).passed:
            continue
        g = LieBiOperator(bracket, R, R)
        bracket = g.bracket
        et = check_even_tempered(g)
        if not et.passed:
            findings.append(
                {
                    "kind": "myb-but-not-even-tempered",
                    "trial": trial,
                    "witness": et.witness.to_dict(),
                    "algebra": _instance(entry, R=R),
                }
            )


def _search_non_normal_triple(rng, trials, dim, entry_bound, findings):
    """Triple systems with R1 = R2 = R whose classification flags fail."""
    n = dim or 2
    entry = gl_assoc(n)
    for trial in range(trials):
        R = mult_operators(entry, random_matrix(rng, n, entry_bound, entry_bound))["R1"]
        report = check_triple_bi_myb(entry.triple, R, R)
        if not report.passed:
            continue
        normal = report.sub("normal")
        even = report.sub("even-tempered")
        if not normal.passed or not even.passed:
            bad = normal if not normal.passed else even
            findings.append(
                {
                    "kind": "triple-bi-myb-not-" + bad.name,
                    "trial": trial,
                    "normal": normal.passed,
                    "even-tempered": even.passed,
                    "witness": bad.witness.to_dict() if bad.witness else None,
                    "algebra": _instance(entry, R=R),
                }
            )


def _search_example4_factorization(rng, trials, dim, entry_bound, findings):
    """Look for (R1, R2) with R1+R2 = R, R1R2 = rho on the symmetric-Q pair.

    Candidates R1 are sampled; R2 is forced to R - R1.  Any candidate that
    commutes, multiplies to rho, and satisfies the bi-mYB conditions would
    disprove the non-factorizability claim for that instance; outcomes are
    recorded either way.
    """
    n = dim or 3
    Q = random_symmetric_matrix(rng, n, entry_bound, entry_bound)
    entry = example4_so(n, Q)
    R, rho = entry.operators["R"], entry.operators["rho"]
    a = RRhoAlgebra(entry.bracket, R, rho)
    rrho = check_rrho(a)
    successes = 0
    for trial in range(trials):
        R1 = random_operator(rng, entry.dim, entry_bound, entry_bound)
        R2 = R - R1
        if R1 @ R2 != rho or R1 @ R2 != R2 @ R1:
            continue
        g = LieBiOperator(a.bracket, R1, R2)
        if check_bi_myb(g).passed:
            successes += 1
            findings.append(
                {
                    "kind": "factorization-found",
                    "trial": trial,
                    "algebra": _instance(entry, R=R, rho=rho, R1=R1, R2=R2),
                }
            )
    findings.append(
        {
            "kind": "factorization-search-summary",
            "rrho-passed": rrho.passed,
            "trials": trials,
            "factorizations-found": successes,
            "algebra": _instance(entry, R=R, rho=rho),
        }
    )


SEARCH_TARGETS = {
    "so3-non-myb": _search_so3_non_myb,
    "triple-r-mode-disagreement": _search_triple_r_modes,
    "r0-not-myb": _search_r0_not_myb,
    "non-even-tempered": _search_non_even_tempered,
    "non-even-tempered-diagonal-R": _search_non_even_tempered_diagonal,
    "non-normal-triple": _search_non_normal_triple,
    "example4-non-factorizable": _search_example4_factorization,
}

# The catalog family of the algebra each target builds from --dim n, whose
# dimension catalog._entry_dim states.  so3-non-myb always works on so(3).
_DIM_FAMILIES = {
    "triple-r-mode-disagreement": "gl",
    "r0-not-myb": "gl",
    "non-even-tempered": "gl",
    "non-even-tempered-diagonal-R": "so",
    "non-normal-triple": "gl",
    "example4-non-factorizable": "so",
}

# Statements that always hold (verified as invariants); searching for
# counterexamples to them is a usage error, not a search.
THEOREM_TARGETS = {
    "derived-bracket-jacobi": "the derived bracket of an mYB operator is a Lie bracket",
    "triple-r-homomorphism": "R maps the derived triple onto R-images in any triple mYB system",
    "quadratic-bracket-jacobi": "the quadratic bracket of an (R, rho) pair obeys Jacobi",
    "midpoint-bracket-coincidence": "the midpoint derived bracket coincides with the pair's bracket",
}


def run_search(target: str, seed: int, trials: int, dim: int | None = None, entry_bound: int = 3) -> RunReport:
    """Run a search; a --dim whose algebra exceeds the dim^3 guard is refused
    before anything is built, unless forced (opalg.forced())."""
    if trials < 1:
        raise WorkbenchError("trials must be >= 1")
    if entry_bound < 1:
        raise WorkbenchError("--entry-bound must be >= 1")
    if dim is not None and dim < 1:
        raise WorkbenchError("--dim must be >= 1")
    if target in THEOREM_TARGETS:
        raise TargetIsTheoremError(
            f"target {target!r} is a theorem, not a claim: {THEOREM_TARGETS[target]}"
        )
    if target not in SEARCH_TARGETS:
        raise UnknownTargetError(f"unknown search target {target!r}; known: {sorted(SEARCH_TARGETS)}")
    if dim and target in _DIM_FAMILIES:
        guard_scan(_entry_dim(_DIM_FAMILIES[target], dim), 3)
    rng = random.Random(seed)
    findings: list = []
    SEARCH_TARGETS[target](rng, trials, dim, entry_bound, findings)
    if not any(f.get("kind") != "factorization-search-summary" for f in findings):
        findings.append({"kind": "no-witness", "detail": f"none found in {trials} trials"})
    report = RunReport(
        source=f"search:{target}",
        input_digest="",
        suite=f"search:{target}",
        options={"seed": seed, "trials": trials, "dim": dim or "", "entry_bound": entry_bound},
        checks=[],
        findings=findings,
    )
    return report
