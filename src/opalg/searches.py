"""Seeded searches for the unwitnessed "in general" failure claims.

Each target samples candidate instances deterministically from a seed, runs
the relevant checker, and records every witness found (with the instance
embedded as an algebra file).  Searches are informational: they never fail a
run, they only report.  Asking to "search" for a statement that is a theorem
of the workbench is a usage error.
"""

from __future__ import annotations

import itertools
import random

from .algfile import algebra_file_to_dict, entry_to_algebra_file
from .bunch import RRhoAlgebra, check_rrho
from .catalog import _mult_pair, _with_q, build_entry
from .core import Operator, WorkbenchError, require_lie, tensors_equal_report
from .jordan import MODE_FULL, MODE_REDUCED, TripleWithOperator, check_triple_bi_myb, check_triple_myb, derived_triple
from .lie import LieBiOperator, check_bi_myb, check_even_tempered, check_myb_raw
from .sampling import random_matrix, random_operator, random_scalar, random_symmetric_matrix
from .scalars import scalar
from .suites import RunReport


class UnknownTargetError(WorkbenchError):
    pass


class TargetIsTheoremError(WorkbenchError):
    pass


def _instance(entry, **operators) -> dict:
    return algebra_file_to_dict(entry_to_algebra_file(entry).replace(operators=dict(operators)))


def _search_so3_non_myb(rng, trials, entry, entry_bound, findings):
    """Operators on so(3) failing the mYB identity: diag(1,0,0), then one
    random operator per further trial, each checked as it is drawn."""
    randoms = ((f"random[{k}]", random_operator(rng, entry.dim, entry_bound)) for k in range(trials - 1))
    for label, op in itertools.chain([("diag(1,0,0)", Operator.diagonal([1, 0, 0]))], randoms):
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


def _search_triple_r_modes(rng, trials, entry, entry_bound, findings):
    """Random operators where the full and reduced derived triples disagree."""
    for trial in range(trials):
        op = random_operator(rng, entry.dim, entry_bound)
        full = derived_triple(entry.triple, op, MODE_FULL)
        reduced = derived_triple(entry.triple, op, MODE_REDUCED)
        eq = tensors_equal_report("modes-agree", full, reduced)
        if not eq.passed:
            myb = check_triple_myb(TripleWithOperator(entry.triple, op))
            findings.append(
                {
                    "kind": "derived-triple-mode-disagreement",
                    "trial": trial,
                    "witness": eq.witness.to_dict(),
                    "triple-myb-witness": myb.witness.to_dict() if myb.witness else None,
                    "algebra": _instance(entry, R=op),
                }
            )


def _search_r0_not_myb(rng, trials, entry, entry_bound, findings):
    """Midpoint operators (R1+R2)/2 of bi-mYB pairs that fail the mYB identity."""
    for trial in range(trials):
        R1, R2 = _mult_pair(entry, random_matrix(rng, entry.n, entry_bound))
        r0 = (R1 + R2).scale(scalar(1, 2))
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


def _non_even_tempered(entry, operators, findings):
    """mYB operators R on entry, one drawn per trial, whose pair R1 = R2 = R
    is not even-tempered."""
    bracket = require_lie(entry.bracket)
    for trial, R in enumerate(operators):
        if not check_myb_raw(bracket, R).passed:
            continue
        et = check_even_tempered(LieBiOperator(bracket, R, R))
        if not et.passed:
            findings.append(
                {
                    "kind": "myb-but-not-even-tempered",
                    "trial": trial,
                    "witness": et.witness.to_dict(),
                    "algebra": _instance(entry, R=R),
                }
            )


def _search_non_even_tempered(rng, trials, entry, entry_bound, findings):
    """Right multiplications on gl(n) that are mYB but not even-tempered."""
    draws = (_mult_pair(entry, random_matrix(rng, entry.n, entry_bound))[0] for _ in range(trials))
    _non_even_tempered(entry, draws, findings)


def _search_non_even_tempered_diagonal(rng, trials, entry, entry_bound, findings):
    """Diagonal operators on so(n) that are mYB but not even-tempered."""
    draws = (
        Operator.diagonal([random_scalar(rng, entry_bound) for _ in range(entry.dim)]) for _ in range(trials)
    )
    _non_even_tempered(entry, draws, findings)


def _search_non_normal_triple(rng, trials, entry, entry_bound, findings):
    """Triple systems with R1 = R2 = R whose classification flags fail."""
    for trial in range(trials):
        R = _mult_pair(entry, random_matrix(rng, entry.n, entry_bound))[0]
        s = TripleWithOperator(entry.triple, R)
        report = check_triple_bi_myb(s, s)
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


def _search_example4_factorization(rng, trials, entry, entry_bound, findings):
    """Look for (R1, R2) with R1+R2 = R, R1R2 = rho on the symmetric-Q pair.

    Candidates R1 are sampled; R2 is forced to R - R1.  Any candidate that
    commutes, multiplies to rho, and satisfies the bi-mYB conditions would
    disprove the non-factorizability claim for that instance; outcomes are
    recorded either way.
    """
    entry = _with_q(entry, entry.name, random_symmetric_matrix(rng, entry.n, entry_bound))
    R, rho = entry.operators["R"], entry.operators["rho"]
    a = RRhoAlgebra(entry.bracket, R, rho)
    rrho = check_rrho(a)
    successes = 0
    for trial in range(trials):
        R1 = random_operator(rng, entry.dim, entry_bound)
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


# name -> (search(rng, trials, entry, entry_bound, findings), the catalog family
# whose size --dim sets, or None for a target that takes no --dim, and the
# catalog entry searched without --dim)
SEARCH_TARGETS = {
    "so3-non-myb": (_search_so3_non_myb, None, "so3"),
    "triple-r-mode-disagreement": (_search_triple_r_modes, "gl", "gl2"),
    "r0-not-myb": (_search_r0_not_myb, "gl", "gl2"),
    "non-even-tempered": (_search_non_even_tempered, "gl", "gl2"),
    "non-even-tempered-diagonal-R": (_search_non_even_tempered_diagonal, "so", "so3"),
    "non-normal-triple": (_search_non_normal_triple, "gl", "gl2"),
    "example4-non-factorizable": (_search_example4_factorization, "so", "so3"),
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
    """Run a search on the catalog algebra its row names, sized by dim; an
    algebra above the dim^3 guard is refused by build_entry before anything is
    built, unless forced (opalg.forced())."""
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
    search, family, default = SEARCH_TARGETS[target]
    if dim is not None and family is None:
        raise WorkbenchError(f"search target {target!r} takes no --dim")
    entry = build_entry(default if dim is None else f"{family}{dim}")
    findings: list = []
    search(random.Random(seed), trials, entry, entry_bound, findings)
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
