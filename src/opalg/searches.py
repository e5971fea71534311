"""Seeded searches for the unwitnessed "in general" failure claims.

Each target is one row of SEARCH_TARGETS: (the catalog family whose size
--dim sets, or None; the entry searched without --dim; setup; draw; verdict).
- setup(rng, entry, bound) -> (the entry every trial reads, and a
  summary(trials, found) that closes the findings, or None);
- draw(rng, entry, bound, trial) -> the trial's candidate operators, named
  as the finding embeds them;
- verdict(entry, trial, **operators) -> the finding's own fields, or None.

run_search owns the one trial loop: it draws and judges one candidate at a
time and adds the instance with the candidate's operators to each finding as
"algebra"; then come the summary, if any, and "no-witness" when no trial
made a finding.  Searches only report, they never fail a run; a search for a
statement that is a theorem of the workbench is a usage error.
"""

from __future__ import annotations

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


def _as_built(rng, entry, bound):
    return entry, None


def _lie_proven(rng, entry, bound):
    """entry with its bracket proved Lie once, for every trial's pair to share."""
    return entry.replace(bracket=require_lie(entry.bracket)), None


def _random_R(rng, entry, bound, trial):
    return {"R": random_operator(rng, entry.dim, bound)}


def _right_multiplication(rng, entry, bound, trial):
    """R = R1 of the multiplication pair of a random Q on a gl entry."""
    return {"R": _mult_pair(entry, random_matrix(rng, entry.n, bound))[0]}


def _so3_candidate(rng, entry, bound, trial):
    """diag(1,0,0) first, then one random operator per further trial."""
    return {"R": random_operator(rng, entry.dim, bound) if trial else Operator.diagonal([1, 0, 0])}


def _non_myb(entry, trial, R):
    report = check_myb_raw(entry.bracket, R)
    if report.passed:
        return None
    label = f"random[{trial - 1}]" if trial else "diag(1,0,0)"
    return {"kind": "non-myb-operator", "candidate": label, "witness": report.witness.to_dict()}


def _modes_disagree(entry, trial, R):
    """R whose full and reduced derived triples differ."""
    full = derived_triple(entry.triple, R, MODE_FULL)
    eq = tensors_equal_report("modes-agree", full, derived_triple(entry.triple, R, MODE_REDUCED))
    if eq.passed:
        return None
    myb = check_triple_myb(TripleWithOperator(entry.triple, R))
    return {
        "kind": "derived-triple-mode-disagreement",
        "trial": trial,
        "witness": eq.witness.to_dict(),
        "triple-myb-witness": myb.witness.to_dict() if myb.witness else None,
    }


def _midpoint(rng, entry, bound, trial):
    """R0 = (R1+R2)/2 of the multiplication pair of a random Q on a gl entry."""
    R1, R2 = _mult_pair(entry, random_matrix(rng, entry.n, bound))
    return {"R0": (R1 + R2).scale(scalar(1, 2))}


def _midpoint_not_myb(entry, trial, R0):
    report = check_myb_raw(entry.bracket, R0, "midpoint-myb")
    return None if report.passed else {"kind": "midpoint-not-myb", "trial": trial, "witness": report.witness.to_dict()}


def _diagonal(rng, entry, bound, trial):
    return {"R": Operator.diagonal([random_scalar(rng, bound) for _ in range(entry.dim)])}


def _not_even_tempered(entry, trial, R):
    """R passes mYB, but its pair R1 = R2 = R is not even-tempered."""
    if not check_myb_raw(entry.bracket, R).passed:
        return None
    et = check_even_tempered(LieBiOperator(entry.bracket, R, R))
    return None if et.passed else {"kind": "myb-but-not-even-tempered", "trial": trial, "witness": et.witness.to_dict()}


def _not_normal(entry, trial, R):
    """The triple system with R1 = R2 = R is bi-mYB, but not normal or not even-tempered."""
    s = TripleWithOperator(entry.triple, R)
    report = check_triple_bi_myb(s, s)
    if not report.passed:
        return None
    normal, even = report.sub("normal"), report.sub("even-tempered")
    if normal.passed and even.passed:
        return None
    bad = normal if not normal.passed else even
    return {
        "kind": "triple-bi-myb-not-" + bad.name,
        "trial": trial,
        "normal": normal.passed,
        "even-tempered": even.passed,
        "witness": bad.witness.to_dict() if bad.witness else None,
    }


def _example4_setup(rng, entry, bound):
    """so(n) with a seeded symmetric Q, drawn before any trial, and its bracket
    proved Lie once; the summary counts the factorizations found, either way."""
    entry, _ = _lie_proven(rng, _with_q(entry, entry.name, random_symmetric_matrix(rng, entry.n, bound)), bound)
    R, rho = entry.operators["R"], entry.operators["rho"]
    rrho = check_rrho(RRhoAlgebra(entry.bracket, R, rho))

    def summary(trials, found):
        return {
            "kind": "factorization-search-summary",
            "rrho-passed": rrho.passed,
            "trials": trials,
            "factorizations-found": found,
            "algebra": _instance(entry, R=R, rho=rho),
        }

    return entry, summary


def _factors(rng, entry, bound, trial):
    """A sampled R1, with R2 forced to R - R1."""
    R, R1 = entry.operators["R"], random_operator(rng, entry.dim, bound)
    return {"R": R, "rho": entry.operators["rho"], "R1": R1, "R2": R - R1}


def _factorization(entry, trial, R, rho, R1, R2):
    """R1, R2 commute, multiply to rho and satisfy the bi-mYB conditions, which
    would disprove the non-factorizability claim for that instance."""
    if R1 @ R2 != rho or R1 @ R2 != R2 @ R1 or not check_bi_myb(LieBiOperator(entry.bracket, R1, R2)).passed:
        return None
    return {"kind": "factorization-found", "trial": trial}


# name -> (family, default entry, setup, draw, verdict); see the module docstring
SEARCH_TARGETS = {
    "so3-non-myb": (None, "so3", _as_built, _so3_candidate, _non_myb),
    "triple-r-mode-disagreement": ("gl", "gl2", _as_built, _random_R, _modes_disagree),
    "r0-not-myb": ("gl", "gl2", _as_built, _midpoint, _midpoint_not_myb),
    "non-even-tempered": ("gl", "gl2", _lie_proven, _right_multiplication, _not_even_tempered),
    "non-even-tempered-diagonal-R": ("so", "so3", _lie_proven, _diagonal, _not_even_tempered),
    "non-normal-triple": ("gl", "gl2", _as_built, _right_multiplication, _not_normal),
    "example4-non-factorizable": ("so", "so3", _example4_setup, _factors, _factorization),
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
        raise TargetIsTheoremError(f"target {target!r} is a theorem, not a claim: {THEOREM_TARGETS[target]}")
    if target not in SEARCH_TARGETS:
        raise UnknownTargetError(f"unknown search target {target!r}; known: {sorted(SEARCH_TARGETS)}")
    family, default, setup, draw, verdict = SEARCH_TARGETS[target]
    if dim is not None and family is None:
        raise WorkbenchError(f"search target {target!r} takes no --dim")
    rng = random.Random(seed)
    entry, summary = setup(rng, build_entry(default if dim is None else f"{family}{dim}"), entry_bound)
    findings: list = []
    for trial in range(trials):
        operators = draw(rng, entry, entry_bound, trial)
        found = verdict(entry, trial, **operators)
        if found is not None:
            findings.append({**found, "algebra": _instance(entry, **operators)})
    witnesses = len(findings)
    if summary:
        findings.append(summary(trials, witnesses))
    if not witnesses:
        findings.append({"kind": "no-witness", "detail": f"none found in {trials} trials"})
    options = {"seed": seed, "trials": trials, "dim": dim or "", "entry_bound": entry_bound}
    name = f"search:{target}"
    return RunReport(source=name, input_digest="", suite=name, options=options, checks=[], findings=findings)
