"""Named check suites over algebra files, with deterministic run reports."""

from __future__ import annotations

import json

from . import __version__
from .algfile import AlgebraFile, ParseError, algebra_file_digest, entry_to_algebra_file, parse_algebra_file
from .scalars import render_scalar
from .bunch import RRhoAlgebra, build_bunch, check_rrho, extract_rrho
from .catalog import build_entry
from .core import (
    CheckReport,
    FrozenRecord,
    JTS_VARIANTS,
    VARIANT_JACOBSON,
    WorkbenchError,
    check_jts_identity,
    forced,
    prove_jts,
    prove_lie,
)
from .jordan import (
    DesignCandidate,
    TripleWithOperator,
    check_design,
    check_equivariance,
    check_rho_identity,
    check_triple_bi_myb,
    check_triple_myb,
)
from .lie import (
    LieBiOperator,
    LieWithOperator,
    check_bi_myb,
    check_even_tempered,
    check_even_tempered_xi,
    check_myb_raw,
    check_xi_characterization,
    probe_r0,
)


class UnknownSuiteError(WorkbenchError):
    pass


TOOL = f"opalg {__version__}"


class RunReport(FrozenRecord):
    __slots__ = ("source", "input_digest", "suite", "options", "checks", "findings", "tool")

    _defaults = {"options": dict, "checks": list, "findings": list, "tool": TOOL}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_dict(self) -> dict:
        return {
            "tool": self.tool,
            "source": self.source,
            "input_digest": self.input_digest,
            "suite": self.suite,
            "options": {k: str(v) for k, v in sorted(self.options.items())},
            "checks": [c.to_dict() for c in self.checks],
            "findings": self.findings,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"{self.tool}",
            f"source: {self.source}",
            f"suite: {self.suite}",
            f"input digest: {self.input_digest}",
        ]

        def emit(check, depth):
            flag = "PASS" if check.passed else "FAIL"
            if check.informational:
                flag = f"info:{flag.lower()}"
            line = f"{'  ' * depth}{flag} {check.name} (tuples={check.tuples_evaluated})"
            if check.witness is not None:
                residual = [render_scalar(s) for s in check.witness.residual]
                line += f" witness={check.witness.indices} residual={residual}"
            if check.notes:
                line += f" notes={list(check.notes)}"
            lines.append(line)
            for sub in check.subchecks:
                emit(sub, depth + 1)

        for check in self.checks:
            emit(check, 0)
        for item in self.findings:
            lines.append(f"finding: {json.dumps(item, sort_keys=True)}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def load_input(spec: str) -> tuple:
    """Resolve 'catalog:NAME[?params]' or a file path to an AlgebraFile; a
    catalog entry above the dim^3 guard is refused unless forced
    (opalg.forced())."""
    if spec.startswith("catalog:"):
        entry = build_entry(spec[len("catalog:"):])
        return entry_to_algebra_file(entry), spec
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input {spec!r}: {exc}") from None
    return parse_algebra_file(text), spec


# A suite is a row (what it reads, default operator names, body).  A row reads
# "bracket" (the bracket, proved Lie first), "jts" (the triple, proved for the
# variant first) or "triple" (the triple, unproved), or more than one of them.
# run_suite resolves the whole request before any check runs: the input, each
# section the row reads, --variant (validated for every suite), and the
# operators, --operator and --operator2 in row order or else the row's
# defaults, where None reads an operator only when it is given.  So a refusal
# costs no scan.  Then it runs the row's proofs, and the body only when every
# proof check passed; a proof hands on the proved section, so nothing the body
# builds on it proves it again.  A body takes (input, variant, *operators) and
# returns (checks, findings).


def _prove_lie(af, variant) -> tuple:
    report, bracket = prove_lie(af.bracket)
    return list(report.subchecks), af.replace(bracket=bracket)


def _prove_jts(af, variant) -> tuple:
    report, triple = prove_jts(af.triple, variant)
    return [report], af.replace(triple=triple)


# what a row reads -> (the section it requires, the proof that section takes first)
_READS = {
    "bracket": (AlgebraFile.require_bracket, _prove_lie),
    "jts": (AlgebraFile.require_triple, _prove_jts),
    "triple": (AlgebraFile.require_triple, lambda af, variant: ([], af)),
}


def _suite_even_tempered(af, variant, R1, R2):
    g = LieBiOperator(af.bracket, R1, R2)
    return [check_bi_myb(g), check_even_tempered(g)], []


def _suite_xi(af, variant, R, xi):
    g = LieWithOperator(af.bracket, R)
    return [check_xi_characterization(g, xi), check_even_tempered_xi(g, xi)], []


def _suite_r0_probe(af, variant, R1, R2):
    bi, probe = probe_r0(LieBiOperator(af.bracket, R1, R2))
    if probe is None:
        return [bi], []
    myb = probe.sub("midpoint-myb")
    finding = {
        "kind": "midpoint-myb-outcome",
        "passed": myb.passed,
        "witness": myb.witness.to_dict() if myb.witness else None,
    }
    return [bi, probe], [finding]


def _suite_jordan_base(af, variant):
    other = next(v for v in JTS_VARIANTS if v != variant)
    checks = [check_jts_identity(af.triple, variant)]
    checks.append(check_jts_identity(af.triple, other).replace(informational=True))
    return checks, []


def _suite_triple_bi_myb(af, variant, R1, R2):
    s1 = TripleWithOperator(af.triple, R1)
    return [check_triple_bi_myb(s1, s1.replace(R=R2))], []


def _suite_rho(af, variant, rho, R):
    """rho-exchange; with operator2 R, first the triple mYB identity of (triple,
    R), then the transport of the reduced derived triple only where it holds.
    The suite proves no JTS identity, so the triple-mYB line notes it."""
    if R is None:
        return [check_rho_identity(af.triple, rho)], []
    s = TripleWithOperator(af.triple, R)
    return [s.triple_r[0], check_rho_identity(s, rho)], []


def _suite_rrho_bunch(af, variant, R, rho):
    a = RRhoAlgebra(af.bracket, R, rho)
    gamma, back = extract_rrho(build_bunch(a))
    checks = [check_rrho(a), gamma]
    if back is not None:
        checks.append(CheckReport(name="extraction-round-trip", passed=back == a, tuples_evaluated=1))
    return checks, []


SUITES = {
    "lie-base": (("bracket",), (), lambda af, variant: ([], [])),
    "myb": (("bracket",), ("R",), lambda af, variant, R: ([check_myb_raw(af.bracket, R)], [])),
    "bi-myb": (("bracket",), ("R1", "R2"), lambda af, variant, *pair: ([check_bi_myb(LieBiOperator(af.bracket, *pair))], [])),
    "even-tempered": (("bracket",), ("R1", "R2"), _suite_even_tempered),
    "xi": (("bracket",), ("R", "xi"), _suite_xi),
    "r0-probe": (("bracket",), ("R1", "R2"), _suite_r0_probe),
    "jordan-base": (("triple",), (), _suite_jordan_base),
    "triple-myb": (("jts",), ("R",), lambda af, variant, R: ([check_triple_myb(TripleWithOperator(af.triple, R))], [])),
    "triple-bi-myb": (("jts",), ("R1", "R2"), _suite_triple_bi_myb),
    "design": (("bracket", "triple"), (), lambda af, variant: ([check_design(DesignCandidate(af.bracket, af.triple, variant))], [])),
    "equivariance": (("bracket", "triple"), (), lambda af, variant: ([check_equivariance(af.bracket, af.triple)], [])),
    "rho": (("triple",), ("rho", None), _suite_rho),
    "rrho": (("bracket",), ("R", "rho"), lambda af, variant, R, rho: ([check_rrho(RRhoAlgebra(af.bracket, R, rho))], [])),
    "rrho+bunch": (("bracket",), ("R", "rho"), _suite_rrho_bunch),
}


def run_suite(input_spec, suite: str, options: dict | None = None) -> RunReport:
    """Run a named suite against a file path, catalog name, or AlgebraFile
    (whose report names its source "<memory>").

    options["force"] lifts the scan guards for this call, and its absence
    applies them, whatever the caller's opalg.forced() says.
    """
    options = dict(options or {})
    if suite not in SUITES:
        raise UnknownSuiteError(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    reads, defaults, body = SUITES[suite]
    variant = options.get("variant", VARIANT_JACOBSON)
    with forced(bool(options.get("force"))):
        if isinstance(input_spec, AlgebraFile):
            af, source = input_spec, "<memory>"
        else:
            af, source = load_input(input_spec)
        for read in reads:
            _READS[read][0](af)
        if variant not in JTS_VARIANTS:
            raise UnknownSuiteError(f"unknown triple-system identity variant: {variant!r}")
        names = [options.get(key, default) for key, default in zip(("operator", "operator2"), defaults)]
        operators = [None if name is None else af.require_operator(name) for name in names]
        checks, proved = [], af
        for read in reads:
            more, proved = _READS[read][1](proved, variant)
            checks += more
        more, findings = body(proved, variant, *operators) if all(c.passed for c in checks) else ([], [])
        checks += more
    return RunReport(
        source=source,
        input_digest=algebra_file_digest(af),
        suite=suite,
        options=options,
        checks=checks,
        findings=findings,
    )
