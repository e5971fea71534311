"""Jordan triple systems with operators: triple mYB identity, derived triples,
two-operator systems with normal/even-tempered classification, rho-identity.

The triple mYB identity is R<RX,Y,Z> + R<X,Y,RZ> = <RX,Y,RZ> + R^2<X,Y,Z>.
The derived triple <.,.,.>_R exists in a full seven-term form and, whenever
the triple mYB identity holds, in the three-term reduced form
<RX,RY,Z> + <X,RY,RZ> - R<X,RY,Z>.
"""

from __future__ import annotations

import functools

from .core import (
    COMMUTE,
    AlgebraRecord,
    BilinearStructure,
    CheckReport,
    JordanTriple,
    Operator,
    TrilinearStructure,
    VARIANT_JACOBSON,
    aggregate_report,
    prove_jts,
    tensors_equal_report,
)
from .formula import Formula, scan, scan_each_s, states, tabulate

BASE_UNVERIFIED_NOTE = "base-JTS-unverified"


class TripleWithOperator(AlgebraRecord):
    """A triple system with one operator; the record proves nothing.

    The triple mYB identity and the derived triple need no JTS identity, so a
    JTS proof is a label on the triple: a record on a JordanTriple (made only
    by prove_jts) has no notes, and one on a plain triple notes
    base-JTS-unverified in the reports it produces.
    """

    __slots__ = ("triple", "R")

    @property
    def notes(self) -> tuple:
        return () if isinstance(self.triple, JordanTriple) else (BASE_UNVERIFIED_NOTE,)

    @functools.cached_property
    def triple_r(self) -> tuple:
        """(check_triple_myb(self), the reduced derived triple, or None if the
        report fails), computed on first read."""
        report = check_triple_myb(self)
        return report, derived_triple(self.triple, self.R, MODE_REDUCED) if report.passed else None


class DesignCandidate(AlgebraRecord):
    """A Lie bracket plus a candidate triple; design conditions are checked, not assumed."""

    __slots__ = ("bracket", "triple", "jts_variant")
    _defaults = {"jts_variant": VARIANT_JACOBSON}


# ---------------------------------------------------------------------------
# equivariance and designs

EQUIVARIANCE = Formula("equivariance", "A X Y Z", "[A,<X,Y,Z>] = <[A,X],Y,Z> + <X,[A,Y],Z> + <X,Y,[A,Z]>")
# Full polarization of [A,<X,A,X>] + [X,<A,X,A>] over (a1,a2,x1,x2).  The
# expression has multidegree (2,2) in (A,X); its symmetrized 4-linear form
# vanishes on all basis tuples iff the original vanishes identically over
# the rationals.
POLARIZED_DESIGN = Formula(
    "polarized-bracket-condition",
    "A1 A2 X1 X2",
    "1/4([A1,<X1,A2,X2>] + [X1,<A1,X2,A2>] + [A1,<X2,A2,X1>] + [X2,<A1,X1,A2>]"
    " + [A2,<X1,A1,X2>] + [X1,<A2,X2,A1>] + [A2,<X2,A1,X1>] + [X2,<A2,X1,A1>]) = 0",
)


@states(EQUIVARIANCE)
def check_equivariance(bracket: BilinearStructure, triple: TrilinearStructure) -> CheckReport:
    """ad_A as a derivation of the triple."""
    return scan(EQUIVARIANCE, {"bracket": bracket, "triple": triple})


@states(POLARIZED_DESIGN)
def check_design(d: DesignCandidate) -> CheckReport:
    """JTS identity + equivariance + polarized quadratic bracket condition."""
    subs = [
        prove_jts(d.triple, d.jts_variant)[0],
        check_equivariance(d.bracket, d.triple),
        scan(POLARIZED_DESIGN, {"bracket": d.bracket, "triple": d.triple}),
    ]
    return aggregate_report("design", subs)


# ---------------------------------------------------------------------------
# triple mYB and derived triples

MODE_FULL = "full"
MODE_REDUCED = "reduced"

TRIPLE_MYB = Formula("triple-myb", "X Y Z", "R<RX,Y,Z> + R<X,Y,RZ> = <RX,Y,RZ> + R^2<X,Y,Z>")
DERIVED_TRIPLES = {
    MODE_FULL: Formula(
        "derived-triple-full",
        "X Y Z",
        "<X,RY,RZ> + <RX,Y,RZ> + <RX,RY,Z> - R<RX,Y,Z> - R<X,RY,Z> - R<X,Y,RZ> + R^2<X,Y,Z>",
    ),
    MODE_REDUCED: Formula("derived-triple-reduced", "X Y Z", "<RX,RY,Z> + <X,RY,RZ> - R<X,RY,Z>"),
}
TRIPLE_R_HOMOMORPHISM = Formula("triple-r-homomorphism", "X Y Z", "R<X,Y,Z>_R = <RX,RY,RZ>")

@states(TRIPLE_MYB)
def check_triple_myb(s: TripleWithOperator) -> CheckReport:
    return scan(TRIPLE_MYB, {"triple": s.triple, "R": s.R}, notes=s.notes)


@states(*DERIVED_TRIPLES.values())
def derived_triple(triple: TrilinearStructure, R: Operator, mode: str = MODE_REDUCED) -> TrilinearStructure:
    """Raw derived-triple tensor in the requested form.

    Full minus reduced is minus the triple-mYB residual, so the two forms
    agree exactly when the triple mYB identity holds; this function enforces
    nothing.  TripleWithOperator.triple_r is the checked reduced form, and
    check_triple_bi_myb reads it as the full form where it exists.  The
    triple-r-mode-disagreement search, which studies the reduced form where
    the precondition fails, is the reduced form's one plain reader.
    """
    if mode not in DERIVED_TRIPLES:
        raise ValueError(f"unknown derived-triple mode: {mode!r}")
    return tabulate(DERIVED_TRIPLES[mode], {"triple": triple, "R": R})


@states(TRIPLE_R_HOMOMORPHISM)
def check_triple_r_homomorphism(s: TripleWithOperator) -> tuple:
    """(check_triple_myb(s), whether R maps the derived triple onto R-images, or None)."""
    base, derived = s.triple_r
    if derived is None:
        return base, None
    return base, scan(TRIPLE_R_HOMOMORPHISM, {"triple": s.triple, "triple_R": derived, "R": s.R}, notes=s.notes)


# ---------------------------------------------------------------------------
# two-operator triple systems

MIDDLE_RHO = Formula("middle-rho", "X Y Z", "<X,R1R2Y,Z>")
NORMAL_OUTER_PAIR = Formula(
    "normal-outer-pair", "X Y Z", "<X,R1R2Y,Z> = <R1X,Y,R2Z> + <R2X,Y,R1Z> - R1R2<X,Y,Z>"
)
# the normal and even-tempered chains are checked once with S = R1 and once with S = R2
NORMAL_REDUCED = Formula("normal-reduced", "X Y Z", "<X,R1R2Y,Z> = <SX,SY,Z> + <X,SY,SZ> - S<X,SY,Z>")
EVEN_TEMPERED_TRIPLE = Formula(
    "even-tempered-triple",
    "X Y Z",
    "<R1X,R1R2Y,R2Z> + <R2X,R1R2Y,R1Z> - R1R2<X,R1R2Y,Z>"
    " = <S^2X,S^2Y,Z> + <X,S^2Y,S^2Z> - S^2<X,S^2Y,Z>",
)
EVEN_TEMPERED_AS_PRINTED = Formula(
    "even-tempered-as-printed",
    "X Y Z",
    "<R1X,R1R2Y,R2Z> + <R2X,R1R2Y,R2Z> - R1R2<X,R1R2Y,Z>"
    " = <R1^2X,R1^2Y,Z> + <X,R1^2Y,R1^2Z> - R1^2<X,R1^2Y,Z>",
)


def _full_derived_triple(s: TripleWithOperator) -> TrilinearStructure:
    """The full derived triple of s: its reduced one where triple mYB holds,
    since the two differ by minus the triple-mYB residual, else tabulated."""
    derived = s.triple_r[1]
    return derived if derived is not None else derived_triple(s.triple, s.R, MODE_FULL)


@states(
    COMMUTE, NORMAL_OUTER_PAIR, NORMAL_REDUCED,
    EVEN_TEMPERED_TRIPLE, EVEN_TEMPERED_AS_PRINTED, MIDDLE_RHO,
)
def check_triple_bi_myb(s1: TripleWithOperator, s2: TripleWithOperator) -> CheckReport:
    """Core two-operator conditions plus normal / even-tempered classification
    of two records on one triple (ValueError for records on different ones).

    Core (asserted): R1 and R2 commute, both are triple-mYB, and the two full
    derived triples coincide.  Classification (informational): the normal
    chain, whose reduced form holds for S = R1 and for S = R2 with rho = R1R2,
    the even-tempered chain, the concise middle-rho form of the normal chain
    (the full derived triple of R1 equals <X,rhoY,Z>), and their consistency.
    The triple-myb-r1/-r2 lines are the records' triple_r reports, notes
    included, and one record passed twice is scanned and tabulated once.
    """
    if s1.triple != s2.triple:
        raise ValueError("the two operators' records are on different triples")
    pair = {"triple": s1.triple, "R1": s1.R, "R2": s2.R}
    normal_reduced = scan_each_s(NORMAL_REDUCED, pair, "normal-reduced")
    normal = aggregate_report("normal", (scan(NORMAL_OUTER_PAIR, pair), *normal_reduced), informational=True)
    even = aggregate_report(
        "even-tempered", scan_each_s(EVEN_TEMPERED_TRIPLE, pair, "even-tempered"), informational=True
    )
    printed = scan(EVEN_TEMPERED_AS_PRINTED, pair, informational=True)

    full_1 = _full_derived_triple(s1)
    middle_rho_form = tensors_equal_report("middle-rho-form", full_1, tabulate(MIDDLE_RHO, pair), informational=True)
    consistency = CheckReport(
        name="middle-rho-consistency",
        passed=normal.passed == middle_rho_form.passed,
        informational=True,
    )

    subs = [
        scan(COMMUTE, pair),
        s1.triple_r[0].replace(name="triple-myb-r1"),
        s2.triple_r[0].replace(name="triple-myb-r2"),
        tensors_equal_report("derived-triples-coincide", full_1, full_1 if s2 is s1 else _full_derived_triple(s2)),
        normal,
        even,
        printed,
        middle_rho_form,
        consistency,
    ]
    return aggregate_report("triple-bi-myb", subs)


RHO_EXCHANGE = Formula("rho-exchange", "X Y Z", "<rhoX,Y,rhoZ> = rho<X,rhoY,Z>")
RHO_DERIVED_TRANSPORT = Formula("rho-derived-transport", "X Y Z", "rho<X,Y,Z>_R = <rhoX,Y,rhoZ>")


@states(RHO_EXCHANGE, RHO_DERIVED_TRANSPORT)
def check_rho_identity(system: TrilinearStructure | TripleWithOperator, rho: Operator) -> CheckReport:
    """rho-exchange on a triple.  Given a TripleWithOperator, also the transport
    of its reduced derived triple <.,.,.>_R, where its triple_r report passes;
    that report is not a line of this one."""
    triple, derived = (system.triple, system.triple_r[1]) if isinstance(system, TripleWithOperator) else (system, None)
    structures = {"triple": triple, "rho": rho, "triple_R": derived}
    subs = [scan(RHO_EXCHANGE, structures)]
    if derived is not None:
        subs.append(scan(RHO_DERIVED_TRANSPORT, structures))
    return aggregate_report("rho-identity", subs)
