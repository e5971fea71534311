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
    BilinearStructure,
    CheckReport,
    DimensionMismatchError,
    FrozenRecord,
    Operator,
    TrilinearStructure,
    VARIANT_JACOBSON,
    aggregate_report,
    prove_jts,
    require_lie,
    tensors_equal_report,
)
from .formula import Formula, scan, states, tabulate

BASE_UNVERIFIED_NOTE = "base-JTS-unverified"


class TripleWithOperator(FrozenRecord):
    """A triple system with one operator; the triple is kept as prove_jts returns it.

    A failing triple requires unchecked=True; the record keeps the flag and the
    plain triple, and downstream reports carry a base-JTS-unverified note.
    Above dimension 8 the dim^5 proof is refused unless run inside opalg.forced().
    """

    __slots__ = ("triple", "R", "jts_variant", "unchecked")

    def __init__(
        self,
        triple: TrilinearStructure,
        R: Operator,
        jts_variant: str = VARIANT_JACOBSON,
        unchecked: bool = False,
    ):
        if R.dim != triple.dim:
            raise DimensionMismatchError("operator dimension differs from triple dimension")
        if not unchecked:
            report, triple = prove_jts(triple, jts_variant)
            if triple is None:
                raise ValueError(
                    f"triple fails the {jts_variant} identity at "
                    f"{report.witness.indices}; pass unchecked=True to proceed"
                )
        self._assign(triple, R, jts_variant, unchecked)

    @property
    def notes(self) -> tuple:
        return (BASE_UNVERIFIED_NOTE,) if self.unchecked else ()

    @functools.cached_property
    def triple_r(self) -> tuple:
        """(check_triple_myb(self), the reduced derived triple, or None if the
        report fails), computed on first read."""
        report = check_triple_myb(self)
        return report, derived_triple(self.triple, self.R, MODE_REDUCED) if report.passed else None


class DesignCandidate(FrozenRecord):
    """A Lie bracket plus a candidate triple; design conditions are checked, not assumed."""

    __slots__ = ("bracket", "triple", "jts_variant")

    def __init__(self, bracket: BilinearStructure, triple: TrilinearStructure, jts_variant: str = VARIANT_JACOBSON):
        if bracket.dim != triple.dim:
            raise DimensionMismatchError("bracket and triple dimensions differ")
        self._assign(require_lie(bracket), triple, jts_variant)


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
def check_triple_myb_raw(
    triple: TrilinearStructure, R: Operator, name: str = "triple-myb", notes=()
) -> CheckReport:
    return scan(TRIPLE_MYB, {"triple": triple, "R": R}, name=name, notes=notes)


def check_triple_myb(s: TripleWithOperator) -> CheckReport:
    return check_triple_myb_raw(s.triple, s.R, notes=s.notes)


@states(*DERIVED_TRIPLES.values())
def derived_triple(triple: TrilinearStructure, R: Operator, mode: str = MODE_REDUCED) -> TrilinearStructure:
    """Raw derived-triple tensor in the requested form.

    The two forms agree exactly when the triple mYB identity holds; this
    function enforces nothing (see triple_r for the checked reduced form).
    """
    if mode not in DERIVED_TRIPLES:
        raise ValueError(f"unknown derived-triple mode: {mode!r}")
    return tabulate(DERIVED_TRIPLES[mode], {"triple": triple, "R": R})


def triple_r(s: TripleWithOperator) -> tuple:
    """(check_triple_myb(s), the reduced derived triple, or None if the report fails), as s keeps it."""
    return s.triple_r


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


@states(
    COMMUTE, TRIPLE_MYB, NORMAL_OUTER_PAIR, NORMAL_REDUCED,
    EVEN_TEMPERED_TRIPLE, EVEN_TEMPERED_AS_PRINTED, MIDDLE_RHO,
)
def check_triple_bi_myb(triple: TrilinearStructure, R1: Operator, R2: Operator) -> CheckReport:
    """Core two-operator conditions plus normal / even-tempered classification.

    Core (asserted): R1 and R2 commute, both are triple-mYB, and the two full
    derived triples coincide.  Classification (informational): the normal
    chain, whose reduced form holds for S = R1 and for S = R2 with rho = R1R2,
    the even-tempered chain, the concise middle-rho form of the normal chain
    (the full derived triple of R1 equals <X,rhoY,Z>), and their consistency.
    """
    pair = {"triple": triple, "R1": R1, "R2": R2}
    normal = aggregate_report(
        "normal",
        (
            scan(NORMAL_OUTER_PAIR, pair),
            scan(NORMAL_REDUCED, {**pair, "S": R1}, name="normal-reduced-r1"),
            scan(NORMAL_REDUCED, {**pair, "S": R2}, name="normal-reduced-r2"),
        ),
        informational=True,
    )
    even = aggregate_report(
        "even-tempered",
        (
            scan(EVEN_TEMPERED_TRIPLE, {**pair, "S": R1}, name="even-tempered-r1"),
            scan(EVEN_TEMPERED_TRIPLE, {**pair, "S": R2}, name="even-tempered-r2"),
        ),
        informational=True,
    )
    printed = scan(EVEN_TEMPERED_AS_PRINTED, pair, informational=True)

    derived_full_1 = derived_triple(triple, R1, MODE_FULL)
    middle_rho_form = tensors_equal_report(
        "middle-rho-form", derived_full_1, tabulate(MIDDLE_RHO, pair), informational=True
    )
    consistency = CheckReport(
        name="middle-rho-consistency",
        passed=normal.passed == middle_rho_form.passed,
        informational=True,
    )

    subs = [
        scan(COMMUTE, pair),
        check_triple_myb_raw(triple, R1, "triple-myb-r1"),
        check_triple_myb_raw(triple, R2, "triple-myb-r2"),
        tensors_equal_report(
            "derived-triples-coincide",
            derived_full_1,
            derived_triple(triple, R2, MODE_FULL),
        ),
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
def check_rho_identity(
    triple: TrilinearStructure, rho: Operator, derived: TrilinearStructure | None = None
) -> CheckReport:
    """rho-exchange, plus the transport of a supplied derived triple <.,.,.>_R when given."""
    structures = {"triple": triple, "rho": rho, "triple_R": derived}
    subs = [scan(RHO_EXCHANGE, structures)]
    if derived is not None:
        subs.append(scan(RHO_DERIVED_TRANSPORT, structures))
    return aggregate_report("rho-identity", subs)
