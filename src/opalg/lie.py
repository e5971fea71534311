"""Lie algebras with one or two operators: mYB identity and derived structures.

The mYB identity is R[RX,Y] + R[X,RY] = [RX,RY] + R^2[X,Y]; it coincides with
the modified classical Yang-Baxter equation when R^2 = 1.  Constructors here
validate only dimensions and Lie-ness of the base bracket (AlgebraRecord),
never any operator condition, so failing candidates can always be checked
and reported.
"""

from __future__ import annotations

import functools

from .core import (
    COMMUTE,
    AlgebraRecord,
    BilinearStructure,
    CheckReport,
    Operator,
    aggregate_report,
    op_polynomial,
    tensors_equal_report,
)
from .formula import Formula, scan, scan_each_s, states, tabulate
from .scalars import scalar

MYB = Formula("myb", "X Y", "R[RX,Y] + R[X,RY] = [RX,RY] + R^2[X,Y]")
DERIVED_BRACKET = Formula("derived-bracket", "X Y", "[RX,Y] + [X,RY] - R[X,Y]")
# checked once with S = R1 and once with S = R2
EVEN_TEMPERED = Formula(
    "even-tempered", "X Y", "[R1X,R2Y] + [R2X,R1Y] - R1R2[X,Y] = [S^2X,Y] + [X,S^2Y] - S^2[X,Y]"
)
XI_DERIVATION = Formula("xi-derivation", "X Y", "xi[X,Y] = [xiX,Y] + [X,xiY]")
XI_PAIR = Formula("xi-pair-identity", "X Y", "[xiX,xiY] = [RxiX,Y] + [X,RxiY] - Rxi[X,Y]")
XI_DERIVATION_DERIVED = Formula(
    "xi-derivation-derived-bracket", "X Y", "xi[X,Y]_R = [xiX,Y]_R + [X,xiY]_R"
)
EVEN_TEMPERED_XI = Formula(
    "even-tempered-xi", "X Y", "[RX,xiY] + [xiX,RY] - Rxi[X,Y] = [R^2X,Y] - 2[RX,RY] + [X,R^2Y]"
)


def derived_bracket_of(operator: str) -> functools.cached_property:
    """The derived bracket of a record's bracket by its field named operator, tabulated on first read."""
    return functools.cached_property(lambda record: derived_bracket(record.bracket, getattr(record, operator)))


class LieWithOperator(AlgebraRecord):
    """A Lie bracket together with one operator acting on it."""

    __slots__ = ("bracket", "R")
    bracket_R = derived_bracket_of("R")


class LieBiOperator(AlgebraRecord):
    """A Lie bracket with two operators; their conditions are checked, not assumed."""

    __slots__ = ("bracket", "R1", "R2")
    bracket_R1 = derived_bracket_of("R1")
    bracket_R2 = derived_bracket_of("R2")


# ---------------------------------------------------------------------------
# single-operator checks

@states(MYB)
def check_myb_raw(bracket: BilinearStructure, R: Operator, name: str = "myb") -> CheckReport:
    """mYB identity scan on a raw (bracket, operator) pair."""
    return scan(MYB, {"bracket": bracket, "R": R}, name=name)


def check_myb(g: LieWithOperator) -> CheckReport:
    return check_myb_raw(g.bracket, g.R)


@states(DERIVED_BRACKET)
def derived_bracket(bracket: BilinearStructure, R: Operator) -> BilinearStructure:
    """Structure tensor of [X,Y]_R.

    Makes no Lie-ness claim; callers check the result.
    """
    return tabulate(DERIVED_BRACKET, {"bracket": bracket, "R": R})


def check_polynomial_closure(g: LieWithOperator, coeffs) -> tuple:
    """(check_myb(g), the mYB check for (g, f(R)), or None if the report fails)."""
    base = check_myb(g)
    if not base.passed:
        return base, None
    inner = check_myb_raw(g.bracket, op_polynomial(coeffs, g.R))
    return base, aggregate_report("polynomial-closure", (inner,))


# ---------------------------------------------------------------------------
# two-operator checks


@states(COMMUTE, MYB)
def check_bi_myb(g: LieBiOperator) -> CheckReport:
    """Commuting operators, both mYB, with identical derived brackets."""
    subs = [
        scan(COMMUTE, {"R1": g.R1, "R2": g.R2}),
        check_myb_raw(g.bracket, g.R1, "myb-r1"),
        check_myb_raw(g.bracket, g.R2, "myb-r2"),
        tensors_equal_report("derived-brackets-coincide", g.bracket_R1, g.bracket_R2),
    ]
    return aggregate_report("bi-myb", subs)


@states(EVEN_TEMPERED)
def check_even_tempered(g: LieBiOperator) -> CheckReport:
    """Both mixed second-order identities of an even-tempered pair."""
    pair = {"bracket": g.bracket, "R1": g.R1, "R2": g.R2}
    return aggregate_report("even-tempered", scan_each_s(EVEN_TEMPERED, pair, "even-tempered"))


@states(XI_DERIVATION, COMMUTE, XI_PAIR, XI_DERIVATION_DERIVED)
def check_xi_characterization(g: LieWithOperator, xi: Operator) -> CheckReport:
    """Derivation xi commuting with R with [xiX,xiY] = [SX,Y]+[X,SY]-S[X,Y], S = R xi.

    Also verifies that (bracket, R, R+xi) is bi-mYB and that xi is a
    derivation of the derived bracket, which that pair tabulates once.
    """
    pair = LieBiOperator(g.bracket, g.R, g.R + xi)
    structures = {"bracket": g.bracket, "R": g.R, "xi": xi, "bracket_R": pair.bracket_R1}
    subs = [
        scan(XI_DERIVATION, structures),
        scan(COMMUTE, {"R1": g.R, "R2": xi}, name="xi-commutes-with-r"),
        scan(XI_PAIR, structures),
        check_bi_myb(pair),
        scan(XI_DERIVATION_DERIVED, structures),
    ]
    return aggregate_report("xi-characterization", subs)


@states(EVEN_TEMPERED_XI)
def check_even_tempered_xi(g: LieWithOperator, xi: Operator) -> CheckReport:
    return scan(EVEN_TEMPERED_XI, {"bracket": g.bracket, "R": g.R, "xi": xi})


def probe_r0(g: LieBiOperator) -> tuple:
    """(check_bi_myb(g), the midpoint probe, or None if the bi-mYB report fails).

    The probe of R0 = (R1+R2)/2 asserts that the derived bracket of R0
    coincides with the common derived bracket, and reports whether
    (bracket, R0) satisfies mYB informationally.
    """
    bi_myb = check_bi_myb(g)
    if not bi_myb.passed:
        return bi_myb, None
    r0 = (g.R1 + g.R2).scale(scalar(1, 2))
    coincide = tensors_equal_report("midpoint-bracket-coincidence", derived_bracket(g.bracket, r0), g.bracket_R1)
    myb = check_myb_raw(g.bracket, r0, "midpoint-myb")
    return bi_myb, aggregate_report("midpoint-probe", (coincide, myb.replace(informational=True)))


def convert_params(R1: Operator, R2: Operator) -> tuple:
    """(R1, R2) -> (R, xi) with R = R1 and xi = R2 - R1."""
    return R1, R2 - R1


def convert_params_inverse(R: Operator, xi: Operator) -> tuple:
    """(R, xi) -> (R1, R2) with R1 = R and R2 = R + xi."""
    return R, R + xi
