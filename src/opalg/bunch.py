"""Lie algebras with an (R, rho) operator pair and quadratic bunches of brackets.

An (R, rho) pair defines the quadratic bracket
  [X,Y]_rho = [rhoX,Y] + [X,rhoY] - rho[X,Y] + [RX,RY] - R[X,Y]_R
and must satisfy
  (1) rho[X,Y]_rho = [rhoX, rhoY]
  (2) R[X,Y]_rho + rho[X,Y]_R = [RX,rhoY] + [rhoX,RY].
Regularity adds R[X,Y]_R = 2([rhoX,Y] + [X,rhoY]).

These identities are exactly the degree-3 and degree-4 coefficients of the
homomorphism condition R_l [X,Y]_l = [R_l X, R_l Y] for the quadratic family
R_l = 1 + l R + l^2 rho, [.,.]_l = [.,.] + l [.,.]_R + l^2 [.,.]_rho, which is
how the two-way correspondence with quadratic bunches is checked here.
"""

from __future__ import annotations

import functools

from .core import (
    AlgebraRecord,
    BilinearStructure,
    CheckReport,
    Operator,
    PreconditionError,
    aggregate_report,
    check_antisymmetry,
    vec_iadd,
)
from .formula import Formula, scan, states, tabulate
from .lie import LieBiOperator, check_bi_myb, check_even_tempered, derived_bracket_of

QUADRATIC_BRACKET = Formula("quadratic-bracket", "X Y", "[rhoX,Y] + [X,rhoY] - rho[X,Y] + [RX,RY] - R[X,Y]_R")
RHO_HOMOMORPHISM = Formula("rho-bracket-homomorphism", "X Y", "rho[X,Y]_rho = [rhoX,rhoY]")
MIXED_COMPATIBILITY = Formula(
    "mixed-bracket-compatibility", "X Y", "R[X,Y]_rho + rho[X,Y]_R = [RX,rhoY] + [rhoX,RY]"
)
REGULAR = Formula("regular", "X Y", "R[X,Y]_R = 2([rhoX,Y] + [X,rhoY])")


def _degree_pairs(d: int) -> list:
    return [(p, d - p) for p in range(3) if 0 <= d - p <= 2]


# Coefficient of l^d in R_l [X,Y]_l = [R_l X, R_l Y] and in the Jacobiator of [.,.]_l;
# the degree-0 Jacobiator is b0's own, which its Lie proof holds.
HOMOMORPHISM_DEGREES = tuple(
    Formula(
        f"homomorphism-deg{d}",
        "X Y",
        " + ".join(f"r{p}[X,Y]_b{q}" for p, q in _degree_pairs(d))
        + " = "
        + " + ".join(f"[r{p}X,r{q}Y]_b0" for p, q in _degree_pairs(d)),
    )
    for d in range(5)
)
JACOBI_DEGREES = tuple(
    Formula(
        f"jacobi-deg{d}",
        "X Y Z",
        " + ".join(
            f"[[X,Y]_b{p},Z]_b{q} + [[Y,Z]_b{p},X]_b{q} + [[Z,X]_b{p},Y]_b{q}" for p, q in _degree_pairs(d)
        )
        + " = 0",
    )
    for d in range(1, 5)
)


class RRhoAlgebra(AlgebraRecord):
    """Lie bracket with an (R, rho) operator pair; the pair identities are checked predicates."""

    __slots__ = ("bracket", "R", "rho")
    bracket_R = derived_bracket_of("R")

    @functools.cached_property
    @states(QUADRATIC_BRACKET)
    def bracket_rho(self) -> BilinearStructure:
        """The quadratic bracket [X,Y]_rho, tabulated on first read."""
        fields = {"bracket": self.bracket, "R": self.R, "rho": self.rho}
        return tabulate(QUADRATIC_BRACKET, {**fields, "bracket_R": self.bracket_R})


class QuadraticBunch(AlgebraRecord):
    """Coefficients of [.,.]_l = b0 + l b1 + l^2 b2 and R_l = r0 + l r1 + l^2 r2."""

    __slots__ = ("b0", "b1", "b2", "r0", "r1", "r2")

    @property
    def dim(self) -> int:
        return self.b0.dim

    def brackets(self):
        return (self.b0, self.b1, self.b2)

    def operators(self):
        return (self.r0, self.r1, self.r2)

    def bracket_at(self, lam) -> BilinearStructure:
        """[.,.]_l at a concrete parameter value."""
        from .scalars import as_scalar

        lam = as_scalar(lam)
        entries: dict = {}
        for b, coeff in zip(self.brackets(), (1, lam, lam * lam)):
            for (i, j) in b.support():
                acc = entries.setdefault((i, j), {})
                vec_iadd(acc, b.value(i, j), coeff)
        return BilinearStructure(self.dim, entries)


@states(RHO_HOMOMORPHISM, MIXED_COMPATIBILITY, REGULAR)
def check_rrho(a: RRhoAlgebra) -> CheckReport:
    """Both defining identities, plus the regularity identity as an informational flag."""
    structures = {
        "bracket": a.bracket, "R": a.R, "rho": a.rho, "bracket_R": a.bracket_R, "bracket_rho": a.bracket_rho,
    }
    subs = (
        scan(RHO_HOMOMORPHISM, structures),
        scan(MIXED_COMPATIBILITY, structures),
        scan(REGULAR, structures, informational=True),
    )
    return aggregate_report("rrho", subs)


def from_bi_myb(g: LieBiOperator) -> tuple:
    """(g's bi-mYB and even-tempered reports, aggregated, and (R, rho) = (R1 + R2, R1 R2) or None)."""
    report = aggregate_report("even-tempered-pair", (check_bi_myb(g), check_even_tempered(g)))
    return report, RRhoAlgebra(g.bracket, g.R1 + g.R2, g.R1 @ g.R2) if report.passed else None


def build_bunch(a: RRhoAlgebra) -> QuadraticBunch:
    """Quadratic bunch with b1, b2 the derived and quadratic brackets of (R, rho)."""
    return QuadraticBunch(
        b0=a.bracket,
        b1=a.bracket_R,
        b2=a.bracket_rho,
        r0=Operator.identity(a.bracket.dim),
        r1=a.R,
        r2=a.rho,
    )


@states(*HOMOMORPHISM_DEGREES, *JACOBI_DEGREES)
def check_gamma_bunch(q: QuadraticBunch) -> CheckReport:
    """Homomorphism and Jacobi conditions of the family, coefficient-wise in l.

    Homomorphism degree d: sum_{p+q=d} r_p b_q(X,Y) = sum_{p+q=d} [r_p X, r_q Y],
    for d = 0..4.  Degree 1 is the derived-bracket definition, degree 2 the
    quadratic-bracket definition, degrees 3 and 4 the two (R, rho) identities.
    The Jacobiator of [.,.]_l is also checked per degree, plus antisymmetry of
    the coefficient brackets.
    """
    structures = {
        **{f"bracket_b{d}": b for d, b in enumerate(q.brackets())},
        **{f"r{d}": r for d, r in enumerate(q.operators())},
    }
    # b0 is a LieBracket, whose proof holds the scans of its antisymmetry and of
    # its Jacobiator, which is the degree-0 one
    subs = [q.b0.lie.sub("antisymmetry").replace(name="antisymmetry-deg0")]
    subs += [check_antisymmetry(b).replace(name=f"antisymmetry-deg{d}") for d, b in ((1, q.b1), (2, q.b2))]
    subs += [scan(f, structures) for f in HOMOMORPHISM_DEGREES]
    subs += [q.b0.lie.sub("jacobi").replace(name="jacobi-deg0")]
    subs += [scan(f, structures) for f in JACOBI_DEGREES]
    return aggregate_report("gamma-bunch", subs)


def extract_rrho(q: QuadraticBunch) -> tuple:
    """Inverse direction: (check_gamma_bunch(q), RRhoAlgebra(b0, r1, r2), or
    None if the gamma-bunch report fails).

    Requires r0 = identity.  With r0 = 1 the homomorphism-deg1 residual is
    b1 - [.,.]_R for R = r1, and given that, the homomorphism-deg2 residual is
    b2 - [.,.]_rho for (r1, r2); so a passing report already shows that b1
    and b2 are the derived and quadratic brackets of the extracted pair.
    """
    if not q.r0.is_identity():
        raise PreconditionError("bunch extraction requires r0 = identity")
    gamma = check_gamma_bunch(q)
    return gamma, RRhoAlgebra(q.b0, q.r1, q.r2) if gamma.passed else None
