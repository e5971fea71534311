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

from .core import (
    BilinearStructure,
    CheckReport,
    DimensionMismatchError,
    FrozenRecord,
    Operator,
    PreconditionError,
    aggregate_report,
    check_antisymmetry,
    require_lie,
    vec_iadd,
)
from .formula import Formula, scan, states, tabulate
from .lie import LieBiOperator, _require_dim, check_bi_myb, check_even_tempered, derived_bracket

QUADRATIC_BRACKET = Formula("quadratic-bracket", "X Y", "[rhoX,Y] + [X,rhoY] - rho[X,Y] + [RX,RY] - R[X,Y]_R")
RHO_HOMOMORPHISM = Formula("rho-bracket-homomorphism", "X Y", "rho[X,Y]_rho = [rhoX,rhoY]")
MIXED_COMPATIBILITY = Formula(
    "mixed-bracket-compatibility", "X Y", "R[X,Y]_rho + rho[X,Y]_R = [RX,rhoY] + [rhoX,RY]"
)
REGULAR = Formula("regular", "X Y", "R[X,Y]_R = 2([rhoX,Y] + [X,rhoY])")


def _degree_pairs(d: int) -> list:
    return [(p, d - p) for p in range(3) if 0 <= d - p <= 2]


# Coefficient of l^d in R_l [X,Y]_l = [R_l X, R_l Y] and in the Jacobiator of [.,.]_l.
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
    for d in range(5)
)


class RRhoAlgebra(FrozenRecord):
    """Lie bracket with an (R, rho) operator pair; the pair identities are checked predicates."""

    __slots__ = ("bracket", "R", "rho")

    def __init__(self, bracket: BilinearStructure, R: Operator, rho: Operator):
        bracket = require_lie(bracket)
        _require_dim(bracket, R, rho)
        self._assign(bracket, R, rho)


class QuadraticBunch(FrozenRecord):
    """Coefficients of [.,.]_l = b0 + l b1 + l^2 b2 and R_l = r0 + l r1 + l^2 r2."""

    __slots__ = ("b0", "b1", "b2", "r0", "r1", "r2")

    def __init__(
        self,
        b0: BilinearStructure,
        b1: BilinearStructure,
        b2: BilinearStructure,
        r0: Operator,
        r1: Operator,
        r2: Operator,
    ):
        b0 = require_lie(b0)
        if len({b0.dim, b1.dim, b2.dim, r0.dim, r1.dim, r2.dim}) != 1:
            raise DimensionMismatchError("bunch coefficients have mixed dimensions")
        self._assign(b0, b1, b2, r0, r1, r2)

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


def _structures(a: RRhoAlgebra) -> dict:
    return {"bracket": a.bracket, "R": a.R, "rho": a.rho, "bracket_R": derived_bracket(a.bracket, a.R)}


@states(QUADRATIC_BRACKET)
def bracket_rho(a: RRhoAlgebra) -> BilinearStructure:
    """Structure tensor of the quadratic bracket [X,Y]_rho."""
    return tabulate(QUADRATIC_BRACKET, _structures(a))


@states(RHO_HOMOMORPHISM, MIXED_COMPATIBILITY, REGULAR)
def check_rrho(a: RRhoAlgebra) -> CheckReport:
    """Both defining identities, plus the regularity identity as an informational flag."""
    structures = _structures(a)
    structures["bracket_rho"] = tabulate(QUADRATIC_BRACKET, structures)
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
    structures = _structures(a)
    return QuadraticBunch(
        b0=a.bracket,
        b1=structures["bracket_R"],
        b2=tabulate(QUADRATIC_BRACKET, structures),
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
    subs = [check_antisymmetry(b).replace(name=f"antisymmetry-deg{d}") for d, b in enumerate(q.brackets())]
    subs += [scan(f, structures) for f in HOMOMORPHISM_DEGREES]
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
