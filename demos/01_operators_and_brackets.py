#!/usr/bin/env python3
"""Walk-through: Lie algebras with one operator.

Builds so(3) and gl(2) from the catalog, checks the mYB identity
R[RX,Y] + R[X,RY] = [RX,RY] + R^2[X,Y] for several operators, and shows how
the derived bracket [X,Y]_R = [RX,Y] + [X,RY] - R[X,Y] is again a Lie
bracket whenever the identity holds.
"""

from opalg import (
    LieWithOperator,
    Operator,
    bracket_r,
    check_antisymmetry,
    check_jacobi,
    check_myb,
    check_polynomial_closure,
    example2_gl,
    render_scalar,
    so_n,
)


def show(report, label):
    mark = "PASS" if report.passed else "FAIL"
    extra = ""
    if not report.passed:
        residual = [render_scalar(s) for s in report.witness.residual]
        extra = f"  witness={report.witness.indices} residual={residual}"
    print(f"  [{mark}] {label}{extra}")


print("== so(3) with the cross-product bracket ==")
so3 = so_n(3)
print("   [e1,e2] =", so3.bracket.value(0, 1), " (cyclic)")

# A scalar operator always satisfies the identity: both sides are 2c^2 [X,Y].
scalar_op = Operator.identity(3).scale(3)
show(check_myb(LieWithOperator(so3.bracket, scalar_op)), "mYB for R = 3*identity")

# The coordinate projection onto e1 fails, and the checker pins the smallest
# failing basis pair: at (e2, e3) the left side vanishes but R^2[e2,e3] = e1.
projection = Operator.diagonal([1, 0, 0])
show(check_myb(LieWithOperator(so3.bracket, projection)), "mYB for R = diag(1,0,0)")

print()
print("== gl(2) with right multiplication by Q = diag(1,2) ==")
e2 = example2_gl(2)
g = LieWithOperator(e2.bracket, e2.operators["R1"])
show(check_myb(g), "mYB for X -> XQ")

derived = bracket_r(g)
print("   derived bracket on (E12, E21):", derived.value(1, 2), " i.e. 2E11 - E22")
show(check_antisymmetry(derived), "derived bracket antisymmetry")
show(check_jacobi(derived), "derived bracket Jacobi")

# Polynomial images f(R) inherit the identity; here f(x) = 1 + 2x + x^3.
# The check first runs its precondition, mYB for R (shown above), and
# returns that report with its own.
_, closure = check_polynomial_closure(g, [1, 2, 0, 1])
show(closure, "mYB for f(R), f = 1 + 2x + x^3")
