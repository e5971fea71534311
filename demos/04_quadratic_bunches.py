#!/usr/bin/env python3
"""Walk-through: (R, rho) operator pairs and quadratic bunches of brackets.

On skew matrices with a symmetric Q, the pair R X = QX + XQ, rho X = QXQ
satisfies the two quadratic-bracket identities.  The induced family
[.,.]_l = [.,.] + l [.,.]_R + l^2 [.,.]_rho with R_l = 1 + l R + l^2 rho is a
one-parameter family of Lie brackets with R_l a homomorphism into l = 0, and
the correspondence runs both ways: the operators are recovered exactly from
the family coefficients.
"""

from opalg import (
    LieBiOperator,
    RRhoAlgebra,
    bracket_rho,
    build_bunch,
    check_jacobi,
    check_rrho,
    example2_gl,
    example4_so,
    extract_rrho,
    from_bi_myb,
)

print("== so(3) with Q = diag(1,2,3) ==")
e4 = example4_so(3)
a = RRhoAlgebra(e4.bracket, e4.operators["R"], e4.operators["rho"])
report = check_rrho(a)
for sub in report.subchecks:
    tag = " (informational)" if sub.informational else ""
    print(f"  [{'PASS' if sub.passed else 'FAIL'}] {sub.name}{tag}")

quadratic = bracket_rho(a)
print("  quadratic bracket [e1,e2]_rho =", quadratic.value(0, 1))
print("  quadratic bracket obeys Jacobi:", check_jacobi(quadratic).passed)

print()
print("== the induced quadratic family ==")
# extraction checks the gamma-bunch conditions first and returns that report
gamma, back = extract_rrho(build_bunch(a))
print("  all homomorphism degrees and Jacobiator degrees pass:", gamma.passed)
print("  degree dictionary: deg1 = derived-bracket definition, deg2 = quadratic-")
print("  bracket definition, deg3 and deg4 = the two defining identities")
print("  extraction recovers (R, rho) exactly:", back == a)

print()
print("== the pair construction: R = R1 + R2, rho = R1 R2 ==")
e2 = example2_gl(2)
g = LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"])
pair, a2 = from_bi_myb(g)
print("  bi-mYB and even-tempered:", pair.passed)
r2 = check_rrho(a2)
print("  identities pass:", r2.passed, " regular flag:", r2.sub("regular").passed)
print("  R X = QX + XQ:", a2.R == e2.operators["R"], "  rho X = QXQ:", a2.rho == e2.operators["rho"])
