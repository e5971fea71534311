#!/usr/bin/env python3
"""Walk-through: commuting operator pairs on the matrix algebra.

Right and left multiplication by the same Q commute, both satisfy the mYB
identity, and both derive the same bracket XQY - YQX.  The pair is also
even-tempered, which is what later feeds the (R, rho) construction.  The
(R, xi) change of parameters and the midpoint-operator probe close the tour.
"""

from opalg import (
    LieBiOperator,
    LieWithOperator,
    check_bi_myb,
    check_even_tempered,
    check_even_tempered_xi,
    check_xi_characterization,
    convert_params,
    derived_bracket,
    example2_gl,
    probe_r0,
    render_scalar,
)

e2 = example2_gl(2)
g = LieBiOperator(e2.bracket, e2.operators["R1"], e2.operators["R2"])

print("== bi-mYB conditions for (X -> XQ, X -> QX), Q = diag(1,2) ==")
report = check_bi_myb(g)
for sub in report.subchecks:
    print(f"  [{'PASS' if sub.passed else 'FAIL'}] {sub.name}")
print("  derived bracket on (E12, E21):", derived_bracket(e2.bracket, g.R1).value(1, 2))

print()
print("== even-tempered identities ==")
print("  pair form:", check_even_tempered(g).passed)

# Same content in (R, xi) coordinates, xi = R2 - R1 = (X -> QX - XQ).
R, xi = convert_params(g.R1, g.R2)
single = LieWithOperator(e2.bracket, R)
print("  xi form:  ", check_even_tempered_xi(single, xi).passed)

print()
print("== xi is a derivation tying the pair together ==")
xi_report = check_xi_characterization(single, xi)
for sub in xi_report.subchecks:
    print(f"  [{'PASS' if sub.passed else 'FAIL'}] {sub.name}")

print()
print("== midpoint operator R0 = (R1 + R2)/2 ==")
bi_myb, probe = probe_r0(g)  # checks bi-mYB first and returns that report too
coincide = probe.sub("midpoint-bracket-coincidence")
print("  precondition bi-mYB:", bi_myb.passed)
myb = probe.sub("midpoint-myb")
print("  bracket coincidence:", coincide.passed)
print("  R0 satisfies mYB itself:", myb.passed, "(informational; fails for this Q)")
if myb.witness:
    residual = [render_scalar(s) for s in myb.witness.residual]
    print("  witness:", myb.witness.indices, "residual", residual)
