#!/usr/bin/env python3
"""Walk-through: Jordan triple systems with operators.

The matrix triple <X,Y,Z> = XYZ + ZYX satisfies the classical jacobson
identity.  With R = right multiplication by Q it is a triple mYB system, the
derived triple comes out as XQYQZ + ZQYQX, and the two-sided pair
(right, left) is a normal, even-tempered system whose middle operator is
rho X = QXQ.
"""

from opalg import (
    TripleWithOperator,
    check_design,
    check_jts_identity,
    check_rho_identity,
    check_triple_bi_myb,
    check_triple_r_homomorphism,
    derived_triple,
    example3_gl,
    triple_r,
)
from opalg.core import prove_jts
from opalg.jordan import MODE_FULL

e3 = example3_gl(2)
t = e3.triple

print("== base triple <X,Y,Z> = XYZ + ZYX on gl(2) ==")
# prove_jts returns the report and the triple carrying it, so the records
# built on the proven triple below scan the identity no more
jacobson, t = prove_jts(t, "jacobson")
print("  jacobson identity:", jacobson.passed)
alt = check_jts_identity(t, "alternate")
print("  alternate identity:", alt.passed, "- first failing tuple", alt.witness.indices)

print()
print("== triple mYB system with R = right multiplication by Q = diag(1,2) ==")
s = TripleWithOperator(t, e3.operators["R1"])
# the reduced form presupposes triple mYB, so triple_r returns that report
# too; the record keeps the pair, and later reads of it scan nothing
myb, derived = triple_r(s)
print("  triple mYB identity:", myb.passed)
print("  full and reduced derived triples agree:", derived == derived_triple(s.triple, s.R, MODE_FULL))
print("  derived <E11,E11,E11> =", derived.value(0, 0, 0), " (XQYQZ + ZQYQX at E11 is 2*E11)")
print("  R transports the derived triple onto R-images:", check_triple_r_homomorphism(s)[1].passed)

print()
print("== two-operator triple system (right, left) ==")
report = check_triple_bi_myb(t, e3.operators["R1"], e3.operators["R2"])
for name in ("operators-commute", "derived-triples-coincide", "normal", "even-tempered"):
    print(f"  {name}: {report.sub(name).passed}")
print("  as-printed first expression (informational):", report.sub("even-tempered-as-printed").passed)

print()
print("== rho X = QXQ ==")
rho_report = check_rho_identity(t, e3.operators["rho"], derived=derived)
print("  <rhoX,Y,rhoZ> = rho<X,rhoY,Z>:", rho_report.sub("rho-exchange").passed)
print("  rho-transport against the derived triple:", rho_report.sub("rho-derived-transport").passed)

print()
print("== the derived structures form a design again ==")
from opalg import DesignCandidate, LieWithOperator

g = LieWithOperator(e3.bracket, e3.operators["R1"])
design = check_design(DesignCandidate(g.bracket_R, derived))
print("  design on (derived bracket, derived triple):", design.passed)
