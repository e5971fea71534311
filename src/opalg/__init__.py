"""opalg: exact-arithmetic verification workbench for Lie algebras and
Jordan triple systems with operators.

All scalars are exact rationals; identity checks are exhaustive over basis
tuples and report deterministic lexicographically-smallest failure witnesses.
"""

__version__ = "0.1.0"

from .core import (
    BilinearStructure,
    CheckReport,
    DimensionGuardError,
    DimensionMismatchError,
    Operator,
    PreconditionError,
    TrilinearStructure,
    VARIANT_ALTERNATE,
    VARIANT_JACOBSON,
    Witness,
    WorkbenchError,
    apply_bilinear,
    apply_trilinear,
    check_antisymmetry,
    check_jacobi,
    check_jts_identity,
    check_lie,
    forced,
    op_polynomial,
    prove_jts,
)
from .lie import (
    LieBiOperator,
    LieWithOperator,
    check_bi_myb,
    check_even_tempered,
    check_even_tempered_xi,
    check_myb,
    check_myb_raw,
    check_polynomial_closure,
    check_xi_characterization,
    convert_params,
    convert_params_inverse,
    derived_bracket,
    probe_r0,
)
from .jordan import (
    DesignCandidate,
    MODE_FULL,
    MODE_REDUCED,
    TripleWithOperator,
    check_design,
    check_equivariance,
    check_rho_identity,
    check_triple_bi_myb,
    check_triple_myb,
    check_triple_r_homomorphism,
    derived_triple,
)
from .bunch import (
    QuadraticBunch,
    RRhoAlgebra,
    build_bunch,
    check_gamma_bunch,
    check_rrho,
    extract_rrho,
    from_bi_myb,
)
from .catalog import (
    CatalogEntry,
    build_entry,
    example1_candidates,
    example2_gl,
    example3_gl,
    example4_so,
    gl_assoc,
    mult_operators,
    so_n,
)
from .scalars import Scalar, as_scalar, parse_scalar, render_scalar, scalar
