"""Exact symbolic construction of quantum orthogonal groups SO_q(N),
their real forms, and the associated quantum orthogonal planes."""

from .errors import (
    QorthoError, DivisionByZero, PoleAtOne, DimMismatch,
    Singular, NotSymmetric, Degenerate, NotReal, NotInvolution,
    BadN, BadFamily, NoPlaneConjugation, Unclassifiable, RankMismatch,
)
from .scalars import GaussRat, Scalar, ConjRegime
from .linalg import (
    SqMat, pack, unpack, kron_embed, row_reduce, inverse, rank, signature,
    antilinear_fixed_basis, bar_mat, classical_mat,
)
from .rmatrix import (
    GroupShape, build_rho, build_metric, build_R, check_ybe,
    build_projectors, check_char_eq, check_r_reality,
)
from .realforms import (
    STAR, CROSS, AutoMatrix, ConjugationSpec, RealFormLabel, CountResult,
    canonical_D, dsecond_canonical, enumerate_autos, auto_from_signs,
    check_auto_conditions, check_reality, plane_conjugation_matrix,
    classify, build_mpp, symplectic_j, check_sostar, check_sostar_basis,
    check_equivalence_witness, count_real_forms,
)
from .qplane import (
    NCPoly, RewriteSystem, plane_relations, normal_form, check_confluence,
    conj_poly, check_star_consistency, quotient_check, rules_json,
)

__version__ = "0.1.0"
