"""Rectangle covers of Boolean matrices and their Kronecker products."""

from .boolmat import (
    BoolMatrix,
    EntryIndex4,
    boolean_product,
    boolean_sum,
    dominated_by,
    is_rank_one,
    kronecker,
    project_factors,
    read_matrix,
    write_matrix,
)
from .bounds import (
    IsolationResult,
    KronLowerBound,
    MuResult,
    RankCertificate,
    exact_boolean_rank,
    isolation_number,
    kron_lower_bound,
    maximal_rectangles,
    mu,
)
from .cover import (
    Cover,
    MatrixFamily,
    Rectangle,
    SubsetCheckResult,
    VerifyResult,
    best_triple_pairing,
    check_half_covering,
    check_q_covering,
    compose_kron_cover,
    cover_matrix,
    extract_families,
    read_cover,
    read_family,
    verify_cover,
    verify_kron_hypotheses,
    write_cover,
    write_family,
)
from .crown import (
    FamilyBijection,
    SubsetFamily,
    build_g,
    build_h,
    c4_triple,
    c5_triple,
    canonical_family,
    coverable_triple,
    crown_matrix,
    family_cover,
    family_matrix,
    gap_cover,
    gap_families,
    intersection_rectangle,
    is_L_intersection_shifting,
    is_L_preserving,
    sigma,
    triple_cover,
)
from .algebraic import (
    AlgebraicCoverParams,
    AsymptoticCoverResult,
    AsymptoticParams,
    ZpFunctionFamily,
    algebraic_family,
    asymptotic_cover,
    asymptotic_params,
    largest_prime_leq,
)
from .spanoid import (
    MatrixSpanoid,
    ProductSpanoid,
    RuleSpanoid,
    Spanoid,
    check_product_bound,
    spanoid_rank,
)

__version__ = "0.1.0"
