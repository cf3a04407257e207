"""Operator norm localization on finite metric spaces.

A numerical laboratory for the interplay between positive localization
certificates (subset, vector and kernel forms) and the degree to which
operator norms of banded operators are captured by their restrictions to
balls.  See the README for the command line interface and file formats.
"""

from .certificates import (
    KernelCertificate,
    SubsetCertificate,
    VectorCertificate,
    ball_certificate,
    certificate_from_json,
    certificate_to_json,
    kernel_checks,
    kernel_deviation,
    schur_test_kappa,
    subset_to_vector,
    tree_ray_certificate,
)
from .duality import (
    CbNormReport,
    EquivalenceReport,
    OnlBound,
    a_implies_onl_bound,
    equivalence_experiment,
    kernel_from_cp_map,
    phi_apply,
    sampled_cb_norm_check,
)
from .errors import (
    ConvergenceFailure,
    DataError,
    DegenerateWitness,
    DisconnectedGraph,
    EmptySubset,
    FormatError,
    InvalidParams,
    InvalidRadii,
    NormlocError,
    NotATree,
    RadiusMismatch,
    UnknownPoint,
    VerificationError,
    ZeroOperator,
)
from .localization import (
    BlockCompression,
    ColumnWitness,
    LocalizationReport,
    OnlProfile,
    PowerWitness,
    ReductionResult,
    best_localized_vector,
    compress,
    localization_report,
    onl_profile,
    power_trick_witness,
    support_diameter,
    vector_amplification_reduction,
    vector_point_support,
)
from .operators import (
    BandedOperator,
    adjacency,
    operator_norm,
    propagation,
    random_banded,
    top_singular_pair,
    top_singular_values,
)
from .space import (
    BallIndex,
    FiniteMetricSpace,
    GeometryProfile,
    ball,
    ball_index,
    from_graph,
    generate_family,
    geometry_profile,
    load_space,
    space_from_json,
    space_to_json,
    validate_metric,
)

__version__ = "0.1.0"
