"""Matrix means, Hermitian functional calculus, and inequality verification.

The package bundles dense Hermitian/normal matrix kernels, a catalog of
scalar functions and Kubo-Ando matrix means, one checker per verified
inequality statement, a deterministic instance generator, and a seeded
suite harness with machine-readable reports.
"""

from .core import (
    DEFAULT_TOL,
    ComparisonResult,
    ComplexMatrix,
    DomainViolationError,
    EigenConvergenceError,
    HermitianMatrix,
    NormKind,
    NotNormalError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    ShapeError,
    Spectrum,
    apply_fn,
    det_root,
    eigh,
    eigenvalues_desc,
    loewner_leq,
    matrix_abs,
    norm,
    norm_catalog,
    singular_values,
    spectral_bounds,
)
from .functions import (
    Convexity,
    FunctionPair,
    Interval,
    PairConditionReport,
    ScalarFunction,
    check_pair_conditions,
    chord_coefficients,
    function_by_name,
    function_catalog,
    identity,
    iterate,
    power,
    times_x,
)
from .means import (
    MatrixMean,
    Perspective,
    arithmetic,
    geometric,
    harmonic,
    mean,
    mean_by_name,
    mean_catalog,
    normalize_for_contraction,
    perspective,
    register_mean,
    relative_operator_entropy,
)
from .randgen import (
    GeneratorConfig,
    RandomStream,
    derive_stream_seed,
    random_gap_pair,
    random_normal,
    random_pd,
    random_unitary,
)
from .checks import (
    CheckOutcome,
    Link,
    check_ando_hiai_comparison,
    check_ando_hiai_grid,
    check_chord_bounds,
    check_chord_bounds_grid,
    check_contraction_grid,
    check_contraction_implication,
    check_determinant_grid,
    check_determinant_suite,
    check_eig_prod_norm,
    check_eig_prod_norm_grid,
    check_inverse_function,
    check_inverse_function_grid,
    check_log_example,
    check_main_chain,
    check_main_chain_grid,
    check_mean_difference_norm,
    check_mean_difference_norm_grid,
    check_normal_chain,
    check_normal_chain_grid,
    check_normal_counterexample,
    check_normal_triangle,
    check_transplanted_norm_chain,
    check_power_mean_bounds,
    check_power_mean_grid,
    check_subadditivity_grid,
    check_subadditivity_refinement,
)
from .harness import (
    Report,
    SuiteSpec,
    Summary,
    UsageError,
    emit_report,
    load_matrix_json,
    run_suite,
    save_matrix_json,
    search_counterexample,
)

__version__ = "0.1.0"
