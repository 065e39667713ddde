"""Exact norm machinery on groups of prime exponent.

The pieces fit together as a pipeline: build a norm, validate its axioms,
reduce the standard basis greedily against it, extract a certified
independent family from a null sequence, then study the character duality
the norm topology induces. Every number is an exact rational.
"""

from .errors import (
    CapExceededError,
    ExhaustedError,
    FpmapError,
    InputError,
    InternalDisagreementError,
    InvalidNormError,
    NormBoundFailedError,
)
from .fpcore import (
    GroupElement,
    OrderedBasis,
    Prime,
    Truncation,
    as_prime,
    enumerate_span,
    is_independent,
    rank,
    set_prime_cap,
    solve_in_span,
)
from .norms import (
    AxiomReport,
    CostCompletionNorm,
    CostFunction,
    GraevBooleanNorm,
    Norm,
    PointedMetricSpace,
    TableNorm,
    UltrametricProductNorm,
    graev_norm,
    norm_from_config,
    graded_cost,
    random_cost,
    random_metric_space,
    validate_axioms,
)
from .reduction import (
    LemmaReport,
    ReducedBasis,
    ReductionStep,
    check_member_word_bound,
    check_pair_domination,
    reduce_basis,
    reduced_basis_from_json,
    verify_reduced_properties,
)
from .extraction import (
    BooleanWitnessReport,
    CertificateResult,
    IndependentFamily,
    ModulusReport,
    NullSequence,
    boolean_counterexample,
    convergent_line_space,
    epsilon_delta_certificate,
    extract_independent_family,
    independence_modulus,
    norm_sorted_span,
    reduced_max_position,
    select_null_subsequence,
    threshold,
)
from .duality import (
    Character,
    CoarserReport,
    MapReport,
    TopologySpec,
    continuous_characters,
    is_map,
    product_coarser_check,
    random_topology,
    topology_from_config,
    von_neumann_kernel,
)
from .pipeline import (
    RunConfig,
    RunReport,
    run_from_json_dict,
    run_pipeline,
)

__version__ = "0.1.0"
