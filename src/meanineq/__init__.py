"""meanineq: bivariate means, operator means, and expectation inequalities.

The library implements means of pairs of positive numbers or positive
definite matrices through their representing functions, and verifies, on
exact finite probability spaces and seeded random ensembles, that the
expectation of a mean stays below the mean of the expectations exactly when
the generating function is concave.
"""

from .axioms import (
    AxiomCheck,
    AxiomReport,
    ConcavityVerdict,
    check_axioms,
    concavity_probe,
)
from .campaign import (
    CampaignConfig,
    CampaignSummary,
    FunctionStats,
    load_campaign_config,
    parse_campaign_config,
    run_campaign,
    sample_matrix_space,
    sample_operator_triple,
    sample_scalar_space,
    search_violation,
    validate_config,
)
from .errors import (
    DomainError,
    MeanIneqError,
    NotPositiveDefiniteError,
    NumericError,
    PreconditionError,
    UsageError,
)
from .functions import (
    CATALOG_IDS,
    RepresentingFunction,
    default_grid,
    function_from_mean,
    get_function,
    mean_num,
    wyd_function,
)
from .linalg import (
    SpectralDecomposition,
    congruence,
    frobenius,
    load_matrix,
    loewner_leq,
    min_eigenvalue,
    save_matrix,
    sqrt_pd,
    sym_eigen,
    sym_matrix,
)
from .operator_means import (
    OperatorMeanSpec,
    TransformerReport,
    check_jensen_sum,
    check_transformer,
    commuting_oracle,
    expectation_state,
    operator_mean,
    operator_mean_spec,
    operator_perspective,
    trace_perspective_check,
)
from .reports import InequalityReport, classify_gap, inequality_report
from .sampling import check_density, sample_density, sample_spd, split_rng
from .verify import (
    FiniteJointSpace,
    construct_counterexample,
    load_space,
    matrix_space,
    scalar_space,
    space_to_jsonable,
    verify_numeric,
    verify_operator,
    verify_random_matrix,
)

__version__ = "0.1.0"
