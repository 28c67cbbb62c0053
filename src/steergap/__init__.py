"""Numerics for the gap between tensor and commuting models of steering.

The package certifies, at desk scale, that bipartite strategies built on
commuting left/right shifts over the free product of s order-2 generators
reach a perfectly correlated value of 1 on the average equal-input
correlator, while every tensor-separated strategy is capped at
2*sqrt(s-1)/s < 1 for s >= 3 — and that iterating the associated random
measurement channel destroys purity at the matching geometric rate.
"""

__version__ = "0.1.0"

from .errors import BufferExhaustedError, CapacityError, ConvergenceError
from .freegroup import (
    GroupParams,
    InvalidGeneratorError,
    Word,
    IDENTITY,
    count_words,
    enumerate_words,
    word_from_str,
    word_to_str,
)
from .hilbert import (
    TruncatedBasis,
    build_basis,
    generator_average,
    left_regular,
    right_regular,
)
from .spectral import (
    MomentRecord,
    NormEstimate,
    analytic_norm,
    closed_walk_moment,
    estimate_norm,
    extremal_eigenpair,
    first_letter_bound_chain,
    matvec_walk_count,
    norm_sweep,
    tightness_vector,
)
from .steering import (
    ProbabilityTable,
    StrategyResult,
    TensorStrategy,
    commuting_strategy_result,
    conjugation_identity_check,
    probability_table_commuting,
    probability_table_tensor,
    seesaw_tensor_optimize,
    steering_functional,
    tensor_bound,
)
from .heatvision import (
    ChannelRun,
    iterate_channel,
    purity_bound,
    superoperator_norm,
)
from .report import CriterionResult, ReportSettings, run_report
