"""Numerics for the gap between tensor and commuting models of steering.

The package certifies, at desk scale, that bipartite strategies built on
commuting left/right shifts over the free product of s order-2 generators
reach a perfectly correlated value of 1 on the average equal-input
correlator, while every tensor-separated strategy is capped at
2*sqrt(s-1)/s < 1 for s >= 3 — and that iterating the associated random
measurement channel destroys purity at the matching geometric rate.

Submodules load on first use: ``import steergap`` reads only this file, and
a name such as ``steergap.estimate_norm`` imports its home module the first
time it is looked up (PEP 562), so a command pays only for the layers it
runs.
"""

import importlib

__version__ = "0.1.0"

#: Public names by the submodule that defines them.
_EXPORTS = {
    "errors": ("BufferExhaustedError", "CapacityError", "ConvergenceError"),
    "freegroup": (
        "GroupParams",
        "InvalidGeneratorError",
        "Word",
        "IDENTITY",
        "analytic_norm",
        "count_words",
        "enumerate_words",
        "word_from_str",
        "word_to_str",
    ),
    "hilbert": (
        "TruncatedBasis",
        "build_basis",
        "generator_average",
        "left_regular",
        "right_regular",
    ),
    "spectral": (
        "MomentRecord",
        "NormEstimate",
        "closed_walk_moment",
        "estimate_norm",
        "extremal_eigenpair",
        "first_letter_bound_chain",
        "matvec_walk_count",
        "norm_sweep",
        "tightness_vector",
    ),
    "steering": (
        "ProbabilityTable",
        "StrategyResult",
        "commuting_strategy_result",
        "conjugation_identity_check",
        "probability_table_commuting",
        "probability_table_tensor",
        "seesaw_tensor_optimize",
        "steering_functional",
    ),
    "heatvision": (
        "ChannelRun",
        "iterate_channel",
        "purity_bound",
        "superoperator_norm",
    ),
    "report": ("CriterionResult", "ReportSettings", "run_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
