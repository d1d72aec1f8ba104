"""Comparison-oracle random search on synthetic ridge objectives.

The library implements sign-comparison random search, its confidence-vote
variant, and a two-point value baseline, together with the oracles they
query, the ridge objectives they are benchmarked on, a numerical
certificate suite, and a config-driven sweep harness.
"""

from .algorithms import (
    StepSchedule,
    Trajectory,
    VoteParams,
    constant_schedule,
    ncrs_run,
    ncrs_vote_run,
    rsgf_run,
    rsgf_stable_step,
    theory_schedule,
    vote_params,
)
from .geometry import RngStream, Subspace, gaussian_vector, random_subspace, stream_id_for
from .objectives import (
    InnerFunction,
    NuisanceSpec,
    RidgeObjective,
    initial_point,
    random_ridge_objective,
)
from .oracles import (
    ConfidenceOracle,
    LinkFunction,
    SignOracle,
    local_linearity_constants,
    rho_inverse,
)

__all__ = [
    "ConfidenceOracle",
    "InnerFunction",
    "LinkFunction",
    "NuisanceSpec",
    "RidgeObjective",
    "RngStream",
    "SignOracle",
    "StepSchedule",
    "Subspace",
    "Trajectory",
    "VoteParams",
    "constant_schedule",
    "gaussian_vector",
    "initial_point",
    "local_linearity_constants",
    "ncrs_run",
    "ncrs_vote_run",
    "random_ridge_objective",
    "random_subspace",
    "rho_inverse",
    "rsgf_run",
    "rsgf_stable_step",
    "stream_id_for",
    "theory_schedule",
    "vote_params",
]

__version__ = "0.1.0"
