"""Latent Gaussian trajectories for continuous-time interaction networks.

Fits per-node piecewise-linear trajectories of isotropic Gaussians to a
timestamped interaction history by variational inference on a Poisson-process
likelihood, and evaluates reconstruction quality and positional uncertainty.
"""

from .events import (
    CountTensor,
    EdgeSplit,
    EventList,
    EventParseError,
    IntervalPartition,
    interval_counts,
    pair_codes,
    pair_rows,
    parse_events,
    split_edges,
)
from .model import (
    DOT,
    EUCLIDEAN,
    LatentConfiguration,
    RateModel,
    SamplingPlan,
    cumulative_rate_closed,
    log_rate,
    position_at,
    total_nll,
)
from .prior import PriorConfig, kl_monte_carlo, kl_to_prior, prior_log_density, sample_prior
from .inference import (
    Adam,
    FitDivergedError,
    FittedModel,
    Hyperparams,
    VariationalState,
    elbo_loss,
    empirical_beta,
    fit,
    init_state,
    load_model,
    loss_gradient,
    mean_frame_displacement,
    save_model,
)
from .simulate import SbmSample, SbmSpec, sbm_generate
from .evaluation import (
    LsdmModel,
    LsdmOpts,
    auc,
    auc_from_scores,
    build_instances,
    fit_lsdm,
    fit_lsdm_intervals,
    lsdm_score,
    neighbor_distance,
    node_uncertainty,
    rate_vs_uncertainty_table,
    restrict_counts,
    score_instances,
    uncertainty_regression,
)

__version__ = "0.1.0"
