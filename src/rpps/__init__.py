"""Relative predictive performance scores for polynomial-regression small
worlds: exact KL-based scores, single-measurement estimators, information
criteria, and desk-scale estimator-error experiments."""

from .conjugate import (
    NormalGammaParams,
    PosteriorSample,
    Predictive,
    default_prior,
    log_evidence,
    posterior_mean,
    posterior_update,
    sample_posterior,
)
from .datagen import (
    DataSet,
    GeneratorSpec,
    OutsideSupport,
    read_dataset_csv,
    sample_dataset,
    true_log_density,
    write_dataset_csv,
)
from .harness import (
    EstimatorRequest,
    ExperimentConfig,
    ExperimentResult,
    InferenceKind,
    OracleConfig,
    emit_outputs,
    run_estimator,
    run_experiment,
)
from .linmodel import (
    ModelSpec,
    PluginGaussian,
    RankDeficient,
    TooFewPoints,
    fit_mle,
    plugin_log_predictive,
)
from .scores import (
    AllResamplesDegenerate,
    Bootstrap,
    Criterion,
    CriterionKind,
    DegeneratePosterior,
    EstimatorKind,
    NotFactorizing,
    PredictiveBuilder,
    ScoreEstimate,
    SIGMA2_FLOOR,
    aic,
    bootstrap_estimator,
    delta_estimator,
    dic,
    evidence_criterion,
    exact_score_mc,
    exact_score_quadrature,
    holdout_estimator,
    jackknife_estimator,
    waic,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
