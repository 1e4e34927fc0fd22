"""Relative predictive performance scores and their estimators.

The score of a predictive distribution is the negated expected log density
of future measurements under the true generating process, shifted by a
model-independent reference constant; lower is better, and differences
between two predictives' scores are reference-free.  This module provides
the exact-score oracles (quadrature for plug-in predictives, Monte Carlo
over replicate measurements otherwise), the single-measurement estimators
(delta, hold-out, jackknife, bootstrap), and the information criteria
(log evidence / log odds, AIC, WAIC, DIC), all on the same lower-is-better
orientation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .conjugate import (
    NormalGammaParams,
    PosteriorSample,
    Predictive,
    default_prior,
    log_evidence,
    posterior_update,
)
from .datagen import _HALF_LOG_2PI, LOG_HALF, DataSet, GeneratorSpec, frozen_copy, horner, normal_logpdf, require_count
from .linmodel import (
    ModelSpec,
    PluginGaussian,
    RankDeficient,
    TooFewPoints,
    _least_squares,
    fit_mle,
)

# Overfit folds can drive the MLE noise variance to zero; densities are
# evaluated with the variance floored here and the engagement counted.
SIGMA2_FLOOR = 1e-12


class NotFactorizing(ValueError):
    """The quadrature oracle needs a predictive that factorizes across points."""


class AllResamplesDegenerate(RuntimeError):
    """Every bootstrap resample was unusable (empty out-of-bag or fit failure)."""


class DegeneratePosterior(ValueError):
    """Too few posterior samples to form the criterion."""


class EstimatorKind(str, Enum):
    EXACT = "exact"
    MONTE_CARLO_ENSEMBLE = "monte_carlo_ensemble"
    DELTA = "delta"
    HOLD_OUT = "holdout"
    JACKKNIFE = "jackknife"
    BOOTSTRAP = "bootstrap"


class CriterionKind(str, Enum):
    LOG_EVIDENCE = "log_evidence"
    AIC = "aic"
    WAIC = "waic"
    DIC = "dic"


@dataclass(frozen=True)
class Bootstrap:
    """B resamples with replacement, validated on the out-of-bag points."""

    b_resamples: int
    seed: int = 0


@dataclass(frozen=True)
class ScoreEstimate:
    """An estimate of the relative predictive performance score.

    `value` follows the lower-is-better (negated log density) orientation.
    `std_error` is present only where a spread over sub-estimates exists
    (Monte Carlo ensemble, bootstrap); `n_effective` counts the aggregated
    sub-estimates; `floor_engaged` counts variance-floor engagements during
    density evaluation.
    """

    value: float
    std_error: float | None
    estimator: EstimatorKind
    n_effective: int
    floor_engaged: int = 0

    def __post_init__(self):
        spread_kinds = (EstimatorKind.MONTE_CARLO_ENSEMBLE, EstimatorKind.BOOTSTRAP)
        if self.std_error is not None and self.estimator not in spread_kinds:
            raise ValueError(f"{self.estimator.value} has no spread of sub-estimates")

    def to_json_dict(self) -> dict:
        return {
            "estimator": self.estimator.value,
            "value": self.value,
            "std_error": self.std_error,
            "n_effective": self.n_effective,
            "floor_engaged": self.floor_engaged,
        }


@dataclass(frozen=True)
class Criterion:
    """An information criterion value on the lower-is-better orientation
    (log evidence and log odds keep their classical sign); `n_samples`
    counts the posterior draws behind WAIC and DIC.  Like a delta estimate
    it has no spread; AIC alone can engage the variance floor, which the
    record leaves out and an experiment row counts."""

    kind: CriterionKind
    value: float
    n_samples: int | None = None
    floor_engaged: int = 0

    std_error = None

    def to_json_dict(self) -> dict:
        record = {"criterion": self.kind.value, "value": self.value}
        if self.n_samples is not None:
            record["n_samples"] = self.n_samples
        return record


def _floored_predictive(predictive: Predictive) -> tuple[Predictive, int]:
    if isinstance(predictive, PluginGaussian) and predictive.sigma2 < SIGMA2_FLOOR:
        return replace(predictive, sigma2=SIGMA2_FLOOR), 1
    return predictive, 0


# ---------------------------------------------------------------------------
# The predictive builder: one way to turn a training set into a predictive


class InferenceKind(str, Enum):
    MLE = "mle"
    PRIOR_PREDICTIVE = "prior_predictive"
    POSTERIOR_PREDICTIVE = "posterior_predictive"


@dataclass(frozen=True)
class PredictiveBuilder:
    """Maps a training set to the predictive of one inference kind.

    MLE refits and scores with the plug-in Gaussian; the prior predictive
    ignores the training set (a delta estimate through it is exactly the
    negated log evidence); the posterior predictive conditions the default
    conjugate prior on the training set.  `min_train_size` is the smallest
    usable training set; `score_folds` scores many splits in one call.
    """

    inference: InferenceKind
    spec: ModelSpec
    prior: NormalGammaParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "inference", InferenceKind(self.inference))
        object.__setattr__(self, "prior", default_prior(self.spec))

    @property
    def min_train_size(self) -> int:
        return self.spec.min_fit_size if self.inference == InferenceKind.MLE else 0

    def __call__(self, train: DataSet) -> Predictive:
        if self.inference == InferenceKind.MLE:
            return fit_mle(self.spec, train)
        if self.inference == InferenceKind.POSTERIOR_PREDICTIVE:
            return posterior_update(self.prior, train)
        return self.prior  # the prior predictive ignores the training set

    def score_folds(self, data: DataSet, train, valid, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The fold kernel: fold r trains on the points `train[r]` of an (R, m)
        index array (a repeated index counts its point again) and scores the
        points that the (R, n) boolean mask `valid[r]` selects; the (R, n)
        `counts[r]` counts each point's copies in `train[r]`.  Returns per fold
        the log density of those points, whether the MLE variance floor
        engaged, and whether the fold is usable: at least `min_train_size`
        distinct training points and, for the MLE, a full-rank fit (the other
        entries of an unusable fold mean nothing).  The MLE refits all folds
        in one stacked least-squares solve, the one `fit_mle` runs; the Bayes
        kinds score V by its log evidence under the one prior, V as weights: the
        prior predictive directly, log p(V) = log Z(V), and the posterior
        predictive through the chain rule log p(V | W) = log Z(W + V) - log Z(W),
        the training counts W also as weights.
        """
        r = len(valid)
        usable = (counts > 0).sum(axis=1) >= self.min_train_size
        if self.inference != InferenceKind.MLE:
            chain = self.inference == InferenceKind.POSTERIOR_PREDICTIVE
            weights = (np.concatenate([counts + valid, counts]) if chain else valid).astype(float)
            y1, y2 = (np.broadcast_to(y, weights.shape) for y in (data.y1, data.y2))
            evidence = self.prior.log_density_batch(y1, y2, weights)
            log_density = evidence[:r] - evidence[r:] if chain else evidence
            return log_density, np.zeros(r, dtype=bool), usable
        coeffs, sigma2, rank = _least_squares(self.spec.design_matrix(data.y1)[train], data.y2[train])
        usable &= rank == self.spec.n_coeffs
        floored = usable & (sigma2 < SIGMA2_FLOOR)
        sigma2 = np.maximum(sigma2, SIGMA2_FLOOR)  # unusable folds may interpolate
        mean = horner(data.y1, coeffs.T[:, :, None])  # (R, n)
        log_density = np.sum(np.where(valid, normal_logpdf(data.y2, mean, sigma2[:, None]), 0.0), axis=1)
        log_density += valid.sum(axis=1) * LOG_HALF
        return log_density, floored, usable


# ---------------------------------------------------------------------------
# Exact-score oracles

# Measurements per block of the Monte Carlo oracle: the kernel's Cholesky
# makes one pass per block, and a block's draw stays cache-sized.
_MC_BLOCK = 4096


def exact_score_mc(
    spec_true: GeneratorSpec,
    predictive: Predictive,
    n_datasets: int,
    n_points: int,
    seed: int,
) -> ScoreEstimate:
    """Monte Carlo exact-score oracle over replicate measurements.

    Draws `n_datasets` fresh measurements of `n_points` from the true
    process and averages the negated joint log density of the (fixed)
    predictive; the standard error is the sample SD over replicates divided
    by sqrt(n_datasets).  The measurements, bit for bit those of one draw,
    are drawn and scored in blocks of `_MC_BLOCK`, so the working set stays
    cache-sized whatever n_datasets is.  Each block is drawn into the
    `draw_blocks` buffers that the next block overwrites:
    `predictive.log_density_batch` must return fresh densities and keep
    none of its arguments.  It runs on the caller's thread while the
    process's one normals worker draws the noise of the next two blocks.
    """
    require_count("n_datasets", n_datasets, minimum=2)
    require_count("n_points", n_points)
    predictive, floored = _floored_predictive(predictive)
    scores = np.empty(n_datasets)
    start = 0
    for y1, y2 in spec_true.draw_blocks(np.random.default_rng(seed), n_datasets, n_points, _MC_BLOCK):
        np.negative(predictive.log_density_batch(y1, y2), out=scores[start : start + len(y1)])
        start += len(y1)
    value = float(np.mean(scores))
    scores -= value  # np.std(scores, ddof=1) bit for bit, its deviations formed in place
    std_error = math.sqrt(float(np.square(scores, out=scores).sum()) / (n_datasets - 1)) / math.sqrt(n_datasets)
    return ScoreEstimate(
        value=value,
        std_error=std_error,
        estimator=EstimatorKind.MONTE_CARLO_ENSEMBLE,
        n_effective=int(n_datasets),
        floor_engaged=floored,
    )


@functools.lru_cache(maxsize=64)
def _gauss_legendre(spec_true: GeneratorSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 64 read-only Gauss-Legendre nodes and weights and the truth's
    read-only mean at the nodes, computed once per truth."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    nodes = frozen_copy("nodes", nodes)
    truth = spec_true.mean_at(nodes)
    truth.flags.writeable = False
    return nodes, frozen_copy("weights", weights), truth


def exact_score_quadrature(spec_true: GeneratorSpec, predictive: PluginGaussian, n_points: int) -> ScoreEstimate:
    """Exact score of a plug-in Gaussian predictive by Gauss-Legendre
    quadrature over the uniform y1 marginal.

    Per point the conditional cross entropy at y1 is
    log(2 pi s^2)/2 + (sigma^2 + (f_true(y1) - m_fit(y1))^2) / (2 s^2),
    integrated against the uniform density 1/2 on [-1, 1], plus log 2 for
    the uniform y1 factor; the joint score is n_points times the per-point
    value (the predictive factorizes).
    """
    if not isinstance(predictive, PluginGaussian):
        raise NotFactorizing("quadrature oracle applies to plug-in predictives only; use exact_score_mc")
    require_count("n_points", n_points)
    predictive, floored = _floored_predictive(predictive)
    nodes, weights, truth = _gauss_legendre(spec_true)
    gap = truth - predictive.mean_at(nodes)
    cross_entropy = 0.5 * np.log(2.0 * math.pi * predictive.sigma2) + (spec_true.sigma**2 + gap**2) / (
        2.0 * predictive.sigma2
    )
    per_point = float(np.sum(weights * 0.5 * cross_entropy)) + math.log(2.0)
    return ScoreEstimate(
        value=n_points * per_point,
        std_error=None,
        estimator=EstimatorKind.EXACT,
        n_effective=1,
        floor_engaged=floored,
    )


# ---------------------------------------------------------------------------
# Single-measurement estimators


def delta_estimator(predictive: Predictive, data: DataSet) -> ScoreEstimate:
    """Score the measurement itself under the predictive (delta
    approximation of the true process).

    The caller is responsible for `data` being the measurement the
    predictive was built from; for a prior predictive the value is exactly
    the negated log evidence.  The measurement is scored as one dataset
    through `log_density_batch`, the call the Monte Carlo oracle makes.
    """
    predictive, floored = _floored_predictive(predictive)
    return ScoreEstimate(
        value=-float(predictive.log_density_batch(data.y1[None], data.y2[None])[0]),
        std_error=None,
        estimator=EstimatorKind.DELTA,
        n_effective=1,
        floor_engaged=floored,
    )


@functools.lru_cache(maxsize=256)
def _fold_plan(n: int, k_folds: int, n_valid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The read-only plan of k_folds folds over N positions, fold r scoring
    the r-th of k_folds blocks of n_valid positions that end the measurement
    and training once on each other position, in order: the (R, N) scored
    mask, the (R, m) training positions, the (R, N) training counts and
    N / |V|.  Built once per (N, k_folds, n_valid), all it depends on."""
    valid = (np.arange(n) - (n - k_folds * n_valid)) // n_valid == np.arange(k_folds)[:, None]
    train = np.nonzero(~valid)[1].reshape(k_folds, -1)  # each fold's complement, in order
    counts = (~valid).astype(int)
    valid.flags.writeable = train.flags.writeable = counts.flags.writeable = False
    return valid, train, counts, n / (k_folds * n_valid)


def _cross_validate(
    build: PredictiveBuilder, data: DataSet, plan: tuple, seed: int, estimator: EstimatorKind
) -> ScoreEstimate:
    """Cross-validation over the folds of a `_fold_plan` on the measurement
    shuffled once by `seed`.  The value is the negated sum of the held-out
    log densities rescaled by N / |V| to the measurement size; every fold
    must be usable."""
    valid, train, counts, rescale = plan
    (r, m), n = train.shape, len(data)
    if m < build.min_train_size:
        raise TooFewPoints(f"training sets of {m} points below model minimum {build.min_train_size}")
    shuffled = data.subset(np.random.default_rng(seed).permutation(n))
    log_density, floored, usable = build.score_folds(shuffled, train, valid, counts)
    if not usable.all():
        raise RankDeficient(f"fold {np.argmin(usable)} of {r} trains on a rank-deficient design matrix")
    return ScoreEstimate(
        value=-rescale * float(np.sum(log_density)),
        std_error=None,
        estimator=estimator,
        n_effective=r,
        floor_engaged=int(np.count_nonzero(floored)),
    )


def holdout_estimator(
    build: PredictiveBuilder, data: DataSet, n_train: int, n_valid: int, seed: int = 0
) -> ScoreEstimate:
    """Cross-validation with one fold: fit on a seeded training partition
    of n_train points, score the n_valid held-out points, and rescale by
    N / n_valid to the full measurement size."""
    n = len(data)
    if n_train + n_valid != n:
        raise ValueError(f"n_train + n_valid must equal {n}")
    if n_train < 1 or n_valid < 1:
        raise ValueError("both partitions need at least one point")
    # the head of the shuffled measurement trains, its tail validates
    return _cross_validate(build, data, _fold_plan(n, 1, n_valid), seed, EstimatorKind.HOLD_OUT)


def jackknife_estimator(build: PredictiveBuilder, data: DataSet, k_folds: int, seed: int = 0) -> ScoreEstimate:
    """Cross-validation with k_folds disjoint folds that cover every point
    once, so the held-out log densities are summed with no rescaling.

    Folds are contiguous blocks after one seeded shuffle.
    """
    n = len(data)
    if k_folds < 1 or n % k_folds != 0:
        raise ValueError(f"k_folds must divide the measurement size {n}")
    return _cross_validate(build, data, _fold_plan(n, k_folds, n // k_folds), seed, EstimatorKind.JACKKNIFE)


def bootstrap_estimator(build: PredictiveBuilder, data: DataSet, scheme: Bootstrap) -> ScoreEstimate:
    """Average hold-out-style scores over resamples drawn with replacement.

    Each resample trains on N draws with replacement and validates on the
    out-of-bag points with the N / n_oob rescaling.  Resamples with an empty
    out-of-bag set, too little distinct training support, or a singular fit
    are skipped; if none survive, AllResamplesDegenerate is raised.
    """
    b = scheme.b_resamples
    if b < 1:
        raise ValueError("b_resamples must be >= 1")
    n = len(data)
    draws = np.random.default_rng(scheme.seed).integers(0, n, size=(b, n))
    counts = np.bincount((draws + n * np.arange(b)[:, None]).ravel(), minlength=b * n).reshape(b, n)
    oob = counts == 0
    log_density, floored, usable = build.score_folds(data, draws, oob, counts)
    n_oob = oob.sum(axis=1)
    keep = usable & (n_oob > 0)
    if not keep.any():
        raise AllResamplesDegenerate(f"no usable resample among {b}")
    values = -(n / n_oob[keep]) * log_density[keep]
    std_error = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else None
    return ScoreEstimate(
        value=float(np.mean(values)),
        std_error=std_error,
        estimator=EstimatorKind.BOOTSTRAP,
        n_effective=int(values.size),
        floor_engaged=int(np.count_nonzero(floored[keep])),
    )


# ---------------------------------------------------------------------------
# Information criteria


def aic(fit: PluginGaussian, data: DataSet) -> Criterion:
    """Akaike criterion on the negated log likelihood scale: the plug-in
    delta value, variance floor included, plus the parameter count
    (coefficients plus one variance)."""
    k_params = fit.coeffs.size + 1
    delta = delta_estimator(fit, data)
    return Criterion(kind=CriterionKind.AIC, value=delta.value + k_params, floor_engaged=delta.floor_engaged)


def _pointwise_loglik(samples: PosteriorSample, data: DataSet) -> np.ndarray:
    """Point-major (N, S) matrix of log pi(y_n | x_s): row n holds point n
    under every posterior draw, so reductions over the draws run along the
    contiguous axis; the conditional likelihood carries the uniform y1
    factor.  The Gaussian is taken in its precision form, in place on the
    matrix of means.  The degree is the draws' width less one."""
    tau = samples.precision
    loglik = ModelSpec(samples.coeffs.shape[1] - 1).design_matrix(data.y1) @ samples.coeffs.T
    np.subtract(data.y2[:, None], loglik, out=loglik)
    loglik *= loglik
    loglik *= -0.5 * tau
    loglik += 0.5 * np.log(tau) + (LOG_HALF - _HALF_LOG_2PI)
    return loglik


def _log_mean_exp(loglik: np.ndarray) -> np.ndarray:
    """log mean exp of each row of a 2-D array, as top + log mean exp(row -
    top) with `top` the row's largest entry, so neither an underflow to a
    zero sum nor an overflow reaches the logarithm."""
    top = loglik.max(axis=1, keepdims=True)
    return top[:, 0] + np.log(np.mean(np.exp(loglik - top), axis=1))


def waic(posterior_samples: PosteriorSample, data: DataSet) -> Criterion:
    """Widely applicable information criterion from posterior samples,
    flipped to the lower-is-better orientation.

    value = -(sum_n log mean_s pi(y_n|x_s) - sum_n var_s log pi(y_n|x_s)),
    with the sample variance on the 1/(S-1) normalization.
    """
    if len(posterior_samples) < 2:
        raise DegeneratePosterior("WAIC needs at least 2 posterior samples")
    loglik = _pointwise_loglik(posterior_samples, data)
    lppd = float(np.sum(_log_mean_exp(loglik)))
    penalty = float(np.sum(np.var(loglik, axis=1, ddof=1)))
    return Criterion(kind=CriterionKind.WAIC, value=-(lppd - penalty), n_samples=loglik.shape[1])


def dic(posterior_samples: PosteriorSample, point_estimate: PosteriorSample, data: DataSet) -> Criterion:
    """Deviance information criterion at a point estimate (conventionally the
    posterior mean), flipped to the lower-is-better orientation.

    value = -(sum_n log pi(y_n|x_hat)
              - 2 sum_n (log pi(y_n|x_hat) - mean_s log pi(y_n|x_s))),
    with `point_estimate` a batch of one draw.
    """
    if len(posterior_samples) < 2:
        raise DegeneratePosterior("DIC needs at least 2 posterior samples")
    if len(point_estimate) != 1:
        raise ValueError(f"the point estimate must be one draw, got {len(point_estimate)}")
    loglik = _pointwise_loglik(posterior_samples, data)
    at_hat = _pointwise_loglik(point_estimate, data)[:, 0]
    penalty = 2.0 * float(np.sum(at_hat - np.mean(loglik, axis=1)))
    value = -(float(np.sum(at_hat)) - penalty)
    return Criterion(kind=CriterionKind.DIC, value=value, n_samples=len(posterior_samples))


def evidence_criterion(prior: NormalGammaParams, data: DataSet) -> Criterion:
    """Log marginal likelihood as a criterion (classical sign: higher is
    better; its negation is the prior-predictive delta estimate)."""
    return Criterion(kind=CriterionKind.LOG_EVIDENCE, value=log_evidence(prior, data))
