"""Bayesian small world: Normal-Gamma conjugate polynomial regression.

The joint prior on (coefficients c, noise precision tau) is

    tau ~ Gamma(alpha, rate=beta),   c | tau ~ Normal(mu, (tau * lam)^-1),

closed under updating with Gaussian likelihoods on the monomial basis.  The
rate convention for beta makes the update additive in the residual sum of
squares; the update equations are verified against a brute-force integration
oracle in the test suite.  Marginal likelihoods come from the ratio of
Normal-Gamma normalizing constants, and joint predictive densities over
multi-point blocks are computed through that same evidence form (no
multivariate Student-t assembly), with the single-point Student-t shape
exercised only by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .datagen import LOG_HALF, DataSet, frozen_copy, horner, require_count, scratch
from .linmodel import ModelSpec, PluginGaussian

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NormalGammaParams:
    """Prior or posterior hyperparameters over (coefficients, precision) and
    the predictive they weight; the validating Cholesky factor of lam is the
    read-only lower triangle `chol`, and `logdet_lam` is log det(lam)."""

    mu: np.ndarray
    lam: np.ndarray
    alpha: float
    beta: float
    chol: np.ndarray = field(init=False, repr=False, compare=False)
    logdet_lam: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu, lam = frozen_copy("mu", self.mu), frozen_copy("lam", self.lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)
        p = mu.shape[0]
        if mu.ndim != 1 or lam.shape != (p, p):
            raise ValueError("mu must be a p-vector and lam a p x p matrix")
        if not np.abs(lam - lam.T).max() <= 1e-10 * max(1.0, float(np.abs(lam).max())):
            raise ValueError("lam must be symmetric")
        try:
            chol = frozen_copy("chol", np.linalg.cholesky(lam))
        except np.linalg.LinAlgError as exc:
            raise ValueError("lam must be positive definite") from exc
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "logdet_lam", 2.0 * float(np.log(chol.diagonal()).sum()))
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and > 0")

    @property
    def p(self) -> int:
        return int(self.mu.shape[0])

    def log_density_batch(self, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
        """Joint log density per replicate for (R, n) arrays of points of the
        small-world average weighted by this distribution: its evidence.  At
        a posterior's parameters this is the posterior predictive, at a
        prior's the prior predictive."""
        return _evidence_batch(self, y1, y2)


@dataclass(frozen=True)
class PosteriorSample:
    """S draws (coefficients, precision) from a Normal-Gamma distribution:
    read-only (S, p) `coeffs` and (S,) `precision`, row s being draw s."""

    coeffs: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        coeffs, precision = frozen_copy("coeffs", self.coeffs), frozen_copy("precision", self.precision)
        if coeffs.ndim != 2 or precision.shape != coeffs.shape[:1]:
            raise ValueError("expected (S, p) coeffs and (S,) precision")
        if not np.all(precision > 0):
            raise ValueError("every precision must be > 0")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "precision", precision)

    def __len__(self) -> int:
        return int(self.precision.size)


def default_prior(spec: ModelSpec) -> NormalGammaParams:
    """The loosely informative conjugate prior used throughout: mu = 0,
    lam = 0.001 * I, alpha = beta = 0.5."""
    p = spec.n_coeffs
    return NormalGammaParams(mu=np.zeros(p), lam=0.001 * np.eye(p), alpha=0.5, beta=0.5)


# Datasets per block of each pass over the data: numpy's per-call cost is
# spread over many rows while a block's powers (1.4 MB at degree 4 and 12
# points) stay in cache.
_BLOCK = 1024


def _kernel(
    params: NormalGammaParams, y1: np.ndarray, y2: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The conjugate update of `params` by each of R datasets of n points,
    given as (R, n) arrays; returns the stacked (power sums, log det lam',
    mu', beta').

    lam' = lam + Phi^T W Phi, mu' = lam'^-1 (lam mu + Phi^T W t),
    alpha' = alpha + sum(W)/2 (left to callers), and beta' grows by half the
    fitted weighted residual sum of squares plus a prior-shrinkage term, a
    rearrangement of (t^T W t + mu^T lam mu - mu'^T lam' mu')/2 that is
    positive by construction.  W holds the optional (R, n) per-point
    `weights` (point multiplicities; None means one each).

    On the monomial basis Phi^T W Phi is a Hankel matrix: entry (j, k) is
    the power sum S[j + k] = sum(w y1^(j+k)), so the (2p - 1, R) power sums
    describe it whole.  The powers w y1^m come from running products, the
    right-hand sides sum(w t y1^k) reuse the first p of them, and one matvec
    per block of `_BLOCK` datasets sums them all.  The p x p algebra runs
    with the stack on the last axis: a column-by-column Cholesky of lam'
    carries the right-hand side as an extra row, which so becomes L^-1 rhs;
    back substitution gives mu', and the diagonal gives log det lam'.  A
    second pass over the blocks sums the weighted squared residuals, the fit
    evaluated by Horner's rule.  A pivot that is not positive (or is NaN)
    raises LinAlgError.

    The buffers, power sums and Cholesky factors live in `scratch` arrays
    that the next call overwrites, so every returned array is a fresh one.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.ndim != 2 or y1.shape != y2.shape or (weights is not None and np.shape(weights) != y1.shape):
        raise ValueError("expected matching (R, n) arrays")
    p, (r, n) = params.p, y1.shape
    n_pow = 2 * p - 1
    ones = np.ones(n)
    buf = scratch("kernel.buf", ((n_pow + p) * min(r, _BLOCK) * n,))
    sums = scratch("kernel.sums", (n_pow + p, r))  # the power sums, then the right-hand sides
    for start in range(0, r, _BLOCK):
        blk = slice(start, start + _BLOCK)
        x = y1[blk]
        powers = buf[: (n_pow + p) * x.size].reshape(n_pow + p, *x.shape)
        powers[0] = 1.0 if weights is None else weights[blk]
        for m in range(1, n_pow):
            np.multiply(powers[m - 1], x, out=powers[m])
        np.multiply(powers[:p], y2[blk], out=powers[n_pow:])
        sums[:, blk] = (powers.reshape(-1, n) @ ones).reshape(n_pow + p, -1)

    chol = scratch("kernel.chol", (p + 1, p, r))  # L[i, j] at i >= j; row p ends as L^-1 rhs
    np.add((params.lam @ params.mu)[:, None], sums[n_pow:], out=chol[p])
    for j in range(p):
        col = chol[j:, j]
        np.add(params.lam[j:, j, None], sums[2 * j : j + p], out=col[:-1])
        if j:
            col -= np.einsum("ikr,kr->ir", chol[j:, :j], chol[j, :j])
        pivot = col[0]
        if not pivot.min() > 0:
            raise np.linalg.LinAlgError("the updated precision is not positive definite")
        np.sqrt(pivot, out=pivot)
        col[1:] /= pivot
    diag = chol[:p].diagonal(axis1=0, axis2=1).T
    logdet_n = 2.0 * np.log(diag).sum(axis=0)
    mu_n = chol[p].copy()
    mu_n[p - 1] /= diag[p - 1]
    for i in range(p - 1, 0, -1):  # L^T mu' = L^-1 rhs, from the last row up
        mu_n[:i] -= chol[i, :i] * mu_n[i]
        mu_n[i - 1] /= diag[i - 1]

    rss = np.empty(r)
    for start in range(0, r, _BLOCK):
        blk = slice(start, start + _BLOCK)
        x = y1[blk]
        resid = horner(x, mu_n[:, blk, None], out=buf[: x.size].reshape(x.shape))
        np.subtract(y2[blk], resid, out=resid)
        np.square(resid, out=resid)
        if weights is not None:
            resid *= weights[blk]
        rss[blk] = resid @ ones
    # the factors are spent: rows p and 0 of chol hold mu' - mu and lam (mu' - mu)
    shift = np.subtract(mu_n, params.mu[:, None], out=chol[p])
    lam_shift = np.matmul(params.lam, shift, out=chol[0])
    beta_n = params.beta + 0.5 * rss + 0.5 * np.einsum("jr,jr->r", lam_shift, shift)
    return sums[:n_pow].copy(), logdet_n, mu_n.T, beta_n


def posterior_update(prior: NormalGammaParams, data: DataSet) -> NormalGammaParams:
    """Closed-form conjugate update (see `_kernel`): lam' is lam plus the
    Hankel matrix of the power sums, so exactly as symmetric as lam."""
    sums, _, mu_n, beta_n = _kernel(prior, data.y1[None], data.y2[None])
    j = np.arange(prior.p)
    lam_n = prior.lam + sums[j[:, None] + j, 0]
    return NormalGammaParams(mu=mu_n[0], lam=lam_n, alpha=prior.alpha + 0.5 * len(data), beta=float(beta_n[0]))


def _evidence_batch(
    params: NormalGammaParams, y1: np.ndarray, y2: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Log evidence of each of R datasets of n points, given as (R, n)
    arrays: the ratio of Normal-Gamma normalizing constants before and after
    the conjugate update, through the stacked `_kernel`, plus n log(1/2) for
    the uniform y1 factors; with `weights`, of row r's points repeated
    weights[r] times."""
    _, logdet_n, _, beta_n = _kernel(params, y1, y2, weights)
    n = np.shape(y1)[1] if weights is None else np.sum(weights, axis=1)
    alpha_n = params.alpha + 0.5 * n
    # alpha_n is a float, or (R,) with weights
    lgamma_n = np.array([math.lgamma(a) for a in np.atleast_1d(alpha_n).tolist()])
    return (
        -0.5 * n * _LOG_2PI
        + 0.5 * (params.logdet_lam - logdet_n)
        + params.alpha * math.log(params.beta)
        - alpha_n * np.log(beta_n)
        + (lgamma_n - math.lgamma(params.alpha))
        + n * LOG_HALF
    )


def log_evidence(prior: NormalGammaParams, data: DataSet) -> float:
    """Log marginal likelihood of `data`: log of the likelihood integrated
    against the Normal-Gamma distribution `prior`, on (y1, y2)^n.

    The batch evidence at R = 1, so it includes n log(1/2) for the uniform
    y1 factors.  Under a posterior this is the joint posterior predictive
    density: log_evidence(posterior_update(prior, train), new) equals
    log_evidence(prior, train + new) - log_evidence(prior, train) by the
    probability chain rule (asserted in tests).
    """
    return float(_evidence_batch(prior, data.y1[None], data.y2[None])[0])


def sample_posterior(posterior: NormalGammaParams, count: int, seed: int) -> PosteriorSample:
    """Draw `count` (coefficients, precision) pairs as one batch,
    deterministically per seed.

    tau ~ Gamma(alpha, rate=beta); coeffs | tau ~ Normal(mu, (tau lam)^-1).
    """
    require_count("count", count)
    rng = np.random.default_rng(seed)
    tau = rng.gamma(shape=posterior.alpha, scale=1.0 / posterior.beta, size=count)
    z = rng.standard_normal(size=(count, posterior.p))
    # x = L^-T z has covariance lam^-1
    x = np.linalg.solve(posterior.chol.T, z.T).T
    coeffs = posterior.mu + x / np.sqrt(tau)[:, None]
    return PosteriorSample(coeffs=coeffs, precision=tau)


def posterior_mean(params: NormalGammaParams) -> PosteriorSample:
    """The point estimate (mu, alpha/beta), the posterior means of (c, tau), as one draw."""
    return PosteriorSample(coeffs=params.mu[None], precision=np.array([params.alpha / params.beta]))


# ---------------------------------------------------------------------------
# Predictive distributions

# A Normal-Gamma distribution is its own predictive.  perfbench/tracer.py
# still traces the methods under these two older names.
PriorPredictive = PosteriorPredictive = NormalGammaParams

Predictive = Union[PluginGaussian, NormalGammaParams]
