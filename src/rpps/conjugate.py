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
        if mu.ndim != 1 or not mu.size or lam.shape != (mu.size, mu.size):
            raise ValueError(f"mu must be a p-vector, p >= 1, and lam a p x p matrix, got {mu.shape} and {lam.shape}")
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

    def log_density_batch(self, y1: np.ndarray, y2: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Joint log density per replicate for (R, n) arrays of points of the
        small-world average weighted by this distribution: its evidence, the
        ratio of Normal-Gamma normalizing constants before and after the
        conjugate update, through the stacked `_kernel`, plus n log(1/2) for
        the uniform y1 factors; with `weights`, of row r's points repeated
        weights[r] times.  At a posterior's parameters this is the posterior
        predictive, at a prior's the prior predictive."""
        _, logdet_n, _, beta_n = _kernel(self, y1, y2, weights)
        n = np.shape(y1)[1] if weights is None else np.sum(weights, axis=1)
        alpha_n = self.alpha + 0.5 * n
        # alpha_n is a float, or (R,) with weights
        lgamma_n = np.array([math.lgamma(a) for a in np.atleast_1d(alpha_n).tolist()])
        return (
            -0.5 * n * _LOG_2PI
            + 0.5 * (self.logdet_lam - logdet_n)
            + self.alpha * math.log(self.beta)
            - alpha_n * np.log(beta_n)
            + (lgamma_n - math.lgamma(self.alpha))
            + n * LOG_HALF
        )


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
# spread over many rows while a block's stack (0.6 MB at degree 4 and 12
# points, its weights row included) stays in cache.
_BLOCK = 1024
_TRUST = 32.0  # see `_kernel`: how far the sums form of beta' is trusted


def _kernel(
    params: NormalGammaParams, y1: np.ndarray, y2: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The conjugate update of `params` by R datasets of n points, (R, n)
    arrays: the stacked (power sums, a `scratch` array the next call
    overwrites, log det lam', mu', beta').  lam' = lam + Phi^T W Phi,
    mu' = lam'^-1 (lam mu + Phi^T W t), W the optional (R, n) `weights`.

    Per block of `_BLOCK` datasets it copies x^1 .. x^(p-1), x = y1, t and
    the weights, if any, points-major into one stack of (n, b) rows, and
    takes each sum of products as a running sum over the points in order,
    vectorized across the block's datasets: sum x^m = x^a . x^(m-a) with
    a = min(m, p - 1) (Phi^T Phi is their Hankel matrix), sum t x^k =
    x^k . t, and t^T t, each with the row's weights as one more factor when
    there are weights (the fold evidences); sum x^0 is n, or sum w.  The
    stack is at least two datasets wide, so a one-row block is a strided
    view, which numpy also sums in order (a contiguous row it would sum in
    SIMD order): a row's sums are the same bits alone as anywhere in a
    call.  At p = 1 the copy would cost more than it saves, so t stays as
    it lies and each sum is a row's own `einsum`.  A column Cholesky of lam',
    stack last, carries the right-hand side as row p, which ends as L^-1 rhs
    (a pivot that is not positive raises LinAlgError).  beta' = beta +
    (T - |L^-1 rhs|^2)/2, T = t^T W t + mu^T lam mu, errs by some ulps of
    T + sum_j mu'_j^2 lam'_jj, which cancellation and large alternating
    coefficients raise.  Where that exceeds `_TRUST` times 2 beta', or
    beta' <= beta, a row takes the residual pass instead, positive by design:
    beta + (its own sum w (t - Phi mu')^2 + (mu' - mu)^T lam (mu' - mu))/2,
    one loop over `_BLOCK` of those rows at a time, in the spent stack.
    """
    y1, y2 = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
    if y1.ndim != 2 or y1.shape != y2.shape or (weights is not None and np.shape(weights) != y1.shape):
        raise ValueError("expected matching (R, n) arrays")
    p, (r, n) = params.p, y1.shape
    n_pow, ij = 2 * p - 1, "ij" if p == 1 else "ji"  # p > 1: every block stacked points-major
    w = "" if weights is None else "," + ij  # weights: one more factor of every sum
    width = max(2, min(r, _BLOCK))  # so a one-row block is a strided view, summed in order as well
    buf = scratch("kernel.buf", ((p + 1) * width * n,))
    sums = scratch("kernel.sums", (n_pow + p + 1, r))  # power sums, right-hand sides, t^T W t
    sums[0] = n if weights is None else np.einsum("ij->i", weights)
    for start in range(0, r, _BLOCK):
        blk, x, t = slice(start, start + _BLOCK), y1[start : start + _BLOCK], y2[start : start + _BLOCK]
        ws = () if weights is None else (weights[blk],)
        stack = t[None]  # t alone, as it lies, at p = 1
        if p > 1:  # x^1 .. x^(p-1), t, then the weights, each (n, b)
            stack = buf.reshape(p + 1, n, width)[:, :, : len(x)]
            stack[0], stack[p - 1] = x.T, t.T
            for k in range(1, p - 1):
                np.multiply(stack[k - 1], stack[0], out=stack[k])
            if ws:
                stack[p], ws = ws[0].T, (stack[p],)
            stack, t = stack[:p], stack[p - 1]
        np.einsum("k" + ij + w + "->ki", stack, *ws, out=sums[1 : p + 1, blk])  # sum x^k, then sum t in row p
        np.einsum("k" + ij + "," + ij + w + "->ki", stack, t, *ws, out=sums[n_pow + 1 :, blk])  # sum t x^k, t^T t
        if p > 1:  # sum t to its row, and sum x^m = x^(p-1) . x^(m-p+1) from m = p
            sums[n_pow, blk] = sums[p, blk]
            np.einsum("kji,ji" + w + "->ki", stack[:-1], stack[-2], *ws, out=sums[p:n_pow, blk])

    chol = scratch("kernel.chol", (p + 1, p, r))  # L[i, j] at i >= j; row p ends as L^-1 rhs
    np.add((params.lam @ params.mu)[:, None], sums[n_pow:-1], out=chol[p])
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
    for i in range(p - 1, -1, -1):  # L^T mu' = L^-1 rhs, from the last row up
        mu_n[i] /= diag[i]
        mu_n[:i] -= chol[i, :i] * mu_n[i]

    total = sums[-1] + float(params.mu @ params.lam @ params.mu)
    gain = total - np.einsum("jr,jr->r", chol[p], chol[p])
    beta_n = params.beta + 0.5 * gain
    lam_diag = np.add(params.lam.diagonal()[:, None], sums[0:n_pow:2], out=chol[0])  # chol is spent
    size = np.einsum("jr,jr,jr->r", mu_n, mu_n, lam_diag) + total  # gain errs by some ulps of it
    trusted = (gain > 0) & (size <= _TRUST * 2.0 * beta_n)
    if not trusted.all():  # rows p and 0 of the spent chol then hold mu' - mu and lam (mu' - mu)
        shift = np.subtract(mu_n, params.mu[:, None], out=chol[p])
        shrink = np.einsum("jr,jr->r", np.matmul(params.lam, shift, out=chol[0]), shift)
        rows = np.flatnonzero(~trusted)
        for start in range(0, rows.size, _BLOCK):  # each row's own sum, whatever the other rows
            sel = rows[start : start + _BLOCK]
            out = buf[: sel.size * n].reshape(-1, n)  # `take` gathers rows faster than indexing does
            mean = horner(y1.take(sel, axis=0), mu_n.take(sel, axis=1)[:, :, None], out=out)
            resid = np.square(np.subtract(y2.take(sel, axis=0), mean, out=out), out=out)
            resid *= 1.0 if weights is None else weights.take(sel, axis=0)
            beta_n[sel] = params.beta + 0.5 * np.einsum("ij->i", resid) + 0.5 * shrink[sel]
    return sums[:n_pow], logdet_n, mu_n.T, beta_n


def posterior_update(prior: NormalGammaParams, data: DataSet) -> NormalGammaParams:
    """Closed-form conjugate update (see `_kernel`): lam' is lam plus the
    Hankel matrix of the power sums, so exactly as symmetric as lam."""
    sums, _, mu_n, beta_n = _kernel(prior, data.y1[None], data.y2[None])
    j = np.arange(prior.p)
    lam_n = prior.lam + sums[j[:, None] + j, 0]
    return NormalGammaParams(mu=mu_n[0], lam=lam_n, alpha=prior.alpha + 0.5 * len(data), beta=float(beta_n[0]))


def log_evidence(prior: NormalGammaParams, data: DataSet) -> float:
    """Log marginal likelihood of `data`: log of the likelihood integrated
    against the Normal-Gamma distribution `prior`, on (y1, y2)^n.

    The batch evidence at R = 1, so it includes n log(1/2) for the uniform
    y1 factors.  Under a posterior this is the joint posterior predictive
    density: log_evidence(posterior_update(prior, train), new) equals
    log_evidence(prior, train + new) - log_evidence(prior, train) by the
    probability chain rule (asserted in tests).
    """
    return float(prior.log_density_batch(data.y1[None], data.y2[None])[0])


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
