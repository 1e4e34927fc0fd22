"""Frequentist small world: polynomial MLE fits and the plug-in predictive."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import LOG_HALF, DataSet, frozen_copy, horner, load_json_object, normal_logpdf, require_count

_EPS = np.finfo(float).eps  # the rank rule's unit, looked up once


class TooFewPoints(ValueError):
    """Not enough points for a finite, positive-variance fit."""


class RankDeficient(ValueError):
    """The design matrix is numerically rank-deficient."""


@dataclass(frozen=True)
class ModelSpec:
    """The small world: Gaussians centered on polynomials of a fixed degree."""

    degree: int

    def __post_init__(self):
        require_count("degree", self.degree, minimum=0)

    @property
    def n_coeffs(self) -> int:
        return self.degree + 1

    @property
    def min_fit_size(self) -> int:
        # degree+2 points keep the MLE noise variance positive almost surely
        return self.degree + 2

    def design_matrix(self, y1) -> np.ndarray:
        """Monomial basis rows [1, y1, ..., y1^degree] for y1 of any shape,
        stacked on a new last axis.  Built by running products, the way
        `np.vander` builds them, so a 1-D input gives its result bit for bit;
        each column is a contiguous block of the returned view."""
        y1 = np.asarray(y1, dtype=float)
        phi = np.empty((self.n_coeffs,) + y1.shape)
        phi[0] = 1.0
        for k in range(1, self.n_coeffs):
            np.multiply(phi[k - 1, ...], y1, out=phi[k, ...])
        return phi.transpose((*range(1, phi.ndim), 0))

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelSpec":
        return load_json_object(cls, "model", d)


def fit_mle(spec: ModelSpec, data: DataSet) -> PluginGaussian:
    """Least-squares MLE on the monomial basis, as its plug-in predictive.

    Solved by SVD with rank tolerance eps * max(n, p) * s_max; raises
    RankDeficient below that and TooFewPoints when n < degree + 2.
    """
    n = len(data)
    p = spec.n_coeffs
    if n < spec.min_fit_size:
        raise TooFewPoints(f"need at least {spec.min_fit_size} points for degree {spec.degree}, got {n}")
    coeffs, sigma2, rank = _least_squares(spec.design_matrix(data.y1)[None], data.y2[None])
    if rank[0] < p:
        raise RankDeficient(f"design matrix rank {rank[0]} < {p}")
    return PluginGaussian(coeffs=coeffs[0], sigma2=float(sigma2[0]))


def _least_squares(phi: np.ndarray, y2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD least squares of each row of y2 (R, m) on its (m, p) design rows
    in the stack `phi` (R, m, p), through one stacked SVD.  Singular values
    at or below eps * max(m, p) * s_max count as zero, as `np.linalg.lstsq`
    counts them at that rcond, so a rank-deficient row gets the minimum-norm
    solution.  Returns per row the coefficients, the mean squared residual
    and the numerical rank.  The one fit behind `fit_mle` and the fold
    kernel."""
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    keep = s > _EPS * max(phi.shape[1:]) * s[:, :1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    proj = inv_s * (y2[:, None, :] @ u)[:, 0]
    coeffs = (proj[:, None, :] @ vt)[:, 0]
    resid = y2 - (phi @ coeffs[..., None])[..., 0]
    # np.mean(resid**2, axis=1) bit for bit, squared in place
    return coeffs, np.add.reduce(np.square(resid, out=resid), axis=1) / resid.shape[1], keep.sum(axis=1)


@dataclass(frozen=True)
class PluginGaussian:
    """A maximum likelihood element of the small world as its (plug-in)
    predictive: Gaussians of variance `sigma2` centered on the polynomial
    with coefficients `coeffs`, lowest degree first.

    sigma2 is the MLE (1/n) normalization.  It is zero only in the degenerate
    case of exactly interpolating data; estimators guard density evaluation
    with a variance floor in that case.
    """

    coeffs: np.ndarray
    sigma2: float

    def __post_init__(self):
        coeffs = frozen_copy("coeffs", self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or not coeffs.size:
            raise ValueError("coeffs must be a nonempty vector")
        if not 0 <= self.sigma2 < np.inf:
            raise ValueError("sigma2 must be finite and >= 0")

    def mean_at(self, y1):
        return horner(y1, self.coeffs)

    def log_density_batch(self, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
        """Joint log density per replicate for (R, n) arrays of points on
        (y1, y2)^n: the density factorizes across points, each point's
        Gaussian in y2 times the uniform density 1/2 of its y1."""
        if not self.sigma2 > 0:
            raise ValueError("plug-in predictive needs sigma2 > 0 (apply a variance floor first)")
        out = np.sum(normal_logpdf(y2, self.mean_at(y1), self.sigma2), axis=1)
        out += y1.shape[1] * LOG_HALF
        return out


def plugin_log_predictive(predictive: PluginGaussian, new_data: DataSet) -> float:
    """Joint log density of new data under the plug-in Gaussian predictive:
    its `log_density_batch` at a batch of one."""
    return float(predictive.log_density_batch(new_data.y1[None], new_data.y2[None])[0])
