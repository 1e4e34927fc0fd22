"""Independent references for the conjugate module, on the y2 part only
(no uniform y1 factors).

`posterior_grid_summary` works directly on the joint density
prior(c, tau) * likelihood(y2 | c, tau) evaluated pointwise on tensor
quadrature grids; no conjugate update formula is used.  The precision is
integrated in the u = sqrt(tau) coordinate (removes the tau^(alpha-1)
endpoint singularity for alpha >= 1/2) and each coefficient through a
tangent substitution c = m + s * tan(theta), which covers the whole real
line and so tolerates the polynomial tails of the coefficient marginals.
Centers and scales are located by iterating on the integrand's own moments.
`_mvt_logpdf` assembles the joint predictive of a block as a multivariate
Student t, where the package goes through the evidence form.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln


def posterior_grid_summary(mu0, lam0, alpha0, beta0, y1, y2, n_nodes=220, n_iter=3):
    """Posterior coefficient moments and evidence of the y2 part.

    Returns a dict with 'log_evidence' (no uniform y1 factors), 'mean' (p,)
    and 'var' (p,) marginal posterior moments.  Supports p <= 2.
    """
    mu0 = np.asarray(mu0, dtype=float)
    lam0 = np.asarray(lam0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    p = mu0.size
    n = y1.size
    phi = y1[:, None] ** np.arange(p)

    # log joint over (c, tau): const + a_pow*log(tau) - tau*q(c)
    a_pow = alpha0 - 1.0 + 0.5 * (n + p)
    sign, logdet0 = np.linalg.slogdet(lam0)
    assert sign > 0
    const = (
        alpha0 * math.log(beta0)
        - float(gammaln(alpha0))
        + 0.5 * logdet0
        - 0.5 * (n + p) * math.log(2.0 * math.pi)
    )

    def q_of(c_pts):
        d = c_pts - mu0
        q0 = 0.5 * np.einsum("mi,ij,mj->m", d, lam0, d)
        resid = y2[None, :] - c_pts @ phi.T
        q1 = 0.5 * np.einsum("mn,mn->m", resid, resid)
        return beta0 + q0 + q1

    theta, theta_w = np.polynomial.legendre.leggauss(n_nodes)
    theta = 0.5 * math.pi * theta
    theta_w = 0.5 * math.pi * theta_w
    tan_t = np.tan(theta)
    sec2_t = 1.0 / np.cos(theta) ** 2

    start = max(1.0, float(np.max(np.abs(y2))), float(np.max(np.abs(mu0))))
    centers = np.zeros(p)
    scales = np.full(p, start)
    u_hi = math.sqrt(max(4.0 * (a_pow + 1.0) / beta0, 100.0))

    for _ in range(n_iter):
        axes = [centers[i] + scales[i] * tan_t for i in range(p)]
        jac = [scales[i] * sec2_t * theta_w for i in range(p)]
        mesh = np.meshgrid(*axes, indexing="ij")
        c_pts = np.stack([m.ravel() for m in mesh], axis=-1)
        c_wgt = np.ones(c_pts.shape[0])
        for dim, w in enumerate(jac):
            shaped = [1] * p
            shaped[dim] = -1
            c_wgt = c_wgt * np.broadcast_to(w.reshape(shaped), [n_nodes] * p).ravel()

        x_gl, w_gl = np.polynomial.legendre.leggauss(n_nodes)
        u = 0.5 * u_hi * (x_gl + 1.0)
        u_wgt = 0.5 * u_hi * w_gl

        q = q_of(c_pts)
        log_f = const + (2.0 * a_pow + 1.0) * np.log(u)[:, None] + math.log(2.0) - np.outer(u**2, q)
        shift = float(np.max(log_f))
        w = np.outer(u_wgt, c_wgt) * np.exp(log_f - shift)
        z = float(np.sum(w))
        w_c = w.sum(axis=0)
        mean = (w_c @ c_pts) / z
        var = (w_c @ (c_pts**2)) / z - mean**2
        # robust scale: first absolute moment exists even when var diverges
        abs_dev = (w_c @ np.abs(c_pts - mean)) / z
        w_u = w.sum(axis=1)
        u_mean = float((w_u @ u) / z)
        u_sd = math.sqrt(max(float((w_u @ u**2) / z) - u_mean**2, 1e-300))
        centers = mean
        scales = np.maximum(abs_dev, 1e-8)
        u_hi = u_mean + 12.0 * u_sd
    return {"log_evidence": shift + math.log(z), "mean": mean, "var": var}


def _mvt_logpdf(params, spec, y1, y2):
    """Direct multivariate-t assembly of the joint predictive of y2 given y1
    for a block: nu = 2 alpha, location Phi mu, shape
    (beta/alpha)(I + Phi lam^-1 Phi')."""
    block = len(y1)
    phi = spec.design_matrix(y1)
    nu = 2.0 * params.alpha
    shape = params.beta / params.alpha * (np.eye(block) + phi @ np.linalg.solve(params.lam, phi.T))
    dev = np.asarray(y2) - phi @ params.mu
    quad = float(dev @ np.linalg.solve(shape, dev))
    return (
        math.lgamma((nu + block) / 2.0)
        - math.lgamma(nu / 2.0)
        - 0.5 * block * math.log(nu * math.pi)
        - 0.5 * float(np.linalg.slogdet(shape)[1])
        - 0.5 * (nu + block) * math.log1p(quad / nu)
    )
