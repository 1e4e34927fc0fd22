"""The numerical range at N = 12, pinned against exact references.

The references solve the normal equations in rational arithmetic
(`fractions.Fraction` holds every float64 input exactly), so the
determinants, the posterior or fitted coefficients and the residual sums of
squares carry no rounding; floating point enters only through the final
logs.  An error is |value - reference| / max(1, |reference|).

Measured over 32 seeds of both truths, the log evidence stays within 1e-14
at every degree 0-10.  The MLE plug-in delta stays within 5e-15 through
degree 6, then grows with the conditioning of the monomial basis on 12
points: 6.9e-14 at degree 7, 1.8e-13 at 8, 1.4e-11 at 9 and 7.6e-12 at 10.
"""

import math
from fractions import Fraction

import pytest

from rpps.conjugate import default_prior, log_evidence
from rpps.datagen import GeneratorSpec, sample_dataset
from rpps.linmodel import ModelSpec, fit_mle
from rpps.scores import delta_estimator

N_POINTS = 12
MEASUREMENTS = [
    sample_dataset(truth, N_POINTS, seed)
    for truth in (
        GeneratorSpec(degree=4, coeffs=(0.5, -3.0, -4.0, 3.0, 6.0), sigma=0.5),
        GeneratorSpec(degree=0, coeffs=(0.5,), sigma=0.5),
    )
    for seed in range(4)
]
EVIDENCE_TOL = 1e-12
DELTA_TOL = {degree: 1e-12 if degree <= 6 else 1e-10 for degree in range(11)}


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _solve(a, b) -> tuple[list, Fraction]:
    """x with a x = b, and det(a), by Gaussian elimination without pivoting
    (every `a` here is symmetric positive definite)."""
    n = len(b)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    det = Fraction(1)
    for j in range(n):
        det *= m[j][j]
        for i in range(j + 1, n):
            factor = m[i][j] / m[j][j]
            for k in range(j, n + 1):
                m[i][k] -= factor * m[j][k]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (m[i][n] - _dot(m[i][i + 1 : n], x[i + 1 :])) / m[i][i]
    return x, det


def _normal_equations(data, p) -> tuple[list, list, Fraction]:
    """Phi^T Phi, Phi^T y2 and y2^T y2 on the monomial basis of p terms."""
    y1 = [Fraction(v) for v in data.y1.tolist()]
    y2 = [Fraction(v) for v in data.y2.tolist()]
    sums = [sum(v**k for v in y1) for k in range(2 * p - 1)]
    rhs = [_dot(y2, [v**k for v in y1]) for k in range(p)]
    return [[sums[i + j] for j in range(p)] for i in range(p)], rhs, _dot(y2, y2)


def _exact_log_evidence(prior, gram, t, yy, n) -> float:
    lam = [[Fraction(v) for v in row] for row in prior.lam.tolist()]
    mu = [Fraction(v) for v in prior.mu.tolist()]
    lam_mu = [_dot(row, mu) for row in lam]
    rhs = [a + b for a, b in zip(lam_mu, t)]
    mu_n, det_n = _solve([[a + g for a, g in zip(ra, rg)] for ra, rg in zip(lam, gram)], rhs)
    _, det_0 = _solve(lam, lam_mu)
    # mu_n^T lam_n mu_n = mu_n^T rhs
    beta_n = Fraction(prior.beta) + (yy + _dot(mu, lam_mu) - _dot(mu_n, rhs)) / 2
    alpha_n = prior.alpha + n / 2
    return (
        -0.5 * n * math.log(2 * math.pi)
        + 0.5 * (math.log(det_0) - math.log(det_n))
        + prior.alpha * math.log(prior.beta)
        - alpha_n * math.log(beta_n)
        + math.lgamma(alpha_n)
        - math.lgamma(prior.alpha)
        + n * math.log(0.5)
    )


def _exact_plugin_delta(gram, t, yy, n) -> float:
    coeffs, _ = _solve(gram, t)
    rss = yy - _dot(coeffs, t)  # coeffs^T gram coeffs = coeffs^T t
    # the residuals at the MLE variance rss / n contribute exactly n / 2
    return 0.5 * n * (math.log(2 * math.pi) + math.log(rss / n) + 1.0) + n * math.log(2.0)


def _error(value, reference) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


@pytest.mark.parametrize("degree", range(11))
def test_evidence_and_plugin_delta_match_exact_references(degree):
    spec = ModelSpec(degree)
    prior = default_prior(spec)
    for data in MEASUREMENTS:
        gram, t, yy = _normal_equations(data, spec.n_coeffs)
        evidence = log_evidence(prior, data)
        assert _error(evidence, _exact_log_evidence(prior, gram, t, yy, N_POINTS)) <= EVIDENCE_TOL
        delta = delta_estimator(fit_mle(spec, data), data).value
        assert _error(delta, _exact_plugin_delta(gram, t, yy, N_POINTS)) <= DELTA_TOL[degree]
