"""Property tests: the partition estimators equal explicit splits written
out by hand, delta equals the density functions it stands for, and both
count the y1 factor once per scored point, over random data of up to 40
points, degrees 0-6 and every inference kind, the partition estimators'
Bayes kinds under random SPD priors; the stacked kernels under them
equal numpy's per-row routines and the explicit algebra, the batch evidence
equals the scalar one and obeys the chain rule over random priors and
degrees 0-6, and WAIC, DIC and the plug-in log likelihood agree at a
degenerate posterior.  The kernel's sums are within 8 ulps of exact at
degrees 0-10, bit for bit a written-out running sum over the points (a
row-wise `einsum` at p = 1) for any draws at degrees 0-10, and, with
weights or without, the same bits for a row alone
as in a 4,096-row call or a one-row tail block; a row's evidence is the
same bits alone as in a 500-row call at degrees 0-1 and within 1e-13
relative at degrees 2-6, and at p = 1 every output
is bit for bit a row-wise `einsum` reference; its beta' from the sums
agrees with a written-out residual pass within 1e-13, and bit for bit on
the rows its rule sends to that pass, however many of a call's rows go
there, and so do the Monte Carlo oracle's scores on the same draws.  The
oracle's blocks, joined, are one draw bit for bit, also in a call made
after an earlier call's blocks were closed part way."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from gridref import _mvt_logpdf
from rpps.conjugate import (
    _BLOCK,
    _TRUST,
    NormalGammaParams,
    PluginGaussian,
    PosteriorSample,
    _kernel,
    default_prior,
    log_evidence,
    posterior_mean,
    posterior_update,
)
from rpps.datagen import DataSet, GeneratorSpec, horner, sample_dataset, scratch
from rpps.linmodel import ModelSpec, RankDeficient, TooFewPoints, _least_squares, fit_mle, plugin_log_predictive
from rpps.scores import (
    SIGMA2_FLOOR,
    AllResamplesDegenerate,
    Bootstrap,
    InferenceKind,
    PredictiveBuilder,
    bootstrap_estimator,
    delta_estimator,
    dic,
    exact_score_mc,
    holdout_estimator,
    jackknife_estimator,
    waic,
)

PROPERTY = settings(max_examples=40, deadline=None, database=None)
CASES = given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 6),
    kind=st.sampled_from(list(InferenceKind)),
)


def _case(seed, degree, n_min=None):
    rng = np.random.default_rng(seed)
    truth = GeneratorSpec(degree, tuple(rng.normal(size=degree + 1)), float(rng.uniform(0.3, 1.0)))
    n = int(rng.integers(degree + 3 if n_min is None else n_min, 41))
    return rng, ModelSpec(degree), sample_dataset(truth, n=n, seed=seed)


def _random_prior(rng, p):
    """A Normal-Gamma prior with a random SPD lam scaled over 1e-3..1e3 and
    random mu, alpha and beta."""
    a = rng.normal(size=(p + 2, p))
    lam = 10.0 ** rng.uniform(-3, 3) * (a.T @ a + rng.uniform(0.01, 2.0) * np.eye(p))
    alpha, beta = rng.uniform(0.1, 5.0, size=2)
    return NormalGammaParams(mu=rng.normal(size=p), lam=lam, alpha=float(alpha), beta=float(beta))


def _builder(rng, kind, spec):
    """The builder of `kind` for `spec` and its prior: a Bayes kind's is a
    random SPD prior, set on the builder, which takes none."""
    build = PredictiveBuilder(kind, spec)
    if kind != InferenceKind.MLE:
        object.__setattr__(build, "prior", _random_prior(rng, spec.n_coeffs))
    return build, build.prior


def _held_out_log_density(kind, spec, prior, data, train, valid):
    """Log density of data[valid] given data[train], without the builder:
    the posterior predictive goes through the evidence chain rule under
    `prior`."""
    if kind == InferenceKind.MLE:
        return plugin_log_predictive(fit_mle(spec, data.subset(train)), data.subset(valid))
    if kind == InferenceKind.PRIOR_PREDICTIVE:
        return log_evidence(prior, data.subset(valid))
    both = data.subset(np.concatenate([train, valid]))
    return log_evidence(prior, both) - log_evidence(prior, data.subset(train))


@PROPERTY
@CASES
def test_full_jackknife_is_explicit_leave_one_out(seed, degree, kind):
    rng, spec, data = _case(seed, degree)
    n = len(data)
    build, prior = _builder(rng, kind, spec)
    est = jackknife_estimator(build, data, k_folds=n, seed=seed)
    explicit = -sum(
        _held_out_log_density(kind, spec, prior, data, np.delete(np.arange(n), i), np.array([i])) for i in range(n)
    )
    assert est.n_effective == n and est.floor_engaged == 0
    assert est.value == pytest.approx(explicit, rel=1e-9, abs=1e-9)


@PROPERTY
@CASES
def test_jackknife_is_explicit_folds(seed, degree, kind):
    rng, spec, data = _case(seed, degree)
    n = len(data)
    build, prior = _builder(rng, kind, spec)
    ks = [k for k in range(2, n) if n % k == 0 and n - n // k >= build.min_train_size]
    assume(ks)
    k = ks[int(rng.integers(len(ks)))]
    est = jackknife_estimator(build, data, k_folds=k, seed=seed)
    folds = np.random.default_rng(seed).permutation(n).reshape(k, n // k)
    explicit = -sum(
        _held_out_log_density(kind, spec, prior, data, np.setdiff1d(np.arange(n), fold), fold) for fold in folds
    )
    assert est.n_effective == k and est.floor_engaged == 0
    assert est.value == pytest.approx(explicit, rel=1e-9, abs=1e-9)


@PROPERTY
@CASES
def test_bootstrap_is_explicit_resample_loop(seed, degree, kind):
    # measurements down to two points, so that resamples get skipped for
    # an empty out-of-bag set or too few distinct training points
    rng, spec, data = _case(seed, degree, n_min=2)
    n = len(data)
    build, prior = _builder(rng, kind, spec)
    b = int(rng.integers(1, 40))
    draws = np.random.default_rng(seed)
    values = []
    for _ in range(b):
        draw = draws.integers(0, n, size=n)
        oob = np.setdiff1d(np.arange(n), draw)
        if oob.size == 0 or np.unique(draw).size < build.min_train_size:
            continue
        try:
            values.append(-(n / oob.size) * _held_out_log_density(kind, spec, prior, data, draw, oob))
        except (TooFewPoints, RankDeficient):
            continue
    if not values:
        with pytest.raises(AllResamplesDegenerate):
            bootstrap_estimator(build, data, Bootstrap(b, seed=seed))
        return
    est = bootstrap_estimator(build, data, Bootstrap(b, seed=seed))
    assert est.n_effective == len(values) and est.floor_engaged == 0
    assert est.value == pytest.approx(np.mean(values), rel=1e-9, abs=1e-9)
    if len(values) == 1:
        assert est.std_error is None
    else:
        se = np.std(values, ddof=1) / math.sqrt(len(values))
        assert est.std_error == pytest.approx(se, rel=1e-9, abs=1e-9)


@PROPERTY
@CASES
def test_holdout_is_explicit_split(seed, degree, kind):
    rng, spec, data = _case(seed, degree)
    n = len(data)
    build, prior = _builder(rng, kind, spec)
    n_train = int(rng.integers(max(build.min_train_size, 1), n))
    est = holdout_estimator(build, data, n_train, n - n_train, seed=seed)
    idx = np.random.default_rng(seed).permutation(n)
    explicit = -(n / (n - n_train)) * _held_out_log_density(kind, spec, prior, data, idx[:n_train], idx[n_train:])
    assert est.value == pytest.approx(explicit, rel=1e-9, abs=1e-9)


@PROPERTY
@CASES
def test_delta_is_the_density_it_stands_for(seed, degree, kind):
    # bit for bit: the plug-in density of the MLE fit, the evidence, and the
    # evidence under the posterior of the measurement itself
    _, spec, data = _case(seed, degree)
    predictive = PredictiveBuilder(kind, spec)(data)
    assert type(predictive) is (PluginGaussian if kind == InferenceKind.MLE else NormalGammaParams)
    prior = default_prior(spec)
    if kind == InferenceKind.MLE:
        expected = -plugin_log_predictive(fit_mle(spec, data), data)
    elif kind == InferenceKind.PRIOR_PREDICTIVE:
        expected = -log_evidence(prior, data)
    else:
        expected = -log_evidence(posterior_update(prior, data), data)
    assert delta_estimator(predictive, data).value == expected


def _y2_log_density(kind, spec, prior, data, train, valid):
    """Log density of the y2 values of data[valid] given their y1 and
    data[train], from y2 densities alone (no y1 factor): scipy's normal at
    the floored MLE fit, or the direct multivariate t at `prior` or the
    posterior given data[train]."""
    held = data.subset(valid)
    if kind == InferenceKind.MLE:
        fit = fit_mle(spec, data.subset(train))
        scale = math.sqrt(max(fit.sigma2, SIGMA2_FLOOR))
        return float(np.sum(stats.norm.logpdf(held.y2, fit.mean_at(held.y1), scale)))
    params = prior
    if kind == InferenceKind.POSTERIOR_PREDICTIVE:
        params = posterior_update(prior, data.subset(train))
    return _mvt_logpdf(params, spec, held.y1, held.y2)


@PROPERTY
@CASES
def test_estimators_count_the_y1_factor_once_per_point(seed, degree, kind):
    # delta, hold-out (rescaled by N / n_valid) and the K = N jackknife each
    # exceed their y2-only reference by exactly N log 2; the tolerance is
    # relative to the estimate, as in the partition properties, because an
    # MLE fold that nearly interpolates drives it to 1e11
    rng, spec, data = _case(seed, degree)
    n = len(data)
    build, prior = _builder(rng, kind, spec)
    every = np.arange(n)
    n_train = int(rng.integers(max(build.min_train_size, 1), n))
    idx = np.random.default_rng(seed).permutation(n)
    pairs = [
        (delta_estimator(build(data), data), -_y2_log_density(kind, spec, prior, data, every, every)),
        (
            holdout_estimator(build, data, n_train, n - n_train, seed=seed),
            -(n / (n - n_train)) * _y2_log_density(kind, spec, prior, data, idx[:n_train], idx[n_train:]),
        ),
        (
            jackknife_estimator(build, data, k_folds=n, seed=seed),
            -sum(_y2_log_density(kind, spec, prior, data, np.delete(every, i), [i]) for i in range(n)),
        ),
    ]
    for est, reference in pairs:
        assert est.value == pytest.approx(reference + n * math.log(2.0), rel=1e-9, abs=1e-9)


KERNEL_CASES = given(seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 4))


@PROPERTY
@KERNEL_CASES
def test_plugin_batch_is_plugin_log_predictive(seed, degree):
    # each row of the batch, bit for bit
    rng, spec, data = _case(seed, degree)
    fit = fit_mle(spec, data)
    r, n = int(rng.integers(1, 6)), int(rng.integers(1, 40))
    y1 = rng.uniform(-1, 1, size=(r, n))
    y2 = rng.normal(scale=rng.uniform(0.1, 10.0), size=(r, n))
    batch = fit.log_density_batch(y1, y2)
    assert batch.tolist() == [plugin_log_predictive(fit, DataSet(a, b)) for a, b in zip(y1, y2)]


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 6),
    n=st.integers(1, 40),
    r=st.integers(1, 5),
)
def test_conjugate_batch_is_scalar_evidence_over_random_priors(seed, degree, n, r):
    # each row of the batch is the scalar evidence of that dataset and the
    # direct multivariate-t assembly plus the y1 factor, counted once per point
    rng = np.random.default_rng(seed)
    params = _random_prior(rng, degree + 1)
    spec = ModelSpec(degree)
    y1 = rng.uniform(-1, 1, size=(r, n))
    y2 = rng.normal(scale=rng.uniform(0.1, 10.0), size=(r, n))
    batch = params.log_density_batch(y1, y2)
    assert batch.shape == (r,)
    for value, row1, row2 in zip(batch, y1, y2):
        scalar = log_evidence(params, DataSet(row1, row2))
        assert value == pytest.approx(scalar, rel=1e-12, abs=1e-12)
        direct = _mvt_logpdf(params, spec, row1, row2) + n * math.log(0.5)
        assert value == pytest.approx(direct, rel=1e-9, abs=1e-9)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 6),
    n=st.integers(1, 40),
    s_count=st.integers(2, 50),
)
def test_waic_equals_dic_at_a_degenerate_posterior(seed, degree, n, s_count):
    # S identical draws at the posterior mean under a random prior: no spread
    # over the draws, so both penalties vanish and each criterion is the
    # negated plug-in log likelihood of that draw, the y1 factor counted
    # once per point
    rng = np.random.default_rng(seed)
    prior = _random_prior(rng, degree + 1)
    data = DataSet(rng.uniform(-1, 1, size=n), rng.normal(scale=rng.uniform(0.1, 10.0), size=n))
    point = posterior_mean(posterior_update(prior, data))
    samples = PosteriorSample(np.repeat(point.coeffs, s_count, axis=0), np.repeat(point.precision, s_count))
    mean = np.polynomial.polynomial.polyval(data.y1, point.coeffs[0])
    loglik = stats.norm.logpdf(data.y2, mean, 1.0 / math.sqrt(point.precision[0]))
    direct = -(float(np.sum(loglik)) + n * math.log(0.5))
    w, d = waic(samples, data).value, dic(samples, point, data).value
    assert abs(w - d) < 1e-10
    assert abs(w - direct) < 1e-10
    assert abs(d - direct) < 1e-10


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 6), n=st.integers(2, 40))
def test_evidence_obeys_the_chain_rule_over_random_priors(seed, degree, n):
    # a measurement cut at a random point into nonempty W and V: the
    # evidence of V under the posterior given W is p(W + V) / p(W)
    rng = np.random.default_rng(seed)
    prior = _random_prior(rng, degree + 1)
    data = DataSet(rng.uniform(-1, 1, size=n), rng.normal(scale=rng.uniform(0.1, 10.0), size=n))
    cut = int(rng.integers(1, n))
    w, v = data.subset(np.arange(cut)), data.subset(np.arange(cut, n))
    chained = log_evidence(posterior_update(prior, w), v)
    assert abs(chained - (log_evidence(prior, data) - log_evidence(prior, w))) < 1e-10


def _updated(prior, y1, y2, weights):
    """`_kernel` with lam' assembled from its power sums: lam plus their
    Hankel matrices, one (R, p, p) stack."""
    sums, logdet, mu_n, beta_n = _kernel(prior, y1, y2, weights)
    j = np.arange(prior.p)
    return prior.lam + sums[j[:, None] + j].transpose(2, 0, 1), logdet, mu_n, beta_n


@settings(max_examples=25, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 4),
    r=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5 * _BLOCK // 2]),
)
def test_conjugate_update_is_explicit_algebra(seed, degree, r):
    # random SPD prior (condition number below ~1e3 after the update), data
    # and point multiplicities 0-3, at stack sizes around the block size
    rng = np.random.default_rng(seed)
    p, n = degree + 1, int(rng.integers(1, 13))
    a = rng.normal(size=(p + 3, p))
    lam = a.T @ a + rng.uniform(0.5, 2.0) * np.eye(p)
    prior = NormalGammaParams(mu=rng.normal(size=p), lam=lam, alpha=1.0, beta=float(rng.uniform(0.1, 2.0)))
    spec = ModelSpec(degree)
    y1 = rng.uniform(-1, 1, size=(r, n))
    y2 = rng.normal(scale=rng.uniform(0.1, 10.0), size=(r, n))
    weights = None if rng.uniform() < 0.3 else rng.integers(0, 4, size=(r, n)).astype(float)
    lam_n, logdet, mu_n, beta_n = _updated(prior, y1, y2, weights)
    assert lam_n.shape == (r, p, p) and mu_n.shape == (r, p) and logdet.shape == beta_n.shape == (r,)

    w = np.ones((r, n)) if weights is None else weights
    phi = spec.design_matrix(y1)
    wphi_t = np.swapaxes(phi * w[..., None], 1, 2)
    expected_lam = prior.lam + wphi_t @ phi
    rhs = prior.lam @ prior.mu + (wphi_t @ y2[..., None])[..., 0]
    expected_mu = np.linalg.solve(expected_lam, rhs[..., None])[..., 0]
    expected_logdet = 2.0 * np.log(np.linalg.cholesky(expected_lam).diagonal(axis1=1, axis2=2)).sum(axis=1)
    resid = y2 - (phi @ expected_mu[..., None])[..., 0]
    shift = expected_mu - prior.mu
    expected_beta = prior.beta + 0.5 * np.sum(w * resid**2, axis=1) + 0.5 * np.sum((shift @ prior.lam) * shift, axis=1)

    def close(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12 * max(1.0, float(np.abs(expected).max())))

    close(lam_n, expected_lam)
    close(logdet, expected_logdet)
    close(mu_n, expected_mu)
    close(beta_n, expected_beta)
    # every row of the batch is the update by that dataset alone
    rows = [
        _updated(prior, y1[i : i + 1], y2[i : i + 1], None if weights is None else weights[i : i + 1])
        for i in range(r)
    ]
    for batch, single in zip((lam_n, logdet, mu_n, beta_n), zip(*rows)):
        close(batch, np.concatenate(single))


@PROPERTY
@KERNEL_CASES
def test_stacked_least_squares_is_lstsq(seed, degree):
    # rows draw y1 from a pool of few distinct values, so some are rank-deficient
    rng = np.random.default_rng(seed)
    p = degree + 1
    r, m = int(rng.integers(1, 7)), int(rng.integers(1, 11))
    pool = rng.uniform(-1, 1, size=(r, int(rng.integers(1, m + 1))))
    y1 = np.take_along_axis(pool, rng.integers(0, pool.shape[1], size=(r, m)), axis=1)
    y2 = rng.normal(size=(r, m))
    phi = ModelSpec(degree).design_matrix(y1)
    coeffs, sigma2, rank = _least_squares(phi, y2)
    assert coeffs.shape == (r, p) and sigma2.shape == rank.shape == (r,)
    eps = np.finfo(float).eps
    for j in range(r):
        expected, _, expected_rank, s = np.linalg.lstsq(phi[j], y2[j], rcond=eps * max(m, p))
        assert rank[j] == expected_rank
        if expected_rank == p:
            # 1e-12 unless the fold's own conditioning allows more
            tol = max(1e-12, 10 * eps * s[0] / s[-1]) * max(1.0, float(np.abs(expected).max()))
            np.testing.assert_allclose(coeffs[j], expected, rtol=0, atol=tol)
            assert sigma2[j] == pytest.approx(np.mean((y2[j] - phi[j] @ expected) ** 2), rel=1e-9, abs=1e-12)


def _rowsum(*factors):
    """sum_j of the product of the (R, n) `factors` that are not None (a
    missing weights array), one row at a time."""
    factors = [f for f in factors if f is not None]
    return np.einsum(",".join(["ij"] * len(factors)) + "->i", *factors)


def _running_sum(*factors):
    """The same sums as running sums over the points in order, all rows at
    once, as the kernel forms them at p > 1."""
    factors = [f for f in factors if f is not None]
    total = np.zeros(len(factors[0]))
    for j in range(factors[0].shape[1]):
        total += math.prod(f[:, j] for f in factors)
    return total


def _reference_sums(p, y1, y2, weights):
    """Every sum the kernel forms, laid out as its `scratch("kernel.sums")`
    array: the power sums sum x^m (m = 0 .. 2p - 2), the right-hand sides
    sum t x^k (k = 0 .. p - 1) and t^T t, each a sum of products,
    sum x^m = x^a . x^(m - a) with a = min(m, p - 1) and sum t x^k =
    x^k . t, with the weights as a last factor when there are weights; a
    row's own `einsum` at p = 1 and a running sum over the points at p > 1."""
    n_pow, rowsum = 2 * p - 1, _rowsum if p == 1 else _running_sum
    xk = [None, y1]  # x^k; x^0 is never a factor
    for _ in range(2, p):
        xk.append(xk[-1] * y1)
    sums = np.empty((n_pow + p + 1, len(y1)))
    sums[0], sums[n_pow] = y1.shape[1] if weights is None else _rowsum(weights), rowsum(y2, weights)
    for m in range(1, n_pow):
        a = min(m, p - 1)
        sums[m] = rowsum(xk[a], xk[m - a], weights) if m > a else rowsum(xk[a], weights)
    for k in range(1, p):
        sums[n_pow + k] = rowsum(xk[k], y2, weights)
    sums[-1] = rowsum(y2, y2, weights)
    return sums


def _residual_pass_kernel(params, y1, y2, weights):
    """(log det lam', beta', L^-1 rhs, mu', diagonal of lam') by the kernel's
    residual-pass formula, written out: the same sums (`_reference_sums`),
    the same column Cholesky, then mu' by back substitution and
    beta' = beta + rss(mu')/2 + (mu' - mu)^T lam (mu' - mu)/2.  This is the
    kernel's arithmetic, so a row the kernel gives the residual pass must
    match it bit for bit."""
    p, r = params.p, len(y1)
    n_pow, sums = 2 * p - 1, _reference_sums(p, y1, y2, weights)
    chol = np.zeros((p + 1, p, r))
    chol[p] = (params.lam @ params.mu)[:, None] + sums[n_pow:-1]
    for j in range(p):
        col = chol[j:, j]
        col[:-1] = params.lam[j:, j, None] + sums[2 * j : j + p]
        if j:
            col -= np.einsum("ikr,kr->ir", chol[j:, :j], chol[j, :j])
        col[0] = np.sqrt(col[0])
        col[1:] /= col[0]
    diag = chol[:p].diagonal(axis1=0, axis2=1).T
    mu_n = chol[p].copy()
    for i in range(p - 1, -1, -1):
        mu_n[i] /= diag[i]
        mu_n[:i] -= chol[i, :i] * mu_n[i]
    resid = np.square(y2 - horner(y1, mu_n[:, :, None]))
    if weights is not None:
        resid *= weights
    shift = mu_n - params.mu[:, None]
    beta_n = params.beta + 0.5 * _rowsum(resid) + 0.5 * np.einsum("jr,jr->r", params.lam @ shift, shift)
    lam_diag = params.lam.diagonal()[:, None] + sums[0:n_pow:2]
    return 2.0 * np.log(diag).sum(axis=0), beta_n, chol[p], mu_n, lam_diag


def _trust_ratio(params, y1, y2, weights):
    """The kernel's rule written out on the reference, per row: the sums
    form's error scale T + sum_j mu'_j^2 lam'_jj over `_TRUST` times 2 beta'
    (inf where beta' <= beta); a row above 1 takes the residual pass."""
    _, _, l_inv_rhs, mu_n, lam_diag = _residual_pass_kernel(params, y1, y2, weights)
    total = (_rowsum if params.p == 1 else _running_sum)(y2, y2, weights) + float(params.mu @ params.lam @ params.mu)
    gain = total - np.einsum("jr,jr->r", l_inv_rhs, l_inv_rhs)
    scale = np.einsum("jr,jr,jr->r", mu_n, mu_n, lam_diag) + total
    return np.where(gain > 0, scale / (_TRUST * (2 * params.beta + np.maximum(gain, 0.0))), np.inf)


def _residual_pass_log_density(params, y1, y2, weights=None):
    """`NormalGammaParams.log_density_batch` written out on the reference's
    (log det lam', beta'), in the same arithmetic."""
    logdet, beta_n, *_ = _residual_pass_kernel(params, y1, y2, weights)
    n = y1.shape[1] if weights is None else weights.sum(axis=1)
    alpha_n = params.alpha + 0.5 * np.broadcast_to(n, beta_n.shape)
    lgamma_n = np.array([math.lgamma(a) for a in alpha_n])
    return (
        -0.5 * n * math.log(2.0 * math.pi)
        + 0.5 * (params.logdet_lam - logdet)
        + params.alpha * math.log(params.beta)
        - alpha_n * np.log(beta_n)
        + (lgamma_n - math.lgamma(params.alpha))
        + n * math.log(0.5)
    )


def _near_fit(rng, degree, r, n, sigma):
    """(R, n) points around a random polynomial of the model's degree: a
    small sigma nearly interpolates."""
    y1 = rng.uniform(-1, 1, size=(r, n))
    return y1, np.polynomial.polynomial.polyval(y1, rng.normal(size=degree + 1)) + sigma * rng.normal(size=(r, n))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 6),
    n=st.integers(1, 40),
    r=st.integers(1, 5),
    log_sigma=st.floats(-3, 0),
)
def test_beta_from_the_sums_is_the_residual_pass(seed, degree, n, r, log_sigma):
    # random SPD prior, integer multiplicities 0-3 or none, noise down to
    # 1e-3: log det lam' is unchanged, beta' from the sums agrees with the
    # residual pass within 1e-13 relative, and the densities within 1e-12
    # relative (absolute below 1: a log density may cross zero); a row the
    # kernel's rule sends to the residual pass takes it, and its density,
    # bit for bit
    rng = np.random.default_rng(seed)
    params = _random_prior(rng, degree + 1)
    y1, y2 = _near_fit(rng, degree, r, n, 10.0**log_sigma)
    weights = None if rng.uniform() < 0.5 else rng.integers(0, 4, size=(r, n)).astype(float)
    expected_logdet, expected_beta, *_ = _residual_pass_kernel(params, y1, y2, weights)
    _, logdet, _, beta_n = _kernel(params, y1, y2, weights)
    assert logdet.tobytes() == expected_logdet.tobytes()
    np.testing.assert_allclose(beta_n, expected_beta, rtol=1e-13, atol=0)
    densities = params.log_density_batch(y1, y2, weights)
    expected = _residual_pass_log_density(params, y1, y2, weights)
    np.testing.assert_allclose(densities, expected, rtol=1e-12, atol=1e-12)
    # the rule, clear of its threshold by 1%
    fallback = _trust_ratio(params, y1, y2, weights) > 1.01
    assert beta_n[fallback].tobytes() == expected_beta[fallback].tobytes()
    assert densities[fallback].tobytes() == expected[fallback].tobytes()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("degree", range(11))
def test_kernel_sums_are_exact_within_their_rounding_bound(degree, weighted):
    # every sum the kernel forms (power sums, right-hand sides, t^T W t, the
    # `scratch` array it fills) against exact rationals, within 8 u sum|terms|,
    # u the unit roundoff: every sum is a running sum over the points in order
    # (a row-wise `einsum` at p = 1), and over three sets of 33 seeds a degree
    # the worst seen is 7.9 u without weights and 8.7 u with weights, both at
    # degree 10 (the a-priori bound is (m + n) u for a term rounded m times),
    # so the bound holds at these seeds, where a looser summation fails
    rng = np.random.default_rng(degree)
    p, r, n = degree + 1, 6, 12
    y1, y2 = rng.uniform(-1, 1, size=(r, n)), rng.normal(scale=3.0, size=(r, n))
    weights = rng.integers(0, 4, size=(r, n)).astype(float) if weighted else None
    _kernel(default_prior(ModelSpec(degree)), y1, y2, weights)
    sums = scratch("kernel.sums", (3 * p, r)).copy()
    u = np.finfo(float).eps / 2
    for i in range(r):
        x, t = [Fraction(v) for v in y1[i]], [Fraction(v) for v in y2[i]]
        w = [Fraction(1)] * n if weights is None else [Fraction(v) for v in weights[i]]
        terms = [[wj * xj**m for wj, xj in zip(w, x)] for m in range(2 * p - 1)]
        terms += [[wj * tj * xj**k for wj, tj, xj in zip(w, t, x)] for k in range(p)]
        terms += [[wj * tj * tj for wj, tj in zip(w, t)]]
        for row, ts in enumerate(terms):
            assert abs(Fraction(sums[row, i]) - sum(ts)) <= 8 * u * sum(map(abs, ts))


@settings(max_examples=80, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 10),
    n=st.integers(1, 40),
    r=st.sampled_from([1, 2, 12, _BLOCK + 1]),
    weighted=st.booleans(),
)
def test_kernel_sums_are_the_reference_sums_bit_for_bit(seed, degree, n, r, weighted):
    # every entry of the kernel's `scratch` sums array is the same bits as
    # the reference's running sum over the points in order (its row-wise
    # `einsum` at p = 1), whatever the draws: the summation order is pinned
    # for every input, not only at the seeds of the rounding-bound test
    rng = np.random.default_rng(seed)
    p = degree + 1
    y1, y2 = rng.uniform(-1, 1, size=(r, n)), rng.normal(scale=3.0, size=(r, n))
    weights = rng.integers(0, 4, size=(r, n)).astype(float) if weighted else None
    _kernel(default_prior(ModelSpec(degree)), y1, y2, weights)
    assert scratch("kernel.sums", (3 * p, r)).tobytes() == _reference_sums(p, y1, y2, weights).tobytes()


@pytest.mark.parametrize(
    "degree, weighted, r",
    [
        pytest.param(d, w, r, id=f"{d}-weighted{tail}" if w else f"{d}{tail}")
        for r, tail in ((4 * _BLOCK, ""), (_BLOCK + 1, "-tail"))
        for w in (False, True)
        for d in (0, 1, 4, 10)
    ],
)
def test_a_rows_sums_do_not_depend_on_its_call(degree, weighted, r):
    # every sum is a running sum over a row's own points, its weights
    # (integers 0-3) one more factor, so a dataset's sums (the power sums the
    # kernel returns and the rest of its `scratch` array) are the same bits
    # alone and anywhere in a 4,096-row call, or in the one-row tail block of
    # a 1,025-row call; the Cholesky, and so log det, mu' and beta', may
    # still depend on a row's place
    rng = np.random.default_rng(degree)
    p = degree + 1
    prior = _random_prior(rng, p)
    y1, y2 = rng.uniform(-1, 1, size=(r, 12)), rng.normal(size=(r, 12))
    weights = rng.integers(0, 4, size=(r, 12)).astype(float) if weighted else None
    _kernel(prior, y1, y2, weights)
    stacked = scratch("kernel.sums", (3 * p, r)).copy()
    for i in [*range(0, r, 7), r - 1]:
        alone = _kernel(prior, y1[i : i + 1], y2[i : i + 1], None if weights is None else weights[i : i + 1])[0]
        assert alone[:, 0].tobytes() == stacked[: 2 * p - 1, i].tobytes()
        assert scratch("kernel.sums", (3 * p, 1))[:, 0].tobytes() == stacked[:, i].tobytes()


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("degree", range(7))
def test_a_rows_evidence_barely_depends_on_its_call(degree, weighted):
    # a row's sums are the same bits in any call, but the Cholesky's `einsum`
    # and the log det's sum reduce over the coefficients in an order that
    # depends on R: so one R = 500 call and 500 R = 1 calls agree bit for bit
    # at degrees 0-1 (p <= 2), and within 1e-13 relative at degrees 2-6, for 500
    # datasets of each shipped truth under the default prior and a
    # posterior, without weights and with integer weights 0-2
    spec = ModelSpec(degree)
    prior = default_prior(spec)
    for seed, truth in enumerate([GeneratorSpec(4, (0.5, -3.0, -4.0, 3.0, 6.0), 0.5), GeneratorSpec(0, (0.5,), 0.5)]):
        rng = np.random.default_rng(seed)
        y1, y2 = truth.draw(rng, (500, 12))
        weights = rng.integers(0, 3, size=(500, 12)).astype(float) if weighted else None
        for params in (prior, posterior_update(prior, sample_dataset(truth, 12, seed=seed))):
            stacked = params.log_density_batch(y1, y2, weights)
            rows = [(y1[i : i + 1], y2[i : i + 1], None if weights is None else weights[i : i + 1]) for i in range(500)]
            alone = np.concatenate([params.log_density_batch(*row) for row in rows])
            if degree <= 1:
                assert alone.tobytes() == stacked.tobytes()
            else:
                np.testing.assert_allclose(alone, stacked, rtol=1e-13, atol=0)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("r", [1, 2, 12, _BLOCK + 1])
def test_a_one_coefficient_kernel_is_its_row_wise_reference(r, weighted):
    # at p = 1 the kernel sums each row as it lies, one row-wise `einsum` a
    # sum, so every output (its sums, log det, mu', beta' from the sums and,
    # on nearly constant rows, from the residual pass) is bit for bit this
    # reference written out in that arithmetic
    rng = np.random.default_rng(r)
    prior = NormalGammaParams(mu=np.array([0.3]), lam=np.array([[2.0]]), alpha=1.0, beta=1e-6)
    y1, y2 = rng.uniform(-1, 1, size=(r, 12)), rng.normal(size=(r, 12))
    flat = rng.uniform(size=r) < 0.3
    flat[0], flat[-1] = r > 1, False  # a multi-row call holds a flat row and a trusted one
    y2[flat] = 0.5 + 1e-7 * y2[flat]
    weights = rng.integers(0, 4, size=(r, 12)).astype(float) if weighted else None
    _, logdet, mu_n, beta_n = _kernel(prior, y1, y2, weights)
    sums = scratch("kernel.sums", (3, r)).copy()
    expected_sums = np.stack([12.0 * np.ones(r) if weights is None else _rowsum(weights), _rowsum(y2, weights)])
    expected_sums = np.concatenate([expected_sums, _rowsum(y2, y2, weights)[None]])
    assert sums.tobytes() == expected_sums.tobytes()
    expected_logdet, fallback_beta, l_inv_rhs, expected_mu, lam_diag = _residual_pass_kernel(prior, y1, y2, weights)
    assert logdet.tobytes() == expected_logdet.tobytes() and mu_n.tobytes() == expected_mu.T.tobytes()
    total = expected_sums[2] + float(prior.mu @ prior.lam @ prior.mu)
    gain = total - np.einsum("jr,jr->r", l_inv_rhs, l_inv_rhs)
    sums_beta = prior.beta + 0.5 * gain
    size = np.einsum("jr,jr,jr->r", expected_mu, expected_mu, lam_diag) + total
    trusted = (gain > 0) & (size <= _TRUST * 2.0 * sums_beta)
    assert np.array_equal(~trusted, flat)
    assert beta_n.tobytes() == np.where(trusted, sums_beta, fallback_beta).tobytes()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("r, row", [(12, 0), (12, 7), (_BLOCK + 9, _BLOCK + 2)])
def test_a_fallback_rows_beta_does_not_depend_on_the_other_rows(r, row, weighted):
    # one nearly interpolating row among rows the rule trusts or among rows
    # that all fall back (1,033 of them, more than one chunk of the residual
    # pass): its beta' is the same bits, and the reference's
    rng = np.random.default_rng(r + row)
    degree, n = 2, 12
    prior = NormalGammaParams(mu=np.zeros(degree + 1), lam=1e-3 * np.eye(degree + 1), alpha=0.5, beta=1e-6)
    y1, dense = _near_fit(rng, degree, r, n, 1e-6)
    sparse = rng.normal(size=(r, n))
    sparse[row] = dense[row]
    weights = rng.integers(1, 4, size=(r, n)).astype(float) if weighted else None
    ratios = {name: _trust_ratio(prior, y1, y2, weights) for name, y2 in (("sparse", sparse), ("dense", dense))}
    # clear of the rule's threshold: every row falls back, or at most a third may
    assert ratios["dense"].min() > 2 and 3 * np.count_nonzero(ratios["sparse"] > 0.5) <= r
    betas = [_kernel(prior, y1, y2, weights)[3][row] for y2 in (sparse, dense)]
    expected = _residual_pass_kernel(prior, y1, dense, weights)[1][row]
    assert betas[0].tobytes() == betas[1].tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["prior", "posterior"])
@pytest.mark.parametrize("sigma", [0.5, 1e-3])
@pytest.mark.parametrize("degree", [0, 4, 10])
def test_oracle_matches_the_residual_pass_reference(degree, sigma, kind, monkeypatch):
    # the Monte Carlo oracle on the same 20,000 draws, scored once by the
    # kernel and once by the residual-pass reference; at sigma = 1e-3 the
    # models that contain the truth send most rows to the residual pass
    truth = GeneratorSpec(degree=4, coeffs=(0.5, -3.0, -4.0, 3.0, 6.0), sigma=sigma)
    prior = default_prior(ModelSpec(degree))
    predictive = prior if kind == "prior" else posterior_update(prior, sample_dataset(truth, 12, seed=1))
    est = exact_score_mc(truth, predictive, 20_000, 12, seed=2)
    monkeypatch.setattr(NormalGammaParams, "log_density_batch", _residual_pass_log_density)
    ref = exact_score_mc(truth, predictive, 20_000, 12, seed=2)
    assert abs(est.value - ref.value) <= 1e-12 * abs(ref.value)
    assert abs(est.std_error - ref.std_error) <= 1e-12


def _joined_blocks(truth, seed, n_rows, n_points, block):
    # each block is overwritten by the next, so keep copies
    blocks = [(y1.copy(), y2.copy()) for y1, y2 in truth.draw_blocks(np.random.default_rng(seed), n_rows, n_points, block)]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


@PROPERTY
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(1, 13),
    block=st.integers(1, 64),
    degree=st.integers(0, 4),
    c0=st.sampled_from([None, 0.0, -0.0, 0.5]),
)
def test_the_blocks_are_one_draw_bit_for_bit(data, seed, n_points, block, degree, c0):
    # random coefficients, the constant term 0.0, -0.0 or 0.5 if c0 gives one
    n_rows = data.draw(st.integers(2, 3 * block + 1), label="n_rows")
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=degree + 1)
    if c0 is not None:
        coeffs[0] = c0
    truth = GeneratorSpec(degree, tuple(coeffs), float(rng.uniform(0.1, 2.0)))
    y1, y2 = truth.draw(np.random.default_rng(seed), (n_rows, n_points))
    got = _joined_blocks(truth, seed, n_rows, n_points, block)
    assert (got[0].tobytes(), got[1].tobytes()) == (y1.tobytes(), y2.tobytes())
    # a generator of another stream, closed after block j, leaves nothing
    # behind that the next call draws
    j = data.draw(st.integers(0, max(0, n_rows // block - 1)), label="j")
    earlier = truth.draw_blocks(np.random.default_rng(seed + 1), n_rows, n_points, block)
    for _ in range(j + 1):
        next(earlier)
    earlier.close()
    got = _joined_blocks(truth, seed, n_rows, n_points, block)
    assert (got[0].tobytes(), got[1].tobytes()) == (y1.tobytes(), y2.tobytes())
