"""Property tests: the partition estimators equal explicit splits written
out by hand, delta equals the density functions it stands for, and both
count the y1 factor once per scored point, over random data of up to 40
points, degrees 0-6 and every inference kind; the stacked kernels under them
equal numpy's per-row routines and the explicit algebra, the batch evidence
equals the scalar one and obeys the chain rule over random priors and
degrees 0-6, and WAIC, DIC and the plug-in log likelihood agree at a
degenerate posterior."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from gridref import _mvt_logpdf
from rpps.conjugate import (
    _BLOCK,
    NormalGammaParams,
    PluginGaussian,
    PosteriorSample,
    _kernel,
    default_prior,
    log_evidence,
    posterior_mean,
    posterior_update,
)
from rpps.datagen import DataSet, GeneratorSpec, sample_dataset
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


def _held_out_log_density(kind, spec, data, train, valid):
    """Log density of data[valid] given data[train], without the builder:
    the posterior predictive goes through the evidence chain rule."""
    if kind == InferenceKind.MLE:
        return plugin_log_predictive(fit_mle(spec, data.subset(train)), data.subset(valid))
    prior = default_prior(spec)
    if kind == InferenceKind.PRIOR_PREDICTIVE:
        return log_evidence(prior, data.subset(valid))
    both = data.subset(np.concatenate([train, valid]))
    return log_evidence(prior, both) - log_evidence(prior, data.subset(train))


@PROPERTY
@CASES
def test_full_jackknife_is_explicit_leave_one_out(seed, degree, kind):
    _, spec, data = _case(seed, degree)
    n = len(data)
    est = jackknife_estimator(PredictiveBuilder(kind, spec), data, k_folds=n, seed=seed)
    explicit = -sum(
        _held_out_log_density(kind, spec, data, np.delete(np.arange(n), i), np.array([i])) for i in range(n)
    )
    assert est.n_effective == n and est.floor_engaged == 0
    assert est.value == pytest.approx(explicit, rel=1e-9, abs=1e-9)


@PROPERTY
@CASES
def test_jackknife_is_explicit_folds(seed, degree, kind):
    rng, spec, data = _case(seed, degree)
    n = len(data)
    build = PredictiveBuilder(kind, spec)
    ks = [k for k in range(2, n) if n % k == 0 and n - n // k >= build.min_train_size]
    assume(ks)
    k = ks[int(rng.integers(len(ks)))]
    est = jackknife_estimator(build, data, k_folds=k, seed=seed)
    folds = np.random.default_rng(seed).permutation(n).reshape(k, n // k)
    explicit = -sum(
        _held_out_log_density(kind, spec, data, np.setdiff1d(np.arange(n), fold), fold) for fold in folds
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
    build = PredictiveBuilder(kind, spec)
    b = int(rng.integers(1, 40))
    draws = np.random.default_rng(seed)
    values = []
    for _ in range(b):
        draw = draws.integers(0, n, size=n)
        oob = np.setdiff1d(np.arange(n), draw)
        if oob.size == 0 or np.unique(draw).size < build.min_train_size:
            continue
        try:
            values.append(-(n / oob.size) * _held_out_log_density(kind, spec, data, draw, oob))
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
    build = PredictiveBuilder(kind, spec)
    n_train = int(rng.integers(max(build.min_train_size, 1), n))
    est = holdout_estimator(build, data, n_train, n - n_train, seed=seed)
    idx = np.random.default_rng(seed).permutation(n)
    explicit = -(n / (n - n_train)) * _held_out_log_density(kind, spec, data, idx[:n_train], idx[n_train:])
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


def _y2_log_density(kind, spec, data, train, valid):
    """Log density of the y2 values of data[valid] given their y1 and
    data[train], from y2 densities alone (no y1 factor): scipy's normal at
    the floored MLE fit, or the direct multivariate t at the prior or the
    posterior given data[train]."""
    held = data.subset(valid)
    if kind == InferenceKind.MLE:
        fit = fit_mle(spec, data.subset(train))
        scale = math.sqrt(max(fit.sigma2, SIGMA2_FLOOR))
        return float(np.sum(stats.norm.logpdf(held.y2, fit.mean_at(held.y1), scale)))
    params = default_prior(spec)
    if kind == InferenceKind.POSTERIOR_PREDICTIVE:
        params = posterior_update(params, data.subset(train))
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
    build = PredictiveBuilder(kind, spec)
    every = np.arange(n)
    n_train = int(rng.integers(max(build.min_train_size, 1), n))
    idx = np.random.default_rng(seed).permutation(n)
    pairs = [
        (delta_estimator(build(data), data), -_y2_log_density(kind, spec, data, every, every)),
        (
            holdout_estimator(build, data, n_train, n - n_train, seed=seed),
            -(n / (n - n_train)) * _y2_log_density(kind, spec, data, idx[:n_train], idx[n_train:]),
        ),
        (
            jackknife_estimator(build, data, k_folds=n, seed=seed),
            -sum(_y2_log_density(kind, spec, data, np.delete(every, i), [i]) for i in range(n)),
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


def _random_prior(rng, p):
    """A Normal-Gamma prior with a random SPD lam scaled over 1e-3..1e3 and
    random mu, alpha and beta."""
    a = rng.normal(size=(p + 2, p))
    lam = 10.0 ** rng.uniform(-3, 3) * (a.T @ a + rng.uniform(0.01, 2.0) * np.eye(p))
    alpha, beta = rng.uniform(0.1, 5.0, size=2)
    return NormalGammaParams(mu=rng.normal(size=p), lam=lam, alpha=float(alpha), beta=float(beta))


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
