import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.linalg import solve_triangular

from gridref import _mvt_logpdf, posterior_grid_summary
from rpps import datagen
from rpps.conjugate import (
    NormalGammaParams,
    PosteriorSample,
    _kernel,
    default_prior,
    log_evidence,
    posterior_mean,
    posterior_update,
    sample_posterior,
)
from rpps.datagen import DataSet, GeneratorSpec, sample_dataset
from rpps.linmodel import ModelSpec
from rpps.scores import exact_score_mc


def _random_case(seed, degree=1, n=6):
    rng = np.random.default_rng(seed)
    p = degree + 1
    a = rng.normal(size=(p, p))
    prior = NormalGammaParams(
        mu=rng.normal(scale=0.5, size=p),
        lam=a @ a.T + 0.5 * np.eye(p),
        alpha=float(rng.uniform(0.8, 2.5)),
        beta=float(rng.uniform(0.5, 2.0)),
    )
    truth = GeneratorSpec(degree=degree, coeffs=tuple(rng.normal(size=p)), sigma=0.7)
    data = sample_dataset(truth, n=n, seed=seed + 1000)
    return prior, ModelSpec(degree), data


def _joint(predictive, data):
    """The predictive's joint log density of one dataset: its batch of one."""
    return float(predictive.log_density_batch(data.y1[None], data.y2[None])[0])


class TestDefaultPrior:
    def test_degree0_display(self):
        prior = default_prior(ModelSpec(0))
        np.testing.assert_array_equal(prior.mu, [0.0])
        np.testing.assert_array_equal(prior.lam, [[0.001]])
        assert prior.alpha == 0.5 and prior.beta == 0.5

    def test_degree4_shape(self):
        prior = default_prior(ModelSpec(4))
        assert prior.p == 5
        np.testing.assert_array_equal(prior.lam, 0.001 * np.eye(5))

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_invariants_hold(self, degree):
        prior = default_prior(ModelSpec(degree))
        np.linalg.cholesky(prior.lam)  # SPD
        assert prior.alpha > 0 and prior.beta > 0


class TestParamsValidation:
    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            NormalGammaParams(mu=np.zeros(2), lam=np.array([[1.0, 2.0], [2.0, 1.0]]), alpha=1.0, beta=1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            NormalGammaParams(mu=np.zeros(2), lam=np.array([[1.0, 0.5], [0.0, 1.0]]), alpha=1.0, beta=1.0)
        # a NaN lam fails the finiteness rule before the symmetry check
        with pytest.raises(ValueError, match="lam must be finite"):
            NormalGammaParams(mu=np.zeros(2), lam=np.array([[1.0, np.nan], [np.nan, 1.0]]), alpha=1.0, beta=1.0)

    @pytest.mark.parametrize(
        ("mu", "alpha", "beta", "complaint"),
        [
            ([0.0, math.nan], 1.0, 1.0, "mu must be finite"),
            ([0.0, 0.0], math.inf, 1.0, "alpha and beta must be finite"),
            ([0.0, 0.0], 1.0, math.inf, "alpha and beta must be finite"),
            ([0.0, 0.0], math.nan, 1.0, "alpha and beta must be finite"),
        ],
        ids=["nan-mu", "inf-alpha", "inf-beta", "nan-alpha"],
    )
    def test_rejects_non_finite(self, mu, alpha, beta, complaint):
        with pytest.raises(ValueError, match=complaint):
            NormalGammaParams(mu=np.array(mu), lam=np.eye(2), alpha=alpha, beta=beta)

    @pytest.mark.parametrize(("mu", "lam"), [(0.0, 1.0), (np.zeros(0), np.zeros((0, 0)))], ids=["scalar", "empty"])
    def test_rejects_a_mu_that_is_no_nonempty_vector(self, mu, lam):
        with pytest.raises(ValueError, match="mu must be a p-vector, p >= 1"):
            NormalGammaParams(mu=mu, lam=lam, alpha=1.0, beta=1.0)

    def test_keeps_the_read_only_cholesky_factor(self):
        prior, _, _ = _random_case(4, degree=3)
        assert prior.chol.tobytes() == np.linalg.cholesky(prior.lam).tobytes()
        assert not prior.chol.flags.writeable

    def test_freezes_copies_not_the_callers_arrays(self):
        mu, lam = np.array([0.3, -1.7]), np.array([[2.0, 0.5], [0.5, 1.0]])  # C-contiguous float64
        params = NormalGammaParams(mu=mu, lam=lam, alpha=1.0, beta=1.0)
        assert mu.flags.writeable and lam.flags.writeable
        assert not params.mu.flags.writeable and not params.lam.flags.writeable
        assert params.mu.tobytes() == mu.tobytes() and params.lam.tobytes() == lam.tobytes()

    def test_keeps_log_determinant(self):
        prior, _, _ = _random_case(4, degree=3)
        assert prior.logdet_lam == pytest.approx(np.linalg.slogdet(prior.lam)[1], rel=1e-13)


class TestPosteriorUpdate:
    def test_single_datum_closed_values(self):
        # lam' = 1.001, mu' = 1/1.001, alpha' = 1, beta' = 0.5 + (1 - 1/1.001)/2,
        # confirmed against the brute-force integration oracle below
        prior = default_prior(ModelSpec(0))
        post = posterior_update(prior, DataSet([0.0], [1.0]))
        assert post.lam[0, 0] == pytest.approx(1.001, abs=1e-12)
        assert post.mu[0] == pytest.approx(0.999001, abs=1e-6)
        assert post.alpha == pytest.approx(1.0, abs=1e-15)
        assert post.beta == pytest.approx(0.5 + 0.5 * (1.0 - 1.0 / 1.001), abs=1e-12)

    def test_single_datum_against_grid_oracle(self):
        prior = default_prior(ModelSpec(0))
        post = posterior_update(prior, DataSet([0.0], [1.0]))
        grid = posterior_grid_summary([0.0], [[0.001]], 0.5, 0.5, [0.0], [1.0])
        assert post.mu[0] == pytest.approx(grid["mean"][0], abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sequential_equals_batch(self, seed):
        prior, spec, data = _random_case(seed, degree=1, n=8)
        head, tail = data.subset(range(3)), data.subset(range(3, 8))
        two_step = posterior_update(posterior_update(prior, head), tail)
        one_step = posterior_update(prior, data)
        np.testing.assert_allclose(two_step.mu, one_step.mu, atol=1e-10)
        np.testing.assert_allclose(two_step.lam, one_step.lam, atol=1e-10)
        assert two_step.alpha == pytest.approx(one_step.alpha, abs=1e-12)
        assert two_step.beta == pytest.approx(one_step.beta, abs=1e-10)

    @pytest.mark.parametrize("degree,n", [(0, 3), (1, 4)])
    def test_moments_match_grid_oracle(self, degree, n):
        rng = np.random.default_rng(degree * 10 + n)
        y1 = rng.uniform(-1, 1, n)
        y2 = rng.normal(1.2, 0.6, n)
        prior = NormalGammaParams(
            mu=np.full(degree + 1, 0.2),
            lam=0.7 * np.eye(degree + 1),
            alpha=1.4,
            beta=0.9,
        )
        spec = ModelSpec(degree)
        post = posterior_update(prior, DataSet(y1, y2))
        grid = posterior_grid_summary(prior.mu, prior.lam, prior.alpha, prior.beta, y1, y2)
        closed_var = post.beta / (post.alpha - 1.0) * np.diag(np.linalg.inv(post.lam))
        np.testing.assert_allclose(post.mu, grid["mean"], rtol=1e-6)
        np.testing.assert_allclose(closed_var, grid["var"], rtol=1e-6)


class TestLogEvidence:
    def test_single_datum_against_grid_oracle(self):
        prior = default_prior(ModelSpec(0))
        data = DataSet([0.0], [1.0])
        value = log_evidence(prior, data) - math.log(0.5)
        grid = posterior_grid_summary([0.0], [[0.001]], 0.5, 0.5, [0.0], [1.0])
        assert value == pytest.approx(grid["log_evidence"], abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_chain_rule(self, seed):
        prior, spec, data = _random_case(seed, degree=1, n=8)
        head, tail = data.subset(range(5)), data.subset(range(5, 8))
        post = posterior_update(prior, head)
        whole = log_evidence(prior, data)
        chained = log_evidence(prior, head) + log_evidence(post, tail)
        assert whole == pytest.approx(chained, abs=1e-9)


class TestPriorPredictive:
    def test_equals_evidence_bitwise(self):
        # log_density_batch at R = 1 is log_evidence, bit for bit
        prior, spec, data = _random_case(4, degree=2, n=7)
        assert _joint(prior, data) == log_evidence(prior, data)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_single_point_is_student_t(self, seed):
        # independent oracle: t with 2*alpha dof, loc mu'phi,
        # scale^2 = (beta/alpha) (1 + phi' lam^-1 phi), plus the uniform factor
        prior, spec, _ = _random_case(seed, degree=1, n=2)
        y1, y2 = 0.4, -0.3
        phi = np.array([1.0, y1])
        loc = float(prior.mu @ phi)
        scale = math.sqrt(
            prior.beta / prior.alpha * (1.0 + float(phi @ np.linalg.solve(prior.lam, phi)))
        )
        expected = stats.t.logpdf(y2, df=2 * prior.alpha, loc=loc, scale=scale) + math.log(0.5)
        value = _joint(prior, DataSet([y1], [y2]))
        assert value == pytest.approx(float(expected), abs=1e-10)

    @pytest.mark.parametrize("seed,block", [(1, 2), (2, 3)])
    def test_multi_point_block_is_multivariate_student_t(self, seed, block):
        prior, spec, data = _random_case(seed, degree=1, n=block)
        value = _joint(prior, data)
        expected = _mvt_logpdf(prior, spec, data.y1, data.y2) + block * math.log(0.5)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_joint_is_not_product_of_marginals(self):
        prior = default_prior(ModelSpec(0))
        spec = ModelSpec(0)
        pair = DataSet([0.0, 0.5], [0.3, -0.2])
        joint = _joint(prior, pair)
        marginals = sum(_joint(prior, pair.subset([i])) for i in range(2))
        assert abs(joint - marginals) > 1e-2

    def test_single_point_density_normalizes(self):
        # numeric integral over (y1, y2) of the exponentiated log density
        prior = default_prior(ModelSpec(1))
        spec = ModelSpec(1)

        def density(y2, y1):
            return math.exp(_joint(prior, DataSet([y1], [y2])))

        total, err = integrate.dblquad(density, -1.0, 1.0, -np.inf, np.inf, epsabs=1e-6)
        assert total == pytest.approx(1.0, abs=1e-5)


class TestPosteriorPredictive:
    @pytest.mark.parametrize("seed", range(4))
    def test_evidence_ratio_identity(self, seed):
        prior, spec, data = _random_case(seed, degree=1, n=9)
        train, new = data.subset(range(6)), data.subset(range(6, 9))
        post = posterior_update(prior, train)
        direct = _joint(post, new)
        ratio = log_evidence(prior, data) - log_evidence(prior, train)
        assert direct == pytest.approx(ratio, abs=1e-9)

    def test_single_point_is_student_t(self):
        prior, spec, data = _random_case(13, degree=1, n=6)
        post = posterior_update(prior, data)
        y1, y2 = -0.2, 0.9
        phi = np.array([1.0, y1])
        loc = float(post.mu @ phi)
        scale = math.sqrt(post.beta / post.alpha * (1.0 + float(phi @ np.linalg.solve(post.lam, phi))))
        expected = stats.t.logpdf(y2, df=2 * post.alpha, loc=loc, scale=scale) + math.log(0.5)
        value = _joint(post, DataSet([y1], [y2]))
        assert value == pytest.approx(float(expected), abs=1e-10)


class TestSamplePosterior:
    def test_moments(self):
        prior, spec, data = _random_case(2, degree=1, n=10)
        post = posterior_update(prior, data)
        draws = sample_posterior(post, count=100_000, seed=5)
        coeffs, tau = draws.coeffs, draws.precision
        # coefficient means within 4 standard errors of mu
        marg_var = post.beta / (post.alpha - 1.0) * np.diag(np.linalg.inv(post.lam))
        se = np.sqrt(marg_var / len(draws))
        assert np.all(np.abs(coeffs.mean(axis=0) - post.mu) < 4 * se)
        # gamma moments: mean alpha/beta, var alpha/beta^2
        tau_se = math.sqrt(post.alpha / post.beta**2 / len(draws))
        assert abs(tau.mean() - post.alpha / post.beta) < 4 * tau_se

    def test_determinism(self):
        prior, _, data = _random_case(3, degree=0, n=5)
        post = posterior_update(prior, data)
        a = sample_posterior(post, count=10, seed=1)
        b = sample_posterior(post, count=10, seed=1)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        np.testing.assert_array_equal(a.precision, b.precision)

    @pytest.mark.parametrize("count", [0, -3, 2.5, True])
    def test_rejects_a_count_that_is_no_count(self, count):
        prior, _, data = _random_case(3, degree=0, n=5)
        post = posterior_update(prior, data)
        with pytest.raises(ValueError, match="count must be an integer >= 1"):
            sample_posterior(post, count, seed=1)

    def test_posterior_mean_point(self):
        prior, _, data = _random_case(6, degree=1, n=6)
        post = posterior_update(prior, data)
        point = posterior_mean(post)
        np.testing.assert_array_equal(point.coeffs, post.mu[None])
        np.testing.assert_array_equal(point.precision, [post.alpha / post.beta])

    def test_batch_is_the_scaled_whitened_normal_bit_for_bit(self):
        # mu + L^-T z / sqrt(tau) from the same generator, L = chol(lam)
        prior, _, data = _random_case(8, degree=3, n=9)
        post = posterior_update(prior, data)
        draws = sample_posterior(post, count=50, seed=12)
        rng = np.random.default_rng(12)
        tau = rng.gamma(shape=post.alpha, scale=1.0 / post.beta, size=50)
        z = rng.standard_normal(size=(50, post.p))
        x = solve_triangular(np.linalg.cholesky(post.lam).T, z.T, lower=False).T
        assert draws.coeffs.shape == (50, post.p) and len(draws) == 50
        np.testing.assert_array_equal(draws.coeffs, post.mu + x / np.sqrt(tau)[:, None])
        np.testing.assert_array_equal(draws.precision, tau)
        assert not draws.coeffs.flags.writeable and not draws.precision.flags.writeable


class TestPosteriorSampleValidation:
    @pytest.mark.parametrize(
        ("coeffs", "precision"),
        [
            (np.zeros(3), np.ones(1)),  # 1-D coefficients
            (np.zeros((3, 2)), np.ones(2)),  # lengths differ
            (np.zeros((2, 2)), np.ones((2, 1))),  # 2-D precision
            (np.zeros((2, 2)), np.array([1.0, 0.0])),
            (np.zeros((2, 2)), np.array([1.0, -1.0])),
            (np.zeros((2, 2)), np.array([np.nan, 1.0])),
        ],
        ids=["1d-coeffs", "length-mismatch", "2d-precision", "zero-precision", "negative-precision", "nan-precision"],
    )
    def test_rejects(self, coeffs, precision):
        with pytest.raises(ValueError):
            PosteriorSample(coeffs=coeffs, precision=precision)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_coefficient(self, bad):
        with pytest.raises(ValueError, match="coeffs must be finite"):
            PosteriorSample(coeffs=np.array([[0.0, 1.0], [bad, 1.0]]), precision=np.ones(2))

    def test_freezes_copies_not_the_callers_arrays(self):
        coeffs, precision = np.array([[0.3, -1.7], [0.2, 0.9]]), np.array([2.0, 0.5])  # C-contiguous float64
        draws = PosteriorSample(coeffs=coeffs, precision=precision)
        assert coeffs.flags.writeable and precision.flags.writeable
        assert not draws.coeffs.flags.writeable and not draws.precision.flags.writeable
        assert draws.coeffs.tobytes() == coeffs.tobytes() and draws.precision.tobytes() == precision.tobytes()


class TestBatchEvidence:
    def test_rows_are_multivariate_student_t(self):
        # every row of an R = 6 batch against the direct multivariate-t
        # assembly, on random priors of degrees 0-4
        rng = np.random.default_rng(0)
        for degree in range(5):
            prior, spec, _ = _random_case(20 + degree, degree=degree, n=2)
            y1 = rng.uniform(-1, 1, size=(6, 4))
            y2 = rng.normal(0.0, 1.0, size=(6, 4))
            batch = prior.log_density_batch(y1, y2)
            assert batch.shape == (6,)
            for r in range(6):
                expected = _mvt_logpdf(prior, spec, y1[r], y2[r]) + 4 * math.log(0.5)
                assert batch[r] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("degree", range(6))
    def test_updated_precision_is_exactly_symmetric(self, degree):
        rng = np.random.default_rng(degree)
        prior = default_prior(ModelSpec(degree))
        for _ in range(50):
            lam_n = posterior_update(prior, DataSet(rng.uniform(-1, 1, size=12), rng.normal(size=12))).lam
            np.testing.assert_array_equal(lam_n, lam_n.T)

    def test_a_pivot_that_is_not_positive_raises(self):
        # a negative multiplicity makes lam' indefinite at the first or a
        # later pivot; a NaN point makes every pivot NaN
        spec = ModelSpec(2)
        prior = default_prior(spec)
        y1 = np.array([[-0.8, 0.1, 0.5, 0.9]])
        y2 = np.ones((1, 4))
        for weights in ([[1.0, -5.0, 1.0, 1.0]], [[1.0, 1.0, 1.0, -0.5]]):
            with pytest.raises(np.linalg.LinAlgError):
                _kernel(prior, y1, y2, np.array(weights))
        with pytest.raises(np.linalg.LinAlgError):
            prior.log_density_batch(np.array([[-0.8, np.nan, 0.5, 0.9]]), y2)

    def test_nearly_interpolating_data_keeps_beta_positive(self):
        # degree-4 data with sigma = 1e-8 around the prior mean, under a prior
        # with almost no rate: beta' is about 1e-16 while t^T t is about 100,
        # so only a form that is positive by construction can resolve it
        rng = np.random.default_rng(5)
        spec = ModelSpec(4)
        truth = np.array([0.5, -3.0, -4.0, 3.0, 6.0])
        prior = NormalGammaParams(mu=truth, lam=0.001 * np.eye(5), alpha=0.5, beta=1e-300)
        y1 = rng.uniform(-1, 1, size=(8, 12))
        y2 = np.polynomial.polynomial.polyval(y1, truth) + 1e-8 * rng.standard_normal((8, 12))
        _, _, _, beta_n = _kernel(prior, y1, y2)
        # beta' - beta is half the minimum over c of the residual sum of
        # squares plus (c - mu)^T lam (c - mu): at least half the least-squares
        # minimum, at most half the sum at c = mu
        phi = spec.design_matrix(y1)
        rss_min = np.array([np.linalg.lstsq(phi[r], y2[r], rcond=None)[1][0] for r in range(8)])
        rss_mu = np.sum((y2 - phi @ truth) ** 2, axis=1)
        assert np.all(rss_min > 0)
        assert np.all(0.5 * rss_min * (1 - 1e-4) <= beta_n) and np.all(beta_n <= 0.5 * rss_mu * (1 + 1e-4))
        evidence = prior.log_density_batch(y1, y2)
        assert np.all(np.isfinite(evidence))

    def test_results_do_not_alias_the_scratch_buffers(self):
        # a kept posterior survives later oracle and kernel calls, which
        # reuse the kernel's work arrays; of the kernel's results only the
        # power sums, which `posterior_update` copies, are the pool's
        spec = ModelSpec(4)
        prior = default_prior(spec)
        truth = GeneratorSpec(degree=4, coeffs=(0.5, -3.0, -4.0, 3.0, 6.0), sigma=0.5)
        kept = posterior_update(prior, sample_dataset(truth, 12, seed=1))
        mu, lam, beta = kept.mu.copy(), kept.lam.copy(), kept.beta
        exact_score_mc(truth, kept, 20_001, 12, seed=2)
        rng = np.random.default_rng(3)
        y1, y2 = rng.uniform(-1, 1, size=(7, 12)), rng.normal(size=(7, 12))
        prior.log_density_batch(y1, y2)
        np.testing.assert_array_equal(kept.mu, mu)
        np.testing.assert_array_equal(kept.lam, lam)
        assert kept.beta == beta
        pool = list(vars(datagen._pool).values())
        assert pool
        for r in (1, 7):
            for weights in (None, np.full((r, 12), 2.0)):
                sums, *fresh = _kernel(prior, y1[:r], y2[:r], weights)
                assert any(np.shares_memory(sums, buf) for buf in pool)
                for result in fresh:
                    assert not any(np.shares_memory(result, buf) for buf in pool)
