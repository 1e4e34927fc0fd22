import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from rpps import scores
from rpps.conjugate import (
    PluginGaussian,
    PosteriorSample,
    default_prior,
    log_evidence,
    posterior_mean,
    posterior_update,
    sample_posterior,
)
from rpps.datagen import DataSet, GeneratorSpec, sample_dataset
from rpps.linmodel import ModelSpec, RankDeficient, TooFewPoints, fit_mle, plugin_log_predictive
from rpps.scores import (
    AllResamplesDegenerate,
    Bootstrap,
    DegeneratePosterior,
    EstimatorKind,
    InferenceKind,
    NotFactorizing,
    PredictiveBuilder,
    aic,
    bootstrap_estimator,
    delta_estimator,
    dic,
    evidence_criterion,
    exact_score_mc,
    exact_score_quadrature,
    holdout_estimator,
    jackknife_estimator,
    log_odds,
    waic,
)

QUARTIC = GeneratorSpec(degree=4, coeffs=(0.5, -3.0, -4.0, 3.0, 6.0), sigma=0.5)
CONSTANT = GeneratorSpec(degree=0, coeffs=(0.5,), sigma=0.5)


def _mle(degree):
    return PredictiveBuilder(InferenceKind.MLE, ModelSpec(degree))


class TestExactScoreMc:
    def test_matched_standard_normal(self):
        # truth N(0,1) scored by the same plug-in: per-point score is
        # log 2 + (1/2) log(2 pi e) ~ 2.1121
        truth = GeneratorSpec(degree=0, coeffs=(0.0,), sigma=1.0)
        est = exact_score_mc(truth, PluginGaussian([0.0], 1.0), n_datasets=40_000, n_points=3, seed=0)
        expected = 3 * (math.log(2.0) + 0.5 * math.log(2 * math.pi * math.e))
        assert est.estimator == EstimatorKind.MONTE_CARLO_ENSEMBLE
        assert abs(est.value - expected) < 3 * est.std_error
        assert est.n_effective == 40_000

    def test_agrees_with_quadrature(self):
        predictive = PluginGaussian([0.3, -1.0], 0.4)
        mc = exact_score_mc(QUARTIC, predictive, n_datasets=100_000, n_points=5, seed=3)
        quad = exact_score_quadrature(QUARTIC, predictive, n_points=5)
        assert abs(mc.value - quad.value) < 3 * mc.std_error

    def test_se_scales_with_sqrt_r(self):
        predictive = PluginGaussian([0.0], 1.0)
        ses_r = [
            exact_score_mc(CONSTANT, predictive, 2_000, 4, seed).std_error for seed in range(6)
        ]
        ses_2r = [
            exact_score_mc(CONSTANT, predictive, 4_000, 4, seed).std_error for seed in range(6)
        ]
        ratio = np.mean(ses_r) / np.mean(ses_2r)
        assert abs(ratio - math.sqrt(2.0)) < 0.2 * math.sqrt(2.0)

    def test_rejects_tiny_ensembles(self):
        with pytest.raises(ValueError):
            exact_score_mc(CONSTANT, PluginGaussian([0.0], 1.0), n_datasets=1, n_points=3, seed=0)

    def test_draws_the_generating_stream_bit_for_bit(self):
        # the oracle's replicate measurements, over all its blocks, are the
        # points y1 ~ U(-1, 1), then y2 ~ N(mean_at(y1), sigma^2) as
        # rng.normal draws them
        class Recorder:
            def __init__(self):
                self.y1, self.y2 = [], []

            def log_density_batch(self, y1, y2):
                # the oracle overwrites each block with the next, so keep copies
                self.y1.append(y1.copy())
                self.y2.append(y2.copy())
                return np.zeros(len(y1))

        for truth, n_datasets in itertools.product((QUARTIC, CONSTANT), (300, 2 * scores._MC_BLOCK + 1, 20_001)):
            recorder = Recorder()
            exact_score_mc(truth, recorder, n_datasets=n_datasets, n_points=12, seed=11)
            rng = np.random.default_rng(11)
            y1 = rng.uniform(-1.0, 1.0, size=(n_datasets, 12))
            y2 = rng.normal(np.polynomial.polynomial.polyval(y1, truth.coeffs), truth.sigma)
            np.testing.assert_array_equal(np.concatenate(recorder.y1), y1)
            np.testing.assert_array_equal(np.concatenate(recorder.y2), y2)

    @pytest.mark.parametrize("n_datasets", [2, 3, 4095, 4096, 4097, 8193, 20_001])
    @pytest.mark.parametrize("degree", [0, 4])
    def test_blocks_equal_the_one_shot_ensemble(self, degree, n_datasets):
        # value and SE equal those of one draw scored as one batch
        spec = ModelSpec(degree)
        prior = default_prior(spec)
        for truth in (CONSTANT, QUARTIC):
            data = sample_dataset(truth, 12, seed=5)
            for predictive in (
                fit_mle(spec, data),
                prior,
                posterior_update(prior, data),
            ):
                y1, y2 = truth.draw(np.random.default_rng(9), (n_datasets, 12))
                reference = -predictive.log_density_batch(y1, y2)
                est = exact_score_mc(truth, predictive, n_datasets, 12, seed=9)
                assert est.value == float(np.mean(reference))
                assert est.std_error == float(np.std(reference, ddof=1) / math.sqrt(n_datasets))

    def test_memory_does_not_grow_with_the_ensemble(self):
        # a degree-4 posterior predictive at 10x the datasets: the blocks,
        # not the ensemble, set the peak
        spec = ModelSpec(4)
        prior = default_prior(spec)
        predictive = posterior_update(prior, sample_dataset(QUARTIC, 12, seed=1))
        peaks = []
        for n_datasets in (20_000, 200_000):
            tracemalloc.start()
            try:
                exact_score_mc(QUARTIC, predictive, n_datasets, 12, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 3 * peaks[0]

    def test_a_warm_call_allocates_little(self):
        # the blocks and the kernel's work arrays outlive the call, so after
        # one call a second allocates only its scores and each block's results
        spec = ModelSpec(4)
        prior = default_prior(spec)
        predictive = posterior_update(prior, sample_dataset(QUARTIC, 12, seed=1))
        exact_score_mc(QUARTIC, predictive, 20_000, 12, seed=2)
        tracemalloc.start()
        try:
            exact_score_mc(QUARTIC, predictive, 20_000, 12, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_threads_draw_into_their_own_buffers(self):
        # two concurrent oracles, each equal to its sequential result
        spec = ModelSpec(4)
        prior = default_prior(spec)
        predictive = posterior_update(prior, sample_dataset(QUARTIC, 12, seed=1))
        seeds = (5, 6)
        sequential = [exact_score_mc(QUARTIC, predictive, 20_001, 12, seed) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(exact_score_mc, QUARTIC, predictive, 20_001, 12, seed) for seed in seeds]
                concurrent = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == sequential

    def test_bayesian_predictive_supported(self):
        prior = default_prior(ModelSpec(0))
        est = exact_score_mc(CONSTANT, prior, n_datasets=500, n_points=4, seed=1)
        assert np.isfinite(est.value) and est.std_error > 0


class TestExactScoreQuadrature:
    def test_matched_fit_is_entropy(self):
        sigma = 0.7
        truth = GeneratorSpec(degree=1, coeffs=(0.2, -0.5), sigma=sigma)
        predictive = PluginGaussian([0.2, -0.5], sigma**2)
        est = exact_score_quadrature(truth, predictive, n_points=12)
        expected = 12 * (math.log(2.0) + 0.5 * math.log(2 * math.pi * math.e * sigma**2))
        assert est.value == pytest.approx(expected, rel=1e-12)
        assert est.std_error is None
        assert est.estimator == EstimatorKind.EXACT

    def test_constant_offset_adds_quadratic_term(self):
        sigma = 0.6
        truth = GeneratorSpec(degree=0, coeffs=(0.1,), sigma=sigma)
        base = exact_score_quadrature(truth, PluginGaussian([0.1], sigma**2), n_points=7)
        delta = 0.9
        off = exact_score_quadrature(truth, PluginGaussian([0.1 + delta], sigma**2), n_points=7)
        assert off.value - base.value == pytest.approx(7 * delta**2 / (2 * sigma**2), rel=1e-12)

    def test_rejects_bayesian_kinds(self):
        prior = default_prior(ModelSpec(0))
        with pytest.raises(NotFactorizing):
            exact_score_quadrature(CONSTANT, prior, n_points=5)

    @pytest.mark.parametrize("n_points", [0, -3, 2.5, True, "12"])
    def test_rejects_a_point_count_that_is_no_count(self, n_points):
        with pytest.raises(ValueError, match="n_points must be an integer >= 1"):
            exact_score_quadrature(CONSTANT, PluginGaussian([0.0], 1.0), n_points)

    def test_true_parameters_are_optimal_on_grid(self):
        truth = GeneratorSpec(degree=0, coeffs=(0.4,), sigma=0.8)
        best = exact_score_quadrature(truth, PluginGaussian([0.4], 0.64), n_points=1).value
        for dc in (-1.0, -0.3, 0.3, 1.0):
            for scale in (0.25, 0.5, 2.0, 4.0):
                perturbed = exact_score_quadrature(truth, PluginGaussian([0.4 + dc], 0.64 * scale), 1).value
                assert best <= perturbed + 1e-12


class TestDeltaEstimator:
    def test_prior_predictive_is_negated_evidence_bitwise(self):
        data = sample_dataset(CONSTANT, n=12, seed=2)
        spec = ModelSpec(0)
        prior = default_prior(spec)
        est = delta_estimator(prior, data)
        assert est.value == -log_evidence(prior, data)
        assert est.estimator == EstimatorKind.DELTA and est.std_error is None

    def test_plugin_single_point(self):
        est = delta_estimator(PluginGaussian([0.0], 1.0), DataSet([0.3], [0.0]))
        assert est.value == pytest.approx(math.log(2.0) + 0.5 * math.log(2 * math.pi), rel=1e-14)

    def test_difference_is_negated_log_odds(self):
        data = sample_dataset(QUARTIC, n=12, seed=6)
        ev0 = evidence_criterion(default_prior(ModelSpec(0)), data)
        ev4 = evidence_criterion(default_prior(ModelSpec(4)), data)
        d0 = delta_estimator(default_prior(ModelSpec(0)), data)
        d4 = delta_estimator(default_prior(ModelSpec(4)), data)
        assert d0.value - d4.value == -(log_odds(ev0, ev4).value)


class TestHoldout:
    def test_six_six_split_on_twelve_points(self):
        data = sample_dataset(QUARTIC, n=12, seed=10)
        est = holdout_estimator(_mle(0), data, 6, 6, seed=1)
        assert np.isfinite(est.value)
        assert est.estimator == EstimatorKind.HOLD_OUT and est.n_effective == 1

    def test_partition_must_cover_measurement(self):
        data = sample_dataset(QUARTIC, n=12, seed=10)
        with pytest.raises(ValueError):
            holdout_estimator(_mle(0), data, 5, 6, seed=1)
        with pytest.raises(ValueError):
            holdout_estimator(_mle(0), data, 12, 0, seed=1)

    def test_training_below_model_minimum(self):
        data = sample_dataset(QUARTIC, n=12, seed=10)
        with pytest.raises(TooFewPoints):
            holdout_estimator(_mle(4), data, 5, 7, seed=1)

    def test_degenerate_fit_engages_floor(self):
        # exact polynomial data: the training fit interpolates, sigma2 -> 0,
        # and the floored density keeps the validation score finite
        y1 = np.linspace(-0.9, 0.9, 12)
        y2 = np.polynomial.polynomial.polyval(y1, [0.3, -1.0, 0.5, 0.2, -0.4])
        data = DataSet(y1, y2)
        est = holdout_estimator(_mle(4), data, 6, 6, seed=0)
        assert np.isfinite(est.value)
        assert est.floor_engaged >= 1

    def test_deterministic_under_seed(self):
        data = sample_dataset(QUARTIC, n=12, seed=10)
        build = _mle(0)
        a = holdout_estimator(build, data, 6, 6, seed=4)
        b = holdout_estimator(build, data, 6, 6, seed=4)
        c = holdout_estimator(build, data, 6, 6, seed=5)
        assert a.value == b.value
        assert a.value != c.value


class TestJackknife:
    def test_loo_identity_on_plugin(self):
        truth = GeneratorSpec(degree=1, coeffs=(0.1, 0.9), sigma=0.5)
        data = sample_dataset(truth, n=9, seed=4)
        est = jackknife_estimator(_mle(1), data, k_folds=9, seed=3)
        explicit = 0.0
        for i in range(9):
            rest = [j for j in range(9) if j != i]
            fit = fit_mle(ModelSpec(1), data.subset(rest))
            explicit -= plugin_log_predictive(fit, data.subset([i]))
        assert est.value == pytest.approx(explicit, abs=1e-12)

    def test_six_folds_of_two_on_twelve_points(self):
        data = sample_dataset(QUARTIC, n=12, seed=12)
        est = jackknife_estimator(_mle(0), data, k_folds=6, seed=0)
        assert est.n_effective == 6
        assert np.isfinite(est.value)

    def test_fold_count_must_divide(self):
        data = sample_dataset(QUARTIC, n=12, seed=12)
        with pytest.raises(ValueError):
            jackknife_estimator(_mle(0), data, k_folds=5, seed=0)

    def test_complement_below_minimum(self):
        data = sample_dataset(QUARTIC, n=8, seed=12)
        with pytest.raises(TooFewPoints):
            jackknife_estimator(_mle(4), data, k_folds=2, seed=0)

    def test_order_and_seed_determinism(self):
        data = sample_dataset(QUARTIC, n=12, seed=12)
        build = _mle(0)
        a = jackknife_estimator(build, data, k_folds=6, seed=9)
        b = jackknife_estimator(build, data, k_folds=6, seed=9)
        assert a.value == b.value
        shuffled = data.subset(np.random.default_rng(1).permutation(12))
        c = jackknife_estimator(build, shuffled, k_folds=6, seed=9)
        assert c.value != a.value  # fold membership changed


class _ConstantPerPointBuilder:
    """A fold kernel whose log density is -1 per validation point and whose
    folds are all usable, isolating the estimators' scaling."""

    min_train_size = 0

    def score_folds(self, data, train, valid):
        r = len(valid)
        return -np.count_nonzero(valid, axis=1).astype(float), np.zeros(r, bool), np.ones(r, bool)


class TestBootstrap:
    def test_empty_oob_only_resample_degenerates(self):
        data = DataSet([0.1], [1.0])
        with pytest.raises(AllResamplesDegenerate):
            bootstrap_estimator(_ConstantPerPointBuilder(), data, Bootstrap(b_resamples=1, seed=0))

    def test_oob_fraction_matches_combinatorics(self):
        # enumeration oracle: P(point out of bag) = (1 - 1/N)^N; for N = 12
        # that is ~0.352 (the complementary 0.648 is the in-bag fraction)
        n = 12
        rng = np.random.default_rng(0)
        fractions = []
        for _ in range(4000):
            draw = rng.integers(0, n, size=n)
            fractions.append(1.0 - np.unique(draw).size / n)
        expected = (1.0 - 1.0 / n) ** n
        assert np.mean(fractions) == pytest.approx(expected, abs=0.005)
        assert expected == pytest.approx(0.352, abs=5e-4)

    def test_scaling_across_resamples(self):
        # with a constant per-point density the rescaled value is exactly N
        data = sample_dataset(CONSTANT, n=12, seed=0)
        est = bootstrap_estimator(_ConstantPerPointBuilder(), data, Bootstrap(b_resamples=50, seed=1))
        assert est.value == pytest.approx(12.0, abs=1e-12)
        assert est.n_effective == 50

    def test_se_scales_with_sqrt_b(self):
        data = sample_dataset(QUARTIC, n=12, seed=5)
        build = _mle(0)
        ses_b = [
            bootstrap_estimator(build, data, Bootstrap(100, seed)).std_error for seed in range(6)
        ]
        ses_4b = [
            bootstrap_estimator(build, data, Bootstrap(400, seed)).std_error for seed in range(6)
        ]
        ratio = np.mean(ses_b) / np.mean(ses_4b)
        assert abs(ratio - 2.0) < 0.4

    def test_floor_counts_kept_resamples_only(self):
        # constant y2: every fit interpolates and engages the floor, but
        # resamples with an empty out-of-bag set are dropped and not counted
        data = DataSet([-0.5, 0.1, 0.7], [0.3, 0.3, 0.3])
        est = bootstrap_estimator(_mle(0), data, Bootstrap(b_resamples=60, seed=4))
        assert 0 < est.n_effective < 60
        assert est.floor_engaged == est.n_effective

    def test_bayesian_adapter_runs(self):
        data = sample_dataset(CONSTANT, n=12, seed=8)
        build = PredictiveBuilder(InferenceKind.POSTERIOR_PREDICTIVE, ModelSpec(0))
        est = bootstrap_estimator(build, data, Bootstrap(25, seed=2))
        assert np.isfinite(est.value) and est.n_effective == 25


@pytest.mark.parametrize(
    ("estimate", "rows"),
    [
        (lambda build, data: holdout_estimator(build, data, 6, 6, seed=1), 1),
        (lambda build, data: jackknife_estimator(build, data, 6, seed=1), 6),
        (lambda build, data: bootstrap_estimator(build, data, Bootstrap(40, seed=1)), 40),
    ],
    ids=["holdout", "jackknife", "bootstrap"],
)
def test_prior_predictive_folds_take_one_evidence_row_each(monkeypatch, estimate, rows):
    # the prior predictive trains on nothing: fold r is the evidence of its
    # validation points alone, one kernel row, with no training-only rows
    shapes = []
    original = scores._evidence_batch

    def recording(params, y1, y2, weights=None):
        shapes.append((np.shape(y1), np.shape(weights)))
        return original(params, y1, y2, weights)

    monkeypatch.setattr(scores, "_evidence_batch", recording)
    build = PredictiveBuilder(InferenceKind.PRIOR_PREDICTIVE, ModelSpec(2))
    estimate(build, sample_dataset(QUARTIC, n=12, seed=3))
    assert shapes == [((rows, 12), (rows, 12))]


class TestUnusableFold:
    # three points share y1 = 0.5, so a line fit on them alone is rank-deficient
    DATA = DataSet([0.5, 0.5, 0.5, -0.2], [1.0, 1.3, 0.8, 0.1])

    def test_jackknife_raises(self):
        with pytest.raises(RankDeficient):
            jackknife_estimator(_mle(1), self.DATA, k_folds=4, seed=0)

    def test_bootstrap_skips_the_resample(self):
        est = bootstrap_estimator(_mle(1), self.DATA, Bootstrap(b_resamples=100, seed=0))
        # usable resamples leave one point out of bag and keep the last point
        draws = [set(d) for d in np.random.default_rng(0).integers(0, 4, size=(100, 4))]
        assert any(len(d) == 3 and 3 not in d for d in draws)
        assert est.n_effective == sum(len(d) == 3 and 3 in d for d in draws)


class TestAic:
    def test_hand_computed_degree0(self):
        data = DataSet([0.1, -0.4, 0.8], [1.0, 2.0, 3.0])
        fit = fit_mle(ModelSpec(0), data)
        # independent hand computation: mean 2, sigma2 = 2/3, SSR = 2
        sigma2 = 2.0 / 3.0
        nll = 3 * math.log(2.0) + 1.5 * math.log(2 * math.pi * sigma2) + 2.0 / (2 * sigma2)
        crit = aic(fit, data)
        assert crit.value == pytest.approx(nll + 2.0, rel=1e-12)

    def test_nested_models_with_equal_likelihood_differ_by_degree(self):
        # symmetric construction: the degree-1 slope is exactly zero, so both
        # fits have identical maximized likelihood
        data = DataSet([-0.6, 0.6, -0.2, 0.2], [1.0, 1.0, 2.0, 2.0])
        a0 = aic(fit_mle(ModelSpec(0), data), data)
        a1 = aic(fit_mle(ModelSpec(1), data), data)
        assert a1.value - a0.value == pytest.approx(1.0, abs=1e-9)

    def test_identity_with_delta(self):
        data = sample_dataset(QUARTIC, n=12, seed=1)
        fit = fit_mle(ModelSpec(2), data)
        crit = aic(fit, data)
        est = delta_estimator(fit, data)
        assert crit.value - est.value == 4.0  # degree + 2 parameters


class TestWaicDic:
    @staticmethod
    def _posterior_and_data(seed=0, degree=1, n=12):
        truth = GeneratorSpec(degree=degree, coeffs=tuple([0.4] * (degree + 1)), sigma=0.6)
        data = sample_dataset(truth, n=n, seed=seed)
        spec = ModelSpec(degree)
        posterior = posterior_update(default_prior(spec), data)
        return spec, posterior, data

    def test_degenerate_posterior_reduces_waic_to_dic(self):
        spec, posterior, data = self._posterior_and_data()
        point = posterior_mean(posterior)
        samples = PosteriorSample(np.repeat(point.coeffs, 10, axis=0), np.repeat(point.precision, 10))
        w = waic(samples, data)
        d = dic(samples, point, data)
        direct = -sum(
            math.log(0.5)
            + float(stats.norm.logpdf(y2, float(point.coeffs[0] @ [1.0, y1]), 1 / math.sqrt(point.precision[0])))
            for y1, y2 in zip(data.y1, data.y2)
        )
        assert abs(w.value - d.value) < 1e-10
        assert w.value == pytest.approx(direct, abs=1e-9)

    def test_waic_log_mean_term_matches_analytic_posterior_predictive(self):
        spec, posterior, data = self._posterior_and_data(seed=3, n=8)
        samples = sample_posterior(posterior, count=100_000, seed=4)
        coeffs, tau = samples.coeffs, samples.precision
        phi = spec.design_matrix(data.y1)
        lik = 0.5 * np.exp(
            -0.5 * np.log(2 * np.pi) + 0.5 * np.log(tau)[:, None]
            - 0.5 * tau[:, None] * (data.y2 - coeffs @ phi.T) ** 2
        )
        for j in range(len(data)):
            mean_hat = float(np.mean(lik[:, j]))
            se = float(np.std(lik[:, j], ddof=1) / math.sqrt(lik.shape[0]))
            analytic = math.exp(
                log_evidence(posterior, data.subset([j]))
            )
            assert abs(mean_hat - analytic) < 3 * se

    def test_sample_permutation_invariance(self):
        spec, posterior, data = self._posterior_and_data(seed=5)
        samples = sample_posterior(posterior, count=64, seed=6)
        order = np.random.default_rng(0).permutation(64)
        perm = PosteriorSample(samples.coeffs[order], samples.precision[order])
        assert waic(samples, data).value == pytest.approx(
            waic(perm, data).value, abs=1e-12
        )
        point = posterior_mean(posterior)
        assert dic(samples, point, data).value == pytest.approx(
            dic(perm, point, data).value, abs=1e-12
        )

    def test_requires_two_samples(self):
        spec, posterior, data = self._posterior_and_data(seed=7)
        sample = sample_posterior(posterior, count=1, seed=0)
        with pytest.raises(DegeneratePosterior):
            waic(sample, data)
        with pytest.raises(DegeneratePosterior):
            dic(sample, posterior_mean(posterior), data)

    def test_dic_rejects_a_point_estimate_of_several_draws(self):
        spec, posterior, data = self._posterior_and_data(seed=8)
        samples = sample_posterior(posterior, count=5, seed=1)
        with pytest.raises(ValueError, match="one draw"):
            dic(samples, samples, data)

    def test_criteria_match_per_draw_loops(self):
        # S = 1000 draws, one scipy log density per (draw, point)
        spec, posterior, data = self._posterior_and_data(seed=9, degree=2)
        s_count = 1000
        samples = sample_posterior(posterior, count=s_count, seed=2)
        point = posterior_mean(posterior)

        def loglik(coeffs, tau):
            return [
                math.log(0.5) + float(stats.norm.logpdf(y2, np.polyval(coeffs[::-1], y1), 1 / math.sqrt(tau)))
                for y1, y2 in zip(data.y1, data.y2)
            ]

        per_draw = np.array([loglik(c, t) for c, t in zip(samples.coeffs, samples.precision)])
        at_hat = np.array(loglik(point.coeffs[0], point.precision[0]))
        lppd = sum(math.log(sum(math.exp(v) for v in column) / s_count) for column in per_draw.T)
        p_waic = sum(float(np.var(column, ddof=1)) for column in per_draw.T)
        p_dic = 2 * sum(at_hat[j] - sum(per_draw[:, j]) / s_count for j in range(len(data)))
        assert waic(samples, data).value == pytest.approx(-(lppd - p_waic), abs=1e-12)
        assert dic(samples, point, data).value == pytest.approx(-(sum(at_hat) - p_dic), abs=1e-12)

    @pytest.mark.parametrize("s_count", [2, 1000])
    def test_log_mean_exp_is_logsumexp_less_log_s(self, s_count):
        # each row's draws spread over 740 nats below a level where a plain
        # exp underflows (-1500, -800) or overflows (800, 1500); so wide a
        # spread also overflows exp(row - min), a shift by the wrong extreme
        rng = np.random.default_rng(s_count)
        levels = np.repeat([-1500.0, -800.0, 800.0, 1500.0], 5)[:, None]
        loglik = levels - rng.uniform(0.0, 740.0, size=(levels.size, s_count))
        loglik[:, 0], loglik[:, -1] = levels[:, 0], levels[:, 0] - 740.0
        with np.errstate(over="ignore", divide="ignore"):
            assert not np.isfinite(np.log(np.mean(np.exp(loglik), axis=1))).any()
        reference = logsumexp(loglik, axis=1) - math.log(s_count)
        np.testing.assert_allclose(scores._log_mean_exp(loglik), reference, rtol=1e-12, atol=0)

    def test_dic_penalty_nonnegative_in_expectation(self):
        # reported, not asserted: the penalty at the posterior mean
        penalties = []
        for seed in range(5):
            spec, posterior, data = self._posterior_and_data(seed=seed)
            samples = sample_posterior(posterior, count=4000, seed=seed)
            point = posterior_mean(posterior)
            base = -sum(
                math.log(0.5)
                + float(
                    stats.norm.logpdf(
                        y2, float(point.coeffs[0] @ [1.0, y1]), 1 / math.sqrt(point.precision[0])
                    )
                )
                for y1, y2 in zip(data.y1, data.y2)
            )
            penalties.append(dic(samples, point, data).value - base)
        print(f"DIC penalty across seeds (expected nonnegative): {penalties}")


class TestSerialization:
    def test_score_estimate_record(self):
        data = sample_dataset(CONSTANT, n=12, seed=3)
        est = bootstrap_estimator(_mle(0), data, Bootstrap(20, seed=0))
        record = est.to_json_dict()
        assert set(record) == {"estimator", "value", "std_error", "n_effective", "floor_engaged"}
        assert record["estimator"] == "bootstrap"

    def test_criterion_record(self):
        data = sample_dataset(CONSTANT, n=12, seed=3)
        crit = evidence_criterion(default_prior(ModelSpec(0)), data)
        assert crit.to_json_dict() == {"criterion": "log_evidence", "value": crit.value}
