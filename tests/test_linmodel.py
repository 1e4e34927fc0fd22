import dataclasses
import math

import numpy as np
import pytest

from rpps.datagen import DataSet, GeneratorSpec, sample_dataset
from rpps.linmodel import (
    ModelSpec,
    PluginGaussian,
    RankDeficient,
    TooFewPoints,
    _least_squares,
    fit_mle,
    plugin_log_predictive,
)


def test_model_spec_validation_and_json():
    with pytest.raises(ValueError):
        ModelSpec(degree=-1)
    for bad in (0.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="degree must be an integer"):
            ModelSpec.from_json_dict({"degree": bad})
    assert ModelSpec(np.int64(2)).n_coeffs == 3
    spec = ModelSpec(degree=4)
    assert spec.min_fit_size == 6
    assert ModelSpec.from_json_dict(dataclasses.asdict(spec)) == spec


class TestFitMle:
    def test_degree0_closed_form(self):
        data = DataSet([0.1, -0.4, 0.8], [1.0, 2.0, 3.0])
        fit = fit_mle(ModelSpec(0), data)
        assert fit.coeffs[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.sigma2 == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_exact_polynomial_recovery(self):
        # degree-2 data on 3 distinct y1 plus one repeat, zero noise
        coeffs = (0.5, -1.25, 2.0)
        y1 = np.array([-0.8, 0.1, 0.7, 0.1])
        y2 = np.polynomial.polynomial.polyval(y1, coeffs)
        fit = fit_mle(ModelSpec(2), DataSet(y1, y2))
        np.testing.assert_allclose(fit.coeffs, coeffs, atol=1e-10)
        assert fit.sigma2 < 1e-20

    def test_matches_direct_normal_equations_degree1(self):
        # independent 2x2 oracle: [[n, Sx], [Sx, Sxx]] [a b]' = [Sy, Sxy]'
        rng = np.random.default_rng(42)
        y1 = rng.uniform(-1, 1, 20)
        y2 = rng.normal(0.3 + 1.7 * y1, 0.5)
        n, sx, sxx = len(y1), y1.sum(), (y1**2).sum()
        sy, sxy = y2.sum(), (y1 * y2).sum()
        det = n * sxx - sx * sx
        expected = np.array([(sy * sxx - sx * sxy) / det, (n * sxy - sx * sy) / det])
        fit = fit_mle(ModelSpec(1), DataSet(y1, y2))
        np.testing.assert_allclose(fit.coeffs, expected, atol=1e-10)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_mle(ModelSpec(4), DataSet([0.0] * 5, [1.0] * 5))

    def test_rank_deficient(self):
        data = DataSet([0.5, 0.5, 0.5, 0.5], [1.0, 2.0, 1.5, 0.5])
        with pytest.raises(RankDeficient):
            fit_mle(ModelSpec(1), data)

    def test_residuals_orthogonal_to_basis(self):
        truth = GeneratorSpec(degree=3, coeffs=(0.1, 1.0, -0.5, 2.0), sigma=0.4)
        data = sample_dataset(truth, n=40, seed=1)
        fit = fit_mle(ModelSpec(3), data)
        phi = ModelSpec(3).design_matrix(data.y1)
        resid = data.y2 - phi @ fit.coeffs
        scale = float(np.abs(data.y2).max())
        assert np.all(np.abs(phi.T @ resid) < 1e-8 * scale)

    def test_refit_on_duplicated_point_is_optimal(self):
        truth = GeneratorSpec(degree=1, coeffs=(0.2, 1.0), sigma=0.6)
        data = sample_dataset(truth, n=10, seed=3)
        union = data.subset([*range(10), 4])
        base = fit_mle(ModelSpec(1), data)
        refit = fit_mle(ModelSpec(1), union)
        phi = ModelSpec(1).design_matrix(union.y1)
        loss_refit = float(np.sum((union.y2 - phi @ refit.coeffs) ** 2))
        loss_base = float(np.sum((union.y2 - phi @ base.coeffs) ** 2))
        assert loss_refit <= loss_base + 1e-12


@pytest.mark.parametrize("degree", range(6))
def test_fit_mean_is_polyval_bit_for_bit(degree):
    rng = np.random.default_rng(degree)
    fit = PluginGaussian(coeffs=rng.normal(size=degree + 1), sigma2=1.0)
    for y1 in (-0.7, rng.uniform(-1, 1, size=12), rng.uniform(-1, 1, size=(50, 12))):
        mean = fit.mean_at(y1)
        assert np.shape(mean) == np.shape(y1)
        np.testing.assert_array_equal(mean, np.polynomial.polynomial.polyval(y1, fit.coeffs))


class TestDesignMatrix:
    @pytest.mark.parametrize("degree", range(6))
    def test_stacked_rows_are_vander_bit_for_bit(self, degree):
        y1 = np.random.default_rng(degree).uniform(-1, 1, size=(7, 12))
        spec = ModelSpec(degree)
        stacked = spec.design_matrix(y1)
        assert stacked.shape == (7, 12, degree + 1)
        for row, phi in zip(y1, stacked):
            np.testing.assert_array_equal(phi, np.vander(row, degree + 1, increasing=True))
            np.testing.assert_array_equal(spec.design_matrix(row), phi)
        np.testing.assert_array_equal(spec.design_matrix(y1.reshape(7, 3, 4)), stacked.reshape(7, 3, 4, -1))

    def test_list_and_scalar_input(self):
        spec = ModelSpec(2)
        np.testing.assert_array_equal(spec.design_matrix([0.5, -2.0]), [[1.0, 0.5, 0.25], [1.0, -2.0, 4.0]])
        np.testing.assert_array_equal(spec.design_matrix(3.0), [1.0, 3.0, 9.0])


class TestStackedLeastSquares:
    def test_rank_rule_at_the_threshold(self):
        # diagonal 6 x 2 designs with singular values 1 and t: the second
        # counts only above eps * max(m, p) = 6 eps, as it does for lstsq
        eps = np.finfo(float).eps
        small = [0.5 * eps, 3.0 * eps, 12.0 * eps]
        phi = np.zeros((3, 6, 2))
        phi[:, 0, 0] = 1.0
        phi[:, 1, 1] = small
        y2 = np.zeros((3, 6))
        y2[:, :2] = 1.0
        coeffs, sigma2, rank = _least_squares(phi, y2)
        assert rank.tolist() == [1, 1, 2]
        for j in range(3):
            assert rank[j] == np.linalg.lstsq(phi[j], y2[j], rcond=6 * eps)[2]
        # minimum norm where the small direction is dropped, exact otherwise
        np.testing.assert_allclose(coeffs, [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0 / small[2]]], rtol=1e-15)
        np.testing.assert_allclose(sigma2, [1 / 6, 1 / 6, 0.0], rtol=1e-15, atol=1e-30)


    @pytest.mark.parametrize(("r", "m", "p"), [(1, 12, 1), (6, 10, 3), (400, 6, 5), (3, 7, 7)])
    def test_sigma2_is_the_mean_squared_residual_bit_for_bit(self, r, m, p):
        rng = np.random.default_rng(r * m * p)
        phi, y2 = rng.normal(size=(r, m, p)), rng.normal(size=(r, m))
        coeffs, sigma2, _ = _least_squares(phi, y2)
        resid = y2 - (phi @ coeffs[..., None])[..., 0]
        assert sigma2.tobytes() == np.mean(resid**2, axis=1).tobytes()


class TestPluginGaussian:
    @pytest.mark.parametrize(
        ("coeffs", "sigma2"),
        [(np.zeros((2, 2)), 1.0), (np.zeros(0), 1.0), (np.zeros(2), -1e-300)],
        ids=["2d-coeffs", "empty-coeffs", "negative-sigma2"],
    )
    def test_rejects(self, coeffs, sigma2):
        with pytest.raises(ValueError):
            PluginGaussian(coeffs=coeffs, sigma2=sigma2)

    def test_coeffs_are_read_only_and_contiguous(self):
        source = np.arange(6.0)[::2]
        fit = PluginGaussian(coeffs=source, sigma2=0.0)
        assert fit.coeffs.flags.c_contiguous and not fit.coeffs.flags.writeable
        source[0] = 9.0
        assert fit.coeffs.tolist() == [0.0, 2.0, 4.0]

    def test_freezes_a_copy_not_the_callers_coeffs(self):
        source = np.array([0.3, -1.7])  # C-contiguous float64
        fit = PluginGaussian(coeffs=source, sigma2=1.0)
        assert source.flags.writeable and not fit.coeffs.flags.writeable
        assert fit.coeffs.tobytes() == source.tobytes()

    @pytest.mark.parametrize(
        ("coeffs", "sigma2", "field"),
        [
            ([0.0, math.nan], 1.0, "coeffs"),
            ([math.inf], 1.0, "coeffs"),
            ([0.0], math.nan, "sigma2"),
            ([0.0], math.inf, "sigma2"),
        ],
        ids=["nan-coeff", "inf-coeff", "nan-sigma2", "inf-sigma2"],
    )
    def test_rejects_non_finite(self, coeffs, sigma2, field):
        # a non-finite parameter is no predictive, so it never yields a NaN score
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PluginGaussian(coeffs=np.array(coeffs), sigma2=sigma2)


class TestPluginLogPredictive:
    def test_standard_normal_at_mode(self):
        fit = PluginGaussian(coeffs=np.array([0.0]), sigma2=1.0)
        value = plugin_log_predictive(fit, DataSet([0.0], [0.0]))
        assert value == pytest.approx(math.log(0.5) - 0.5 * math.log(2 * math.pi), rel=1e-15)

    def test_matches_per_point_sum(self):
        truth = GeneratorSpec(degree=2, coeffs=(0.0, 1.0, -1.0), sigma=0.8)
        data = sample_dataset(truth, n=15, seed=8)
        new = sample_dataset(truth, n=9, seed=9)
        fit = fit_mle(ModelSpec(2), data)
        total = plugin_log_predictive(fit, new)
        per_point = sum(plugin_log_predictive(fit, new.subset([i])) for i in range(len(new)))
        assert total == pytest.approx(per_point, abs=1e-12)

    def test_permutation_invariance(self):
        truth = GeneratorSpec(degree=1, coeffs=(0.3, -0.7), sigma=0.5)
        data = sample_dataset(truth, n=12, seed=21)
        fit = fit_mle(ModelSpec(1), sample_dataset(truth, n=12, seed=22))
        perm = np.random.default_rng(0).permutation(12)
        assert plugin_log_predictive(fit, data) == pytest.approx(
            plugin_log_predictive(fit, data.subset(perm)), abs=1e-12
        )

    def test_nested_degrees_never_fit_worse_in_sample(self):
        truth = GeneratorSpec(degree=4, coeffs=(0.5, -3.0, -4.0, 3.0, 6.0), sigma=0.5)
        data = sample_dataset(truth, n=12, seed=17)
        values = [
            plugin_log_predictive(fit_mle(ModelSpec(d), data), data) for d in range(5)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-10
