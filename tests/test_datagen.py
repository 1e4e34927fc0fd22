import math

import numpy as np
import pytest

from rpps.datagen import (
    DataSet,
    GeneratorSpec,
    OutsideSupport,
    frozen_copy,
    horner,
    read_dataset_csv,
    sample_dataset,
    true_log_density,
    write_dataset_csv,
)

QUARTIC = GeneratorSpec(degree=4, coeffs=(0.5, -3.0, -4.0, 3.0, 6.0), sigma=0.5)


class TestGeneratorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(degree=2, coeffs=(1.0, 2.0), sigma=1.0)
        with pytest.raises(ValueError):
            GeneratorSpec(degree=0, coeffs=(1.0,), sigma=0.0)
        with pytest.raises(ValueError):
            GeneratorSpec(degree=-1, coeffs=(), sigma=1.0)

    def test_json_round_trip(self):
        again = GeneratorSpec.from_json_dict(QUARTIC.to_json_dict())
        assert again == QUARTIC

    @pytest.mark.parametrize(
        ("fields", "complaint"),
        [
            ({"degree": 2, "coeffs": "123", "sigma": 0.5}, "coeffs must be a list or tuple of real numbers"),
            ({"degree": 0, "coeffs": 0.5, "sigma": 0.5}, "coeffs must be a list or tuple of real numbers"),
            ({"degree": 0, "coeffs": [True], "sigma": 0.5}, "coeffs must be a list or tuple of real numbers"),
            ({"degree": 0, "coeffs": ["0.5"], "sigma": 0.5}, "coeffs must be a list or tuple of real numbers"),
            ({"degree": 0, "coeffs": [0.5], "sigma": "0.5"}, "sigma must be a real number, got '0.5'"),
            ({"degree": 0, "coeffs": [0.5], "sigma": True}, "sigma must be a real number, got True"),
            ({"degree": 0, "coeffs": [0.5]}, r"missing generator spec keys: \['sigma'\]"),
            (None, "generator spec must be a JSON object, got None"),
        ],
        ids=[
            "string-coeffs",
            "number-coeffs",
            "bool-coefficient",
            "string-coefficient",
            "string-sigma",
            "bool-sigma",
            "missing-sigma",
            "null-spec",
        ],
    )
    def test_json_types_are_checked_not_coerced(self, fields, complaint):
        with pytest.raises(ValueError, match=complaint):
            GeneratorSpec.from_json_dict(fields)

    def test_integers_are_real_numbers(self):
        spec = GeneratorSpec.from_json_dict({"degree": 1, "coeffs": [1, 2], "sigma": 1})
        assert spec == GeneratorSpec(1, (1.0, 2.0), 1.0)
        assert spec.to_json_dict() == {"degree": 1, "coeffs": [1.0, 2.0], "sigma": 1.0}

    def test_mean_is_polynomial(self):
        y1 = np.array([-1.0, 0.0, 0.5])
        expected = [sum(c * x**k for k, c in enumerate(QUARTIC.coeffs)) for x in y1]
        np.testing.assert_allclose(QUARTIC.mean_at(y1), expected, rtol=1e-14)

    @pytest.mark.parametrize("degree", range(6))
    def test_mean_is_polyval_bit_for_bit(self, degree):
        rng = np.random.default_rng(degree)
        spec = GeneratorSpec(degree, tuple(rng.normal(size=degree + 1)), 1.0)
        for y1 in (0.3, rng.uniform(-1, 1, size=12), rng.uniform(-1, 1, size=(50, 12))):
            mean = spec.mean_at(y1)
            assert np.shape(mean) == np.shape(y1)
            np.testing.assert_array_equal(mean, np.polynomial.polynomial.polyval(y1, spec.coeffs))

    @pytest.mark.parametrize(
        "coeffs",
        [(0.7,), (-1.5,), (0.3, 0.0), (0.3, -2.0, 0.0), (1.0, 2.0, 0.0, 0.0)],
        ids=["degree-0", "negative-degree-0", "zero-leading-linear", "zero-leading-quadratic", "two-zero-leading"],
    )
    def test_horner_is_polyval_bit_for_bit(self, coeffs):
        y1 = np.random.default_rng(0).uniform(-1, 1, size=(50, 12))
        expected = np.polynomial.polynomial.polyval(y1, coeffs)
        np.testing.assert_array_equal(horner(y1, coeffs), expected)
        # per-row coefficient columns, as the conjugate kernel passes them, into `out`
        out = np.empty_like(y1)
        assert horner(y1, [np.full((50, 1), c) for c in coeffs], out=out) is out
        np.testing.assert_array_equal(out, expected)
        # a 1-D y1 against (R, 1) columns gives the (R, n) table, as the fold kernel asks it
        columns = np.random.default_rng(1).normal(size=(len(coeffs), 40, 1))
        table = np.polynomial.polynomial.polyval(y1[0], columns[..., 0])
        np.testing.assert_array_equal(horner(y1[0], columns), table)

    @pytest.mark.parametrize("degree", range(6))
    def test_horner_differs_from_polyval_only_in_the_sign_of_a_zero(self, degree):
        # the one documented difference: every coefficient -0.0 at degree >= 1
        y1 = np.concatenate([[-0.0, 0.0], np.random.default_rng(degree).uniform(-1, 1, size=40)])
        coeffs = (-0.0,) * (degree + 1)
        result, expected = horner(y1, coeffs), np.polynomial.polynomial.polyval(y1, coeffs)
        np.testing.assert_array_equal(result, expected)
        np.testing.assert_array_equal(result, 0.0)
        differs = np.signbit(result) != np.signbit(expected)
        assert differs.any() == (degree >= 1)
        # a single +0.0 coefficient among them makes horner bit for bit polyval again
        for k in range(degree + 1):
            mixed = coeffs[:k] + (0.0,) + coeffs[k + 1 :]
            assert horner(y1, mixed).tobytes() == np.polynomial.polynomial.polyval(y1, mixed).tobytes()


class TestSampleDataset:
    def test_twelve_point_draw(self):
        data = sample_dataset(QUARTIC, n=12, seed=123)
        assert len(data) == 12
        assert np.all(data.y1 >= -1.0) and np.all(data.y1 <= 1.0)

    def test_determinism_bitwise(self):
        a = sample_dataset(QUARTIC, n=50, seed=7)
        b = sample_dataset(QUARTIC, n=50, seed=7)
        assert a == b
        assert a != sample_dataset(QUARTIC, n=50, seed=8)

    def test_zero_noise_degeneracy(self):
        spec = GeneratorSpec(degree=0, coeffs=(0.7,), sigma=1e-300)
        data = sample_dataset(spec, n=3, seed=0)
        # the noise is below float resolution around 0.7
        np.testing.assert_array_equal(data.y2, 0.7)

    @pytest.mark.parametrize("degree", range(6))
    def test_stream_is_uniform_then_normal(self, degree):
        # every rows.csv rests on this stream: y1 first, then y2 around the mean
        rng = np.random.default_rng(100 + degree)
        spec = GeneratorSpec(degree, tuple(rng.normal(size=degree + 1)), float(rng.uniform(0.1, 2.0)))
        data = sample_dataset(spec, n=12, seed=degree)
        rng = np.random.default_rng(degree)
        y1 = rng.uniform(-1.0, 1.0, 12)
        y2 = rng.normal(np.polynomial.polynomial.polyval(y1, spec.coeffs), spec.sigma)
        np.testing.assert_array_equal(data.y1, y1)
        np.testing.assert_array_equal(data.y2, y2)
        # the Monte Carlo oracle's batch of measurements is the same stream
        y1, y2 = spec.draw(np.random.default_rng(degree), (3, 4))
        np.testing.assert_array_equal(y1.ravel(), data.y1)
        np.testing.assert_array_equal(y2.ravel(), data.y2)

    @pytest.mark.parametrize("n_rows", [1, 15, 16, 17, 31, 32, 33, 47, 48, 100])
    def test_blocks_are_one_draw_bit_for_bit(self, n_rows):
        # the quartic truth and constant ones, whose mean is added to the
        # noise in one pass, with zeros of both signs among them
        for truth in (QUARTIC, *(GeneratorSpec(degree=0, coeffs=(c,), sigma=0.5) for c in (0.5, 0.0, -0.0))):
            # each block is overwritten by the next, so keep copies
            draws = truth.draw_blocks(np.random.default_rng(4), n_rows, 3, block=16)
            blocks = [(y1.copy(), y2.copy()) for y1, y2 in draws]
            # whole blocks, a shorter tail joining the last
            assert [len(y1) for y1, _ in blocks[:-1]] == [16] * (len(blocks) - 1)
            assert len(blocks) == max(1, n_rows // 16)
            y1, y2 = truth.draw(np.random.default_rng(4), (n_rows, 3))
            assert np.concatenate([b[0] for b in blocks]).tobytes() == y1.tobytes()
            assert np.concatenate([b[1] for b in blocks]).tobytes() == y2.tobytes()
            # and the one draw is numpy's uniform-then-normal stream
            rng = np.random.default_rng(4)
            expected_y1 = rng.uniform(-1.0, 1.0, (n_rows, 3))
            assert y1.tobytes() == expected_y1.tobytes()
            assert y2.tobytes() == rng.normal(truth.mean_at(expected_y1), truth.sigma).tobytes()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample_dataset(QUARTIC, n=0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_rejects_a_seed_that_is_no_count(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            sample_dataset(QUARTIC, n=12, seed=seed)

    def test_conditional_mean_by_bins(self):
        # residuals y2 - poly(y1) must average to zero in every y1 bin
        data = sample_dataset(QUARTIC, n=200_000, seed=11)
        resid = data.y2 - QUARTIC.mean_at(data.y1)
        bins = np.digitize(data.y1, np.linspace(-1, 1, 11))
        for b in range(1, 11):
            r = resid[bins == b]
            assert abs(np.mean(r)) < 4.0 * QUARTIC.sigma / math.sqrt(r.size)


class TestTrueLogDensity:
    def test_standard_normal_at_mode(self):
        spec = GeneratorSpec(degree=0, coeffs=(0.0,), sigma=1.0)
        value = true_log_density(spec, DataSet([0.0], [0.0]))
        assert value == pytest.approx(-1.6120857, abs=1e-7)
        assert value == pytest.approx(math.log(0.5) - 0.5 * math.log(2 * math.pi), rel=1e-15)

    def test_matches_per_point_sum(self):
        data = sample_dataset(QUARTIC, n=17, seed=5)
        total = true_log_density(QUARTIC, data)
        per_point = sum(
            true_log_density(QUARTIC, DataSet([a], [b])) for a, b in zip(data.y1, data.y2)
        )
        assert total == pytest.approx(per_point, abs=1e-12)

    def test_rejects_outside_support(self):
        with pytest.raises(OutsideSupport):
            true_log_density(QUARTIC, DataSet([1.5], [0.0]))

    def test_gaussian_mode_is_maximal(self):
        y1 = 0.3
        mode = float(QUARTIC.mean_at(y1))
        at_mode = true_log_density(QUARTIC, DataSet([y1], [mode]))
        for y2 in mode + np.linspace(-3, 3, 25):
            assert true_log_density(QUARTIC, DataSet([y1], [float(y2)])) <= at_mode

    def test_single_point_density_normalizes(self):
        # 2-D Gauss-Legendre over [-1,1] x [mu(y1) +- 8 sigma]
        spec = GeneratorSpec(degree=2, coeffs=(0.2, -1.0, 0.8), sigma=0.7)
        x1, w1 = np.polynomial.legendre.leggauss(64)
        x2, w2 = np.polynomial.legendre.leggauss(96)
        total = 0.0
        for a, wa in zip(x1, w1):
            mu = float(spec.mean_at(a))
            lo, hi = mu - 8 * spec.sigma, mu + 8 * spec.sigma
            y2 = 0.5 * (hi - lo) * x2 + 0.5 * (hi + lo)
            dens = [math.exp(true_log_density(spec, DataSet([a], [float(b)]))) for b in y2]
            total += wa * 0.5 * (hi - lo) * float(np.dot(w2, dens))
        assert total == pytest.approx(1.0, abs=1e-6)


class TestDataSet:
    def test_points_and_subset(self):
        data = DataSet([0.1, -0.2, 0.5], [1.0, 2.0, 3.0])
        sub = data.subset([2, 0])
        np.testing.assert_array_equal(sub.y1, [0.5, 0.1])
        np.testing.assert_array_equal(sub.y2, [3.0, 1.0])

    @pytest.mark.parametrize("indices", [[2, 0], [1, 1, 1], range(5), np.array([4, -1, 0])])
    def test_a_subset_is_the_dataset_of_its_gathered_points(self, indices):
        data = sample_dataset(QUARTIC, n=5, seed=3)
        sub = data.subset(indices)
        idx = np.asarray(indices)
        expected = DataSet(data.y1[idx], data.y2[idx])
        for got, want in ((sub.y1, expected.y1), (sub.y2, expected.y2)):
            assert got.dtype == np.float64 and got.flags.c_contiguous and not got.flags.writeable
            assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            sub.y1[0] = 0.0
        assert sub == expected

    @pytest.mark.parametrize(("indices", "error"), [([5], IndexError), ([0, -6], IndexError), ([], ValueError),
                                                    (0, ValueError), ([[0, 1]], ValueError),
                                                    ([True, False, True, False], ValueError), ([0.7, 1.2], ValueError)])
    def test_a_subset_of_no_points_or_points_out_of_range_raises(self, indices, error):
        with pytest.raises(error):
            sample_dataset(QUARTIC, n=5, seed=3).subset(indices)

    def test_order_matters(self):
        a = DataSet([0.1, 0.2], [1.0, 2.0])
        b = DataSet([0.2, 0.1], [2.0, 1.0])
        assert a != b

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            DataSet([], [])
        with pytest.raises(ValueError):
            DataSet([0.0], [float("nan")])

    @pytest.mark.parametrize("field", ["y1", "y2"])
    def test_names_the_non_finite_array(self, field):
        points = {"y1": [0.1, 0.2], "y2": [1.0, 2.0]}
        points[field] = [0.1, math.inf]
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DataSet(**points)

    def test_arrays_are_read_only(self):
        data = DataSet([0.1], [1.0])
        with pytest.raises(ValueError):
            data.y1[0] = 0.5

    def test_freezes_a_copy_not_the_callers_arrays(self):
        y1, y2 = np.array([0.1, -0.2, 0.5]), np.array([1.0, 2.0, 3.0])  # C-contiguous float64
        data = DataSet(y1, y2)
        assert y1.flags.writeable and y2.flags.writeable
        assert not data.y1.flags.writeable and not data.y2.flags.writeable
        assert data.y1.tobytes() == y1.tobytes() and data.y2.tobytes() == y2.tobytes()


class TestFrozenCopy:
    def test_is_a_read_only_contiguous_float64_copy(self):
        source = np.arange(6)[::2]  # strided int64
        out = frozen_copy("x", source)
        assert out.dtype == np.float64 and out.flags.c_contiguous and not out.flags.writeable
        assert out.tolist() == [0.0, 2.0, 4.0] and source.flags.writeable
        source[0] = 9
        assert out[0] == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_names_the_array_with_a_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="^x must be finite$"):
            frozen_copy("x", [[0.0, 1.0], [bad, 2.0]])


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        data = sample_dataset(QUARTIC, n=25, seed=99)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        again = read_dataset_csv(path)
        assert again == data

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,0.0\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    @pytest.mark.parametrize("header", ["y1,y2,z", "y1,y2,"])
    def test_rejects_a_header_that_is_not_exactly_y1_y2(self, tmp_path, header):
        # the rows have the two fields that a y1,y2 header names
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n0.1,0.2\n")
        with pytest.raises(ValueError, match="expected CSV header 'y1,y2'"):
            read_dataset_csv(path)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet tools start a UTF-8 CSV with one
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy1,y2\n0.1,0.2\n")
        assert read_dataset_csv(path) == DataSet([0.1], [0.2])

    def test_header_fields_may_carry_spaces(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text(" y1 , y2 \n0.1,0.2\n")
        assert read_dataset_csv(path) == DataSet([0.1], [0.2])

    @pytest.mark.parametrize(
        ("text", "line", "fields"),
        [("y1,y2\n0.1,0.2\n0.3\n", 3, 1), ("y1,y2\n0.1,0.2,0.7\n0.3,0.4\n", 2, 3)],
        ids=["one-field", "three-fields"],
    )
    def test_rejects_rows_without_two_fields(self, tmp_path, text, line, fields):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}: expected 2 fields, got {fields}"):
            read_dataset_csv(path)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("y1,y2\n0.1,0.2\n\n0.3,0.4\n\n")
        assert read_dataset_csv(path) == DataSet([0.1, 0.3], [0.2, 0.4])

    def test_names_the_line_of_a_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y1,y2\n0.1,0.2\n0.3,abc\n")
        with pytest.raises(ValueError, match="line 3: could not convert string to float: 'abc'"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("y2", ["inf", "-inf", "nan"])
    def test_names_the_line_of_a_non_finite_y2(self, tmp_path, y2):
        path = tmp_path / "bad.csv"
        path.write_text(f"y1,y2\n0.1,0.2\n0.3,{y2}\n")
        with pytest.raises(ValueError, match=f"line 3: y2 = {y2} is not finite"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("y1", ["2.0", "-1.0000001", "nan", "inf"])
    def test_rejects_y1_outside_support(self, tmp_path, y1):
        path = tmp_path / "bad.csv"
        path.write_text(f"y1,y2\n0.3,0.1\n{y1},0.2\n")
        with pytest.raises(OutsideSupport, match="line 3: y1 = .* lies outside"):
            read_dataset_csv(path)

    def test_support_bounds_are_inside(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("y1,y2\n-1.0,0.2\n1.0,0.4\n")
        assert read_dataset_csv(path) == DataSet([-1.0, 1.0], [0.2, 0.4])
