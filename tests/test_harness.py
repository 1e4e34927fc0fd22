import csv
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpps import harness
from rpps.datagen import GeneratorSpec, sample_dataset
from rpps.harness import (
    EstimatorRequest,
    ExperimentConfig,
    InferenceKind,
    OracleConfig,
    ROWS_HEADER,
    SUMMARY_HEADER,
    emit_outputs,
    run_estimator,
    run_experiment,
)
from rpps.linmodel import ModelSpec, RankDeficient, TooFewPoints
from rpps.scores import PredictiveBuilder

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MISFIT_TRUTH = GeneratorSpec(degree=4, coeffs=(0.5, -3.0, -4.0, 3.0, 6.0), sigma=0.5)


def _config(**overrides):
    base = dict(
        truth=MISFIT_TRUTH,
        model=ModelSpec(0),
        inference=InferenceKind.MLE,
        n_points=12,
        replications=8,
        estimators=(
            EstimatorRequest(kind="delta"),
            EstimatorRequest(kind="holdout", n_train=6, n_valid=6),
            EstimatorRequest(kind="jackknife", k_folds=6),
        ),
        oracle=OracleConfig(mc_datasets=400, quadrature=True),
        seed=101,
        output_dir=None,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_round_trip(self):
        config = _config()
        again = ExperimentConfig.from_json_dict(config.to_json_dict())
        assert again == config

    def test_absent_fields_take_the_defaults(self):
        raw = _config().to_json_dict()
        for key in ("n_points", "replications", "oracle", "output_dir"):
            del raw[key]
        config = ExperimentConfig.from_json_dict(raw)
        defaults = (config.n_points, config.replications, config.oracle, config.output_dir)
        assert defaults == (12, 500, OracleConfig(), None)
        del raw["seed"]
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig.from_json_dict(raw)

    def test_missing_keys_are_named(self):
        with pytest.raises(ValueError, match=r"missing estimator keys: \['kind'\]"):
            EstimatorRequest.from_json_dict({"k_folds": 6})
        for key in ("truth", "seed"):
            raw = _config().to_json_dict()
            del raw[key]
            with pytest.raises(ValueError, match=rf"missing config keys: \['{key}'\]"):
                ExperimentConfig.from_json_dict(raw)

    def test_validation(self):
        with pytest.raises(ValueError):
            _config(replications=0)
        with pytest.raises(ValueError):
            _config(model=ModelSpec(4), n_points=5)  # below MLE minimum
        with pytest.raises(ValueError):
            _config(estimators=())
        with pytest.raises(ValueError):
            _config(
                estimators=(
                    EstimatorRequest(kind="delta"),
                    EstimatorRequest(kind="delta"),
                )
            )
        raw = _config().to_json_dict()
        raw["estimators"] = [{"kind": "jackknife", "k_folds": 0}]  # was a ZeroDivisionError
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_dict(raw)

    def test_estimator_request_validation(self):
        with pytest.raises(ValueError):
            EstimatorRequest(kind="unknown")
        with pytest.raises(ValueError):
            EstimatorRequest(kind="holdout", n_train=6)
        with pytest.raises(ValueError):
            EstimatorRequest.from_json_dict({"kind": "delta", "bogus": 1})
        for fields in (
            {"kind": "jackknife", "k_folds": 0},
            {"kind": "jackknife", "k_folds": -6},
            {"kind": "jackknife", "k_folds": "6"},
            {"kind": "bootstrap", "b_resamples": 0},
            {"kind": "holdout", "n_train": 0, "n_valid": 12},
            {"kind": "holdout", "n_train": 12, "n_valid": 0},
            {"kind": "waic", "n_samples": 1},
            {"kind": "dic", "n_samples": 2.5},
            {"k_folds": 6},
            {"kind": ["delta"]},
            {"kind": "delta", "label": 5},
            {"kind": "delta", "label": "a,b"},
            {"kind": "delta", "label": 'say "delta"'},
            {"kind": "delta", "label": "two\nlines"},
            {"kind": "delta", "label": ""},
        ):
            with pytest.raises(ValueError):
                EstimatorRequest.from_json_dict(fields)
        # a field of the schema that the kind does not use is an error
        for fields, complaint in (
            ({"kind": "delta", "k_folds": 5, "b_resamples": 3}, "delta takes no k_folds"),
            ({"kind": "holdout", "n_train": 6, "n_valid": 6, "k_folds": 2}, "holdout takes no k_folds"),
            ({"kind": "jackknife", "k_folds": 6, "n_samples": 10}, "jackknife takes no n_samples"),
            ({"kind": "bootstrap", "b_resamples": 9, "n_valid": 3}, "bootstrap takes no n_valid"),
            ({"kind": "aic", "k_folds": 6}, "aic takes no k_folds"),
            ({"kind": "aic", "n_samples": 5}, "aic takes no n_samples"),
            ({"kind": "evidence", "n_samples": 5}, "evidence takes no n_samples"),
            ({"kind": "waic", "b_resamples": 5}, "waic takes no b_resamples"),
            ({"kind": "jackknife"}, "jackknife needs k_folds"),
            ({"kind": "bootstrap"}, "bootstrap needs b_resamples"),
        ):
            with pytest.raises(ValueError, match=complaint):
                EstimatorRequest.from_json_dict(fields)

    def test_n_samples_defaults_for_waic_and_dic_only(self):
        for kind in ("waic", "dic"):
            request = EstimatorRequest(kind=kind)
            assert request.n_samples == 1000
            assert request.to_json_dict() == {"kind": kind, "n_samples": 1000}
            assert EstimatorRequest.from_json_dict(request.to_json_dict()) == request
        assert EstimatorRequest(kind="aic").n_samples is None

    @pytest.mark.parametrize(
        ("inference", "kind"),
        [
            (InferenceKind.POSTERIOR_PREDICTIVE, "aic"),
            (InferenceKind.PRIOR_PREDICTIVE, "aic"),
            (InferenceKind.MLE, "waic"),
            (InferenceKind.PRIOR_PREDICTIVE, "waic"),
            (InferenceKind.MLE, "dic"),
            (InferenceKind.PRIOR_PREDICTIVE, "dic"),
        ],
    )
    def test_criterion_needs_its_inference(self, inference, kind):
        with pytest.raises(ValueError, match=f"{kind} needs inference"):
            _config(inference=inference, estimators=(EstimatorRequest(kind=kind),))

    def test_a_bootstrap_with_a_point_to_spare_runs(self):
        # degree 2 needs 4 distinct training points: a resample keeps them
        # only with exactly one point out of the bag
        config = _config(model=ModelSpec(2), n_points=5, replications=3,
                         estimators=(EstimatorRequest(kind="bootstrap", b_resamples=50),))
        assert not any(row.failed for row in run_experiment(config).rows)

    @pytest.mark.parametrize("inference", list(InferenceKind))
    def test_evidence_is_no_experiment_estimator(self, inference):
        with pytest.raises(ValueError, match="request delta under prior_predictive"):
            _config(inference=inference, estimators=(EstimatorRequest(kind="evidence"),))


class TestRunExperiment:
    def test_row_shape_and_determinism(self):
        config = _config()
        result = run_experiment(config)
        assert len(result.rows) == 8 * 3
        for name in ("delta", "holdout", "jackknife"):
            assert sum(1 for r in result.rows if r.estimator == name) == 8
        again = run_experiment(config)
        assert result.rows == again.rows
        assert result.summary == again.summary

    def test_exact_shared_within_replication(self):
        result = run_experiment(_config())
        for rid in range(8):
            exacts = {r.exact for r in result.rows if r.replication_id == rid}
            assert len(exacts) == 1

    def test_error_column_consistency(self):
        result = run_experiment(_config())
        for row in result.rows:
            assert not row.failed
            assert row.error == row.estimate - row.exact

    def test_single_replication_summary(self):
        result = run_experiment(_config(replications=1))
        for s in result.summary:
            row = next(r for r in result.rows if r.estimator == s.estimator)
            assert s.q20 == s.q50 == s.q80 == row.error

    def test_summary_recomputable_from_rows(self):
        result = run_experiment(_config())
        for s in result.summary:
            errors = [r.error for r in result.rows if r.estimator == s.estimator and not r.failed]
            assert (s.q20, s.q50, s.q80) == tuple(np.quantile(errors, (0.2, 0.5, 0.8)))

    @pytest.mark.parametrize("replications", [2, 3, 5, 8])
    def test_summary_interpolates_between_order_statistics(self, replications):
        # quantile p lies at h = (n - 1) p between the order statistics
        # e[floor h] and e[floor h + 1], weighted by the fraction of h
        result = run_experiment(_config(replications=replications))
        for s in result.summary:
            e = sorted(r.error for r in result.rows if r.estimator == s.estimator)
            expected = []
            for p in (0.2, 0.5, 0.8):
                h = (len(e) - 1) * p
                lo = int(h)
                hi = min(lo + 1, len(e) - 1)
                expected.append(e[lo] + (h - lo) * (e[hi] - e[lo]))
            np.testing.assert_allclose((s.q20, s.q50, s.q80), expected, rtol=0, atol=1e-12)
            assert s.q20 <= s.q50 <= s.q80 and s.n_failed == 0

    def test_n_failed_counts_rank_deficient_replications(self, monkeypatch):
        # a predictive that cannot be built fails every request's row of its
        # replication, and the summary counts it once per request
        original = PredictiveBuilder.__call__
        calls = []

        def flaky(build, data):
            calls.append(None)
            if len(calls) % 2:
                raise RankDeficient("rank-deficient on purpose")
            return original(build, data)

        monkeypatch.setattr(PredictiveBuilder, "__call__", flaky)
        result = run_experiment(_config(replications=6))
        failed = [r for r in result.rows if r.failed]
        assert len(failed) == 3 * 3 and all(r.exact is None and "on purpose" in r.message for r in failed)
        assert [s.n_failed for s in result.summary] == [3, 3, 3]

    def test_failed_rows_recorded_and_run_continues(self):
        # one resample of 12 draws almost never holds the 11 distinct points
        # a degree-9 MLE needs (p = 0.0036), so the bootstrap fails per row
        # from the data
        config = _config(
            model=ModelSpec(9),
            estimators=(EstimatorRequest(kind="delta"), EstimatorRequest(kind="bootstrap", b_resamples=1)),
            replications=4,
        )
        result = run_experiment(config)
        failed = [r for r in result.rows if r.failed]
        assert len(failed) == 4 and all(r.estimator == "bootstrap" for r in failed)
        assert all("no usable resample" in r.message for r in failed)
        assert all(not r.failed for r in result.rows if r.estimator == "delta")
        summary = {s.estimator: s for s in result.summary}
        assert summary["bootstrap"].n_failed == 4
        assert any("all 4 replications failed" in w for w in result.warnings)

    def test_unexpected_estimator_error_propagates(self, monkeypatch):
        # only the typed domain failures become failed rows; any other
        # ValueError (LinAlgError included) is a bug and must surface
        def broken(predictive, measurement):
            raise ValueError("not a domain failure")

        monkeypatch.setattr(harness, "delta_estimator", broken)
        with pytest.raises(ValueError, match="not a domain failure"):
            run_experiment(_config(replications=2))

    def test_too_few_points_at_run_time_propagates(self, monkeypatch):
        # validation rules out every training set below the model minimum,
        # so a TooFewPoints during a run is a bug, not a failed row
        def broken(predictive, measurement):
            raise TooFewPoints("not reachable from a validated config")

        monkeypatch.setattr(harness, "delta_estimator", broken)
        with pytest.raises(TooFewPoints, match="not reachable"):
            run_experiment(_config(replications=2))

    def test_all_rows_failing_raises(self):
        config = _config(
            model=ModelSpec(9),
            estimators=(EstimatorRequest(kind="bootstrap", b_resamples=1),),
            replications=3,
        )
        # the error names the first failed row, so the CLI shows its cause
        message = r"every estimator row failed; the first, bootstrap in replication 0: .*no usable resample"
        with pytest.raises(RuntimeError, match=message):
            run_experiment(config)

    def test_posterior_predictive_lane_uses_mc_oracle(self):
        config = _config(
            inference=InferenceKind.POSTERIOR_PREDICTIVE,
            estimators=(
                EstimatorRequest(kind="delta"),
                EstimatorRequest(kind="jackknife", k_folds=6),
            ),
            oracle=OracleConfig(mc_datasets=300, quadrature=True),
            replications=3,
        )
        result = run_experiment(config)
        assert all(np.isfinite(r.estimate) for r in result.rows)

    def test_a_numpy_integer_ensemble_size_runs(self):
        # the Monte Carlo oracle's PCG64 advance takes a Python int only
        config = _config(inference=InferenceKind.POSTERIOR_PREDICTIVE, replications=2)
        numpy_sized = replace(config, oracle=OracleConfig(mc_datasets=np.int64(400)))
        assert run_experiment(numpy_sized).rows == run_experiment(config).rows

    def test_warns_when_oracle_se_dominates(self):
        config = _config(
            truth=GeneratorSpec(degree=0, coeffs=(0.5,), sigma=0.5),
            inference=InferenceKind.POSTERIOR_PREDICTIVE,
            estimators=(EstimatorRequest(kind="delta"),),
            oracle=OracleConfig(mc_datasets=30, quadrature=True),
            replications=6,
        )
        result = run_experiment(config)
        assert any("oracle SE" in w for w in result.warnings)

    def test_prior_predictive_lane(self):
        config = _config(
            inference=InferenceKind.PRIOR_PREDICTIVE,
            estimators=(EstimatorRequest(kind="delta"), EstimatorRequest(kind="bootstrap", b_resamples=20)),
            oracle=OracleConfig(mc_datasets=300, quadrature=True),
            replications=3,
        )
        result = run_experiment(config)
        assert all(not r.failed for r in result.rows)


@settings(max_examples=60, deadline=None, database=None)
@given(
    degree=st.integers(0, 6),
    n_points=st.integers(2, 20),
    inference=st.sampled_from(list(InferenceKind)),
    kind=st.sampled_from(["holdout", "jackknife", "bootstrap"]),
    count=st.integers(1, 20),
)
def test_a_request_the_model_cannot_fit_is_a_config_error(degree, n_points, inference, kind, count):
    # either validation rejects the config, or its run meets no TooFewPoints,
    # neither as a failed row nor as an exception
    fields = {"holdout": {"n_train": count, "n_valid": n_points - count}, "jackknife": {"k_folds": count},
              "bootstrap": {"b_resamples": count}}[kind]
    try:
        config = _config(
            model=ModelSpec(degree),
            inference=inference,
            n_points=n_points,
            replications=2,
            estimators=(EstimatorRequest(kind="delta"), EstimatorRequest(kind=kind, **fields)),
            oracle=OracleConfig(mc_datasets=50),
        )
    except ValueError:
        return
    raised = []
    original = harness.run_estimator

    def recording(*args):
        try:
            return original(*args)
        except Exception as exc:
            raised.append(exc)
            raise

    with mock.patch.object(harness, "run_estimator", recording):
        result = run_experiment(config)
    assert not any(isinstance(exc, TooFewPoints) for exc in raised)
    assert len(result.rows) == 4


class TestCriterionRows:
    def test_criterion_rows_have_value_and_no_spread(self):
        config = _config(
            inference=InferenceKind.POSTERIOR_PREDICTIVE,
            estimators=(EstimatorRequest("waic", n_samples=50), EstimatorRequest("dic", n_samples=50)),
            oracle=OracleConfig(mc_datasets=200, quadrature=True),
            replications=3,
        )
        result = run_experiment(config)
        assert len(result.rows) == 6
        for row in result.rows:
            assert not row.failed and np.isfinite(row.estimate)
            assert row.std_error is None and row.floor_engaged == 0
            assert row.error == row.estimate - row.exact

    def test_aic_row_counts_the_floor_of_its_fit(self):
        # noise far below the spacing of floats around 0.5 leaves every y2 at
        # 0.5, so the degree-0 fit and the oracle's plug-in fit both floor
        config = _config(
            truth=GeneratorSpec(degree=0, coeffs=(0.5,), sigma=1e-200),
            estimators=(EstimatorRequest("delta"), EstimatorRequest("aic")),
            replications=2,
        )
        rows = run_experiment(config).rows
        assert [row.floor_engaged for row in rows] == [2, 2, 2, 2]
        for delta, aic in zip(rows[::2], rows[1::2]):
            assert aic.estimate == delta.estimate + 2

    def test_run_estimator_rejects_a_criterion_of_another_inference(self):
        config = _config()
        build = PredictiveBuilder(InferenceKind.POSTERIOR_PREDICTIVE, config.model)
        data = sample_dataset(config.truth, 12, 0)
        with pytest.raises(ValueError, match="aic needs inference 'mle'"):
            run_estimator(EstimatorRequest(kind="aic"), build(data), build, data, 0)

    def test_appending_a_request_keeps_earlier_rows(self, tmp_path):
        # replication r draws request j's seed from generate_state(2 + J)[2 + j];
        # a longer state has the shorter one as its prefix
        shipped = ExperimentConfig.from_json_dict(json.loads((CONFIG_DIR / "misfit.json").read_text()))
        assert shipped.inference == InferenceKind.MLE
        extended = replace(shipped, estimators=shipped.estimators + (EstimatorRequest(kind="aic"),))
        emit_outputs(run_experiment(shipped), tmp_path / "shipped")
        emit_outputs(run_experiment(extended), tmp_path / "extended")
        before = (tmp_path / "shipped" / "rows.csv").read_bytes().splitlines(keepends=True)
        after = (tmp_path / "extended" / "rows.csv").read_bytes().splitlines(keepends=True)
        kept = [line for line in after if line.split(b",")[1] != b"aic"]
        assert b"".join(kept) == b"".join(before)
        assert len(after) - len(kept) == shipped.replications


class TestEmitOutputs:
    def test_files_and_byte_identity(self, tmp_path):
        config = _config(replications=5)
        result = run_experiment(config)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_outputs(result, out_a)
        emit_outputs(run_experiment(config), out_b)
        for name in ("rows.csv", "summary.csv", "config.echo.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_numpy_integer_counts_write_the_int_files(self, tmp_path):
        # every validated count is stored as an int, so the echo is JSON
        def config(integer):
            return _config(
                truth=GeneratorSpec(degree=integer(4), coeffs=MISFIT_TRUTH.coeffs, sigma=0.5),
                model=ModelSpec(integer(0)),
                inference=InferenceKind.POSTERIOR_PREDICTIVE,
                estimators=(
                    EstimatorRequest(kind="holdout", n_train=integer(6), n_valid=integer(6)),
                    EstimatorRequest(kind="jackknife", k_folds=integer(6)),
                    EstimatorRequest(kind="bootstrap", b_resamples=integer(5)),
                    EstimatorRequest(kind="waic", n_samples=integer(50)),
                ),
                oracle=OracleConfig(mc_datasets=integer(400)),
                replications=integer(3),
                n_points=integer(12),
                seed=integer(101),
            )

        emit_outputs(run_experiment(config(int)), tmp_path / "int")
        emit_outputs(run_experiment(config(np.int64)), tmp_path / "numpy")
        for name in ("rows.csv", "summary.csv", "config.echo.json"):
            assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()

    def test_a_value_that_cannot_be_written_writes_no_file(self, tmp_path):
        result = run_experiment(_config(replications=2))
        with mock.patch.object(ExperimentConfig, "to_json_dict", return_value={"seed": object()}):
            with pytest.raises(TypeError):
                emit_outputs(result, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_rows_csv_schema_and_lossless_floats(self, tmp_path):
        result = run_experiment(_config(replications=3))
        emit_outputs(result, tmp_path)
        with (tmp_path / "rows.csv").open() as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == ROWS_HEADER
            rows = list(reader)
        assert len(rows) == len(result.rows)
        for parsed, row in zip(rows, result.rows):
            assert int(parsed["replication_id"]) == row.replication_id
            assert float(parsed["estimate"]) == row.estimate
            assert float(parsed["exact"]) == row.exact
            assert float(parsed["error"]) == row.error

    def test_summary_csv_schema(self, tmp_path):
        result = run_experiment(_config(replications=3))
        emit_outputs(result, tmp_path)
        with (tmp_path / "summary.csv").open() as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == SUMMARY_HEADER
            rows = list(reader)
        assert [r["estimator"] for r in rows] == ["delta", "holdout", "jackknife"]

    def test_config_echo_round_trips(self, tmp_path):
        config = _config(replications=2)
        emit_outputs(run_experiment(config), tmp_path)
        with (tmp_path / "config.echo.json").open() as f:
            echoed = json.load(f)
        assert ExperimentConfig.from_json_dict(echoed) == config

    def test_failed_rows_serialize_with_empty_cells(self, tmp_path):
        config = _config(
            model=ModelSpec(9),
            estimators=(EstimatorRequest(kind="delta"), EstimatorRequest(kind="bootstrap", b_resamples=1)),
            replications=2,
        )
        emit_outputs(run_experiment(config), tmp_path)
        with (tmp_path / "rows.csv").open() as f:
            rows = list(csv.DictReader(f))
        failed = [r for r in rows if r["estimator"] == "bootstrap"]
        assert failed and all(r["estimate"] == "" and r["error"] == "" for r in failed)
