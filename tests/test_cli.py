import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rpps import cli, scores
from rpps.cli import main
from rpps.conjugate import default_prior
from rpps.datagen import DataSet, GeneratorSpec, read_dataset_csv, sample_dataset, write_dataset_csv
from rpps.harness import ExperimentConfig
from rpps.linmodel import ModelSpec, fit_mle
from rpps.scores import evidence_criterion


# a kept resample leaves a point out of the bag, so it trains on at most N - 1 points
BOOTSTRAP = {"kind": "bootstrap", "b_resamples": 20}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"degree": 0, "coeffs": [0.5], "sigma": 0.5}))
    return path


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"degree": 0}))
    return path


@pytest.fixture
def data_file(tmp_path):
    data = sample_dataset(GeneratorSpec(0, (0.5,), 0.5), n=12, seed=7)
    path = tmp_path / "data.csv"
    write_dataset_csv(data, path)
    return path


class TestSimulate:
    def test_round_trip_and_echo(self, tmp_path, spec_file, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--spec", str(spec_file), "--n", "12", "--seed", "3", "--out", str(out)])
        assert code == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["spec"] == {"degree": 0, "coeffs": [0.5], "sigma": 0.5}
        direct = sample_dataset(GeneratorSpec(0, (0.5,), 0.5), n=12, seed=3)
        assert read_dataset_csv(out) == direct

    def test_default_n_is_twelve(self, tmp_path, spec_file):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--spec", str(spec_file), "--seed", "0", "--out", str(out)]) == 0
        assert len(read_dataset_csv(out)) == 12

    def test_negative_seed_is_an_error_naming_the_seed(self, tmp_path, spec_file, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--spec", str(spec_file), "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_bad_spec_file_fails_with_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "x.csv")])
        assert exc.value.code != 0

    def test_unknown_spec_key_is_rejected(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"degree": 0, "coeffs": [0.5], "sigma": 0.5, "sigmaa": 2}))
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--spec", str(spec), "--out", str(out)])
        assert "bad generator spec" in str(exc.value.code)
        assert "unknown generator spec keys: ['sigmaa']" in str(exc.value.code)
        assert not out.exists()

    @pytest.mark.parametrize(
        ("spec", "complaint"),
        [
            ({"degree": 1, "coeffs": [0.5, float("nan")], "sigma": 0.5}, "coefficients must be finite"),
            ({"degree": 0, "coeffs": [0.5], "sigma": float("inf")}, "sigma must be finite and > 0"),
            ({"degree": 0, "coeffs": [10**400], "sigma": 0.5}, "coefficients must be finite"),
            ({"degree": 0, "coeffs": [0.5], "sigma": 10**400}, "sigma must be finite and > 0"),
        ],
        ids=["nan-coefficient", "infinite-sigma", "huge-integer-coefficient", "huge-integer-sigma"],
    )
    def test_non_finite_spec_is_rejected(self, tmp_path, spec, complaint):
        # JSON as Python writes it may hold NaN and Infinity
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--spec", str(path), "--out", str(out)])
        assert "bad generator spec" in str(exc.value.code) and complaint in str(exc.value.code)
        assert not out.exists()

    @pytest.mark.parametrize(
        ("spec", "complaint"),
        [
            ({"degree": 0, "coeffs": 0.5, "sigma": 0.5}, "coeffs must be a list or tuple of real numbers, got 0.5"),
            (None, "generator spec must be a JSON object, got None"),
        ],
        ids=["number-coeffs", "null-spec"],
    )
    def test_malformed_spec_is_rejected(self, tmp_path, spec, complaint):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--spec", str(path), "--out", str(out)])
        assert str(exc.value.code) == f"error: bad generator spec {str(path)!r}: {complaint}"
        assert not out.exists()


def test_ambient_rpps_variables_change_nothing(tmp_path, spec_file, monkeypatch):
    # a run reads its flags and the files they name, not the environment
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--spec", str(spec_file), "--out", str(out_a)]) == 0
    ambient = tmp_path / "ambient"
    for name, value in [("RPPS_SEED", "11"), ("RPPS_N", "5"), ("RPPS_OUT", str(ambient)), ("RPPS_DRY_RUN", "1")]:
        monkeypatch.setenv(name, value)
    assert main(["simulate", "--spec", str(spec_file), "--out", str(out_b)]) == 0
    assert out_b.read_bytes() == out_a.read_bytes()
    config = json.loads((Path(__file__).resolve().parent.parent / "configs" / "misfit.json").read_text())
    config_path = tmp_path / "misfit.json"
    config_path.write_text(json.dumps(dict(config, replications=2)))
    out_dir = tmp_path / "out"
    assert main(["experiment", "--config", str(config_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "rows.csv").exists()
    assert not ambient.exists()


@pytest.mark.parametrize(
    ("command", "missing"),
    [("simulate", "--spec"), ("simulate", "--out"), ("fit", "--model"), ("score", "--estimators"),
     ("experiment", "--config")],
)
def test_missing_required_flag_is_usage_error(tmp_path, spec_file, model_file, data_file, capsys, command, missing):
    est = tmp_path / "est.json"
    est.write_text(json.dumps([{"kind": "delta"}]))
    out = tmp_path / "out"
    flags = {
        "simulate": {"--spec": spec_file, "--out": out},
        "fit": {"--data": data_file, "--model": model_file},
        "score": {"--data": data_file, "--model": model_file, "--estimators": est},
        "experiment": {"--config": tmp_path / "config.json", "--out": out},
    }[command]
    argv = [command] + [str(part) for flag, value in flags.items() if flag != missing for part in (flag, value)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "the following arguments are required: " + missing in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_one_parser_per_process_carries_nothing_between_calls(tmp_path, model_file, data_file, capsys):
    # in one process, each call prints what a fresh `python -m rpps.cli` prints
    assert cli.build_parser() is cli.build_parser()
    config = json.loads((Path(__file__).resolve().parent.parent / "configs" / "misfit.json").read_text())
    config_path = tmp_path / "misfit.json"
    config_path.write_text(json.dumps(dict(config, replications=2)))
    est = tmp_path / "est.json"
    est.write_text(json.dumps([{"kind": "delta"}, {"kind": "jackknife", "k_folds": 4}, {"kind": "waic"}]))
    calls = [
        (2, ["experiment"]),  # usage error: --config is required
        (0, ["experiment", "--config", str(config_path), "--dry-run"]),
        (0, ["experiment", "--config", str(config_path), "--out", str(tmp_path / "out")]),
        (0, ["score", "--data", str(data_file), "--model", str(model_file), "--estimators", str(est)]),
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    for code, argv in calls:
        try:
            in_process = main(argv)
        except SystemExit as exc:
            in_process = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "rpps.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert in_process == fresh.returncode == code, argv
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr), argv


class TestFit:
    def test_thin_adapter_byte_identity(self, data_file, model_file, capsys):
        assert main(["fit", "--data", str(data_file), "--model", str(model_file)]) == 0
        out = capsys.readouterr().out.strip()
        data = read_dataset_csv(data_file)
        fit = fit_mle(ModelSpec(0), data)
        expected = json.dumps(
            {"degree": 0, "coeffs": fit.coeffs.tolist(), "sigma2": fit.sigma2, "n_fit": len(data)},
            sort_keys=True,
        )
        assert out == expected

    def test_a_key_error_inside_a_command_propagates(self, data_file, model_file, monkeypatch, capsys):
        # a KeyError is a bug, never an ordinary "error:" exit
        def broken(spec, data):
            raise KeyError("x")

        monkeypatch.setattr(cli, "fit_mle", broken)
        with pytest.raises(KeyError, match="'x'"):
            main(["fit", "--data", str(data_file), "--model", str(model_file)])
        assert capsys.readouterr().err == ""

    def test_a_byte_order_mark_is_read_past(self, tmp_path, data_file, model_file, capsys):
        # the same file as a spreadsheet tool saves it fits the same
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + data_file.read_bytes())
        assert main(["fit", "--data", str(data_file), "--model", str(model_file)]) == 0
        plain = capsys.readouterr().out
        assert main(["fit", "--data", str(bom), "--model", str(model_file)]) == 0
        assert capsys.readouterr().out == plain

    def test_a_third_header_field_is_rejected(self, tmp_path, model_file, capsys):
        data = tmp_path / "data.csv"
        data.write_text("y1,y2,z\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(data), "--model", str(model_file)])
        assert "expected CSV header 'y1,y2'" in str(exc.value.code)
        assert capsys.readouterr().out == ""

    def test_unknown_model_key_is_rejected(self, tmp_path, data_file, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"degree": 2, "prior_scale": 10}))
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(data_file), "--model", str(model)])
        assert "bad model config" in str(exc.value.code)
        assert "unknown model keys: ['prior_scale']" in str(exc.value.code)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["fit", "score"])
    def test_null_model_is_rejected(self, tmp_path, data_file, capsys, command):
        model = tmp_path / "model.json"
        model.write_text("null")
        est = tmp_path / "est.json"
        est.write_text(json.dumps([{"kind": "delta"}]))
        args = [command, "--data", str(data_file), "--model", str(model)]
        with pytest.raises(SystemExit) as exc:
            main(args + (["--estimators", str(est)] if command == "score" else []))
        assert str(exc.value.code) == f"error: bad model config {str(model)!r}: model must be a JSON object, got None"
        assert capsys.readouterr().out == ""

    def test_malformed_row_is_a_read_error(self, tmp_path, model_file):
        bad = tmp_path / "short.csv"
        bad.write_text("y1,y2\n0.1,0.2\n0.3\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(bad), "--model", str(model_file)])
        assert str(exc.value.code).startswith("error: cannot read dataset")
        assert "line 3: expected 2 fields, got 1" in str(exc.value.code)
        bad.write_text("y1,y2\n0.1,abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(bad), "--model", str(model_file)])
        assert str(exc.value.code).startswith("error: cannot read dataset")
        assert "line 2: could not convert string to float: 'abc'" in str(exc.value.code)

    def test_y1_outside_support_is_a_read_error(self, tmp_path, model_file):
        bad = tmp_path / "outside.csv"
        bad.write_text("y1,y2\n2.0,0.2\n0.3,0.1\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(bad), "--model", str(model_file)])
        assert str(exc.value.code).startswith("error: cannot read dataset")
        assert "line 2: y1 = 2.0 lies outside [-1, 1]" in str(exc.value.code)


class TestScore:
    def _run(self, data_file, model_file, tmp_path, requests, capsys):
        est = tmp_path / "est.json"
        est.write_text(json.dumps(requests))
        code = main(["score", "--data", str(data_file), "--model", str(model_file), "--estimators", str(est)])
        assert code == 0
        return [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]

    def test_evidence_equals_negated_prior_delta(self, data_file, model_file, tmp_path, capsys):
        records = self._run(
            data_file,
            model_file,
            tmp_path,
            [{"kind": "evidence"}, {"kind": "delta", "inference": "prior_predictive"}],
            capsys,
        )
        ev, delta = records
        assert ev["criterion"] == "log_evidence"
        assert delta["estimator"] == "delta"
        assert ev["value"] == -delta["value"]
        direct = evidence_criterion(default_prior(ModelSpec(0)), read_dataset_csv(data_file))
        assert ev["value"] == direct.value
        # the evidence's own inference may be named; it is the default
        named = {"kind": "evidence", "inference": "prior_predictive"}
        assert self._run(data_file, model_file, tmp_path, [named], capsys) == [ev]

    def test_full_request_set(self, data_file, model_file, tmp_path, capsys):
        records = self._run(
            data_file,
            model_file,
            tmp_path,
            [
                {"kind": "delta"},
                {"kind": "holdout", "n_train": 6, "n_valid": 6, "seed": 1},
                {"kind": "jackknife", "k_folds": 6, "seed": 1},
                {"kind": "bootstrap", "b_resamples": 25, "seed": 1},
                {"kind": "aic"},
                {"kind": "waic", "n_samples": 200, "seed": 2},
                {"kind": "dic", "n_samples": 200, "seed": 2},
            ],
            capsys,
        )
        assert len(records) == 7
        waic_record = records[5]
        assert waic_record["criterion"] == "waic"
        assert waic_record["n_samples"] == 200

    def test_a_labelled_request_s_record_carries_its_label(self, data_file, model_file, tmp_path, capsys):
        # two jackknives that differ in k_folds are told apart by their labels;
        # a record without a label is the one its unlabelled request gives
        requests = [
            {"kind": "jackknife", "k_folds": 6, "seed": 1, "label": "k6"},
            {"kind": "jackknife", "k_folds": 12, "seed": 1, "label": "loo"},
            {"kind": "aic", "label": "penalized"},
        ]
        records = self._run(data_file, model_file, tmp_path, requests, capsys)
        assert [record["label"] for record in records] == ["k6", "loo", "penalized"]
        for request, record in zip(requests, records):
            unlabelled = {key: value for key, value in request.items() if key != "label"}
            alone = self._run(data_file, model_file, tmp_path, [unlabelled], capsys)
            assert alone == [{key: value for key, value in record.items() if key != "label"}]
            assert "label" not in alone[0]

    def test_requests_share_the_whole_measurement_predictive(
        self, data_file, model_file, tmp_path, capsys, monkeypatch
    ):
        # delta, WAIC and DIC under the posterior predictive condition on the
        # measurement once; the evidence and the MLE kinds need no posterior
        updates = []
        original = scores.posterior_update

        def counting(*args):
            updates.append(args)
            return original(*args)

        monkeypatch.setattr(scores, "posterior_update", counting)
        requests = [
            {"kind": "delta", "inference": "posterior_predictive"},
            {"kind": "evidence"},
            {"kind": "aic"},
            {"kind": "delta"},
            {"kind": "waic", "n_samples": 50, "seed": 2},
            {"kind": "dic", "n_samples": 50, "seed": 2},
        ]
        records = self._run(data_file, model_file, tmp_path, requests, capsys)
        assert len(updates) == 1
        # each record is what the request gives alone
        monkeypatch.setattr(scores, "posterior_update", original)
        for request, record in zip(requests, records):
            assert self._run(data_file, model_file, tmp_path, [request], capsys) == [record]

    def _usage_error(self, data_file, model_file, tmp_path, requests, capsys):
        est = tmp_path / "est.json"
        est.write_text(json.dumps(requests))
        with pytest.raises(SystemExit) as exc:
            main(["score", "--data", str(data_file), "--model", str(model_file), "--estimators", str(est)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""  # no record printed

    def test_unknown_estimator_is_usage_error(self, data_file, model_file, tmp_path, capsys):
        self._usage_error(data_file, model_file, tmp_path, [{"kind": "magic"}], capsys)

    @pytest.mark.parametrize(
        "raw",
        [
            {"kind": "jackknife", "k_folds": 6, "sed": 3},  # misspelt key
            {"kind": "jackknife", "k_folds": 5},  # does not divide N = 12
            {"kind": "holdout", "n_train": 6, "n_valid": 5},  # does not cover N
            {"kind": "delta", "inference": "maximum_likelihood"},
            {"kind": "delta", "seed": -1},
            {"kind": "evidence", "inference": "mle"},  # a criterion has one inference
            {"kind": "aic", "inference": "posterior_predictive"},
            {"kind": "waic", "inference": "mle"},
            {"kind": "dic", "inference": "prior_predictive"},
            {"kind": "waic", "n_samples": 1},
            {"kind": "aic", "k_folds": 6},  # a field the kind does not use
            {"kind": "aic", "n_samples": 5},
            {"kind": "delta", "k_folds": 5, "b_resamples": 3},
            {"k_folds": 6},
        ],
    )
    def test_malformed_request_is_usage_error(self, data_file, model_file, tmp_path, capsys, raw):
        self._usage_error(data_file, model_file, tmp_path, [raw], capsys)

    def test_requests_validated_before_any_record(self, data_file, model_file, tmp_path, capsys):
        self._usage_error(data_file, model_file, tmp_path, [{"kind": "delta"}, {"kind": "bootstrap"}], capsys)

    @pytest.mark.parametrize(
        ("n_points", "requests"),
        [
            (12, [{"kind": "delta"}, {"kind": "holdout", "n_train": 4, "n_valid": 8}]),  # 4 < 6
            (12, [{"kind": "delta"}, {"kind": "jackknife", "k_folds": 1}]),  # 0 < 6
            (5, [{"kind": "delta", "inference": "posterior_predictive"}, {"kind": "aic"}]),  # 5 < 6
        ],
        ids=["undersized-holdout", "one-fold-jackknife", "undersized-measurement"],
    )
    def test_training_set_below_model_minimum_is_usage_error(self, tmp_path, capsys, n_points, requests):
        # the degree-4 MLE needs 6 points, in the measurement and in each training set
        data = tmp_path / "data.csv"
        write_dataset_csv(sample_dataset(GeneratorSpec(0, (0.5,), 0.5), n=n_points, seed=7), data)
        model = tmp_path / "model4.json"
        model.write_text(json.dumps({"degree": 4}))
        est = tmp_path / "est.json"
        est.write_text(json.dumps(requests))
        with pytest.raises(SystemExit) as exc:
            main(["score", "--data", str(data), "--model", str(model), "--estimators", str(est)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no record printed
        assert "below the degree-4 mle minimum 6" in captured.err

    @pytest.mark.parametrize(
        ("inference", "degree", "n_points"),
        [("posterior_predictive", 0, 1), ("mle", 0, 2), ("mle", 2, 4)],
    )
    def test_bootstrap_that_can_keep_no_resample_is_usage_error(self, tmp_path, capsys, inference, degree, n_points):
        data = tmp_path / "data.csv"
        write_dataset_csv(sample_dataset(GeneratorSpec(0, (0.5,), 0.5), n=n_points, seed=7), data)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"degree": degree}))
        requests = [{"kind": "delta", "inference": inference}, {**BOOTSTRAP, "inference": inference}]
        est = tmp_path / "est.json"
        est.write_text(json.dumps(requests))
        with pytest.raises(SystemExit) as exc:
            main(["score", "--data", str(data), "--model", str(model), "--estimators", str(est)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no record printed
        assert f"bootstrap trains on {n_points - 1} of {n_points} points" in captured.err

    def test_requests_object_takes_no_other_key(self, data_file, model_file, tmp_path, capsys):
        # an ignored "inference" would silently score the MLE instead
        requests = [{"kind": "delta"}]
        assert self._run(data_file, model_file, tmp_path, {"requests": requests}, capsys) == self._run(
            data_file, model_file, tmp_path, requests, capsys
        )
        est = tmp_path / "est.json"
        est.write_text(json.dumps({"requests": requests, "inference": "posterior_predictive"}))
        with pytest.raises(SystemExit) as exc:
            main(["score", "--data", str(data_file), "--model", str(model_file), "--estimators", str(est)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "must hold a nonempty list of requests and no other key, got ['inference']" in captured.err
        assert captured.out == ""

    def test_aic_floors_the_variance_as_delta_does(self, tmp_path, capsys):
        # a degree-0 fit to a constant y2 has sigma2 = 0
        data = tmp_path / "flat.csv"
        write_dataset_csv(DataSet(np.linspace(-0.9, 0.9, 6), np.zeros(6)), data)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"degree": 0}))
        delta, aic = self._run(data, model, tmp_path, [{"kind": "delta"}, {"kind": "aic"}], capsys)
        assert delta["floor_engaged"] == 1
        assert aic == {"criterion": "aic", "value": delta["value"] + 2}

    def test_y1_outside_support_is_a_read_error(self, tmp_path, model_file):
        bad = tmp_path / "outside.csv"
        bad.write_text("y1,y2\n2.0,0.2\n0.3,0.1\n")
        est = tmp_path / "est.json"
        est.write_text(json.dumps([{"kind": "evidence"}]))
        with pytest.raises(SystemExit) as exc:
            main(["score", "--data", str(bad), "--model", str(model_file), "--estimators", str(est)])
        assert str(exc.value.code).startswith("error: cannot read dataset")
        assert "line 2: y1 = 2.0 lies outside [-1, 1]" in str(exc.value.code)

    def test_readme_example_requests_run(self, data_file, model_file, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"`requests\.json` holds [^\n]*\n\n```json\n(.*?)```", readme, re.DOTALL)
        assert block is not None, "README.md lost its requests.json example"
        requests = json.loads(block.group(1))
        records = self._run(data_file, model_file, tmp_path, requests, capsys)
        assert len(records) == len(requests)
        for request, record in zip(requests, records):
            name = record.get("estimator", record.get("criterion"))
            assert name == {"evidence": "log_evidence"}.get(request["kind"], request["kind"])


class TestExperiment:
    def _write_config(self, tmp_path, replications=4, seed=5, **changes):
        config = {
            "truth": {"degree": 4, "coeffs": [0.5, -3.0, -4.0, 3.0, 6.0], "sigma": 0.5},
            "model": {"degree": 0},
            "inference": "mle",
            "n_points": 12,
            "replications": replications,
            "estimators": [
                {"kind": "delta"},
                {"kind": "holdout", "n_train": 6, "n_valid": 6},
                {"kind": "jackknife", "k_folds": 6},
            ],
            "oracle": {"mc_datasets": 300, "quadrature": True},
            "seed": seed,
        }
        config.update(changes)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_dry_run_validates_without_output(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        assert main(["experiment", "--config", str(path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("config OK")
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize(
        ("changes", "complaint"),
        [
            ({"replicatons": 3}, "unknown config keys: ['replicatons']"),
            ({"oracle": {"mc_dataset": 50}}, "unknown oracle keys: ['mc_dataset']"),
            (
                {"truth": {"degree": 0, "coeffs": [0.5], "sigma": 0.5, "noise": 3.0}},
                "unknown generator spec keys: ['noise']",
            ),
            ({"model": {"degree": 0, "prior_scale": 10}}, "unknown model keys: ['prior_scale']"),
            ({"oracle": {"mc_datasets": 1}}, "mc_datasets must be an integer >= 2"),
            ({"oracle": {"quadrature": "false"}}, "quadrature must be true or false"),
            ({"replications": 2.7}, "replications must be an integer >= 1, got 2.7"),
            ({"seed": 3.9}, "seed must be an integer >= 0, got 3.9"),
            ({"seed": -1}, "seed must be an integer >= 0, got -1"),
            ({"n_points": "12"}, "n_points must be an integer >= 1, got '12'"),
            ({"model": {"degree": 0.5}}, "degree must be an integer >= 0, got 0.5"),
            (
                {"truth": {"degree": 0.5, "coeffs": [0.5], "sigma": 0.5}},
                "degree must be an integer >= 0, got 0.5",
            ),
            ({"estimators": [{"kind": "delta", "label": 5}]}, "label must be a string"),
            ({"estimators": [{"kind": "delta", "label": "a,b"}]}, "without commas"),
            ({"estimators": [{"kind": "delta", "label": ""}]}, "nonempty"),
            ({"truth": {"degree": 0, "coeffs": [float("nan")], "sigma": 0.5}}, "coefficients must be finite"),
            ({"truth": {"degree": 0, "coeffs": [0.5], "sigma": float("inf")}}, "sigma must be finite and > 0"),
            ({"truth": {"degree": 0, "coeffs": [-10**400], "sigma": 0.5}}, "truth: coefficients must be finite"),
            ({"truth": {"degree": 0, "coeffs": [0.5], "sigma": 10**400}}, "truth: sigma must be finite and > 0"),
            ({"output_dir": 5}, "output_dir must be a string or null, got 5"),
            ({"oracle": None}, "oracle: oracle must be a JSON object, got None"),
            ({"truth": None}, "truth: generator spec must be a JSON object, got None"),
            ({"model": []}, "model: model must be a JSON object, got []"),
            ({"estimators": 5}, "estimators: expected a JSON list, got 5"),
            ({"estimators": [5]}, "estimators: estimator must be a JSON object, got 5"),
            (
                {"truth": {"degree": 2, "coeffs": "123", "sigma": 0.5}},
                "truth: coeffs must be a list or tuple of real numbers, got '123'",
            ),
            (
                {"truth": {"degree": 0, "coeffs": [0.5], "sigma": "0.5"}},
                "truth: sigma must be a real number, got '0.5'",
            ),
            ({"truth": {"degree": 0, "coeffs": [0.5], "sigma": True}}, "truth: sigma must be a real number, got True"),
        ],
        ids=[
            "misspelt-key",
            "misspelt-oracle-key",
            "unknown-truth-key",
            "unknown-model-key",
            "one-mc-dataset",
            "string-quadrature",
            "fractional-replications",
            "fractional-seed",
            "negative-seed",
            "string-n-points",
            "fractional-model-degree",
            "fractional-truth-degree",
            "non-string-label",
            "comma-label",
            "empty-label",
            "nan-truth-coefficient",
            "infinite-truth-sigma",
            "huge-integer-truth-coefficient",
            "huge-integer-truth-sigma",
            "non-string-output-dir",
            "null-oracle",
            "null-truth",
            "list-model",
            "number-estimators",
            "number-estimator-entry",
            "string-truth-coeffs",
            "string-truth-sigma",
            "bool-truth-sigma",
        ],
    )
    def test_dry_run_rejects_bad_config(self, tmp_path, changes, complaint):
        path = self._write_config(tmp_path, **changes)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(path), "--dry-run"])
        assert "bad experiment config" in str(exc.value.code) and complaint in str(exc.value.code)

    @pytest.mark.parametrize(
        ("changes", "complaint"),
        [
            (
                {"model": {"degree": 4}, "estimators": [{"kind": "holdout", "n_train": 4, "n_valid": 8}]},
                "holdout trains on 4 of 12 points, below the degree-4 mle minimum 6",
            ),
            (
                {"model": {"degree": 6}, "estimators": [{"kind": "jackknife", "k_folds": 2}]},
                "jackknife trains on 6 of 12 points, below the degree-6 mle minimum 8",
            ),
            (
                {"estimators": [{"kind": "jackknife", "k_folds": 1}]},
                "jackknife trains on 0 of 12 points, below the degree-0 mle minimum 2",
            ),
            ({"model": {"degree": 4}, "n_points": 5}, "delta trains on 5 of 5 points, below the degree-4 mle minimum 6"),
            (
                {"inference": "posterior_predictive", "n_points": 1, "estimators": [BOOTSTRAP]},
                "bootstrap trains on 0 of 1 points, below the degree-0 posterior_predictive minimum 1",
            ),
            (
                {"n_points": 2, "estimators": [BOOTSTRAP]},
                "bootstrap trains on 1 of 2 points, below the degree-0 mle minimum 2",
            ),
            (
                {"model": {"degree": 2}, "n_points": 4, "estimators": [BOOTSTRAP]},
                "bootstrap trains on 3 of 4 points, below the degree-2 mle minimum 4",
            ),
        ],
        ids=["undersized-holdout", "undersized-jackknife", "one-fold-jackknife", "undersized-measurement",
             "one-point-bootstrap", "two-point-bootstrap", "degree-2-bootstrap-on-4"],
    )
    def test_dry_run_rejects_training_set_below_model_minimum(self, tmp_path, changes, complaint):
        # a partition the model cannot fit fails validation, not every replication
        path = self._write_config(tmp_path, **changes)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(path), "--dry-run"])
        assert "bad experiment config" in str(exc.value.code) and complaint in str(exc.value.code)

    @pytest.mark.parametrize(
        ("inference", "kind"),
        [
            ("posterior_predictive", "aic"),
            ("mle", "waic"),
            ("prior_predictive", "waic"),
            ("mle", "dic"),
            ("prior_predictive", "dic"),
            ("mle", "evidence"),
            ("prior_predictive", "evidence"),
            ("posterior_predictive", "evidence"),
        ],
    )
    def test_dry_run_rejects_criterion_under_another_inference(self, tmp_path, inference, kind):
        path = self._write_config(tmp_path, inference=inference, estimators=[{"kind": kind}])
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(path), "--dry-run"])
        message = str(exc.value.code)
        assert "bad experiment config" in message
        if kind == "evidence":
            assert "request delta under prior_predictive" in message
        else:
            assert f"{kind} needs inference" in message

    @pytest.mark.parametrize(
        ("inference", "estimators"),
        [
            ("mle", [{"kind": "aic"}]),
            ("posterior_predictive", [{"kind": "waic", "n_samples": 200}, {"kind": "dic", "n_samples": 200}]),
        ],
    )
    def test_criterion_row_equals_score_record(self, tmp_path, model_file, capsys, inference, estimators):
        path = self._write_config(tmp_path, replications=2, inference=inference, estimators=estimators)
        out_dir = tmp_path / "out"
        assert main(["experiment", "--config", str(path), "--out", str(out_dir)]) == 0
        with (out_dir / "rows.csv").open() as f:
            rows = {(row["replication_id"], row["estimator"]): row for row in csv.DictReader(f)}
        config = ExperimentConfig.from_json_dict(json.loads(path.read_text()))
        for r, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.replications)):
            # the harness's seeds: data, oracle, then one per request
            seeds = [int(s) for s in child.generate_state(2 + len(estimators), dtype=np.uint64)]
            data = tmp_path / f"rep{r}.csv"
            write_dataset_csv(sample_dataset(config.truth, config.n_points, seeds[0]), data)
            requests = tmp_path / f"rep{r}.json"
            requests.write_text(json.dumps([dict(e, seed=seeds[2 + j]) for j, e in enumerate(estimators)]))
            capsys.readouterr()
            args = ["score", "--data", str(data), "--model", str(model_file), "--estimators", str(requests)]
            assert main(args) == 0
            records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            for request, record in zip(estimators, records, strict=True):
                row = rows[(str(r), request["kind"])]
                assert float(row["estimate"]) == record["value"]
                assert row["std_error"] == "" and row["floor_engaged"] == "0"

    def test_run_writes_outputs_and_prints_summary(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["experiment", "--config", str(path), "--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out
        assert "estimator" in printed and "jackknife" in printed
        for name in ("rows.csv", "summary.csv", "config.echo.json"):
            assert (out_dir / name).exists()

    def test_all_rows_failing_names_the_cause(self, tmp_path, capsys):
        # one resample of 12 draws almost never holds the 11 distinct points
        # a degree-9 MLE needs, so every bootstrap row fails from its data
        path = self._write_config(
            tmp_path, model={"degree": 9}, estimators=[{"kind": "bootstrap", "b_resamples": 1}]
        )
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: every estimator row failed; the first, bootstrap in replication 0: .*no usable resample.*\n", err
        )

    def test_each_warning_is_printed_once(self, tmp_path):
        # a fresh interpreter, since pytest's logging capture would hide a
        # second, logged copy of a warning
        path = self._write_config(
            tmp_path, replications=20, inference="posterior_predictive", oracle={"mc_datasets": 2}
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "rpps.cli", "experiment", "--config", str(path), "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert lines and all(line.startswith("warning: estimator ") for line in lines), lines
        assert len(set(lines)) == len(lines)
        assert any("oracle SE" in line for line in lines)

    def test_missing_output_dir_is_error(self, tmp_path):
        path = self._write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["experiment", "--config", str(path)])

    def test_shipped_configs_parse(self):
        config_dir = Path(__file__).resolve().parent.parent / "configs"
        for name in ("misfit.json", "overfit.json"):
            config = ExperimentConfig.from_json_dict(json.loads((config_dir / name).read_text()))
            assert config.n_points == 12
            assert config.replications == 500
