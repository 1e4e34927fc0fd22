"""Command-line entry point: simulate | fit | score | experiment.

Every command is a thin adapter over the library modules; all flags can
also be supplied through RPPS_-prefixed environment variables (for example
RPPS_SEED for --seed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .datagen import DataSet, GeneratorSpec, read_dataset_csv, sample_dataset, write_dataset_csv
from .harness import (
    CRITERION_INFERENCE,
    EstimatorRequest,
    ExperimentConfig,
    emit_outputs,
    require_count,
    run_estimator,
    run_experiment,
)
from .linmodel import ModelSpec, fit_mle
from .scores import InferenceKind, PredictiveBuilder

ENV_PREFIX = "RPPS_"


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name.upper())


def _resolve(args: argparse.Namespace, name: str, cast=str, default=None):
    """Flag value, else RPPS_<NAME> environment variable, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    raw = _env(name)
    if raw is not None:
        return cast(raw)
    return default


def _load_json(path: str, what: str) -> dict:
    try:
        with Path(path).open("r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {what} {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {what} {path!r} is not valid JSON: {exc}")


def _load_object(path: str, cls, what: str):
    """`cls.from_json_dict` of the JSON file at `path`; an invalid object
    exits with a message naming `what` and the file."""
    raw = _load_json(path, what)
    try:
        return cls.from_json_dict(raw)
    except ValueError as exc:
        raise SystemExit(f"error: bad {what} {path!r}: {exc}")


def _print_record(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def cmd_simulate(args: argparse.Namespace) -> int:
    spec_path = _resolve(args, "spec")
    out_path = _resolve(args, "out")
    if spec_path is None or out_path is None:
        raise SystemExit("error: simulate needs --spec and --out")
    n = _resolve(args, "n", int, 12)
    seed = _resolve(args, "seed", int, 0)
    spec = _load_object(spec_path, GeneratorSpec, "generator spec")
    data = sample_dataset(spec, n, seed)
    write_dataset_csv(data, out_path)
    _print_record({"spec": spec.to_json_dict(), "n": n, "seed": seed, "out": str(out_path)})
    return 0


def _load_model(args: argparse.Namespace) -> ModelSpec:
    model_path = _resolve(args, "model")
    if model_path is None:
        raise SystemExit("error: a --model JSON file is required")
    return _load_object(model_path, ModelSpec, "model config")


def _load_data(args: argparse.Namespace) -> DataSet:
    data_path = _resolve(args, "data")
    if data_path is None:
        raise SystemExit("error: a --data CSV file is required")
    try:
        return read_dataset_csv(data_path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read dataset {data_path!r}: {exc}")


def cmd_fit(args: argparse.Namespace) -> int:
    model = _load_model(args)
    data = _load_data(args)
    fit = fit_mle(model, data)
    _print_record(
        {
            "degree": model.degree,
            "coeffs": fit.coeffs.tolist(),
            "sigma2": fit.sigma2,
            "n_fit": fit.n_fit,
        }
    )
    return 0


def _usage_error(message: str) -> SystemExit:
    print(f"usage error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse_request(raw, model: ModelSpec, data: DataSet, builders: dict):
    """Validate one score request; return it with its builder and seed.  A
    request is an EstimatorRequest plus the score-only `seed` and
    `inference` keys; a criterion's inference defaults to the one it
    approximates, any other kind's to `mle`.  `builders` maps each
    inference to its one builder."""
    if not isinstance(raw, dict):
        raise ValueError(f"a request must be a JSON object, got {raw!r}")
    fields = dict(raw)
    seed = fields.pop("seed", 0)
    require_count("seed", seed, minimum=0)
    inference = fields.pop("inference", None)
    request = EstimatorRequest.from_json_dict(fields)
    inference = InferenceKind(CRITERION_INFERENCE.get(request.kind, "mle") if inference is None else inference)
    if inference not in builders:
        builders[inference] = PredictiveBuilder(inference, model)
    build = builders[inference]
    request.check(build.inference, len(data))
    return request, build, seed


def cmd_score(args: argparse.Namespace) -> int:
    model = _load_model(args)
    data = _load_data(args)
    est_path = _resolve(args, "estimators")
    if est_path is None:
        raise SystemExit("error: an --estimators JSON file is required")
    raw = _load_json(est_path, "estimator config")
    requests = raw.get("requests") if isinstance(raw, dict) else raw
    if not isinstance(requests, list) or not requests:
        raise SystemExit(f"error: estimator config {est_path!r} must hold a nonempty list of requests")
    builders: dict = {}
    try:
        parsed = [_parse_request(request, model, data, builders) for request in requests]
    except ValueError as exc:
        raise _usage_error(f"bad request in {est_path!r}: {exc}")
    # each inference's predictive of the whole dataset, built at its first request
    predictives: dict = {}
    for request, build, seed in parsed:
        if build.inference not in predictives:
            predictives[build.inference] = build(data)
        _print_record(run_estimator(request, predictives[build.inference], build, data, seed).to_json_dict())
    return 0


def _summary_table(result) -> str:
    lines = [f"{'estimator':<12} {'q20':>14} {'q50':>14} {'q80':>14} {'failed':>7}"]
    for s in result.summary:
        lines.append(f"{s.estimator:<12} {s.q20:>14.6g} {s.q50:>14.6g} {s.q80:>14.6g} {s.n_failed:>7d}")
    return "\n".join(lines)


def cmd_experiment(args: argparse.Namespace) -> int:
    config_path = _resolve(args, "config")
    if config_path is None:
        raise SystemExit("error: experiment needs --config")
    config = _load_object(config_path, ExperimentConfig, "experiment config")
    out_override = _resolve(args, "out")
    out_dir = out_override if out_override is not None else config.output_dir
    if _resolve(args, "dry_run", lambda s: s not in ("", "0", "false"), False):
        print("config OK")
        print(json.dumps(config.to_json_dict(), indent=2, sort_keys=True))
        return 0
    if out_dir is None:
        raise SystemExit("error: no output directory (set output_dir in the config or pass --out)")
    result = run_experiment(config)
    emit_outputs(result, out_dir)
    print(_summary_table(result))
    for message in result.warnings:
        print(f"warning: {message}", file=sys.stderr)
    print(f"wrote {Path(out_dir) / 'rows.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpps",
        description="Relative predictive performance scores: simulate data, fit, score, and run estimator-error experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sample a dataset from a generator spec")
    p_sim.add_argument("--spec", help="generator spec JSON file")
    p_sim.add_argument("--n", type=int, help="number of points (default 12)")
    p_sim.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p_sim.add_argument("--out", help="output CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="maximum likelihood polynomial fit")
    p_fit.add_argument("--data", help="dataset CSV file")
    p_fit.add_argument("--model", help="model config JSON file ({\"degree\": d})")
    p_fit.set_defaults(func=cmd_fit)

    p_score = sub.add_parser("score", help="evaluate estimators/criteria on a dataset")
    p_score.add_argument("--data", help="dataset CSV file")
    p_score.add_argument("--model", help="model config JSON file")
    p_score.add_argument("--estimators", help="estimator request JSON file")
    p_score.set_defaults(func=cmd_score)

    p_exp = sub.add_parser("experiment", help="run an estimator-error experiment")
    p_exp.add_argument("--config", help="experiment config JSON file")
    p_exp.add_argument("--out", help="output directory (overrides the config)")
    p_exp.add_argument("--dry-run", dest="dry_run", action="store_const", const=True, default=None,
                       help="validate and echo the config without running")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
