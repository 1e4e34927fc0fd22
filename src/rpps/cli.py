"""Command-line entry point: simulate | fit | score | experiment.

Every command is a thin adapter over the library modules.  A run reads
its flags and the files they name, nothing else.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .datagen import DataSet, GeneratorSpec, read_dataset_csv, require_count, sample_dataset, write_dataset_csv
from .harness import (
    CRITERION_INFERENCE,
    EstimatorRequest,
    ExperimentConfig,
    emit_outputs,
    run_estimator,
    run_experiment,
)
from .linmodel import ModelSpec, fit_mle
from .scores import InferenceKind, PredictiveBuilder


def _resolve(args: argparse.Namespace, name: str):
    """The value of flag `name` (perfbench's setup launch reads the
    estimators path through it)."""
    return getattr(args, name)


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
    spec = _load_object(args.spec, GeneratorSpec, "generator spec")
    data = sample_dataset(spec, args.n, args.seed)
    write_dataset_csv(data, args.out)
    _print_record({"spec": spec.to_json_dict(), "n": args.n, "seed": args.seed, "out": str(args.out)})
    return 0


def _load_model(args: argparse.Namespace) -> ModelSpec:
    return _load_object(args.model, ModelSpec, "model config")


def _load_data(args: argparse.Namespace) -> DataSet:
    try:
        return read_dataset_csv(args.data)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read dataset {args.data!r}: {exc}")


def cmd_fit(args: argparse.Namespace) -> int:
    model = _load_model(args)
    data = _load_data(args)
    fit = fit_mle(model, data)
    _print_record(
        {
            "degree": model.degree,
            "coeffs": fit.coeffs.tolist(),
            "sigma2": fit.sigma2,
            "n_fit": len(data),
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
    request.check(build, len(data))
    return request, build, seed


def cmd_score(args: argparse.Namespace) -> int:
    model = _load_model(args)
    data = _load_data(args)
    raw = _load_json(args.estimators, "estimator config")
    extra = sorted(set(raw) - {"requests"}) if isinstance(raw, dict) else []
    requests = raw.get("requests") if isinstance(raw, dict) else raw
    if extra or not isinstance(requests, list) or not requests:
        unknown = f" and no other key, got {extra}" if extra else ""
        raise _usage_error(f"estimator config {args.estimators!r} must hold a nonempty list of requests{unknown}")
    builders: dict = {}
    try:
        parsed = [_parse_request(request, model, data, builders) for request in requests]
    except ValueError as exc:
        raise _usage_error(f"bad request in {args.estimators!r}: {exc}")
    # each inference's predictive of the whole dataset, built at its first request
    predictives: dict = {}
    for request, build, seed in parsed:
        if build.inference not in predictives:
            predictives[build.inference] = build(data)
        record = run_estimator(request, predictives[build.inference], build, data, seed).to_json_dict()
        if request.label is not None:
            record["label"] = request.label
        _print_record(record)
    return 0


def _summary_table(result) -> str:
    lines = [f"{'estimator':<12} {'q20':>14} {'q50':>14} {'q80':>14} {'failed':>7}"]
    for s in result.summary:
        lines.append(f"{s.estimator:<12} {s.q20:>14.6g} {s.q50:>14.6g} {s.q80:>14.6g} {s.n_failed:>7d}")
    return "\n".join(lines)


def cmd_experiment(args: argparse.Namespace) -> int:
    config = _load_object(args.config, ExperimentConfig, "experiment config")
    out_dir = args.out if args.out is not None else config.output_dir
    if args.dry_run:
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one `rpps` parser of this process, built at the first call.  Each
    `parse_args` makes a fresh namespace, so nothing carries between calls."""
    parser = argparse.ArgumentParser(
        prog="rpps",
        description="Relative predictive performance scores: simulate data, fit, score, and run estimator-error experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sample a dataset from a generator spec")
    p_sim.add_argument("--spec", required=True, help="generator spec JSON file")
    p_sim.add_argument("--n", type=int, default=12, help="number of points (default 12)")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="maximum likelihood polynomial fit")
    p_fit.add_argument("--data", required=True, help="dataset CSV file")
    p_fit.add_argument("--model", required=True, help="model config JSON file ({\"degree\": d})")
    p_fit.set_defaults(func=cmd_fit)

    p_score = sub.add_parser("score", help="evaluate estimators/criteria on a dataset")
    p_score.add_argument("--data", required=True, help="dataset CSV file")
    p_score.add_argument("--model", required=True, help="model config JSON file")
    p_score.add_argument("--estimators", required=True, help="estimator request JSON file")
    p_score.set_defaults(func=cmd_score)

    p_exp = sub.add_parser("experiment", help="run an estimator-error experiment")
    p_exp.add_argument("--config", required=True, help="experiment config JSON file")
    p_exp.add_argument("--out", help="output directory (overrides the config)")
    p_exp.add_argument("--dry-run", action="store_true",
                       help="validate and echo the config without running")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
