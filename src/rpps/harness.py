"""Estimator-error experiments: ensembles of measurements, every estimator
against the exact-score oracle, error quantiles, and flat-file outputs.

Seeding: replication r draws its generator, oracle, and estimator seeds from
numpy SeedSequence(config.seed).spawn(replications)[r], so a config is a
complete, machine-independent description of the run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .conjugate import Predictive, posterior_mean, sample_posterior
from .datagen import DataSet, GeneratorSpec, load_json_object, require_count, sample_dataset
from .linmodel import ModelSpec, PluginGaussian, RankDeficient
from .scores import (
    AllResamplesDegenerate,
    Bootstrap,
    Criterion,
    InferenceKind,
    PredictiveBuilder,
    ScoreEstimate,
    aic,
    bootstrap_estimator,
    delta_estimator,
    dic,
    evidence_criterion,
    exact_score_mc,
    exact_score_quadrature,
    holdout_estimator,
    jackknife_estimator,
    waic,
)

ROWS_HEADER = ["replication_id", "estimator", "estimate", "std_error", "exact", "error", "floor_engaged"]
SUMMARY_HEADER = ["estimator", "q20", "q50", "q80"]
SUMMARY_PROBS = (0.2, 0.5, 0.8)


# The count fields each request kind uses.  A kind needs every field it
# uses (n_samples defaults to 1000) and must leave the others unset.
KIND_FIELDS = {
    "delta": (),
    "holdout": ("n_train", "n_valid"),
    "jackknife": ("k_folds",),
    "bootstrap": ("b_resamples",),
    "evidence": (),
    "aic": (),
    "waic": ("n_samples",),
    "dic": ("n_samples",),
}
COUNT_FIELDS = ("n_train", "n_valid", "k_folds", "b_resamples", "n_samples")

# A criterion approximates the score of one inference only; the other kinds
# run under any inference.
CRITERION_INFERENCE = {
    "evidence": InferenceKind.PRIOR_PREDICTIVE,
    "aic": InferenceKind.MLE,
    "waic": InferenceKind.POSTERIOR_PREDICTIVE,
    "dic": InferenceKind.POSTERIOR_PREDICTIVE,
}


@dataclass(frozen=True)
class EstimatorRequest:
    """One estimator or criterion selection; `label` names its rows in the
    outputs."""

    kind: str  # a key of KIND_FIELDS
    n_train: int | None = None
    n_valid: int | None = None
    k_folds: int | None = None
    b_resamples: int | None = None
    n_samples: int | None = None
    label: str | None = None

    def __post_init__(self):
        kinds = tuple(KIND_FIELDS)  # a tuple: an unhashable kind is an unknown one, not a TypeError
        if self.kind not in kinds:
            raise ValueError(f"unknown estimator kind {self.kind!r}; expected one of {kinds}")
        uses = KIND_FIELDS[self.kind]
        if "n_samples" in uses and self.n_samples is None:
            object.__setattr__(self, "n_samples", 1000)
        for key in COUNT_FIELDS:
            value = getattr(self, key)
            if key not in uses:
                if value is not None:
                    raise ValueError(f"{self.kind} takes no {key}")
            elif value is None:
                raise ValueError(f"{self.kind} needs {key}")
            else:
                require_count(key, value, minimum=2 if key == "n_samples" else 1)
        # a label is a rows.csv and summary.csv cell, written without quoting
        if self.label is not None and (
            not isinstance(self.label, str) or not self.label or any(c in self.label for c in ',"\r\n')
        ):
            raise ValueError(
                f"label must be a string, nonempty and without commas, quotes or line breaks, got {self.label!r}"
            )

    def check(self, build: PredictiveBuilder, n_points: int) -> None:
        """Raise ValueError unless the request runs on n_points under the
        inference of `build`: a criterion needs its own inference, a partition
        must fit, and each training set (the measurement, a hold-out's n_train
        points, a jackknife fold's complement) needs `build.min_train_size`.
        A kept bootstrap resample leaves a point out of the bag, so it trains
        on at most n_points - 1 distinct points, and needs at least one."""
        fixed, minimum = CRITERION_INFERENCE.get(self.kind), build.min_train_size
        if fixed is not None and build.inference != fixed:
            raise ValueError(f"{self.kind} needs inference {fixed.value!r}, got {build.inference.value!r}")
        if self.kind == "holdout" and self.n_train + self.n_valid != n_points:
            raise ValueError(f"holdout partitions must cover all {n_points} points")
        if self.kind == "jackknife" and n_points % self.k_folds != 0:
            raise ValueError(f"k_folds must divide n_points = {n_points}")
        train = self.n_train if self.kind == "holdout" else n_points
        if self.kind == "jackknife":
            train -= n_points // self.k_folds
        if self.kind == "bootstrap":
            train, minimum = n_points - 1, max(minimum, 1)
        if train < minimum:
            below = f"below the degree-{build.spec.degree} {build.inference.value} minimum {minimum}"
            raise ValueError(f"{self.kind} trains on {train} of {n_points} points, {below}")

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.kind

    def to_json_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}

    @classmethod
    def from_json_dict(cls, d: dict) -> "EstimatorRequest":
        return load_json_object(cls, "estimator", d)


@dataclass(frozen=True)
class OracleConfig:
    """Exact-score oracle settings: quadrature for plug-in predictives,
    Monte Carlo with mc_datasets replicates otherwise."""

    mc_datasets: int = 20000
    quadrature: bool = True

    def __post_init__(self):
        require_count("mc_datasets", self.mc_datasets, minimum=2)
        if not isinstance(self.quadrature, bool):
            raise ValueError(f"quadrature must be true or false, got {self.quadrature!r}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "OracleConfig":
        return load_json_object(cls, "oracle", d)


@dataclass(frozen=True)
class ExperimentConfig:
    truth: GeneratorSpec
    model: ModelSpec
    inference: InferenceKind
    estimators: tuple[EstimatorRequest, ...]
    seed: int
    replications: int = 500
    n_points: int = 12
    oracle: OracleConfig = field(default_factory=OracleConfig)
    output_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "inference", InferenceKind(self.inference))
        require_count("replications", self.replications)
        require_count("n_points", self.n_points)
        require_count("seed", self.seed, minimum=0)
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string or null, got {self.output_dir!r}")
        if not self.estimators:
            raise ValueError("select at least one estimator")
        names = [e.name for e in self.estimators]
        if len(set(names)) != len(names):
            raise ValueError(f"estimator labels must be unique, got {names}")
        build = PredictiveBuilder(self.inference, self.model)
        for request in self.estimators:
            if request.kind == "evidence":
                raise ValueError(
                    "evidence keeps its classical sign and is no score; request delta under "
                    "prior_predictive, whose value is exactly the negated log evidence"
                )
            request.check(build, self.n_points)

    def to_json_dict(self) -> dict:
        estimators = [e.to_json_dict() for e in self.estimators]
        return {**asdict(self), "inference": self.inference.value, "estimators": estimators}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        nested = {"truth": GeneratorSpec.from_json_dict, "model": ModelSpec.from_json_dict,
                  "estimators": _load_requests, "oracle": OracleConfig.from_json_dict}
        return load_json_object(cls, "config", d, **nested)


def _load_requests(raw) -> tuple[EstimatorRequest, ...]:
    if not isinstance(raw, list):
        raise ValueError(f"expected a JSON list, got {raw!r}")
    return tuple(EstimatorRequest.from_json_dict(e) for e in raw)


@dataclass(frozen=True)
class ReplicationRow:
    """One estimator evaluation on one replication; a failed row keeps the
    estimator name, the exact score if it was computed, and the failure's
    message, but no estimate."""

    replication_id: int
    estimator: str
    estimate: float | None
    std_error: float | None
    exact: float | None
    error: float | None
    floor_engaged: int
    message: str = ""

    @property
    def failed(self) -> bool:
        return self.estimate is None


@dataclass(frozen=True)
class SummaryRow:
    estimator: str
    q20: float
    q50: float
    q80: float
    n_failed: int = 0


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[ReplicationRow, ...]
    summary: tuple[SummaryRow, ...]
    warnings: tuple[str, ...] = ()


def _exact_score(config: ExperimentConfig, predictive: Predictive, oracle_seed: int) -> ScoreEstimate:
    if isinstance(predictive, PluginGaussian) and config.oracle.quadrature:
        return exact_score_quadrature(config.truth, predictive, config.n_points)
    return exact_score_mc(
        config.truth, predictive, config.oracle.mc_datasets, config.n_points, oracle_seed
    )


def run_estimator(
    request: EstimatorRequest,
    predictive: Predictive,
    build: PredictiveBuilder,
    measurement: DataSet,
    seed: int,
) -> ScoreEstimate | Criterion:
    """Run one request on a measurement under the inference of `build`.

    `predictive` is the one `build` made from the whole measurement: delta
    and AIC score it, and WAIC and DIC draw from its posterior.  The
    partition estimators score their folds through `build.score_folds`.
    `seed` draws the partitions and the posterior samples.
    """
    request.check(build, len(measurement))
    kind = request.kind
    if kind == "holdout":
        return holdout_estimator(build, measurement, request.n_train, request.n_valid, seed)
    if kind == "jackknife":
        return jackknife_estimator(build, measurement, request.k_folds, seed)
    if kind == "bootstrap":
        return bootstrap_estimator(build, measurement, Bootstrap(b_resamples=request.b_resamples, seed=seed))
    if kind == "evidence":
        return evidence_criterion(build.prior, measurement)
    if kind == "delta":
        return delta_estimator(predictive, measurement)
    if kind == "aic":
        return aic(predictive, measurement)
    samples = sample_posterior(predictive, request.n_samples, seed)
    if kind == "waic":
        return waic(samples, measurement)
    return dic(samples, posterior_mean(predictive), measurement)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full ensemble and summarize estimator errors.

    Per replication: sample a measurement, build the configured predictive,
    compute the exact score once, then every selected estimator.  Only data
    failures (rank-deficient fits, degenerate bootstraps) become failed rows,
    and the run fails, naming the first, if every row does; any other
    exception propagates.  The summary quantiles interpolate linearly between
    the order statistics of each request's errors at h = (n - 1) * p.
    Warnings are returned, not logged.
    """
    build = PredictiveBuilder(config.inference, config.model)
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.replications)
    rows: list[ReplicationRow] = []
    errors: dict[str, list[float]] = {request.name: [] for request in config.estimators}
    oracle_ses: list[float] = []
    for r, child in enumerate(children):
        sub = child.generate_state(2 + len(config.estimators), dtype=np.uint64)
        data_seed, oracle_seed = int(sub[0]), int(sub[1])
        measurement = sample_dataset(config.truth, config.n_points, data_seed)
        try:
            predictive = build(measurement)
            exact = _exact_score(config, predictive, oracle_seed)
        except RankDeficient as exc:
            for request in config.estimators:
                rows.append(ReplicationRow(r, request.name, None, None, None, None, 0, str(exc)))
            continue
        if exact.std_error is not None:
            oracle_ses.append(exact.std_error)
        for j, request in enumerate(config.estimators):
            try:
                est = run_estimator(request, predictive, build, measurement, int(sub[2 + j]))
            except (RankDeficient, AllResamplesDegenerate) as exc:
                rows.append(ReplicationRow(r, request.name, None, None, exact.value, None, 0, str(exc)))
                continue
            error, floored = est.value - exact.value, est.floor_engaged + exact.floor_engaged
            rows.append(ReplicationRow(r, request.name, est.value, est.std_error, exact.value, error, floored))
            errors[request.name].append(error)
    if not any(errors.values()):
        first = rows[0]
        raise RuntimeError(
            f"every estimator row failed; the first, {first.estimator} in replication "
            f"{first.replication_id}: {first.message}"
        )

    warnings: list[str] = []
    summary: list[SummaryRow] = []
    for name, errs in errors.items():
        n_failed = config.replications - len(errs)
        if not errs:
            warnings.append(f"estimator {name}: all {n_failed} replications failed")
            summary.append(SummaryRow(name, float("nan"), float("nan"), float("nan"), n_failed))
            continue
        q20, q50, q80 = map(float, np.quantile(errs, SUMMARY_PROBS))
        summary.append(SummaryRow(name, q20, q50, q80, n_failed))
        if oracle_ses:
            iqr = float(np.subtract(*np.quantile(errs, [0.75, 0.25])))
            median_se = float(np.median(oracle_ses))
            if iqr > 0 and median_se > 0.05 * iqr:
                warnings.append(f"estimator {name}: oracle SE {median_se:.4g} exceeds 5% of error IQR {iqr:.4g}")
    return ExperimentResult(config=config, rows=tuple(rows), summary=tuple(summary), warnings=tuple(warnings))


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".17g")


def emit_outputs(result: ExperimentResult, out_dir) -> None:
    """Write rows.csv (long format, one row per replication x estimator),
    summary.csv, and config.echo.json into `out_dir`."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        rows_path = out / "rows.csv"
        with rows_path.open("w", encoding="utf-8", newline="") as f:
            f.write(",".join(ROWS_HEADER) + "\n")
            for row in result.rows:
                numbers = map(_fmt, (row.estimate, row.std_error, row.exact, row.error))
                f.write(",".join([str(row.replication_id), row.estimator, *numbers, str(row.floor_engaged)]) + "\n")
        with (out / "summary.csv").open("w", encoding="utf-8", newline="") as f:
            f.write(",".join(SUMMARY_HEADER) + "\n")
            for s in result.summary:
                f.write(",".join([s.estimator, _fmt(s.q20), _fmt(s.q50), _fmt(s.q80)]) + "\n")
        with (out / "config.echo.json").open("w", encoding="utf-8") as f:
            json.dump(result.config.to_json_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing experiment outputs under {out}: {exc}") from exc
