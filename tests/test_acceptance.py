"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from gridref import _mvt_logpdf, posterior_grid_summary
from rpps.cli import main
from rpps.conjugate import (
    NormalGammaParams,
    PluginGaussian,
    PosteriorPredictive,
    PosteriorSample,
    PriorPredictive,
    default_prior,
    log_evidence,
    posterior_mean,
    posterior_update,
)
from rpps.datagen import DataSet, GeneratorSpec, sample_dataset
from rpps.harness import ExperimentConfig, run_experiment
from rpps.linmodel import ModelSpec, fit_mle, plugin_log_predictive
from rpps.scores import (
    InferenceKind,
    PredictiveBuilder,
    delta_estimator,
    dic,
    exact_score_mc,
    exact_score_quadrature,
    holdout_estimator,
    jackknife_estimator,
    waic,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(number: int, text: str) -> None:
    print(f"[criterion {number}] PASS - {text}")


def test_criterion_1_conjugacy_oracle():
    """Posterior mean/variance from posterior_update vs brute-force
    integration, 5 randomized cases with p <= 2, n <= 4, 1e-5 relative."""
    started = time.time()
    cases = [(0, 3, 0), (0, 4, 1), (0, 4, 2), (1, 4, 3), (1, 3, 4)]  # (degree, n, seed)
    worst = 0.0
    for degree, n, seed in cases:
        rng = np.random.default_rng(seed)
        p = degree + 1
        a = rng.normal(size=(p, p))
        prior = NormalGammaParams(
            mu=rng.normal(scale=0.4, size=p),
            lam=a @ a.T + 0.5 * np.eye(p),
            alpha=float(rng.uniform(1.2, 2.2)),
            beta=float(rng.uniform(0.6, 1.5)),
        )
        y1 = rng.uniform(-1.0, 1.0, n)
        y2 = rng.normal(1.5 + 1.0 * y1, 0.7)
        spec = ModelSpec(degree)
        post = posterior_update(prior, DataSet(y1, y2))
        closed_var = post.beta / (post.alpha - 1.0) * np.diag(np.linalg.inv(post.lam))
        grid = posterior_grid_summary(prior.mu, prior.lam, prior.alpha, prior.beta, y1, y2)
        assert np.all(np.abs(grid["mean"]) > 0.05), "case must keep means away from zero"
        rel_mean = float(np.max(np.abs((post.mu - grid["mean"]) / grid["mean"])))
        rel_var = float(np.max(np.abs((closed_var - grid["var"]) / grid["var"])))
        assert rel_mean < 1e-5, f"case {(degree, n, seed)}: mean rel err {rel_mean:.2e}"
        assert rel_var < 1e-5, f"case {(degree, n, seed)}: var rel err {rel_var:.2e}"
        worst = max(worst, rel_mean, rel_var)
    elapsed = time.time() - started
    assert elapsed < 30.0
    _report(1, f"conjugacy oracle, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_evidence_identities():
    """Chain rule over 100 random splits to 1e-9; prior-predictive delta is
    the negated evidence bitwise."""
    started = time.time()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        degree = int(rng.integers(0, 3))
        spec = ModelSpec(degree)
        p = degree + 1
        a = rng.normal(size=(p, p))
        prior = NormalGammaParams(
            mu=rng.normal(scale=0.5, size=p),
            lam=a @ a.T + 0.3 * np.eye(p),
            alpha=float(rng.uniform(0.5, 2.5)),
            beta=float(rng.uniform(0.4, 2.0)),
        )
        n = int(rng.integers(4, 11))
        truth = GeneratorSpec(degree, tuple(rng.normal(size=p)), float(rng.uniform(0.3, 1.0)))
        data = sample_dataset(truth, n=n, seed=seed + 5000)
        cut = int(rng.integers(1, n))
        head, tail = data.subset(range(cut)), data.subset(range(cut, n))
        whole = log_evidence(prior, data)
        predictive = PosteriorPredictive(posterior_update(prior, head))
        tail_density = predictive.log_density_batch(tail.y1[None], tail.y2[None])[0]
        chained = log_evidence(prior, head) + float(tail_density)
        worst = max(worst, abs(whole - chained))
        assert abs(whole - chained) < 1e-9
        est = delta_estimator(PriorPredictive(prior), data)
        assert est.value == -whole  # bitwise
    elapsed = time.time() - started
    assert elapsed < 5.0
    _report(2, f"evidence identities, worst chain-rule gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_oracle_cross_check():
    """Quadrature vs Monte Carlo (R = 1e5) exact scores agree within 3 MC
    standard errors on 10 random plug-in predictives."""
    started = time.time()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        true_degree = int(rng.integers(0, 5))
        truth = GeneratorSpec(
            true_degree,
            tuple(rng.normal(scale=1.0, size=true_degree + 1)),
            float(rng.uniform(0.3, 1.2)),
        )
        fit_degree = int(rng.integers(0, 3))
        predictive = PluginGaussian(
            coeffs=rng.normal(scale=1.0, size=fit_degree + 1),
            sigma2=float(rng.uniform(0.2, 1.5) ** 2),
        )
        quad = exact_score_quadrature(truth, predictive, n_points=12)
        mc = exact_score_mc(truth, predictive, n_datasets=100_000, n_points=12, seed=seed + 77)
        assert abs(quad.value - mc.value) < 3 * mc.std_error, (
            f"seed {seed}: quad {quad.value:.4f} mc {mc.value:.4f} se {mc.std_error:.4f}"
        )
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report(3, f"quadrature vs MC oracle on 10 predictives, {elapsed:.1f}s")


def test_criterion_4_waic_reduces_to_dic():
    """Degenerate posterior sample set at the point estimate: WAIC and DIC
    coincide and both equal the negated plug-in log likelihood."""
    truth = GeneratorSpec(1, (0.4, 0.8), 0.6)
    data = sample_dataset(truth, n=12, seed=31)
    spec = ModelSpec(1)
    posterior = posterior_update(default_prior(spec), data)
    point = posterior_mean(posterior)
    samples = PosteriorSample(np.repeat(point.coeffs, 8, axis=0), np.repeat(point.precision, 8))
    w = waic(samples, data)
    d = dic(samples, point, data)
    direct = -sum(
        math.log(0.5)
        + float(
            stats.norm.logpdf(y2, float(point.coeffs[0] @ [1.0, y1]), 1.0 / math.sqrt(point.precision[0]))
        )
        for y1, y2 in zip(data.y1, data.y2)
    )
    assert abs(w.value - d.value) < 1e-10
    assert abs(w.value - direct) < 1e-10
    assert abs(d.value - direct) < 1e-10
    _report(4, f"WAIC == DIC == {direct:.6f} at the degenerate posterior")


def test_criterion_5_jackknife_loo_identity():
    """K = N jackknife on the plug-in predictive equals the explicit
    leave-one-out sum to 1e-12."""
    truth = GeneratorSpec(1, (0.1, 0.9), 0.5)
    data = sample_dataset(truth, n=12, seed=13)
    build = PredictiveBuilder(InferenceKind.MLE, ModelSpec(1))
    est = jackknife_estimator(build, data, k_folds=12, seed=3)
    explicit = 0.0
    for i in range(12):
        rest = [j for j in range(12) if j != i]
        fit = fit_mle(ModelSpec(1), data.subset(rest))
        explicit -= plugin_log_predictive(fit, data.subset([i]))
    assert abs(est.value - explicit) < 1e-12
    _report(5, f"jackknife K=N equals explicit LOO, gap {abs(est.value - explicit):.2e}")


def _ensemble_stats(config: ExperimentConfig) -> dict:
    result = run_experiment(config)
    out = {}
    for s in result.summary:
        errors = [r.error for r in result.rows if r.estimator == s.estimator and not r.failed]
        out[s.estimator] = {
            "median": float(np.median(errors)),
            "q20": s.q20,
            "q80": s.q80,
            "n_failed": s.n_failed,
        }
    return out


def test_criterion_6_misfit_figure_shape():
    """Misfit ensembles (quartic truth, degree-0 model): every estimator
    shows nonzero median bias, and the 20-80% bands of an independently
    reseeded ensemble overlap for at least 2 of 3 estimators.

    'Nonzero median bias' is checked as |median error| > 0.1, an order of
    magnitude below the medians this configuration produces across seeds.
    """
    started = time.time()
    config = ExperimentConfig.from_json_dict(json.loads((CONFIG_DIR / "misfit.json").read_text()))
    assert config.replications == 500 and config.n_points == 12
    stats_a = _ensemble_stats(config)
    reseeded = ExperimentConfig.from_json_dict({**config.to_json_dict(), "seed": config.seed + 1})
    stats_b = _ensemble_stats(reseeded)
    for name in ("delta", "holdout", "jackknife"):
        assert abs(stats_a[name]["median"]) > 0.1, f"{name} median {stats_a[name]['median']}"
    overlaps = 0
    for name in ("delta", "holdout", "jackknife"):
        a, b = stats_a[name], stats_b[name]
        if a["q20"] <= b["q80"] and b["q20"] <= a["q80"]:
            overlaps += 1
    assert overlaps >= 2
    elapsed = time.time() - started
    assert elapsed < 600.0
    medians = {k: round(v["median"], 3) for k, v in stats_a.items()}
    _report(6, f"misfit medians {medians}, band overlap {overlaps}/3, {elapsed:.1f}s")


def test_criterion_7_overfit_figure_shape():
    """Overfit ensembles (constant truth, degree-4 model): the hold-out
    20-80% error band is wider than the jackknife's and the delta median
    error is negative; sign/ordering checks only."""
    started = time.time()
    config = ExperimentConfig.from_json_dict(json.loads((CONFIG_DIR / "overfit.json").read_text()))
    assert config.replications == 500
    summary = _ensemble_stats(config)
    holdout_band = summary["holdout"]["q80"] - summary["holdout"]["q20"]
    jackknife_band = summary["jackknife"]["q80"] - summary["jackknife"]["q20"]
    assert holdout_band > jackknife_band
    assert summary["delta"]["median"] < 0.0
    elapsed = time.time() - started
    assert elapsed < 900.0
    _report(
        7,
        f"overfit: holdout band {holdout_band:.1f} > jackknife band {jackknife_band:.1f}, "
        f"delta median {summary['delta']['median']:.2f}, {elapsed:.1f}s",
    )


def test_criterion_8_experiment_determinism(tmp_path):
    """cmd_experiment twice with the same config gives byte-identical
    rows.csv."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    config = str(CONFIG_DIR / "misfit.json")
    assert main(["experiment", "--config", config, "--out", str(out_a)]) == 0
    assert main(["experiment", "--config", config, "--out", str(out_b)]) == 0
    bytes_a = (out_a / "rows.csv").read_bytes()
    assert bytes_a == (out_b / "rows.csv").read_bytes()
    assert len(bytes_a) > 0
    _report(8, f"byte-identical rows.csv ({len(bytes_a)} bytes) across reruns")


def test_criterion_9_score_difference_invariance():
    """Every score path equals its y2-only value, built here from
    independent references, plus N log 2 for the uniform y1 factor counted
    once per point; so every pairwise difference is the y2-only one."""
    n = 12
    n_log2 = n * math.log(2.0)
    truth = GeneratorSpec(4, (0.5, -3.0, -4.0, 3.0, 6.0), 0.5)
    data = sample_dataset(truth, n=n, seed=23)
    spec = ModelSpec(0)
    fit = fit_mle(spec, data)
    prior = default_prior(spec)
    build = PredictiveBuilder(InferenceKind.MLE, spec)

    def y2_log_density(train, valid):
        # the plug-in Gaussian of the fit on data[train] at the y2 of data[valid]
        f = fit_mle(spec, data.subset(train))
        return float(np.sum(stats.norm.logpdf(data.y2[valid], f.mean_at(data.y1[valid]), math.sqrt(f.sigma2))))

    def cross_entropy(y1):
        gap = truth.mean_at(y1) - fit.mean_at(y1)
        return 0.5 * math.log(2.0 * math.pi * fit.sigma2) + (truth.sigma**2 + gap**2) / (2.0 * fit.sigma2)

    everything = np.arange(n)
    idx = np.random.default_rng(2).permutation(n)  # the seeded shuffle of hold-out and jackknife
    folds = idx.reshape(6, 2)
    y2_only = {
        "delta_plugin": -y2_log_density(everything, everything),
        "delta_prior": -_mvt_logpdf(prior, spec, data.y1, data.y2),
        "holdout": -(n / 6) * y2_log_density(idx[:6], idx[6:]),
        "jackknife": -sum(y2_log_density(np.setdiff1d(everything, fold), fold) for fold in folds),
        "exact_quadrature": n * 0.5 * integrate.quad(cross_entropy, -1.0, 1.0)[0],
    }
    scores = {
        "delta_plugin": delta_estimator(fit, data).value,
        "delta_prior": delta_estimator(PriorPredictive(prior), data).value,
        "holdout": holdout_estimator(build, data, 6, 6, seed=2).value,
        "jackknife": jackknife_estimator(build, data, 6, seed=2).value,
        "exact_quadrature": exact_score_quadrature(truth, fit, n_points=n).value,
    }
    for name, value in scores.items():
        assert value == pytest.approx(y2_only[name] + n_log2, abs=1e-10), name
    names = list(scores)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert scores[a] - scores[b] == pytest.approx(y2_only[a] - y2_only[b], abs=1e-9)
    _report(9, f"all five score paths are their y2-only value + N log 2 = {n_log2:.6f}; differences y2-only")
