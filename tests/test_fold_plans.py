"""The cached cross-validation fold plans: hold-out and jackknife estimates
through them are bit for bit those of a plan built in the call (the
training rows as each mask's complement, the counts as a bincount of them,
the rescale as N / |V|) under every inference kind at degrees 0-4; a plan is
read-only and built once per (N, k_folds, n_valid)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpps.scores as scores
from rpps.datagen import GeneratorSpec, sample_dataset
from rpps.linmodel import ModelSpec
from rpps.scores import InferenceKind, PredictiveBuilder, _fold_plan, holdout_estimator, jackknife_estimator


def _plan_in_the_call(valid):
    """(train, counts, rescale) of the (R, N) mask `valid`, written out."""
    r, n = valid.shape
    train = np.array([np.flatnonzero(~v) for v in valid], dtype=int)
    counts = np.bincount((train + n * np.arange(r)[:, None]).ravel(), minlength=r * n).reshape(r, n)
    return train, counts, n / int(np.count_nonzero(valid))


def _estimate_in_the_call(build, data, valid, seed):
    train, counts, rescale = _plan_in_the_call(valid)
    shuffled = data.subset(np.random.default_rng(seed).permutation(len(data)))
    log_density, _, usable = build.score_folds(shuffled, train, valid, counts)
    assert usable.all()
    return -rescale * float(np.sum(log_density))


def _assert_plan_is(plan, valid):
    train, counts, rescale = _plan_in_the_call(valid)
    assert np.array_equal(plan[0], valid) and np.array_equal(plan[1], train)
    assert np.array_equal(plan[2], counts) and plan[3] == rescale


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 4), kind=st.sampled_from(list(InferenceKind)))
def test_cached_plans_score_as_plans_built_in_the_call(seed, degree, kind):
    rng = np.random.default_rng(seed)
    truth = GeneratorSpec(degree, tuple(rng.normal(size=degree + 1)), float(rng.uniform(0.3, 1.0)))
    build = PredictiveBuilder(kind, ModelSpec(degree))
    n = int(rng.integers(degree + 3, 31))
    data = sample_dataset(truth, n=n, seed=seed)
    minimum = max(1, build.min_train_size)

    n_train = int(rng.integers(minimum, n))
    valid = np.arange(n)[None] >= n_train
    _assert_plan_is(_fold_plan(n, 1, n - n_train), valid)
    expected = _estimate_in_the_call(build, data, valid, seed)
    assert holdout_estimator(build, data, n_train, n - n_train, seed).value == expected

    k = int(rng.choice([k for k in range(2, n + 1) if n % k == 0 and n - n // k >= minimum]))
    valid = np.eye(k, dtype=bool).repeat(n // k, axis=1)
    _assert_plan_is(_fold_plan(n, k, n // k), valid)
    expected = _estimate_in_the_call(build, data, valid, seed)
    assert jackknife_estimator(build, data, k, seed).value == expected


@pytest.mark.parametrize("n, k_folds, n_valid", [(12, 1, 6), (12, 6, 2), (7, 1, 3), (7, 7, 1)])
def test_a_plan_is_read_only(n, k_folds, n_valid):
    for array in _fold_plan(n, k_folds, n_valid)[:3]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_a_plan_is_built_once_per_size():
    assert _fold_plan(12, 6, 2) is _fold_plan(12, 6, 2)
    assert _fold_plan(12, 6, 2) is not _fold_plan(12, 4, 3)
    assert _fold_plan(12, 1, 6) is not _fold_plan(12, 1, 4)
    assert _fold_plan(12, 1, 6) is not _fold_plan(10, 1, 6)
    assert not np.array_equal(_fold_plan(12, 6, 2)[0], _fold_plan(12, 4, 3)[0])


def test_replications_of_one_size_share_one_plan(monkeypatch):
    plans = []

    def recording(*key):
        plans.append(_fold_plan(*key))
        return plans[-1]

    monkeypatch.setattr(scores, "_fold_plan", recording)
    build = PredictiveBuilder("mle", ModelSpec(1))
    truth = GeneratorSpec(1, (0.5, 1.0), 0.5)
    for seed in (1, 2):
        data = sample_dataset(truth, n=12, seed=seed)
        holdout_estimator(build, data, 8, 4, seed)
        jackknife_estimator(build, data, 4, seed)
    assert plans[0] is plans[2] and plans[1] is plans[3] and plans[0] is not plans[1]
