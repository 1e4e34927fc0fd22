"""tools/time_trees.py at tiny counts: one round of one call per shape and
one run of 2 replications per lane, under a header that gives the CPUs the
run may use; the shapes meant to take the residual
pass take it on every row, and every lane is a valid config of the shipped
experiments."""

import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
from pathlib import Path

import pytest

import rpps.conjugate as conjugate
from rpps.harness import ExperimentConfig

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("time_trees", _ROOT / "tools" / "time_trees.py")
time_trees = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(time_trees)


@pytest.fixture(scope="module")
def tables():
    """The header line, the kernel table's lines and the lane table's lines
    of one tiny run of the tool on this tree against itself."""
    src = str(_ROOT / "src")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert time_trees.main([src, src, "--rounds", "1", "--calls", "1", "--runs", "1", "--reps", "2"]) == 0
    header, *lines = out.getvalue().splitlines()
    split = 2 + len(time_trees.SHAPES)
    assert len(lines) == split + 2 + len(time_trees.LANES)
    return header, lines[:split], lines[split:]


def test_its_header_gives_the_cpus_it_may_use(tables):
    assert tables[0] == f"{len(os.sched_getaffinity(0))} CPUs allowed, one BLAS thread per child"


def test_it_times_every_shape_of_both_trees(tables):
    lines = tables[1]
    assert lines[0] == "min of 1 x 1 calls, us per call"
    assert lines[1].split() == ["p", "R", "weights", "fallback", "old", "new", "new/old"]
    for line, (p, r, weighted, fallback) in zip(lines[2:], time_trees.SHAPES, strict=True):
        fields = line.split()
        assert fields[:4] == [str(p), str(r), "yes" if weighted else "no", "yes" if fallback else "no"]
        old, new, ratio = map(float, fields[4:])
        assert 0 < old < math.inf and 0 < new < math.inf and ratio > 0


def test_it_times_every_lane_of_both_trees(tables):
    lines = tables[2]
    assert lines[0] == "min of 1 x 1 runs of 2 replications, us per replication"
    assert lines[1].split() == ["lane", "old", "new", "new/old"]
    for line, (label, _, _, _) in zip(lines[2:], time_trees.LANES, strict=True):
        fields = line.split()
        assert fields[0] == label
        old, new, ratio = map(float, fields[1:])
        assert 0 < old < math.inf and 0 < new < math.inf and ratio > 0


@pytest.mark.parametrize("shape", [s for s in time_trees.SHAPES if s[3]], ids=str)
def test_a_fallback_shape_sends_every_row_to_the_residual_pass(monkeypatch, shape):
    # the kernel evaluates the posterior mean by Horner's rule only in its
    # residual pass, so the rows it evaluates are the rows that take it
    rows = []
    horner = conjugate.horner

    def counting(y1, coeffs, out=None):
        rows.append(len(y1))
        return horner(y1, coeffs, out)

    monkeypatch.setattr(conjugate, "horner", counting)
    params, y1, y2, weights = time_trees.draw_case(conjugate, *shape)
    params.log_density_batch(y1, y2, weights)
    assert sum(rows) == shape[1]


def test_a_lane_is_its_shipped_config_under_its_inference():
    cases = itertools.product(("misfit.json", "overfit.json"), ("mle", "posterior_predictive"), (False, True))
    assert sorted(lane[1:] for lane in time_trees.LANES) == sorted(cases)
    assert len({label for label, *_ in time_trees.LANES}) == len(time_trees.LANES)
    for _, name, inference, bootstrap in time_trees.LANES:
        lane = time_trees.lane_config(name, inference, bootstrap, 2)
        shipped = json.loads((_ROOT / "configs" / name).read_text(encoding="utf-8"))
        estimators = shipped["estimators"] + ([{"kind": "bootstrap", "b_resamples": 200}] if bootstrap else [])
        expected = {**shipped, "inference": inference, "estimators": estimators, "replications": 2, "output_dir": None}
        assert lane == expected
        ExperimentConfig.from_json_dict(lane)  # a valid config
