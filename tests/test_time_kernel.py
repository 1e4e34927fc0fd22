"""tools/time_kernel.py at tiny counts: one round of one call per shape,
and the shapes meant to take the residual pass take it on every row."""

import importlib.util
import math
from pathlib import Path

import pytest

import rpps.conjugate as conjugate

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("time_kernel", _ROOT / "tools" / "time_kernel.py")
time_kernel = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(time_kernel)


def test_it_times_every_shape_of_both_trees(capsys):
    src = _ROOT / "src"
    assert time_kernel.main([str(src), str(src), "--rounds", "1", "--calls", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "min of 1 x 1 calls, us per call" and len(lines) == 2 + len(time_kernel.SHAPES)
    assert lines[1].split() == ["p", "R", "weights", "fallback", "old", "new", "new/old"]
    for line, (p, r, weighted, fallback) in zip(lines[2:], time_kernel.SHAPES):
        fields = line.split()
        assert fields[:4] == [str(p), str(r), "yes" if weighted else "no", "yes" if fallback else "no"]
        old, new, ratio = map(float, fields[4:])
        assert 0 < old < math.inf and 0 < new < math.inf and ratio > 0


@pytest.mark.parametrize("shape", [s for s in time_kernel.SHAPES if s[3]], ids=str)
def test_a_fallback_shape_sends_every_row_to_the_residual_pass(monkeypatch, shape):
    # the kernel evaluates the posterior mean by Horner's rule only in its
    # residual pass, so the rows it evaluates are the rows that take it
    rows = []
    horner = conjugate.horner

    def counting(y1, coeffs, out=None):
        rows.append(len(y1))
        return horner(y1, coeffs, out)

    monkeypatch.setattr(conjugate, "horner", counting)
    params, y1, y2, weights = time_kernel.draw_case(conjugate, *shape)
    params.log_density_batch(y1, y2, weights)
    assert sum(rows) == shape[1]
