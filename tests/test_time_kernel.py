"""tools/time_kernel.py at tiny counts: one round of one call per shape."""

import importlib.util
import math
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("time_kernel", _ROOT / "tools" / "time_kernel.py")
time_kernel = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(time_kernel)


def test_it_times_every_shape_of_both_trees(capsys):
    src = _ROOT / "src"
    assert time_kernel.main([str(src), str(src), "--rounds", "1", "--calls", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "min of 1 x 1 calls, us per call" and len(lines) == 2 + len(time_kernel.SHAPES)
    for line, (p, r, weighted) in zip(lines[2:], time_kernel.SHAPES):
        fields = line.split()
        assert fields[:3] == [str(p), str(r), "yes" if weighted else "no"]
        old, new, ratio = map(float, fields[3:])
        assert 0 < old < math.inf and 0 < new < math.inf and ratio > 0
