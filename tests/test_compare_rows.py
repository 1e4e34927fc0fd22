"""tools/compare_rows.py on two hand-written rows.csv files."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_rows.py"
_SPEC = importlib.util.spec_from_file_location("compare_rows", _PATH)
compare_rows = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_rows)

_HEADER = "replication_id,estimator,estimate,std_error,exact,error,floor_engaged\n"
_PARENT = _HEADER + "0,delta,10.0,,4.0,6.0,False\n1,delta,1.0,,0.5,0.5,False\n0,loo,2.0,0.5,4.0,-2.0,False\n"
# delta: estimate and error moved within their bounds (error by 1.3e-12 of
# itself, 8e-13 of |estimate|), exact and error of replication 1 far off;
# loo: a std_error lost, an error moved by 1.25e-12 of |exact|, a row added
_CHANGE = _HEADER + (
    "0,delta,10.000000000005,,4.0,6.000000000008,False\n"
    "1,delta,1.0,,0.6,0.4,False\n"
    "0,loo,2.0,,4.0,-1.999999999995,False\n"
    "1,loo,3.0,0.1,1.0,2.0,False\n"
)
_EXPECTED = {
    ("delta", "estimate"): (2, 0, 0, 5e-13),
    ("delta", "std_error"): (0, 0, 0, 0.0),
    ("delta", "exact"): (2, 1, 1, 0.1),
    ("delta", "error"): (2, 1, 2, 0.1),
    ("loo", "estimate"): (2, 1, 1, math.inf),
    ("loo", "std_error"): (2, 2, 2, math.inf),
    ("loo", "exact"): (2, 1, 1, math.inf),
    ("loo", "error"): (2, 2, 2, math.inf),
}


def test_cells_are_off_beyond_their_bound(tmp_path, capsys):
    result = compare_rows.compare(_PARENT, _CHANGE)
    assert list(result) == list(_EXPECTED)
    for key, (compared, off, strict_off, worst) in _EXPECTED.items():
        stats = result[key]
        assert (stats["compared"], stats["off"], stats["strict_off"]) == (compared, off, strict_off), key
        assert stats["worst"] == pytest.approx(worst, rel=1e-3), key
    for name, text in (("parent", _PARENT), ("change", _CHANGE), ("same", _PARENT)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "rows.csv").write_text(text, encoding="utf-8")
    assert compare_rows.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "delta error: 1 of 2 cells off, worst move 0.1, 2 beyond 1e-12 * max(1, |ref|)" in lines
    assert lines[-1] == "total: 8 of 14 cells off"
    assert compare_rows.main([str(tmp_path / "parent"), str(tmp_path / "same")]) == 0
