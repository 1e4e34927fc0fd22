"""tools/check_refs.py, run in a child process: it imports perfbench/run.py,
which sets thread counts and RPPS_* variables in os.environ, puts
perfbench/ and src/ first on sys.path and registers top-level modules such
as `run`, all for the rest of the process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"

_WORST_MOVE_CASES = [
    ("exact,error,method\n1.5,2.0,a\n", "exact,error,method\n1.0,2.0,b\n", False, 0.5),
    ("exact,error\n,2.5\n-300.0,1.0\n", "exact,error\n5.0,2.0\n-200.0,1.0\n", False, 0.5),
    (json.dumps({"estimate": 3.0, "ok": True}), json.dumps({"estimate": 2.0, "ok": False}), True, 0.5),
    (json.dumps({"estimate": None}), json.dumps({"estimate": 1.0, "kind": "aic"}), True, 0.0),
]


def _in_child(expression: str):
    """The JSON value of `expression`, evaluated after `import check_refs`
    in a new interpreter (its last line of output)."""
    code = f"import json, sys; sys.path.insert(0, {str(_TOOLS)!r}); import check_refs; print(json.dumps({expression}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_score_cli_key_0_matches_its_reference(tmp_path):
    check = _in_child(f"check_refs.check_key('score-cli', 0, check_refs.Path({str(tmp_path)!r}))")
    assert check["reference_found"] and check["repeat_identical"]
    assert check["off"] == 0 and check["compared"] > 0
    assert 0.0 <= check["worst_move"] <= 1e-12


def test_every_key_of_the_fold_evidence_workloads_matches_its_reference(tmp_path):
    # the two workloads whose cells the Bayes fold evidences (weighted kernel
    # calls) feed, every reference key
    names = ["overfit-bayes", "misfit-bayes-boot"]
    checks = _in_child(
        f"[check_refs.check_key(name, key, check_refs.Path({str(tmp_path)!r}) / name)"
        f" for name in {names!r} for key in range(check_refs.W.REF_KEYS)]"
    )
    assert len(checks) == 2 * 16
    for check in checks:
        assert check["reference_found"] and check["repeat_identical"]
        assert check["off"] == 0 and check["compared"] > 0
        assert 0.0 <= check["worst_move"] <= 1e-12


def test_every_key_of_the_mle_workloads_matches_its_reference(tmp_path):
    # the MLE fold path (stacked least squares over the fold plans) and the
    # CLI score path, every reference key
    names = ["misfit-mle", "score-cli"]
    checks = _in_child(
        f"[check_refs.check_key(name, key, check_refs.Path({str(tmp_path)!r}) / name)"
        f" for name in {names!r} for key in range(check_refs.W.REF_KEYS)]"
    )
    assert len(checks) == 2 * 16
    for check in checks:
        assert check["reference_found"] and check["repeat_identical"]
        assert check["off"] == 0 and check["compared"] > 0
        assert 0.0 <= check["worst_move"] <= 1e-12


@pytest.fixture(scope="module")
def worst_moves():
    cases = json.dumps([case[:3] for case in _WORST_MOVE_CASES])
    return _in_child(f"[check_refs.worst_move(*case) for case in json.loads({cases!r})]")


@pytest.mark.parametrize("case", range(len(_WORST_MOVE_CASES)))
def test_worst_move_is_over_numbers_present_in_both(case, worst_moves):
    assert worst_moves[case] == _WORST_MOVE_CASES[case][3]
