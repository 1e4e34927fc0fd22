import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"
_SPEC = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_bench)

ENV = {"python": "3.12.3", "numpy": "2.4.6", "nproc": 2}
REPORT = {"workload": "misfit-mle", "seed": 5, "seconds": 8.0, "trace": 0, "env": ENV, "end_to_end": {}}
RESULT = {
    "correct": True,
    "attempted": 120,
    "failed": 0,
    "metrics": {"reps_per_s_cal": {"unit": "1/s", "value": 2500.0}},
}


def test_parses_a_report_and_its_result():
    stdout = json.dumps({"report": REPORT}) + "\n" + json.dumps(RESULT) + "\n"
    record = record_bench.parse_run_output(stdout)
    assert record == {
        "seed": 5,
        "seconds": 8.0,
        "env": ENV,
        "runs": [{"workload": "misfit-mle", "trace": 0, **RESULT}],
    }


@pytest.mark.parametrize(
    "stdout",
    ["", json.dumps({"report": REPORT}), json.dumps(RESULT) + "\n" + json.dumps(RESULT)],
    ids=["empty", "report-without-result", "result-without-report"],
)
def test_rejects_an_unpaired_output(stdout):
    with pytest.raises(ValueError, match="alternating"):
        record_bench.parse_run_output(stdout)


def test_command_runs_every_workload_traced():
    assert record_bench.bench_command(3, 8.0) == [
        "python3", "perfbench/run.py", "--workload", "all", "--seed", "3", "--seconds", "8.0", "--trace", "1",
    ]  # fmt: skip
