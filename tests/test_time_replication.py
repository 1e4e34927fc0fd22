"""tools/time_replication.py at tiny counts: one round of one run of 2
replications per lane, and every lane is a valid config of the shipped
experiments."""

import importlib.util
import json
import math
from pathlib import Path

from rpps.harness import ExperimentConfig

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("time_replication", _ROOT / "tools" / "time_replication.py")
time_replication = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(time_replication)


def test_it_times_every_lane_of_both_trees(capsys):
    src = _ROOT / "src"
    assert time_replication.main([str(src), str(src), "--rounds", "1", "--runs", "1", "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "min of 1 x 1 runs of 2 replications, us per replication"
    assert lines[1].split() == ["lane", "old", "new", "new/old"] and len(lines) == 2 + len(time_replication.LANES)
    for line, (label, _, _) in zip(lines[2:], time_replication.LANES):
        fields = line.split()
        assert fields[0] == label
        old, new, ratio = map(float, fields[1:])
        assert 0 < old < math.inf and 0 < new < math.inf and ratio > 0


def test_a_lane_is_its_shipped_config_under_its_inference():
    for _, name, inference in time_replication.LANES:
        lane = time_replication.lane_config(name, inference, 2)
        shipped = json.loads((_ROOT / "configs" / name).read_text(encoding="utf-8"))
        assert lane == {**shipped, "inference": inference, "replications": 2, "output_dir": None}
        ExperimentConfig.from_json_dict(lane)  # a valid config
