"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size in both trace modes and checks that the
last line carries exactly the metric names and units BENCHMARK.json lists,
that a run on an unchanged tree passes its output check, and that changing
one reference cell makes the output check fail.  Scratch trees go under
.perfbench_out/smoke.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench_out" / "smoke"
SEED = 3
SECONDS = "0.3"


def bench(tree: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=tree,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def copy_tree(dest: Path) -> Path:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def check_metric_names(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, stdout = bench(ROOT, name, trace)
            result = result_of(stdout)
            printed = {m: v["unit"] for m, v in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in spec[key]}
            if printed != expected:
                raise AssertionError(f"{name} trace {trace}: printed {printed}, BENCHMARK.json {expected}")
            if code != 0 or not result["correct"] or result["attempted"] < 1:
                raise AssertionError(f"{name} trace {trace}: exit {code}, result {result}")
            print(f"ok   {name} --trace {trace}: {len(printed)} metrics match {key}")


def check_reference_mutation() -> None:
    tree = copy_tree(SCRATCH / "mutated")
    w = workloads.WORKLOADS["misfit-mle"]
    ref = tree / workloads.reference_path(w, SEED % workloads.REF_KEYS).relative_to(ROOT)
    lines = ref.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))  # the first estimate, well past 1e-12
    lines[1] = ",".join(cells)
    ref.write_text("\n".join(lines) + "\n")
    code, stdout = bench(tree, "misfit-mle", 0)
    result = result_of(stdout)
    report = json.loads(stdout.splitlines()[-2])["report"]
    if code == 0 or result["correct"] or report["rows_off_ref_frac"] <= 0:
        raise AssertionError(f"a changed reference cell went unnoticed: exit {code}, {report['check']}")
    print(f"ok   changed reference cell fails the check (exit {code}, off {report['check']['off']})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metric_names(spec)
    check_reference_mutation()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
