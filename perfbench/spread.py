"""Run the benchmark on several seeds and summarize each end-to-end metric.

    python3 perfbench/spread.py [--baseline perfbench/baseline.json]

For every workload in BENCHMARK.json this makes RUNS separate
``perfbench/run.py --trace 0`` runs of ``run_seconds`` each, on seeds
FIRST_SEED, FIRST_SEED + 1, ...  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  With ``--baseline`` it also makes one ``--trace 1`` run per
workload (on the first seed) and writes the summary, those per-layer
figures and the environment of the first run to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
FIRST_SEED = 200


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, help="also write the summary to this JSON file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary: dict = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            report, result = run_once(workload, seed, seconds)
            summary.setdefault("env", report["env"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(
                f"  {workload:18s} {name:13s} median {median:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
                f"spread {spread:6.3f}  bound {bounds[name]}",
                flush=True,
            )
        summary["workloads"][workload] = rows
        if args.baseline:
            _, traced = run_once(workload, FIRST_SEED, seconds, trace=1)
            summary.setdefault("per_layer", {})[workload] = {
                name: metric["value"] for name, metric in traced["metrics"].items()
            }
    if args.baseline:
        args.baseline.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
