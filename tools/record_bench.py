"""Record the benchmark's figures for one change in BENCH_<pr>.json.

    python3 tools/record_bench.py --pr N [--seed S] [--seconds T]

Runs ``python3 perfbench/run.py --workload all --seed S --seconds T --trace 1``
from the root of this checkout (every workload, untraced and traced) and
writes ``BENCH_<N>.json`` there: ``pr`` (N), the environment block of the
run's first report and, per workload and trace mode, its result line
(``correct``, ``attempted``, ``failed`` and the metrics).  ``env.git_commit``
is the commit checked out during the run, so a record made before its change
is committed names the parent; ``pr`` and ``env.src_sha256`` identify the
measured source.  Nothing under ``perfbench/`` is changed.  The exit code is
the benchmark's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_command(seed: int, seconds: float) -> list[str]:
    return [
        "python3", "perfbench/run.py", "--workload", "all",
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]  # fmt: skip


def parse_run_output(stdout: str) -> dict:
    """The env block and the runs of a perfbench/run.py output, whose
    lines alternate {"report": {...}} and the result that follows it."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    reports, results = lines[0::2], lines[1::2]
    if not lines or len(reports) != len(results) or not all("report" in r for r in reports):
        raise ValueError("expected alternating report and result lines")
    runs = [
        {"workload": r["report"]["workload"], "trace": r["report"]["trace"], **result}
        for r, result in zip(reports, results)
    ]
    first = reports[0]["report"]
    return {"seed": first["seed"], "seconds": first["seconds"], "env": first["env"], "runs": runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file's name")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0, help="timed seconds per workload run")
    args = parser.parse_args(argv)
    command = bench_command(args.seed, args.seconds)
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(run.stderr)
    try:
        record = parse_run_output(run.stdout)
    except ValueError as exc:
        raise SystemExit(f"{' '.join(command)} exited {run.returncode}: {exc}") from None
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({"command": command, "pr": args.pr, **record}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
