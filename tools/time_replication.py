"""Time one replication of `run_experiment` in two source trees against each other.

    python3 tools/time_replication.py OLD_SRC NEW_SRC [--rounds N] [--runs M] [--reps R]

OLD_SRC and NEW_SRC are directories holding the `rpps` package (a
checkout's `src`).  Each of N rounds starts one child process per tree, in
alternating order (old first in even rounds), with one BLAS thread.  A child
runs `run_experiment` on four configs: the shipped `configs/misfit.json` and
`configs/overfit.json` (MLE, quadrature oracle) and a `posterior_predictive`
copy of each (Monte Carlo oracle), each at R replications and with no
output directory, one warm-up run and then M timed runs.  It uses only
`ExperimentConfig.from_json_dict` and `run_experiment`, so any tree since
those exist can be timed.  The table gives, per config, the min over the
N x M runs in us per replication for each tree and the ratio new / old.
The exit code is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# (label, shipped config, inference): the inference replaces the config's own
LANES = [
    ("misfit-mle", "misfit.json", "mle"),
    ("overfit-mle", "overfit.json", "mle"),
    ("misfit-posterior", "misfit.json", "posterior_predictive"),
    ("overfit-posterior", "overfit.json", "posterior_predictive"),
]


def lane_config(name: str, inference: str, reps: int) -> dict:
    """The JSON object of a shipped config under `inference`, at `reps`
    replications and without an output directory."""
    config = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    return {**config, "inference": inference, "replications": reps, "output_dir": None}


def _child(src: str, runs: int, reps: int) -> None:
    """Print {"rpps": the package's file, "times": [min us per replication,
    per lane]} for the tree at `src`."""
    sys.path.insert(0, src)
    import time

    import rpps
    from rpps.harness import ExperimentConfig, run_experiment

    times = []
    for _, name, inference in LANES:
        config = ExperimentConfig.from_json_dict(lane_config(name, inference, reps))
        run_experiment(config)
        best = float("inf")
        for _ in range(runs):
            start = time.perf_counter()
            run_experiment(config)
            best = min(best, time.perf_counter() - start)
        times.append(best / reps * 1e6)
    print(json.dumps({"rpps": rpps.__file__, "times": times}))


def time_trees(old: Path, new: Path, rounds: int, runs: int, reps: int) -> dict[str, list[float]]:
    """{"old": [...], "new": [...]}: per lane of `LANES`, the min us per
    replication over `rounds` alternating child processes of `runs` runs each."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    best = {"old": [float("inf")] * len(LANES), "new": [float("inf")] * len(LANES)}
    for i in range(rounds):
        for name in ("old", "new") if i % 2 == 0 else ("new", "old"):
            src = (old if name == "old" else new).resolve()
            command = [sys.executable, __file__, "--child", str(src), "--runs", str(runs), "--reps", str(reps)]
            run = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
            result = json.loads(run.stdout)
            if not Path(result["rpps"]).resolve().is_relative_to(src):
                raise RuntimeError(f"{name} child imported rpps from {result['rpps']}, not {src}")
            best[name] = [min(a, b) for a, b in zip(best[name], result["times"])]
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path, nargs="?", help="directory holding the reference rpps package")
    parser.add_argument("new_src", type=Path, nargs="?", help="directory holding the rpps package to compare")
    parser.add_argument("--rounds", type=int, default=4, help="child processes per tree")
    parser.add_argument("--runs", type=int, default=3, help="timed runs per lane in each child")
    parser.add_argument("--reps", type=int, default=100, help="replications per run")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child, args.runs, args.reps)
        return 0
    if args.old_src is None or args.new_src is None or min(args.rounds, args.runs, args.reps) < 1:
        parser.error("expected OLD_SRC, NEW_SRC and --rounds, --runs, --reps >= 1")
    best = time_trees(args.old_src, args.new_src, args.rounds, args.runs, args.reps)
    print(f"min of {args.rounds} x {args.runs} runs of {args.reps} replications, us per replication")
    print(f"{'lane':<18} {'old':>10} {'new':>10} {'new/old':>7}")
    for (label, _, _), a, b in zip(LANES, best["old"], best["new"]):
        print(f"{label:<18} {a:>10.1f} {b:>10.1f} {b / a:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
