"""Time the batched evidence and one replication of two source trees against each other.

    python3 tools/time_trees.py OLD_SRC NEW_SRC [--rounds N] [--calls M] [--runs K] [--reps R]

OLD_SRC and NEW_SRC are directories holding the `rpps` package (a
checkout's `src`).  Each of N rounds starts one child process per tree, in
alternating order (old first in even rounds), with one BLAS thread.  After
one warm-up call each, a child times M calls of
`NormalGammaParams.log_density_batch` at each of `SHAPES` (the workloads'
shapes, and four whose every row takes the kernel's residual pass), then K
runs of `run_experiment` at R replications, without an output directory,
on each of `LANES` (the shipped configs under `mle` and
`posterior_predictive`, without and with a B = 200 bootstrap request).  It
uses only those public names and `ExperimentConfig.from_json_dict`, so any
tree that has them can be timed.  Two tables give the min over the rounds
per shape, in us per call, and per lane, in us per replication, for each
tree and the ratio new / old, under a header line that gives how many CPUs
the run may use (its affinity, which the children inherit: run it under
`taskset -c 0` for a one-CPU table).  The exit code is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# (p, R, weighted, fallback): every row of a fallback shape takes the residual pass
SHAPES = [(p, r, weighted, False) for p in (1, 3, 5) for r in (1, 2, 12, 400, 4096) for weighted in (False, True)]
SHAPES += [(p, r, False, True) for p in (3, 5) for r in (12, 4096)]
N_POINTS = 12

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BOOTSTRAP = {"kind": "bootstrap", "b_resamples": 200}
# (label, shipped config, inference, bootstrap): the inference replaces the config's own
LANES = [
    (f"{name}-{label}{'-boot' if boot else ''}", f"{name}.json", inference, boot)
    for name in ("misfit", "overfit")
    for label, inference in (("mle", "mle"), ("posterior", "posterior_predictive"))
    for boot in (False, True)
]


def draw_case(conjugate, p: int, r: int, weighted: bool, fallback: bool) -> tuple:
    """(params, y1, y2, weights) of one shape, seeded by it: noise under a
    random prior, or with `fallback` rows within 1e-6 of a random polynomial
    of degree p - 1 under a weak prior (mu = 0, lam = 1e-3 I, beta = 1e-6)."""
    rng = np.random.default_rng(p * 10_000 + r + (1 if fallback else 0))
    if fallback:
        params = conjugate.NormalGammaParams(mu=np.zeros(p), lam=1e-3 * np.eye(p), alpha=0.5, beta=1e-6)
        y1 = rng.uniform(-1, 1, size=(r, N_POINTS))
        y2 = np.polynomial.polynomial.polyval(y1, rng.normal(size=p)) + 1e-6 * rng.normal(size=(r, N_POINTS))
        return params, y1, y2, None
    a = rng.normal(size=(p + 3, p))
    params = conjugate.NormalGammaParams(mu=rng.normal(size=p), lam=a.T @ a + np.eye(p), alpha=6.5, beta=4.0)
    y1 = rng.uniform(-1, 1, size=(r, N_POINTS))
    y2 = rng.normal(size=(r, N_POINTS))
    weights = rng.integers(0, 4, size=(r, N_POINTS)).astype(float) if weighted else None
    return params, y1, y2, weights


def lane_config(name: str, inference: str, bootstrap: bool, reps: int) -> dict:
    """The JSON object of a shipped config under `inference`, with a B = 200
    bootstrap request if `bootstrap`, at `reps` replications and without an
    output directory."""
    config = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    estimators = config["estimators"] + ([BOOTSTRAP] if bootstrap else [])
    return {**config, "inference": inference, "estimators": estimators, "replications": reps, "output_dir": None}


def _min_seconds(call, repeats: int) -> float:
    """The fastest of `repeats` timed calls of `call`, after one warm-up call."""
    call()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _child(src: str, calls: int, runs: int, reps: int) -> None:
    """Print {"rpps": the package's file, "times": [min us per call, per
    shape, then min us per replication, per lane]} for the tree at `src`."""
    sys.path.insert(0, src)
    import rpps
    import rpps.conjugate as conjugate
    from rpps.harness import ExperimentConfig, run_experiment

    times = []
    for shape in SHAPES:
        params, y1, y2, weights = draw_case(conjugate, *shape)
        times.append(_min_seconds(lambda: params.log_density_batch(y1, y2, weights), calls) * 1e6)
    for _, name, inference, bootstrap in LANES:
        config = ExperimentConfig.from_json_dict(lane_config(name, inference, bootstrap, reps))
        times.append(_min_seconds(lambda: run_experiment(config), runs) / reps * 1e6)
    print(json.dumps({"rpps": rpps.__file__, "times": times}))


def time_trees(old: Path, new: Path, rounds: int, calls: int, runs: int, reps: int) -> dict[str, list[float]]:
    """{"old": [...], "new": [...]}: per shape of `SHAPES` and then per lane
    of `LANES`, the min time over `rounds` alternating child processes."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    counts = ["--calls", str(calls), "--runs", str(runs), "--reps", str(reps)]
    best = {name: [float("inf")] * (len(SHAPES) + len(LANES)) for name in ("old", "new")}
    for i in range(rounds):
        for name in ("old", "new") if i % 2 == 0 else ("new", "old"):
            src = (old if name == "old" else new).resolve()
            command = [sys.executable, __file__, "--child", str(src), *counts]
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
    parser.add_argument("--rounds", type=int, default=8, help="child processes per tree")
    parser.add_argument("--calls", type=int, default=200, help="timed calls per kernel shape in each child")
    parser.add_argument("--runs", type=int, default=3, help="timed runs per lane in each child")
    parser.add_argument("--reps", type=int, default=100, help="replications per lane run")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child, args.calls, args.runs, args.reps)
        return 0
    if args.old_src is None or args.new_src is None or min(args.rounds, args.calls, args.runs, args.reps) < 1:
        parser.error("expected OLD_SRC, NEW_SRC and --rounds, --calls, --runs, --reps >= 1")
    best = time_trees(args.old_src, args.new_src, args.rounds, args.calls, args.runs, args.reps)
    print(f"{len(os.sched_getaffinity(0))} CPUs allowed, one BLAS thread per child")
    print(f"min of {args.rounds} x {args.calls} calls, us per call")
    print(f"{'p':>2} {'R':>5} {'weights':>7} {'fallback':>8} {'old':>10} {'new':>10} {'new/old':>7}")
    for (p, r, weighted, fallback), a, b in zip(SHAPES, best["old"], best["new"]):
        flags = f"{'yes' if weighted else 'no':>7} {'yes' if fallback else 'no':>8}"
        print(f"{p:>2} {r:>5} {flags} {a:>10.1f} {b:>10.1f} {b / a:>7.3f}")
    print(f"min of {args.rounds} x {args.runs} runs of {args.reps} replications, us per replication")
    print(f"{'lane':<22} {'old':>10} {'new':>10} {'new/old':>7}")
    for (label, _, _, _), a, b in zip(LANES, best["old"][len(SHAPES) :], best["new"][len(SHAPES) :]):
        print(f"{label:<22} {a:>10.1f} {b:>10.1f} {b / a:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
