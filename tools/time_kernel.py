"""Time the batched evidence of two source trees against each other.

    python3 tools/time_kernel.py OLD_SRC NEW_SRC [--rounds N] [--calls M]

OLD_SRC and NEW_SRC are directories holding the `rpps` package (a
checkout's `src`).  Each of N rounds starts one child process per tree, in
alternating order (old first in even rounds), with one BLAS thread.  A child
times `NormalGammaParams.log_density_batch` at every shape the workloads
use: p = 1, 3 and 5 coefficients, R = 1, 2, 12, 400 and 4,096 datasets of
12 points, without and with integer point weights 0-3, M calls each after
one warm-up call.  Those draws are noise, so almost no row takes the
kernel's residual pass; four more shapes (p = 3 and 5, R = 12 and 4,096,
no weights) draw rows within 1e-6 of a polynomial of degree p - 1 under a
weak prior, so that every row takes it.  It uses only the public
constructor and that method, so any tree since weighted evidences exist
can be timed.  The table gives, per shape, the min over the N x M calls in
us per call for each tree and the ratio new / old.  The exit code is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# (p, R, weighted, fallback): every row of a fallback shape takes the residual pass
SHAPES = [(p, r, weighted, False) for p in (1, 3, 5) for r in (1, 2, 12, 400, 4096) for weighted in (False, True)]
SHAPES += [(p, r, False, True) for p in (3, 5) for r in (12, 4096)]
N_POINTS = 12


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


def _child(src: str, calls: int) -> None:
    """Print {"rpps": the module's file, "times": [min us per call, per
    shape]} for the tree at `src`."""
    sys.path.insert(0, src)
    import time

    import rpps.conjugate as conjugate

    times = []
    for shape in SHAPES:
        params, y1, y2, weights = draw_case(conjugate, *shape)
        params.log_density_batch(y1, y2, weights)
        best = float("inf")
        for _ in range(calls):
            start = time.perf_counter()
            params.log_density_batch(y1, y2, weights)
            best = min(best, time.perf_counter() - start)
        times.append(best * 1e6)
    print(json.dumps({"rpps": conjugate.__file__, "times": times}))


def time_trees(old: Path, new: Path, rounds: int, calls: int) -> dict[str, list[float]]:
    """{"old": [...], "new": [...]}: per shape of `SHAPES`, the min us per
    call over `rounds` alternating child processes of `calls` calls each."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    best = {"old": [float("inf")] * len(SHAPES), "new": [float("inf")] * len(SHAPES)}
    for i in range(rounds):
        for name in ("old", "new") if i % 2 == 0 else ("new", "old"):
            src = (old if name == "old" else new).resolve()
            command = [sys.executable, __file__, "--child", str(src), "--calls", str(calls)]
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
    parser.add_argument("--rounds", type=int, default=6, help="child processes per tree")
    parser.add_argument("--calls", type=int, default=200, help="timed calls per shape in each child")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child, args.calls)
        return 0
    if args.old_src is None or args.new_src is None or args.rounds < 1 or args.calls < 1:
        parser.error("expected OLD_SRC, NEW_SRC and --rounds, --calls >= 1")
    best = time_trees(args.old_src, args.new_src, args.rounds, args.calls)
    print(f"min of {args.rounds} x {args.calls} calls, us per call")
    print(f"{'p':>2} {'R':>5} {'weights':>7} {'fallback':>8} {'old':>10} {'new':>10} {'new/old':>7}")
    for (p, r, weighted, fallback), a, b in zip(SHAPES, best["old"], best["new"]):
        flags = f"{'yes' if weighted else 'no':>7} {'yes' if fallback else 'no':>8}"
        print(f"{p:>2} {r:>5} {flags} {a:>10.1f} {b:>10.1f} {b / a:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
