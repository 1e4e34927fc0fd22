"""End-to-end and per-layer benchmark for rpps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rpps is imported from ``src/`` of that
checkout.  One process, one caller, a closed loop: each call into
``rpps.cli.main`` starts when the previous one has returned.  Inputs are
written from ``--seed`` under ``.perfbench_out/`` and handed to rpps as
files.

A run

1. scores a check chunk and compares it with the reference stored under
   ``perfbench/refs`` (1e-12 relative), and runs it twice to check that the
   outputs repeat byte for byte;
2. times chunks of work for ``--seconds`` seconds with tracing off, with a
   short calibration kernel (calibrate.py) timed at replication boundaries;
3. (``--trace 0``) between those chunks, launches fresh interpreters that
   import ``rpps.cli`` and validate the workload's input, each paired with a
   launch that imports only what rpps imports from outside rpps
   (``setup_s``, the median ratio of the two in reference seconds);
4. (``--trace 1``) times for half of ``--seconds`` only, then replays the
   same chunks with every public rpps function wrapped (see tracer.py) and
   reports per-layer figures and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a report with the environment, sample counts and the figures that are
not metrics.  The replication times are in reference seconds: each
stretch of wall time scaled by the calibration kernel timed on either side
of it (see calibrate.py); the report also gives the wall-clock figures.
The exit code is 0 only when every output check passed.
``--workload all`` runs every workload in turn (both trace modes when
``--trace 1``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Fix the thread pools before numpy loads: one caller, one BLAS thread (never
# more than nproc), the same on every machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# rpps reads RPPS_* variables as flag fallbacks; none may leak into a run.
for _var in [v for v in os.environ if v.startswith("RPPS_")]:
    del os.environ[_var]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import contextmanager, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from hashlib import sha256  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402

sys.path.insert(0, str(SRC))
import rpps.cli as cli  # noqa: E402
import rpps.harness as harness  # noqa: E402

E2E = (
    ("setup_s", "s"),
    ("reps_per_s_cal", "1/s"),
    ("rep_ms_p50_cal", "ms"),
    ("rep_ms_p90_cal", "ms"),
    ("rows_ok_frac", "frac"),
)

PER_LAYER = (
    ("trace.rep_wall_ms", "ms"),
    ("trace.untraced_reps_per_s", "1/s"),
    ("trace.traced_reps_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("scores.exact_score_quadrature.us_per_call", "us"),
    ("scores.exact_score_mc.self_ms_per_call", "ms"),
    ("scores.exact_score_mc.se_p50", "nat"),
    ("scores.delta_estimator.self_ms_per_call", "ms"),
    ("scores.holdout_estimator.self_ms_per_call", "ms"),
    ("scores.jackknife_estimator.self_ms_per_call", "ms"),
    ("scores.bootstrap_estimator.self_ms_per_call", "ms"),
    ("scores.bootstrap_estimator.useful_frac", "frac"),
    ("scores.waic.ms_per_call", "ms"),
    ("scores.dic.ms_per_call", "ms"),
    ("conjugate.log_density_batch.ms_per_call", "ms"),
    ("conjugate.log_density_batch.datasets_per_s", "1/s"),
    ("conjugate.posterior_update.us_per_call", "us"),
    ("conjugate.posterior_update.calls_per_rep", "count"),
    ("conjugate.log_evidence.us_per_call", "us"),
    ("conjugate.log_evidence.calls_per_rep", "count"),
    ("conjugate.sample_posterior.ms_per_call", "ms"),
    ("linmodel.fit_mle.us_per_call", "us"),
    ("linmodel.fit_mle.calls_per_rep", "count"),
    ("linmodel.fit_mle.fail_frac", "frac"),
    ("datagen.sample_dataset.us_per_call", "us"),
    ("datagen.read_dataset_csv.us_per_call", "us"),
    ("datagen.subset.calls_per_rep", "count"),
    ("harness.run_experiment.self_ms_per_rep", "ms"),
    ("harness.emit_outputs.ms", "ms"),
    ("harness.emit_outputs.bytes", "bytes"),
    ("cli.main.self_ms_per_call", "ms"),
) + tuple(
    (f"{layer}.{stat}", unit)
    for layer in tracer.LAYERS
    for stat, unit in (("self_ms_per_rep", "ms"), ("self_share", "frac"))
)

# Pairs of fresh interpreters launched per run for setup_s; the median
# ratio is reported.
SETUP_LAUNCHES = 11

# REF_CHILD's time on the reference machine (see calibrate.REF_SECONDS).
REF_IMPORT_SECONDS = 0.25

# ---------------------------------------------------------------------------
# Environment


def _git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (then src_sha256
    identifies the code)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    digest = sha256()
    for path in sorted((SRC / "rpps").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(loadavg) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": [round(x, 2) for x in loadavg],
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# Calling rpps


@contextmanager
def patched(module, name: str, make):
    """Replace module.name by make(original) for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _marking(timeline: calibrate.Timeline):
    def make(fn):
        def mark(*args, **kwargs):
            timeline.mark()
            return fn(*args, **kwargs)

        return mark

    return make


def _collecting_se(ses: list):
    def make(fn):
        def collect(*args, **kwargs):
            result = fn(*args, **kwargs)
            ses.append(result.std_error)
            return result

        return collect

    return make


def call_cli(argv: list[str]) -> tuple[int, float, str, str]:
    """(exit code, seconds, stdout, stderr) of one in-process rpps.cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        seconds = perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def _is_record(line: str) -> bool:
    try:
        return isinstance(json.loads(line), dict)
    except json.JSONDecodeError:
        return False


@dataclass
class Chunk:
    """One unit of timed work: an experiment of `reps` replications, or
    `reps` score calls."""

    seed: int
    reps: int
    seconds: float = 0.0
    ref_seconds: float = 0.0  # `seconds` in reference seconds (calibrate.py)
    codes: list = field(default_factory=list)
    output: bytes = b""
    rep_ms: list = field(default_factory=list)
    rep_ms_cal: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    well_formed: bool = True


class Runner:
    """Writes a workload's inputs and runs its chunks through rpps.cli.main."""

    def __init__(self, workload, workdir: Path):
        self.w = workload
        self.dir = workdir
        if workload.kind == "score":
            self.model = W.write_json(workdir / "model.json", W.SCORE_MODEL)

    def chunk(self, seed: int, reps: int, sample: bool = False) -> Chunk:
        """Run one chunk; with `sample`, time the calibration kernel at its
        replication boundaries."""
        c = Chunk(seed=seed, reps=reps)
        timeline = calibrate.Timeline(sample)
        if self.w.kind == "score":
            self._score(c, timeline)
        else:
            self._experiment(c, timeline)
        return c

    def setup_argv(self, seed: int) -> list[str]:
        """Input files of one chunk, written apart from the chunks' own, for
        the setup launches."""
        where = self.dir / "setup"
        if self.w.kind == "score":
            requests = W.write_json(where / "requests.json", W.score_requests(seed))
            data = W.write_score_dataset(where / "data.csv", W.derive(self.w.name, seed, 0))
            return [str(data), str(self.model), str(requests)]
        return [str(W.write_json(where / "config.json", self.w.experiment_config(seed, self.w.chunk_reps)))]

    def _experiment_config(self, seed: int, reps: int) -> Path:
        return W.write_json(self.dir / "config.json", self.w.experiment_config(seed, reps))

    def _experiment(self, c: Chunk, timeline: calibrate.Timeline) -> None:
        config = self._experiment_config(c.seed, c.reps)
        out = self.dir / "out"
        rows = out / "rows.csv"
        if rows.exists():
            rows.unlink()
        timeline.mark()
        with patched(harness, "sample_dataset", _marking(timeline)):
            code, _, _, err = call_cli(["experiment", "--config", str(config), "--out", str(out)])
        timeline.mark(force=True)
        c.codes.append(code)
        gaps, scales = timeline.gaps(), timeline.scales()
        c.seconds = sum(gaps)
        c.ref_seconds = sum(g * k for g, k in zip(gaps, scales))
        # A replication runs from its sample_dataset call to the next one.  The
        # first gap is the CLI's start-up and the last one holds the last
        # replication and the tail (quantiles, outputs): both count in
        # reps_per_s_cal only.
        c.rep_ms = [1e3 * g for g in gaps[1:-1]]
        c.rep_ms_cal = [1e3 * g * k for g, k in zip(gaps[1:-1], scales[1:-1])]
        c.attempted = c.reps * len(self.w.estimators)
        if code != 0:
            sys.stderr.write(err)
            c.failed = c.attempted
            return
        if not rows.exists():
            c.failed, c.well_formed = c.attempted, False
            return
        c.output = rows.read_bytes()
        got, failed, c.well_formed = W.rows_summary(c.output.decode(), c.attempted)
        c.failed = failed + max(c.attempted - got, 0)

    def _score(self, c: Chunk, timeline: calibrate.Timeline) -> None:
        request_list = W.score_requests(c.seed)
        requests = W.write_json(self.dir / "requests.json", request_list)
        n_requests = len(request_list)
        outputs = []
        for i in range(c.reps):
            data = W.write_score_dataset(self.dir / "data.csv", W.derive(self.w.name, c.seed, i))
            timeline.mark()
            code, seconds, out, err = call_cli(
                ["score", "--data", str(data), "--model", str(self.model), "--estimators", str(requests)]
            )
            c.codes.append(code)
            c.rep_ms.append(1e3 * seconds)
            records = out.splitlines()
            c.attempted += n_requests
            c.failed += max(n_requests - len(records), 0)
            if code != 0:
                sys.stderr.write(err)
            c.well_formed &= len(records) <= n_requests and all(_is_record(line) for line in records)
            outputs.append(out)
        timeline.mark(force=True)
        # Each call's own time, scaled by the kernel runs next to it; the
        # writing of its dataset lies outside it.
        c.rep_ms_cal = [ms * k for ms, k in zip(c.rep_ms, timeline.scales())]
        c.seconds = sum(c.rep_ms) / 1e3
        c.ref_seconds = sum(c.rep_ms_cal) / 1e3
        c.output = "".join(outputs).encode()


# ---------------------------------------------------------------------------
# Phases

SETUP_CHILD = r"""
import contextlib, io, sys, time
t0 = time.perf_counter()
import rpps.cli as cli
args = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    if len(args) == 1:
        code = cli.main(["experiment", "--config", args[0], "--dry-run"])
    else:
        # cmd_score's own validation, up to its first request.
        ns = cli.build_parser().parse_args(["score", "--data", args[0], "--model", args[1], "--estimators", args[2]])
        cli._load_model(ns)
        cli._load_data(ns)
        raw = cli._load_json(cli._resolve(ns, "estimators"), "estimator config")
        requests = raw.get("requests") if isinstance(raw, dict) else raw
        code = 0 if isinstance(requests, list) and requests else 1
elapsed = time.perf_counter() - t0
print(repr(elapsed) if code == 0 else "fail")
"""


# The reference launch: the standard-library and third-party modules that
# importing rpps.cli pulls in, fixed here so that a change to rpps's imports
# moves setup_s.
REF_CHILD = r"""
import time
t0 = time.perf_counter()
import argparse, csv, dataclasses, enum, json, logging, math, pathlib, typing
import numpy, scipy.linalg, scipy.special
print(repr(time.perf_counter() - t0))
"""


def launch_setup(argv: list[str]) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import rpps.cli and validate one
    input, and for the fresh interpreter launched right after it to run
    REF_CHILD."""
    return _launch(SETUP_CHILD, argv), _launch(REF_CHILD, [])


def _launch(code: str, argv: list[str]) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or not lines or lines[-1] == "fail":
        raise RuntimeError(f"setup launch failed: {proc.stderr.strip()[-2000:]}")
    return float(lines[-1])


def check_phase(runner: Runner, seed: int) -> dict:
    """Score the check chunk twice and compare it with its reference."""
    w = runner.w
    key = seed % W.REF_KEYS
    ses: list = []
    with patched(harness, "exact_score_mc", _collecting_se(ses)):
        first = runner.chunk(W.derive(w.name, "check", key), w.check_reps)
    second = runner.chunk(first.seed, w.check_reps)
    ref_path = W.reference_path(w, key)
    if ref_path.is_file():
        compare = W.compare_records if w.kind == "score" else W.compare_rows
        off, total = compare(first.output.decode(), ref_path.read_text(encoding="utf-8"))
    else:
        off, total = 1, 1
    return {
        "reference": ref_path.relative_to(ROOT).as_posix(),
        "reference_found": ref_path.is_file(),
        "tolerance": f"|out - ref| <= {W.REL_TOL:g} * max(1, |ref|)",
        "off": off,
        "compared": total,
        "repeat_identical": first.output == second.output and bool(first.output),
        "oracle_ses": ses,
        "codes": first.codes + second.codes,
    }


def timed_phase(
    runner: Runner, seed: int, seconds: float, setup: bool
) -> tuple[list[Chunk], list[tuple[float, float]]]:
    """Run chunks with tracing off, timing the calibration kernel at their
    replication boundaries, until `seconds` of rpps wall time have passed.

    With `setup`, SETUP_LAUNCHES pairs of launches are spread evenly between the
    chunks (outside their timing), so that setup_s samples the machine over
    the same stretch of time as the replications do.
    """
    argv = runner.setup_argv(W.derive(runner.w.name, seed, "setup")) if setup else None
    launches = SETUP_LAUNCHES if setup else 0
    chunks: list[Chunk] = []
    setup_times: list[tuple[float, float]] = []
    spent = 0.0
    while spent < seconds:
        if len(setup_times) < launches and spent >= len(setup_times) * seconds / launches:
            setup_times.append(launch_setup(argv))
        c = runner.chunk(W.derive(runner.w.name, seed, len(chunks)), runner.w.chunk_reps, sample=True)
        chunks.append(c)
        spent += c.seconds
    while len(setup_times) < launches:
        setup_times.append(launch_setup(argv))
    return chunks, setup_times


def traced_phase(runner: Runner, chunks: list[Chunk], span_path: Path) -> tuple[dict, list[Chunk]]:
    marker = "cli.main" if runner.w.kind == "score" else "datagen.sample_dataset"
    t = tracer.Tracer(rep_marker=marker)
    with t:
        replay = [runner.chunk(c.seed, c.reps) for c in chunks]
    t.write_spans(span_path)
    return t.summarize(sum(c.reps for c in replay)), replay


# ---------------------------------------------------------------------------
# Metrics


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def end_to_end(chunks: list[Chunk], setup_times: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics and the counts and wall-clock figures behind
    them.  setup_s scales each setup launch by the reference launch next to
    it, as the replication times scale by the kernel (see README.md).
    """
    reps = sum(c.reps for c in chunks)
    seconds = sum(c.seconds for c in chunks)
    ref_seconds = sum(c.ref_seconds for c in chunks)
    rep_ms = [x for c in chunks for x in c.rep_ms]
    rep_ms_cal = [x for c in chunks for x in c.rep_ms_cal]
    attempted = sum(c.attempted for c in chunks)
    failed = sum(c.failed for c in chunks)
    values = {
        "reps_per_s_cal": reps / ref_seconds,
        "rep_ms_p50_cal": _percentile(rep_ms_cal, 50),
        "rep_ms_p90_cal": _percentile(rep_ms_cal, 90),
        "rows_ok_frac": 1.0 - failed / attempted,
    }
    if setup_times:
        values["setup_s"] = REF_IMPORT_SECONDS * statistics.median(a / b for a, b in setup_times)
    counts = {
        "reps": reps,
        "timed_s": seconds,
        "timed_ref_s": ref_seconds,
        "chunks": len(chunks),
        "chunk_scale_min": min(c.ref_seconds / c.seconds for c in chunks),
        "chunk_scale_median": statistics.median(c.ref_seconds / c.seconds for c in chunks),
        "chunk_scale_max": max(c.ref_seconds / c.seconds for c in chunks),
        "rep_ms_samples": len(rep_ms),
        "rep_ms_beyond_p90": sum(1 for x in rep_ms_cal if x > values["rep_ms_p90_cal"]),
        "rep_ms_p99_cal": _percentile(rep_ms_cal, 99),
        "wall": {
            "reps_per_s": reps / seconds,
            "rep_ms_p50": _percentile(rep_ms, 50),
            "rep_ms_p90": _percentile(rep_ms, 90),
            "rep_ms_p99": _percentile(rep_ms, 99),
        },
        "rows_attempted": attempted,
        "rows_failed": failed,
        "rows_failed_frac": failed / attempted,
        "setup_launches_wall_s": [a for a, _ in setup_times],
        "ref_launches_wall_s": [b for _, b in setup_times],
    }
    return {"values": values, "counts": counts}


def per_layer(summary: dict, untraced: list[Chunk], traced: list[Chunk]) -> tuple[dict, dict]:
    """(the PER_LAYER metrics, every per-function and per-layer figure)."""
    flat: dict[str, float] = {}
    for name, stats in summary["functions"].items():
        for stat, value in stats.items():
            flat[f"{name}.{stat}"] = value
    for layer, stats in summary["layers"].items():
        for stat, value in stats.items():
            flat[f"{layer}.{stat}"] = value
    extras = summary["extras"]
    flat["scores.exact_score_mc.se_p50"] = extras["se_p50"]
    flat["scores.bootstrap_estimator.useful_frac"] = extras["useful_frac"]
    flat["conjugate.log_density_batch.datasets_per_s"] = extras["datasets_per_s"]
    flat["harness.emit_outputs.ms"] = flat.get("harness.emit_outputs.ms_per_call", 0.0)
    flat["harness.emit_outputs.bytes"] = extras["emit_bytes"]
    untraced_rps = sum(c.reps for c in untraced) / sum(c.seconds for c in untraced)
    traced_rps = sum(c.reps for c in traced) / sum(c.seconds for c in traced)
    flat["trace.rep_wall_ms"] = summary["rep_wall_ms"]
    flat["trace.untraced_reps_per_s"] = untraced_rps
    flat["trace.traced_reps_per_s"] = traced_rps
    flat["trace.overhead_frac"] = 1.0 - traced_rps / untraced_rps
    # A function the workload never calls reads 0.
    return {name: flat.get(name, 0.0) for name, _ in PER_LAYER}, flat


def run_workload(name: str, seed: int, seconds: float, trace: int, loadavg) -> tuple[dict, dict]:
    w = W.WORKLOADS[name]
    workdir = OUT / name / f"seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(w, workdir)
    env = environment(loadavg)

    check = check_phase(runner, seed)
    # A traced run splits its time between the untraced chunks and their
    # traced replay, so both modes measure about `seconds` of work.
    chunks, setup_times = timed_phase(runner, seed, seconds / 2 if trace else seconds, setup=not trace)
    e2e = end_to_end(chunks, setup_times)

    correct = (
        check["reference_found"]
        and check["off"] == 0
        and check["repeat_identical"]
        and all(code == 0 for code in check["codes"])
        and all(c.well_formed for c in chunks)
    )
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "loop": "closed, 1 caller, in-process rpps.cli.main",
        "end_to_end": e2e["values"],
        "counts": e2e["counts"],
        "rows_off_ref_frac": check["off"] / max(check["compared"], 1),
        "oracle_se_p50": statistics.median(check["oracle_ses"]) if check["oracle_ses"] else 0.0,
        "oracle_se_samples": len(check["oracle_ses"]),
        "check": {k: v for k, v in check.items() if k != "oracle_ses"},
    }
    if trace:
        summary, replay = traced_phase(runner, chunks, workdir / "spans.csv")
        correct = correct and all(c.output == r.output for c, r in zip(chunks, replay))
        selected, flat = per_layer(summary, chunks, replay)
        report["trace_counts"] = {k: summary[k] for k in ("reps", "spans", "wall_s")}
        report["per_layer_all"] = flat
        metrics = {n: {"value": selected[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e["values"][n], "unit": u} for n, u in E2E}
    result = {
        "correct": bool(correct),
        "attempted": e2e["counts"]["rows_attempted"],
        "failed": e2e["counts"]["rows_failed"],
        "metrics": metrics,
    }
    (workdir / "result.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1, sort_keys=True) + "\n"
    )
    return report, result


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        plan = [(name, t) for name in W.WORKLOADS for t in sorted({0, args.trace})]
    elif args.workload in W.WORKLOADS:
        plan = [(args.workload, args.trace)]
    else:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(W.WORKLOADS)} or 'all'")
    all_correct = True
    for name, trace in plan:
        report, result = run_workload(name, args.seed, args.seconds, trace, loadavg)
        print(json.dumps({"report": report}, sort_keys=True))
        print(json.dumps(result, sort_keys=True), flush=True)
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
