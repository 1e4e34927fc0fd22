"""Workload definitions: what each workload feeds rpps and how its outputs
are checked.

Every input is a file the benchmark writes from the workload seed; rpps
only ever sees those files through ``rpps.cli.main``.  Two kinds of
workload exist:

* experiment workloads run ``rpps experiment`` on a config derived from the
  shipped ``configs/misfit.json`` or ``configs/overfit.json`` (copied here so
  the benchmark does not change when the shipped configs are edited), in
  chunks of a fixed number of replications;
* the score workload runs ``rpps score`` once per seeded CSV dataset.

A run first scores a *check chunk* whose inputs depend on ``seed % REF_KEYS``
and compares it with the reference recorded for that key under
``perfbench/refs``, then times chunks whose inputs depend on the full seed.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# References are stored for seed % REF_KEYS; any seed maps onto one of them.
REF_KEYS = 16

# A numeric cell matches its reference when |out - ref| <= REL_TOL * max(1, |ref|).
REL_TOL = 1e-12

REFS_DIR = Path(__file__).resolve().parent / "refs"

# configs/misfit.json and configs/overfit.json at the commit that defined
# this benchmark, minus the fields each chunk overrides.
MISFIT = {
    "truth": {"degree": 4, "coeffs": [0.5, -3.0, -4.0, 3.0, 6.0], "sigma": 0.5},
    "model": {"degree": 0},
    "n_points": 12,
    "oracle": {"mc_datasets": 20000, "quadrature": True},
}
OVERFIT = {
    "truth": {"degree": 0, "coeffs": [0.5], "sigma": 0.5},
    "model": {"degree": 4},
    "n_points": 12,
    "oracle": {"mc_datasets": 20000, "quadrature": True},
}
SHIPPED_ESTIMATORS = [
    {"kind": "delta"},
    {"kind": "holdout", "n_train": 6, "n_valid": 6},
    {"kind": "jackknife", "k_folds": 6},
]
BOOTSTRAP_B200 = {"kind": "bootstrap", "b_resamples": 200}

# score-cli: N = 12 points from the quartic misfit truth, a degree-2 model.
SCORE_TRUTH = MISFIT["truth"]
SCORE_N = 12
SCORE_MODEL = {"degree": 2}


def derive(*parts) -> int:
    """A 32-bit seed that depends only on `parts` (stable across machines)."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "experiment" | "score"
    chunk_reps: int  # replications per timed chunk (score: datasets per chunk)
    check_reps: int  # replications (score: datasets) in the check chunk
    base: dict = field(default_factory=dict)
    inference: str = "mle"
    estimators: tuple = ()

    def experiment_config(self, seed: int, replications: int) -> dict:
        config = copy.deepcopy(self.base)
        config.update(
            inference=self.inference,
            estimators=[dict(e) for e in self.estimators],
            replications=replications,
            seed=seed,
            output_dir=None,
        )
        return config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="misfit-mle",
            kind="experiment",
            chunk_reps=500,
            check_reps=10,
            base=MISFIT,
            inference="mle",
            estimators=tuple(SHIPPED_ESTIMATORS),
        ),
        Workload(
            name="overfit-bayes",
            kind="experiment",
            chunk_reps=8,
            check_reps=2,
            base=OVERFIT,
            inference="posterior_predictive",
            estimators=tuple(SHIPPED_ESTIMATORS),
        ),
        Workload(
            name="misfit-bayes-boot",
            kind="experiment",
            chunk_reps=10,
            check_reps=3,
            base=MISFIT,
            inference="posterior_predictive",
            estimators=tuple(SHIPPED_ESTIMATORS) + (BOOTSTRAP_B200,),
        ),
        Workload(
            name="score-cli",
            kind="score",
            chunk_reps=25,
            check_reps=3,
        ),
    )
}


# ---------------------------------------------------------------------------
# Input files


def write_json(path: Path, value) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def score_requests(seed: int) -> list[dict]:
    """The eight score requests; their seeds derive from the run's seed."""
    return [
        {"kind": "delta", "inference": "posterior_predictive"},
        {"kind": "holdout", "n_train": 6, "n_valid": 6, "seed": derive("holdout", seed)},
        {"kind": "jackknife", "k_folds": 6, "seed": derive("jackknife", seed)},
        {"kind": "bootstrap", "b_resamples": 200, "seed": derive("bootstrap", seed), "inference": "mle"},
        {"kind": "evidence"},
        {"kind": "aic"},
        {"kind": "waic", "n_samples": 1000, "seed": derive("waic", seed)},
        {"kind": "dic", "n_samples": 1000, "seed": derive("dic", seed)},
    ]


def write_score_dataset(path: Path, seed: int) -> Path:
    """Sample N points of the quartic truth with numpy (not with rpps) and
    write them as a lossless y1,y2 CSV."""
    rng = np.random.default_rng(seed)
    y1 = rng.uniform(-1.0, 1.0, size=SCORE_N)
    y2 = rng.normal(np.polynomial.polynomial.polyval(y1, SCORE_TRUTH["coeffs"]), SCORE_TRUTH["sigma"])
    lines = ["y1,y2"] + [f"{a:.17g},{b:.17g}" for a, b in zip(y1, y2)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Output checks

ROW_NUMERIC = ("estimate", "std_error", "exact", "error")


def _close(out: float, ref: float) -> bool:
    return abs(out - ref) <= REL_TOL * max(1.0, abs(ref))


def _cell_matches(out: str, ref: str, numeric: bool) -> bool:
    if not numeric or out == "" or ref == "":
        return out == ref
    try:
        return _close(float(out), float(ref))
    except ValueError:
        return False


def compare_rows(out_text: str, ref_text: str) -> tuple[int, int]:
    """(cells off reference, cells compared) between two rows.csv texts.
    Missing or extra rows count every one of their cells as off."""
    out_rows = list(csv.reader(io.StringIO(out_text)))
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    if not ref_rows or not out_rows or out_rows[0] != ref_rows[0]:
        width = len(ref_rows[0]) if ref_rows else 1
        total = width * max(len(out_rows), len(ref_rows), 1)
        return total, total
    header = ref_rows[0]
    numeric = [h in ROW_NUMERIC for h in header]
    off = total = 0
    for i in range(1, max(len(out_rows), len(ref_rows))):
        out = out_rows[i] if i < len(out_rows) else []
        ref = ref_rows[i] if i < len(ref_rows) else []
        for j, is_num in enumerate(numeric):
            total += 1
            if j >= len(out) or j >= len(ref) or not _cell_matches(out[j], ref[j], is_num):
                off += 1
    return off, total


def _value_matches(out, ref) -> bool:
    if isinstance(ref, bool) or isinstance(out, bool):
        return out is ref
    if isinstance(ref, (int, float)) and isinstance(out, (int, float)):
        if math.isnan(ref) or math.isnan(out):
            return math.isnan(ref) and math.isnan(out)
        return _close(float(out), float(ref))
    return out == ref


def compare_records(out_text: str, ref_text: str) -> tuple[int, int]:
    """(records off reference, records compared) between two JSON-lines
    texts of `rpps score` output; a record is off if any field is."""
    out_lines = out_text.splitlines()
    ref_lines = ref_text.splitlines()
    off = 0
    total = max(len(out_lines), len(ref_lines))
    for i in range(total):
        if i >= len(out_lines) or i >= len(ref_lines):
            off += 1
            continue
        try:
            out, ref = json.loads(out_lines[i]), json.loads(ref_lines[i])
        except json.JSONDecodeError:
            off += 1
            continue
        if set(out) != set(ref) or not all(_value_matches(out[k], ref[k]) for k in ref):
            off += 1
    return off, total


def rows_summary(text: str, expected_rows: int) -> tuple[int, int, bool]:
    """(rows, failed rows, well formed) for one rows.csv.  A failed row has an
    empty estimate; a well-formed file has the expected row count and only
    finite numbers in its numeric cells."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return 0, 0, False
    header, body = rows[0], rows[1:]
    if not set(ROW_NUMERIC) <= set(header):
        return len(body), 0, False
    cols = [header.index(h) for h in ROW_NUMERIC]
    well_formed = len(body) == expected_rows
    failed = 0
    for row in body:
        if len(row) != len(header):
            well_formed = False
            continue
        if row[cols[0]] == "":
            failed += 1
        for j in cols:
            try:
                if row[j] != "" and not math.isfinite(float(row[j])):
                    well_formed = False
            except ValueError:
                well_formed = False
    return len(body), failed, well_formed


def reference_path(workload: Workload, key: int) -> Path:
    suffix = "jsonl" if workload.kind == "score" else "csv"
    return REFS_DIR / workload.name / f"{key:02d}.{suffix}"
