"""Compare rpps's outputs with every stored benchmark reference.

    python3 tools/check_refs.py [--workload NAME]

For every workload of ``perfbench/workloads.py`` (or the one named) and
every reference key 0-15, runs ``perfbench/run.py``'s ``check_phase``: the
key's check chunk, scored twice and compared with
``perfbench/refs/<workload>/<key>`` at 1e-12 * max(1, |ref|).  Prints one
line per key with the cells off and compared and the worst relative move,
max |out - ref| / max(1, |ref|) over the numeric cells (rows.csv) or
fields (``rpps score`` records) present in both, then a total.  Outputs
are written under ``.perfbench_out/check_refs/``; nothing under
``perfbench/`` is changed.  The exit code is 1 if any cell is off.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402

W = bench.W


def _float(text: str | None) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _move(out: float, ref: float) -> float:
    return abs(out - ref) / max(1.0, abs(ref))


def worst_move(out_text: str, ref_text: str, score: bool) -> float:
    """max |out - ref| / max(1, |ref|) over the numeric values that both
    texts hold at the same place (0.0 if there are none)."""
    pairs = []
    if score:
        for out_line, ref_line in zip(out_text.splitlines(), ref_text.splitlines()):
            out, ref = json.loads(out_line), json.loads(ref_line)
            pairs += [(out.get(k), v) for k, v in ref.items()]
    else:
        out_rows = list(csv.DictReader(io.StringIO(out_text)))
        for out, ref in zip(out_rows, csv.DictReader(io.StringIO(ref_text))):
            pairs += [(_float(out.get(k)), _float(ref[k])) for k in W.ROW_NUMERIC if k in ref]
    moves = [
        _move(float(out), float(ref))
        for out, ref in pairs
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in (out, ref))
    ]
    return max(moves, default=0.0)


def check_key(name: str, key: int, workdir: Path) -> dict:
    """`check_phase` of workload `name` at reference key `key`, plus the
    worst relative move of its numeric cells."""
    w = W.WORKLOADS[name]
    compare = "compare_records" if w.kind == "score" else "compare_rows"
    texts = []

    def keeping(fn):
        def compare_and_keep(out_text, ref_text):
            texts.append((out_text, ref_text))
            return fn(out_text, ref_text)

        return compare_and_keep

    workdir.mkdir(parents=True, exist_ok=True)
    with bench.patched(W, compare, keeping):
        check = bench.check_phase(bench.Runner(w, workdir), key)
    check["worst_move"] = max((worst_move(*pair, score=w.kind == "score") for pair in texts), default=math.inf)
    return check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS), help="check this workload only")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(W.WORKLOADS)
    off = compared = 0
    for name in names:
        for key in range(W.REF_KEYS):
            check = check_key(name, key, bench.OUT / "check_refs" / name)
            off, compared = off + check["off"], compared + check["compared"]
            print(
                f"{name} key {key:2d}: {check['off']} of {check['compared']} cells off, "
                f"worst move {check['worst_move']:.3g}, repeat identical {check['repeat_identical']}",
                flush=True,
            )
    print(f"total: {off} of {compared} cells off over {len(names) * W.REF_KEYS} keys")
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main())
