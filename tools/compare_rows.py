"""Compare two experiment runs' rows.csv cell by cell.

    python3 tools/compare_rows.py PARENT_DIR CHANGE_DIR

Reads PARENT_DIR/rows.csv (the reference) and CHANGE_DIR/rows.csv, pairs
their rows by (replication_id, estimator) and, for each (estimator,
column) of `estimate`, `std_error`, `exact` and `error`, prints the cells
compared, the cells off and the worst move.  A cell's move is
|change - ref| / scale and it is off above 1e-12.  The scale is
max(1, |ref|), but for `error` (= estimate - exact) it is max(1,
|estimate|, |exact|) of the reference row, because a difference carries
the rounding of its operands.  For `error` the line also counts the cells
beyond the stricter 1e-12 * max(1, |ref|).  A cell empty on one side only,
or a row on one side only, is off.  The exit code is 1 if any cell is off.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

COLUMNS = ("estimate", "std_error", "exact", "error")
BOUND = 1e-12


def _float(text: str | None) -> float | None:
    return None if text in (None, "") else float(text)


def _rows(text: str) -> dict[tuple[str, str], dict]:
    return {(row["replication_id"], row["estimator"]): row for row in csv.DictReader(io.StringIO(text))}


def compare(ref_text: str, out_text: str) -> dict[tuple[str, str], dict]:
    """{(estimator, column): {"compared", "off", "strict_off", "worst"}} of
    two rows.csv texts, in the reference's order; "strict_off" counts the
    moves beyond 1e-12 relative to max(1, |ref|) alone."""
    ref_rows, out_rows = _rows(ref_text), _rows(out_text)
    result: dict[tuple[str, str], dict] = {}
    for key in list(ref_rows) + [k for k in out_rows if k not in ref_rows]:
        ref, out = ref_rows.get(key, {}), out_rows.get(key, {})
        for column in COLUMNS:
            stats = result.setdefault((key[1], column), {"compared": 0, "off": 0, "strict_off": 0, "worst": 0.0})
            a, b = _float(ref.get(column)), _float(out.get(column))
            if a is None and b is None:
                continue
            stats["compared"] += 1
            if a is None or b is None:
                move = strict = math.inf
            else:
                strict = abs(b - a) / max(1.0, abs(a))
                operands = (_float(ref.get("estimate")) or 0.0, _float(ref.get("exact")) or 0.0)
                scale = max(1.0, *map(abs, operands)) if column == "error" else max(1.0, abs(a))
                move = abs(b - a) / scale
            stats["off"] += move > BOUND
            stats["strict_off"] += strict > BOUND
            stats["worst"] = max(stats["worst"], move)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path, help="directory of the reference rows.csv")
    parser.add_argument("change_dir", type=Path, help="directory of the rows.csv to check")
    args = parser.parse_args(argv)
    texts = [(d / "rows.csv").read_text(encoding="utf-8") for d in (args.parent_dir, args.change_dir)]
    off = compared = 0
    for (estimator, column), stats in compare(*texts).items():
        off, compared = off + stats["off"], compared + stats["compared"]
        strict = f", {stats['strict_off']} beyond 1e-12 * max(1, |ref|)" if column == "error" else ""
        print(
            f"{estimator} {column}: {stats['off']} of {stats['compared']} cells off, "
            f"worst move {stats['worst']:.3g}{strict}"
        )
    print(f"total: {off} of {compared} cells off")
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main())
