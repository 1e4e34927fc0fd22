"""Record the reference outputs that every benchmark run compares against.

    python3 perfbench/record_refs.py

For each workload and each key 0..REF_KEYS-1 this scores the check chunk
that run.py scores for any seed with ``seed % REF_KEYS == key`` and stores
its output (``rows.csv``, or the ``rpps score`` records) under
``perfbench/refs/<workload>/``.  Re-record only on purpose: the references
are the program's outputs at the commit they were recorded at, and every
later run is held to them.
"""

from __future__ import annotations

import sys

import run  # sets the thread variables before numpy loads
import workloads as W


def main() -> int:
    for name, w in W.WORKLOADS.items():
        workdir = run.OUT / "record" / name
        workdir.mkdir(parents=True, exist_ok=True)
        runner = run.Runner(w, workdir)
        for key in range(W.REF_KEYS):
            chunk = runner.chunk(W.derive(name, "check", key), w.check_reps)
            if any(code != 0 for code in chunk.codes) or not chunk.output:
                raise SystemExit(f"error: {name} key {key}: rpps failed (exit codes {chunk.codes})")
            path = W.reference_path(w, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(chunk.output)
        print(f"{name}: wrote {W.REF_KEYS} references under {W.reference_path(w, 0).parent}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
