"""Latent data generating processes over the (y1, y2) measurement space.

A generating process draws y1 uniformly on [-1, 1] and then y2 conditionally
Gaussian around a polynomial in y1.  All log densities in this package are
taken with respect to Lebesgue measure on (R x R)^N, so the uniform y1
factor log(1/2) is included per point; every predictive density in the other
modules follows the same convention, which keeps scores directly comparable.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
import sys
import threading
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

LOG_HALF = math.log(0.5)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class OutsideSupport(ValueError):
    """A y1 value lies outside [-1, 1], where the generating density is zero."""


def require_count(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless `value` is an integer (not a bool) >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def frozen_copy(name: str, values) -> np.ndarray:
    """A read-only, C-contiguous float64 copy of `values` (so freezing it
    leaves the caller's array writeable); ValueError if an entry is NaN or
    inf.  The one rule for every array a value of this package holds."""
    out = np.array(values, dtype=float, order="C")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    out.setflags(write=False)
    return out


def load_json_object(cls, what: str, d, **nested):
    """Build the dataclass `cls` from the JSON object `d`, named `what` in
    errors.  Its keys are fields of `cls` (anything else is a typo), and it
    holds every field without a default.  `nested` maps a field to the loader
    of its JSON value; a ValueError there is prefixed with the field's name."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    extra = set(d) - {f.name for f in fields(cls)}
    if extra:
        raise ValueError(f"unknown {what} keys: {sorted(extra)}")
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    missing = [key for key in required if key not in d]
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")
    values = dict(d)
    for key, load in nested.items():
        if key in values:
            try:
                values[key] = load(values[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    return cls(**values)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def normal_logpdf(x, mean, var):
    """Elementwise Gaussian log density; `var` must be positive."""
    x = np.asarray(x, dtype=float)
    return -_HALF_LOG_2PI - 0.5 * np.log(var) - 0.5 * (x - mean) ** 2 / var


_pool = threading.local()


def scratch(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A float64 work array of `shape` that outlives the call: a view of the
    first prod(shape) elements of one flat buffer per `name`, kept per
    thread, grown when a request is larger and never shrunk.  Its contents
    are whatever the last user left there, and the next request under the
    same name in this thread overwrites them, so nothing that leaves the
    caller may alias it."""
    size = math.prod(shape)
    buf = getattr(_pool, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_pool, name, buf)
    return buf[:size].reshape(shape)


_worker = None  # (pid, executor) of `_normals_worker`


def _normals_worker():
    """The one worker thread of this process that draws `draw_blocks`'
    normals, started on first use (so importing rpps starts no thread or
    executor) and again in a fork child, which has the parent's executor
    but not its thread.  Threads that start it at once may each make an
    executor; each `draw_blocks` keeps the one it got, so a spare only
    idles until it is collected."""
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _worker = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="rpps-normals"))
    return _worker[1]


def horner(y1, coeffs, out=None):
    """sum_k coeffs[k] * y1**k by Horner's rule, computed in place (into
    `out` if given).  Equal to `np.polynomial.polynomial.polyval(y1, coeffs)`
    for a 1-D `coeffs`, and bit for bit but for one case: when every
    coefficient is -0.0 at degree >= 1, the two give zeros of opposite sign
    at some y1 (which compare equal).  A coefficient may also be an array
    that broadcasts against y1."""
    y1 = np.asarray(y1, dtype=float)
    if len(coeffs) == 1:  # c0 + 0 * y1, shaped as they broadcast
        return np.add(coeffs[0], np.multiply(y1, 0.0, out=out), out=out)
    out = np.multiply(y1, coeffs[-1], out=out)
    for c in coeffs[-2:0:-1]:
        out += c
        out *= y1
    out += coeffs[0]
    return out


@dataclass(frozen=True)
class GeneratorSpec:
    """A polynomial-mean Gaussian data generating process.

    y1 ~ U(-1, 1) and y2 | y1 ~ Normal(sum_k coeffs[k] * y1^k, sigma^2).
    `coeffs` holds c_0..c_degree in ascending order; the constant model is
    the degree-0 special case.
    """

    degree: int
    coeffs: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        require_count("degree", self.degree, minimum=0)
        if not isinstance(self.coeffs, (list, tuple)) or not all(map(_is_real, self.coeffs)):
            raise ValueError(f"coeffs must be a list or tuple of real numbers, got {self.coeffs!r}")
        if not _is_real(self.sigma):
            raise ValueError(f"sigma must be a real number, got {self.sigma!r}")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError(
                f"expected {self.degree + 1} coefficients, got {len(self.coeffs)}"
            )
        # checked unconverted: float() of an integer beyond the float range overflows
        if not all(abs(c) <= sys.float_info.max for c in self.coeffs):
            raise ValueError(f"coefficients must be finite, got {list(self.coeffs)}")
        if not 0 < self.sigma <= sys.float_info.max:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "sigma", float(self.sigma))

    def mean_at(self, y1):
        """Polynomial mean of y2 at the given y1 value(s)."""
        return horner(y1, self.coeffs)

    def draw(self, rng: np.random.Generator, shape) -> tuple[np.ndarray, np.ndarray]:
        """Draw y1 and then y2 arrays of `shape` from `rng`: numpy's
        uniform-then-normal stream, bit for bit `rng.normal(self.mean_at(y1),
        self.sigma)` after `y1 = rng.uniform(-1, 1, shape)`."""
        y1 = rng.uniform(-1.0, 1.0, shape)
        return y1, self.mean_at(y1) + self.sigma * rng.standard_normal(shape)

    def draw_blocks(self, rng: np.random.Generator, n_rows: int, n_points: int, block: int):
        """Yield the rows of `self.draw(rng, (n_rows, n_points))` bit for
        bit as (y1, y2) blocks of `block` rows, a shorter tail joining the
        last block.  `rng` must be a PCG64 (`default_rng`): a uniform takes
        one 64-bit output, so the normals start n_rows * n_points outputs
        on, where a copy of its state advanced that far draws them.

        That copy is the process's `_normals_worker`'s alone: it runs only
        numpy's `standard_normal`, drawing z of the next two blocks in order
        into two `scratch` buffers taken here.  Meanwhile the caller forms
        each block in place (y1 as 2u - 1, the truth's mean in y2, then
        sigma * z added into y2) and works on the block yielded.  When the
        generator closes (exhausted, or its consumer breaks off or raises),
        every job is finished or cancelled.

        Every block is drawn into the same `scratch` buffers, which the next
        block (or the next `draw_blocks` in this thread) overwrites: a
        consumer must keep only what it computed from them."""
        n_rows, n_points = int(n_rows), int(n_points)  # numpy integers: PCG64.advance takes an int
        stops = [*range(block, n_rows - block + 1, block), n_rows]
        shapes = [(stop - start, n_points) for start, stop in zip([0, *stops], stops)]
        bits = np.random.PCG64()
        bits.state = rng.bit_generator.state
        normals = np.random.Generator(bits.advance(n_rows * n_points)).standard_normal
        worker = _normals_worker()
        # jobs[k] draws block k's z, into the buffer block k - 2 has spent
        jobs = [worker.submit(normals, out=scratch(f"draw.z{k}", shape)) for k, shape in enumerate(shapes[:2])]
        try:
            for k, shape in enumerate(shapes):
                y1, y2 = scratch("draw.y1", shape), scratch("draw.y2", shape)
                rng.random(out=y1)
                y1 *= 2.0
                y1 -= 1.0
                mean = horner(y1, self.coeffs, out=y2) if self.degree else self.coeffs[0]
                z = jobs[k].result()
                z *= self.sigma
                np.add(mean, z, out=y2)
                if k + 2 < len(shapes):
                    jobs.append(worker.submit(normals, out=scratch(f"draw.z{k % 2}", shapes[k + 2])))
                yield y1, y2
        finally:  # no job may write a buffer once the caller has moved on
            for job in jobs:
                if not job.cancel():
                    job.exception()  # waits for it to finish

    def to_json_dict(self) -> dict:
        return {"degree": self.degree, "coeffs": list(self.coeffs), "sigma": self.sigma}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GeneratorSpec":
        return load_json_object(cls, "generator spec", d)


class DataSet:
    """An ordered measurement y in (R x R)^N with index-based partitioning.

    Points are stored as parallel finite, read-only float64 arrays; the
    order is part of the value (partitions are index-based), and equality is
    bitwise.
    """

    __slots__ = ("y1", "y2")

    def __init__(self, y1, y2):
        y1, y2 = frozen_copy("y1", y1), frozen_copy("y2", y2)
        if y1.ndim != 1 or y2.ndim != 1 or y1.shape != y2.shape:
            raise ValueError("y1 and y2 must be 1-D arrays of equal length")
        if y1.size < 1:
            raise ValueError("a DataSet holds at least one point")
        self.y1 = y1
        self.y2 = y2

    def __len__(self) -> int:
        return int(self.y1.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataSet):
            return NotImplemented
        return np.array_equal(self.y1, other.y1) and np.array_equal(self.y2, other.y2)

    def __repr__(self) -> str:
        return f"DataSet(n={len(self)})"

    def subset(self, indices) -> "DataSet":
        """New DataSet of the given integer indices, in order, its gathered
        arrays frozen: gathered from finite float64 arrays, they need no check."""
        idx = np.asarray(indices)
        if idx.ndim != 1 or not idx.size or idx.dtype.kind not in "iu":
            raise ValueError(f"a subset takes nonempty 1-D integer indices, got {idx.dtype} of shape {idx.shape}")
        out = object.__new__(DataSet)
        out.y1, out.y2 = self.y1[idx], self.y2[idx]
        out.y1.flags.writeable = out.y2.flags.writeable = False
        return out


def sample_dataset(spec: GeneratorSpec, n: int, seed: int) -> DataSet:
    """Draw n points from the generating process, deterministically per seed.

    Uses numpy's PCG64 stream; identical (spec, n, seed) yields a bitwise
    identical DataSet.
    """
    require_count("n", n)
    require_count("seed", seed, minimum=0)
    return DataSet(*spec.draw(np.random.default_rng(seed), n))


def true_log_density(spec: GeneratorSpec, data: DataSet) -> float:
    """Joint log density of `data` under the generating process.

    Includes the log(1/2) uniform factor per point.  Raises OutsideSupport
    if any y1 leaves [-1, 1] rather than silently returning -inf.
    """
    if np.any(data.y1 < -1.0) or np.any(data.y1 > 1.0):
        raise OutsideSupport("y1 outside [-1, 1]: generating density is zero there")
    mean = spec.mean_at(data.y1)
    return float(len(data) * LOG_HALF + np.sum(normal_logpdf(data.y2, mean, spec.sigma**2)))


def write_dataset_csv(data: DataSet, path) -> None:
    """Write a dataset as CSV with header y1,y2 using 17 significant digits.

    The encoding is lossless for float64, so a read-back reproduces the
    dataset bitwise.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["y1", "y2"])
        for a, b in zip(data.y1, data.y2):
            w.writerow([format(a, ".17g"), format(b, ".17g")])


def read_dataset_csv(path) -> DataSet:
    """Read a CSV whose header is exactly y1,y2, after a UTF-8 byte-order
    mark if the file starts with one (as spreadsheet tools write it).  A
    non-blank row without two numeric fields, or with a y2 that is not
    finite, is a ValueError, and a y1 outside [-1, 1] is OutsideSupport;
    each names the line."""
    path = Path(path)
    with path.open("r", encoding="utf-8-sig", newline="") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header is None or [h.strip() for h in header] != ["y1", "y2"]:
            raise ValueError(f"{path}: expected CSV header 'y1,y2'")
        y1, y2 = [], []
        for row in r:
            if not row:
                continue
            where = f"{path}, line {r.line_num}"
            if len(row) != 2:
                raise ValueError(f"{where}: expected 2 fields, got {len(row)}")
            try:
                a, b = float(row[0]), float(row[1])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not -1.0 <= a <= 1.0:
                raise OutsideSupport(f"{where}: y1 = {a!r} lies outside [-1, 1]")
            if not math.isfinite(b):
                raise ValueError(f"{where}: y2 = {b!r} is not finite")
            y1.append(a)
            y2.append(b)
    return DataSet(y1, y2)
