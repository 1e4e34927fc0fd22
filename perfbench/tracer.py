"""In-memory spans around rpps's public functions, for the traced run only.

`Tracer.install()` replaces each traced function at every ``rpps.*`` module
attribute that holds it (so ``rpps.harness.fit_mle``, ``rpps.scores.fit_mle``
and ``rpps.linmodel.fit_mle`` all see the wrapper) and each traced method on
its class; `Tracer.uninstall()` puts the originals back.  A span is
(name, start, end, parent index, replication id, ok); a layer's self time is
its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (span name, module, attribute path).  A dotted attribute path names a
# method on a class of that module.
TARGETS = (
    ("cli.main", "rpps.cli", "main"),
    ("harness.run_experiment", "rpps.harness", "run_experiment"),
    ("harness.emit_outputs", "rpps.harness", "emit_outputs"),
    ("datagen.sample_dataset", "rpps.datagen", "sample_dataset"),
    ("datagen.read_dataset_csv", "rpps.datagen", "read_dataset_csv"),
    ("datagen.subset", "rpps.datagen", "DataSet.subset"),
    ("linmodel.fit_mle", "rpps.linmodel", "fit_mle"),
    ("linmodel.plugin_log_predictive", "rpps.linmodel", "plugin_log_predictive"),
    ("conjugate.default_prior", "rpps.conjugate", "default_prior"),
    ("conjugate.posterior_update", "rpps.conjugate", "posterior_update"),
    ("conjugate.log_evidence", "rpps.conjugate", "log_evidence"),
    ("conjugate.sample_posterior", "rpps.conjugate", "sample_posterior"),
    ("conjugate.posterior_mean", "rpps.conjugate", "posterior_mean"),
    ("conjugate.log_density_batch", "rpps.conjugate", "PluginGaussian.log_density_batch"),
    ("conjugate.log_density_batch", "rpps.conjugate", "PriorPredictive.log_density_batch"),
    ("conjugate.log_density_batch", "rpps.conjugate", "PosteriorPredictive.log_density_batch"),
    ("scores.exact_score_quadrature", "rpps.scores", "exact_score_quadrature"),
    ("scores.exact_score_mc", "rpps.scores", "exact_score_mc"),
    ("scores.delta_estimator", "rpps.scores", "delta_estimator"),
    ("scores.holdout_estimator", "rpps.scores", "holdout_estimator"),
    ("scores.jackknife_estimator", "rpps.scores", "jackknife_estimator"),
    ("scores.bootstrap_estimator", "rpps.scores", "bootstrap_estimator"),
    ("scores.evidence_criterion", "rpps.scores", "evidence_criterion"),
    ("scores.aic", "rpps.scores", "aic"),
    ("scores.waic", "rpps.scores", "waic"),
    ("scores.dic", "rpps.scores", "dic"),
)

LAYERS = ("cli", "harness", "datagen", "linmodel", "conjugate", "scores")


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans and per-call extras; one instance per traced phase."""

    def __init__(self, rep_marker: str):
        self.rep_marker = rep_marker  # span name whose start opens a replication
        self.spans: list = []
        self.stack: list[int] = []
        self.rep = -1
        self.extras: dict[str, list] = defaultdict(list)
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "rpps" and not mod_name.startswith("rpps."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        extra = getattr(self, "_extra_" + name.replace(".", "_"), None)
        is_marker = name == self.rep_marker

        def traced(*args, **kwargs):
            if is_marker:
                self.rep += 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.rep, ok)
            if extra is not None:
                extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-call extras ------------------------------------------------------

    def _extra_scores_exact_score_mc(self, args, kwargs, result) -> None:
        self.extras["se"].append(result.std_error)

    def _extra_scores_bootstrap_estimator(self, args, kwargs, result) -> None:
        self.extras["boot_useful"].append(result.n_effective)
        self.extras["boot_drawn"].append(_arg(args, kwargs, 2, "scheme").b_resamples)

    def _extra_conjugate_log_density_batch(self, args, kwargs, result) -> None:
        self.extras["batch_datasets"].append(len(result))

    def _extra_harness_emit_outputs(self, args, kwargs, result) -> None:
        out = Path(_arg(args, kwargs, 1, "out_dir"))
        self.extras["emit_bytes"].append(sum(p.stat().st_size for p in out.iterdir() if p.is_file()))

    # -- aggregation -------------------------------------------------------------

    def summarize(self, reps: int) -> dict:
        """Per-function and per-layer figures over `reps` replications."""
        calls: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _rep, _ok in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        wall = 0.0
        for i, (name, start, end, parent, _rep, ok) in enumerate(self.spans):
            calls[name] += 1
            failed[name] += not ok
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            if parent < 0:
                wall += end - start
        reps = max(reps, 1)
        functions = {}
        for name in calls:
            n = calls[name]
            functions[name] = {
                "calls": n,
                "calls_per_rep": n / reps,
                "us_per_call": 1e6 * total[name] / n,
                "ms_per_call": 1e3 * total[name] / n,
                "self_ms_per_call": 1e3 * self_time[name] / n,
                "self_ms_per_rep": 1e3 * self_time[name] / reps,
                "fail_frac": failed[name] / n,
            }
        layers = {}
        for layer in LAYERS:
            own = sum(t for name, t in self_time.items() if name.split(".")[0] == layer)
            layers[layer] = {
                "self_ms_per_rep": 1e3 * own / reps,
                "self_share": own / wall if wall > 0 else 0.0,
            }
        batch_time = total.get("conjugate.log_density_batch", 0.0)
        extras = {
            "se_p50": statistics.median(self.extras["se"]) if self.extras["se"] else 0.0,
            "useful_frac": (
                sum(self.extras["boot_useful"]) / sum(self.extras["boot_drawn"])
                if self.extras["boot_drawn"]
                else 0.0
            ),
            "datasets_per_s": sum(self.extras["batch_datasets"]) / batch_time if batch_time > 0 else 0.0,
            "emit_bytes": (
                statistics.fmean(self.extras["emit_bytes"]) if self.extras["emit_bytes"] else 0.0
            ),
        }
        return {
            "reps": reps,
            "spans": len(self.spans),
            "wall_s": wall,
            "rep_wall_ms": 1e3 * wall / reps,
            "functions": functions,
            "layers": layers,
            "extras": extras,
        }

    def write_spans(self, path: Path) -> None:
        """Dump every span as CSV (times relative to the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as f:
            f.write("index,name,start_us,end_us,parent,rep,ok\n")
            for i, (name, start, end, parent, rep, ok) in enumerate(self.spans):
                f.write(
                    f"{i},{name},{1e6 * (start - origin):.1f},{1e6 * (end - origin):.1f},{parent},{rep},{int(ok)}\n"
                )
