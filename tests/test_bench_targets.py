"""Every function the benchmark's tracer wraps (perfbench/tracer.py's
TARGETS) must still exist, so a refactor that drops or renames one fails
here instead of breaking a traced benchmark run; the tracer must put back
every object it replaced; the benchmark's reference import launch must
import every outside module that rpps.cli does, and rpps.cli no scipy
module; its setup launch must run on both of its inputs; and its
replication marker and oracle-SE collector, patched onto `rpps.harness`,
must see the calls of a run."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rpps import harness
from rpps.datagen import GeneratorSpec, sample_dataset, write_dataset_csv
from rpps.harness import EstimatorRequest, ExperimentConfig, InferenceKind, OracleConfig
from rpps.linmodel import ModelSpec

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize(("module_name", "attr"), [t[1:] for t in _tracer().TARGETS], ids=lambda v: v)
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        # the tracer patches methods through the class __dict__
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(method))
    else:
        assert callable(getattr(module, attr, None))


def _traced_objects(targets) -> dict:
    """Every object the tracer may replace: each traced method in its class
    __dict__ and every attribute of every loaded rpps module."""
    state = {}
    for _, module_name, attr in targets:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(importlib.import_module(module_name), cls_name)
            state[module_name, attr] = vars(cls)[method]
    for name, module in list(sys.modules.items()):
        if name == "rpps" or name.startswith("rpps."):
            state.update(((name, key), value) for key, value in vars(module).items())
    return state


def test_uninstall_restores_every_target():
    # an aliased class is wrapped once per name, so its method is wrapped
    # twice and the restore must unwind both layers
    tracer = _tracer()
    for _, module_name, _ in tracer.TARGETS:
        importlib.import_module(module_name)
    before = _traced_objects(tracer.TARGETS)
    traced = tracer.Tracer("harness.run_experiment")
    traced.install()
    try:
        during = _traced_objects(tracer.TARGETS)
        for _, module_name, attr in tracer.TARGETS:
            assert during[module_name, attr] is not before[module_name, attr], (module_name, attr)
    finally:
        traced.uninstall()
    after = _traced_objects(tracer.TARGETS)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed


def _run_py_constant(name: str) -> str:
    """The string constant `name` of perfbench/run.py, read without importing run.py."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/run.py assigns no {name}")


def _last_line_of(code: str, *argv) -> str:
    """The last line `code` prints, run with `argv` in a fresh interpreter that imports rpps from src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", code, *map(str, argv)]
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _modules_loaded_by(code: str) -> set:
    probe = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    return set(_last_line_of(probe).split())


def test_setup_reference_launch_imports_what_rpps_cli_imports():
    # setup_s is the time to import rpps.cli over the time of REF_CHILD, which
    # imports a fixed list of outside modules; a module that rpps.cli loads
    # beyond that list would count against rpps
    reference = _modules_loaded_by(_run_py_constant("REF_CHILD"))
    rpps_cli = _modules_loaded_by("import rpps.cli")
    outside = {name for name in rpps_cli - reference if name != "rpps" and not name.startswith("rpps.")}
    assert not outside


def test_importing_rpps_starts_nothing():
    # the normals worker starts on the oracle's first call, not on import
    probe = "import rpps.cli, sys, threading\nprint('concurrent.futures' in sys.modules, threading.active_count())"
    assert _last_line_of(probe) == "False 1"


def test_rpps_cli_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves the tests only
    loaded = _modules_loaded_by("import rpps.cli")
    assert "numpy" in loaded
    assert not {name for name in loaded if name == "scipy" or name.startswith("scipy.")}


def test_setup_launch_validates_a_config():
    # setup_s times SETUP_CHILD, which prints "fail" when rpps rejects its input
    assert float(_last_line_of(_run_py_constant("SETUP_CHILD"), ROOT / "configs" / "misfit.json")) > 0


def test_setup_launch_loads_score_inputs(tmp_path):
    data, model, requests = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "requests.json"
    write_dataset_csv(sample_dataset(GeneratorSpec(0, (0.5,), 0.5), 12, 3), data)
    model.write_text('{"degree": 2}')
    requests.write_text('[{"kind": "delta"}, {"kind": "jackknife", "k_folds": 6, "seed": 1}]')
    assert float(_last_line_of(_run_py_constant("SETUP_CHILD"), data, model, requests)) > 0


def test_run_experiment_calls_through_harness_attributes(monkeypatch):
    # the benchmark marks replications by patching harness.sample_dataset and
    # collects oracle SEs by patching harness.exact_score_mc
    config = ExperimentConfig(
        truth=GeneratorSpec(0, (0.5,), 0.5),
        model=ModelSpec(1),
        inference=InferenceKind.POSTERIOR_PREDICTIVE,
        estimators=(EstimatorRequest(kind="delta"),),
        seed=3,
        replications=3,
        oracle=OracleConfig(mc_datasets=20),
    )
    calls = []
    for name in ("sample_dataset", "exact_score_mc"):
        original = getattr(harness, name)

        def recording(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(harness, name, recording)
    harness.run_experiment(config)
    assert calls == ["sample_dataset", "exact_score_mc"] * 3
