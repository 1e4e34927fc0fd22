"""Every function the benchmark's tracer wraps (perfbench/tracer.py's
TARGETS) must still exist, so a refactor that drops or renames one fails
here instead of breaking a traced benchmark run; and the tracer must put
back every object it replaced."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
