"""The benchmark's layer tracer still finds every callable it wraps.

``bench/layers.py`` patches names where they are used (``vars(owner)[name]``),
so an engine refactor that drops or rebinds one breaks only the traced
benchmark.  These tests import that module read-only and catch it here.
"""

import importlib.util
from pathlib import Path

import numpy as np

from restartfom import harness
from restartfom.async_scheme import DelayModel
from restartfom.methods import MethodSpec
from restartfom.problems import make_norm_power_problem

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves():
    layers = _layers()
    assert layers.PATCHES
    for owner, attribute, name, _keep in layers.PATCHES:
        assert attribute in vars(owner), f"{name}: {owner.__name__}.{attribute} is gone"
        assert callable(vars(owner)[attribute]) or isinstance(
            vars(owner)[attribute], classmethod)


def test_traced_engines_call_through_the_patched_names():
    tracer = _layers().LayerTracer()
    tracer.reset(0)
    problem = make_norm_power_problem(2, 1.0, 1.0)
    x0 = np.array([3.0, -4.0])
    tracer.install()
    try:
        harness.run_sync(problem, "subgrad", 0.25, x0=x0)
        harness.run_async(problem, "subgrad", 0.25, x0=x0, delay_model=DelayModel())
        # Only univ steps a clone when it issues a call; subgrad steps in place.
        harness.run_async(problem, MethodSpec("univ", L0=1.0), 0.25, x0=x0,
                          delay_model=DelayModel())
    finally:
        tracer.remove()
    assert tracer.calls("sync_scheme.run") == 1
    assert tracer.calls("async_scheme.run") == 2
    for engine in ("sync_scheme.run", "async_scheme.run"):
        for layer in ("methods.init", "methods.step", "methods.restart"):
            assert tracer.calls(layer, engine) > 0, (layer, engine)
    assert tracer.calls("methods.clone", "async_scheme.run") > 0
