"""The benchmark's tracer (perfbench/tracing.py) patches solver functions by
module and class lookup; every name it lists must still resolve, or its
traced runs break."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_module_functions_resolve(tracing):
    for mod_name, attr, _ in tracing.MODULE_FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_methods_defined_on_their_class(tracing):
    for mod_name, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert attr in cls.__dict__, (cls_name, attr)


def test_builds_do_not_nest(tracing, tru3):
    """Each build_h_* counts as one preconditioner build, so none may call
    another; fallbacks to beta go through the drivers' dispatchers."""
    from lorank.ip import IpConfig, ip_solve
    from lorank.pdal import PdalConfig, pdal_solve

    _, _, prob = tru3
    tracer = tracing.Tracer()
    with tracer.patched():
        ip_solve(prob, IpConfig(precond="tilde", max_iter=3))
        pdal_solve(prob, PdalConfig(precond="delta", max_outer=3))
    spans = tracer.spans
    builds = [rec for rec in spans if rec[0] == "precond.build_h"]
    assert builds
    assert all(rec[3] < 0 or spans[rec[3]][0] != "precond.build_h" for rec in builds)
