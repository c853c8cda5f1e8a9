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
        pdal_solve(prob, PdalConfig(precond="delta", max_iter=3))
    spans = tracer.spans
    builds = [rec for rec in spans if rec[0] == "precond.build_h"]
    assert builds
    assert all(rec[3] < 0 or spans[rec[3]][0] != "precond.build_h" for rec in builds)


@pytest.mark.parametrize("kind", ["cluster"])
def test_one_visible_build_per_ip_iteration(tracing, vib3, kind):
    """The default kind is cluster and builds it on every IP iteration, the
    first included, and its whole build, base diagonal included, runs in one
    top-level precond.build_h span per iteration, so the benchmark's tracer
    sees it."""
    from lorank.ip import IpConfig, ip_solve

    assert IpConfig().precond == kind
    _, _, prob = vib3
    tracer = tracing.Tracer()
    with tracer.patched():
        _, rep = ip_solve(prob, IpConfig())
    assert rep.converged and all(t["precond"] == kind for t in rep.trace)
    assert tracer.counts["precond.fallbacks"] == 0
    builds = [rec for rec in tracer.spans if rec[0] == "precond.build_h"]
    assert all(rec[3] < 0 for rec in builds)
    assert len(builds) == rep.iterations


def _inside(spans, rec, layer):
    parent = rec[3]
    while parent >= 0:
        if spans[parent][0] == layer:
            return True
        parent = spans[parent][3]
    return False


def test_pdal_evaluates_points_only_in_inner_solve(tracing, vib5):
    """The multiplier repair reads the inner solve's last evaluation; on
    vib5 with r = 0.01 it repairs from outer 49 on (the default r solves
    vib5 without a repair)."""
    from lorank.pdal import PdalConfig, pdal_solve

    _, _, prob = vib5
    tracer = tracing.Tracer()
    with tracer.patched():
        pdal_solve(prob, PdalConfig(r=0.01, max_iter=55))
    spans = tracer.spans
    evals = [rec for rec in spans if rec[0] == "pdal.evaluate_point"]
    assert evals
    assert all(_inside(spans, rec, "pdal.inner_solve") for rec in evals)


def test_drivers_measure_each_iterate_once(tracing, tru3):
    """One top-level DIMACS evaluation per iterate, the final one included;
    the PDAL early-stopping test's evaluations nest inside pd_error."""
    from lorank.ip import ip_solve
    from lorank.pdal import pdal_solve

    _, _, prob = tru3
    for solve in (ip_solve, pdal_solve):
        tracer = tracing.Tracer()
        with tracer.patched():
            _, rep = solve(prob)
        top = [rec for rec in tracer.spans if rec[0] == "model.dimacs" and rec[3] < 0]
        assert rep.converged
        assert len(top) == rep.iterations + 1, solve.__name__


def test_tracer_counts_accepted_stagnations_by_the_drivers_rule(tracing):
    """``Tracer._on_pcg`` keeps its own copy of the CG acceptance rule; it
    must count exactly the solves ``PcgReport.usable`` accepts without
    convergence."""
    from lorank.pcg import PcgReport

    reports = [
        PcgReport(iterations=5, relres=1e-7, converged=True),
        PcgReport(iterations=9, relres=0.05, converged=False, stagnated=True),
        PcgReport(iterations=9, relres=0.5, converged=False, stagnated=True),
        PcgReport(iterations=9, relres=0.2, converged=False),
    ]
    tracer = tracing.Tracer()
    for rep in reports:
        tracer._on_pcg((), (None, rep), None)
    accepted = sum(rep.usable and not rep.converged for rep in reports)
    assert accepted == 1
    assert tracer.counts["pcg.stagnations_accepted"] == accepted
    assert tracer.counts["pcg.iterations"] == sum(rep.iterations for rep in reports)


def test_low_rank_factor_once_per_piece_inside_its_build(tracing, vib3):
    """A low-rank build factors one piece per block and factor: alpha, tilde
    and gamma one per block, delta one per block and split side with
    outliers (both at rank 1).  Each piece is a direct child of its
    build_h span, so the tracer charges it to that build."""
    from collections import Counter

    from lorank.ip import IpConfig, ip_solve
    from lorank.pdal import PdalConfig, pdal_solve

    _, _, prob = vib3
    runs = [
        (ip_solve, IpConfig(precond="alpha", max_iter=3), prob.p),
        (ip_solve, IpConfig(precond="cluster", max_iter=3), prob.p),
        (ip_solve, IpConfig(precond="tilde", max_iter=3), prob.p),
        (pdal_solve, PdalConfig(precond="gamma", max_iter=3), prob.p),
        (pdal_solve, PdalConfig(precond="delta", max_iter=3), 2 * prob.p),
    ]
    for solve, cfg, per_build in runs:
        tracer = tracing.Tracer()
        with tracer.patched():
            solve(prob, cfg)
        assert tracer.counts["precond.fallbacks"] == 0
        spans = tracer.spans
        pieces = Counter(rec[3] for rec in spans if rec[0] == "precond.low_rank_factor")
        builds = [i for i, rec in enumerate(spans) if rec[0] == "precond.build_h"]
        assert builds, cfg.precond
        assert all(spans[parent][0] == "precond.build_h" for parent in pieces), cfg.precond
        assert [pieces[i] for i in builds] == [per_build] * len(builds), cfg.precond


@pytest.mark.parametrize("solver, instance", [("ip", "tru5"), ("ip", "vib3"), ("pdal", "vib3"), ("pdal", "tru5")])
def test_traced_run_counts_what_the_report_counts(tracing, request, solver, instance):
    """The benchmark's traced checks at the defaults, on small inputs: the
    tracer sees every linear solve (two per IP iteration, one per PDAL
    Newton step) and every CG iteration, and tracing leaves the counts of
    the untraced run alone.  Each layer the tracer patches for the driver
    records at least one call per outer iteration (the PDAL early-stopping
    test's ``pd_error`` at least one call), so a layer reached
    through a binding the tracer does not patch (``from .precond import
    spectral_split`` in a driver, or a shared helper calling
    ``pcg.pcg_solve`` from its own module) fails here."""
    from lorank.cli import DRIVERS

    _, untraced = request.getfixturevalue(f"{instance}_{solver}")
    _, _, prob = request.getfixturevalue(instance)
    config_cls, solve = DRIVERS[solver]
    tracer = tracing.Tracer()
    with tracer.patched():
        _, rep = solve(prob, config_cls())
    assert rep.status == "optimal"
    assert (rep.iterations, rep.cg_total) == (untraced.iterations, untraced.cg_total)
    assert _untimed(rep.trace) == _untimed(untraced.trace)

    other = {"ip": "lorank.pdal", "pdal": "lorank.ip"}[solver]
    layers = sorted({entry[-1] for entry in tracing.MODULE_FUNCTIONS + tracing.METHODS if entry[0] != other})
    totals = tracer.layer_totals()
    calls = {layer: totals.get(layer, {"calls": 0})["calls"] for layer in layers}
    # harness.linear_solves: two per IP iteration, one per PDAL Newton step
    solves = 2 * rep.iterations if solver == "ip" else sum(row["inner_iterations"] for row in rep.trace)
    assert calls["pcg.pcg_solve"] == solves
    assert tracer.counts["pcg.iterations"] == rep.cg_total
    # pd_error is the early-stopping test's, measured only when its cheap
    # clauses pass: 27 of 32 outers on vib3, 17 of 31 on tru5
    assert calls.pop("pdal.pd_error", 1) >= 1
    assert all(n >= rep.iterations for n in calls.values()), calls


def _untimed(trace):
    return [{key: value for key, value in row.items() if key != "time"} for row in trace]
