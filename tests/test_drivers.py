"""Behaviour both drivers share through the scaffold in ``report.py``: the
config checks, the report of the point a solve returns, and the trace rows
of the run record."""

import importlib
import re
from dataclasses import replace

import numpy as np
import pytest

from lorank import precond, report
from lorank.cli import DRIVERS
from lorank.ip import initial_point
from lorank.model import BlockSymMatrix, PrimalDualPoint, dimacs, dual_slack
from lorank.report import SolverFailure

COMMON_KEYS = {"iteration", "cg", "precond", "cg_tol", "dimacs_max", "time"}


def start_point(driver, prob) -> PrimalDualPoint:
    """The point a solve measures before its first iteration."""
    if driver == "ip":
        return initial_point(prob)
    y0 = np.zeros(prob.n)
    x0 = BlockSymMatrix([np.eye(m) for m in prob.block_dims], np.ones(prob.nu))
    return PrimalDualPoint(y0, x0, dual_slack(prob, y0))


@pytest.mark.parametrize(
    "driver, kind",
    [("ip", kind) for kind in ("gamma", "delta", "hybrid", "bogus")]
    + [("pdal", kind) for kind in ("alpha", "cluster", "hybrid", "tilde", "bogus")],
)
def test_config_rejects_other_kinds(driver, kind):
    kinds = {"ip": "alpha|beta|cluster|tilde|none", "pdal": "gamma|delta|beta|none"}[driver]
    with pytest.raises(ValueError, match=re.escape(f"{driver} preconditioner must be one of {kinds}")):
        DRIVERS[driver][0](precond=kind)


@pytest.mark.parametrize("driver", DRIVERS)
def test_config_rejects_negative_cap(driver):
    with pytest.raises(ValueError, match="max_iter"):
        DRIVERS[driver][0](max_iter=-1)


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize(
    "field, value",
    [("eps_dimacs", 0.0), ("eps_dimacs", -1e-5), ("eps_dimacs", float("nan")),
     ("cg_maxiter", 0), ("rank", "two"), ("rank", 1.5), ("rank", 2.0), ("rank", None), ("rank", True),
     ("rank", "auto")],
)
def test_config_rejects_out_of_range_settings(driver, field, value):
    with pytest.raises(ValueError, match=field):
        DRIVERS[driver][0](**{field: value})


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("rank", [-1, 0, 3])
def test_config_keeps_int_and_auto_ranks(driver, rank):
    """Every int rank is kept, a negative one too: ``spectral_split`` clamps
    it to 0.  ``"auto"`` is rejected with the other non-int ranks."""
    assert DRIVERS[driver][0](rank=rank).rank == rank


@pytest.mark.parametrize("driver", DRIVERS)
def test_none_applies_the_identity_on_every_row(driver, tru3):
    """``none`` is P = I through the same apply as every kind: each trace
    row names it, and the IP never deflates its corrector with it."""
    _, _, prob = tru3
    config_cls, solve = DRIVERS[driver]
    _, rep = solve(prob, config_cls(precond="none"))
    assert rep.converged and rep.trace
    assert all(row["precond"] == "none" for row in rep.trace)
    if driver == "ip":
        assert all(row["defl_rank"] == 0 for row in rep.trace)


@pytest.mark.parametrize("driver", DRIVERS)
def test_diag_past_the_limit_forms_no_dense_matrix(driver, tru3, monkeypatch):
    """``diag`` on a problem past ``DIAG_LIMIT`` writes no dense record and
    never forms the n x n Newton matrix; at the limit it forms it."""
    _, _, prob = tru3
    config_cls, solve = DRIVERS[driver]

    def no_dense(*args):
        raise AssertionError("dense_of called")

    monkeypatch.setattr(precond, "dense_of", no_dense)
    monkeypatch.setattr(report, "DIAG_LIMIT", prob.n - 1)
    _, rep = solve(prob, config_cls(diag=True, max_iter=2))
    assert len(rep.trace) == 2 and rep.diagnostics == []
    monkeypatch.setattr(report, "DIAG_LIMIT", prob.n)
    with pytest.raises(AssertionError, match="dense_of called"):
        solve(prob, config_cls(diag=True, max_iter=2))


@pytest.mark.parametrize("driver", DRIVERS)
def test_optimal_meets_a_tight_tolerance(driver, tru3):
    """``optimal`` means every DIMACS measure reached the requested
    tolerance, also below the standard 1e-5 level; a run that cannot get
    there ends with another status."""
    _, _, prob = tru3
    config_cls, solve = DRIVERS[driver]
    _, rep = solve(prob, config_cls(eps_dimacs=1e-7))
    assert rep.status != "optimal" or rep.dimacs_max() <= 1e-7
    assert rep.status in ("optimal", "numerical_limit")


@pytest.mark.parametrize("driver", DRIVERS)
def test_report_dimacs_is_the_returned_point(driver, tru3, request):
    """The report carries the DIMACS errors of the point the solve returns,
    and a failed solve's partial report those of the point it failed at."""
    _, _, prob = tru3
    pt, rep = request.getfixturevalue(f"tru3_{driver}")
    assert rep.dimacs == dimacs(prob, pt)
    config_cls, solve = DRIVERS[driver]
    with pytest.raises(SolverFailure) as info:
        solve(prob, config_cls(cg_maxiter=1))
    failed = info.value.report
    assert failed.status == "cg_failure" and failed.iterations == 0
    assert failed.dimacs == dimacs(prob, start_point(driver, prob))


@pytest.mark.parametrize("driver", DRIVERS)
def test_trace_rows_carry_the_common_keys(driver, request):
    """Every row has the keys the run record writes for both drivers, one
    row per iteration in order, stamped with nondecreasing times within the
    wall time; the CG total is the rows' sum."""
    _, rep = request.getfixturevalue(f"tru3_{driver}")
    assert rep.converged and rep.trace
    for row in rep.trace:
        assert COMMON_KEYS <= row.keys(), COMMON_KEYS - row.keys()
    assert [row["iteration"] for row in rep.trace] == list(range(rep.iterations))
    times = [row["time"] for row in rep.trace]
    assert times == sorted(times) and rep.wall_time >= times[-1]
    assert rep.cg_total == sum(row["cg"] for row in rep.trace)


def wrap_pcg(monkeypatch, driver, change=lambda rep: rep) -> list[int]:
    """Wrap the driver module's ``pcg_solve``: each solve runs as it would,
    its report passes through ``change``, and the returned list collects
    the CG iterations each solve ran."""
    module = importlib.import_module(f"lorank.{driver}")
    solve, ran = module.pcg_solve, []

    def wrapped(*args, **kwargs):
        dy, rep = solve(*args, **kwargs)
        ran.append(rep.iterations)
        return dy, change(rep)

    monkeypatch.setattr(module, "pcg_solve", wrapped)
    return ran


@pytest.mark.parametrize("driver", DRIVERS)
def test_failed_report_counts_every_cg_iteration(driver, tru3, monkeypatch):
    """A failed run's partial report counts every CG iteration run, those of
    the iteration that failed included."""
    _, _, prob = tru3
    config_cls, solve = DRIVERS[driver]
    ran = wrap_pcg(monkeypatch, driver)
    with pytest.raises(SolverFailure) as info:
        solve(prob, config_cls(cg_maxiter=3))
    assert info.value.report.cg_total == sum(ran) > 0


# outcome: (the outcome every solve reports, eps_dimacs); each solve keeps
# its iterations and the IP predictor its deflation space
CONVERGED = {"converged": True, "stagnated": False, "breakdown": False}
GATE_CASES = {
    "converged": (CONVERGED, 1e-5),
    "stagnated": (CONVERGED | {"relres": 0.05, "converged": False, "stagnated": True}, 1e-5),
    "numerical_limit": (CONVERGED | {"relres": 0.05, "converged": False, "stagnated": True}, 1e-7),
    "cg_failure": (CONVERGED | {"relres": 0.5, "converged": False, "stagnated": True}, 1e-5),
}


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("outcome", GATE_CASES)
def test_gate_decides_every_cg_solve(driver, outcome, tru3, request, monkeypatch):
    """``RunRecord.take`` decides every CG solve of both drivers.  Each solve
    keeps its direction and reports as the case says.  A converged solve,
    and a stagnation at relres 0.05 at a point above 1e-5, give their
    direction: the run is the plain one.  When more is asked for, the first
    solve at a point meeting 1e-5 that does not converge ends the run
    ``numerical_limit`` there.  A solve at relres 0.5 ends it
    ``cg_failure`` at its first solve, with the partial report of the start
    point."""
    _, _, prob = tru3
    _, plain = request.getfixturevalue(f"tru3_{driver}")
    config_cls, solve = DRIVERS[driver]
    fields, eps = GATE_CASES[outcome]
    ran = wrap_pcg(monkeypatch, driver, lambda rep: replace(rep, **fields))
    if outcome == "cg_failure":
        with pytest.raises(SolverFailure) as info:
            solve(prob, config_cls(eps_dimacs=eps))
        failed = info.value.report
        assert failed.status == "cg_failure" and failed.iterations == 0 and len(ran) == 1
        assert failed.dimacs == dimacs(prob, start_point(driver, prob))
        assert (info.value.iteration, info.value.relres) == (0, 0.5)
        return
    _, rep = solve(prob, config_cls(eps_dimacs=eps))
    if outcome == "numerical_limit":
        assert rep.status == "numerical_limit" and rep.dimacs_max() <= 1e-5
        # the gate ended it: one solve more than the trace rows took
        rows = 2 * rep.iterations if driver == "ip" else sum(row["inner_iterations"] for row in rep.trace)
        assert len(ran) == rows + 1
    else:
        assert rep.status == "optimal"
        assert (rep.iterations, rep.cg_total, rep.dimacs) == (plain.iterations, plain.cg_total, plain.dimacs)
