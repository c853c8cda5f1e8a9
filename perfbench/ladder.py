"""One-off sweep of the instance ladder, outside the timed workloads and gates.

    python3 perfbench/ladder.py                    # the 14 ladder runs
    python3 perfbench/ladder.py ip-tru8 ip-vib7    # chosen runs, by name

Solves tru3, tru3e, tru5, tru7, tru9, vib3 and vib5 once with each driver
(``ip`` with its default hybrid preconditioner, ``pdal`` with the ``tru``
profile), single-threaded and in the generated variable order, and records
status, counts, solve time, DIMACS and the self time of each traced layer,
failures included.  The solves are traced (see ``tracing.py``), so the
linear-solve and CG counts are counted at ``pcg_solve`` and stay exact when
a run fails part-way through an iteration.  Three further
runs, known to fail or stall, are available by name: ``ip-tru8``, ``ip-vib7``
and ``pdal-vib5-vib`` (the ``vib`` profile that ``lorank solve
--pdal-profile auto`` picks for vib files).  Results go to
``.perfbench/ladder.json`` and one line per run to standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from run import ROOT, pin_threads, use_checkout_source

LADDER = [("tru", 3, 0.0), ("tru", 3, 1e-4), ("tru", 5, 0.0), ("tru", 7, 0.0),
          ("tru", 9, 0.0), ("vib", 3, 0.0), ("vib", 5, 0.0)]
# (name, solver, variant, size, t_lower, pdal profile)
RUNS = [
    (f"{solver}-{variant}{size}{'e' if t_lower else ''}", solver, variant, size, t_lower, "tru")
    for variant, size, t_lower in LADDER for solver in ("ip", "pdal")
]
EXTRA_RUNS = [
    ("ip-tru8", "ip", "tru", 8, 0.0, "tru"),
    ("ip-vib7", "ip", "vib", 7, 0.0, "tru"),
    ("pdal-vib5-vib", "pdal", "vib", 5, 0.0, "vib"),
]


def sweep_one(harness, tracing, lorank, run) -> dict:
    name, solver, variant, size, t_lower, profile = run
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    inst = harness.build_instance(variant, size, (), workdir, t_lower=t_lower)
    tracer = tracing.Tracer()
    error = None
    start = time.perf_counter()
    try:
        with tracer.patched():
            pt, report = harness.run_solver(solver, inst.prob, tracer, pdal_profile=profile)
    except lorank.SolverFailure as exc:
        pt, report, error = None, exc.report, str(exc)
    except Exception as exc:
        # the sweep records an undiagnosed failure and goes on to the next run
        solve_s = time.perf_counter() - start
        frames = [f for f in traceback.extract_tb(exc.__traceback__) if not f.filename.endswith("tracing.py")]
        return {
            "run": name, "status": "exception", "solve_s": solve_s,
            "linear_solves": tracer.layer_totals().get("pcg.pcg_solve", {"calls": 0})["calls"],
            "cg_iters": tracer.counts["pcg.iterations"],
            "error": f"{type(exc).__name__}: {exc} (raised in {frames[-1].name}, "
                     f"called from {' <- '.join(f.name for f in reversed(frames[-4:-1]))})",
        }
    solve_s = time.perf_counter() - start
    totals = tracer.layer_totals()
    row = {
        "run": name,
        "n": inst.prob.n,
        "blocks": inst.prob.block_dims,
        "box_rows": inst.prob.nu,
        "status": report.status,
        "outer_iters": report.iterations,
        "linear_solves": totals.get("pcg.pcg_solve", {"calls": 0})["calls"],
        "cg_iters": tracer.counts["pcg.iterations"],
        "solve_s": solve_s,
        "s_per_iter": solve_s / report.iterations if report.iterations else None,
        "setup_s": inst.setup_s,
        "dimacs_max": report.dimacs_max(),
        "volume": -report.dual_objective,
        "error": error,
        "self_s": {layer: t["self_s"] for layer, t in sorted(totals.items())},
    }
    if pt is not None:
        row["compliance_feasible"] = lorank.verify_solution(inst.ground, inst.spec, pt.y)["compliance_feasible"]
    return row


def main(argv=None) -> int:
    pin_threads()
    use_checkout_source()
    import harness
    import lorank
    import tracing

    known = {run[0]: run for run in RUNS + EXTRA_RUNS}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("runs", nargs="*", metavar="RUN",
                   help=f"runs to make (default: the ladder); one of {', '.join(known)}")
    args = p.parse_args(argv)
    unknown = [name for name in args.runs if name not in known]
    if unknown:
        p.error(f"unknown runs: {', '.join(unknown)}")
    chosen = [known[name] for name in args.runs] if args.runs else RUNS

    rows = []
    out = ROOT / ".perfbench" / "ladder.json"
    for run in chosen:
        row = sweep_one(harness, tracing, lorank, run)
        rows.append(row)
        print(f"{row['run']:16s} {row['status']:16s} it {row.get('outer_iters', '-'):>4}  "
              f"linear {row['linear_solves']:5d}  CG {row['cg_iters']:7d}  {row['solve_s']:8.2f} s  "
              f"DIMACS {row.get('dimacs_max', float('nan')):.2e}"
              + (f"  {row['error']}" if row["error"] else ""), flush=True)
        out.write_text(json.dumps({"env": harness.environment(ROOT), "runs": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
