"""Workloads, instance set-up, per-solve checks and metrics of the benchmark.

Imported only after ``run.pin_threads`` has set the thread environment and
put the checkout's ``src`` on ``sys.path``: importing this module loads numpy.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

import lorank
from lorank.pdal import pdal_config_profile
from lorank.truss import instance_name

from tracing import DRIVER_LAYERS, SETUP_LAYERS, SOLVE_LAYERS, Tracer

DIMACS_TOL = 1e-5
# Relative tolerance on the truss volume (-b'y).  A solve stopped at DIMACS
# 1e-5 may leave a normalized gap of 1e-5 over 1 + |pobj| + |dobj|, about
# 2e-5 of the volume; a wrong optimum is off by far more.
OBJECTIVE_RTOL = 1e-4


@dataclass(frozen=True)
class Workload:
    solver: str           # "ip" or "pdal"
    variant: str          # truss family: "tru" or "vib"
    size: int             # ground-structure grid size g
    reference: float      # optimal truss volume at any seed

    @property
    def instance(self) -> str:
        return f"{self.variant}{self.size}"


# Why each workload was chosen is stated in BENCHMARK.json.  PDAL on tru7 is
# not among them: one solve takes 12-18 s on a 2-core machine and its CG total
# moves over 12033-18474 with the variable order, so one or two solves per run
# cannot give a steady median.  ladder.py solves it, traced.
WORKLOADS = {
    "ip-tru7": Workload("ip", "tru", 7, 216.5102),
    "pdal-vib5": Workload("pdal", "vib", 5, 16.0065),
}

END_TO_END = [
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("outer_iters", "count"),
    ("linear_solves", "count"),
    ("cg_iters", "count"),
    ("peak_rss_mb", "MiB"),
    ("solved_frac", "ratio"),
]

# (name, unit) of every per-layer metric, the same list on every workload.
PER_LAYER = (
    [(f"{layer}.{key}", unit) for layer in SETUP_LAYERS
     for key, unit in (("s", "s"), ("calls", "count"), ("self_s", "s"))]
    + [(f"{layer}.{key}", unit) for layer in SOLVE_LAYERS
       for key, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("pcg.iters_per_solve", "count"),
        ("pcg.stagnations_accepted", "count"),
        ("precond.smw_cols", "count"),
        ("precond.fallbacks", "count"),
        ("precond.low_rank_factor.kron_mb", "MiB_computed"),
        ("pdal.ls_trials_per_step", "ratio"),
        ("pdal.inner_cap_hits", "count"),
        ("pdal.early_stops", "count"),
        ("pdal.ls_failures", "count"),
        ("trace.coverage", "ratio"),
        ("trace.solve_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)
# Least share of a traced solve's wall time the wrapped layers (the drivers'
# own remainders left out) must account for.  Both workloads run well above
# it; a layer called through a path the wrappers do not patch drops its time
# into the driver remainder and the share below it.
COVERAGE_MIN = 0.85
# Set-ups per untraced solve.  One set-up is 0.1-0.2 s and the machine's speed
# wanders by tens of percent within seconds, so setup_s is the median of many
# set-ups spread over the run; the solve gets the last one.
SETUP_REPS = 4


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def input_key(seed: int, index: int) -> tuple[int, ...]:
    """Input ``index`` of a run: at seed 0 always the instance as generated,
    at seed s > 0 a variable order drawn from (s, index).

    The order changes the rounding and with it the iteration counts (the IP
    CG total on tru7 ranges over 866-1301 across orders), so a run at s > 0
    solves a new order each time and its counts are means over them."""
    return () if seed == 0 else (seed, index)


def permute(prob: lorank.SdpProblem, key: tuple[int, ...]):
    """Reorder the variables (bars) and the box rows by a permutation drawn
    from ``key``; the empty key keeps the order.  The optimum is unchanged.
    Returns the problem and the variable permutation: variable j of the
    result is variable perm[j] of the input."""
    if not key:
        return prob, np.arange(prob.n)
    rng = np.random.default_rng(key)
    perm = rng.permutation(prob.n)
    rows = rng.permutation(prob.nu)
    a_ops = [sp.csr_matrix(a[:, perm]) for a in prob.A]
    d_mat = sp.csr_matrix(prob.D[rows][:, perm])
    out = lorank.SdpProblem(list(prob.block_dims), a_ops, list(prob.C), prob.b[perm], d_mat, prob.d[rows])
    out.validate()
    return out, perm


@dataclass
class Instance:
    ground: lorank.GroundStructure
    spec: lorank.TrussSdpSpec
    prob: lorank.SdpProblem
    perm: np.ndarray
    stage_s: dict[str, float]

    @property
    def setup_s(self) -> float:
        return sum(self.stage_s.values())


def build_instance(variant: str, size: int, key: tuple[int, ...], workdir: Path,
                   tracer: Tracer | None = None, t_lower: float = 0.0) -> Instance:
    """gen_ground + assemble_sdp + write_sdpa + load_sdpa, each timed; the
    permutation between assembly and writing is not timed."""
    stage_s: dict[str, float] = {}

    def stage(layer, fn, *args):
        if tracer is not None:
            fn = tracer.wrap(fn, layer)
        start = time.perf_counter()
        out = fn(*args)
        stage_s[layer] = time.perf_counter() - start
        return out

    ground = stage("truss.gen_ground", lorank.gen_ground, size, variant)
    spec = lorank.TrussSdpSpec(t_lower=t_lower, vibration=variant == "vib")
    prob = stage("truss.assemble_sdp", lorank.assemble_sdp, ground, spec)
    prob, perm = permute(prob, key)
    path = workdir / f"{instance_name(variant, size, t_lower)}.dat-s"
    stage("model.write_sdpa", lorank.write_sdpa, prob, path)
    loaded = stage("model.load_sdpa", lorank.load_sdpa, path)
    return Instance(ground, spec, loaded, perm, stage_s)


def run_solver(solver: str, prob, tracer: Tracer | None = None, pdal_profile: str = "tru"):
    """Solve through the public driver; returns (point, report)."""
    if solver == "ip":
        fn, layer, cfg = lorank.ip_solve, "ip.ip_solve", lorank.IpConfig()
    else:
        fn, layer, cfg = lorank.pdal_solve, "pdal.pdal_solve", pdal_config_profile(pdal_profile)
    if tracer is not None:
        fn = tracer.wrap(fn, layer)
    return fn(prob, cfg)


def linear_solves(report) -> int:
    """pcg_solve calls, from the report: two per IP iteration, and one per
    PDAL Newton step (the inner iteration counts)."""
    if report.solver == "ip":
        return 2 * report.iterations
    return sum(int(row["inner_iterations"]) for row in report.trace)


def check_solve(wl: Workload, inst: Instance, pt, report) -> list[str]:
    """Reasons the solve counts as failed (empty when it passed)."""
    problems = []
    if report.status != "optimal":
        problems.append(f"status {report.status}")
    if not report.dimacs_max() <= DIMACS_TOL:
        problems.append(f"DIMACS max {report.dimacs_max():.3e} > {DIMACS_TOL:g}")
    volume = -report.dual_objective
    if not abs(volume - wl.reference) <= OBJECTIVE_RTOL * abs(wl.reference):
        problems.append(f"volume {volume:.10g} differs from reference {wl.reference} by more than rtol {OBJECTIVE_RTOL:g}")
    if wl.variant == "tru":
        t = np.empty_like(pt.y)
        t[inst.perm] = pt.y
        if not lorank.verify_solution(inst.ground, inst.spec, t)["compliance_feasible"]:
            problems.append("verify_solution: compliance bound violated")
    return problems


# ---------------------------------------------------------------------------
# Environment block
# ---------------------------------------------------------------------------


def _git_commit(root: Path) -> str:
    """HEAD of the repository at ``root``; "unknown" when ``root`` is not the
    top of a git work tree or git cannot run."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(out) != 2 or Path(out[0]).resolve() != root.resolve():
        return "unknown"
    return out[1]


def _openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def environment(root: Path) -> dict:
    src = root / "src" / "lorank"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "LORANK_THREADS": os.environ.get("LORANK_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(),
        "git_commit": _git_commit(root),
        "src_lorank_lines": lines,
    }


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def _tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return int(100 * (n - 10) // n), ordered[n - 11]


def _layer_metrics(tracer: Tracer, first: int, report, solve_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced set-up and solve (spans from ``first``)."""
    totals = tracer.layer_totals(first)
    out: dict[str, float] = {}
    for layer in SETUP_LAYERS:
        row = totals.get(layer, {"calls": 0, "self_s": 0.0, "s": 0.0})
        out[f"{layer}.s"] = row["s"]
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_s"] = row["self_s"]
    for layer in SOLVE_LAYERS:
        row = totals.get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_s"] = row["self_s"]
    counts = tracer.counts
    pcg_calls = out["pcg.pcg_solve.calls"]
    out["pcg.iters_per_solve"] = counts["pcg.iterations"] / pcg_calls if pcg_calls else 0.0
    out["pcg.stagnations_accepted"] = counts["pcg.stagnations_accepted"]
    builds = counts["precond.builds"]
    out["precond.smw_cols"] = counts["precond.smw_cols"] / builds if builds else 0.0
    out["precond.fallbacks"] = counts["precond.fallbacks"]
    out["precond.low_rank_factor.kron_mb"] = tracer.kron_mb
    # every inner solve evaluates its starting point once; its other
    # evaluate_point calls are line-search trials, one search per Newton step
    spans = tracer.spans
    inner_evals = sum(1 for layer, _, _, parent, _ in spans[first:]
                      if layer == "pdal.evaluate_point" and parent >= first
                      and spans[parent][0] == "pdal.inner_solve")
    trials = inner_evals - out["pdal.inner_solve.calls"]
    pdal_steps = pcg_calls if report.solver == "pdal" else 0
    out["pdal.ls_trials_per_step"] = trials / pdal_steps if pdal_steps else 0.0
    for key in ("pdal.inner_cap_hits", "pdal.early_stops", "pdal.ls_failures"):
        out[key] = counts[key]
    # share of the solve spent inside the wrapped layers, the driver's own
    # remainder left out: a layer the wrappers stop seeing lowers it
    driver_self = sum(out[f"{layer}.self_s"] for layer in DRIVER_LAYERS)
    out["trace.coverage"] = 1.0 - driver_self / solve_wall
    out["trace.solve_s"] = solve_wall
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Closed loop, one client: set up and solve input after input until the
    next solve would end past ``seconds``; at least one solve.  Traced, each
    input is solved untraced and then traced, and at least one such pair
    completes; the pair also checks that tracing leaves the counts alone."""
    wl = WORKLOADS[name]
    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    modes = (False, True) if trace else (False,)

    # warm-up on the smallest instance of the family: lazy imports and first
    # allocations are paid before timing
    warm = build_instance(wl.variant, 3, (), workdir)
    run_solver(wl.solver, warm.prob)

    records: list[dict] = []
    layer_rows: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        key = input_key(seed, len(records) // len(modes))
        traced = modes[len(records) % len(modes)]
        t_iter = time.perf_counter()
        first = len(tracer.spans) if traced else 0
        if traced:
            tracer.reset_counters()
        if traced:
            setups = [build_instance(wl.variant, wl.size, key, workdir, tracer)]
        else:
            setups = [build_instance(wl.variant, wl.size, key, workdir) for _ in range(SETUP_REPS)]
        inst = setups[-1]
        t_solve = time.perf_counter()
        try:
            if traced:
                with tracer.patched():
                    pt, report = run_solver(wl.solver, inst.prob, tracer)
            else:
                pt, report = run_solver(wl.solver, inst.prob)
            failure = None
        except lorank.SolverFailure as exc:
            pt, report, failure = None, exc.report, str(exc)
        solve_s = time.perf_counter() - t_solve
        problems = [f"SolverFailure: {failure}"] if failure else check_solve(wl, inst, pt, report)
        rec = {
            "input": list(key),
            "traced": traced,
            "setup_s": [i.setup_s for i in setups],
            "stage_s": inst.stage_s,
            "solve_s": solve_s,
            "status": report.status,
            "outer_iters": report.iterations,
            "linear_solves": linear_solves(report),
            "cg_iters": report.cg_total,
            "dimacs_max": report.dimacs_max(),
            "volume": -report.dual_objective,
            "problems": problems,
        }
        if traced:
            row = _layer_metrics(tracer, first, report, solve_s)
            layer_rows.append(row)
            # the trace must see what the report says
            if row["pcg.pcg_solve.calls"] != rec["linear_solves"]:
                problems.append(f"traced pcg_solve calls {row['pcg.pcg_solve.calls']} != linear_solves {rec['linear_solves']}")
            if tracer.counts["pcg.iterations"] != rec["cg_iters"]:
                problems.append(f"traced CG iterations {tracer.counts['pcg.iterations']} != cg_iters {rec['cg_iters']}")
            if row["trace.coverage"] < COVERAGE_MIN:
                problems.append(f"wrapped layers cover only {row['trace.coverage']:.3f} of the solve wall time")
        records.append(rec)
        last = time.perf_counter() - t_iter
        if len(records) >= len(modes) and time.perf_counter() - start + last > seconds:
            break

    if tracer is not None:
        with open(workdir / f"spans-{name}-seed{seed}.jsonl", "w") as fh:
            for layer, s0, s1, parent, _ in tracer.spans:
                fh.write(json.dumps({"name": layer, "start": s0, "end": s1, "parent": parent}) + "\n")

    return summarize(name, wl, records, layer_rows, trace)


def summarize(name: str, wl: Workload, records: list[dict], layer_rows: list[dict], trace: bool) -> dict:
    """Metrics of one run: solve_s is the median over the untraced solves,
    setup_s over all their set-ups, the counts means over the inputs."""
    by_input: dict[tuple, list[dict]] = {}
    for r in records:
        by_input.setdefault(tuple(r["input"]), []).append(r)
    mismatched = {
        key: sorted({(r["outer_iters"], r["linear_solves"], r["cg_iters"]) for r in recs})
        for key, recs in by_input.items()
    }
    mismatched = {key: counts for key, counts in mismatched.items() if len(counts) > 1}
    failed = sum(1 for r in records if r["problems"])
    untraced = [r for r in records if not r["traced"]]
    solve_s = statistics.median(r["solve_s"] for r in untraced)
    metrics: dict[str, dict] = {}
    if trace:
        for key, unit in PER_LAYER:
            if key == "trace.overhead_frac":
                value = statistics.median(row["trace.solve_s"] for row in layer_rows) / solve_s - 1.0
            else:
                value = statistics.median(row[key] for row in layer_rows)
            metrics[key] = {"value": value, "unit": unit}
    else:
        values = {
            "solve_s": solve_s,
            "setup_s": statistics.median(t for r in records for t in r["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solved_frac": (len(records) - failed) / len(records),
        }
        for count in ("outer_iters", "linear_solves", "cg_iters"):
            values[count] = statistics.fmean(recs[0][count] for recs in by_input.values())
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    return {
        "workload": name,
        "solver": wl.solver,
        "instance": wl.instance,
        "inputs": [list(key) for key in by_input],
        "count_mismatches": {str(list(key)): counts for key, counts in mismatched.items()},
        "solve_s_samples": len(untraced),
        "solve_s_tail": _tail([r["solve_s"] for r in untraced]),
        "records": records,
        "correct": failed == 0 and not mismatched,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
