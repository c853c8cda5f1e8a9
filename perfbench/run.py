"""Benchmark of the lorank solvers: one command, one process, one client.

    python3 perfbench/run.py --workload ip-tru7 --seed 0 --seconds 45 --trace 0

Run from the root of a checkout.  Each workload generates its truss instance
with ``gen_ground`` and ``assemble_sdp``, writes it with ``write_sdpa``,
reads it back with ``load_sdpa`` and solves it with ``ip_solve`` or
``pdal_solve``; set-up and solve repeat in a closed loop until the next solve
would end after ``--seconds``; an untraced solve is preceded by four set-ups
and gets the last.  BLAS runs single-threaded
(``LORANK_THREADS=1``, set before numpy loads).  At seed 0 every solve gets
the instance as generated; at seed s > 0 each solve gets a new order of the
variables (bars) and box rows, drawn from s.

solve_s is the median over the run's solves, setup_s over its set-ups; the counts
(outer_iters, linear_solves, cg_iters) are means over its inputs, which at
seed 0 are the exact counts of the generated instance.  Every solve is
checked: status optimal, DIMACS <= 1e-5, truss volume within a relative 1e-4
of the workload's reference, and, on tru instances, the compliance bound
re-checked by ``verify_solution``.  Counts must repeat exactly whenever an
input is solved again: every solve at seed 0, and each traced pair.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced solves and prints the per-layer metrics: the tracer wraps
the public functions of each layer (see ``tracing.py``) and keeps the spans
in memory; they are written to ``.perfbench/spans-<workload>-seed<s>.jsonl``
when the run ends.  The last line of standard output is the JSON result;
the line before it is the environment block.  The full record of the run
goes to ``.perfbench/result-<workload>-seed<s>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """Single-threaded BLAS through the library's own LORANK_THREADS cap.

    Explicit BLAS variables would take precedence over the cap, so they are
    dropped; numpy must not be loaded yet."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before the thread cap was set")
    os.environ["LORANK_THREADS"] = "1"
    for var in BLAS_VARS:
        os.environ.pop(var, None)


def use_checkout_source() -> None:
    """Import lorank from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "lorank" / "__init__.py").is_file():
        raise SystemExit(f"error: no lorank package under {src}")
    sys.path.insert(0, str(src))
    import lorank

    if Path(lorank.__file__).resolve().parent != (src / "lorank").resolve():
        raise SystemExit(f"error: lorank imported from {lorank.__file__}, not from {src}")


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    pin_threads()
    use_checkout_source()
    import harness

    args = parse_args(argv, list(harness.WORKLOADS))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, names in (("workloads", list(harness.WORKLOADS)),
                           ("end_to_end", [n for n, _ in harness.END_TO_END]),
                           ("per_layer", [n for n, _ in harness.PER_LAYER])):
        if [entry["name"] for entry in declared[section]] != names:
            raise SystemExit(f"error: the {section} names in BENCHMARK.json differ from the harness's")

    env = harness.environment(ROOT)
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    result["env"] = env
    out = ROOT / ".perfbench" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))

    for rec in result["records"]:
        for problem in rec["problems"]:
            print(f"FAILED solve: {problem}")
    for key, counts in result["count_mismatches"].items():
        print(f"DETERMINISM MISMATCH on input {key}: (outer, linear solves, CG) differ across solves: {counts}")
    tail = result["solve_s_tail"]
    print(f"{args.workload} seed {args.seed}: {result['attempted']} solves, "
          f"{result['solve_s_samples']} untraced"
          + (f", p{tail[0]} solve {tail[1]:.4f} s" if tail else ""))
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"env": env}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
