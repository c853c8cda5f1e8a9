"""Command-line driver: instance generation, solving, benchmark sweeps.

Exit codes for ``gen``: 0 when the instance and its sidecar are written,
2 on invalid instance parameters (such as a grid size below 2, a
non-finite number or a nonpositive compliance bound).  For ``solve``: 0
when the DIMACS measures meet the tolerance, 1 when the solver stopped
short, 2 on input errors (including a configuration the solver rejects,
such as a preconditioner kind of the other driver, or ``tilde`` on a
problem past its size limit), 3 on solver failures, whose partial report
is still written like any other, with the failure's message, layer,
iteration, relres and breakdown under ``failure``.  ``bench`` records
per-row failures in the CSV, a refused problem among them, and keeps
going; settings that are rejected end it with exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import _threads  # noqa: F401

from .ip import IP_KINDS, IpConfig, ip_solve
from .model import SdpaParseError, load_sdpa, write_sdpa
from .pdal import PDAL_KINDS, PdalConfig, pdal_solve
from .report import CSV_COLUMNS, DIAG_LIMIT, ConfigError, SolveReport, SolverConfig, SolverFailure, _json_default
from .truss import (
    TrussSdpSpec,
    assemble_sdp,
    gen_ground,
    instance_name,
    load_geometry,
    save_geometry,
    verify_solution,
)

# --solver: the config class and the solve function of each driver
DRIVERS = {"ip": (IpConfig, ip_solve), "pdal": (PdalConfig, pdal_solve)}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SdpaParseError, FileNotFoundError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if args.command == "solve":
            exc.report.instance = args.input.name
            failure = {"message": str(exc), "layer": exc.layer, "iteration": exc.iteration,
                       "relres": exc.relres, "breakdown": exc.breakdown}
            _write_report(args, exc.report, exc.report.to_dict() | {"failure": failure})
        return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorank",
        description="Matrix-free SDP solvers with low-rank preconditioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a truss topology instance")
    gen.add_argument("variant", choices=("tru", "vib"))
    gen.add_argument("size", type=int, help="grid size g (g x g nodes)")
    gen.add_argument("--eps", type=float, default=0.0, help="lower volume bound (e-variant when > 0)")
    gen.add_argument("--gamma", type=float, default=1.0, help="compliance bound")
    gen.add_argument("--t-upper", type=float, default=1e4)
    gen.add_argument("--rho", type=float, default=1.0, help="mass density (vib)")
    gen.add_argument("--m0", type=float, default=1.0, help="nonstructural mass (vib)")
    gen.add_argument("--lambda-bar", type=float, default=None, help="vibration threshold (vib)")
    gen.add_argument("--out", type=Path, default=Path("."), help="output directory")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve an SDPA sparse instance")
    _solver_arguments(solve)
    solve.add_argument("input", type=Path)
    solve.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    solve.add_argument("--verify", action="store_true", help="run the mechanical verifier (needs the geometry sidecar)")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="solve a list of instances into a CSV table")
    _solver_arguments(bench)
    bench.add_argument("inputs", type=Path, nargs="*")
    bench.add_argument("--csv", type=Path, default=None, help="output CSV (default stdout)")
    bench.set_defaults(func=cmd_bench)
    return parser


def _solver_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver", choices=list(DRIVERS), default="ip")
    p.add_argument("--precond", choices=list(dict.fromkeys(IP_KINDS + PDAL_KINDS)), default=None,
                   help=f"ip: {'|'.join(IP_KINDS)} (default {IpConfig.precond}); "
                        f"pdal: {'|'.join(PDAL_KINDS)} (default {PdalConfig.precond})")
    p.add_argument("--rank", type=int, default=1, help="expected dual rank per block")
    p.add_argument("--tol", type=float, default=1e-5, help="DIMACS stopping tolerance")
    p.add_argument("--cg-maxiter", type=int, default=100000)
    p.add_argument("--maxiter", type=int, default=None,
                   help="outer iteration cap (default: 200 ip, 500 pdal)")
    p.add_argument("--diag", action="store_true", help=f"dense diagnostics for n <= {DIAG_LIMIT}")


def cmd_gen(args) -> int:
    spec = TrussSdpSpec(
        gamma_compl=args.gamma,
        t_lower=args.eps,
        t_upper=args.t_upper,
        vibration=args.variant == "vib",
        lambda_bar=args.lambda_bar,
        rho=args.rho,
        m0=args.m0,
    )
    try:
        gs = gen_ground(args.size, args.variant)
        prob = assemble_sdp(gs, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = instance_name(args.variant, args.size, args.eps)
    args.out.mkdir(parents=True, exist_ok=True)
    dat = args.out / f"{name}.dat-s"
    geo = args.out / f"{name}.geom.json"
    write_sdpa(prob, dat, comment=f"{name}: truss topology SDP, n={prob.n}, blocks={prob.block_dims}, lin={prob.nu}")
    save_geometry(gs, spec, geo)
    print(f"wrote {dat} (n={prob.n}, m={prob.block_dims}, lin={prob.nu}) and {geo}")
    return 0


def _sidecar_path(input_path: Path) -> Path:
    stem = input_path.name
    if stem.endswith(".dat-s"):
        stem = stem[: -len(".dat-s")]
    else:
        stem = input_path.stem
    return input_path.parent / f"{stem}.geom.json"


def _config(args) -> SolverConfig:
    """The solver configuration: the flags over the driver's defaults, which
    stand for --maxiter and --precond when they are not given.
    The config classes reject invalid values, such as a preconditioner kind
    of the other driver or a nonpositive tolerance."""
    config_cls = DRIVERS[args.solver][0]
    given = {"max_iter": args.maxiter, "precond": args.precond}
    try:
        return config_cls(
            eps_dimacs=args.tol,
            rank=args.rank,
            cg_maxiter=args.cg_maxiter,
            diag=args.diag,
            **{key: val for key, val in given.items() if val is not None},
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run(args, cfg: SolverConfig, input_path: Path) -> tuple[SolveReport, "object"]:
    pt, report = DRIVERS[args.solver][1](load_sdpa(input_path), cfg)
    report.instance = input_path.name
    return report, pt


def cmd_solve(args) -> int:
    report, pt = _run(args, _config(args), args.input)
    payload = report.to_dict()
    if args.verify:
        side = _sidecar_path(args.input)
        if side.exists():
            gs, spec = load_geometry(side)
            payload["verification"] = verify_solution(gs, spec, pt.y, pt.X.blocks[0])
        else:
            payload["verification"] = {"error": f"no geometry sidecar at {side}"}
    _write_report(args, report, payload)
    return 0 if report.converged else 1


def _write_report(args, report: SolveReport, payload: dict) -> None:
    """The JSON ``payload`` of ``report`` to --out, or to stdout without it."""
    text = json.dumps(payload, indent=2, default=_json_default)
    if args.out is not None:
        args.out.write_text(text + "\n")
        print(f"report written to {args.out} (status={report.status}, dimacs={report.dimacs_max():.3g})")
    else:
        print(text)


def cmd_bench(args) -> int:
    cfg = _config(args)
    rows = [CSV_COLUMNS]
    for path in args.inputs:
        try:
            report, _ = _run(args, cfg, path)
            rows.append(report.csv_row())
        except (SolverFailure, SdpaParseError, FileNotFoundError, ConfigError) as exc:
            row = [str(path.name), args.solver, cfg.precond, f"failed: {exc}"]
            row += [""] * (len(CSV_COLUMNS) - len(row))
            rows.append(row)
    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {args.csv} ({len(rows) - 1} rows)")
    else:
        csv.writer(sys.stdout).writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
