import argparse
import csv
import json
import re
from pathlib import Path

import numpy
import pytest
import scipy

from lorank import ip as ip_module
from lorank.cli import build_parser, main
from lorank.linalg import NotPositiveDefinite
from lorank.model import load_sdpa

TOY = """\
* min x subject to x >= 1
1
1
1
1.0
0 1 1 1 1.0
1 1 1 1 1.0
"""


@pytest.fixture()
def toy_file(tmp_path):
    path = tmp_path / "toy.dat-s"
    path.write_text(TOY)
    return path


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("instances")
    assert main(["gen", "tru", "3", "--out", str(out)]) == 0
    assert main(["gen", "tru", "3", "--eps", "1e-4", "--out", str(out)]) == 0
    assert main(["gen", "vib", "3", "--out", str(out)]) == 0
    return out


class TestGen:
    def test_files_written(self, gen_dir):
        assert (gen_dir / "tru3.dat-s").exists()
        assert (gen_dir / "tru3.geom.json").exists()
        assert (gen_dir / "tru3e.dat-s").exists()
        assert (gen_dir / "vib3.dat-s").exists()

    def test_generated_dimensions(self, gen_dir):
        prob = load_sdpa(gen_dir / "tru3.dat-s")
        assert prob.n == 36
        assert prob.block_dims == [13]
        assert prob.nu == 72

    def test_vib_two_blocks(self, gen_dir):
        prob = load_sdpa(gen_dir / "vib3.dat-s")
        assert prob.block_dims == [13, 12]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["tru", "1"], "grid size"),
            (["tru", "3", "--gamma", "-1"], "compliance bound"),
            (["vib", "3", "--rho", "-1", "--lambda-bar", "0.5"], "rho must be positive"),
            (["vib", "3", "--rho", "0"], "rho must be positive"),
            (["vib", "3", "--m0", "-5"], "m0 must be nonnegative"),
            (["vib", "3", "--lambda-bar", "inf"], "lambda_bar must be finite"),
            (["tru", "3", "--gamma", "nan"], "gamma_compl must be finite"),
            (["tru", "3", "--gamma", "inf"], "gamma_compl must be finite"),
            (["tru", "3", "--t-upper", "inf"], "t_upper must be finite"),
        ],
    )
    def test_invalid_parameters_exit_code(self, tmp_path, capsys, argv, message):
        rc = main(["gen", *argv, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_e_variant_bounds(self, gen_dir):
        prob = load_sdpa(gen_dir / "tru3e.dat-s")
        # lower-bound rows carry -t <= -1e-4
        assert prob.d.min() == pytest.approx(-1e-4)


class TestSolve:
    def test_toy_json_report(self, toy_file, capsys):
        rc = main(["solve", str(toy_file), "--solver", "ip", "--tol", "1e-7"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["schema"] == 2
        assert payload["status"] == "optimal"
        assert payload["sdpa_objective"] == pytest.approx(1.0, abs=1e-5)
        assert payload["dimacs_max"] <= 1e-7

    def test_tru3_hybrid(self, gen_dir, capsys):
        """The deleted hybrid kind is no longer a --precond choice."""
        with pytest.raises(SystemExit) as info:
            main(["solve", str(gen_dir / "tru3.dat-s"), "--solver", "ip", "--precond", "hybrid"])
        assert info.value.code == 2
        assert "hybrid" in capsys.readouterr().err

    def test_pdal_profile_autodetect(self, gen_dir, capsys):
        rc = main(["solve", str(gen_dir / "vib3.dat-s"), "--solver", "pdal"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["solver"] == "pdal"
        assert payload["status"] == "optimal"

    def test_pdal_default_profile_solves_vib5(self, tmp_path, capsys):
        """PDAL's one parameter set solves vib5 in 46 outer iterations (the
        deleted ``vib`` profile ended ``max_iterations`` after 500)."""
        assert main(["gen", "vib", "5", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["solve", str(tmp_path / "vib5.dat-s"), "--solver", "pdal", "--maxiter", "60"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["status"] == "optimal"

    def test_pdal_profile_option_is_gone(self, gen_dir, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", str(gen_dir / "vib3.dat-s"), "--solver", "pdal", "--pdal-profile", "vib"])
        assert info.value.code == 2
        assert "--pdal-profile" in capsys.readouterr().err

    def test_out_file_and_verify(self, gen_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "solve",
                str(gen_dir / "tru3.dat-s"),
                "--solver",
                "ip",
                "--verify",
                "--out",
                str(report_path),
            ]
        )
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert payload["verification"]["compliance_feasible"]
        assert "written" in capsys.readouterr().out

    def test_nonconverged_exit_code(self, gen_dir, capsys):
        rc = main(["solve", str(gen_dir / "tru3.dat-s"), "--maxiter", "2"])
        capsys.readouterr()
        assert rc == 1

    def test_stalled_exit_code(self, gen_dir, tmp_path, capsys, monkeypatch):
        """A stalled IP run exits 1 like a capped one and keeps its report."""
        monkeypatch.setattr(ip_module, "step_with_repair", lambda *args: (1e-6, 0))
        report_path = tmp_path / "r.json"
        rc = main(["solve", str(gen_dir / "tru3.dat-s"), "--out", str(report_path)])
        capsys.readouterr()
        assert rc == 1
        payload = json.loads(report_path.read_text())
        assert payload["status"] == "stalled" and payload["iterations"] == 5

    def test_failure_message_in_the_report(self, gen_dir, tmp_path, capsys, monkeypatch):
        """A failed solve writes the failure into its report under
        ``failure``: the message and, as fields, the layer and the
        iteration; relres and breakdown are null when no CG solve failed."""

        def exhausted(*args):
            raise NotPositiveDefinite(0, "step repair exhausted")

        monkeypatch.setattr(ip_module, "step_with_repair", exhausted)
        report_path = tmp_path / "r.json"
        rc = main(["solve", str(gen_dir / "tru3.dat-s"), "--out", str(report_path)])
        assert rc == 3
        assert "solver failure: step repair failed at iteration 0" in capsys.readouterr().err
        payload = json.loads(report_path.read_text())
        assert payload["status"] == "factorization_failure"
        assert payload["failure"] == {
            "message": "step repair failed at iteration 0",
            "layer": "step repair",
            "iteration": 0,
            "relres": None,
            "breakdown": None,
        }

    def test_report_records_the_thread_environment(self, gen_dir, tmp_path, capsys, monkeypatch):
        """The report's ``env`` block holds the thread variables as the run
        saw them (None when unset) and the numpy and scipy versions."""
        monkeypatch.setenv("LORANK_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        report_path = tmp_path / "r.json"
        assert main(["solve", str(gen_dir / "tru3.dat-s"), "--out", str(report_path)]) == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        env = payload["env"]
        assert env["LORANK_THREADS"] == "1" and env["OMP_NUM_THREADS"] == "1"
        assert env["MKL_NUM_THREADS"] is None and "OPENBLAS_NUM_THREADS" in env
        assert env["numpy"] == numpy.__version__ and env["scipy"] == scipy.__version__
        assert payload["schema"] == 2 and "failure" not in payload

    @pytest.mark.parametrize("out", [True, False])
    def test_solver_failure_keeps_its_report(self, gen_dir, tmp_path, capsys, out):
        """A CG failure exits 3 and still writes the partial report, to
        --out or else to stdout."""
        report_path = tmp_path / "r.json"
        argv = ["solve", str(gen_dir / "tru3.dat-s"), "--cg-maxiter", "1"]
        rc = main(argv + (["--out", str(report_path)] if out else []))
        captured = capsys.readouterr()
        assert rc == 3
        assert "solver failure" in captured.err
        payload = json.loads(report_path.read_text() if out else captured.out)
        assert payload["status"] == "cg_failure"
        assert payload["instance"] == "tru3.dat-s"
        failure = payload["failure"]
        assert (failure["layer"], failure["iteration"], failure["breakdown"]) == ("predictor", 0, False)
        assert failure["message"] == f"predictor CG failed at iteration 0 (breakdown=False, relres={failure['relres']:.2e})"

    @pytest.mark.parametrize("flag", ["--cg-tol0", "--csv-append", "--cg-floor"])
    def test_deleted_options_are_rejected(self, gen_dir, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main(["solve", str(gen_dir / "tru3.dat-s"), flag, "1e-3"])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_cg_floor_defaults_to_the_drivers(self, gen_dir):
        """The CG tolerance floor is fixed per driver; no flag sets it."""
        from lorank.cli import _config

        path = str(gen_dir / "tru3.dat-s")
        parse = build_parser().parse_args
        assert _config(parse(["solve", path])).CG_FLOOR == 1e-8
        assert _config(parse(["solve", path, "--solver", "pdal"])).CG_FLOOR == 1e-6

    def test_rank_auto_exit_code(self, gen_dir, capsys):
        """``--rank`` takes an int only."""
        with pytest.raises(SystemExit) as info:
            main(["solve", str(gen_dir / "tru3.dat-s"), "--rank", "auto"])
        assert info.value.code == 2
        assert "--rank" in capsys.readouterr().err

    @pytest.mark.parametrize("command, n_inputs", [("solve", 1), ("bench", 1), ("bench", 0)])
    @pytest.mark.parametrize("option", [["--maxiter", "-1"], ["--cg-maxiter", "0"], ["--tol", "0"]])
    def test_out_of_range_setting_exit_code(self, gen_dir, capsys, command, n_inputs, option):
        """A setting out of range is rejected before the solve starts, by
        ``bench`` also when it has no instance to solve."""
        rc = main([command, *[str(gen_dir / "tru3.dat-s")] * n_inputs, *option])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_pdal_tight_tolerance_ends_numerical_limit(self, gen_dir, tmp_path, capsys):
        """PDAL below the standard level: DIMACS stops at 8.2e-7 on tru3, and
        the run ends numerical_limit (exit 1) once an outer iteration would
        repeat itself, not optimal above the tolerance or at the cap."""
        report_path = tmp_path / "r.json"
        rc = main(["solve", str(gen_dir / "tru3.dat-s"), "--solver", "pdal", "--tol", "1e-7",
                   "--out", str(report_path)])
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert rc == 1
        assert payload["status"] == "numerical_limit"
        assert 1e-7 < payload["dimacs_max"] <= 1e-5
        assert payload["iterations"] < 60

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat-s"
        bad.write_text("1\n1\n1\n1.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n1 1 1 1 2.0\n")
        rc = main(["solve", str(bad)])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("old, new", [("1.0\n0 1", "nan\n0 1"), ("1 1 1 1 1.0", "1 1 1 1 inf")])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, old, new):
        bad = tmp_path / "non-finite.dat-s"
        bad.write_text(TOY.replace(old, new))
        rc = main(["solve", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: line ") and "non-finite" in err and "Traceback" not in err

    def test_block_without_constraint_entry_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "empty-block.dat-s"
        bad.write_text("1\n2\n1 -1\n1.0\n0 1 1 1 1.0\n1 2 1 1 1.0\n")
        rc = main(["solve", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "no structurally nonzero" in err

    def test_diagonal_block_only_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "lp.dat-s"
        bad.write_text("1\n1\n-2\n1.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n1 1 2 2 1.0\n")
        rc = main(["solve", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: no matrix block") and "Traceback" not in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path / "nope.dat-s")])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize(
        "solver, kind, kinds",
        [("pdal", "alpha", "gamma|delta|beta|none"), ("ip", "gamma", "alpha|beta|cluster|tilde|none")],
    )
    def test_other_driver_kind_exit_code(self, gen_dir, capsys, solver, kind, kinds):
        rc = main(["solve", str(gen_dir / "tru3.dat-s"), "--solver", solver, "--precond", kind])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and kinds in err and "Traceback" not in err


class TestBench:
    def test_empty_header_only(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--csv", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert len(rows) == 1
        assert rows[0][0] == "instance"

    def test_rows_and_failure_recorded(self, gen_dir, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "bench",
                str(gen_dir / "tru3.dat-s"),
                str(gen_dir / "missing.dat-s"),
                "--csv",
                str(out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert len(rows) == 3
        assert rows[1][0] == "tru3.dat-s"
        assert rows[2][3].startswith("failed")

    @pytest.mark.parametrize("solver, args, kind", [("ip", [], "cluster"), ("pdal", [], "gamma"),
                                                   ("ip", ["--precond", "beta"], "beta")])
    def test_failed_row_names_the_preconditioner(self, gen_dir, tmp_path, capsys, solver, args, kind):
        out = tmp_path / "bench.csv"
        rc = main(["bench", str(gen_dir / "missing.dat-s"), "--solver", solver, *args, "--csv", str(out)])
        capsys.readouterr()
        assert rc == 0
        header, row = list(csv.reader(out.open()))
        assert row[header.index("precond")] == kind
        assert row[3].startswith("failed")

    @pytest.mark.parametrize(
        "solver, kind, kinds",
        [("pdal", "alpha", "gamma|delta|beta|none"), ("ip", "gamma", "alpha|beta|cluster|tilde|none")],
    )
    def test_other_driver_kind_exit_code(self, gen_dir, tmp_path, capsys, solver, kind, kinds):
        out = tmp_path / "bench.csv"
        rc = main(
            ["bench", str(gen_dir / "tru3.dat-s"), "--solver", solver, "--precond", kind,
             "--csv", str(out)]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and kinds in err and "Traceback" not in err
        assert not out.exists()

    def test_determinism(self, gen_dir, tmp_path, capsys):
        """Identical config and input give bitwise-identical numeric fields."""
        rows = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(
                ["bench", str(gen_dir / "tru3.dat-s"), "--csv", str(out)]
            )
            capsys.readouterr()
            assert rc == 0
            table = list(csv.reader(out.open()))
            # drop the wall-clock columns, everything else must match exactly
            rows.append([c for i, c in enumerate(table[1]) if i not in (6, 7)])
        assert rows[0] == rows[1]


class TestDocs:
    def test_readme_command_line_matches_the_parser(self):
        """Every flag that gen, solve and bench accept is written in README's
        "Command line" section, and every flag written there is accepted."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        written = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {
            flag
            for command in ("gen", "solve", "bench")
            for action in sub.choices[command]._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        assert sorted(accepted - written) == []
        assert sorted(written - accepted) == []
