"""Tests of the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph.library import build_pcr
from repro.graph.serialization import save_graph


class TestParser:
    def test_requires_an_input_source(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_assay_and_protocol_are_exclusive(self, tmp_path):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--assay", "PCR", "--protocol", str(tmp_path / "x.json")])

    def test_defaults(self):
        args = build_parser().parse_args(["--assay", "PCR"])
        assert args.mixers == 2
        assert args.grid == (4, 4)
        assert args.scheduler == "auto"


class TestMain:
    def test_builtin_assay_run(self, capsys):
        exit_code = main(["--assay", "PCR", "--mixers", "2", "--scheduler", "list"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Synthesis report: PCR" in output
        assert "execution time" in output

    def test_protocol_file_run_with_svg_and_table(self, tmp_path, capsys):
        protocol = tmp_path / "pcr.json"
        save_graph(build_pcr(mix_time=80), protocol)
        svg = tmp_path / "chip.svg"
        exit_code = main([
            "--protocol", str(protocol),
            "--mixers", "2",
            "--scheduler", "list",
            "--svg", str(svg),
            "--schedule-table",
        ])
        assert exit_code == 0
        assert svg.exists()
        output = capsys.readouterr().out
        assert "schedule (operation, device, start, end):" in output

    def test_missing_protocol_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--protocol", str(tmp_path / "missing.json")])

    def test_execution_time_only_flag(self, capsys):
        exit_code = main(["--assay", "PCR", "--scheduler", "list", "--no-storage-objective"])
        assert exit_code == 0

    def test_infeasible_configuration_returns_error_code(self, capsys):
        # IVD needs detectors; without any the scheduler cannot bind the
        # detection operations and the CLI reports failure.
        exit_code = main(["--assay", "IVD", "--mixers", "2", "--scheduler", "list"])
        assert exit_code == 1
        assert "synthesis failed" in capsys.readouterr().err


class TestSimulate:
    def test_fault_free_run_reports_the_exact_distribution(self, capsys):
        exit_code = main([
            "simulate", "--assay", "PCR", "--scheduler", "list",
            "--mixers", "2", "--trials", "4", "--seed", "9",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "verification of PCR: 4 trial(s), seed 9" in output
        assert "recovery rate 1.0" in output
        # Fault-free: every percentile equals the deterministic makespan.
        deterministic = next(
            line for line in output.splitlines()
            if "deterministic makespan:" in line
        ).split(":")[1].strip()
        assert f"makespan p50/p95/p99: {deterministic}/{deterministic}/{deterministic}" in output

    def test_json_payload_shape(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        exit_code = main([
            "simulate", "--assay", "PCR", "--scheduler", "list",
            "--mixers", "2", "--trials", "4", "--jitter", "uniform",
            "--fault-rate", "0.3", "--json", str(out),
        ])
        assert exit_code == 0
        import json as json_module

        payload = json_module.loads(out.read_text())
        assert payload["trials"] == 4
        assert payload["makespan_p50"] <= payload["makespan_p99"]
        assert payload["simulation_problems"] == []

    def test_requires_an_input_source(self):
        with pytest.raises(SystemExit):
            main(["simulate"])

    def test_infeasible_configuration_returns_error_code(self, capsys):
        exit_code = main([
            "simulate", "--assay", "IVD", "--detectors", "0",
            "--scheduler", "list",
        ])
        assert exit_code == 1
        assert "simulation failed" in capsys.readouterr().err


class TestSolverOverride:
    def test_single_synthesis_accepts_solver_flag(self, capsys):
        exit_code = main([
            "--assay", "PCR", "--scheduler", "list", "--solver", "branch-and-bound",
        ])
        assert exit_code == 0
        # Solver-free run (list + heuristic): no backend line in the report.
        assert "solver backends:" not in capsys.readouterr().out

    def test_single_synthesis_reports_winning_backend(self, capsys):
        exit_code = main(["--assay", "PCR", "--time-limit", "20"])
        assert exit_code == 0
        out = capsys.readouterr().out
        # Default config: auto scheduler picks the exact ILP for PCR, the
        # portfolio solves it, and the report names the winner.
        assert "solver backends: schedule=" in out

    def test_batch_solver_override_changes_job_configs(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "jobs": [{"assay": "PCR", "config": {"ilp_operation_limit": 0}}],
        }))
        json_out = tmp_path / "report.json"
        exit_code = main(["batch", str(manifest), "--solver", "branch-and-bound",
                          "--json", str(json_out)])
        assert exit_code == 0
        payload = json.loads(json_out.read_text())
        stages = payload["jobs"][0]["stages"]
        assert {row["stage"] for row in stages} == {"schedule", "archsyn", "physical"}
        # Solver-free jobs still carry the per-stage backend fields (null).
        assert all("backend" in row and "fallback_used" in row for row in stages)

    def test_unknown_solver_is_an_argparse_error(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"jobs": [{"assay": "PCR"}]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", str(manifest), "--solver", "gurobi"])
        assert excinfo.value.code == 2
