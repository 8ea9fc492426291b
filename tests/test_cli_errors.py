"""Error-path tests of the ``repro`` CLI subcommands.

Every failure mode is asserted through the *process contract* — the return
code and the stderr text captured via ``capsys`` — not by reaching into
implementation exceptions, because exit codes are what CI scripts and the
service smoke jobs consume.  The exit-code conventions (documented in
``docs/cli.md``):

* ``0`` — success;
* ``1`` — the work itself failed (synthesis error, failed batch jobs);
* ``2`` — the input was unusable (malformed manifest/sweep, no jobs), and
  ``argparse`` errors such as a missing spec file.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


class TestBatchManifestErrors:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "broken.json"
        spec.write_text('{"jobs": [')
        assert main(["batch", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "invalid manifest" in err

    def test_missing_manifest_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", str(tmp_path / "nope.json")])
        assert exit_info.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "m.json", {"default": {}, "jobs": [{"assay": "PCR"}]})
        assert main(["batch", spec]) == 2
        assert "unknown top-level keys" in capsys.readouterr().err

    def test_unknown_job_key_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "m.json", {"jobs": [{"assay": "PCR", "mixer": 3}]})
        assert main(["batch", spec]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "m.json", {"jobs": [{"assay": "PCR", "config": {"mixers": 3}}]}
        )
        assert main(["batch", spec]) == 2
        assert "unknown flow-config keys" in capsys.readouterr().err

    def test_duplicate_explicit_job_ids_exit_2(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "m.json",
            {"jobs": [{"assay": "PCR", "id": "x"}, {"assay": "IVD", "id": "x"}]},
        )
        assert main(["batch", spec]) == 2
        assert "duplicate job id" in capsys.readouterr().err

    def test_empty_manifest_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "m.json", {"jobs": []})
        assert main(["batch", spec]) == 2
        assert "contains no jobs" in capsys.readouterr().err

    def test_failed_job_exits_1_with_report(self, tmp_path, capsys):
        # IVD without detectors cannot bind its detection operations: the
        # batch completes (exit 1) and the report row carries the failure.
        spec = write_json(
            tmp_path / "m.json",
            {"jobs": [{"assay": "IVD",
                       "config": {"ilp_operation_limit": 0, "num_detectors": 0}}]},
        )
        assert main(["batch", spec]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out


class TestSweepSpecErrors:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text("[1, 2,")
        assert main(["sweep", str(spec)]) == 2
        assert "invalid sweep spec" in capsys.readouterr().err

    def test_non_object_spec_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", [1, 2])
        assert main(["sweep", spec]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_unknown_axis_exits_2(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "s.json", {"assay": "PCR", "sweep": {"pitchh": [1.0]}}
        )
        assert main(["sweep", spec]) == 2
        assert "unknown flow-config axes" in capsys.readouterr().err

    def test_duplicate_sweep_point_ids_exit_2(self, tmp_path, capsys):
        # 5 and 5.0 render identically in the generated point ids, so the
        # two grid points would be indistinguishable in reports.
        spec = write_json(
            tmp_path / "s.json", {"assay": "PCR", "sweep": {"pitch": [5, 5.0]}}
        )
        assert main(["sweep", spec]) == 2
        err = capsys.readouterr().err
        assert "duplicates job id" in err

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", {"assay": "PCR", "sweep": {}})
        assert main(["sweep", spec]) == 2
        assert "non-empty object" in capsys.readouterr().err


class TestExploreSpecErrors:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "e.json"
        spec.write_text('{"workloads": [')
        assert main(["explore", str(spec)]) == 2
        assert "invalid exploration spec" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", str(tmp_path / "nope.json")])
        assert exit_info.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "e.json",
            {"workloads": [{"assay": "PCR"}], "axis": {"pitch": [5.0]}},
        )
        assert main(["explore", spec]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_axis_exits_2(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "e.json",
            {"workloads": [{"assay": "PCR"}], "axes": {"pitchh": [5.0]}},
        )
        assert main(["explore", spec]) == 2
        assert "unknown flow-config axes" in capsys.readouterr().err

    def test_unknown_objective_exits_2(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "e.json",
            {"workloads": [{"assay": "PCR"}], "objectives": ["speed"]},
        )
        assert main(["explore", spec]) == 2
        assert "unknown objectives" in capsys.readouterr().err

    def test_unknown_strategy_exits_2(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "e.json",
            {"workloads": [{"assay": "PCR"}], "strategy": "magic"},
        )
        assert main(["explore", spec]) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_empty_workloads_exit_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "e.json", {"workloads": []})
        assert main(["explore", spec]) == 2
        assert "non-empty list" in capsys.readouterr().err

    def test_foreign_state_file_exits_2(self, tmp_path, capsys):
        spec_a = write_json(
            tmp_path / "a.json",
            {"workloads": [{"assay": "PCR"}],
             "base": {"ilp_operation_limit": 0}},
        )
        spec_b = write_json(
            tmp_path / "b.json",
            {"workloads": [{"assay": "PCR"}], "axes": {"num_mixers": [3]},
             "base": {"ilp_operation_limit": 0}},
        )
        state_dir = str(tmp_path / "state")
        assert main(["explore", spec_a, "--state-dir", state_dir]) == 0
        capsys.readouterr()
        assert main(["explore", spec_b, "--state-dir", state_dir]) == 2
        assert "different" in capsys.readouterr().err

    def test_all_jobs_failed_exits_1(self, tmp_path, capsys):
        # IVD without detectors cannot bind its detection operations: every
        # candidate fails, so there is no frontier to report.
        spec = write_json(
            tmp_path / "e.json",
            {"workloads": [{"assay": "IVD"}],
             "axes": {"num_detectors": [0]},
             "base": {"ilp_operation_limit": 0}},
        )
        assert main(["explore", spec]) == 1
        captured = capsys.readouterr()
        assert "every evaluated candidate failed" in captured.err

    def test_partial_failures_exit_0_with_frontier(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "e.json",
            {"workloads": [{"assay": "IVD"}],
             "axes": {"num_detectors": [0, 2]},
             "base": {"ilp_operation_limit": 0}},
        )
        assert main(["explore", spec]) == 0
        assert "frontier size 1" in capsys.readouterr().out

    def test_bad_budget_flag_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "e.json", {"workloads": [{"assay": "PCR"}]})
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", spec, "--budget", "0"])
        assert exit_info.value.code == 2


class TestServeArgumentErrors:
    def test_zero_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--workers", "0"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_zero_engine_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--engine-workers", "0"])
        assert exit_info.value.code == 2


class TestCacheBackendErrors:
    """A cache location the chosen backend would ignore, or a missing one
    it needs, is an input error: exit 2 naming the flag, before any job."""

    CASES = [
        (["--cache-backend", "memory", "--cache-dir", "{dir}"], "--cache-dir"),
        (["--cache-backend", "memory", "--cache-addr", "127.0.0.1:1"], "--cache-addr"),
        (
            ["--cache-backend", "disk", "--cache-dir", "{dir}", "--cache-addr", "127.0.0.1:1"],
            "--cache-addr",
        ),
        (["--cache-backend", "disk"], "--cache-dir"),
        (["--cache-backend", "shared"], "--cache-addr"),
    ]

    @staticmethod
    def flags(template, tmp_path):
        return [flag.format(dir=tmp_path / "cache") for flag in template]

    @pytest.mark.parametrize("template, named", CASES)
    def test_sweep_exits_2(self, tmp_path, capsys, template, named):
        spec = write_json(
            tmp_path / "s.json",
            {"assay": "PCR", "base": {"ilp_operation_limit": 0}, "sweep": {"pitch": [5.0]}},
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", spec, *self.flags(template, tmp_path)])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("template, named", CASES)
    def test_batch_exits_2(self, tmp_path, capsys, template, named):
        manifest = write_json(
            tmp_path / "m.json",
            {"defaults": {"ilp_operation_limit": 0}, "jobs": [{"assay": "PCR"}]},
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", manifest, *self.flags(template, tmp_path)])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("template, named", CASES)
    def test_serve_exits_2(self, tmp_path, capsys, template, named):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--port", "0", *self.flags(template, tmp_path)])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err
