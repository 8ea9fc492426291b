"""Tests of the command-line interface."""

import contextlib
import json
import os
import re
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.explore import FrontierEntry, is_dominance_consistent
from repro.graph.library import build_pcr
from repro.graph.serialization import save_graph
from repro.obs.trace import validate_chrome_trace
from repro.service import ServiceClient


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

    @pytest.mark.parametrize(
        "trials,perturbation,unrecovered",
        [
            (4, ["--jitter", "uniform", "--fault-rate", "0.3"], False),
            # No retries at a high fault rate: some faults find no spare.
            (64, ["--seed", "3", "--fault-rate", "0.6", "--max-retries", "0"], True),
        ],
        ids=["jitter-faults", "unrecovered-faults"],
    )
    def test_json_payload_shape(self, tmp_path, capsys, trials, perturbation, unrecovered):
        out = tmp_path / "report.json"
        exit_code = main([
            "simulate", "--assay", "PCR", "--scheduler", "list",
            "--mixers", "2", "--trials", str(trials), *perturbation,
            "--json", str(out),
        ])
        assert exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["trials"] == trials
        assert payload["makespan_p50"] <= payload["makespan_p99"]
        assert payload["simulation_problems"] == []
        if unrecovered:
            assert payload["faults_injected"] > 0
            assert 0.0 < payload["recovery_rate"] < 1.0
            assert payload["makespan_p50"] > payload["deterministic_makespan"]
            assert "unrecovered" in capsys.readouterr().out

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


class TestExplore:
    SPEC = Path(__file__).resolve().parent.parent / "examples/manifests/explore_small.json"

    def _explore(self, capsys, tmp_path, state, name, *extra):
        out = tmp_path / f"{name}.json"
        exit_code = main([
            "explore", str(self.SPEC), "--state-dir", str(tmp_path / state),
            "--cache-dir", str(tmp_path / "cache"), "--json", str(out), *extra,
        ])
        assert exit_code == 0
        return capsys.readouterr().out, json.loads(out.read_text())

    def test_cold_resumed_and_warm_cache_runs(self, capsys, tmp_path):
        # A tiny-budget cold run, a resume that lifts the budget, and a
        # fresh state dir on the warm cache that replays every stage.
        _, cold = self._explore(capsys, tmp_path, "state", "cold", "--budget", "12")
        summary = cold["summary"]
        assert summary["evaluated"] == 12 and summary["failed"] == 0
        assert len(cold["frontier"]) >= 1
        assert summary["scheduling_solves"] < summary["evaluated"]

        text, resumed = self._explore(capsys, tmp_path, "state", "resumed")
        summary = resumed["summary"]
        assert "(resumed)" in text
        assert summary["evaluated"] == 24
        entries = [FrontierEntry(e["candidate_id"], e["objectives"])
                   for e in resumed["frontier"]]
        assert entries
        assert is_dominance_consistent(entries, summary["objectives"])
        solves = cold["summary"]["scheduling_solves"] + summary["scheduling_solves"]
        assert solves < summary["evaluated"]

        text, _ = self._explore(capsys, tmp_path, "state-2", "warm")
        assert "stage schedule: 0 ran" in text
        assert "exploration: 0 scheduling solve(s) for 24 evaluated config(s)" in text


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
        # default backend solves it, and the report names it.
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
        # Solver-free jobs still carry the per-stage provenance fields (null).
        for row in stages:
            assert all(row[key] is None
                       for key in ("backend", "status", "objective", "bound", "mip_gap"))
            assert row["warm_start_used"] is False

    def test_scipy_free_flow_defaults_to_branch_and_bound(self):
        # An interpreter where scipy cannot be imported.  PCR, not IVD:
        # IVD's warm start meets its certified lower bound and closes
        # without running any backend.
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from repro.cli import main\n"
            "sys.exit(main(['--assay', 'PCR', '--time-limit', '1']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=repro_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "solver backends: schedule=branch-and-bound" in proc.stdout

    def test_unknown_solver_is_an_argparse_error(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"jobs": [{"assay": "PCR"}]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", str(manifest), "--solver", "gurobi"])
        assert excinfo.value.code == 2


def repro_env():
    """The environment a ``python -m repro`` subprocess runs in."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@contextlib.contextmanager
def launched(*argv):
    """Run ``python -m repro *argv`` until it announces its port.

    Yields ``(port, proc)``; the process is always reaped.  A process that
    never announces a port is killed, which ends the read loop instead of
    hanging the test.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=repro_env(),
    )
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        port = None
        for line in proc.stdout:
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        watchdog.cancel()
        assert port is not None, f"{argv[0]} never announced its port"
        yield port, proc
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


class TestServe:
    """``repro serve`` as a subprocess: a cold run, a hot-cache hit, the
    shutdown flush, and a restart that replays every stage from disk."""

    MANIFEST = {"jobs": [{"assay": "PCR", "config": {"ilp_operation_limit": 0}}]}

    @staticmethod
    @contextlib.contextmanager
    def serving(cache_dir):
        """Start the server; yield its client and process, always reaped."""
        with launched("serve", "--port", "0", "--cache-dir", str(cache_dir)) as (port, proc):
            yield ServiceClient(port=port), proc

    @staticmethod
    def stop(client, proc) -> str:
        """Shut the server down over HTTP; return the rest of its output."""
        client.shutdown()
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        return out

    def test_cold_hot_and_restarted_service(self, tmp_path):
        cache_dir = tmp_path / "serve-cache"
        with self.serving(cache_dir) as (client, proc):
            job = client.submit(self.MANIFEST)
            status = client.wait(job, timeout=120)
            assert status["status"] == "done", status
            stages = status["summary"]["stages"]
            for name in ("schedule", "archsyn", "physical"):
                assert stages[name]["ran"] == 1, (name, stages)
            result = client.result(job)
            assert result["jobs"][0]["metrics"]["tE"] > 0, result

            # Same server, identical manifest: served from the hot cache.
            second = client.wait(client.submit(self.MANIFEST), timeout=120)
            assert second["status"] == "done", second
            assert second["summary"]["cache_hits"] == 1, second

            out = self.stop(client, proc)
        # Every put writes through to disk, so the shutdown flush (which
        # rewrites only entries whose write soft-failed) finds nothing
        # dirty here; the artifacts are on disk all the same.
        assert re.search(r"\(\d+ artifact\(s\) flushed\)", out), out
        assert list(cache_dir.glob("*.pkl")), "stage artifacts must persist"

        # A restarted server replays every stage from the disk cache.
        with self.serving(cache_dir) as (client, proc):
            status = client.wait(client.submit(self.MANIFEST), timeout=120)
            assert status["status"] == "done", status
            stages = status["summary"]["stages"]
            for name in ("schedule", "archsyn", "physical"):
                assert stages[name]["ran"] == 0, (name, stages)
                assert stages[name]["replayed"] == 1, (name, stages)
            self.stop(client, proc)


#: One Prometheus text-format sample line (or a bare ``+Inf``).
PROMETHEUS_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? '
    r'[0-9eE+.\-]+$|^\+Inf$'
)


def scrape_metrics(port: int) -> str:
    """GET ``/metrics``; every non-comment line must be a valid sample."""
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics") as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")
    for line in text.strip().splitlines():
        if not line.startswith("#"):
            assert PROMETHEUS_SAMPLE.match(line), line
    return text


class TestObservabilityEndToEnd:
    """The flight recorder through real processes: a traced sweep's Chrome
    trace and JSON logs, and live ``/metrics`` scrapes of a service replica
    and a cache daemon after cross-process traffic."""

    SWEEP = Path(__file__).resolve().parent.parent / "examples" / "manifests" / "sweep_physical.json"

    def test_traced_sweep_exports_a_valid_trace_and_json_logs(self, tmp_path):
        trace_out = tmp_path / "sweep-trace.json"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", str(self.SWEEP),
             "--cache-dir", str(tmp_path / "cache"), "--trace-out", str(trace_out),
             "--log-level", "debug", "--log-json"],
            capture_output=True, text=True, env=repro_env(), timeout=120,
        )
        assert done.returncode == 0, done.stderr

        document = json.loads(trace_out.read_text())
        assert validate_chrome_trace(document) == []
        names = {event["name"] for event in document["traceEvents"]}
        assert {"stage:schedule", "stage:archsyn", "stage:physical"} <= names, names
        trace_id = document["otherData"]["trace_id"]
        assert all(event["args"]["trace_id"] == trace_id for event in document["traceEvents"])

        # Every structured-log line on stderr parses, with the taxonomy
        # fields (the trailing "trace written to" note is plain text).
        records = [json.loads(line) for line in done.stderr.splitlines()
                   if line.startswith("{")]
        assert records, "no JSON log lines captured"
        for record in records:
            assert record["logger"].startswith("repro") and "ts" in record, record
            assert record["level"] in ("debug", "info", "warning", "error"), record

    def test_replica_and_daemon_serve_prometheus_metrics(self):
        with launched("cache-daemon", "--port", "0") as (daemon_port, daemon):
            with launched("serve", "--port", "0", "--cache-backend", "shared",
                          "--cache-addr", f"127.0.0.1:{daemon_port}") as (port, replica):
                client = ServiceClient(port=port)
                job = client.submit(json.loads(self.SWEEP.read_text()))
                assert client.wait(job, timeout=120)["status"] == "done"

                text = scrape_metrics(port)
                for name in ("repro_jobs_total", "repro_stage_wall_seconds_bucket",
                             # A cold sweep records misses and claims; hit
                             # counters appear only once a tier hits.
                             "repro_cache_misses_total", "repro_claims_total"):
                    assert name in text, (name, text[:400])
                client.shutdown()
                replica.communicate(timeout=60)
                assert replica.returncode == 0

            text = scrape_metrics(daemon_port)
            for name in ("repro_cachedaemon_entries", "repro_cachedaemon_events_total"):
                assert name in text, (name, text[:400])
            # /stats and /metrics are views over the same registry.
            with urllib.request.urlopen(f"http://127.0.0.1:{daemon_port}/stats") as response:
                assert json.loads(response.read())["puts"] > 0
            request = urllib.request.Request(
                f"http://127.0.0.1:{daemon_port}/shutdown", method="POST"
            )
            urllib.request.urlopen(request).close()
            daemon.communicate(timeout=60)
            assert daemon.returncode == 0
