"""Exploration over the robustness objectives (``makespan_p99``,
``recovery_rate``).

The verify stage turns exploration multi-objective in a new direction:
trading nominal makespan against tail latency and fault tolerance.  These
tests pin the integration contract — a robustness exploration stays
dominance-consistent, resumes cleanly, and pays for each scheduling solve
exactly once (the verify axes never touch the schedule slice, and the
verify key chains off archsyn, so pitch axes don't re-verify either).
"""

from __future__ import annotations

import json

import pytest

from repro.batch.cache import ResultCache
from repro.explore import ExplorationEngine, ExplorationSpec, is_dominance_consistent


def robust_spec(**overrides):
    """Twelve PCR configs sweeping fault pressure and pitch, verify on."""
    payload = {
        "name": "robustness",
        "workloads": [{"assay": "PCR"}],
        "axes": {
            "verify_fault_rate": [0.2, 0.5, 0.8],
            "verify_max_retries": [0, 1],
            "pitch": [5.0, 6.0],
        },
        "base": {
            "ilp_operation_limit": 0,
            "num_mixers": 2,
            "verify": True,
            "verify_trials": 8,
            "verify_jitter": "uniform",
            "verify_jitter_spread": 0.2,
            "verify_seed": 11,
        },
        "objectives": ["makespan", "makespan_p99", "recovery_rate"],
        "strategy": "exhaustive",
    }
    payload.update(overrides)
    return ExplorationSpec.from_payload(payload)


class TestRobustExploration:
    def test_acceptance_robust_frontier_with_one_scheduling_solve(self, stage_runs):
        """≥12 verified configs: dominance-consistent frontier over
        (makespan, makespan_p99, recovery_rate) and exactly one scheduling
        solve — none of the axes touches the schedule slice."""
        spec = robust_spec()
        assert spec.candidate_count() == 12
        report = ExplorationEngine(spec).run()
        assert report.evaluated == 12
        assert report.failed == 0
        assert report.scheduling_solves == 1
        assert stage_runs.get("schedule") == 1
        # Pitch never reaches the verify key, so the 12 configs need only
        # 3 fault_rate × 2 retries = 6 Monte-Carlo runs.
        assert stage_runs.get("verify") == 6
        assert len(report.frontier) >= 1
        assert is_dominance_consistent(report.frontier.entries(), spec.objectives)
        for entry in report.frontier.entries():
            assert entry.objectives["makespan_p99"] >= entry.objectives["makespan"]
            assert 0.0 <= entry.objectives["recovery_rate"] <= 1.0

    def test_payload_is_serializable_with_robust_objectives(self):
        report = ExplorationEngine(robust_spec(budget=3)).run()
        payload = report.to_json_payload()
        json.dumps(payload)
        for entry in payload["frontier"]:
            assert set(entry["objectives"]) == {
                "makespan", "makespan_p99", "recovery_rate",
            }

    def test_resume_continues_without_re_solving(self, tmp_path, stage_runs):
        """A budget-capped robust run resumes to completion and the
        continuation re-solves nothing it already paid for."""
        state = tmp_path / "state.json"
        cache = ResultCache(cache_dir=tmp_path / "cache")
        first = ExplorationEngine(
            robust_spec(budget=5), cache=cache, state_path=state
        ).run()
        assert not first.resumed
        assert first.evaluated == 5
        second = ExplorationEngine(
            robust_spec(), cache=ResultCache(cache_dir=tmp_path / "cache"),
            state_path=state,
        ).run()
        assert second.resumed
        assert second.evaluated == 12
        # One scheduling solve across both runs combined: the continuation
        # replayed the first run's schedule from the shared disk cache.
        assert stage_runs.get("schedule") == 1
        assert second.scheduling_solves == 0
        assert is_dominance_consistent(
            second.frontier.entries(), second.spec.objectives
        )

    def test_robust_objective_without_verify_is_refused_at_load_time(self):
        """Naming makespan_p99 while the base config leaves verify off must
        fail when the spec loads (exit code 2 territory), not halfway into
        an exploration via an AttributeError."""
        with pytest.raises(ValueError, match='"verify": true'):
            robust_spec(
                base={"ilp_operation_limit": 0, "num_mixers": 2},
                axes={"pitch": [5.0, 6.0]},
            )
