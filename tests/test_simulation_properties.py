"""Property tests of the Monte-Carlo verification engine.

Pins the stochastic stage's load-bearing contracts:

* a zero-jitter / zero-fault replay reproduces the deterministic makespan
  *exactly*, for any seed (the replay is a right-shift retiming whose
  lower bounds include the scheduled start),
* the nearest-rank percentiles are ordered (p50 ≤ p95 ≤ p99 ≤ max) under
  arbitrary perturbation settings,
* a seed determines the trial sequence bit-for-bit **across processes**
  (the per-trial streams are SHA-derived, never Python's ``hash()``),
* injected-failure trials never report a makespan below the fault-free
  trial with the same seed (separate jitter/fault RNG streams + the
  repair-window model make faults purely additive),
* a knob out of range fails at construction, with the same rules and a
  message naming the field, for ``MonteCarloConfig`` and for
  ``FlowConfig``'s ``verify_*`` fields.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.device import default_device_library
from repro.simulation import MonteCarloConfig, MonteCarloEngine
from repro.simulation.montecarlo import MAX_JITTER_SPREAD
from repro.synthesis.config import FlowConfig

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def trial_digest(report) -> str:
    """Digest of the full trial sequence (makespans + fault counters)."""
    payload = json.dumps(
        [
            (t.trial, t.makespan, t.faults_injected, t.faults_recovered,
             t.retries, t.migrations, t.reroutes, t.washes)
            for t in report.trials
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_zero_perturbation_reproduces_deterministic_makespan(pcr_schedule, seed):
    """Property: with jitter and faults off, every trial equals the
    deterministic makespan exactly — regardless of the seed."""
    library = default_device_library(num_mixers=2)
    report = MonteCarloEngine(
        pcr_schedule, library, MonteCarloConfig(trials=4, seed=seed)
    ).run()
    assert all(t.makespan == pcr_schedule.makespan for t in report.trials)
    assert report.makespan_p50 == pcr_schedule.makespan
    assert report.makespan_p99 == pcr_schedule.makespan
    assert report.recovery_rate == 1.0
    assert report.violations == []


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    jitter=st.sampled_from(["none", "uniform", "normal"]),
    spread=st.floats(min_value=0.0, max_value=0.5),
    fault_rate=st.floats(min_value=0.0, max_value=0.6),
    wash_time=st.integers(min_value=0, max_value=20),
)
def test_percentiles_are_ordered(pcr_schedule, seed, jitter, spread, fault_rate, wash_time):
    """Property: p50 ≤ p95 ≤ p99 ≤ max under any perturbation settings,
    and every percentile is an actually-observed trial makespan."""
    library = default_device_library(num_mixers=2)
    report = MonteCarloEngine(
        pcr_schedule,
        library,
        MonteCarloConfig(
            trials=8,
            seed=seed,
            jitter=jitter,
            jitter_spread=spread,
            fault_rate=fault_rate,
            wash_time=wash_time,
        ),
    ).run()
    observed = {t.makespan for t in report.trials}
    assert report.makespan_p50 <= report.makespan_p95 <= report.makespan_p99
    assert report.makespan_p99 <= report.makespan_max
    assert {report.makespan_p50, report.makespan_p95, report.makespan_p99} <= observed


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fault_trials_never_beat_the_fault_free_trial(pcr_schedule, seed):
    """Property: enabling faults can only add time.  The jitter stream is
    separate from the fault stream, so the same seed yields the same
    jitter draws with and without fault injection — the fault run's trial
    makespans must dominate the fault-free run's pointwise."""
    library = default_device_library(num_mixers=2)
    base = MonteCarloConfig(trials=6, seed=seed, jitter="uniform", jitter_spread=0.2)
    fault_free = MonteCarloEngine(pcr_schedule, library, base).run()
    faulty = MonteCarloEngine(
        pcr_schedule,
        library,
        MonteCarloConfig(
            trials=6,
            seed=seed,
            jitter="uniform",
            jitter_spread=0.2,
            fault_rate=0.4,
            channel_fault_rate=0.2,
            max_retries=1,
        ),
    ).run()
    for clean, perturbed in zip(fault_free.trials, faulty.trials):
        assert perturbed.makespan >= clean.makespan >= pcr_schedule.makespan


def test_same_seed_same_trials_in_one_process(pcr_schedule):
    """Two engines with identical configs produce identical trial sequences."""
    library = default_device_library(num_mixers=2)
    config = MonteCarloConfig(
        trials=8, seed=13, jitter="normal", jitter_spread=0.15,
        fault_rate=0.3, channel_fault_rate=0.1, wash_time=5,
    )
    a = MonteCarloEngine(pcr_schedule, library, config).run()
    b = MonteCarloEngine(pcr_schedule, library, config).run()
    assert trial_digest(a) == trial_digest(b)
    assert a.as_dict() == b.as_dict()


def test_seed_determinism_across_processes(pcr_schedule):
    """The same seed produces the same trial sequence in a fresh
    interpreter with a randomized ``PYTHONHASHSEED`` — the per-trial RNG
    streams are SHA-derived, not ``hash()``-derived."""
    code = (
        "import hashlib, json\n"
        "from repro.devices.device import default_device_library\n"
        "from repro.graph.library import build_pcr\n"
        "from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig\n"
        "from repro.simulation import MonteCarloConfig, MonteCarloEngine\n"
        "library = default_device_library(num_mixers=2)\n"
        "schedule = ListScheduler(library, ListSchedulerConfig(transport_time=10)).schedule(build_pcr())\n"
        "report = MonteCarloEngine(schedule, library, MonteCarloConfig(\n"
        "    trials=8, seed=13, jitter='normal', jitter_spread=0.15,\n"
        "    fault_rate=0.3, channel_fault_rate=0.1, wash_time=5)).run()\n"
        "payload = json.dumps([(t.trial, t.makespan, t.faults_injected, t.faults_recovered,\n"
        "                       t.retries, t.migrations, t.reroutes, t.washes) for t in report.trials])\n"
        "print(hashlib.sha256(payload.encode()).hexdigest()[:16])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "random"  # determinism must not rely on hash()
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    library = default_device_library(num_mixers=2)
    local = MonteCarloEngine(
        pcr_schedule,
        library,
        MonteCarloConfig(
            trials=8, seed=13, jitter="normal", jitter_spread=0.15,
            fault_rate=0.3, channel_fault_rate=0.1, wash_time=5,
        ),
    ).run()
    assert out.stdout.strip() == trial_digest(local)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fault_rate=st.floats(min_value=0.1, max_value=0.9),
    max_retries=st.integers(min_value=0, max_value=3),
)
def test_fault_accounting_is_consistent(pcr_schedule, seed, fault_rate, max_retries):
    """Property: recovered ≤ injected, the recovery rate is their ratio,
    and the trial-level ``recovered`` flag matches the counters."""
    library = default_device_library(num_mixers=2)
    report = MonteCarloEngine(
        pcr_schedule,
        library,
        MonteCarloConfig(
            trials=6, seed=seed, fault_rate=fault_rate, max_retries=max_retries
        ),
    ).run()
    assert 0 <= report.faults_recovered <= report.faults_injected
    if report.faults_injected:
        assert report.recovery_rate == (
            report.faults_recovered / report.faults_injected
        )
    else:
        assert report.recovery_rate == 1.0
    for trial in report.trials:
        assert trial.recovered == (trial.faults_injected == trial.faults_recovered)


BAD_KNOBS = [
    ("trials", 0), ("trials", -3), ("jitter", "gauss"), ("jitter_spread", -0.1),
    ("jitter_spread", float("nan")), ("jitter_spread", float("inf")),
    ("jitter_spread", 1e300), ("jitter_spread", MAX_JITTER_SPREAD * 1.01),
    ("fault_rate", -0.01), ("fault_rate", 1.5), ("channel_fault_rate", -1.0),
    ("channel_fault_rate", float("nan")), ("max_retries", -1), ("wash_time", -5),
    ("workers", 0),
]


@pytest.mark.parametrize("knob, value", BAD_KNOBS, ids=[f"{k}={v}" for k, v in BAD_KNOBS])
def test_a_bad_knob_raises_naming_its_field(knob, value):
    with pytest.raises(ValueError, match=rf"^{knob} "):
        MonteCarloConfig(**{knob: value})
    with pytest.raises(ValueError, match=rf"^verify_{knob} "):
        FlowConfig(**{f"verify_{knob}": value})


def test_the_edges_of_every_knob_range_are_accepted():
    edges = {"trials": 1, "jitter_spread": 0.0, "fault_rate": 1.0,
             "channel_fault_rate": 0.0, "max_retries": 0, "wash_time": 0, "workers": 1}
    assert MonteCarloConfig(**edges).max_retries == 0
    assert FlowConfig(**{f"verify_{k}": v for k, v in edges.items()}).verify_trials == 1
    assert MonteCarloConfig(jitter_spread=MAX_JITTER_SPREAD).jitter_spread == MAX_JITTER_SPREAD
    assert FlowConfig(verify_jitter_spread=MAX_JITTER_SPREAD).verify_jitter_spread == MAX_JITTER_SPREAD
