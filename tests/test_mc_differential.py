"""Differential tests: vectorized vs scalar Monte-Carlo replay engines.

The vectorized kernels in :mod:`repro.simulation.montecarlo` (the
fault-free fast path and the masked fault kernel) and the trial-sharding
layer replaced per-trial Python replay loops; the scalar reference
survives behind ``REPRO_MC_SCALAR=1`` precisely so this suite can pin
them against each other.  Three levels are covered:

* **generator level** — the counter-based draws are addressable: any
  trial slice of a ``uniform_block`` equals the same rows of a block
  drawn from trial 0 and equals the scalar engine's ``_draw`` at every
  (trial, counter); the uniforms have the expected moments (normal
  jitter's sampler is pinned in ``test_mc_normal_jitter.py``);
* **engine level** — hypothesis-generated configurations (jitter mode and
  spread, wash, fault and channel-fault rates including 0 and 1, retry
  budgets 0-3, seeds) on PCR and on generated assays over two to four
  mixers, some with a detection kind that has no spare, produce
  byte-identical ``VerificationReport.as_dict()`` payloads and identical
  per-trial detail from the vectorized and scalar engines; so do designs
  whose times only int64 holds, and runs cut into small blocks, and the
  diagnostics cap cuts identically when it falls across vector blocks;
  and uniform-jitter, fault-path and jitter-free reports keep the exact
  digests they had before normal jitter changed its sampler;
* **sharding level** — the report is invariant under the worker count,
  both in-process (``MonteCarloConfig(workers=...)``) and through the
  ``repro simulate --workers N --json`` subcommand in a fresh process.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.device import default_device_library
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.sequencing_graph import Operation, OperationType
from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig
from repro.simulation import MonteCarloConfig, MonteCarloEngine
from repro.simulation import montecarlo

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _run(schedule, library, config, *, scalar=False):
    """One engine run with the requested kernel family."""
    if scalar:
        os.environ[montecarlo._SCALAR_ENV] = "1"
    else:
        os.environ.pop(montecarlo._SCALAR_ENV, None)
    try:
        return MonteCarloEngine(schedule, library, config).run()
    finally:
        os.environ.pop(montecarlo._SCALAR_ENV, None)


def _detail(report):
    """The full per-trial tuple sequence (stronger than ``as_dict``)."""
    return [
        (t.trial, t.makespan, t.faults_injected, t.faults_recovered,
         t.retries, t.migrations, t.reroutes, t.washes, t.recovered)
        for t in report.trials
    ]


#: Event rates: both edges, where every draw or none is an event, and
#: values in between.
RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


def _generated_design(num_operations, graph_seed, num_mixers, detector):
    """A list-scheduled generated assay on ``num_mixers`` mixers.

    With ``detector``, every sink mixing operation feeds a detection run on
    the library's one detector: a kind with no spare device.
    """
    graph = random_assay(
        RandomAssayConfig(num_operations=num_operations, seed=graph_seed)
    )
    if detector:
        sinks = [op.op_id for op in graph.device_operations()
                 if not graph.successors(op.op_id)]
        for i, sink in enumerate(sinks):
            graph.add_operation(Operation(f"d{i}", OperationType.DETECT, 30))
            graph.add_edge(sink, f"d{i}")
    library = default_device_library(
        num_mixers=num_mixers, num_detectors=1 if detector else 0
    )
    schedule = ListScheduler(library, ListSchedulerConfig(transport_time=10)).schedule(graph)
    return schedule, library


# ------------------------------------------------------------ generator


class TestCounterGenerator:
    @settings(max_examples=25, deadline=None)
    @given(
        stream=st.sampled_from(["jitter", "fault", "channel"]),
        root=st.integers(min_value=0, max_value=(1 << 40)),
        lo=st.integers(min_value=0, max_value=60),
        span=st.integers(min_value=0, max_value=20),
        counters=st.lists(
            st.integers(min_value=0, max_value=(1 << 40)), min_size=1, max_size=8
        ),
    )
    def test_block_slices_equal_full_block_and_scalar_draws(
        self, stream, root, lo, span, counters
    ):
        hi = lo + span
        full = montecarlo.uniform_block(
            montecarlo.derive_seed_block(root, stream, 0, hi), counters
        )
        part = montecarlo.uniform_block(
            montecarlo.derive_seed_block(root, stream, lo, hi), counters
        )
        # Counter-major: row c holds counter c's draw for every trial.
        assert part.shape == (len(counters), span)
        assert part.tolist() == full[:, lo:hi].tolist()
        for t in range(lo, hi):
            key = montecarlo._trial_key(root, stream, t)
            assert part[:, t - lo].tolist() == [
                montecarlo._draw(key, c) for c in counters
            ]

    def test_uniform_moments(self):
        u = montecarlo.uniform_block(
            montecarlo.derive_seed_block(7, "jitter", 0, 256), np.arange(256)
        ).ravel()
        assert u.size == 1 << 16
        assert ((0.0 <= u) & (u < 1.0)).all()
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002


# ------------------------------------------- vectorized vs scalar engine


class TestVectorizedScalarDifferential:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        jitter=st.sampled_from(["none", "uniform", "normal"]),
        spread=st.floats(min_value=0.0, max_value=0.5),
        wash_time=st.integers(min_value=0, max_value=20),
    )
    def test_fault_free_path_is_byte_identical(
        self, pcr_schedule, seed, jitter, spread, wash_time
    ):
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(
            trials=16, seed=seed, jitter=jitter, jitter_spread=spread,
            wash_time=wash_time,
        )
        fast = _run(pcr_schedule, library, config)
        ref = _run(pcr_schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        jitter=st.sampled_from(["none", "uniform", "normal"]),
        fault_rate=st.floats(min_value=0.0, max_value=1.0),
        channel_rate=st.floats(min_value=0.0, max_value=1.0),
        max_retries=st.integers(min_value=0, max_value=3),
        wash_time=st.integers(min_value=0, max_value=15),
    )
    def test_masked_fault_kernel_is_byte_identical(
        self, pcr_schedule, seed, jitter, fault_rate, channel_rate,
        max_retries, wash_time,
    ):
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(
            trials=12, seed=seed, jitter=jitter, jitter_spread=0.2,
            fault_rate=fault_rate, channel_fault_rate=channel_rate,
            max_retries=max_retries, wash_time=wash_time,
        )
        fast = _run(pcr_schedule, library, config)
        ref = _run(pcr_schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)

    def test_block_boundary_straddling_run_is_byte_identical(self, pcr_schedule):
        # More trials than one vector block forces the blocked path; normal
        # jitter pins the table lookup per element across block lengths.
        library = default_device_library(num_mixers=2)
        for jitter in ("uniform", "normal"):
            config = MonteCarloConfig(
                trials=montecarlo.VECTOR_BLOCK_TRIALS + 7, seed=5,
                jitter=jitter, jitter_spread=0.1,
            )
            fast = _run(pcr_schedule, library, config)
            ref = _run(pcr_schedule, library, config, scalar=True)
            assert fast.as_dict() == ref.as_dict()

    @settings(max_examples=30, deadline=None)
    @given(
        num_operations=st.integers(min_value=8, max_value=30),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        num_mixers=st.integers(min_value=2, max_value=4),
        kind=st.sampled_from(["uniform", "normal", "fault"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_generated_designs_are_byte_identical(
        self, num_operations, graph_seed, num_mixers, kind, seed
    ):
        # Beyond PCR on two mixers: three or four mixers give every
        # operation more than one spare, which the per-kind spare lists and
        # the migration's least-loaded pick must order like the scalar min.
        library = default_device_library(num_mixers=num_mixers)
        graph = random_assay(
            RandomAssayConfig(num_operations=num_operations, seed=graph_seed)
        )
        schedule = ListScheduler(
            library, ListSchedulerConfig(transport_time=10)
        ).schedule(graph)
        knobs = {
            "uniform": {"jitter": "uniform"},
            "normal": {"jitter": "normal"},
            "fault": {"jitter": "uniform", "fault_rate": 0.3,
                      "channel_fault_rate": 0.2},
        }[kind]
        config = MonteCarloConfig(
            trials=24, seed=seed, jitter_spread=0.2, wash_time=8, **knobs
        )
        fast = _run(schedule, library, config)
        ref = _run(schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)

    @settings(max_examples=40, deadline=None)
    @given(
        num_operations=st.integers(min_value=6, max_value=24),
        graph_seed=st.integers(min_value=0, max_value=10_000),
        num_mixers=st.integers(min_value=2, max_value=4),
        detector=st.booleans(),
        jitter=st.sampled_from(["none", "uniform", "normal"]),
        fault_rate=RATES,
        channel_rate=RATES,
        max_retries=st.integers(min_value=0, max_value=3),
        wash_time=st.one_of(st.just(0), st.integers(min_value=1, max_value=15)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_generated_fault_knobs_are_byte_identical(
        self, num_operations, graph_seed, num_mixers, detector, jitter,
        fault_rate, channel_rate, max_retries, wash_time, seed,
    ):
        # The fault kernel resolves retries, migrations and unrecovered
        # faults from the draws before its entry walk; every branch of the
        # scalar recovery must come out the same: any retry budget, the
        # rate edges 0 and 1, washes on and off, several spares, and a
        # detector-only kind with no spare at all.
        schedule, library = _generated_design(
            num_operations, graph_seed, num_mixers, detector
        )
        config = MonteCarloConfig(
            trials=16, seed=seed, jitter=jitter, jitter_spread=0.2,
            fault_rate=fault_rate, channel_fault_rate=channel_rate,
            max_retries=max_retries, wash_time=wash_time,
        )
        fast = _run(schedule, library, config)
        ref = _run(schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)

    def test_a_spareless_kind_is_unrecovered_in_place(self):
        schedule, library = _generated_design(10, 4, 3, detector=True)
        config = MonteCarloConfig(trials=8, seed=2, fault_rate=1.0, max_retries=0)
        fast = _run(schedule, library, config)
        assert fast.as_dict() == _run(schedule, library, config, scalar=True).as_dict()
        assert any("(no compatible spare)" in note for note in fast.violations)
        assert any("faulted too)" in note for note in fast.violations)

    @pytest.mark.parametrize("kind", ["jitter", "fault"])
    def test_times_beyond_int32_run_in_int64(self, monkeypatch, kind):
        # Durations near 2**30 push every makespan past int32, so the
        # kernels must pick int64 state; ordinary designs keep int32.
        picked = []
        time_dtype = montecarlo._time_dtype

        def spy(*args):
            picked.append(time_dtype(*args))
            return picked[-1]

        monkeypatch.setattr(montecarlo, "_time_dtype", spy)
        library = default_device_library(num_mixers=3)
        graph = random_assay(RandomAssayConfig(
            num_operations=10, seed=5, durations=(1 << 30, 3 << 29)
        ))
        schedule = ListScheduler(
            library, ListSchedulerConfig(transport_time=10)
        ).schedule(graph)
        knobs = {"jitter": "uniform", "jitter_spread": 0.3, "wash_time": 7}
        if kind == "fault":
            knobs.update(fault_rate=0.4, channel_fault_rate=0.3, max_retries=2)
        config = MonteCarloConfig(trials=24, seed=8, **knobs)
        fast = _run(schedule, library, config)
        ref = _run(schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)
        assert ref.makespan_p50 > np.iinfo(np.int32).max
        assert picked == [np.int64]
        _run(*_generated_design(10, 5, 3, detector=False), config)
        assert picked == [np.int64, np.int32]

    @pytest.mark.parametrize("block_trials", [3, 5])
    def test_outcomes_resolved_per_block_cut_at_block_edges(
        self, monkeypatch, block_trials
    ):
        # Each block resolves its own fault outcomes and migrating trials;
        # blocks that end mid-run must splice into the scalar engine's run.
        monkeypatch.setattr(montecarlo, "VECTOR_BLOCK_TRIALS", block_trials)
        schedule, library = _generated_design(16, 11, 4, detector=True)
        config = MonteCarloConfig(
            trials=23, seed=6, jitter="uniform", jitter_spread=0.2,
            fault_rate=0.5, channel_fault_rate=0.4, max_retries=2, wash_time=9,
        )
        fast = _run(schedule, library, config)
        ref = _run(schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)
        assert fast.aggregate.migrations > 0

    @pytest.mark.parametrize("block_trials", [1, 2])
    def test_diagnostics_cap_cut_across_blocks_matches_scalar(
        self, pcr_schedule, monkeypatch, block_trials
    ):
        # Every PCR trial here notes 12 washes and faults, so the 32 kept
        # notes cover trials 0-2: blocks of one or two trials make them
        # span several blocks, and the cap is cut inside a later block.
        monkeypatch.setattr(montecarlo, "VECTOR_BLOCK_TRIALS", block_trials)
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(
            trials=64, seed=3, fault_rate=1.0, channel_fault_rate=0.5,
            max_retries=1, wash_time=10,
        )
        fast = _run(pcr_schedule, library, config)
        ref = _run(pcr_schedule, library, config, scalar=True)
        assert fast.violations == ref.violations
        assert fast.violations[-1].startswith("... +")
        noted_trials = {
            int(note.split(":")[0].split()[1]) for note in fast.violations[:-1]
        }
        assert len({t // block_trials for t in noted_trials}) > 1
        assert fast.as_dict() == ref.as_dict()
        assert _detail(fast) == _detail(ref)

    def test_diagnostics_cap_appends_a_truncation_marker(self, pcr_schedule):
        # Saturating fault rates with washes produce far more diagnostics
        # than MAX_DIAGNOSTICS; the report must say how many were dropped
        # instead of truncating silently.
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(
            trials=64, seed=3, fault_rate=1.0, channel_fault_rate=0.5,
            max_retries=1, wash_time=10,
        )
        fast = _run(pcr_schedule, library, config)
        ref = _run(pcr_schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert len(fast.violations) == montecarlo.MAX_DIAGNOSTICS + 1
        marker = fast.violations[-1]
        assert marker.startswith("... +") and marker.endswith(" more")
        dropped = int(marker[len("... +"):-len(" more")])
        assert dropped > 0


# ------------------------------------------------------ unchanged reports

#: ``as_dict()`` plus per-trial detail of reports whose draws do not involve
#: normal jitter, as digested before normal jitter moved from Box-Muller to
#: inverse-CDF sampling: that change, and the int32 duration matrices built
#: with it, must leave every one of them byte-identical.
UNCHANGED_REPORTS = [
    ("PCR", dict(trials=64, seed=3, jitter="uniform", jitter_spread=0.2, wash_time=12),
     "8120f76035a844b9"),
    ("PCR", dict(trials=64, seed=4, jitter="none", fault_rate=0.3,
                 channel_fault_rate=0.1, max_retries=1, wash_time=5),
     "27f0bc990dabbefd"),
    ("PCR", dict(trials=64, seed=5, jitter="uniform", jitter_spread=0.5,
                 fault_rate=0.2, channel_fault_rate=0.2, max_retries=2),
     "c14006421b3ee977"),
    ("RA30", dict(trials=128, seed=6, jitter="uniform", jitter_spread=0.3,
                  fault_rate=0.25, channel_fault_rate=0.05, wash_time=8),
     "93e73635d08d2bc9"),
    ("RA30", dict(trials=128, seed=7, jitter="none", wash_time=8), "7b0f0632db4af7ac"),
]


@pytest.mark.parametrize("design, knobs, digest", UNCHANGED_REPORTS)
@pytest.mark.parametrize("scalar", [False, True], ids=["batched", "scalar"])
def test_reports_without_normal_jitter_keep_their_digests(
    pcr_schedule, design, knobs, digest, scalar
):
    if design == "PCR":
        schedule, library = pcr_schedule, default_device_library(num_mixers=2)
    else:
        schedule, library = _generated_design(30, 5, 3, detector=False)
    report = _run(schedule, library, MonteCarloConfig(**knobs), scalar=scalar)
    blob = json.dumps(
        {"report": report.as_dict(), "detail": report.trials.rows.tolist()},
        sort_keys=True,
    )
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


# ------------------------------------------------------ worker invariance


def _sharded_run(schedule, library, config, **kwargs):
    """:func:`_run` with no minimum work per shard, so a small run really
    spreads across ``config.workers`` processes."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(montecarlo, "MIN_SHARD_WORK", 1)
        return _run(schedule, library, config, **kwargs)


def _trials_for_shards(schedule, shards, **knobs):
    """The fewest trials with ``knobs`` whose replay work on ``schedule``
    is worth ``shards`` worker processes."""
    plan = montecarlo.ReplayPlan(schedule, schedule.library)
    per_trial = montecarlo._replay_work(plan, MonteCarloConfig(trials=1, **knobs))
    return -(-shards * montecarlo.MIN_SHARD_WORK // per_trial)


class TestWorkerInvariance:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        workers=st.sampled_from([2, 3, 4]),
        jitter=st.sampled_from(["uniform", "normal"]),
    )
    def test_sharded_report_is_byte_identical_in_process(
        self, pcr_schedule, seed, workers, jitter
    ):
        library = default_device_library(num_mixers=2)
        base = MonteCarloConfig(
            trials=256, seed=seed, jitter=jitter, jitter_spread=0.2,
            fault_rate=0.3, channel_fault_rate=0.1, wash_time=8,
        )
        serial = _run(pcr_schedule, library, base)
        sharded = _sharded_run(pcr_schedule, library, replace(base, workers=workers))
        assert serial.as_dict() == sharded.as_dict()
        assert _detail(serial) == _detail(sharded)

    def test_sharded_scalar_engine_is_also_invariant(self, pcr_schedule):
        # Sharding and the scalar escape hatch compose: the shards
        # themselves replay with the reference engine.
        library = default_device_library(num_mixers=2)
        base = MonteCarloConfig(
            trials=192, seed=17, jitter="normal", jitter_spread=0.15,
            fault_rate=0.4, wash_time=5,
        )
        serial = _run(pcr_schedule, library, base, scalar=True)
        sharded = _sharded_run(
            pcr_schedule, library, replace(base, workers=4), scalar=True
        )
        assert serial.as_dict() == sharded.as_dict()

    def test_worker_counts_beyond_the_trial_budget_are_clamped(self, pcr_schedule):
        library = default_device_library(num_mixers=2)
        base = MonteCarloConfig(trials=8, seed=1, jitter="uniform")
        serial = _run(pcr_schedule, library, base)
        greedy = _run(pcr_schedule, library, replace(base, workers=64))
        assert serial.as_dict() == greedy.as_dict()

    def test_shard_count_follows_replay_work(self, pcr_schedule):
        # Replay work counts entry-trials, a faulted one _FAULT_WORK times;
        # a shard forms per MIN_SHARD_WORK of it, never more than one per trial.
        plan = montecarlo.ReplayPlan(pcr_schedule, pcr_schedule.library)
        clean = montecarlo._replay_work(plan, MonteCarloConfig(trials=10))
        faulted = montecarlo._replay_work(
            plan, MonteCarloConfig(trials=10, channel_fault_rate=0.1)
        )
        assert clean == 10 * plan.num_entries
        assert faulted == montecarlo._FAULT_WORK * clean
        work = 2 * montecarlo.MIN_SHARD_WORK
        assert len(montecarlo._shard_bounds(8192, 4, work)) == 2
        assert len(montecarlo._shard_bounds(8192, 4, work - 1)) == 1
        assert len(montecarlo._shard_bounds(3, 8, 100 * work)) == 3

    def test_cli_simulate_report_is_worker_invariant(self, pcr_schedule, tmp_path):
        # The full subcommand in a fresh interpreter: the JSON report must
        # be byte-identical between a serial and a 4-way sharded run, so
        # the run is large enough for four shards.
        trials = _trials_for_shards(
            pcr_schedule, 4, fault_rate=0.3, channel_fault_rate=0.1
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(montecarlo._SCALAR_ENV, None)
        payloads = {}
        for workers in (1, 4):
            out = tmp_path / f"report-{workers}.json"
            subprocess.run(
                [sys.executable, "-m", "repro", "simulate", "--assay", "PCR",
                 "--scheduler", "list", "--trials", str(trials), "--seed", "9",
                 "--jitter", "uniform", "--jitter-spread", "0.2",
                 "--fault-rate", "0.3", "--channel-fault-rate", "0.1",
                 "--wash-time", "8", "--workers", str(workers),
                 "--json", str(out)],
                capture_output=True, text=True, env=env, check=True,
            )
            payloads[workers] = json.loads(out.read_text())
        assert payloads[1]["trials"] == trials
        assert payloads[1] == payloads[4]
        # The perturbations really perturb: the median trial runs late.
        assert payloads[1]["makespan_p50"] > payloads[1]["deterministic_makespan"]
