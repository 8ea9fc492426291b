"""Differential tests: vectorized vs scalar Monte-Carlo replay engines.

The vectorized kernels in :mod:`repro.simulation.montecarlo` (the
fault-free fast path and the masked fault kernel) and the trial-sharding
layer replaced per-trial Python replay loops; the scalar reference
survives behind ``REPRO_MC_SCALAR=1`` (mirroring ``REPRO_BB_SCALAR``)
precisely so this suite can pin them against each other.  Three levels
are covered:

* **stream level** — :mod:`repro.simulation.mtstream` reproduces
  CPython's Mersenne Twister bit-for-bit: the post-seeding state equals
  ``random.Random(seed).getstate()``, and the generated doubles equal
  ``Random.random()`` across the twist boundaries (one prefix twist,
  one full twist, several twists);
* **engine level** — hypothesis-generated configurations (jitter mode and
  spread, wash, fault and channel-fault rates, retry budgets, seeds)
  produce byte-identical ``VerificationReport.as_dict()`` payloads and
  identical per-trial detail from the vectorized and scalar engines;
* **sharding level** — the report is invariant under the worker count,
  both in-process (``MonteCarloConfig(workers=...)``) and through the
  ``repro simulate --workers N --json`` subcommand in a fresh process.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.device import default_device_library
from repro.keys import derive_seed
from repro.simulation import MonteCarloConfig, MonteCarloEngine
from repro.simulation import montecarlo, mtstream

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


# ------------------------------------------------------------- mtstream


class TestMersenneStream:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=1 << 32, max_value=(1 << 63) - 1))
    def test_state_matches_cpython_getstate(self, seed):
        state = mtstream.state_block(np.array([seed], dtype=np.uint64))[0]
        ref = random.Random(seed).getstate()[1][:624]
        assert tuple(int(v) for v in state) == tuple(ref)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=1 << 32, max_value=(1 << 63) - 1),
        # 113/114 straddle the prefix-twist boundary (2 * draws ≤ 227);
        # 312 consumes exactly one full twist; 700 needs three.
        draws=st.sampled_from([1, 2, 113, 114, 312, 313, 700]),
    )
    def test_doubles_match_cpython_across_twist_boundaries(self, seed, draws):
        block = mtstream.uniform_block(np.array([seed], dtype=np.uint64), draws)
        rng = random.Random(seed)
        assert block[0].tolist() == [rng.random() for _ in range(draws)]

    def test_small_seeds_fall_back_to_cpython(self):
        # Seeds below 2**32 use a one-word key in CPython; the block
        # routes them through random.Random per trial.
        seeds = np.array([0, 1, 12345, (1 << 32) - 1, 1 << 32], dtype=np.uint64)
        block = mtstream.uniform_block(seeds, 5)
        for t, seed in enumerate(seeds):
            rng = random.Random(int(seed))
            assert block[t].tolist() == [rng.random() for _ in range(5)]

    @settings(max_examples=15, deadline=None)
    @given(
        root=st.integers(min_value=0, max_value=(1 << 40)),
        lo=st.integers(min_value=0, max_value=500),
        span=st.integers(min_value=0, max_value=64),
    )
    def test_derived_seed_block_matches_scalar_derivation(self, root, lo, span):
        block = mtstream.derive_seed_block(root, "jitter-", lo, lo + span)
        assert block.tolist() == [
            derive_seed(root, f"jitter-{i}") for i in range(lo, lo + span)
        ]

    def test_stream_block_equals_the_scalar_engines_streams(self):
        block = mtstream.uniform_stream_block(11, "fault-", 3, 20, 9)
        for t, i in enumerate(range(3, 20)):
            rng = random.Random(derive_seed(11, f"fault-{i}"))
            assert block[t].tolist() == [rng.random() for _ in range(9)]


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
        # More trials than one vector block forces the blocked path.
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(
            trials=montecarlo.VECTOR_BLOCK_TRIALS + 7, seed=5,
            jitter="uniform", jitter_spread=0.1,
        )
        fast = _run(pcr_schedule, library, config)
        ref = _run(pcr_schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()

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


# ------------------------------------------------------ worker invariance


class TestWorkerInvariance:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        workers=st.sampled_from([2, 3, 4]),
    )
    def test_sharded_report_is_byte_identical_in_process(
        self, pcr_schedule, seed, workers
    ):
        library = default_device_library(num_mixers=2)
        base = MonteCarloConfig(
            trials=256, seed=seed, jitter="uniform", jitter_spread=0.2,
            fault_rate=0.3, channel_fault_rate=0.1, wash_time=8,
        )
        serial = _run(pcr_schedule, library, base)
        sharded = _run(pcr_schedule, library, replace(base, workers=workers))
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
        sharded = _run(
            pcr_schedule, library, replace(base, workers=4), scalar=True
        )
        assert serial.as_dict() == sharded.as_dict()

    def test_worker_counts_beyond_the_trial_budget_are_clamped(self, pcr_schedule):
        library = default_device_library(num_mixers=2)
        base = MonteCarloConfig(trials=8, seed=1, jitter="uniform")
        serial = _run(pcr_schedule, library, base)
        greedy = _run(pcr_schedule, library, replace(base, workers=64))
        assert serial.as_dict() == greedy.as_dict()

    def test_cli_simulate_report_is_worker_invariant(self, tmp_path):
        # The full subcommand in a fresh interpreter: the JSON report must
        # be byte-identical between a serial and a 4-way sharded run.
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(montecarlo._SCALAR_ENV, None)
        payloads = {}
        for workers in (1, 4):
            out = tmp_path / f"report-{workers}.json"
            subprocess.run(
                [sys.executable, "-m", "repro", "simulate", "--assay", "PCR",
                 "--scheduler", "list", "--trials", "96", "--seed", "9",
                 "--jitter", "uniform", "--jitter-spread", "0.2",
                 "--fault-rate", "0.3", "--channel-fault-rate", "0.1",
                 "--wash-time", "8", "--workers", str(workers),
                 "--json", str(out)],
                capture_output=True, text=True, env=env, check=True,
            )
            payloads[workers] = json.loads(out.read_text())
        assert payloads[1]["trials"] == 96
        assert payloads[1] == payloads[4]
        # The perturbations really perturb: the median trial runs late.
        assert payloads[1]["makespan_p50"] > payloads[1]["deterministic_makespan"]
