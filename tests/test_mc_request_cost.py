"""What one Monte-Carlo request pays for, pinned against the slow forms.

The batched engine avoids work a request does not need, and each saving
must leave every reported value as the straightforward form gives it:

* ``uniform_block`` fills its result in row chunks of about
  ``_DRAW_CHUNK`` elements; at every chunk boundary its doubles equal the
  scalar ``_draw``, and its ``below`` event mask equals ``u < rate``;
* the fault and channel streams are read as event masks, which must give
  the scalar engine's reports at the edges of the rate range;
* the per-trial detail is kept as one packed integer matrix
  (:class:`TrialDetail`) that reads, compares, pickles and copies like the
  eager ``TrialResult`` list.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.devices.device import default_device_library
from repro.simulation import montecarlo
from repro.simulation.montecarlo import (
    MonteCarloConfig,
    MonteCarloEngine,
    TrialDetail,
    TrialResult,
)

from test_mc_differential import _run


# ------------------------------------------------------------- chunked draws


@pytest.mark.parametrize("width", [1, 3, 1024, 4096])
@pytest.mark.parametrize("num_counters", [1, 7, 33, 300])
def test_uniform_block_matches_scalar_draws_at_chunk_boundaries(width, num_counters):
    keys = montecarlo.derive_seed_block(11, "fault", 5, 5 + width)
    counters = np.arange(num_counters) * 3 + 1
    block = montecarlo.uniform_block(keys, counters)
    assert block.shape == (num_counters, width) and block.dtype == np.float64

    # The whole matrix, as one unchunked pass of the same formula.
    steps = (counters.astype(np.uint64) + np.uint64(1)) * np.uint64(montecarlo._PHI)
    z = steps[:, None] + keys[None, :]
    montecarlo._mix_block(z, np.empty_like(z))
    assert block.tobytes() == ((z >> np.uint64(11)) * montecarlo._TWO_NEG_53).tobytes()

    # Every row on either side of a chunk boundary, against the scalar twin.
    rows_per_chunk = max(1, montecarlo._DRAW_CHUNK // width)
    edges = {0, num_counters - 1}
    for edge in range(rows_per_chunk, num_counters, rows_per_chunk):
        edges.update({edge - 1, edge})
    columns = sorted({0, width // 2, width - 1})
    for row in sorted(edges):
        for col in columns:
            key = montecarlo._trial_key(11, "fault", 5 + col)
            assert block[row, col] == montecarlo._draw(key, int(counters[row]))

    rate = float(np.median(block))
    mask = montecarlo.uniform_block(keys, counters, below=rate)
    assert mask.dtype == bool
    assert np.array_equal(mask, block < rate)


def test_uniform_block_handles_empty_shapes():
    keys = montecarlo.derive_seed_block(3, "jitter", 0, 4)
    assert montecarlo.uniform_block(keys, []).shape == (0, 4)
    none = montecarlo.derive_seed_block(3, "jitter", 0, 0)
    assert montecarlo.uniform_block(none, [1, 2], below=0.5).shape == (2, 0)


# -------------------------------------------------------------- event masks


class TestEventMasks:
    TRIALS = 24

    def _fault_draws(self, config, num_entries):
        keys = montecarlo.derive_seed_block(config.seed, "fault", 0, self.TRIALS)
        return montecarlo.uniform_block(
            keys, np.arange(num_entries * (config.max_retries + 2))
        )

    @pytest.mark.parametrize("max_retries", [0, 2])
    def test_rate_one_faults_every_attempt_like_the_scalar_engine(
        self, pcr_schedule, max_retries
    ):
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(
            trials=self.TRIALS, seed=4, jitter="uniform", fault_rate=1.0,
            channel_fault_rate=1.0, max_retries=max_retries, wash_time=6,
        )
        fast = _run(pcr_schedule, library, config)
        ref = _run(pcr_schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert fast.trials == ref.trials
        entries = sum(1 for e in pcr_schedule.entries() if e.device_id is not None)
        assert fast.faults_injected == entries * self.TRIALS

    def test_rate_below_every_draw_injects_nothing_like_the_scalar_engine(
        self, pcr_schedule
    ):
        library = default_device_library(num_mixers=2)
        base = MonteCarloConfig(trials=self.TRIALS, seed=8, jitter="uniform")
        plan = MonteCarloEngine(pcr_schedule, library, base).plan()
        lowest = float(self._fault_draws(base, plan.num_entries).min())
        # Events are strict (``u < rate``): at the smallest draw itself no
        # attempt faults, and the channel stream at that rate stays quiet
        # unless one of its own draws lies lower.
        config = MonteCarloConfig(
            trials=self.TRIALS, seed=8, jitter="uniform", fault_rate=lowest,
            channel_fault_rate=lowest, wash_time=6,
        )
        fast = _run(pcr_schedule, library, config)
        ref = _run(pcr_schedule, library, config, scalar=True)
        assert fast.as_dict() == ref.as_dict()
        assert fast.trials == ref.trials
        assert fast.faults_injected == 0


# ------------------------------------------------------------ packed detail


@pytest.fixture(scope="module")
def packed_and_eager(pcr_schedule):
    """A run's packed detail and the eager list the scalar engine builds."""
    library = default_device_library(num_mixers=2)
    config = MonteCarloConfig(
        trials=64, seed=2, jitter="normal", jitter_spread=0.2,
        fault_rate=0.3, channel_fault_rate=0.2, wash_time=5,
    )
    report = _run(pcr_schedule, library, config)
    engine = MonteCarloEngine(pcr_schedule, library, config)
    eager = [engine._run_trial(t)[0] for t in range(config.trials)]
    return report.trials, eager


class TestPackedDetail:
    def test_the_engine_keeps_detail_packed_until_read(self, pcr_schedule):
        library = default_device_library(num_mixers=2)
        report = _run(pcr_schedule, library, MonteCarloConfig(trials=16, jitter="uniform"))
        detail = report.trials
        assert isinstance(detail, TrialDetail)
        assert detail._trials is None
        assert len(detail) == 16 and detail._trials is None
        first = detail[0]
        assert isinstance(first, TrialResult)
        assert detail[0] is first  # built once, memoized

    def test_reads_like_the_eager_list(self, packed_and_eager):
        packed, eager = packed_and_eager
        assert len(packed) == len(eager) == 64
        assert packed[0] == eager[0] and packed[17] == eager[17]
        assert packed[-1] == eager[-1] and packed[-64] == eager[-64]
        assert packed[3:9] == eager[3:9]
        assert packed[::-5] == eager[::-5]
        assert list(packed) == eager
        assert [t.recovered for t in packed] == [t.recovered for t in eager]
        with pytest.raises(IndexError):
            packed[64]

    def test_compares_equal_in_both_directions(self, packed_and_eager):
        packed, eager = packed_and_eager
        assert packed == eager and eager == packed
        assert not packed != eager and not eager != packed
        changed = list(eager)
        changed[5] = changed[5]._replace(makespan=changed[5].makespan + 1)
        assert packed != changed and changed != packed
        assert packed != eager[:-1] and eager[:-1] != packed
        assert packed == TrialDetail(np.asarray(eager, dtype=np.int64))

    def test_pickles_packed_and_round_trips(self, packed_and_eager):
        packed, eager = packed_and_eager
        packed[0]  # a memoized list must not ride along
        data = pickle.dumps(packed)
        assert b"TrialResult" not in data
        back = pickle.loads(data)
        assert isinstance(back, TrialDetail) and back._trials is None
        assert back.rows.dtype == np.int32
        assert back == eager and eager == back

    def test_deepcopy_is_equal_and_independent(self, packed_and_eager):
        packed, eager = packed_and_eager
        clone = copy.deepcopy(packed)
        assert isinstance(clone, TrialDetail)
        assert clone == packed and clone == eager
        assert clone.rows is not packed.rows

    def test_a_1024_trial_report_pickles_within_1_5x_of_the_eager_list(
        self, pcr_schedule
    ):
        library = default_device_library(num_mixers=2)
        config = MonteCarloConfig(trials=1024, seed=6, jitter="uniform", fault_rate=0.2)
        report = _run(pcr_schedule, library, config)
        eager = copy.copy(report)
        eager.trials = list(report.trials)
        assert eager == report
        assert len(pickle.dumps(report)) <= 1.5 * len(pickle.dumps(eager))

    def test_values_beyond_int32_stay_int64(self):
        rows = np.zeros((2, 8), dtype=np.int64)
        rows[1, 1] = 1 << 40
        detail = TrialDetail(rows)
        assert detail.rows.dtype == np.int64
        assert detail[1].makespan == 1 << 40
        assert pickle.loads(pickle.dumps(detail)) == detail

