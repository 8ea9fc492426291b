"""Normal jitter's inverse-CDF sampler against its definition.

Normal jitter inflates a duration ``b`` to ``rint(b (1 + sigma |N|))``,
which is ``b + k`` with ``P(k <= j) = erf((j + 1/2) / (b sigma sqrt 2))``.
Both engines draw one uniform per entry-trial and take ``k`` as the number
of those thresholds at or below it: the scalar engine searches
``math.erf`` directly (``_normal_steps``), the batched engine reads
guide tables built from the same values (``_normal_tables``).  Pinned here:

* the tables give the scalar search's ``k`` for every draw, including
  draws placed exactly on a threshold and one ulp to either side of it;
* ``k``'s empirical frequencies match the ``erf`` probabilities within a
  chi-square bound, from no spread at all up to the largest accepted one;
* the tables stay within their entry budget for any accepted spread and
  any duration; an entry that would pass it is sampled draw by draw, with
  the same values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.devices.device import default_device_library
from repro.simulation import MonteCarloConfig
from repro.simulation import montecarlo

from test_mc_differential import _detail, _run

MAX_SPREAD = montecarlo.MAX_JITTER_SPREAD


def _batched(durations, sigma, draws):
    """The batched engine's jittered durations: one row per duration."""
    tables = montecarlo._normal_tables(tuple(durations), sigma)
    u = np.array(draws, dtype=np.float64)
    return montecarlo._normal_durations(tables, u, np.int64)


def _thresholds(duration, sigma):
    """``erf((j + 1/2) / scale)`` for every ``j`` whose threshold is below 1."""
    scale = montecarlo._normal_scale(duration, sigma)
    out = []
    while scale > 0:
        t = math.erf((len(out) + 0.5) / scale)
        if t >= 1.0:
            break
        out.append(t)
    return out


def _draws(seed, n):
    keys = montecarlo.derive_seed_block(seed, "jitter", 0, n)
    return montecarlo.uniform_block(keys, [0])[0]


@pytest.fixture(autouse=True)
def _fresh_tables():
    """Tables are memoized per (durations, spread); start each test cold."""
    montecarlo._normal_tables.cache_clear()
    yield
    montecarlo._normal_tables.cache_clear()


# ------------------------------------------------ tables vs the definition


@pytest.mark.parametrize(
    "duration, sigma",
    [(1, 0.5), (1, 3.0), (7, 0.05), (80, 0.2), (50, 1.0), (30, MAX_SPREAD)],
)
def test_tables_give_the_scalar_search_on_and_beside_every_threshold(duration, sigma):
    points = [0.0, 1.0 - 2.0 ** -53]
    for t in _thresholds(duration, sigma):
        points += [np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)]
    points = [p for p in points if 0.0 <= p < 1.0]
    got = _batched([duration], sigma, [points])[0].tolist()
    want = [duration + montecarlo._normal_steps(p, duration, sigma) for p in points]
    assert got == want
    # The largest draw reaches the table's longest duration, and no further.
    assert got[1] == montecarlo._normal_tables((duration,), sigma).longest


def test_rows_share_tables_and_keep_their_own_durations():
    durations = [5, 80, 1, 80, 33, 5, 120]
    draws = [_draws(seed, 2048) for seed in range(len(durations))]
    got = _batched(durations, 0.3, draws)
    for row, (duration, u) in enumerate(zip(durations, draws)):
        assert got[row].tolist() == [
            duration + montecarlo._normal_steps(x, duration, 0.3) for x in u.tolist()
        ]


# ------------------------------------------------- exact distribution


def _chi_square_bound(df):
    """Wilson-Hilferty's chi-square quantile at upper tail 1e-6 (z = 4.753)."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + 4.753 * math.sqrt(c)) ** 3


@pytest.mark.parametrize(
    "duration, sigma",
    [(1, 0.5), (1, 2.0), (7, 0.05), (80, 0.2), (50, 1.0), (3, MAX_SPREAD)],
)
def test_frequencies_match_the_erf_probabilities(duration, sigma):
    n = 1 << 16
    k = _batched([duration], sigma, [_draws(17, n)])[0] - duration
    cdf = _thresholds(duration, sigma)
    probs = np.diff([0.0] + cdf + [1.0])  # P(k = j) for j = 0 .. len(cdf)
    counts = np.bincount(k, minlength=probs.size)
    assert counts.size == probs.size  # no k beyond the last threshold
    # Merge tail cells until every expected count is at least 5.
    cells_obs, cells_exp = [], []
    obs = exp = 0.0
    for c, p in zip(counts.tolist(), probs.tolist()):
        obs, exp = obs + c, exp + n * p
        if exp >= 5.0:
            cells_obs.append(obs)
            cells_exp.append(exp)
            obs = exp = 0.0
    cells_obs[-1] += obs
    cells_exp[-1] += exp
    assert len(cells_exp) >= 2
    chi2 = sum((o - e) ** 2 / e for o, e in zip(cells_obs, cells_exp))
    assert chi2 < _chi_square_bound(len(cells_exp) - 1)


def test_no_spread_never_inflates():
    assert montecarlo._normal_tables((1, 60), 0.0).longest == 60
    got = _batched([1, 60], 0.0, [_draws(3, 512), _draws(4, 512)])
    assert (got[0] == 1).all() and (got[1] == 60).all()
    assert montecarlo._normal_steps(0.999, 60, 0.0) == 0


# ------------------------------------------------------------ bounded


@pytest.mark.parametrize("duration", [1, 100, 10_000, 10 ** 9])
def test_tables_stay_within_their_budget_at_the_largest_spread(duration):
    durations = tuple(range(duration, duration + 40))
    tables = montecarlo._normal_tables(durations, MAX_SPREAD)
    assert tables.thresholds.size + tables.guide.size <= montecarlo._TABLE_BUDGET + 3
    # Shortest durations are tabulated first; the rest go draw by draw.
    skipped = len(tables.untabulated)
    assert tables.untabulated == tuple(
        (r, durations[r]) for r in range(40 - skipped, 40)
    )
    assert skipped == {1: 0, 10_000: 40, 10 ** 9: 40}.get(duration, skipped)
    assert duration != 100 or 0 < skipped < 40
    # The run's dtype bound covers every draw, tabulated or not.
    top = _batched(durations, MAX_SPREAD, [[1.0 - 2.0 ** -53]] * 40)
    assert int(top.max()) <= tables.longest


def test_untabulated_entries_match_the_scalar_engine(monkeypatch, pcr_schedule):
    # With no table budget every entry is sampled draw by draw; with a
    # small one, short durations are tabulated and long ones are not.
    monkeypatch.setattr(montecarlo, "_TABLE_BUDGET", 0)
    library = default_device_library(num_mixers=2)
    config = MonteCarloConfig(
        trials=40, seed=7, jitter="normal", jitter_spread=0.3,
        fault_rate=0.2, wash_time=6,
    )
    fast = _run(pcr_schedule, library, config)
    ref = _run(pcr_schedule, library, config, scalar=True)
    assert fast.as_dict() == ref.as_dict()
    assert _detail(fast) == _detail(ref)

    monkeypatch.setattr(montecarlo, "_TABLE_BUDGET", 2000)
    durations = (5, 300, 5)
    tables = montecarlo._normal_tables(durations, 0.5)
    assert tables.untabulated == ((1, 300),)
    draws = [_draws(seed, 256) for seed in range(3)]
    got = _batched(durations, 0.5, draws)
    for row, (duration, u) in enumerate(zip(durations, draws)):
        assert got[row].tolist() == [
            duration + montecarlo._normal_steps(x, duration, 0.5) for x in u.tolist()
        ]
