"""Seeded Monte-Carlo verification of a synthesized schedule.

The deterministic flow emits a single makespan, but a fabricated biochip
sees stochastic operation durations and valve/device/channel failures.
This module replays a :class:`~repro.scheduling.schedule.Schedule` many
times under three perturbation families and reports a *distribution*
instead of one number:

* **Duration jitter** — each operation's duration is inflated by a draw
  from a configurable distribution (``uniform`` or ``normal`` spread).
  Jitter is inflation-only by construction, so a jittered trial can never
  finish before the deterministic schedule; with jitter disabled the
  replay reproduces the deterministic makespan *exactly*, for any seed.
* **Device faults** — with probability ``fault_rate`` the device executing
  an operation faults.  Recovery first retries on the same device (each
  failed attempt burns one full duration), then migrates the operation to
  a compatible spare (plus one transport time); the faulted device stays
  blocked until the migrated operation completes — a repair window that
  keeps every trial's resource-release times pointwise at or above the
  fault-free trial's, so an injected-failure trial can never report a
  makespan below the fault-free one.  A fault with no working spare is
  *unrecovered*: the operation still completes (best effort, one extra
  duration), but the trial's recovery rate drops below 1.
* **Channel faults** — with probability ``channel_fault_rate`` the routing
  channel carrying a fluid transport faults and the droplet is rerouted,
  adding one transport time to the affected precedence edge.  Reroutes
  always succeed and are counted separately from device-fault recovery.
* **Contamination washes** — with ``wash_time > 0``, a wash is inserted
  between consecutive operations on one device unless the later operation
  directly consumes the earlier one's product (a direct graph successor
  needs no wash: the fluid itself moves on).

Determinism: every random draw is a pure function of (seed, stream,
trial, counter), computed by a stateless counter-based generator (the
SplitMix64 finalizer applied to a Weyl sequence, in the spirit of Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  The
root seed and the stream name pass through :func:`repro.keys.derive_seed`
(SHA-256, so identical in every process regardless of ``PYTHONHASHSEED``);
everything after that is 64-bit integer arithmetic.  Three streams address
their draws by the device-entry ordinal ``e`` in ``Schedule.entries()``
order:

* ``"jitter"`` — counter ``2e``, one draw per entry for either jitter
  kind;
* ``"fault"`` — counter ``e * (max_retries + 2) + a``, where ``a = 0`` is
  the first attempt, ``1..max_retries`` the retries and the last slot the
  spare;
* ``"channel"`` — counter ``(e << 32) | p`` for the precedence edge from
  the parent with ordinal ``p``.

Because a draw is addressed rather than consumed, enabling faults cannot
perturb the jitter draws, and no kernel needs to track how many draws a
trial has used.

Performance architecture (three stacked layers, all bit-identical):

* A :class:`ReplayPlan` is compiled once per engine and lowers the replay
  to integer-indexed arrays — topological entry order, CSR predecessor
  indices with precomputed transport minima and channel-draw counters,
  static wash predicates, device-index maps, and per-entry spare candidate
  lists — so no trial ever calls ``graph.predecessors()``, hashes a string
  key, or sorts.
* All trials in a block advance entry by entry as numpy vector operations
  across the trial axis.  Every per-trial state matrix is entry-major —
  ``(entries x trials)`` durations and finish times, ``(devices x
  trials)`` availability — so one entry's read or write touches one
  contiguous row.  Plain elementwise max/add passes replay the block when
  ``fault_rate == channel_fault_rate == 0``; otherwise a fault kernel
  first resolves every entry-trial's fault outcome from the draws alone
  (:func:`_resolve_faults`), then walks the entries touching only the
  trials that migrate.  Both keep their state in int32 when the run's
  times fit (:func:`_time_dtype`), else in int64.  Each block
  draws its uniforms as whole ``(counters x trials)`` matrices with
  :func:`uniform_block` before its kernel runs, filled in cache-sized row
  chunks; the fault and channel streams arrive as ``u < rate`` event
  masks.  The scalar engine computes the same doubles one at a time with
  the pure-Python twin :func:`_draw`.
  Uniform jitter rounds with ``round``/``np.rint``, which agree on
  float64 (both round half to even).  Normal jitter samples the rounded
  duration itself by exact inverse CDF: the batched engine reads
  threshold tables built with ``math.erf`` (:func:`_normal_tables`), the
  scalar engine searches the same ``math.erf`` thresholds
  (:func:`_normal_steps`).  Every reported value is bit-identical to the
  scalar engine.
  A kernel flags its diagnostics in one ``(kind, entry, trial)`` mask
  (their payloads in a twin array); per block, one count gives their
  uncapped number and one ``np.flatnonzero`` over the ``(trial, entry,
  kind)`` view of the first noted trials gives the first
  :data:`MAX_DIAGNOSTICS` in the scalar engine's order.
* ``workers > 1`` shards trial index ranges across a process pool, one
  shard per :data:`MIN_SHARD_WORK` of the run's replay work.  Draws are
  addressed by the trial *index*, so any shard boundary reproduces the
  exact same draws and the merged report is byte-identical for every
  worker count.

Uniform, fault and channel draws use only integer arithmetic and exact
float operations, so they are identical on every platform.  Normal jitter
compares each draw with ``math.erf`` values; a platform whose ``erf``
rounds one threshold differently changes a jittered duration only for a
draw within one ulp of that threshold.

Aggregation is streaming: each shard returns sorted makespans plus
counter sums (a :class:`TrialAggregate`), so a 100k-trial run never holds
100k :class:`TrialResult` objects; per-trial detail is retained only up
to :data:`TRIAL_DETAIL_LIMIT` trials, packed as one integer matrix (a
:class:`TrialDetail`) whose :class:`TrialResult` list is built on first
read.  Set ``REPRO_MC_SCALAR=1`` to force
the original scalar engine — the differential reference the test suite
pins the fast paths against.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.devices.device import DeviceLibrary
from repro.graph.sequencing_graph import SequencingGraph
from repro.keys import derive_seed
from repro.obs import metrics as obs_metrics
from repro.obs.trace import (
    SpanContext,
    TraceRecorder,
    current_context,
    install_recorder,
    recorder,
    span as obs_span,
    uninstall_recorder,
)
from repro.scheduling.schedule import Schedule

#: Hard cap on the violation diagnostics kept per report, so a
#: pathological configuration cannot balloon artifact payloads.  When the
#: cap truncates, the report's last entry is a ``"... +N more"`` marker.
MAX_DIAGNOSTICS = 32

#: Environment variable forcing the scalar reference engine.
_SCALAR_ENV = "REPRO_MC_SCALAR"

#: Per-trial :class:`TrialResult` detail is kept only for runs at or
#: below this many trials; larger runs report aggregates only.
TRIAL_DETAIL_LIMIT = 2048

#: Trials per vectorized block — bounds the ``(entries x block)``
#: matrices a batched pass materializes.
VECTOR_BLOCK_TRIALS = 4096

#: Minimum replay work worth paying one worker process for, in
#: entry-trials (trials x replayed entries, see :func:`_replay_work`);
#: requests for more workers than ``work // MIN_SHARD_WORK`` are quietly
#: clamped.  A sharded run opens a fresh process pool (about 25-45 ms on
#: two vCPUs), which two workers win back once the serial replay takes
#: about 100 ms, about three million fault-free entry-trials
#: (docs/simulation.md).
MIN_SHARD_WORK = 1_500_000

#: A faulted entry-trial (fault kernel plus fault and channel draws)
#: costs about three fault-free ones.
_FAULT_WORK = 3


# ------------------------------------------------------------ generator
#: The SplitMix64 increment, 2**64 / golden ratio (odd, so ``t * _PHI``
#: never repeats within 2**64 trials or counters).
_PHI = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_TWO_NEG_53 = 1.0 / (1 << 53)


def _mix(z: int) -> int:
    """SplitMix64 finalizer on a Python int (no numpy)."""
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _mix_block(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`_mix` over a uint64 array, in place (wraparound arithmetic).

    ``scratch`` is a uint64 array of ``z``'s shape that takes the shifted
    copies, so no pass allocates a temporary.
    """
    for shift, multiplier in ((30, _MUL1), (27, _MUL2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= np.uint64(multiplier)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def _trial_key(root_seed: int, stream: str, trial: int) -> int:
    """The key of one trial's draws from ``stream``."""
    return _mix((derive_seed(root_seed, stream) + trial * _PHI) & _MASK64)


def _draw(key: int, counter: int) -> float:
    """The uniform double in ``[0, 1)`` at ``counter`` under ``key``."""
    return (_mix((key + (counter + 1) * _PHI) & _MASK64) >> 11) * _TWO_NEG_53


def derive_seed_block(root_seed: int, stream: str, lo: int, hi: int) -> np.ndarray:
    """``_trial_key(root_seed, stream, t)`` for ``t`` in ``[lo, hi)``, as uint64."""
    trials = np.arange(lo, hi, dtype=np.uint64)
    base = np.uint64(derive_seed(root_seed, stream))
    z = trials * np.uint64(_PHI) + base
    return _mix_block(z, np.empty_like(z))


#: Elements per chunk of :func:`uniform_block`'s fill.  A chunk's uint64
#: state, its shift scratch and its doubles (3 x 256 KiB) stay in L2 while
#: the six mixing passes run over them, where whole-matrix passes would
#: stream every temporary through memory.
_DRAW_CHUNK = 1 << 15


def uniform_block(
    keys: np.ndarray, counters: Any, below: Optional[float] = None
) -> np.ndarray:
    """``(len(counters) x len(keys))`` doubles: ``_draw(keys[t], counters[c])``.

    Counter-major, so the kernels read each draw address as one contiguous
    row across the block's trials.  With ``below``, the result is instead
    the event mask ``draw < below`` (bool, same shape), compared chunk by
    chunk so the doubles never exist as one matrix.  The result is filled
    in row chunks of about :data:`_DRAW_CHUNK` elements.
    """
    steps = (np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * np.uint64(_PHI)
    width = keys.shape[0]
    out = np.empty((steps.size, width), dtype=np.float64 if below is None else bool)
    rows = max(1, _DRAW_CHUNK // max(1, width))
    z = np.empty((min(rows, steps.size), width), dtype=np.uint64)
    scratch = np.empty_like(z)
    doubles = np.empty(z.shape, dtype=np.float64) if below is not None else None
    for lo in range(0, steps.size, rows):
        hi = min(lo + rows, steps.size)
        n = hi - lo
        z_chunk = z[:n]
        np.add(steps[lo:hi, None], keys[None, :], out=z_chunk)
        _mix_block(z_chunk, scratch[:n])
        z_chunk >>= np.uint64(11)
        if doubles is None:
            np.multiply(z_chunk, _TWO_NEG_53, out=out[lo:hi])
        else:
            np.multiply(z_chunk, _TWO_NEG_53, out=doubles[:n])
            np.less(doubles[:n], below, out=out[lo:hi])
    return out


# ------------------------------------------------------- normal jitter
#: Largest accepted ``jitter_spread``.
MAX_JITTER_SPREAD = 10.0

#: ``math.erf(x)`` is exactly 1.0 in float64 for every ``x >= 6`` (erfc(6)
#: is below half an ulp of 1), so no threshold with ``(j + 1/2) / scale >=
#: 6`` can lie at or below a draw.
_ERF_ONE = 6.0

#: Guide buckets per threshold of a normal-jitter table, at least (rounded
#: up to a power of two per table).
_GUIDE_RATIO = 16

#: Thresholds plus guide entries of one plan's normal-jitter tables, at
#: most (about 9 MB).  Durations are tabulated shortest first; an entry
#: whose table would pass the budget is sampled draw by draw with
#: :func:`_normal_steps` instead, so no table grows with a duration.
_TABLE_BUDGET = 1 << 21


def _normal_scale(duration: int, sigma: float) -> float:
    """``duration x sigma x sqrt(2)``: the erf argument's divisor."""
    return duration * sigma * math.sqrt(2.0)


def _normal_steps(u: float, duration: int, sigma: float) -> int:
    """Normal jitter's inflation of one entry from its one draw ``u``.

    The model is ``rint(duration x (1 + sigma |N|))``, which exceeds
    ``duration`` by ``k`` with ``P(k <= j) = erf((j + 1/2) / scale)``.  The
    thresholds rise with ``j`` (to exactly 1.0), so ``k``, the number of
    thresholds at or below ``u``, is the first ``j`` whose threshold lies
    above it: found by doubling, then bisection.  The scalar engine's
    definition, and the batched engine's for entries too long to tabulate.
    """
    scale = _normal_scale(duration, sigma)
    if scale == 0.0:
        return 0

    def below(j: int) -> bool:
        return math.erf((j + 0.5) / scale) <= u

    # Every j < lo is below u; once hi - 1 is not, the answer is in [lo, hi).
    lo, hi = 0, 1
    while below(hi - 1):
        lo, hi = hi, 2 * hi
    hi -= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


class _NormalTables(NamedTuple):
    """Inverse-CDF tables of normal jitter for one plan's jittered entries.

    Every distinct duration's thresholds ``erf((j + 1/2) / scale)`` below
    1.0 sit in one flat array, each table scaled by its bucket count ``M``
    (a power of two, so exactly) and followed by an infinite sentinel.  A
    table of ``L`` thresholds has a guide of ``M + 1`` entries, ``M`` at
    least ``_GUIDE_RATIO x L``: entry ``i`` is ``duration + j``, where
    ``j`` thresholds lie at or below ``i / M``, bit-inverted (negative)
    when the bucket ``[i / M, (i + 1) / M)`` holds another.  The per-row
    columns place each jittered entry: its bucket count, its guide's
    offset, and ``duration - table offset``, which turns a jittered
    duration back into an absolute threshold index.
    """

    thresholds: np.ndarray
    guide: np.ndarray
    buckets: np.ndarray  # (rows, 1) float64
    guide_at: np.ndarray  # (rows, 1) intp
    shift: np.ndarray  # (rows, 1) int64
    #: ``(row, duration)`` of the rows too long to tabulate, sampled by
    #: :func:`_normal_steps` at spread ``sigma``.
    untabulated: Tuple[Tuple[int, int], ...]
    sigma: float
    #: The longest duration any draw can give.
    longest: int


@functools.lru_cache(maxsize=8)
def _normal_tables(durations: Tuple[int, ...], sigma: float) -> _NormalTables:
    """The :class:`_NormalTables` of positive ``durations`` (one per row)."""
    thresholds: List[np.ndarray] = []
    guides: List[np.ndarray] = []
    placed: Dict[int, Tuple[float, int, int]] = {}
    table_at = guide_at = 0
    longest = 0
    for duration in sorted(set(durations)):
        scale = _normal_scale(duration, sigma)
        count = math.ceil(_ERF_ONE * scale)  # thresholds from j = count on are 1.0
        if table_at + guide_at + (2 * _GUIDE_RATIO + 1) * count + 3 > _TABLE_BUDGET:
            longest = max(longest, duration + count)
            continue
        table = np.asarray(
            [math.erf((j + 0.5) / scale) for j in range(count)], dtype=np.float64
        )
        table = table[: np.searchsorted(table, 1.0)]
        buckets = 1 << (_GUIDE_RATIO * table.size).bit_length()
        below = np.searchsorted(table, np.arange(buckets + 1) / buckets, side="right")
        guide = duration + below
        flagged = np.flatnonzero(below[1:] > below[:-1])
        guide[flagged] = ~guide[flagged]
        thresholds += [table * buckets, np.array([np.inf])]
        guides.append(guide)
        placed[duration] = (float(buckets), guide_at, duration - table_at)
        table_at += table.size + 1
        guide_at += buckets + 1
        longest = max(longest, duration + table.size)
    # An untabulated row reads an empty table with a one-bucket guide of
    # zeros; its values are replaced.
    thresholds.append(np.array([np.inf]))
    guides.append(np.zeros(2, dtype=np.int64))
    spare = (1.0, guide_at, 0)
    buckets, guide_at, shift = (
        np.asarray(column)[:, None]
        for column in zip(*(placed.get(duration, spare) for duration in durations))
    )
    guide = np.concatenate(guides)
    return _NormalTables(
        thresholds=np.concatenate(thresholds),
        guide=guide.astype(np.int32 if longest <= _INT32.max else np.int64),
        buckets=buckets,
        guide_at=guide_at,
        shift=shift,
        untabulated=tuple((r, d) for r, d in enumerate(durations) if d not in placed),
        sigma=sigma,
        longest=longest,
    )


def _normal_durations(tables: _NormalTables, u: np.ndarray, dtype: Any) -> np.ndarray:
    """Normal-jittered durations in ``dtype`` from the ``(rows x trials)`` draws ``u``.

    ``u`` is scaled in place by each row's bucket count, like its table,
    so ``floor(u)`` is a draw's bucket and the scaled comparisons are
    exact.  The bucket's guide entry is the jittered duration unless it is
    negative (flagged); a flagged draw steps past each of the bucket's
    next two thresholds that lies at or below it, and the few draws past
    both bisect the rest of their bucket.  The guide is read in row chunks
    of about :data:`_DRAW_CHUNK` elements through one reused index buffer.
    """
    rows, trials = u.shape
    guide = tables.guide.astype(dtype, copy=False)
    k = np.empty(u.shape, dtype=dtype)
    step = max(1, _DRAW_CHUNK // max(1, trials))
    index = np.empty((min(step, rows), trials), dtype=np.intp)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        chunk, at = u[start:stop], index[: stop - start]
        chunk *= tables.buckets[start:stop]
        np.copyto(at, chunk, casting="unsafe")  # floor: the draws are non-negative
        at += tables.guide_at[start:stop]
        # Every index is in range; "clip" only skips "raise"'s buffering.
        np.take(guide, at, out=k[start:stop], mode="clip")
    flagged = np.flatnonzero(k < 0)
    if flagged.size:
        row = flagged // trials
        shift = tables.shift.reshape(-1)[row]
        drawn = u.reshape(-1)[flagged]
        lo = ~k.reshape(-1)[flagged] - shift  # absolute threshold indices
        lo += tables.thresholds[lo] <= drawn
        below = tables.thresholds[lo] <= drawn
        lo += below
        wide = np.flatnonzero(below)
        if wide.size:
            at = drawn[wide].astype(np.intp) + tables.guide_at.reshape(-1)[row[wide]]
            hi = guide[at + 1]
            hi = np.maximum(hi, ~hi) - shift[wide]  # the first threshold past the bucket
            lo[wide] = [
                bisect.bisect_right(tables.thresholds, x, a, b)
                for x, a, b in zip(drawn[wide].tolist(), lo[wide].tolist(), hi.tolist())
            ]
        k.reshape(-1)[flagged] = lo + shift
    for r, duration in tables.untabulated:  # one bucket per row: u[r] holds the draws
        k[r] = [duration + _normal_steps(x, duration, tables.sigma) for x in u[r].tolist()]
    return k


def check_knobs(config: Any, prefix: str = "") -> None:
    """Reject Monte-Carlo knobs the engine cannot run, naming the field.

    The one rule set of :class:`MonteCarloConfig` and of the ``verify_*``
    fields of :class:`~repro.synthesis.config.FlowConfig`: each knob is
    read as ``prefix + name`` on ``config``, so a message names the
    caller's own field.  Both classes call it from ``__post_init__``.

    Raises
    ------
    ValueError
        On the first knob out of range.
    """
    def knob(name: str) -> Any:
        return getattr(config, prefix + name)

    if knob("trials") < 1:
        raise ValueError(f"{prefix}trials must be at least 1")
    if knob("jitter") not in ("none", "uniform", "normal"):
        raise ValueError(
            f"{prefix}jitter must be 'none', 'uniform' or 'normal', "
            f"got {knob('jitter')!r}"
        )
    if not 0.0 <= knob("jitter_spread") <= MAX_JITTER_SPREAD:
        raise ValueError(
            f"{prefix}jitter_spread must be in [0, {MAX_JITTER_SPREAD:g}], "
            f"got {knob('jitter_spread')!r}"
        )
    for name in ("fault_rate", "channel_fault_rate"):
        if not 0.0 <= knob(name) <= 1.0:
            raise ValueError(f"{prefix}{name} must be in [0, 1], got {knob(name)!r}")
    if knob("max_retries") < 0:
        raise ValueError(f"{prefix}max_retries must be non-negative")
    if knob("wash_time") < 0:
        raise ValueError(f"{prefix}wash_time must be non-negative")
    if knob("workers") < 1:
        raise ValueError(f"{prefix}workers must be at least 1")


@dataclass(frozen=True)
class MonteCarloConfig:
    """Knobs of one Monte-Carlo verification run.

    Mirrors the ``verify_*`` slice of
    :class:`~repro.synthesis.config.FlowConfig` (see
    :meth:`from_flow_config`) so the stage's cache key and the engine's
    behavior are driven by the same values, and validates them with the
    same rules (:func:`check_knobs`) at construction.  ``workers`` is
    runtime advice: it shards trials across processes without changing a
    single reported value, so it deliberately sits outside the stage cache
    key.
    """

    trials: int = 32
    seed: int = 0
    jitter: str = "none"
    jitter_spread: float = 0.1
    fault_rate: float = 0.0
    channel_fault_rate: float = 0.0
    max_retries: int = 1
    wash_time: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        check_knobs(self)

    @classmethod
    def from_flow_config(cls, config: Any) -> "MonteCarloConfig":
        """Build the engine config from a ``FlowConfig``'s verify fields."""
        return cls(
            trials=config.verify_trials,
            seed=config.verify_seed,
            jitter=config.verify_jitter,
            jitter_spread=config.verify_jitter_spread,
            fault_rate=config.verify_fault_rate,
            channel_fault_rate=config.verify_channel_fault_rate,
            max_retries=config.verify_max_retries,
            wash_time=config.verify_wash_time,
            workers=config.verify_workers,
        )


class TrialResult(NamedTuple):
    """Outcome of one stochastic replay.

    A named tuple rather than a frozen dataclass: the batched engine builds
    a run's detail with one ``map(TrialResult._make, rows)``, where a
    frozen dataclass pays one ``object.__setattr__`` per field.
    """

    trial: int
    makespan: int
    faults_injected: int
    faults_recovered: int
    retries: int
    migrations: int
    reroutes: int
    washes: int

    @property
    def recovered(self) -> bool:
        """True when every injected device fault was recovered."""
        return self.faults_recovered == self.faults_injected


#: Columns of a packed detail row: the :class:`TrialResult` fields.
_DETAIL_COLUMNS = len(TrialResult._fields)
_INT32 = np.iinfo(np.int32)


class TrialDetail(Sequence):
    """A run's per-trial detail: one ``(trials x 8)`` integer matrix.

    Reads as the ``List[TrialResult]`` it packs (``len``, indexing,
    slicing, iteration, and ``==`` with such a list in either direction),
    but the :class:`TrialResult` list is built only on the first element
    read, and memoized.  A pickle holds only the matrix, narrowed to int32
    when every value fits (a 1024-trial run: 33 KB, against 66 KB as int64
    and 25 KB, 100x slower to pickle, as a list of named tuples).
    """

    __slots__ = ("rows", "_trials")

    def __init__(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows).reshape(-1, _DETAIL_COLUMNS)
        if rows.dtype != np.int32 and (
            rows.size == 0 or _INT32.min <= rows.min() and rows.max() <= _INT32.max
        ):
            rows = rows.astype(np.int32)
        self.rows = np.ascontiguousarray(rows)
        self._trials: Optional[List[TrialResult]] = None

    def _list(self) -> List[TrialResult]:
        if self._trials is None:
            self._trials = list(map(TrialResult._make, self.rows.tolist()))
        return self._trials

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, index: Any) -> Any:
        return self._list()[index]

    def __iter__(self) -> Iterator[TrialResult]:
        return iter(self._list())

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, TrialDetail):
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, list):
            return self._list() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable-list semantics

    def __repr__(self) -> str:
        return f"TrialDetail({self._list()!r})"

    def __reduce__(self) -> Tuple[Any, Tuple[np.ndarray]]:
        return TrialDetail, (self.rows,)


@dataclass
class TrialAggregate:
    """Streaming summary of many trials: sorted makespans + counter sums.

    This is what shards ship back to the coordinator and what the report
    computes its statistics from, so the full per-trial object list never
    has to exist for large runs.  ``sorted_makespans`` is ascending.
    """

    count: int = 0
    sorted_makespans: List[int] = field(default_factory=list)
    makespan_sum: int = 0
    faults_injected: int = 0
    faults_recovered: int = 0
    retries: int = 0
    migrations: int = 0
    reroutes: int = 0
    washes: int = 0

    @classmethod
    def from_trials(cls, trials: List[TrialResult]) -> "TrialAggregate":
        """Aggregate a trial list in one pass (one sort, one scan)."""
        return cls(
            count=len(trials),
            sorted_makespans=sorted(t.makespan for t in trials),
            makespan_sum=sum(t.makespan for t in trials),
            faults_injected=sum(t.faults_injected for t in trials),
            faults_recovered=sum(t.faults_recovered for t in trials),
            retries=sum(t.retries for t in trials),
            migrations=sum(t.migrations for t in trials),
            reroutes=sum(t.reroutes for t in trials),
            washes=sum(t.washes for t in trials),
        )

    @classmethod
    def merged(cls, parts: List["TrialAggregate"]) -> "TrialAggregate":
        """Merge shard aggregates; the result is shard-order independent."""
        spans: List[int] = []
        for part in parts:
            spans.extend(part.sorted_makespans)
        spans.sort()
        return cls(
            count=sum(p.count for p in parts),
            sorted_makespans=spans,
            makespan_sum=sum(p.makespan_sum for p in parts),
            faults_injected=sum(p.faults_injected for p in parts),
            faults_recovered=sum(p.faults_recovered for p in parts),
            retries=sum(p.retries for p in parts),
            migrations=sum(p.migrations for p in parts),
            reroutes=sum(p.reroutes for p in parts),
            washes=sum(p.washes for p in parts),
        )


@dataclass
class VerificationReport:
    """Aggregate of all trials: the distribution the stage reports.

    Percentiles use the nearest-rank method (``sorted[ceil(q/100*n)-1]``),
    which guarantees ``p50 <= p95 <= p99`` and that every reported value
    is an actually-observed makespan.  Statistics are served from a
    :class:`TrialAggregate` computed once (the makespans are sorted a
    single time, at aggregation), not by re-sorting ``trials`` per call.
    ``trials`` carries per-trial detail only for runs at or below
    :data:`TRIAL_DETAIL_LIMIT`; use :attr:`trial_count` for the number of
    trials actually executed.  The engine stores it packed, as a
    :class:`TrialDetail`, which builds its :class:`TrialResult` list on
    the first element read.
    """

    trials: Sequence[TrialResult]  # a TrialDetail from the engine
    deterministic_makespan: int
    violations: List[str] = field(default_factory=list)
    aggregate: Optional[TrialAggregate] = None

    def __post_init__(self) -> None:
        if self.aggregate is None:
            self.aggregate = TrialAggregate.from_trials(self.trials)

    @property
    def trial_count(self) -> int:
        """Number of trials executed (== ``len(trials)`` unless elided)."""
        return self.aggregate.count

    def _percentile(self, q: int) -> int:
        spans = self.aggregate.sorted_makespans
        rank = max(1, -(-(q * len(spans)) // 100))
        return spans[min(rank, len(spans)) - 1]

    @property
    def makespan_p50(self) -> int:
        """Median trial makespan (nearest rank)."""
        return self._percentile(50)

    @property
    def makespan_p95(self) -> int:
        """95th-percentile trial makespan (nearest rank)."""
        return self._percentile(95)

    @property
    def makespan_p99(self) -> int:
        """99th-percentile trial makespan (nearest rank)."""
        return self._percentile(99)

    @property
    def makespan_mean(self) -> float:
        """Mean trial makespan."""
        return self.aggregate.makespan_sum / self.aggregate.count

    @property
    def makespan_max(self) -> int:
        """Worst observed trial makespan."""
        return self.aggregate.sorted_makespans[-1]

    @property
    def faults_injected(self) -> int:
        """Device faults injected across all trials."""
        return self.aggregate.faults_injected

    @property
    def faults_recovered(self) -> int:
        """Device faults recovered (retry or migration) across all trials."""
        return self.aggregate.faults_recovered

    @property
    def recovery_rate(self) -> float:
        """Recovered / injected device faults (1.0 when none injected)."""
        injected = self.faults_injected
        return 1.0 if injected == 0 else self.faults_recovered / injected

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary for batch/service payloads."""
        agg = self.aggregate
        return {
            "trials": agg.count,
            "deterministic_makespan": self.deterministic_makespan,
            "makespan_p50": self.makespan_p50,
            "makespan_p95": self.makespan_p95,
            "makespan_p99": self.makespan_p99,
            "makespan_mean": round(self.makespan_mean, 3),
            "makespan_max": self.makespan_max,
            "faults_injected": agg.faults_injected,
            "faults_recovered": agg.faults_recovered,
            "recovery_rate": round(self.recovery_rate, 6),
            "reroutes": agg.reroutes,
            "retries": agg.retries,
            "migrations": agg.migrations,
            "washes": agg.washes,
            "violations": list(self.violations),
        }


class ReplayPlan:
    """The replay lowered to integer-indexed arrays, built once per engine.

    Compiling the plan hoists everything that does not depend on the
    trial's random draws out of the per-trial loop:

    * device-bound entries in processing order, with their scheduled
      starts, durations and device indices as flat arrays;
    * a CSR predecessor structure (``pred_indptr``/``pred_pos``) listing,
      for each entry, the *earlier* device-bound parents — exactly the
      parents the scalar replay visits — plus each edge's static
      precedence minimum and whether it crosses devices (bindings move
      only on a fault), and its ``"channel"`` draw counter;
    * static wash predicates (in a fault-free replay the device occupancy
      sequence is schedule-determined, so "previous occupant is not a
      direct predecessor" is a compile-time fact per entry), and an
      ``(entry x previous occupant)`` wash table for the fault path, where
      migrations make the occupant differ by trial;
    * per-entry spare candidates (compatible devices minus the scheduled
      one, sorted by id so ``np.argmin``'s first-minimum rule reproduces
      the scalar ``min`` tie-break), one shared array per (operation kind,
      scheduled device), and whether an entry has any;
    * the static makespan floor contributed by entries without a device.
    """

    __slots__ = (
        "num_entries",
        "num_devices",
        "transport_time",
        "static_floor",
        "static_wash_count",
        "starts",
        "durations",
        "device",
        "spares",
        "has_spare",
        "latest_start",
        "wash_static",
        "wash_need",
        "entry_op_ids",
        "device_ids",
        "durations_np",
        "pred_indptr",
        "pred_pos",
        "pred_min",
        "edge_moved",
        "edge_counters",
        "jitter_positions",
        "jitter_durations",
    )

    def __init__(self, schedule: Schedule, library: DeviceLibrary) -> None:
        graph: SequencingGraph = schedule.graph
        entries = schedule.entries()
        device_entries = [e for e in entries if e.device_id is not None]
        num_entries = self.num_entries = len(device_entries)
        self.transport_time = schedule.transport_time
        self.static_floor = max(
            (e.end for e in entries if e.device_id is None), default=0
        )

        device_ids = sorted(device.device_id for device in library)
        for entry in device_entries:
            if entry.device_id not in device_ids:
                device_ids.append(entry.device_id)  # defensive: out-of-library binding
        index_of = {device_id: i for i, device_id in enumerate(device_ids)}
        self.device_ids = device_ids
        self.num_devices = len(device_ids)

        pos = {e.op_id: i for i, e in enumerate(device_entries)}
        self.entry_op_ids = [e.op_id for e in device_entries]
        self.starts = [e.start for e in device_entries]
        self.durations = [e.duration for e in device_entries]
        self.device = device = [index_of[e.device_id] for e in device_entries]
        self.latest_start = max(self.starts + [self.static_floor])

        spares: List[np.ndarray] = []
        # One spare array per (op kind, own device): compatible device
        # indices by id, minus the own one.
        spare_arrays: Dict[Tuple[Any, int], np.ndarray] = {}
        parent_rows: List[int] = []  # (entry, device-bound parent) pairs
        parent_cols: List[int] = []
        flat_pos: List[int] = []
        edge_moved: List[bool] = []
        indptr: List[int] = [0]
        wash_static: List[bool] = []
        last_on: Dict[int, int] = {}
        for i, entry in enumerate(device_entries):
            d = device[i]
            parents = [pos[p] for p in graph.predecessors(entry.op_id) if p in pos]
            parent_rows.extend([i] * len(parents))
            parent_cols.extend(parents)
            # The scalar replay skips parents not yet processed — i.e. it
            # visits exactly the device entries with a smaller position.
            # It takes a max and counts reroutes over them, so their order
            # is free.
            for p in parents:
                if p < i:
                    flat_pos.append(p)
                    edge_moved.append(device[p] != d)
            indptr.append(len(flat_pos))
            # Static wash predicate: the fault-free occupancy sequence.
            prev = last_on.get(d)
            wash_static.append(prev is not None and prev not in parents)
            last_on[d] = i
            key = (graph.operation(entry.op_id).kind, d)
            if key not in spare_arrays:
                spare_arrays[key] = np.asarray(
                    [
                        index_of[c]
                        for c in sorted(dev.device_id for dev in library.devices_for(key[0]))
                        if index_of[c] != d
                    ],
                    dtype=np.int64,
                )
            spares.append(spare_arrays[key])
        self.spares = spares
        self.has_spare = np.asarray([s.size > 0 for s in spares], dtype=bool)
        self.wash_static = wash_static
        self.static_wash_count = sum(wash_static)

        # Dynamic wash lookup: ``wash_need[e][p]`` is True when a wash is
        # needed after entry ``p`` ran on the device — not for a direct
        # graph predecessor, nor for the ``num_entries`` "nothing ran yet"
        # sentinel.
        wash_need = np.ones((num_entries, num_entries + 1), dtype=bool)
        wash_need[parent_rows, parent_cols] = False
        wash_need[:, num_entries] = False
        self.wash_need = wash_need

        self.durations_np = np.asarray(self.durations, dtype=np.int64)
        self.pred_indptr = indptr
        self.pred_pos = flat_pos
        self.edge_moved = np.asarray(edge_moved, dtype=bool)
        self.pred_min = [self.transport_time if m else 0 for m in edge_moved]
        edge_child = np.repeat(np.arange(num_entries, dtype=np.uint64), np.diff(indptr))
        self.edge_counters = (edge_child << np.uint64(32)) | np.asarray(
            flat_pos, dtype=np.uint64
        )
        self.jitter_positions = np.nonzero(self.durations_np > 0)[0]
        self.jitter_durations = tuple(d for d in self.durations if d > 0)


@dataclass
class _ShardOutcome:
    """What one trial-range replay ships back to the coordinator."""

    aggregate: TrialAggregate
    #: ``(trials x 8)`` int64 rows in :class:`TrialResult` field order
    #: (no rows when the run keeps no detail).
    detail: np.ndarray
    notes: List[str]
    notes_total: int
    #: Serialized spans recorded inside the shard worker (empty unless the
    #: coordinator was tracing); absorbed into the parent recorder.
    spans: List[Dict[str, Any]] = field(default_factory=list)


#: Diagnostic kinds of the batched kernels' ``(kind, entry, trial)`` note
#: arrays: a wash (payload: the pushed start) and an unrecovered fault
#: (payload: the faulted spare's device index, or -1 when none existed).
#: Wash sorts first, as the scalar engine notes it first.
_WASH, _FAULT = 0, 1


def _format_note(plan: ReplayPlan, trial: int, e: int, kind: int, payload: int) -> str:
    """The scalar engine's wording of one batched-kernel diagnostic."""
    device = plan.device_ids[plan.device[e]]
    op_id = plan.entry_op_ids[e]
    if kind == _WASH:
        return (
            f"trial {trial}: wash on {device!r} pushes {op_id!r} past its "
            f"scheduled start ({plan.starts[e]} -> {payload})"
        )
    cause = (
        f"spare {plan.device_ids[payload]!r} faulted too"
        if payload >= 0
        else "no compatible spare"
    )
    return f"trial {trial}: fault on {device!r} for {op_id!r} unrecovered ({cause})"


def _replay_work(plan: ReplayPlan, config: MonteCarloConfig) -> int:
    """A run's replay cost in entry-trials, faulted ones ``_FAULT_WORK`` times."""
    faulted = config.fault_rate > 0 or config.channel_fault_rate > 0
    return config.trials * plan.num_entries * (_FAULT_WORK if faulted else 1)


def _shard_bounds(trials: int, workers: int, work: int) -> List[Tuple[int, int]]:
    """Split ``range(trials)`` into at most ``workers`` contiguous shards,
    each worth at least ``MIN_SHARD_WORK`` of the run's ``work``."""
    shards = min(max(1, workers), trials, max(1, work // MIN_SHARD_WORK))
    if shards <= 1:
        return [(0, trials)]
    base, extra = divmod(trials, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _replay_shard(
    schedule: Schedule,
    library: DeviceLibrary,
    config: MonteCarloConfig,
    lo: int,
    hi: int,
    trace: Optional[str] = None,
) -> _ShardOutcome:
    """Process-pool entry point: replay one trial index range.

    ``trace`` is the coordinator's serialized span context; when present the
    shard records a ``verify:shard`` span into a child recorder and ships
    the serialized spans back inside the outcome, so a sharded run's
    timeline nests under the coordinator's verify span.
    """
    if trace is None:
        return MonteCarloEngine(schedule, library, config)._run_range(lo, hi)
    child = TraceRecorder(parent=SpanContext.deserialize(trace))
    token = install_recorder(child)
    try:
        with obs_span("verify:shard", category="verify", lo=lo, hi=hi):
            outcome = MonteCarloEngine(schedule, library, config)._run_range(
                lo, hi
            )
    finally:
        uninstall_recorder(token)
    outcome.spans = child.serialized_spans()
    return outcome


def _time_dtype(plan: ReplayPlan, longest: int, burns: int, fixed: int) -> Any:
    """The dtype of a kernel's state: int32 when its times fit, else int64.

    No replayed entry ends more than ``fixed + burns x d`` after the latest
    of its scheduled start and every earlier entry's end, where ``d`` is
    the ``longest`` duration a draw can give, so no time a kernel holds
    exceeds ``latest_start + entries x (fixed + burns x d)``.
    """
    bound = plan.latest_start + plan.num_entries * (fixed + burns * longest)
    return np.int32 if bound <= _INT32.max else np.int64


def _column_counts(mask: np.ndarray) -> np.ndarray:
    """Per-trial number of set rows of a bool ``(rows x trials)`` mask.

    Summed as bytes into a narrow accumulator: bool's own ``sum`` widens
    every element to int64 first, several times slower.
    """
    wide = np.uint16 if mask.shape[0] < 1 << 16 else np.int64
    return np.add.reduce(mask.view(np.uint8), axis=0, dtype=wide)


def _resolve_faults(
    fault_hit: np.ndarray,
    max_retries: int,
    has_spare: np.ndarray,
    counts: np.ndarray,
    unrecovered: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every entry-trial's device-fault outcome, from the fault draws alone.

    ``fault_hit`` is the ``"fault"`` event mask, ``max_retries + 2`` rows
    per entry.  An entry-trial faults on attempt 0; its retries stop at the
    first that does not fault, so the number it burns and whether one
    recovered follow from a running AND of the retry rows, one pass per
    retry.  A fault no retry recovers migrates to a spare when the entry
    has one, else it is unrecovered and burns one more duration in place;
    a migrated trial is unrecovered when its spare faults too (the last
    row).

    Fills the faults, recovered, retries and migrations rows of
    ``counts`` and the ``unrecovered`` flags, and returns ``(burns,
    migrating, bad)``: durations burned on the scheduled device, the
    migrating entry-trials, and those whose spare faulted as well.
    """
    num_entries = has_spare.size
    hits = fault_hit.reshape(num_entries, max_retries + 2, -1)
    faulted = hits[:, 0]
    counts[0] = _column_counts(faulted)
    if max_retries == 0:
        unresolved = faulted
        burns = np.zeros(faulted.shape, dtype=np.int32)
    else:
        # ``unresolved`` is, after retry ``a``, "faulted, and every retry
        # up to ``a`` faulted too": exactly those try retry ``a + 1``.
        burns = faulted.astype(np.int32)
        counts[2] = counts[0]
        unresolved = faulted & hits[:, 1]
        for a in range(2, max_retries + 1):
            burns += unresolved
            counts[2] += _column_counts(unresolved)
            unresolved &= hits[:, a]
    spare = has_spare[:, None]
    migrating = unresolved & spare
    stuck = unresolved & ~spare
    bad = migrating & hits[:, max_retries + 1]
    counts[3] = _column_counts(migrating)
    counts[1] = counts[0] - _column_counts(stuck) - _column_counts(bad)
    np.logical_or(stuck, bad, out=unrecovered)
    burns += 1
    burns += stuck
    return burns, migrating, bad


class MonteCarloEngine:
    """Replays one schedule ``config.trials`` times under perturbations.

    The replay is a right-shift retiming over the deterministic processing
    order (``Schedule.entries()``: sorted by start time, then operation
    id): each operation starts at the latest of its scheduled start, its
    parents' perturbed finish times plus the precedence minimum (zero on
    the same device, one transport time otherwise, plus any reroute
    delay), and its device's availability (plus any wash).  Because every
    lower bound includes the scheduled start and every perturbation only
    adds time, the zero-perturbation replay reproduces the deterministic
    schedule exactly and perturbed replays are pointwise monotone.

    Three interchangeable executions produce byte-identical reports: the
    vectorized fault-free fast path, the masked batched kernel (used
    whenever faults are enabled), and the scalar reference (forced with
    ``REPRO_MC_SCALAR=1``).  All three read the same addressed draws of
    the counter-based generator, so ``config.workers`` shards the trial
    range across processes without changing any reported value.
    """

    def __init__(
        self,
        schedule: Schedule,
        library: DeviceLibrary,
        config: Optional[MonteCarloConfig] = None,
    ) -> None:
        self.schedule = schedule
        self.library = library
        self.config = config or MonteCarloConfig()
        self.graph: SequencingGraph = schedule.graph
        self._plan: Optional[ReplayPlan] = None

    # ------------------------------------------------------------------ API
    def run(self) -> VerificationReport:
        """Run all trials (sharded if configured) and aggregate a report."""
        cfg = self.config
        with obs_span("verify:mc", category="verify", trials=cfg.trials) as mc:
            work = _replay_work(self.plan(), cfg) if cfg.workers > 1 else 0
            bounds = _shard_bounds(cfg.trials, cfg.workers, work)
            mc.set(shards=len(bounds))
            if len(bounds) <= 1:
                outcomes = [self._run_range(0, cfg.trials)]
            else:
                ctx = current_context()
                trace_wire = ctx.serialize() if ctx is not None else None
                with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
                    futures = [
                        pool.submit(
                            _replay_shard,
                            self.schedule,
                            self.library,
                            cfg,
                            lo,
                            hi,
                            trace_wire,
                        )
                        for lo, hi in bounds
                    ]
                    outcomes = [f.result() for f in futures]
            rec = recorder()
            if rec is not None:
                for outcome in outcomes:
                    rec.absorb(outcome.spans)
            obs_metrics.mc_trials_counter().inc(cfg.trials)

        aggregate = TrialAggregate.merged([o.aggregate for o in outcomes])
        detail = TrialDetail(np.concatenate([o.detail for o in outcomes]))

        violations: List[str] = []
        notes_total = 0
        for outcome in outcomes:
            notes_total += outcome.notes_total
            for note in outcome.notes:
                if len(violations) >= MAX_DIAGNOSTICS:
                    break
                violations.append(note)
        if notes_total > MAX_DIAGNOSTICS:
            violations.append(f"... +{notes_total - MAX_DIAGNOSTICS} more")

        return VerificationReport(
            trials=detail,
            deterministic_makespan=self.schedule.makespan,
            violations=violations,
            aggregate=aggregate,
        )

    # ------------------------------------------------------------- dispatch
    def plan(self) -> ReplayPlan:
        """The compiled replay plan (built lazily, reused across shards)."""
        if self._plan is None:
            with obs_span("verify:plan", category="verify"):
                self._plan = ReplayPlan(self.schedule, self.library)
        return self._plan

    def _run_range(self, lo: int, hi: int) -> _ShardOutcome:
        """Replay trials ``[lo, hi)`` with the fastest applicable kernel."""
        cfg = self.config
        keep_detail = cfg.trials <= TRIAL_DETAIL_LIMIT
        if os.environ.get(_SCALAR_ENV) == "1":
            return self._run_range_reference(lo, hi, keep_detail)
        return self._run_range_batched(lo, hi, keep_detail)

    @staticmethod
    def _collect(
        trials: List[TrialResult],
        notes_per_trial: List[List[str]],
        keep_detail: bool,
    ) -> _ShardOutcome:
        """Fold per-trial results into a shard outcome (capped notes)."""
        notes: List[str] = []
        notes_total = 0
        for trial_notes in notes_per_trial:
            notes_total += len(trial_notes)
            if len(notes) < MAX_DIAGNOSTICS:
                notes.extend(trial_notes[: MAX_DIAGNOSTICS - len(notes)])
        rows = np.array(trials if keep_detail else [], dtype=np.int64)
        return _ShardOutcome(
            aggregate=TrialAggregate.from_trials(trials),
            detail=rows.reshape(-1, _DETAIL_COLUMNS),
            notes=notes,
            notes_total=notes_total,
        )

    # --------------------------------------------------- scalar (reference)
    def _run_range_reference(
        self, lo: int, hi: int, keep_detail: bool
    ) -> _ShardOutcome:
        """The original per-trial dict-based engine (``REPRO_MC_SCALAR=1``)."""
        trials: List[TrialResult] = []
        notes_per_trial: List[List[str]] = []
        for index in range(lo, hi):
            trial, notes = self._run_trial(index)
            trials.append(trial)
            notes_per_trial.append(notes)
        return self._collect(trials, notes_per_trial, keep_detail)

    # -------------------------------------------------------------- draws
    def _block_draws(
        self, plan: ReplayPlan, lo: int, hi: int, dtype: Any
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Every draw of trials ``[lo, hi)``, trial-minor.

        Returns the jittered ``(entries x trials)`` durations in ``dtype``
        and the ``"fault"`` and ``"channel"`` event masks, one row per draw
        address: attempt ``a`` of entry ``e`` is row ``e * (max_retries +
        2) + a`` of the fault mask and precedence edge ``k`` row ``k`` of
        the channel mask, each ``True`` where the scalar engine's double
        lies below the stream's rate.  A stream whose rate is zero is not
        drawn (``None``).
        """
        cfg = self.config
        fault_hit = channel_hit = None
        if cfg.fault_rate > 0:
            fault_hit = uniform_block(
                derive_seed_block(cfg.seed, "fault", lo, hi),
                np.arange(plan.num_entries * (cfg.max_retries + 2)),
                below=cfg.fault_rate,
            )
        if cfg.channel_fault_rate > 0:
            channel_hit = uniform_block(
                derive_seed_block(cfg.seed, "channel", lo, hi),
                plan.edge_counters,
                below=cfg.channel_fault_rate,
            )
        return self._duration_matrix(plan, lo, hi, dtype), fault_hit, channel_hit

    def _longest_duration(self, plan: ReplayPlan) -> int:
        """The longest duration any jitter draw can give on ``plan``."""
        cfg = self.config
        longest = int(plan.durations_np.max(initial=0))
        if cfg.jitter == "uniform":
            # 1 + spread x u never exceeds 1 + spread, in float64 too.
            return round(longest * (1.0 + cfg.jitter_spread))
        if cfg.jitter == "normal" and plan.jitter_durations:
            return _normal_tables(plan.jitter_durations, cfg.jitter_spread).longest
        return longest

    def _duration_matrix(
        self, plan: ReplayPlan, lo: int, hi: int, dtype: Any
    ) -> np.ndarray:
        """Jittered ``(entries x trials)`` durations for ``[lo, hi)``, in ``dtype``.

        Bit-identical to the scalar ``_jittered``: the same ``"jitter"``
        draw per entry-trial at counter ``2e``.  Uniform jitter applies its
        factor in float64 and rounds half to even (``np.rint`` ==
        ``round``); the factor is at least 1, so the result is never below
        the nominal duration.  Normal jitter reads the inverse-CDF tables
        of :func:`_normal_tables`.  Returns a read-only broadcast when
        jitter is off.
        """
        cfg = self.config
        nominal = plan.durations_np.astype(dtype)[:, None]
        positions = plan.jitter_positions
        if cfg.jitter == "none" or positions.size == 0:
            return np.broadcast_to(nominal, (plan.num_entries, hi - lo))
        u = uniform_block(derive_seed_block(cfg.seed, "jitter", lo, hi), 2 * positions)
        if cfg.jitter == "uniform":
            u *= cfg.jitter_spread
            u += 1.0
            u *= nominal[positions]
            inflated = np.rint(u, out=u).astype(dtype)
        else:
            tables = _normal_tables(plan.jitter_durations, cfg.jitter_spread)
            inflated = _normal_durations(tables, u, dtype)
        if positions.size == plan.num_entries:  # no zero-duration entry
            return inflated
        durations = np.zeros((plan.num_entries, hi - lo), dtype=dtype)
        durations[positions] = inflated  # the other entries take no time
        return durations

    # ------------------------------------------------------ batched kernels
    def _run_range_batched(
        self, lo: int, hi: int, keep_detail: bool
    ) -> _ShardOutcome:
        """Replay ``[lo, hi)`` in blocks of :data:`VECTOR_BLOCK_TRIALS`.

        A block kernel takes the block's draws and returns its ``(entries
        x trials)`` finish times, its ``(6 x trials)`` counters (faults,
        recovered, retries, migrations, reroutes, washes — the
        :class:`TrialResult` field order) and its diagnostics as a
        ``(kind, entry, trial)`` mask plus payloads of the same shape; this
        loop merges the blocks.  The kernels' dtype is picked once per run
        from the longest duration a draw can give (:func:`_time_dtype`),
        and every block's durations are built in it.
        """
        cfg = self.config
        plan = self.plan()
        transport, wash_time = plan.transport_time, cfg.wash_time
        if cfg.fault_rate == 0.0 and cfg.channel_fault_rate == 0.0:
            kernel = self._block_fault_free
            burns, fixed = 1, transport + wash_time
        else:
            kernel = self._block_masked
            burns, fixed = cfg.max_retries + 3, 3 * transport + wash_time
        dtype = _time_dtype(plan, self._longest_duration(plan), burns, fixed)
        # Empty seeds keep an empty trial range well-formed.
        makespan_parts = [np.empty(0, dtype=np.int64)]
        count_parts = [np.zeros((6, 0), dtype=np.int64)]
        notes: List[str] = []
        notes_total = 0
        for block_lo in range(lo, hi, VECTOR_BLOCK_TRIALS):
            block_hi = min(block_lo + VECTOR_BLOCK_TRIALS, hi)
            with obs_span("verify:draws", category="verify", lo=block_lo, hi=block_hi):
                draws = self._block_draws(plan, block_lo, block_hi, dtype)
            with obs_span("verify:replay", category="verify", lo=block_lo, hi=block_hi):
                finish, counts, flagged, payload = kernel(plan, *draws)
            makespan_parts.append(finish.max(axis=0, initial=plan.static_floor))
            count_parts.append(counts)
            notes_total += int(np.count_nonzero(flagged))
            room = MAX_DIAGNOSTICS - len(notes)
            if room > 0:
                # Only the first ``room`` trials with a note can be kept, and
                # flat indices over their (trial, entry, kind) view come out
                # in the scalar engine's note order: by trial, then entry,
                # wash before fault.  Viewing just those trials avoids a
                # strided copy of the whole block's mask.
                noted = np.flatnonzero(flagged.any(axis=(0, 1)))[:room]
                hits = np.flatnonzero(flagged[:, :, noted].transpose(2, 1, 0))
                for flat in hits[:room].tolist():
                    i, rest = divmod(flat, 2 * plan.num_entries)
                    e, kind = divmod(rest, 2)
                    t = int(noted[i])
                    notes.append(
                        _format_note(plan, block_lo + t, e, kind, int(payload[kind, e, t]))
                    )

        makespans = np.concatenate(makespan_parts)
        counts = np.concatenate(count_parts, axis=1)
        detail = np.empty((0, _DETAIL_COLUMNS), dtype=np.int64)
        if keep_detail:
            detail = np.vstack([np.arange(lo, hi), makespans, counts]).T
        aggregate = TrialAggregate(
            hi - lo,
            np.sort(makespans).tolist(),
            int(makespans.sum()),
            *counts.sum(axis=1).tolist(),
        )
        return _ShardOutcome(aggregate, detail, notes, notes_total)

    def _block_fault_free(
        self, plan: ReplayPlan, durations: np.ndarray, *_no_fault_draws: None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fault-free block: elementwise numpy passes over the trial axis.

        Without faults the device bindings never move, so every trial
        shares the plan's static precedence minima and wash predicates and
        only the jittered durations differ — which makes the whole replay
        a sequence of max/add vector operations, one short pass per entry.
        Its only diagnostics are washes, whose payload row is the pushed
        availability itself.
        """
        wash_time = self.config.wash_time
        num_entries, block = durations.shape
        dtype = durations.dtype
        indptr, pred_pos, pred_min = plan.pred_indptr, plan.pred_pos, plan.pred_min
        finish = np.empty((num_entries, block), dtype=dtype)
        avail = np.zeros((plan.num_devices, block), dtype=dtype)
        flagged = np.zeros((2, num_entries, block), dtype=bool)
        payload = np.empty((2, num_entries, block), dtype=dtype)
        scratch = np.empty(block, dtype=dtype)
        for e in range(num_entries):
            end = finish[e]
            end.fill(plan.starts[e])
            for k in range(indptr[e], indptr[e + 1]):
                if pred_min[k]:
                    np.add(finish[pred_pos[k]], pred_min[k], out=scratch)
                    np.maximum(end, scratch, out=end)
                else:
                    np.maximum(end, finish[pred_pos[k]], out=end)
            d = plan.device[e]
            entry_avail = avail[d]
            if wash_time > 0 and plan.wash_static[e]:
                entry_avail = payload[_WASH, e]
                np.add(avail[d], wash_time, out=entry_avail)
                np.greater(entry_avail, plan.starts[e], out=flagged[_WASH, e])
            np.maximum(end, entry_avail, out=end)
            end += durations[e]
            # end >= entry_avail >= the previous availability, so a
            # straight assignment preserves the max semantics.
            avail[d] = end
        counts = np.zeros((6, block), dtype=np.int64)
        if wash_time > 0:
            counts[5] = plan.static_wash_count
        return finish, counts, flagged, payload

    def _block_masked(
        self,
        plan: ReplayPlan,
        durations: np.ndarray,
        fault_hit: Optional[np.ndarray],
        channel_hit: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fault-path block: per-trial masks over the trial axis.

        A retry's outcome depends only on the fault draws, so
        :func:`_resolve_faults` decides every entry-trial's outcome for
        the whole block before the entry walk, as matrices: the durations
        each entry-trial burns on its scheduled device, the trials that
        migrate to a spare, and the device-fault counters.  The walk then
        applies the same update to every trial of an entry (precedence,
        wash, burned durations, device commit) and touches only the trials
        migrating there: their spare pick, their end and the spare's
        availability and last occupant, read and written through flat
        indices.  A migrated trial's repair window is the ordinary commit,
        since every trial's end is at least its device's availability.
        Bindings move only on migrating trials, so an edge or a device no
        migration has touched keeps its static minimum or wash predicate.
        Reroutes and washes are counted after the walk, from a per-edge
        ``moved`` matrix and a per-entry wash-need matrix.
        """
        cfg = self.config
        transport = plan.transport_time
        wash_time = cfg.wash_time
        num_entries, block = durations.shape
        device, starts = plan.device, plan.starts
        indptr, pred_pos = plan.pred_indptr, plan.pred_pos
        edge_moved = plan.edge_moved.tolist()
        dtype = durations.dtype

        counts = np.zeros((6, block), dtype=np.int64)
        flagged = np.zeros((2, num_entries, block), dtype=bool)
        payload = np.empty((2, num_entries, block), dtype=dtype)
        if fault_hit is None:
            work = durations
            migrating_at = trial_of = np.empty(0, dtype=np.intp)
            tail = np.empty(0, dtype=dtype)
        else:
            burns, migrating, bad = _resolve_faults(
                fault_hit, cfg.max_retries, plan.has_spare, counts, flagged[_FAULT]
            )
            work = np.multiply(durations, burns, dtype=dtype)
            payload[_FAULT, ~plan.has_spare] = -1
            migrating_at = np.flatnonzero(migrating)
            trial_of = migrating_at % block
            # A migrated trial runs once more on the spare, twice if the
            # spare faults too.
            tail = np.multiply(
                np.ascontiguousarray(durations).reshape(-1)[migrating_at],
                1 + bad.reshape(-1)[migrating_at],
                dtype=dtype,
            )
        # Migrating trials of entry e: migrating_at[offsets[e]:offsets[e + 1]].
        offsets = np.searchsorted(
            migrating_at, np.arange(num_entries + 1) * block
        ).tolist()
        spare_of = np.empty(migrating_at.size, dtype=dtype)

        finish = np.empty((num_entries, block), dtype=dtype)
        avail = np.zeros((plan.num_devices, block), dtype=dtype)
        last = np.full((plan.num_devices, block), num_entries, dtype=dtype)
        avail_flat, last_flat = avail.reshape(-1), last.reshape(-1)
        # Rows only for entries with a migrating trial; others are bound
        # to their scheduled device in every trial.
        bound = np.empty((num_entries, block), dtype=dtype)
        dirty = [False] * plan.num_devices  # last occupant differs by trial
        scratch = np.empty(block, dtype=dtype)
        if channel_hit is None:
            delay = None
            moved = np.empty((1, block), dtype=bool)
        else:
            # A moved edge's minimum: one transport, two when rerouted.
            delay = np.multiply(channel_hit, transport, dtype=dtype)
            delay += transport
            moved = np.repeat(plan.edge_moved[:, None], block, axis=1)
        need = None
        if wash_time > 0:
            need = np.repeat(np.asarray(plan.wash_static)[:, None], block, axis=1)

        for e in range(num_entries):
            dev, start = device[e], starts[e]
            end = finish[e]
            end.fill(start)
            for k in range(indptr[e], indptr[e + 1]):
                p = pred_pos[k]
                delay_k = transport if delay is None else delay[k]
                if offsets[p] < offsets[p + 1]:
                    moved_k = moved[0] if delay is None else moved[k]
                    np.not_equal(bound[p], dev, out=moved_k)
                    np.multiply(moved_k, delay_k, out=scratch)
                    scratch += finish[p]
                elif edge_moved[k]:
                    np.add(finish[p], delay_k, out=scratch)
                else:
                    np.maximum(end, finish[p], out=end)
                    continue
                np.maximum(end, scratch, out=end)

            entry_avail = avail[dev]
            if need is not None and (dirty[dev] or plan.wash_static[e]):
                entry_avail = payload[_WASH, e]
                wash_flag = flagged[_WASH, e]
                if dirty[dev]:
                    need_e = need[e]
                    np.take(plan.wash_need[e], last[dev], out=need_e)
                    np.multiply(need_e, wash_time, out=entry_avail)
                    entry_avail += avail[dev]
                    np.greater(entry_avail, start, out=wash_flag)
                    wash_flag &= need_e
                else:
                    np.add(avail[dev], wash_time, out=entry_avail)
                    np.greater(entry_avail, start, out=wash_flag)
            np.maximum(end, entry_avail, out=end)
            end += work[e]

            lo, hi = offsets[e], offsets[e + 1]
            if lo < hi:
                trials = trial_of[lo:hi]
                spares = plan.spares[e]
                spare_avail = avail_flat[spares[:, None] * block + trials]
                if spares.size == 1:
                    spare = np.full(hi - lo, spares[0])
                    picked_avail = spare_avail[0]
                else:
                    pick = spare_avail.argmin(axis=0)
                    spare = spares[pick]
                    picked_avail = np.minimum.reduce(spare_avail, axis=0)
                moved_end = end[trials]
                moved_end += transport
                np.maximum(moved_end, picked_avail, out=moved_end)
                moved_end += tail[lo:hi]
                end[trials] = moved_end
                at_spare = spare * block + trials
                avail_flat[at_spare] = moved_end  # >= the spare's availability
                bound[e].fill(dev)
                bound[e][trials] = spare
                spare_of[lo:hi] = spare
                kept = last[dev][trials]
                dirty[dev] = True
                for d in spares.tolist():
                    dirty[d] = True
            # Commit, and the repair window of the trials that migrated.
            avail[dev] = end
            last[dev].fill(e)
            if lo < hi:
                last[dev][trials] = kept
                last_flat[at_spare] = e

        payload[_FAULT].reshape(-1)[migrating_at] = spare_of
        if channel_hit is not None:
            counts[4] = _column_counts(moved & channel_hit)
        if need is not None:
            counts[5] = _column_counts(need)
        return finish, counts, flagged, payload

    # ---------------------------------------------------------------- trial
    def _jittered(self, key: int, e: int, duration: int) -> int:
        """Inflate entry ``e``'s ``duration`` (identity when jitter is off)."""
        cfg = self.config
        if cfg.jitter == "none" or duration == 0:
            return duration
        u = _draw(key, 2 * e)
        if cfg.jitter == "uniform":
            return max(duration, int(round(duration * (1.0 + cfg.jitter_spread * u))))
        return duration + _normal_steps(u, duration, cfg.jitter_spread)

    def _run_trial(self, index: int) -> Tuple[TrialResult, List[str]]:
        """One stochastic replay; returns the trial and its diagnostics.

        This is the scalar reference implementation the fast paths are
        differentially tested against — keep it boring and readable.
        """
        cfg = self.config
        jitter_key = _trial_key(cfg.seed, "jitter", index)
        fault_key = _trial_key(cfg.seed, "fault", index)
        channel_key = _trial_key(cfg.seed, "channel", index)
        attempts = cfg.max_retries + 2
        transport = self.schedule.transport_time

        finish: Dict[str, int] = {}
        bound: Dict[str, str] = {}
        device_avail: Dict[str, int] = {}
        device_last_op: Dict[str, Optional[str]] = {}
        ordinal: Dict[str, int] = {}  # device-entry ordinal, the draw address
        notes: List[str] = []
        faults = recovered = retries = migrations = reroutes = washes = 0

        for entry in self.schedule.entries():
            if entry.device_id is None:
                finish[entry.op_id] = entry.end
                continue
            op = self.graph.operation(entry.op_id)
            e = ordinal[entry.op_id] = len(ordinal)
            duration = self._jittered(jitter_key, e, entry.duration)

            # Precedence lower bound over device-bound parents, with
            # channel-fault reroutes adding one transport per faulted edge.
            ready = entry.start
            for parent_id in sorted(self.graph.predecessors(entry.op_id)):
                if parent_id not in finish or parent_id not in bound:
                    continue
                same = bound[parent_id] == entry.device_id
                minimum = 0 if same else transport
                if (
                    not same
                    and cfg.channel_fault_rate > 0
                    and _draw(channel_key, (e << 32) | ordinal[parent_id])
                    < cfg.channel_fault_rate
                ):
                    minimum += transport
                    reroutes += 1
                ready = max(ready, finish[parent_id] + minimum)

            # Device availability, plus a wash when the previous occupant
            # is not a direct predecessor (contamination model).
            device_id = entry.device_id
            avail = device_avail.get(device_id, 0)
            prev_op = device_last_op.get(device_id)
            if (
                cfg.wash_time > 0
                and prev_op is not None
                and prev_op not in self.graph.predecessors(entry.op_id)
            ):
                avail += cfg.wash_time
                washes += 1
                if avail > entry.start:
                    notes.append(
                        f"trial {index}: wash on {device_id!r} pushes "
                        f"{entry.op_id!r} past its scheduled start "
                        f"({entry.start} -> {avail})"
                    )
            start = max(ready, avail)

            # Fault injection: retry on the faulted device, then migrate.
            end = start + duration
            first = e * attempts
            if cfg.fault_rate > 0 and _draw(fault_key, first) < cfg.fault_rate:
                faults += 1
                ok = False
                for a in range(1, cfg.max_retries + 1):
                    end += duration  # the failed attempt burned a duration
                    retries += 1
                    if _draw(fault_key, first + a) >= cfg.fault_rate:
                        ok = True
                        break
                if ok:
                    recovered += 1
                else:
                    spare = self._pick_spare(op.kind, device_id, device_avail)
                    if spare is not None:
                        migrations += 1
                        end = max(end + transport, device_avail.get(spare, 0))
                        end += duration
                        if _draw(fault_key, first + attempts - 1) >= cfg.fault_rate:
                            recovered += 1
                        else:
                            end += duration  # spare faulted too: best effort
                            notes.append(
                                f"trial {index}: fault on {device_id!r} for "
                                f"{entry.op_id!r} unrecovered (spare "
                                f"{spare!r} faulted too)"
                            )
                        # Repair window: the faulted device stays blocked
                        # until the migrated operation completes, keeping
                        # release times monotone versus the fault-free run.
                        device_avail[device_id] = max(
                            device_avail.get(device_id, 0), end
                        )
                        device_id = spare
                    else:
                        end += duration  # best-effort completion in place
                        notes.append(
                            f"trial {index}: fault on {device_id!r} for "
                            f"{entry.op_id!r} unrecovered (no compatible spare)"
                        )

            finish[entry.op_id] = end
            bound[entry.op_id] = device_id
            device_avail[device_id] = max(device_avail.get(device_id, 0), end)
            device_last_op[device_id] = entry.op_id

        makespan = max(finish.values(), default=0)
        trial = TrialResult(
            trial=index,
            makespan=makespan,
            faults_injected=faults,
            faults_recovered=recovered,
            retries=retries,
            migrations=migrations,
            reroutes=reroutes,
            washes=washes,
        )
        return trial, notes

    def _pick_spare(
        self,
        kind: Any,
        faulted_device: str,
        device_avail: Dict[str, int],
    ) -> Optional[str]:
        """Least-loaded compatible device other than the faulted one."""
        candidates = [
            device.device_id
            for device in self.library.devices_for(kind)
            if device.device_id != faulted_device
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda d: (device_avail.get(d, 0), d))
