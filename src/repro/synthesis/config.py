"""Configuration of the end-to-end synthesis flow."""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import (
    Any,
    Dict,
    Mapping,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.ilp.backends import DEFAULT_BACKEND, backend_names
from repro.simulation.montecarlo import check_knobs


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Mapping[str, Any]:
    """Each dataclass field of ``cls`` mapped to its resolved annotation.

    Expected types come from the field annotations (``from __future__
    import annotations`` makes them strings, resolved here once per class),
    not ``type(field.default)`` — the latter would misfire on any future
    Optional or default_factory field.
    """
    hints = get_type_hints(cls)
    return MappingProxyType({spec.name: hints[spec.name] for spec in fields(cls)})


def _check_value_type(name: str, value: Any, expected: Any) -> Any:
    """Validate a config value loaded from JSON against its field's type.

    Dataclasses do not type-check, so without this a manifest value like
    ``"false"`` would silently become a truthy ``storage_aware``.  Integral
    floats are accepted for int fields (JSON writers often emit ``10.0``),
    ints are widened for float fields; bools are only valid for bool fields.
    ``Optional``/``Union`` annotations are unwrapped: ``None`` passes when
    admitted, otherwise the value may match any member type.
    """
    if get_origin(expected) is Union:
        members = get_args(expected)
        if value is None and type(None) in members:
            return None
        for member in members:
            if member is type(None):
                continue
            try:
                return _check_value_type(name, value, member)
            except ValueError:
                continue
        names = " | ".join(m.__name__ for m in members)
        raise ValueError(f"flow-config field {name!r} expects {names}, got {value!r}")
    if expected is bool:
        if isinstance(value, bool):
            return value
    elif expected is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
    elif expected is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif isinstance(value, expected):
        return value
    raise ValueError(
        f"flow-config field {name!r} expects {expected.__name__}, got {value!r}"
    )


#: ``FlowConfig`` fields that steer *how* a result is computed, never *what*
#: it is: any value produces byte-identical outputs, so cache keys (stage
#: keys and the batch engine's content hash) must exclude them — otherwise
#: changing the worker count would spuriously miss every cached result.
RUNTIME_ADVICE_FIELDS = frozenset({"verify_workers"})


class SchedulerEngine(enum.Enum):
    """Which scheduling engine to run.

    ``AUTO`` uses the exact ILP up to :attr:`FlowConfig.ilp_operation_limit`
    device operations and the storage-aware list heuristic beyond that —
    mirroring the paper's practice of capping the solver and accepting
    best-effort results for the large assays.
    """

    ILP = "ilp"
    LIST = "list"
    AUTO = "auto"


class SynthesisEngine(enum.Enum):
    """Which architectural-synthesis engine to run."""

    HEURISTIC = "heuristic"
    ILP = "ilp"


@dataclass
class FlowConfig:
    """All knobs of the end-to-end flow in one place.

    The defaults reproduce the paper's experimental setup: two mixers,
    transport time ``u_c = 10 s``, a 4x4 connection grid (5x5 for the largest
    assay), objective weights giving completion time priority over storage,
    and a channel pitch of 5 layout units.
    """

    # Devices.
    num_mixers: int = 2
    num_detectors: int = 0
    num_heaters: int = 0

    # Scheduling.
    scheduler: SchedulerEngine = SchedulerEngine.AUTO
    transport_time: int = 10
    alpha: float = 100.0
    beta: float = 1.0
    storage_aware: bool = True
    ilp_time_limit_s: float = 60.0
    ilp_operation_limit: int = 14
    #: Solver backend the scheduling ILP runs on (see
    #: :mod:`repro.ilp.backends`): by default HiGHS, or the dependency-free
    #: branch and bound without scipy.  On either, a time limit that leaves
    #: no better incumbent returns the list-schedule warm start as a
    #: best-effort result instead of aborting.  Participates in the
    #: schedule stage's cache key.
    scheduler_backend: str = DEFAULT_BACKEND
    #: Relative MIP gap passed to *both* ILPs (scheduling and architecture
    #: synthesis); ``None`` solves to optimality within the time caps.
    mip_rel_gap: Optional[float] = None

    # Architectural synthesis.
    synthesis: SynthesisEngine = SynthesisEngine.HEURISTIC
    grid_rows: int = 4
    grid_cols: int = 4
    auto_expand_grid: bool = True
    max_grid_dim: int = 9
    archsyn_time_limit_s: float = 120.0
    #: Solver backend the architecture-synthesis ILP runs on;
    #: same semantics as :attr:`scheduler_backend`, keyed into the archsyn
    #: stage's cache key.
    archsyn_backend: str = DEFAULT_BACKEND
    #: Root seed threaded through the heuristic router's tie-breaking (and
    #: available to synthetic-graph generation via the same derivation
    #: helper, :func:`repro.keys.derive_seed`).  ``0`` keeps the canonical
    #: lexicographic tie-break order that the golden regression pins were
    #: recorded with; any non-zero seed reorders equal-cost routing choices
    #: deterministically and bit-reproducibly across worker processes, which
    #: makes ``seed`` a sweepable axis for routing-diversity experiments.
    seed: int = 0

    # Physical design.
    pitch: float = 5.0
    storage_segment_length: float = 3.0
    min_channel_spacing: float = 1.0

    # Stochastic verification (the optional fourth pipeline stage).
    #: Run the Monte-Carlo verification stage after physical design.  Off by
    #: default: the deterministic three-stage flow (and every golden pin
    #: recorded against it) is unchanged unless a config opts in.
    verify: bool = False
    #: Number of Monte-Carlo trials replayed per verification.
    verify_trials: int = 32
    #: Root seed of the verification trials; each trial derives independent
    #: jitter and fault streams via :func:`repro.keys.derive_seed`, so the
    #: whole distribution is reproducible bit-for-bit across processes.
    verify_seed: int = 0
    #: Duration-jitter distribution: ``"none"`` replays nominal durations,
    #: ``"uniform"`` inflates each duration by ``x(1 + spread*U[0,1])``,
    #: ``"normal"`` by ``x(1 + |N(0, spread)|)``.  Inflation-only by design
    #: so a jittered trial can never beat the deterministic schedule.
    verify_jitter: str = "none"
    #: Spread parameter of the jitter distribution (fraction of nominal).
    verify_jitter_spread: float = 0.1
    #: Per-operation probability that the assigned device faults mid-run.
    verify_fault_rate: float = 0.0
    #: Per-transport probability that a routing channel faults, forcing a
    #: reroute that adds one transport time to the affected precedence edge.
    verify_channel_fault_rate: float = 0.0
    #: Retry attempts on the faulted device before migrating the operation
    #: to a compatible spare; if no spare exists the trial is unrecovered.
    verify_max_retries: int = 1
    #: Wash time inserted between consecutive operations on one device when
    #: the later operation is not a direct successor of the earlier one
    #: (contamination model); ``0`` disables washes.
    verify_wash_time: int = 0
    #: Worker processes the verification stage shards its trials across.
    #: Runtime advice, not a result knob: per-trial random streams are
    #: derived from the trial *index*, so the report is byte-identical for
    #: every worker count — which is why this field is excluded from cache
    #: keys (see :data:`RUNTIME_ADVICE_FIELDS`), like an ILP warm start.
    verify_workers: int = 1

    def __post_init__(self) -> None:
        if self.num_mixers < 1:
            raise ValueError("at least one mixer is required")
        if self.transport_time < 0:
            raise ValueError("transport_time must be non-negative")
        if self.grid_rows < 2 or self.grid_cols < 2:
            raise ValueError("the connection grid must be at least 2x2")
        # A config naming an unknown backend must fail at construction
        # (manifest load, CLI parse), not mid-solve.
        known = backend_names()
        for field_name in ("scheduler_backend", "archsyn_backend"):
            backend = getattr(self, field_name)
            if backend not in known:
                raise ValueError(
                    f"{field_name} names unknown solver backend {backend!r}; "
                    f"known backends: {list(known)}"
                )
        check_knobs(self, prefix="verify_")

    def grid_shape(self) -> Tuple[int, int]:
        return (self.grid_rows, self.grid_cols)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-serializable form (enums become their string values).

        The payload round-trips through :meth:`from_dict` and is hashed by the
        batch engine's content-addressed result cache, so every field that can
        change a synthesis outcome must appear here.
        """
        data: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = value.value if isinstance(value, enum.Enum) else value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FlowConfig":
        """Rebuild a configuration from :meth:`to_dict` output or a manifest.

        Raises
        ------
        ValueError
            On unknown keys, invalid enum values or wrong-typed values, so
            typos in a batch manifest fail loudly instead of silently using
            defaults (or silently flipping behavior — a JSON string like
            ``"false"`` is truthy and must not pass for a bool).
        """
        hints = _field_types(cls)
        unknown = set(data) - hints.keys()
        if unknown:
            raise ValueError(f"unknown flow-config keys: {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for name, value in data.items():
            if name == "scheduler":
                value = SchedulerEngine(value) if not isinstance(value, SchedulerEngine) else value
            elif name == "synthesis":
                value = SynthesisEngine(value) if not isinstance(value, SynthesisEngine) else value
            else:
                value = _check_value_type(name, value, hints[name])
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def paper_defaults_for(cls, assay_name: str) -> "FlowConfig":
        """Per-assay settings chosen to match the paper's Table 2 setup.

        The paper does not list its device counts; these are back-solved so
        the assay completion times land in the same range (see
        ``benchmarks/test_bench_table2.py``, which prints the measured
        Table 2 next to the paper's): the random assays need four mixers to
        reach the reported throughput, and IVD/CPA add detectors for their
        optical steps.  PCR gets two mixers, which complete it in 330 s;
        three give 320 s, so neither reaches the paper's 290 s.
        """
        config = cls()
        if assay_name.startswith("RA"):
            config.num_mixers = 4
        if assay_name == "RA100":
            config.grid_rows = config.grid_cols = 5
        if assay_name == "PCR":
            config.num_mixers = 2
        if assay_name == "CPA":
            config.num_mixers = 3
            config.num_detectors = 2
        if assay_name == "IVD":
            config.num_mixers = 2
            config.num_detectors = 2
        return config


def apply_solver_override(config: FlowConfig, solver: Optional[str]) -> FlowConfig:
    """A copy of ``config`` with both ILP backend fields forced to ``solver``.

    The one definition of the ``--solver`` override semantics, shared by the
    CLI (single/batch/sweep modes) and the synthesis service's server-side
    rewrite.  ``None`` returns the config unchanged;
    an unknown backend name fails ``FlowConfig`` validation immediately.
    """
    if solver is None:
        return config
    return replace(config, scheduler_backend=solver, archsyn_backend=solver)


def solver_options_for(config: FlowConfig, stage: str):
    """The single ``FlowConfig`` → ``SolverOptions`` construction point.

    Both exact engines receive their solver options from here (threaded via
    the ``solver`` field of their engine configs), so no engine can drift
    from the flow configuration again — historically the architecture
    synthesizer built its options from ``time_limit_s`` alone and silently
    dropped any configured MIP gap.

    Parameters
    ----------
    stage:
        ``"scheduler"`` (uses ``ilp_time_limit_s``/``scheduler_backend``) or
        ``"archsyn"`` (uses ``archsyn_time_limit_s``/``archsyn_backend``);
        both share :attr:`FlowConfig.mip_rel_gap`.
    """
    from repro.ilp.solver import SolverOptions

    if stage == "scheduler":
        return SolverOptions(
            time_limit_s=config.ilp_time_limit_s,
            mip_rel_gap=config.mip_rel_gap,
            backend=config.scheduler_backend,
        )
    if stage == "archsyn":
        return SolverOptions(
            time_limit_s=config.archsyn_time_limit_s,
            mip_rel_gap=config.mip_rel_gap,
            backend=config.archsyn_backend,
        )
    raise ValueError(f"unknown solver stage {stage!r}; expected 'scheduler' or 'archsyn'")
