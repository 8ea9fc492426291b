"""The declarative exploration spec: axes × workloads → candidate space.

An exploration spec is a JSON object (a file for ``repro explore``, a body
for ``POST /jobs``) describing *what* to search — the engine and strategies
decide *how*::

    {
      "name": "pcr-vs-synthetic",
      "workloads": [
        {"assay": "PCR"},
        {"generator": "random_assay", "num_operations": 40, "seed": 7,
         "id": "ra40"}
      ],
      "axes": {"num_mixers": [2, 3, 4], "pitch": [5.0, 6.0]},
      "base": {"ilp_operation_limit": 0},
      "objectives": ["makespan", "storage_cells", "device_count"],
      "strategy": "successive-halving",
      "budget": 16,
      "seed": 42
    }

``workloads`` entries are batch-manifest job fragments (named assay, inline
generator spec, or — for file-based specs — a ``protocol`` path resolved
relative to the spec file).  ``axes`` maps :class:`FlowConfig` fields to
value lists exactly like a sweep grid; the candidate space is the cartesian
product of the axes crossed with every workload.  ``base`` underlies every
point, ``objectives`` names registered members of
:mod:`repro.explore.objectives` (all minimized), ``strategy`` names a
search strategy of :data:`repro.explore.strategies.STRATEGIES`, and ``budget`` caps how many candidates receive
a *full* synthesis evaluation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.batch.jobs import BatchJob, _format_sweep_value, job_from_spec
from repro.explore.objectives import DEFAULT_OBJECTIVES, OBJECTIVES, objective_names
from repro.graph.generators import generator_spec_id
from repro.keys import stable_digest
from repro.synthesis.config import FlowConfig

#: Keys an exploration-spec payload may carry at top level.
SPEC_KEYS = ("name", "workloads", "axes", "base", "objectives", "strategy",
             "budget", "seed")


@dataclass(frozen=True)
class Candidate:
    """One point of the candidate space: a workload plus an axes assignment."""

    candidate_id: str
    workload: Dict[str, Any]
    point: Dict[str, Any]


@dataclass
class ExplorationSpec:
    """A validated exploration request (see the module docstring for the JSON).

    ``base_dir`` is runtime-only context (where ``protocol`` workload paths
    resolve); it never serializes, so a spec's :meth:`digest` — which binds
    persisted exploration state to the spec that produced it — is location
    independent.
    """

    workloads: List[Dict[str, Any]]
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    base: Dict[str, Any] = field(default_factory=dict)
    objectives: Tuple[str, ...] = DEFAULT_OBJECTIVES
    strategy: str = "exhaustive"
    budget: Optional[int] = None
    seed: int = 0
    name: Optional[str] = None
    base_dir: Optional[Path] = None
    #: Runtime-only generator-graph memo (digest → graph), seeded by the
    #: validation probe so the engine never regenerates a graph validation
    #: already built.  Like ``base_dir``, it never serializes.
    graph_cache: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_payload(
        cls, payload: Any, base_dir: Optional[Path] = None, source: str = "exploration spec"
    ) -> "ExplorationSpec":
        """Validate a parsed JSON payload into a spec.

        Raises :class:`ValueError` on any structural problem — unknown keys,
        empty workloads, non-list axes, unknown objectives or strategies —
        so both the CLI (exit code 2) and the service (HTTP 400) reject a
        malformed spec before any solver runs.
        """
        from repro.explore.strategies import strategy_names

        if not isinstance(payload, dict):
            raise ValueError(f"{source} must be a JSON object")
        unknown = set(payload) - set(SPEC_KEYS)
        if unknown:
            raise ValueError(f"{source}: unknown keys {sorted(unknown)}")

        workloads = payload.get("workloads")
        if not isinstance(workloads, list) or not workloads:
            raise ValueError(f"{source}: 'workloads' must be a non-empty list")
        for index, workload in enumerate(workloads):
            if not isinstance(workload, dict):
                raise ValueError(f"{source}: workload {index} must be an object")
            if "config" in workload:
                raise ValueError(
                    f"{source}: workload {index} must not carry 'config' "
                    "(use 'base' and 'axes' for flow-config values)"
                )
        axes = payload.get("axes") or {}
        if not isinstance(axes, dict):
            raise ValueError(f"{source}: 'axes' must be an object of field -> values")
        known_fields = {spec.name for spec in dataclass_fields(FlowConfig)}
        unknown_axes = set(axes) - known_fields
        if unknown_axes:
            raise ValueError(
                f"{source}: unknown flow-config axes {sorted(unknown_axes)}"
            )
        for axis, values in axes.items():
            if not isinstance(values, list) or not values:
                raise ValueError(
                    f"{source}: axis {axis!r} must map to a non-empty list"
                )
            # Each value must be a valid assignment of its field on its
            # own, so a wrong-typed or out-of-range axis value fails at
            # submit time (CLI exit 2 / HTTP 400) like a sweep's would,
            # not asynchronously mid-exploration.
            for value in values:
                try:
                    FlowConfig.from_dict({axis: value})
                except ValueError as exc:
                    raise ValueError(f"{source}: axis {axis!r}: {exc}") from exc

        base = payload.get("base") or {}
        if not isinstance(base, dict):
            raise ValueError(f"{source}: 'base' must be an object")
        overlap = set(base) & set(axes)
        if overlap:
            raise ValueError(
                f"{source}: {sorted(overlap)} appear in both 'base' and 'axes'"
            )

        # Probe-build one axis-free job per workload so an unknown assay,
        # bad generator parameters, a missing protocol file, or an invalid
        # 'base' (which rides along as the probe's config) fail *now* — the
        # CLI exits 2 and the service answers 400 at submit time, exactly
        # as the same mistake in a batch manifest would — instead of
        # surfacing asynchronously halfway into an exploration.
        graph_cache: Dict[str, Any] = {}
        for index, workload in enumerate(workloads):
            probe = {k: v for k, v in workload.items() if k != "id"}
            probe["config"] = dict(base)
            try:
                job_from_spec(
                    probe, base_dir=base_dir, index=index, graph_cache=graph_cache
                )
            except ValueError as exc:
                message = str(exc)
                prefix = f"job {index}: "
                if message.startswith(prefix):
                    message = message[len(prefix):]
                raise ValueError(
                    f"{source}: workload {index}: {message}"
                ) from exc

        objectives = payload.get("objectives", list(DEFAULT_OBJECTIVES))
        if not isinstance(objectives, list) or not objectives:
            raise ValueError(f"{source}: 'objectives' must be a non-empty list")
        if len(set(objectives)) != len(objectives):
            raise ValueError(f"{source}: duplicate objectives in {objectives}")
        unknown_objectives = set(objectives) - set(objective_names())
        if unknown_objectives:
            raise ValueError(
                f"{source}: unknown objectives {sorted(unknown_objectives)} "
                f"(registered: {list(objective_names())})"
            )
        needs_verify = [
            name for name in objectives if OBJECTIVES[name].requires_verification
        ]
        if needs_verify and not base.get("verify") and "verify" not in axes:
            raise ValueError(
                f"{source}: objectives {needs_verify} require the "
                'Monte-Carlo verification stage; set "verify": true in '
                "'base'"
            )

        strategy = payload.get("strategy", "exhaustive")
        if strategy not in strategy_names():
            raise ValueError(
                f"{source}: unknown strategy {strategy!r} "
                f"(known: {list(strategy_names())})"
            )

        budget = payload.get("budget")
        if budget is not None and (not isinstance(budget, int) or budget < 1):
            raise ValueError(f"{source}: 'budget' must be a positive integer")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int):
            raise ValueError(f"{source}: 'seed' must be an integer")

        return cls(
            workloads=workloads,
            axes=dict(axes),
            base=dict(base),
            objectives=tuple(objectives),
            strategy=strategy,
            budget=budget,
            seed=seed,
            name=payload.get("name"),
            base_dir=base_dir,
            graph_cache=graph_cache,
        )

    def to_payload(self) -> Dict[str, Any]:
        """The spec back as its canonical JSON payload (``base_dir`` excluded)."""
        return {
            "name": self.name,
            "workloads": self.workloads,
            "axes": self.axes,
            "base": self.base,
            "objectives": list(self.objectives),
            "strategy": self.strategy,
            "budget": self.budget,
            "seed": self.seed,
        }

    def digest(self) -> str:
        """Content digest binding persisted exploration state to this spec.

        Deliberately covers only the *candidate space and objectives* —
        workloads, axes, base, objectives — not the search-process knobs
        (strategy, budget, seed, name).  Raising the budget, switching
        strategy, or re-seeding and rerunning against the same state file
        is the intended "keep exploring" workflow; changing what a
        candidate *is* or how it is scored invalidates the state.
        """
        return stable_digest(
            {
                "exploration_space": {
                    "workloads": self.workloads,
                    "axes": self.axes,
                    "base": self.base,
                    "objectives": list(self.objectives),
                }
            }
        )

    def candidate_count(self) -> int:
        """Size of the full candidate space (workloads × axes grid)."""
        count = len(self.workloads)
        for values in self.axes.values():
            count *= len(values)
        return count


def workload_id(workload: Dict[str, Any], index: int) -> str:
    """Stable display id of one workload entry (explicit ``id`` wins)."""
    if workload.get("id"):
        return str(workload["id"])
    if workload.get("assay"):
        return str(workload["assay"])
    if workload.get("generator"):
        spec = {k: v for k, v in workload.items() if k != "id"}
        return generator_spec_id(spec)
    if workload.get("protocol"):
        return Path(str(workload["protocol"])).stem
    return f"workload{index}"


def enumerate_candidates(spec: ExplorationSpec) -> List[Candidate]:
    """The full candidate space in deterministic order.

    Workloads in spec order; within a workload, the axes grid in *sorted
    axis-name* order.  The sort is what keeps candidate ids canonical: the
    resume digest hashes the axes as a key-order-insensitive mapping, so a
    spec file whose author reordered the axes keys must enumerate the very
    same ``<workload>/<axis=value,...>`` ids — otherwise a resumed run
    would skip nothing and duplicate every design point under a second id.
    Candidate ids are ``<workload>/<axis=value,...>`` — or just the
    workload id for an axis-free spec.  Duplicate ids (two identical
    workloads, or axis values that render identically) are rejected: every
    frontier row must be addressable.
    """
    axes = sorted(spec.axes)
    combos = list(itertools.product(*(spec.axes[a] for a in axes)))
    candidates: List[Candidate] = []
    seen: set = set()
    for index, workload in enumerate(spec.workloads):
        wid = workload_id(workload, index)
        for combo in combos:
            point = dict(zip(axes, combo))
            suffix = ",".join(
                f"{a}={_format_sweep_value(v)}" for a, v in point.items()
            )
            candidate_id = f"{wid}/{suffix}" if suffix else wid
            if candidate_id in seen:
                raise ValueError(
                    f"exploration spec: duplicate candidate id {candidate_id!r} "
                    "(identical workloads, or axis values that render identically)"
                )
            seen.add(candidate_id)
            candidates.append(
                Candidate(candidate_id=candidate_id, workload=workload, point=point)
            )
    return candidates


def candidate_job(
    spec: ExplorationSpec,
    candidate: Candidate,
    graph_cache: Optional[Dict[str, Any]] = None,
) -> BatchJob:
    """Build the :class:`BatchJob` evaluating one candidate.

    Delegates to the batch layer's :func:`job_from_spec`, so generator
    workloads, paper-default configs for named assays, and config validation
    all behave exactly as in a manifest; the candidate's axes point overrides
    the spec's ``base``.  ``graph_cache`` memoizes generator graphs across
    candidates of the same workload (the engine passes one per run, so a
    workload crossed with a k-point grid generates its graph once, not k
    times).
    """
    source = {k: v for k, v in candidate.workload.items() if k != "id"}
    job_spec = {
        **source,
        "id": candidate.candidate_id,
        "config": {**spec.base, **candidate.point},
    }
    return job_from_spec(job_spec, base_dir=spec.base_dir, graph_cache=graph_cache)


def load_spec(path: Union[str, Path]) -> ExplorationSpec:
    """Load and validate an exploration spec file.

    ``protocol`` workload paths resolve relative to the spec file's
    directory, mirroring batch manifests.
    """
    path = Path(path)
    payload = json.loads(path.read_text())
    return ExplorationSpec.from_payload(
        payload, base_dir=path.parent, source=f"exploration spec {path}"
    )
