"""Random assay generation and the synthetic-workload generator registry.

The paper evaluates three randomly generated assays (RA30, RA70, RA100) in
addition to the real-world benchmarks.  The original random graphs were not
published, so this module provides a deterministic, seeded generator that
produces statistically similar sequencing graphs: layered DAGs of mixing
operations where every mix has at most two fluid inputs (as a physical mixer
combines two volumes) and durations drawn from the typical mixing-time range.

Beyond the three fixed presets, the generator is the repository's synthetic
*workload family*: batch manifests and exploration specs reference it by
name through the registry at the bottom (``{"generator": "random_assay",
"num_operations": 70, "seed": 3}``), so a design-space exploration can sweep
assay sizes, merge probabilities, and layer widths without shipping graph
files around.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.graph.sequencing_graph import Operation, OperationType, SequencingGraph
from repro.graph.validation import assert_valid
from repro.keys import derive_seed, stable_digest

#: Root seed of all synthetic-graph randomness.  Sub-seeds are derived from
#: it with :func:`repro.keys.derive_seed` (SHA-based, so identical in every
#: worker process — never Python's per-process ``hash()``), which makes
#: synthetic-graph runs bit-reproducible across processes and machines.
DEFAULT_SEED = 2017


@dataclass
class RandomAssayConfig:
    """Parameters for :func:`random_assay`.

    Attributes
    ----------
    num_operations:
        Number of device (mixing) operations to create.
    seed:
        RNG seed; the same seed always produces the same graph.
    durations:
        Pool of operation durations (seconds) to sample from.  The defaults
        follow common mixing times reported for flow-based chips (60–120 s).
    merge_probability:
        Probability that a new operation consumes the outputs of two earlier
        operations (creating a reconvergent structure) instead of one.
    layer_width:
        Hard cap on how many operations may share the same *layer* (an
        operation's layer is one plus the deepest layer among its parents;
        dispensing inputs sit at layer zero) — it bounds how much intrinsic
        parallelism the assay has.  ``None`` (the default) leaves the shape
        unconstrained, which is exactly what the historical RA30/RA70/RA100
        presets were generated with, so their graphs are bit-identical to
        the pinned ones.
    num_inputs:
        Number of dispensing (input) nodes feeding the first layer.  When
        ``None`` it defaults to one input per operation plus one.
    """

    num_operations: int
    seed: int = DEFAULT_SEED
    durations: Sequence[int] = (50, 60, 70, 80, 90, 100)
    merge_probability: float = 0.9
    layer_width: Optional[int] = None
    num_inputs: Optional[int] = None
    name: Optional[str] = None


def random_assay(config: RandomAssayConfig) -> SequencingGraph:
    """Generate a random, valid sequencing graph.

    The construction is generational: operations are created one at a time;
    each new operation picks one or two *open* fluids (outputs that no other
    operation has consumed yet) as its inputs, preferring recent outputs so
    the graph depth grows with size — the same qualitative shape as protocol
    graphs such as PCR (a reduction tree) or serial dilutions (long chains).

    With a ``layer_width`` the parent choice additionally respects a hard
    per-layer cap: a selection whose resulting layer is already full is
    skipped in favor of the next shuffled candidate.  A valid choice always
    exists — the deepest open fluid extends the graph into an empty layer —
    so the cap never deadlocks; with ``layer_width=None`` the selection is
    byte-for-byte the historical unconstrained one.
    """
    if config.num_operations <= 0:
        raise ValueError("num_operations must be positive")
    if config.layer_width is not None and config.layer_width < 1:
        raise ValueError("layer_width must be positive (or None for no cap)")
    if config.num_inputs is not None and config.num_inputs < 1:
        raise ValueError("num_inputs must be positive (or None for the default)")
    if not config.durations:
        raise ValueError("durations pool must be non-empty")
    rng = random.Random(config.seed)
    name = config.name or f"RA{config.num_operations}"
    graph = SequencingGraph(name=name)

    num_inputs = config.num_inputs
    if num_inputs is None:
        # One fresh input per mixing operation (plus one) keeps the pool of
        # open fluids non-empty throughout, so the graph becomes a random
        # reduction forest — wide at the leaves, merging toward a few final
        # products — the same qualitative shape as real protocols such as PCR.
        num_inputs = config.num_operations + 1

    open_fluids: List[str] = []
    depth: Dict[str, int] = {}
    layer_counts: Dict[int, int] = {}
    for idx in range(1, num_inputs + 1):
        op_id = f"i{idx}"
        graph.add_input(op_id, duration=0, label=f"input {idx}")
        open_fluids.append(op_id)
        depth[op_id] = 0

    for idx in range(1, config.num_operations + 1):
        op_id = f"o{idx}"
        duration = rng.choice(list(config.durations))
        graph.add_operation(Operation(op_id, OperationType.MIX, duration, label=f"mix {idx}"))

        want_two = rng.random() < config.merge_probability and len(open_fluids) >= 2
        num_parents = 2 if want_two else 1
        parents = _pick_parents(
            rng, open_fluids, num_parents, config.layer_width, depth, layer_counts
        )
        for parent in parents:
            graph.add_edge(parent, op_id)
            open_fluids.remove(parent)
        open_fluids.append(op_id)
        layer = 1 + max(depth[parent] for parent in parents)
        depth[op_id] = layer
        layer_counts[layer] = layer_counts.get(layer, 0) + 1

        # Occasionally re-open an input so the graph does not collapse into a
        # single chain when merge_probability is high.
        if not open_fluids or (len(open_fluids) < 2 and rng.random() < 0.4):
            extra_id = f"i{len(graph.input_operations()) + 1}"
            if extra_id not in graph:
                graph.add_input(extra_id, duration=0, label="extra input")
                open_fluids.append(extra_id)
                depth[extra_id] = 0

    assert_valid(graph)
    return graph


def _pick_parents(
    rng: random.Random,
    open_fluids: List[str],
    count: int,
    layer_width: Optional[int],
    depth: Dict[str, int],
    layer_counts: Dict[int, int],
) -> List[str]:
    """Pick ``count`` distinct parents uniformly among the open fluids.

    Uniform choice over the whole open-fluid pool produces a random reduction
    forest whose depth grows logarithmically with the operation count, so the
    generated assays keep enough parallelism to exercise several devices at
    once (as the paper's random assays evidently do).

    With ``layer_width`` set, the first selection (in shuffle order) whose
    resulting layer — one plus the deepest chosen parent — still has room is
    used instead of the plain prefix.  The deepest open fluid always opens a
    fresh layer, so a single-parent choice always exists; a pair search that
    finds no valid pair degrades to that single parent.
    """
    count = min(count, len(open_fluids))
    candidates = list(open_fluids)
    # ``rng.shuffle(candidates)``, inlined: the same Fisher-Yates swaps from
    # the same ``getrandbits`` calls, without two method calls per element.
    getrandbits = rng.getrandbits
    for i in range(len(candidates) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        candidates[i], candidates[j] = candidates[j], candidates[i]
    if layer_width is None:
        return candidates[:count]

    def has_room(parents: Sequence[str]) -> bool:
        layer = 1 + max(depth[parent] for parent in parents)
        return layer_counts.get(layer, 0) < layer_width

    if count == 2:
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                if has_room((candidates[i], candidates[j])):
                    return [candidates[i], candidates[j]]
        # No pair fits the cap; fall through to the guaranteed single parent.
    for candidate in candidates:
        if has_room((candidate,)):
            return [candidate]
    # Unreachable: the deepest open fluid's next layer is always empty (any
    # operation above it would itself be deeper), but never trap a caller on
    # an assertion if an invariant shifts — degrade to the historical choice.
    return candidates[:1]


def paper_random_assay(
    num_operations: int, root_seed: Optional[int] = None
) -> SequencingGraph:
    """The RA30/RA70/RA100 stand-ins used throughout the benchmarks.

    With the default ``root_seed=None`` the historical per-size seed table
    is used, so every experiment (and the golden regression pins) sees the
    exact graphs the seed implementation produced.  Passing a ``root_seed``
    threads one seed through the whole family instead: each size's seed is
    derived from it with :func:`repro.keys.derive_seed`, which is stable
    across processes, so a seeded sweep of synthetic assays is
    bit-reproducible no matter which worker generates which graph.
    """
    if root_seed is None:
        seeds = {30: 30017, 70: 70017, 100: 100017}
        seed = seeds.get(num_operations, DEFAULT_SEED + num_operations)
    else:
        seed = derive_seed(root_seed, f"paper-random-assay/{num_operations}")
    config = RandomAssayConfig(num_operations=num_operations, seed=seed)
    return random_assay(config)


# ------------------------------------------------------------------ registry

def _random_assay_from_params(params: Dict[str, Any]) -> SequencingGraph:
    """Build a :func:`random_assay` graph from JSON generator parameters.

    The parameters are exactly the :class:`RandomAssayConfig` fields;
    ``durations`` accepts a JSON list.  Unknown keys raise so a typo in a
    manifest or exploration spec fails loudly.
    """
    known = {spec.name for spec in fields(RandomAssayConfig)}
    unknown = set(params) - known
    if unknown:
        raise ValueError(
            f"random_assay generator: unknown parameters {sorted(unknown)} "
            f"(known: {sorted(known)})"
        )
    if "num_operations" not in params:
        raise ValueError("random_assay generator requires 'num_operations'")
    params = dict(params)
    if "durations" in params:
        durations = params["durations"]
        if not isinstance(durations, (list, tuple)) or not durations:
            raise ValueError("random_assay generator: 'durations' must be a non-empty list")
        params["durations"] = tuple(durations)
    return random_assay(RandomAssayConfig(**params))


def _paper_random_assay_from_params(params: Dict[str, Any]) -> SequencingGraph:
    """Build a :func:`paper_random_assay` graph from JSON generator parameters."""
    unknown = set(params) - {"num_operations", "root_seed"}
    if unknown:
        raise ValueError(
            f"paper_random_assay generator: unknown parameters {sorted(unknown)} "
            "(known: ['num_operations', 'root_seed'])"
        )
    if "num_operations" not in params:
        raise ValueError("paper_random_assay generator requires 'num_operations'")
    return paper_random_assay(params["num_operations"], root_seed=params.get("root_seed"))


#: Named synthetic-graph generators, keyed by the ``"generator"`` value of
#: an inline job spec (see :func:`generated_graph`).
GENERATORS: Dict[str, Callable[[Dict[str, Any]], SequencingGraph]] = {
    "random_assay": _random_assay_from_params,
    "paper_random_assay": _paper_random_assay_from_params,
}


def generator_names() -> Tuple[str, ...]:
    """Registered generator names, sorted (for error messages and docs)."""
    return tuple(sorted(GENERATORS))


def generated_graph(spec: Dict[str, Any]) -> SequencingGraph:
    """Build a graph from an inline generator spec.

    ``spec`` is ``{"generator": <name>, **params}`` — the shape batch
    manifests and exploration workloads embed directly, e.g.
    ``{"generator": "random_assay", "num_operations": 70, "seed": 3}``.
    Raises :class:`ValueError` on an unknown generator or bad parameters.
    """
    if not isinstance(spec, dict) or not spec.get("generator"):
        raise ValueError("generator spec must be an object with a 'generator' name")
    name = spec["generator"]
    builder = GENERATORS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown generator {name!r}; registered generators: {list(generator_names())}"
        )
    params = {key: value for key, value in spec.items() if key != "generator"}
    return builder(params)


def generator_spec_id(spec: Dict[str, Any]) -> str:
    """Short, deterministic default job id for an inline generator spec.

    ``<graph name>~<digest6>`` — the digest distinguishes two generator jobs
    whose graphs share a name (e.g. two different seeds both named RA30).
    """
    digest = stable_digest({"generator_spec": spec})[:6]
    return f"{generated_graph_name(spec)}~{digest}"


def generated_graph_name(spec: Dict[str, Any]) -> str:
    """The name the generated graph will carry, without building the graph.

    Falls back to the generator name when the spec does not determine it
    cheaply; only used for human-readable default ids.
    """
    if spec.get("name"):
        return str(spec["name"])
    num_operations = spec.get("num_operations")
    if isinstance(num_operations, int):
        return f"RA{num_operations}"
    return str(spec.get("generator", "generated"))
