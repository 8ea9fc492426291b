"""Bioassay sequencing graphs.

A biochemical assay protocol is described by a *sequencing graph*: a directed
acyclic graph whose nodes are operations (mixing, dilution, detection, ...)
and whose edges express data/fluid dependencies — a parent operation's output
fluid is an input of its child (Section 1, Fig. 2(a) of the paper).

This package provides:

* :class:`Operation` and :class:`SequencingGraph` — the core data model;
* :mod:`repro.graph.generators` — the seeded random assay generator used for
  the RA30/RA70/RA100 test cases;
* :mod:`repro.graph.library` — the real-world assays (PCR, IVD, CPA);
* :mod:`repro.graph.serialization` — JSON round-tripping.
"""

from repro.graph.sequencing_graph import Operation, OperationType, SequencingGraph
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.library import (
    build_pcr,
    build_ivd,
    build_cpa,
    assay_by_name,
    PAPER_ASSAYS,
)
from repro.graph.serialization import graph_to_dict, graph_from_dict, save_graph, load_graph
from repro.graph.validation import GraphValidationError, validate_graph

__all__ = [
    "Operation",
    "OperationType",
    "SequencingGraph",
    "RandomAssayConfig",
    "random_assay",
    "build_pcr",
    "build_ivd",
    "build_cpa",
    "assay_by_name",
    "PAPER_ASSAYS",
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
    "GraphValidationError",
    "validate_graph",
]
