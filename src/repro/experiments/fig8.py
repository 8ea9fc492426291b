"""Fig. 8: edge and valve ratios versus the full connection grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.common import (
    ExperimentSettings,
    assay_names,
    assay_result,
    prefetch_assay_results,
)


#: Approximate ratios read off the paper's Fig. 8 bar chart (printed next to
#: the measured ratios by ``benchmarks/test_bench_fig8.py``; the bars are not
#: labelled with exact numbers).
PAPER_FIG8 = {
    "RA100": {"edge": 0.80, "valve": 0.73},
    "RA70": {"edge": 0.83, "valve": 0.79},
    "CPA": {"edge": 0.83, "valve": 0.83},
    "RA30": {"edge": 0.33, "valve": 0.33},
    "IVD": {"edge": 0.21, "valve": 0.21},
    "PCR": {"edge": 0.21, "valve": 0.17},
}


@dataclass
class Fig8Point:
    """Edge/valve ratio of one assay's synthesized architecture."""

    assay: str
    edge_ratio: float
    valve_ratio: float
    used_edges: int
    grid_edges: int
    used_valves: int
    grid_valves: int


def run_fig8(settings: Optional[ExperimentSettings] = None) -> List[Fig8Point]:
    """Regenerate the Fig. 8 series for all six assays."""
    settings = settings or ExperimentSettings()
    names = assay_names(settings)
    prefetch_assay_results(names, settings)
    points: List[Fig8Point] = []
    for name in names:
        result = assay_result(name, settings)
        architecture = result.architecture
        points.append(
            Fig8Point(
                assay=name,
                edge_ratio=architecture.edge_ratio(),
                valve_ratio=architecture.valve_ratio(),
                used_edges=architecture.num_edges,
                grid_edges=architecture.grid_edge_count(),
                used_valves=architecture.num_valves,
                grid_valves=architecture.grid_valve_count(),
            )
        )
    return points


def format_fig8(points: List[Fig8Point]) -> str:
    lines = ["Assay    edge_ratio  valve_ratio  (used/total edges, used/total valves)"]
    for point in points:
        lines.append(
            f"{point.assay:<8} {point.edge_ratio:>9.2f}  {point.valve_ratio:>10.2f}  "
            f"({point.used_edges}/{point.grid_edges}, {point.used_valves}/{point.grid_valves})"
        )
    return "\n".join(lines)
