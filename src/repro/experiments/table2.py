"""Table 2: scheduling, architectural synthesis and physical design results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.common import (
    ExperimentSettings,
    assay_names,
    assay_result,
    prefetch_assay_results,
)
from repro.synthesis.metrics import FlowMetrics, collect_metrics
from repro.synthesis.report import format_table2_row, table2_header


#: The paper's Table 2 values, printed next to the measured table by
#: ``benchmarks/test_bench_table2.py`` and used by the comparison helpers
#: below.  Dimensions are (width, height) strings as printed.
PAPER_TABLE2 = {
    "RA100": {"|O|": 100, "tE": 1820, "G": "5x5", "ne": 32, "nv": 58, "dr": "20x20", "de": "26x26", "dp": "16x16"},
    "RA70": {"|O|": 70, "tE": 1180, "G": "4x4", "ne": 20, "nv": 38, "dr": "15x15", "de": "21x21", "dp": "11x12"},
    "CPA": {"|O|": 55, "tE": 1070, "G": "4x4", "ne": 20, "nv": 40, "dr": "15x15", "de": "21x21", "dp": "11x13"},
    "RA30": {"|O|": 30, "tE": 670, "G": "4x4", "ne": 8, "nv": 16, "dr": "15x10", "de": "21x16", "dp": "13x9"},
    "IVD": {"|O|": 12, "tE": 280, "G": "4x4", "ne": 5, "nv": 10, "dr": "10x5", "de": "16x9", "dp": "12x5"},
    "PCR": {"|O|": 7, "tE": 290, "G": "4x4", "ne": 5, "nv": 8, "dr": "5x10", "de": "7x14", "dp": "4x8"},
}


@dataclass
class Table2Row:
    """One measured row of Table 2 plus the corresponding paper values."""

    metrics: FlowMetrics
    paper: dict

    @property
    def assay(self) -> str:
        return self.metrics.assay

    def formatted(self) -> str:
        return format_table2_row(self.metrics)

    def execution_time_vs_paper(self) -> float:
        """Measured tE / paper tE (1.0 = identical)."""
        paper_te = self.paper.get("tE", 0)
        return self.metrics.execution_time / paper_te if paper_te else 0.0


def run_table2(settings: Optional[ExperimentSettings] = None) -> List[Table2Row]:
    """Regenerate Table 2 for all six assays (paper order)."""
    settings = settings or ExperimentSettings()
    names = assay_names(settings)
    prefetch_assay_results(names, settings)
    rows: List[Table2Row] = []
    for name in names:
        result = assay_result(name, settings)
        metrics = collect_metrics(result)
        rows.append(Table2Row(metrics=metrics, paper=PAPER_TABLE2.get(name, {})))
    return rows


def format_table2(rows: List[Table2Row]) -> str:
    """The measured table as printable text (same columns as the paper)."""
    lines = [table2_header()]
    lines.extend(row.formatted() for row in rows)
    return "\n".join(lines)
