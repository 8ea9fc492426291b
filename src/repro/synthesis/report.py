"""Plain-text reporting helpers (Table 2 style rows, result summaries)."""

from __future__ import annotations

from typing import List

from repro.ilp.solver import SolveRecord
from repro.scheduling.binding import binding_summary
from repro.synthesis.flow import SynthesisResult
from repro.synthesis.metrics import FlowMetrics, collect_metrics

_TABLE2_COLUMNS = [
    ("Assay", 7),
    ("|O|", 5),
    ("tE", 6),
    ("ts(s)", 8),
    ("G", 6),
    ("ne", 4),
    ("nv", 4),
    ("tr(s)", 8),
    ("dr", 8),
    ("de", 8),
    ("dp", 8),
    ("tp(s)", 8),
]


def table2_header() -> str:
    """Header line matching the paper's Table 2 columns."""
    return " ".join(name.ljust(width) for name, width in _TABLE2_COLUMNS)


def format_table2_row(metrics: FlowMetrics) -> str:
    """One Table 2 row for an assay's metrics."""
    values = [
        metrics.assay,
        str(metrics.num_operations),
        str(metrics.execution_time),
        f"{metrics.scheduling_time_s:.2f}",
        f"{metrics.grid_shape[0]}x{metrics.grid_shape[1]}",
        str(metrics.num_edges),
        str(metrics.num_valves),
        f"{metrics.synthesis_time_s:.2f}",
        f"{metrics.dim_architecture[0]}x{metrics.dim_architecture[1]}",
        f"{metrics.dim_expanded[0]}x{metrics.dim_expanded[1]}",
        f"{metrics.dim_compact[0]}x{metrics.dim_compact[1]}",
        f"{metrics.physical_time_s:.2f}",
    ]
    return " ".join(value.ljust(width) for value, (_, width) in zip(values, _TABLE2_COLUMNS))


def _solve_note(solve: SolveRecord) -> str:
    """`` (feasible, gap X%)`` for a solve that stopped short of optimal."""
    if solve.status.is_optimal():
        return ""
    if solve.mip_gap is None:
        return f" ({solve.status.value})"
    return f" ({solve.status.value}, gap {100 * solve.mip_gap:.2f}%)"


def result_report(result: SynthesisResult) -> str:
    """Multi-section report of a single synthesis run, for examples/CLI use."""
    metrics = collect_metrics(result)
    lines: List[str] = []
    lines.append(f"=== Synthesis report: {result.graph.name} ===")
    lines.append(
        f"operations: {metrics.num_operations}, devices: {len(result.library)}, "
        f"scheduler: {metrics.scheduler_engine}, synthesizer: {metrics.synthesis_engine}"
    )
    parts = [
        f"{stage}={solve.backend}" + _solve_note(solve)
        for stage, solve in (
            ("schedule", result.schedule.solve),
            ("archsyn", result.architecture.solve),
        )
        if solve is not None and solve.backend
    ]
    if parts:
        lines.append("solver backends: " + ", ".join(parts))
    lines.append(
        f"execution time tE = {metrics.execution_time} s "
        f"(scheduling took {metrics.scheduling_time_s:.2f} s)"
    )
    lines.append("binding:")
    lines.extend("  " + line for line in binding_summary(result.schedule))
    lines.append(
        f"architecture: {metrics.grid_shape[0]}x{metrics.grid_shape[1]} grid, "
        f"{metrics.num_edges} channel segments, {metrics.num_valves} valves "
        f"(edge ratio {metrics.edge_ratio:.2f}, valve ratio {metrics.valve_ratio:.2f})"
    )
    lines.append(
        f"storage: {metrics.num_storage_requirements} cached samples, "
        f"peak {metrics.peak_storage} simultaneously, "
        f"{metrics.total_storage_time} s total caching time"
    )
    lines.append(
        f"layout: architecture {metrics.dim_architecture[0]}x{metrics.dim_architecture[1]} -> "
        f"with devices {metrics.dim_expanded[0]}x{metrics.dim_expanded[1]} -> "
        f"compressed {metrics.dim_compact[0]}x{metrics.dim_compact[1]} "
        f"({result.physical.area_reduction:.0%} area saved)"
    )
    return "\n".join(lines)
