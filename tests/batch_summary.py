"""The run-invariant text form of a batch report, shared by the serial,
parallel and warm-cache invariance tests."""

from __future__ import annotations


def deterministic_summary(report) -> str:
    """Everything in ``report`` except wall-clock timings, one line per job.

    Two runs of the same job list (serial or parallel, cold or warm cache)
    must give byte-identical text.  Stage actions are left out: a warm run
    replays stages a cold run executed.
    """
    lines = []
    for outcome in report.outcomes:
        if outcome.result is None:
            lines.append(f"{outcome.job_id}: FAILED {outcome.error}")
            continue
        m = outcome.metrics()
        lines.append(
            f"{outcome.job_id}: tE={m.execution_time} G={m.grid_shape[0]}x{m.grid_shape[1]} "
            f"ne={m.num_edges} nv={m.num_valves} "
            f"dp={m.dim_compact[0]}x{m.dim_compact[1]} "
            f"transports={m.num_transport_tasks} key={outcome.cache_key[:12]}"
        )
    return "\n".join(lines)
