"""Stage-granular batch-synthesis engine with content-addressed caching.

The paper's whole evaluation (Table 2, Figs. 8-11) is a *batch* of
independent assay syntheses, and each synthesis is a staged pipeline
(schedule → architecture → physical design).  This package exploits both
structures:

* :class:`~repro.batch.jobs.BatchJob` — one ``(graph, config)`` synthesis
  request, loadable from a JSON manifest (``repro batch manifest.json``) or
  expanded from a parameter grid (``repro sweep spec.json``,
  :func:`~repro.batch.jobs.expand_sweep`);
* :class:`~repro.batch.cache.ResultCache` — a single-flight,
  content-addressed cache with an in-memory LRU tier and durable tiers
  behind it (the ``memory``/``disk``/``shared`` backends of
  :mod:`repro.batch.cache_backends`), holding per-stage artifacts (keyed
  by ``hash(upstream hash + the config slice the stage consumes)``) as
  well as assembled results;
* :class:`~repro.batch.engine.BatchSynthesisEngine` — executes jobs stage
  by stage with cross-job sharing (sweep points that agree on a prefix of
  the pipeline solve it once), per-tier process-pool parallelism, and
  resume-from-last-completed-stage after a crash;
* :class:`~repro.batch.report.BatchReport` — per-job makespan / grid size /
  wall-clock aggregation plus the per-stage ran/replayed/shared breakdown.

The experiment drivers (``repro.experiments``) and the CLI both go through
this engine, so a warm-cache re-run of the paper evaluation performs zero
solver invocations — and a sweep that only changes physical-design knobs
performs exactly one scheduling solve.
"""

from repro.batch.cache import CacheStats, ResultCache, cache_key
from repro.batch.cache_backends import CACHE_BACKENDS, cache_tiers
from repro.batch.engine import BatchSynthesisEngine
from repro.batch.jobs import (
    BatchJob,
    expand_sweep,
    job_from_spec,
    load_manifest,
    load_sweep,
    manifest_jobs,
)
from repro.batch.report import (
    BatchReport,
    JobOutcome,
    format_batch_report,
    format_stage_summary,
)

__all__ = [
    "CACHE_BACKENDS",
    "BatchJob",
    "BatchReport",
    "BatchSynthesisEngine",
    "CacheStats",
    "JobOutcome",
    "ResultCache",
    "cache_key",
    "cache_tiers",
    "expand_sweep",
    "format_batch_report",
    "format_stage_summary",
    "job_from_spec",
    "load_manifest",
    "load_sweep",
    "manifest_jobs",
]
